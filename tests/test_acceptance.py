"""Acceptance gate: ten property-based criteria at desk scale.

Each test prints exactly one PASS/FAIL line with its measured quantities,
then asserts.  Tolerances are pinned in the assertions, not configurable.
"""

import numpy as np
import pytest
import scipy.linalg

from elastobranch.assembly import (Discretization, LoadProgram, State, _pattern,
                                   homotopy_operator, jacobian, residual,
                                   residual_dlam, solve_bordered)
from elastobranch.continuation import ContinuationSettings, parity_tracker, trace_branch
from elastobranch.ellipticity import audit_state, fibonacci_sphere
from elastobranch.materials import (MooneyRivlin, NeoHookean, random_gl_plus)
from elastobranch.mesh import build_box_mesh, star_shape_check
from elastobranch.probes import (global_min_probe, quasiconvexity_probe,
                                 uniqueness_probe)
from elastobranch.runner import CSV_HEADER, run
from elastobranch.tensor import EYE3

from acoustic_oracle import adn_det
from stokes_case import solve_stokes


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print("%s: %s [%s]" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s [%s]" % (name, detail)


def _ramped_dead_load(scale=3.0):
    return LoadProgram(b_family='dead', b_scale=scale,
                       b_direction=np.array([1.0, 0.0, 0.0]),
                       b_ramp=np.array([0.0, 2.0, 0.0]))


def test_ac01_derivative_consistency_chain(capsys):
    rng = np.random.default_rng(0)
    h = 1e-5
    worst_s = worst_c = 0.0
    for mat in (NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125)):
        for _ in range(50):
            f = random_gl_plus(rng)
            d = rng.standard_normal((3, 3))
            fd_s = (mat.energy(f + h * d) - mat.energy(f - h * d)) / (2 * h)
            err_s = abs(float(np.sum(mat.stress(f) * d)) - fd_s) / max(1.0, abs(fd_s))
            fd_c = (mat.stress(f + h * d) - mat.stress(f - h * d)) / (2 * h)
            err_c = np.abs(np.einsum('ijkl,kl->ij', mat.elasticity(f), d)
                           - fd_c).max() \
                / max(1.0, np.abs(fd_c).max())
            worst_s = max(worst_s, err_s)
            worst_c = max(worst_c, err_c)

    disc = Discretization(build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)))
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    prog = _ramped_dead_load()
    h = 1e-6
    worst_j = 0.0
    for _ in range(10):
        state = State(lam=0.3, u=1e-2 * rng.standard_normal(disc.n_u),
                      p=1e-2 * rng.standard_normal(disc.n_p),
                      mu_p=1e-2 * rng.standard_normal())
        j = jacobian(state, prog, mat, disc)
        d = rng.standard_normal(disc.n_total)
        d /= np.linalg.norm(d)
        fd = (residual(state.with_increment(h * d), prog, mat, disc)
              - residual(state.with_increment(-h * d), prog, mat, disc)) / (2 * h)
        worst_j = max(worst_j, np.abs(j @ d - fd).max() / max(1.0, np.abs(fd).max()))

    ok = worst_s < 1e-5 and worst_c < 1e-5 and worst_j < 1e-6
    _verdict(capsys, "AC01 derivative consistency chain", ok,
             "stress %.2e < 1e-5 | elasticity %.2e < 1e-5 | jacobian %.2e < 1e-6"
             % (worst_s, worst_c, worst_j))


def test_ac02_origin_correctness_and_homotopy(capsys):
    disc = Discretization(build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4)))
    mat = NeoHookean(mu=1.0)
    r0 = np.abs(residual(State.zero(disc), LoadProgram(), mat, disc)).max()
    _, info = solve_bordered(jacobian(State.zero(disc), LoadProgram(), mat, disc),
                             np.zeros(disc.n_total), _pattern(disc)[0])
    pivots = []
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        _, pinfo = solve_bordered(homotopy_operator(mu, disc, mat),
                                  np.zeros(disc.n_total), _pattern(disc)[0])
        pivots.append(pinfo.min_pivot)
    spread = max(pivots) / min(pivots)
    ok = r0 < 1e-12 and info.min_pivot > 0.0 and all(p > 0 for p in pivots) \
        and spread <= 100.0
    _verdict(capsys, "AC02 origin and homotopy sweep", ok,
             "residual %.2e < 1e-12 | origin pivot %.2e > 0 | spread %.3g <= 100"
             % (r0, info.min_pivot, spread))


def test_ac03_stokes_manufactured_convergence(capsys):
    errs = {n: solve_stokes(n) for n in (3, 4, 6)}
    rates_u, rates_p = [], []
    for a, b in ((3, 4), (4, 6)):
        rates_u.append(np.log(errs[a][0] / errs[b][0]) / np.log(b / a))
        rates_p.append(np.log(errs[a][1] / errs[b][1]) / np.log(b / a))
    ok = min(rates_u) >= 2.5 and min(rates_p) >= 1.7
    _verdict(capsys, "AC03 Stokes convergence", ok,
             "u rates %.2f, %.2f >= 2.5 | p rates %.2f, %.2f >= 1.7"
             % (rates_u[0], rates_u[1], rates_p[0], rates_p[1]))


def test_ac04_exact_homogeneous_shear_branch(capsys):
    disc = Discretization(build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3)))
    settings = ContinuationSettings(lam_target=1.0, ds0=0.2, ds_max=0.25)
    trace = trace_branch(LoadProgram(a_family='shear', a_rate=1.0), settings,
                         NeoHookean(mu=1.0), disc)
    recs = trace.records
    max_u = max(r.norm_u_inf for r in recs)
    max_p = max(r.norm_p_inf for r in recs)
    det_dev = max(abs(r.min_detF - 1.0) for r in recs)
    events = parity_tracker(recs)
    ok = trace.status == 'completed' and abs(recs[-1].lam - 1.0) < 1e-12 \
        and max_u < 1e-10 and max_p < 1e-10 and det_dev <= 1e-12 and not events
    _verdict(capsys, "AC04 homogeneous shear branch", ok,
             "status %s | max|u| %.2e < 1e-10 | max|p| %.2e < 1e-10 | "
             "|det-1| %.2e <= 1e-12 | parity events %d"
             % (trace.status, max_u, max_p, det_dev, len(events)))


def test_ac05_local_branch_tangency(capsys):
    disc = Discretization(build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4)))
    mat = NeoHookean(mu=1.0)
    prog = _ramped_dead_load()
    t, _ = solve_bordered(jacobian(State.zero(disc), prog, mat, disc),
                          -residual_dlam(State.zero(disc), prog, mat, disc),
                          _pattern(disc)[0])
    u_lin = t[:disc.n_u]
    ratios = []
    for lam in (1e-3, 5e-4, 2.5e-4):
        settings = ContinuationSettings(lam_target=lam, ds0=lam,
                                        newton_tol=1e-12, audit_dirs=8)
        trace = trace_branch(prog, settings, mat, disc)
        assert trace.status == 'completed'
        ratios.append(np.abs(trace.final_state.u - lam * u_lin).max() / lam ** 2)
    spread = (max(ratios) - min(ratios)) / max(ratios)
    ok = spread < 0.5
    _verdict(capsys, "AC05 local branch tangency", ok,
             "ratios %.6g, %.6g, %.6g | variation %.2g%% < 50%%"
             % (ratios[0], ratios[1], ratios[2], 100 * spread))


def test_ac06_ellipticity_closed_forms(capsys):
    worst_se = worst_adn = 0.0
    dirs = fibonacci_sphere(64)
    for mu in (1.0, 2.0, 3.0):
        mat = NeoHookean(mu=mu)
        c = mat.elasticity(EYE3)
        margin = audit_state(c, EYE3, n_dirs=512).se_margin
        worst_se = max(worst_se, abs(margin - mu) / (1e-3 * mu))
        dets = np.array([adn_det(c, EYE3, m) for m in dirs])
        worst_adn = max(worst_adn, np.abs(np.abs(dets) - mu * mu).max())
    ok = worst_se < 1.0 and worst_adn < 1e-8
    _verdict(capsys, "AC06 ellipticity analytics", ok,
             "se deviation %.2e of the 1e-3*mu budget | ADN deviation %.2e < 1e-8"
             % (worst_se, worst_adn))


def test_ac07_parity_against_eigenvalue_oracle(capsys):
    """Under a live centering load u = 0 solves the problem for every lambda
    and J(lambda) = J(0) - lambda M, so det J changes sign exactly where an
    odd number of generalized eigenvalues of (J(0), M) is crossed."""
    disc = Discretization(build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3)))
    mat = NeoHookean(mu=1.0)
    prog = LoadProgram(b_family='live_centering', b_scale=1.0)

    def jac(lam):
        return jacobian(State.zero(disc, lam), prog, mat, disc).toarray()

    j0 = jac(0.0)
    m = j0 - jac(1.0)
    linearity = np.abs(jac(2.0) - (j0 - 2.0 * m)).max()
    alpha, beta = scipy.linalg.eig(j0, m, right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-10 * np.abs(alpha)
    eigs = alpha[finite] / beta[finite]
    # one finite eigenvalue per discretely divergence-free displacement mode
    n_free = disc.n_u - disc.n_p + 1
    imag = np.abs(eigs.imag).max()
    eigs = eigs.real

    settings = ContinuationSettings(lam_target=120.0, ds0=1.0, ds_max=5.0,
                                    audit_dirs=8)
    trace = trace_branch(prog, settings, mat, disc)
    recs = trace.records
    agree = even_kept = 0
    for a, b in zip(recs, recs[1:]):
        crossed = int(np.sum((eigs > a.lam) & (eigs <= b.lam)))
        flipped = a.jac_det_sign != b.jac_det_sign
        agree += flipped == (crossed % 2 == 1)
        even_kept += crossed > 0 and crossed % 2 == 0 and not flipped
    events = parity_tracker(recs)

    ok = trace.status == 'completed' and linearity < 1e-12 \
        and finite.sum() == n_free and imag < 1e-8 \
        and agree == len(recs) - 1 and even_kept >= 1 and len(events) >= 2
    _verdict(capsys, "AC07 parity against eigenvalue oracle", ok,
             "intervals agreeing %d/%d | events %d: %s | even crossings kept "
             "sign %d | finite eigenvalues %d/%d, max imag %.1e | "
             "J linear in lambda to %.1e"
             % (agree, len(recs) - 1, len(events),
                " ".join("(%.1f, %.1f]" % e for e in events), even_kept,
                finite.sum(), n_free, imag, linearity))


def test_ac08_probes(capsys):
    mesh = build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3), center_at_origin=True)
    star = star_shape_check(mesh, (0.0, 0.0, 0.0))
    mat = NeoHookean(mu=1.0)
    gm = global_min_probe(mat, 10000, seed=0)
    qc = quasiconvexity_probe(mat, 0.05)
    uq = uniqueness_probe(mat, build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)),
                          n_starts=20, start_radius=0.05, seed=0)
    ok = star.passed and abs(star.min_value - 0.5) < 1e-12 \
        and gm.min_value >= -1e-12 and gm.passed \
        and qc.integral > 0.0 and qc.max_det_defect <= 1e-14 and qc.passed \
        and uq.passed and uq.certified and uq.n_converged == 20 \
        and uq.max_norm < 1e-10
    _verdict(capsys, "AC08 hypothesis probes", ok,
             "star min %.3g = 0.5 | global min %.2e >= -1e-12 (1e4 samples) | "
             "qc integral %.3e > 0, defect %.2e <= 1e-14 | uniqueness 20 starts "
             "max %.2e" % (star.min_value, gm.min_value, qc.integral,
                           qc.max_det_defect, uq.max_norm))


def test_ac09_incompressibility_under_refinement(capsys):
    mat = NeoHookean(mu=1.0)
    prog = _ramped_dead_load()
    defects = []
    for n in (3, 4, 6):
        disc = Discretization(build_box_mesh((1.0, 1.0, 1.0), (n, n, n)))
        settings = ContinuationSettings(lam_target=0.05, ds0=0.05,
                                        audit_dirs=8)
        trace = trace_branch(prog, settings, mat, disc)
        assert trace.status == 'completed'
        defects.append(trace.records[-1].max_det_dev)
    ok = defects[0] > defects[1] > defects[2] > 0.0
    _verdict(capsys, "AC09 defect decreases under refinement", ok,
             "defects at lambda=0.05: %.3e > %.3e > %.3e (meshes 3,4,6)"
             % tuple(defects))


def test_ac10_determinism_and_interfaces(capsys, tmp_path):
    base = """
[material]
model = neo-hookean

[mesh]
divisions = 2 2 2

[loading]
a_family = shear

[continuation]
lam_target = 1.0
ds0 = 0.2
ds_max = 0.3
audit_dirs = 16

[probes]
enabled = false

[output]
directory = {out}
"""
    c1 = tmp_path / "a.ini"
    c1.write_text(base.format(out="out_a"))
    c2 = tmp_path / "b.ini"
    c2.write_text(base.format(out="out_b"))
    code_a, code_b = run(str(c1)), run(str(c2))
    bytes_a = (tmp_path / "out_a" / "branch.csv").read_bytes()
    bytes_b = (tmp_path / "out_b" / "branch.csv").read_bytes()
    header_ok = bytes_a.decode().splitlines()[0] == CSV_HEADER

    bad = tmp_path / "bad.ini"
    bad.write_text("[mesh]\ndivisions = 1 1 1\n")
    code_bad = run(str(bad))

    stall = tmp_path / "stall.ini"
    stall.write_text("""
[material]
model = neo-hookean

[loading]
b_family = dead
b_scale = 3.0
b_direction = 1 0 0
b_ramp = 0 2 0

[mesh]
divisions = 2 2 2

[continuation]
lam_target = 1.0
ds0 = 0.05
ds_min = 0.04
newton_tol = 1e-14
newton_max_iter = 1
audit_dirs = 16

[probes]
enabled = false

[output]
directory = out_stall
""")
    code_stall = run(str(stall))

    invert = tmp_path / "invert.ini"
    invert.write_text("""
[material]
model = neo-hookean

[loading]
b_family = dead
b_scale = 50.0
b_direction = 1 0 0
b_ramp = 0 4 0

[mesh]
divisions = 2 2 2

[continuation]
lam_target = 50
ds0 = 2.0
ds_min = 0.5
ds_max = 4.0
newton_max_iter = 8
audit_dirs = 16

[probes]
enabled = false

[output]
directory = out_invert
""")
    code_invert = run(str(invert))

    ok = (code_a, code_b) == (0, 0) and bytes_a == bytes_b and header_ok \
        and code_bad == 2 and code_stall == 3 and code_invert == 4
    _verdict(capsys, "AC10 determinism and interfaces", ok,
             "runs (%d,%d) bit-identical %s | golden header %s | exit codes "
             "config=%d stall=%d inverted=%d"
             % (code_a, code_b, bytes_a == bytes_b, header_ok,
                code_bad, code_stall, code_invert))
