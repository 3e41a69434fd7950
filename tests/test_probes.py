import numpy as np
import pytest

from elastobranch import assembly, continuation, probes
from elastobranch.assembly import (Discretization, InvertedElementError,
                                   SingularMatrixError, State)
from elastobranch.materials import MooneyRivlin, NeoHookean, random_unimodular
from elastobranch.mesh import build_box_mesh
from elastobranch.probes import (global_min_probe, quasiconvexity_probe,
                                 swirl_map, uniqueness_probe)


def _probe_points():
    """The probe's Gauss points: 3^3 per cell on 5^3 cells."""
    return build_box_mesh((1.0, 1.0, 1.0), (5, 5, 5)).qp_phys.reshape(-1, 3)


def test_field_gradient_matches_finite_differences():
    """grad phi from the chain rule against central differences of phi,
    at every Gauss point of the probe and three amplitudes."""
    pts = _probe_points()
    h = 1e-6
    for amplitude in (0.05, 0.4, 3.0):
        _, g = swirl_map(pts, amplitude)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (swirl_map(pts + e, amplitude)[0]
                  - swirl_map(pts - e, amplitude)[0]) / (2 * h)
            assert np.abs(g[:, :, j] - fd).max() < 1e-8


@pytest.mark.parametrize("amplitude", [0.05, 0.4, 3.0, 10.0])
def test_swirl_map_keeps_volume_and_the_cube(amplitude):
    """det grad phi = 1 to round-off; every image lies in the cube, and
    within margin of a face the map is the identity, bit for bit."""
    pts = _probe_points()
    y, g = swirl_map(pts, amplitude)
    assert np.abs(np.linalg.det(g) - 1.0).max() <= 1e-14
    assert y.min() >= 0.0 and y.max() <= 1.0
    assert np.abs(y - pts).max() > 1e-3
    band = np.any((pts < probes.MARGIN) | (pts > 1.0 - probes.MARGIN), axis=1)
    assert band.any()
    assert np.array_equal(y[band], pts[band])
    assert np.array_equal(g[band], np.broadcast_to(np.eye(3), g[band].shape))


def test_global_min_probe_on_polyconvex_models():
    for mat in (NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125)):
        rep = global_min_probe(mat, 2000, seed=0)
        assert rep.passed
        assert rep.min_value > -1e-12
        assert rep.n_samples == 2000
        assert rep.argmin_f.shape == (3, 3)
    with pytest.raises(ValueError):
        global_min_probe(NeoHookean(), 0)


def test_global_min_probe_negative_control():
    class Sunken:
        def energy(self, f):
            f = np.asarray(f)
            d = f - np.eye(3)
            return -np.einsum('...ij,...ij->...', d, d)

    rep = global_min_probe(Sunken(), 500, seed=1)
    assert not rep.passed
    assert rep.min_value < -1e-3


def _reference_global_min(material, n_samples, seed, spread=0.6):
    """The probe as a per-sample loop: (min W, its sample, passed)."""
    rng = np.random.default_rng(seed)
    fs = np.array([random_unimodular(rng, spread=spread) for _ in range(n_samples)])
    vals = material.energy(fs)
    k = int(np.argmin(vals))
    sv = np.linalg.svd(fs[vals < 1e-9], compute_uv=False)
    passed = bool(vals.min() > -1e-12) and bool(np.all(np.abs(sv - 1.0) < 1e-6))
    return vals[k], fs[k], passed


@pytest.mark.parametrize("material", [NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125)],
                         ids=["neo-hookean", "mooney-rivlin"])
def test_global_min_probe_matches_the_per_sample_loop(material):
    """The batched draws are random_unimodular's, bit for bit, so the
    minimum and its sample are the loop's to the bit."""
    for seed in range(5):
        for n in (1, 7, 2000):
            rep = global_min_probe(material, n, seed=seed)
            low, argmin_f, passed = _reference_global_min(material, n, seed)
            assert (rep.passed, rep.n_samples) == (passed, n)
            assert rep.min_value == low
            assert np.array_equal(rep.argmin_f, argmin_f)


def test_global_min_probe_in_small_blocks_gives_the_same_report(monkeypatch):
    """Blocks of 7 samples draw the same stream and keep the first minimum:
    a large sample count costs time, not memory."""
    class Sunken(NeoHookean):       # fails: W < 0 off the rotations
        def energy(self, f):
            return super().energy(f) - 0.5 * np.abs(np.asarray(f)[..., 0, 1])

    for material in (NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125), Sunken()):
        for n in (1, 7, 50, 2000):
            whole = global_min_probe(material, n, seed=4)
            monkeypatch.setattr(probes, "_BLOCK", 7)
            small = global_min_probe(material, n, seed=4)
            monkeypatch.undo()
            assert whole.min_value == small.min_value
            assert np.array_equal(whole.argmin_f, small.argmin_f)
            assert (whole.argmin_so3_dist, whole.passed) == (small.argmin_so3_dist, small.passed)


class _NaNEnergy(NeoHookean):
    def energy(self, f):
        return np.full(np.shape(f)[:-2], np.nan)


def test_global_min_probe_fails_on_a_nan_energy(monkeypatch):
    for block in (probes._BLOCK, 7):
        monkeypatch.setattr(probes, "_BLOCK", block)
        rep = global_min_probe(_NaNEnergy(mu=1.0), 50, seed=0)
        assert np.isnan(rep.min_value)
        assert not rep.passed
        # the first sample, as np.argmin reads a NaN as the minimum
        first = random_unimodular(np.random.default_rng(0), spread=0.6)
        assert np.array_equal(rep.argmin_f, first)


def test_global_min_probe_rejects_a_non_finite_spread():
    for spread in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            global_min_probe(NeoHookean(), 10, spread=spread)


def test_quasiconvexity_probe_positive_and_monotone():
    for mat in (NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125)):
        reps = [quasiconvexity_probe(mat, a) for a in (0.05, 0.4, 3.0, 10.0)]
        assert all(rep.passed for rep in reps)
        integrals = [rep.integral for rep in reps]
        assert 0.0 < integrals[0]
        assert all(a < b for a, b in zip(integrals, integrals[1:]))
        # det3's round-off: 1.8e-15 up to 3, 1.4e-14 at 10
        assert max(rep.max_det_defect for rep in reps[:3]) <= 1e-14
        assert reps[3].max_det_defect <= 3e-14
        assert reps[1].amplitude == 0.4


def test_quasiconvexity_probe_negative_control():
    """W(F) = 3 - |F|^2 is <= 0 on det F = 1 and zero only on rotations,
    so it is not quasiconvex at I: the integral is negative."""
    class Sunken:
        def energy(self, f):
            return 3.0 - np.einsum('...ij,...ij->...', f, f)

    rep = quasiconvexity_probe(Sunken(), 0.4)
    assert rep.integral < -1e-3
    assert rep.max_det_defect <= 1e-14
    assert not rep.passed


def test_quasiconvexity_probe_zero_amplitude_is_exact():
    rep = quasiconvexity_probe(NeoHookean(mu=1.0), 0.0, quad_divisions=2)
    assert rep.integral == 0.0
    assert rep.max_det_defect == 0.0
    assert rep.passed


@pytest.mark.parametrize("mat", [NeoHookean(), MooneyRivlin()], ids=["nh", "mr"])
def test_quasiconvexity_probe_fails_where_round_off_inverts_a_point(mat):
    """At a peak angle of 3e4 rad round-off in grad phi gives det <= 0 at
    some point by the material's own test, although np.linalg.det of the
    same field stays positive: the probe reports a failure with its
    defect, which is then at least 1, and raises nothing.  At 1e4 it
    still passes."""
    rep = quasiconvexity_probe(mat, 3e4)
    assert not rep.passed and np.isnan(rep.integral)
    assert rep.max_det_defect >= 1.0 and rep.amplitude == 3e4
    assert quasiconvexity_probe(mat, 1e4).passed


def test_quasiconvexity_defect_is_read_with_the_materials_det():
    """The defect is that of det3, the determinant W is integrated with:
    at a peak angle of 1e4 rad on the 5^3 grid its round-off reads 1.19,
    where np.linalg.det of the same field reads 1.4e-3."""
    rep = quasiconvexity_probe(NeoHookean(), 1e4)
    assert rep.passed and rep.max_det_defect >= 0.1


def test_quasiconvexity_probe_validation():
    for amplitude in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            quasiconvexity_probe(NeoHookean(), amplitude)
    with pytest.raises(ValueError):
        quasiconvexity_probe(NeoHookean(), 0.05, quad_divisions=1)


def test_quasiconvexity_refinement_stability():
    """The map is smooth, so the Gauss rule converges as its grid refines."""
    mat = NeoHookean(mu=1.0)
    a = quasiconvexity_probe(mat, 0.4, quad_divisions=8)
    b = quasiconvexity_probe(mat, 0.4, quad_divisions=16)
    assert abs(a.integral - b.integral) < 1e-4 * abs(b.integral)


def test_uniqueness_probe_zero_load_certified():
    mesh = build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    rep = uniqueness_probe(NeoHookean(mu=1.0), mesh, n_starts=5,
                           start_radius=0.05, seed=0)
    assert rep.passed
    assert rep.certified
    assert "certified" in rep.note and "not certified" not in rep.note
    assert rep.n_converged == 5
    assert rep.n_failed == 0
    assert rep.max_norm < 1e-9


def test_uniqueness_probe_accepts_discretization_and_flags_bad_origin():
    mesh = build_box_mesh(
        (1.0, 1.0, 1.0), (2, 2, 2),
        keep_cell=lambda c: not (c[0] > 0.5 and c[1] > 0.5))
    disc = Discretization(mesh)
    rep = uniqueness_probe(NeoHookean(mu=1.0), disc, n_starts=3,
                           start_radius=0.02, seed=1,
                           origin=(0.75, 0.25, 0.5))
    assert not rep.certified
    assert "not certified" in rep.note
    assert rep.passed                 # the solve still lands on zero
    with pytest.raises(ValueError):
        uniqueness_probe(NeoHookean(), mesh, n_starts=0)


def test_uniqueness_probe_draws_each_start_at_most_ten_times():
    """Starts so large that every draw has det(I + grad u) <= 0 somewhere:
    each start is drawn ten times, all counted inadmissible, and the last
    draw fails its start without raising."""
    rep = uniqueness_probe(NeoHookean(mu=1.0),
                           build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)),
                           n_starts=2, start_radius=10.0, seed=0)
    assert (rep.n_converged, rep.n_failed, rep.n_inadmissible) == (0, 2, 20)
    assert not rep.passed


def _count_factorizations(monkeypatch):
    real, calls = assembly._multifrontal, [0]

    def lu(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(assembly, "_multifrontal", lu)
    return calls


def _fail_origin_factorization(monkeypatch, exc):
    """The probe's factorization of J(0) (its factor_at call) raises exc,
    once."""
    real, calls = probes.factor_at, [0]

    def fake(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 1:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(probes, "factor_at", fake)
    return calls


@pytest.mark.parametrize("n, radius, lus", [
    pytest.param(2, 0.1 / 1.5, 4, id="2-0.1"), pytest.param(3, 0.05, 1, id="3-0.05")])
def test_uniqueness_probe_factors_once_and_agrees_with_plain_newton(
        monkeypatch, n, radius, lus):
    """Every start corrects by chord steps on the one LU of J(0); the
    verdict is that of plain Newton, which factors at every iteration.
    At 2^3 the radius 0.1 / 1.5 scales to start noise of size 0.1: three
    draws are inadmissible and drawn again, and one redrawn start stops
    contracting on the chord and re-anchors three times (lus = 1 + 3)."""
    disc = Discretization(build_box_mesh((1.0, 1.0, 1.0), (n, n, n)))
    mat = NeoHookean(mu=1.0)
    factored = _count_factorizations(monkeypatch)
    chord = uniqueness_probe(mat, disc, n_starts=6, start_radius=radius,
                             seed=0)
    assert factored[0] == lus
    _fail_origin_factorization(monkeypatch, SingularMatrixError("forced"))
    plain = uniqueness_probe(mat, disc, n_starts=6, start_radius=radius,
                             seed=0)
    assert factored[0] > lus + 6           # plain Newton factors per step
    assert (chord.n_converged, chord.n_failed, chord.n_inadmissible,
            chord.passed) == (plain.n_converged, plain.n_failed,
                              plain.n_inadmissible, plain.passed)
    assert chord.n_converged >= 4 and chord.passed


@pytest.mark.parametrize("seed", [0, 3])
def test_uniqueness_verdict_measures_the_root_to_round_off(seed):
    """On 3^3 with radius 0.02 all ten starts converge to w = 0 within the
    Newton tolerance of the residual, but their distance to w = 0 can
    exceed 10 newton_tol.  One more chord step on the J(0) LU takes the
    distance to round-off before the verdict."""
    rep = uniqueness_probe(NeoHookean(mu=1.0),
                           build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3)),
                           n_starts=10, start_radius=0.02, seed=seed)
    assert rep.n_converged == 10
    assert rep.max_norm < 1e-13
    assert rep.passed


def test_uniqueness_verdict_still_reports_a_nonzero_root(monkeypatch):
    """A zero-load problem whose root is shifted to a small w* != 0: the
    starts converge there, the extra chord step moves almost nothing, and
    the probe fails with max_norm near |w*|."""
    disc = Discretization(build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)))
    rng = np.random.default_rng(7)
    shift = 1e-5 * (2.0 * rng.random(disc.n_total) - 1.0)
    real = assembly.residual

    def shifted(state, program, material, disc):
        return real(state.with_increment(-shift), program, material, disc)

    monkeypatch.setattr(probes, "residual", shifted)
    monkeypatch.setattr(continuation, "residual", shifted)
    root = State.zero(disc).with_increment(shift)
    size = float(np.abs(root.u).max() + np.abs(root.p).max())
    rep = uniqueness_probe(NeoHookean(mu=1.0), disc, n_starts=4,
                           start_radius=0.02, seed=0)
    assert rep.n_converged == 4
    assert not rep.passed
    assert abs(rep.max_norm - size) < 1e-12 * size + 1e-14


@pytest.mark.parametrize("exc", [SingularMatrixError("zero pivot"),
                                 InvertedElementError(0, 0.0, -0.1)])
def test_uniqueness_probe_survives_a_failed_origin_factorization(
        monkeypatch, exc):
    """If J(0) cannot be linearized or factored, every start runs plain
    Newton (fresh LU per step) and the probe still gives its verdict."""
    calls = _fail_origin_factorization(monkeypatch, exc)
    factored = _count_factorizations(monkeypatch)
    rep = uniqueness_probe(NeoHookean(mu=1.0),
                           build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)),
                           n_starts=3, start_radius=0.05, seed=0)
    assert calls[0] == 1
    assert factored[0] > 3
    assert rep.n_converged == 3 and rep.passed
