import numpy as np
import pytest

from elastobranch import assembly, materials, tensor
from elastobranch.assembly import Discretization, LoadProgram, State
from elastobranch.materials import (MooneyRivlin, NeoHookean, make_material,
                                    random_gl_plus, random_rotation,
                                    random_unimodular, solve_stress_free_k,
                                    verify_objectivity)
from elastobranch.mesh import build_box_mesh
from elastobranch.tensor import EYE3, cof, dcof


def test_energy_reference_values():
    nh = NeoHookean(mu=1.0)
    assert nh.energy(EYE3) == 0.0
    # det = 1 kills the extension term, leaving (1/2)(4 + 1/4 + 1 - 3)
    assert abs(nh.energy(np.diag([2.0, 0.5, 1.0])) - 1.125) < 1e-14


def test_energy_vanishes_on_rotations():
    rng = np.random.default_rng(0)
    nh = NeoHookean(mu=1.0)
    mr = MooneyRivlin(c1=0.3, c2=0.2)
    for _ in range(20):
        q = random_rotation(rng)
        assert abs(nh.energy(q)) < 1e-12
        assert abs(mr.energy(q)) < 1e-12


def test_stress_free_reference():
    for mat in (NeoHookean(mu=2.0), MooneyRivlin(c1=0.7, c2=0.25)):
        assert np.abs(mat.stress(EYE3)).max() == 0.0


def test_extension_constant_closed_forms():
    assert NeoHookean(mu=3.0).k == 3.0
    mr = MooneyRivlin(c1=0.4, c2=0.15)
    assert abs(mr.k - (2 * 0.4 + 4 * 0.15)) < 1e-14
    assert abs(solve_stress_free_k(mr) - mr.k) < 1e-14


def test_extension_invisible_on_unimodular_matrices():
    """On det F = 1 the energy must equal the classical incompressible form."""
    rng = np.random.default_rng(1)
    nh = NeoHookean(mu=1.5)
    mr = MooneyRivlin(c1=0.5, c2=0.125)
    for _ in range(20):
        f = random_unimodular(rng)
        classical_nh = 0.5 * 1.5 * (np.sum(f * f) - 3.0)
        assert abs(nh.energy(f) - classical_nh) < 1e-12
        cf = np.linalg.det(f) * np.linalg.inv(f).T
        classical_mr = 0.5 * (np.sum(f * f) - 3.0) + 0.125 * (np.sum(cf * cf) - 3.0)
        assert abs(mr.energy(f) - classical_mr) < 1e-12


def test_stress_matches_energy_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    for mat in (NeoHookean(mu=1.0), MooneyRivlin(c1=0.6, c2=0.2)):
        for _ in range(50):
            f = random_gl_plus(rng)
            d = rng.standard_normal((3, 3))
            fd = (mat.energy(f + h * d) - mat.energy(f - h * d)) / (2 * h)
            an = float(np.sum(mat.stress(f) * d))
            assert abs(an - fd) / max(1.0, abs(fd)) < 1e-5


def test_elasticity_matches_stress_finite_differences():
    """elasticity(F, p) is the derivative of stress(F, p), at p = 0 and at
    one pressure per point."""
    rng = np.random.default_rng(3)
    h = 1e-5
    for mat in (NeoHookean(mu=1.0), MooneyRivlin(c1=0.6, c2=0.2)):
        for _ in range(50):
            f = random_gl_plus(rng)
            d = rng.standard_normal((3, 3))
            fd = (mat.stress(f + h * d) - mat.stress(f - h * d)) / (2 * h)
            an = np.einsum('ijkl,kl->ij', mat.elasticity(f), d)
            assert np.abs(an - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5
        fs = np.array([random_gl_plus(rng) for _ in range(50)])
        ds = rng.standard_normal((50, 3, 3))
        p = rng.uniform(-2.0, 2.0, 50)
        fd = (mat.stress(fs + h * ds, p) - mat.stress(fs - h * ds, p)) / (2 * h)
        an = np.einsum('nijkl,nkl->nij', mat.elasticity(fs, p), ds)
        scale = np.maximum(1.0, np.abs(fd).max(axis=(1, 2)))
        assert (np.abs(an - fd).max(axis=(1, 2)) / scale).max() < 1e-5


def test_pressure_enters_as_minus_p_times_the_constraint_derivatives():
    """stress(F, p) = stress(F) - p Cof F and elasticity(F, p) =
    elasticity(F) - p D^2 det, for a scalar p and for one p per point."""
    rng = np.random.default_rng(9)
    fs = np.array([random_gl_plus(rng) for _ in range(20)])
    for mat in (NeoHookean(mu=1.3), MooneyRivlin(c1=0.6, c2=0.2)):
        for p in (0.7, rng.uniform(-2.0, 2.0, 20)):
            pb = np.broadcast_to(p, (20,))
            s = mat.stress(fs) - pb[:, None, None] * cof(fs)
            c = mat.elasticity(fs) - pb[:, None, None, None, None] * dcof(fs)
            assert np.abs(mat.stress(fs, p) - s).max() <= 1e-13 * np.abs(s).max()
            assert np.abs(mat.elasticity(fs, p) - c).max() \
                <= 1e-13 * np.abs(c).max()


def _mooney_rivlin_moduli_by_einsum(mat, f):
    """W0_FF of Mooney-Rivlin as five einsum terms: the oracle for the table."""
    ft = np.swapaxes(f, -1, -2)
    eye4 = np.einsum('ik,jl->ijkl', EYE3, EYE3)
    sq = np.einsum('...ij,...ij->...', f, f)[..., None, None, None, None]
    quad = 2.0 * np.einsum('...ij,...kl->...ijkl', f, f) + sq * eye4 \
        - np.einsum('ik,...lj->...ijkl', EYE3, ft @ f) \
        - np.einsum('...il,...kj->...ijkl', f, f) \
        - np.einsum('...ik,jl->...ijkl', f @ ft, EYE3)
    return 2.0 * mat.c1 * eye4 + 2.0 * mat.c2 * quad


def test_moduli_table_matches_the_five_term_einsum():
    """Mooney-Rivlin's moduli, one product of F (x) F with a constant table,
    equal the einsum form on an (E, 27) field of points with one pressure
    each; neo-Hookean's base moduli stay the constant mu I4."""
    rng = np.random.default_rng(15)
    f = np.array([random_gl_plus(rng) for _ in range(5 * 27)]).reshape(5, 27, 3, 3)
    p = rng.uniform(-2.0, 2.0, (5, 27))
    for mat in (MooneyRivlin(c1=0.5, c2=0.125), MooneyRivlin(c1=0.6, c2=0.2),
                MooneyRivlin(c1=0.0, c2=0.25)):
        want = _mooney_rivlin_moduli_by_einsum(mat, f) \
            - dcof((mat.k + p)[..., None, None] * f)
        got = mat.elasticity(f, p)
        assert got.shape == (5, 27, 3, 3, 3, 3)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    nh = NeoHookean(mu=1.3)
    assert np.array_equal(nh.base_elasticity(f), 1.3 * np.einsum('ik,jl->ijkl', EYE3, EYE3))


def test_flat_mooney_rivlin_stress_matches_the_matrix_products():
    """base_stress in flat component arithmetic equals 2 c1 F + 2 c2 (|F|^2 F
    - F F^T F) by batched matmuls, on a single F, a batch, an (E, 27)
    field, and a non-contiguous view of that field."""
    rng = np.random.default_rng(16)
    field = np.array([random_gl_plus(rng) for _ in range(4 * 27)]).reshape(4, 27, 3, 3)
    for mat in (MooneyRivlin(c1=0.5, c2=0.125), MooneyRivlin(c1=0.0, c2=0.25)):
        for f in (field[0, 0], field[0, :5], field, np.swapaxes(field, -1, -2)):
            sq = np.einsum('...ij,...ij->...', f, f)[..., None, None]
            want = 2.0 * mat.c1 * f + 2.0 * mat.c2 * (sq * f - f @ np.swapaxes(f, -1, -2) @ f)
            got = mat.base_stress(f)
            assert got.shape == f.shape
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_one_constraint_derivative_per_assembly(monkeypatch):
    """The extension and the pressure are one -(k + p) term: residual
    evaluates Cof F once and linearize evaluates D^2 det once."""
    calls = {"cof": 0, "dcof": 0}

    def counted(name, real):
        def wrapper(f):
            calls[name] += 1
            return real(f)
        return wrapper

    for module in (materials, assembly):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(tensor, name)))
    disc = Discretization(build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)))
    state = State.zero(disc, lam=0.3)
    state.p = np.random.default_rng(10).uniform(-0.5, 0.5, disc.n_p)
    program = LoadProgram(a_family='shear')
    for mat in (NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125)):
        calls.update(cof=0, dcof=0)
        assembly.residual(state, program, mat, disc)
        assert calls == {"cof": 1, "dcof": 0}
        calls.update(cof=0, dcof=0)
        assembly.linearize(state, program, mat, disc)
        assert calls == {"cof": 1, "dcof": 1}


def test_elasticity_major_symmetry():
    rng = np.random.default_rng(4)
    for mat in (NeoHookean(mu=2.0), MooneyRivlin(c1=0.5, c2=0.3)):
        for _ in range(10):
            c = mat.elasticity(random_gl_plus(rng))
            assert np.abs(c - c.transpose(2, 3, 0, 1)).max() < 1e-10


def test_domain_errors_on_nonpositive_det():
    nh = NeoHookean(mu=1.0)
    bad = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        nh.energy(bad)
    with pytest.raises(ValueError):
        nh.stress(bad)
    with pytest.raises(ValueError):
        nh.elasticity(np.diag([1.0, 0.0, 1.0]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        NeoHookean(mu=0.0)
    with pytest.raises(ValueError):
        MooneyRivlin(c1=-0.1, c2=0.2)
    with pytest.raises(ValueError):
        MooneyRivlin(c1=0.0, c2=0.0)


def test_make_material_ids():
    assert isinstance(make_material("neo-hookean", mu=2.0), NeoHookean)
    assert isinstance(make_material("mooney-rivlin", c1=0.5, c2=0.1), MooneyRivlin)
    with pytest.raises(ValueError):
        make_material("hencky")


def test_solve_stress_free_k_rejects_anisotropic_base():
    class Broken(NeoHookean):
        def base_stress(self, f):
            g = super().base_stress(f)
            return g + 0.1 * np.outer(EYE3[0], EYE3[1])

    with pytest.raises(ValueError):
        Broken(mu=1.0)


def test_objectivity_report():
    rng = np.random.default_rng(5)
    rep = verify_objectivity(NeoHookean(mu=1.0), trials=100, rng=rng)
    assert rep.passed
    assert rep.max_deviation < 1e-10
    assert rep.trials == 100


def test_objectivity_negative_control():
    """A frame-dependent energy term must be caught by the sampler."""
    class Tilted(NeoHookean):
        def energy(self, f):
            f = np.asarray(f, dtype=float)
            return super().energy(f) + f[..., 0, 1]

    rep = verify_objectivity(Tilted(mu=1.0), trials=100,
                             rng=np.random.default_rng(6))
    assert not rep.passed
    assert rep.max_deviation > 1e-3


def test_random_sampler_properties():
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = random_rotation(rng)
        assert np.abs(q @ q.T - EYE3).max() < 1e-12
        assert abs(np.linalg.det(q) - 1.0) < 1e-12
        f = random_gl_plus(rng)
        assert np.linalg.det(f) > 0.1
        u = random_unimodular(rng)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_batched_evaluation_matches_loop():
    rng = np.random.default_rng(8)
    nh = NeoHookean(mu=1.0)
    fs = np.array([random_gl_plus(rng) for _ in range(6)])
    batch = nh.energy(fs)
    loop = np.array([nh.energy(f) for f in fs])
    assert np.abs(batch - loop).max() == 0.0
    assert nh.stress(fs).shape == (6, 3, 3)
    assert nh.elasticity(fs).shape == (6, 3, 3, 3, 3)


class _NaNEnergy(NeoHookean):
    """A model whose stored energy is NaN everywhere."""

    def base_energy(self, f):
        return np.full(np.shape(f)[:-2], np.nan)


class _NoDraws:
    """A generator stand-in that fails the test if asked for a number."""

    def standard_normal(self, size=None):
        raise AssertionError("drew from the generator")


def _reference_objectivity(material, trials, rng):
    """The per-trial audit: draw F, then Q, evaluate, keep the largest
    deviation by a strict comparison, which a NaN never passes."""
    worst, worst_q = 0.0, EYE3
    for _ in range(trials):
        f = random_gl_plus(rng)
        q = random_rotation(rng)
        dev = abs(float(material.energy(q @ f)) - float(material.energy(f)))
        if dev > worst:
            worst, worst_q = dev, q
    return worst, worst_q


@pytest.mark.parametrize("material", [NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125)],
                         ids=["neo-hookean", "mooney-rivlin"])
def test_objectivity_matches_the_per_trial_loop(material):
    """Batched evaluation keeps each trial's draws and reads the same
    maximum, bit for bit, with the same worst rotation."""
    for seed in range(10):
        rep = verify_objectivity(material, trials=20, rng=np.random.default_rng(seed))
        worst, worst_q = _reference_objectivity(material, 20, np.random.default_rng(seed))
        assert rep.max_deviation == worst
        assert np.array_equal(rep.worst_rotation, worst_q)
        assert rep.passed


def test_objectivity_fails_on_a_nan_energy():
    rep = verify_objectivity(_NaNEnergy(mu=1.0), trials=20)
    assert np.isnan(rep.max_deviation)
    assert not rep.passed


def _reference_gl_plus(rng, spread=0.4, min_det=0.1):
    """One draw by the plain rejection loop, one candidate at a time."""
    while True:
        f = EYE3 + spread * rng.standard_normal((3, 3))
        if tensor.det3(f) > min_det:
            return f


def test_batched_draws_are_the_single_draws_in_order():
    """size=n returns the matrices n single calls return, from the same
    generator stream, and leaves the generator where they leave it."""
    for kwargs in (dict(spread=0.6), dict(spread=1.0, min_det=0.5)):
        one, ref = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(300):
            assert np.array_equal(random_gl_plus(one, **kwargs),
                                  _reference_gl_plus(ref, **kwargs))
        assert one.random() == ref.random()
    for sampler, kwargs in ((random_gl_plus, dict(spread=0.6)),
                            (random_gl_plus, dict(spread=1.0, min_det=0.5)),
                            (random_unimodular, dict(spread=0.6))):
        for n in (1, 7, 300):
            one, batch = np.random.default_rng(n), np.random.default_rng(n)
            single = np.array([sampler(one, **kwargs) for _ in range(n)])
            assert np.array_equal(sampler(batch, size=n, **kwargs), single)
            assert one.random() == batch.random()
    # the single draw keeps the closed form det^(-1/3) rescaling, bit for bit
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(200):
        f = random_gl_plus(ref)
        assert np.array_equal(random_unimodular(rng), f / tensor.det3(f) ** (1.0 / 3.0))


@pytest.mark.parametrize("kwargs", [dict(spread=np.nan), dict(spread=np.inf),
                                    dict(min_det=np.nan), dict(min_det=-np.inf)])
def test_samplers_reject_a_non_finite_spread_or_min_det(kwargs):
    """A NaN spread accepts no draw, so the rejection loop would never end."""
    for size in (None, 5):
        with pytest.raises(ValueError):
            random_gl_plus(_NoDraws(), size=size, **kwargs)
        if "spread" in kwargs:
            with pytest.raises(ValueError):
                random_unimodular(_NoDraws(), size=size, **kwargs)
