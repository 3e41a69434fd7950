import numpy as np
import pytest

from elastobranch import assembly, continuation, probes
from elastobranch.assembly import (Discretization, InvertedElementError,
                                   SingularMatrixError, State)
from elastobranch.materials import MooneyRivlin, NeoHookean
from elastobranch.mesh import build_box_mesh
from elastobranch.probes import (DivFreeField, flow_map, global_min_probe,
                                 quasiconvexity_probe, uniqueness_probe)


def test_field_is_divergence_free_and_compact():
    field = DivFreeField(amplitude=0.1)
    rng = np.random.default_rng(0)
    pts = rng.random((50, 3))
    g = field.grad(pts)
    assert np.abs(np.trace(g, axis1=-2, axis2=-1)).max() == 0.0
    # a zero band of width margin hugs every face of the unit cube
    edge = np.array([[0.05, 0.5, 0.5], [0.5, 0.97, 0.5], [0.5, 0.5, 0.02]])
    assert np.abs(field.value(edge)).max() == 0.0
    assert np.abs(field.grad(edge)).max() == 0.0
    center = np.array([0.5, 0.4, 0.6])
    assert np.abs(field.value(center)).max() > 1e-4


def test_field_gradient_matches_finite_differences():
    field = DivFreeField(amplitude=0.07)
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(10):
        x = 0.2 + 0.6 * rng.random(3)
        g = field.grad(x)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (field.value(x + e) - field.value(x - e)) / (2 * h)
            assert np.abs(g[:, j] - fd).max() < 1e-8


class Drift(DivFreeField):
    """A uniform unit velocity along x: zero gradient, nonzero everywhere."""

    def value_grad(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = 1.0
        return out, np.zeros(x.shape[:-1] + (3, 3))


def _reference_flow(field, x0, n_steps):
    """RK4 on every point, with the Jacobian product as an einsum: the
    reference flow_map must match."""
    x = np.asarray(x0, dtype=float).copy()
    jac = np.broadcast_to(np.eye(3), x.shape + (3,)).copy()
    h = 1.0 / n_steps

    def rhs(xc, jc):
        return field.value(xc), np.einsum('...ik,...kj->...ij', field.grad(xc), jc)

    for _ in range(n_steps):
        k1x, k1j = rhs(x, jac)
        k2x, k2j = rhs(x + 0.5 * h * k1x, jac + 0.5 * h * k1j)
        k3x, k3j = rhs(x + 0.5 * h * k2x, jac + 0.5 * h * k2j)
        k4x, k4j = rhs(x + h * k3x, jac + h * k3j)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        jac = jac + (h / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j)
    return x, jac


def test_value_grad_matches_value_and_grad():
    field = DivFreeField(amplitude=0.07)
    pts = np.random.default_rng(4).random((30, 3))
    v, g = field.value_grad(pts)
    assert v.shape == (30, 3) and g.shape == (30, 3, 3)
    assert np.array_equal(v, field.value(pts))
    assert np.array_equal(g, field.grad(pts))


def test_flow_map_matches_the_reference_inside_outside_and_on_the_edge():
    field = DivFreeField(amplitude=0.08, margin=0.1)
    rng = np.random.default_rng(5)
    inside = 0.15 + 0.7 * rng.random((20, 3))
    outside = rng.random((20, 3))
    outside[:, 0] = 0.1 * rng.random(20)           # in the zero band at x < 0.1
    outside[10:, 0] += 0.9                          # and at x > 0.9
    edge = 0.15 + 0.7 * rng.random((12, 3))
    edge[np.arange(12), np.arange(12) % 3] = np.where(np.arange(12) < 6, 0.1, 0.9)
    # on the axis x = y = 1/2 the field is zero but its gradient is not
    axis = np.array([[0.5, 0.5, 0.3], [0.5, 0.5, 0.6]])
    pts = np.concatenate([inside, outside, edge, axis])
    x, jac = flow_map(field, pts, 100)
    x_ref, jac_ref = _reference_flow(field, pts, 100)
    assert np.abs(x - x_ref).max() <= 1e-14
    assert np.abs(jac - jac_ref).max() <= 1e-14
    assert np.all(np.any(x[:20] != pts[:20], axis=1))  # the inside points move
    assert np.array_equal(x[-2:], axis)
    assert np.abs(jac[-2:] - np.eye(3)).max() > 1e-3   # but J still evolves there
    # outside the support and on its edge the flow is the identity, bit for bit
    fixed = slice(20, 52)
    assert np.array_equal(x[fixed], pts[fixed])
    assert np.array_equal(jac[fixed], np.broadcast_to(np.eye(3), (32, 3, 3)))


def test_flow_map_moves_every_point_of_a_field_without_compact_support():
    pts = np.random.default_rng(6).random((25, 3))
    pts[:5] *= 0.05                                # where DivFreeField is zero
    x, jac = flow_map(Drift(amplitude=1.0), pts, 100)
    assert np.abs(x - pts - [1.0, 0.0, 0.0]).max() < 1e-13
    assert np.array_equal(jac, np.broadcast_to(np.eye(3), (25, 3, 3)))


def test_flow_map_preserves_volume_at_fourth_order():
    field = DivFreeField(amplitude=0.08)
    rng = np.random.default_rng(2)
    pts = 0.15 + 0.7 * rng.random((40, 3))
    x_coarse, j_coarse = flow_map(field, pts, 100)
    x_fine, j_fine = flow_map(field, pts, 200)
    d_coarse = np.abs(np.linalg.det(j_coarse) - 1.0).max()
    d_fine = np.abs(np.linalg.det(j_fine) - 1.0).max()
    assert d_fine > 0.0
    # classical RK4: halving the step cuts the defect by about 2^4
    assert 10.0 < d_coarse / d_fine < 30.0
    # streamlines are closed level sets; nothing escapes the cube
    assert x_fine.min() >= 0.0 and x_fine.max() <= 1.0
    assert np.abs(x_fine - pts).max() > 1e-3


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


def test_quasiconvexity_probe_positive_and_monotone():
    mat = NeoHookean(mu=1.0)
    small = quasiconvexity_probe(mat, DivFreeField(amplitude=0.04),
                                 flow_steps=200, quad_divisions=4)
    large = quasiconvexity_probe(mat, DivFreeField(amplitude=0.08),
                                 flow_steps=200, quad_divisions=4)
    assert small.passed and large.passed
    assert 0.0 < small.integral < large.integral
    assert large.max_det_defect < 1e-8
    assert large.amplitude == 0.08


def test_quasiconvexity_probe_fails_a_flow_that_is_not_volume_preserving():
    """At amplitude 5, RK4 with 200 steps leaves det(I + grad v) off 1 by
    about 1: the integral is large and positive, yet the field is no
    volume-preserving variation, so the probe must not pass."""
    rep = quasiconvexity_probe(NeoHookean(mu=1.0), DivFreeField(amplitude=5.0),
                               flow_steps=200)
    assert rep.max_det_defect > 0.5
    assert rep.integral > 0.0
    assert not rep.passed


def test_quasiconvexity_probe_zero_amplitude_is_exact():
    rep = quasiconvexity_probe(NeoHookean(mu=1.0), DivFreeField(amplitude=0.0),
                               flow_steps=100, quad_divisions=2)
    assert rep.integral == 0.0
    assert rep.max_det_defect == 0.0
    assert rep.passed


def test_quasiconvexity_probe_validation():
    with pytest.raises(ValueError):
        quasiconvexity_probe(NeoHookean(), DivFreeField(amplitude=0.05),
                             flow_steps=50)

    with pytest.raises(ValueError):
        quasiconvexity_probe(NeoHookean(), Drift(amplitude=1.0),
                             flow_steps=100, quad_divisions=2)


def test_quasiconvexity_refinement_stability():
    mat = NeoHookean(mu=1.0)
    a = quasiconvexity_probe(mat, DivFreeField(amplitude=0.05),
                             flow_steps=100, quad_divisions=3)
    b = quasiconvexity_probe(mat, DivFreeField(amplitude=0.05),
                             flow_steps=200, quad_divisions=3)
    assert abs(a.integral - b.integral) < 1e-6 * max(1.0, abs(b.integral))


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


def _count_splu(monkeypatch):
    real, calls = assembly.splu, [0]

    def splu(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(assembly, "splu", splu)
    return calls


def _fail_origin_factorization(monkeypatch, exc):
    """The probe's factorization of J(0) raises exc, once."""
    real, calls = probes.factor_bordered, [0]

    def fake(matrix, order):
        calls[0] += 1
        if calls[0] == 1:
            raise exc
        return real(matrix, order)

    monkeypatch.setattr(probes, "factor_bordered", fake)
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
    splu = _count_splu(monkeypatch)
    chord = uniqueness_probe(mat, disc, n_starts=6, start_radius=radius,
                             seed=0)
    assert splu[0] == lus
    _fail_origin_factorization(monkeypatch, SingularMatrixError("forced"))
    plain = uniqueness_probe(mat, disc, n_starts=6, start_radius=radius,
                             seed=0)
    assert splu[0] > lus + 6               # plain Newton factors per step
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
    splu = _count_splu(monkeypatch)
    rep = uniqueness_probe(NeoHookean(mu=1.0),
                           build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)),
                           n_starts=3, start_radius=0.05, seed=0)
    assert calls[0] == 1
    assert splu[0] > 3
    assert rep.n_converged == 3 and rep.passed
