import tracemalloc

import numpy as np
import pytest

from acoustic_oracle import acoustic, adn_det, adn_matrix
from elastobranch.ellipticity import (_plane_frame, audit_state,
                                      fibonacci_sphere)
from elastobranch.materials import (MooneyRivlin, NeoHookean, random_gl_plus,
                                    random_rotation, random_unimodular)
from elastobranch.tensor import EYE3, cof, dcof, identity4


def test_fibonacci_sphere_covers_the_sphere():
    pts = fibonacci_sphere(256)
    assert pts.shape == (256, 3)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    # every octant is hit and no two points coincide
    octants = {tuple(np.sign(p).astype(int)) for p in pts}
    assert len(octants) == 8
    gram = pts @ pts.T - np.eye(256)
    assert gram.max() < 1.0 - 1e-6


def test_acoustic_of_identity_tensor():
    m = np.array([1.0, 0.0, 0.0])
    assert np.abs(acoustic(identity4(), m) - EYE3).max() == 0.0
    with pytest.raises(ValueError):
        acoustic(identity4(), np.array([1.0, 1.0, 0.0]))


def _brute_force_margin(c, f, n_dirs=4096, n_angles=512):
    """Minimum of a . Q(d) a over unit a orthogonal to (Cof F) d, on a
    dense angle grid in that plane, for each d in fibonacci_sphere(n_dirs)."""
    ds = fibonacci_sphere(n_dirs)
    qs = np.einsum('ijkl,dj,dl->dik', c, ds, ds)
    v = ds @ cof(f).T
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    b1 = np.cross(v, np.array([0.3, -0.5, 0.8]))
    b1 /= np.linalg.norm(b1, axis=-1, keepdims=True)
    b2 = np.cross(v, b1)
    m11 = np.einsum('di,dik,dk->d', b1, qs, b1)
    m22 = np.einsum('di,dik,dk->d', b2, qs, b2)
    m12 = np.einsum('di,dik,dk->d', b1, qs + np.swapaxes(qs, 1, 2), b2)
    t = np.linspace(0.0, np.pi, n_angles, endpoint=False)[:, None]
    vals = (np.cos(t) ** 2 * m11 + np.sin(t) * np.cos(t) * m12
            + np.sin(t) ** 2 * m22)
    return float(vals.min())


def test_se_margin_agrees_with_eigen_reduction_off_identity():
    f = np.diag([1.3, 0.9, 1.0 / (1.3 * 0.9)])
    for mat in (NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125)):
        exact_min = audit_state(mat.elasticity(f), f, n_dirs=4096).se_margin
        assert abs(_brute_force_margin(mat.elasticity(f), f) - exact_min) < 1e-4


def test_se_margin_neo_hookean_identity_is_mu():
    """At F = I the constrained rank-one form collapses to mu |a|^2 |c|^2:
    the cofactor-derivative part cancels exactly on a . c = 0 pairs."""
    for mu in (1.0, 2.0, 3.0):
        mat = NeoHookean(mu=mu)
        rep = audit_state(mat.elasticity(EYE3), EYE3, n_dirs=512)
        assert abs(rep.se_margin - mu) < 1e-12
        # the minimizer respects the tangency constraint
        assert abs(rep.se_a @ cof(EYE3) @ rep.se_c) < 1e-8


def test_se_margin_input_validation():
    """The margin is only audited on orientation-preserving states."""
    mat = NeoHookean(mu=1.0)
    for f in (np.diag([1.0, -1.0, 1.0]), np.zeros((3, 3))):
        with pytest.raises(ValueError):
            audit_state(mat.elasticity(EYE3), f)


def test_adn_det_neo_hookean_identity_is_mu_squared():
    dirs = fibonacci_sphere(32)
    for mu in (1.0, 2.0, 3.0):
        mat = NeoHookean(mu=mu)
        c = mat.elasticity(EYE3)
        dets = [adn_det(c, EYE3, m) for m in dirs]
        assert np.abs(np.array(dets) - mu * mu).max() < 1e-8


def test_adn_matrix_structure():
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    rng = np.random.default_rng(1)
    f = random_unimodular(rng)
    m = np.array([0.0, 1.0, 0.0])
    out = adn_matrix(mat.elasticity(f), f, m)
    assert out.shape == (4, 4)
    assert np.array_equal(out[3, :3], -out[:3, 3])
    assert np.array_equal(out[3, :3], cof(f) @ m)
    assert out[3, 3] == 0.0
    with pytest.raises(ValueError):
        adn_matrix(mat.elasticity(f), np.diag([1.0, 1.0, -1.0]), m)


def test_adn_singular_control():
    """Moduli A_ik delta_jl with A = diag(1, 0, 1) kill the bordered
    determinant for m = e1: the acoustic tensor loses rank in a direction
    the incompressibility border cannot compensate."""
    a = np.diag([1.0, 0.0, 1.0])
    c = np.einsum('ik,jl->ijkl', a, EYE3)
    m = np.array([1.0, 0.0, 0.0])
    mat = adn_matrix(c, EYE3, m)
    assert abs(np.linalg.det(mat)) < 1e-14
    assert np.linalg.svd(mat, compute_uv=False).min() < 1e-14


def _field_with_weak_point(n=300, weak=290):
    """Mildly strained unimodular states and one strongly stretched one,
    placed past the first block of points the audit works on."""
    rng = np.random.default_rng(11)
    fs = np.array([random_unimodular(rng, spread=0.1) for _ in range(n)])
    fs[weak] = random_rotation(rng) @ np.diag([2.5, 2.0, 0.2])
    return fs, weak


def test_audit_adn_is_the_dense_bordered_determinant_minimum():
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    fs, weak = _field_with_weak_point()
    rep = audit_state(mat.elasticity(fs), fs, n_dirs=16)
    dirs = fibonacci_sphere(16)
    dense = np.array([[abs(adn_det(mat.elasticity(f), f, m)) for m in dirs]
                      for f in fs])
    assert abs(rep.adn_min_abs - dense.min()) <= 1e-14 * dense.min()
    assert rep.adn_worst_point == weak == np.unravel_index(dense.argmin(),
                                                          dense.shape)[0]
    assert np.array_equal(rep.adn_m, dirs[dense[weak].argmin()])


def test_audit_margin_is_the_brute_force_minimum():
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    fs, weak = _field_with_weak_point()
    rep = audit_state(mat.elasticity(fs), fs, n_dirs=16)
    brute = [_brute_force_margin(mat.elasticity(f), f, n_dirs=16,
                                 n_angles=4096) for f in fs]
    assert rep.se_worst_point == weak == int(np.argmin(brute))
    assert 0.0 <= brute[weak] - rep.se_margin < 1e-6
    # the reported pair attains the margin and respects the constraint
    a, c = rep.se_a, rep.se_c
    q = acoustic(mat.elasticity(fs[weak]), c)
    assert abs(a @ q @ a - rep.se_margin) < 1e-12
    assert abs(a @ cof(fs[weak]) @ c) < 1e-12
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def _dense_audit(c, fs, dirs):
    """Margins, bordered determinants and minimizing a per point and
    direction, each from its own 2x2 matrix: the plane orthogonal to
    v = (Cof F) m is spanned by the last two right singular vectors of the
    row v^T, and eigh diagonalizes M there."""
    q = np.einsum('nijkl,dj,dl->ndik', c, dirs, dirs)
    q = 0.5 * (q + np.swapaxes(q, -1, -2))
    v = np.einsum('nij,dj->ndi', cof(fs), dirs)
    plane = np.swapaxes(np.linalg.svd(v[..., None, :])[2][..., 1:, :], -1, -2)
    m = np.swapaxes(plane, -1, -2) @ q @ plane
    lam, vec = np.linalg.eigh(m)
    dets = np.einsum('ndi,ndi->nd', v, v) * np.abs(np.linalg.det(m))
    return lam[..., 0], dets, (plane @ vec[..., :1])[..., 0]


@pytest.mark.parametrize("mat", [NeoHookean(mu=1.3),
                                 MooneyRivlin(c1=0.5, c2=0.125)],
                         ids=["neo-hookean", "mooney-rivlin"])
def test_audit_equals_the_dense_per_point_reference(mat):
    """Both audits, their worst points and their directions, on a field
    with pressure whose weak point lies past the first block of points."""
    fs, weak = _field_with_weak_point()
    p = np.random.default_rng(12).uniform(-2.0, 2.0, len(fs))
    c = mat.elasticity(fs, p)
    rep = audit_state(c, fs, n_dirs=16)
    dirs = fibonacci_sphere(16)
    lam, dets, a = _dense_audit(c, fs, dirs)

    assert abs(rep.adn_min_abs - dets.min()) <= 1e-12 * dets.min()
    n, d = np.unravel_index(dets.argmin(), dets.shape)
    assert rep.adn_worst_point == n == weak
    assert np.array_equal(rep.adn_m, dirs[d])
    assert abs(rep.se_margin - lam.min()) <= 1e-12 * abs(lam.min())
    if isinstance(mat, NeoHookean):
        # sym Q = mu I at every point and direction: round-off alone picks
        # the worst pair
        assert np.abs(lam - mat.mu).max() <= 1e-12 * mat.mu
        return
    n, d = np.unravel_index(lam.argmin(), lam.shape)
    assert rep.se_worst_point == n == weak
    assert np.array_equal(rep.se_c, dirs[d])
    assert min(np.abs(rep.se_a - a[n, d]).max(),
               np.abs(rep.se_a + a[n, d]).max()) <= 1e-12


def test_neo_hookean_margin_is_mu_at_identity_and_rotations():
    """The constrained rank-one form of neo-Hookean moduli is mu |a|^2 on
    every unit direction: M = mu I in any orthonormal plane basis, to
    round-off of the order of mu."""
    rng = np.random.default_rng(13)
    fs = np.array([EYE3] + [random_rotation(rng) for _ in range(4)])
    for mu in (1.0, 2.5, 1e3):
        mat = NeoHookean(mu=mu)
        for f in fs:
            for p in (0.0, 3.0 * mu):
                rep = audit_state(mat.elasticity(f, p), f, n_dirs=64)
                assert abs(rep.se_margin - mu) <= 1e-14 * mu


def test_plane_frame_is_a_right_handed_orthonormal_completion():
    """(b1, b2, n) is orthonormal and right-handed on the axes, on both
    signed zeros of n_z, and on random unit vectors."""
    axes = [s * e for e in EYE3 for s in (1.0, -1.0)]
    zeros = [np.array([0.6, 0.8, 0.0]), np.array([0.6, -0.8, -0.0]),
             np.array([-1.0, 0.0, -0.0]), np.array([0.0, 1.0, 0.0])]
    rng = np.random.default_rng(14)
    rand = list(fibonacci_sphere(64)) + list(rng.standard_normal((64, 3)))
    for n in axes + zeros + rand:
        n = n / np.linalg.norm(n)
        b1, b2 = (np.array(b) for b in _plane_frame(*n))
        frame = np.array([b1, b2, n])
        tol = 0.0 if any(np.array_equal(n, e) for e in axes) else 1e-15
        assert np.abs(frame @ frame.T - EYE3).max() <= tol
        assert np.abs(np.cross(b1, b2) - n).max() <= tol
    # components may be arrays, and each entry is the scalar frame
    ns = fibonacci_sphere(8)
    b1s, b2s = _plane_frame(ns[:, 0], ns[:, 1], ns[:, 2])
    for k, n in enumerate(ns):
        b1, b2 = _plane_frame(*n)
        assert [x[k] for x in b1s] == list(b1)
        assert [x[k] for x in b2s] == list(b2)


def test_audit_state_identity_field():
    fs = np.broadcast_to(EYE3, (7, 3, 3)).copy()
    for mu in (1.0, 2.0, 3.0):
        rep = audit_state(NeoHookean(mu=mu).elasticity(fs), fs, n_dirs=32)
        assert abs(rep.se_margin - mu) < 1e-12
        assert abs(rep.adn_min_abs - mu * mu) < 1e-12
    assert rep.n_points == 7
    assert "complementing" in rep.note
    assert "not tested" in rep.note


def test_audit_state_accepts_leading_shape_and_validates():
    mat = NeoHookean(mu=1.0)
    rng = np.random.default_rng(2)
    fs = np.array([random_unimodular(rng, spread=0.05) for _ in range(6)])
    c = mat.elasticity(fs)
    rep = audit_state(c.reshape(2, 3, 3, 3, 3, 3), fs.reshape(2, 3, 3, 3),
                      n_dirs=16)
    assert rep.n_points == 6
    assert rep.se_margin > 0.5
    with pytest.raises(ValueError):
        audit_state(np.empty((0, 3, 3, 3, 3)), np.empty((0, 3, 3)))
    bad = fs.copy()
    bad[3] = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        audit_state(c, bad)
    # the moduli must match the field point for point
    for moduli in (c[:5], c.reshape(2, 3, 3, 3, 3, 3), c[..., 0]):
        with pytest.raises(ValueError, match="moduli"):
            audit_state(moduli, fs)


def test_audit_state_memory_does_not_grow_with_the_field():
    """The audit works on blocks of points: 13,824 points (an 8^3 mesh) stay
    far below the 119 MB that one batch over all of them would take.  The
    moduli (9 MB) are built before the window: the audit reads them in
    blocks and does not copy them whole."""
    rng = np.random.default_rng(4)
    fs = np.tile([random_unimodular(rng, spread=0.3) for _ in range(64)],
                 (216, 1, 1))
    moduli = MooneyRivlin(c1=0.5, c2=0.125).elasticity(fs)
    tracemalloc.start()
    try:
        audit_state(moduli, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@pytest.mark.parametrize("mat", [NeoHookean(mu=1.3),
                                 MooneyRivlin(c1=0.5, c2=0.125)],
                         ids=["neo-hookean", "mooney-rivlin"])
def test_audit_is_blind_to_a_pressure_term(mat):
    """det(F + t a (x) m) is affine in t, so D^2 det has a zero rank-one
    form: the pressure-augmented moduli W_FF - q D^2 det audit as W_FF,
    point by point and over the field."""
    rng = np.random.default_rng(5)
    fs = np.array([random_gl_plus(rng) for _ in range(300)])
    q = 5.0 * rng.standard_normal(300)
    c = mat.elasticity(fs)
    c_eff = c - q[:, None, None, None, None] * dcof(fs)
    for k in range(0, 300, 7):
        plain = audit_state(c[k], fs[k], n_dirs=16)
        aug = audit_state(c_eff[k], fs[k], n_dirs=16)
        assert abs(aug.se_margin - plain.se_margin) \
            <= 1e-12 * abs(plain.se_margin)
        assert abs(aug.adn_min_abs - plain.adn_min_abs) \
            <= 1e-12 * plain.adn_min_abs
    plain = audit_state(c, fs, n_dirs=16)
    aug = audit_state(c_eff, fs, n_dirs=16)
    assert abs(aug.se_margin - plain.se_margin) <= 1e-12 * abs(plain.se_margin)
    assert abs(aug.adn_min_abs - plain.adn_min_abs) \
        <= 1e-12 * plain.adn_min_abs
    assert aug.adn_worst_point == plain.adn_worst_point
    assert np.array_equal(aug.adn_m, plain.adn_m)
    if isinstance(mat, MooneyRivlin):
        # the neo-Hookean margin is mu at every point and direction, so
        # round-off alone picks its worst point and pair
        assert aug.se_worst_point == plain.se_worst_point
        assert np.array_equal(aug.se_c, plain.se_c)
        assert 1.0 - abs(aug.se_a @ plain.se_a) < 1e-12
