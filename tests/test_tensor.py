import numpy as np
import pytest

from elastobranch.tensor import EYE3, cof, dcof, det3, identity4


def _random_glplus(rng, n):
    out = []
    while len(out) < n:
        m = EYE3 + 0.4 * rng.standard_normal((3, 3))
        if np.linalg.det(m) > 0.1:
            out.append(m)
    return np.array(out)


def _apply(c, h):
    """(c[h])_ij = c_ijkl h_kl, broadcast over leading axes."""
    return np.einsum('...ijkl,...kl->...ij', c, h)


def test_det3_known_values():
    assert det3(EYE3) == 1.0
    assert det3(np.diag([2.0, 3.0, 4.0])) == 24.0
    shear = EYE3 + np.outer(EYE3[0], EYE3[1])
    assert det3(shear) == 1.0


def test_det3_matches_numpy_on_random_batch():
    rng = np.random.default_rng(0)
    ms = rng.standard_normal((40, 3, 3))
    assert np.allclose(det3(ms), np.linalg.det(ms), atol=1e-12)


def test_cof_known_values():
    assert np.array_equal(cof(EYE3), EYE3)
    assert np.array_equal(cof(np.diag([2.0, 3.0, 4.0])), np.diag([12.0, 8.0, 6.0]))


def test_cof_equals_det_times_inverse_transpose():
    rng = np.random.default_rng(1)
    for m in _random_glplus(rng, 20):
        expect = np.linalg.det(m) * np.linalg.inv(m).T
        assert np.abs(cof(m) - expect).max() < 1e-12 * max(1.0, np.abs(expect).max())


def test_cof_algebraic_identities():
    rng = np.random.default_rng(2)
    ms = _random_glplus(rng, 20)
    # cof(M)^T M = det(M) I and det(cof M) = det(M)^2
    prod = np.einsum('nji,njk->nik', cof(ms), ms)
    assert np.abs(prod - det3(ms)[:, None, None] * EYE3).max() < 1e-12
    assert np.abs(det3(cof(ms)) - det3(ms) ** 2).max() < 1e-10


def test_dcof_at_identity_closed_form():
    rng = np.random.default_rng(3)
    d = dcof(EYE3)
    for _ in range(10):
        h = rng.standard_normal((3, 3))
        expect = np.trace(h) * EYE3 - h.T
        assert np.abs(_apply(d, h) - expect).max() < 1e-14


def test_dcof_euler_identity():
    rng = np.random.default_rng(4)
    fs = _random_glplus(rng, 20)
    # cof is degree-2 homogeneous, so dcof(F)[F] = 2 cof(F)
    assert np.abs(_apply(dcof(fs), fs) - 2.0 * cof(fs)).max() < 1e-12


def test_dcof_matches_finite_differences():
    rng = np.random.default_rng(5)
    h_step = 1e-5
    for f in _random_glplus(rng, 10):
        d = dcof(f)
        h = rng.standard_normal((3, 3))
        fd = (cof(f + h_step * h) - cof(f - h_step * h)) / (2.0 * h_step)
        rel = np.abs(_apply(d, h) - fd).max() / max(1.0, np.abs(fd).max())
        assert rel < 1e-6


def _levi_civita(i, j, k):
    return (i - j) * (j - k) * (k - i) // 2


def _six_term_dcof(f):
    """The closed form dcof had before it became a sign table: cof F =
    (F^T)^2 - (tr F) F^T + ((tr F)^2 - tr F^2)/2 I, differentiated term by
    term."""
    trf = np.trace(f, axis1=-2, axis2=-1)[..., None, None, None, None]
    return (np.einsum('...jk,il->...ijkl', f, EYE3)
            + np.einsum('jk,...li->...ijkl', EYE3, f)
            - np.einsum('...ji,kl->...ijkl', f, EYE3)
            - trf * np.einsum('jk,il->ijkl', EYE3, EYE3)
            + trf * np.einsum('ij,kl->ijkl', EYE3, EYE3)
            - np.einsum('ij,...lk->...ijkl', EYE3, f))


def test_dcof_entries_are_signed_copies_of_f():
    """dcof(F)_ijkl = eps_ikn eps_jlq F_nq: every entry is exactly 0 or
    +-F_nq, with the sign of the two Levi-Civita symbols."""
    rng = np.random.default_rng(9)
    fs = rng.standard_normal((50, 3, 3))
    d = dcof(fs)
    for i, j, k, l in np.ndindex(3, 3, 3, 3):
        want = np.zeros(50)
        for n, q in np.ndindex(3, 3):
            sign = _levi_civita(i, k, n) * _levi_civita(j, l, q)
            if sign:
                assert not want.any()       # at most one term per entry
                want = sign * fs[:, n, q]
        assert np.array_equal(d[:, i, j, k, l], want), (i, j, k, l)


def test_dcof_matches_the_six_term_closed_form():
    rng = np.random.default_rng(10)
    for spread in (0.4, 1.0, 10.0):
        fs = EYE3 + spread * rng.standard_normal((500, 3, 3))
        want = _six_term_dcof(fs).reshape(500, -1)
        err = np.abs(dcof(fs).reshape(500, -1) - want).max(axis=1)
        assert np.all(err <= 1e-15 * np.abs(want).max(axis=1))


def test_identity4_maps_every_matrix_to_itself():
    rng = np.random.default_rng(6)
    h = rng.standard_normal((3, 3))
    assert np.abs(_apply(identity4(), h) - h).max() == 0.0


def test_broadcasting_over_leading_axes():
    rng = np.random.default_rng(8)
    ms = rng.standard_normal((4, 5, 3, 3))
    assert det3(ms).shape == (4, 5)
    assert cof(ms).shape == (4, 5, 3, 3)
    assert dcof(ms).shape == (4, 5, 3, 3, 3, 3)
    looped = np.array([[det3(ms[i, j]) for j in range(5)] for i in range(4)])
    assert np.abs(det3(ms) - looped).max() == 0.0
