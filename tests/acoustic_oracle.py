"""Dense pointwise oracles for the field audit in elastobranch.ellipticity.

The audit reads both ellipticity tests from a 2x2 matrix per point and
direction; these build the acoustic tensor and the bordered 4x4 symbol
matrix directly from a moduli tensor, one point and one direction at a time,
so the tests can compare the two.
"""

import numpy as np

from elastobranch.tensor import cof, det3

_UNIT_TOL = 1e-12


def _check_unit(m):
    m = np.asarray(m, dtype=float)
    if abs(np.linalg.norm(m) - 1.0) > _UNIT_TOL:
        raise ValueError("direction must be a unit vector")
    return m


def acoustic(c, m):
    """Acoustic tensor Q with Q a = c[a (x) m] m; batched over leading axes of c."""
    m = _check_unit(m)
    return np.einsum('...ijkl,j,l->...ik', c, m, m)


def adn_matrix(c, f, m):
    """Bordered 4x4 principal-symbol matrix [[Q(m), -m_hat], [m_hat^T, 0]]."""
    m = _check_unit(m)
    f = np.asarray(f, dtype=float)
    if det3(f) <= 0:
        raise ValueError("deformation gradient must have positive determinant")
    q = acoustic(c, m)
    mhat = cof(f) @ m
    out = np.zeros((4, 4))
    out[:3, :3] = q
    out[:3, 3] = -mhat
    out[3, :3] = mhat
    return out


def adn_det(c, f, m):
    """Determinant of the bordered acoustic matrix (mixed-system ellipticity test)."""
    return float(np.linalg.det(adn_matrix(c, f, m)))
