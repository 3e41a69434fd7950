"""Pointwise constitutive audits: rank-one convexity margins on the
incompressibility-tangent cone and the bordered acoustic-determinant test
for the linearized mixed system.

The complementing (boundary) condition is not checked anywhere: with
Dirichlet data it holds automatically once the margin is positive, and the
field audit records that assumption in its note instead of testing it.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import cof, det3

_UNIT_TOL = 1e-12


def fibonacci_sphere(n):
    """n deterministic, roughly equidistributed unit vectors."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + 5.0 ** 0.5) * i
    return np.stack([np.cos(theta) * np.sin(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(phi)], axis=-1)


def _check_unit(m):
    m = np.asarray(m, dtype=float)
    if abs(np.linalg.norm(m) - 1.0) > _UNIT_TOL:
        raise ValueError("direction must be a unit vector")
    return m


def acoustic(c, m):
    """Acoustic tensor Q with Q a = c[a (x) m] m; batched over leading axes of c."""
    m = _check_unit(m)
    return np.einsum('...ijkl,j,l->...ik', c, m, m)


def margin_field(c_field, f_field, n_dirs=64):
    """Constraint-respecting margin over a batch of states.

    For every sampled second direction the minimum over the first is taken
    exactly: it is the smallest eigenvalue of the symmetrized acoustic tensor
    restricted to the plane orthogonal to (Cof F) c.  Returns the fieldwide
    minimum, its directions, and the index of the worst point.
    """
    c_field = np.asarray(c_field, dtype=float)
    f_field = np.asarray(f_field, dtype=float)
    cs = fibonacci_sphere(n_dirs)
    qs = np.einsum('nijkl,cj,cl->ncik', c_field, cs, cs)
    qs = 0.5 * (qs + np.swapaxes(qs, -1, -2))
    v = np.einsum('nij,cj->nci', cof(f_field), cs)
    vhat = v / np.linalg.norm(v, axis=-1, keepdims=True)

    # orthonormal basis of the plane orthogonal to vhat
    helper = np.zeros_like(vhat)
    helper[..., 0] = 1.0
    swap = np.abs(vhat[..., 0]) > 0.9
    helper[swap] = (0.0, 1.0, 0.0)
    b1 = np.cross(vhat, helper)
    b1 /= np.linalg.norm(b1, axis=-1, keepdims=True)
    b2 = np.cross(vhat, b1)

    m11 = np.einsum('nci,ncik,nck->nc', b1, qs, b1)
    m22 = np.einsum('nci,ncik,nck->nc', b2, qs, b2)
    m12 = np.einsum('nci,ncik,nck->nc', b1, qs, b2)
    half = 0.5 * (m11 - m22)
    lam = 0.5 * (m11 + m22) - np.sqrt(half * half + m12 * m12)

    ni, ci = np.unravel_index(int(np.argmin(lam)), lam.shape)
    w1, w2 = -m12[ni, ci], m11[ni, ci] - lam[ni, ci]
    if w1 == 0.0 and w2 == 0.0:
        w1 = 1.0
    a = w1 * b1[ni, ci] + w2 * b2[ni, ci]
    a /= np.linalg.norm(a)
    return float(lam[ni, ci]), a, cs[ci], int(ni)


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


def adn_min_field(c_field, f_field, n_dirs=64):
    """Minimum |bordered determinant| over a batch of states and sampled directions."""
    c_field = np.asarray(c_field, dtype=float)
    f_field = np.asarray(f_field, dtype=float)
    ms = fibonacci_sphere(n_dirs)
    qs = np.einsum('nijkl,mj,ml->nmik', c_field, ms, ms)
    mhat = np.einsum('nij,mj->nmi', cof(f_field), ms)
    n, nm = qs.shape[:2]
    mats = np.zeros((n, nm, 4, 4))
    mats[..., :3, :3] = qs
    mats[..., :3, 3] = -mhat
    mats[..., 3, :3] = mhat
    dets = np.abs(np.linalg.det(mats))
    ni, mi = np.unravel_index(int(np.argmin(dets)), dets.shape)
    return float(dets[ni, mi]), ms[mi], int(ni)


@dataclass
class FieldAuditReport:
    se_margin: float
    se_a: np.ndarray
    se_c: np.ndarray
    se_worst_point: int
    adn_min_abs: float
    adn_m: np.ndarray
    adn_worst_point: int
    n_points: int
    note: str = ("complementing condition assumed satisfied "
                 "(Dirichlet data + positive margin), not tested")


def audit_state(material, f_field, se_dirs=48, adn_dirs=48):
    """Worst-case margin and bordered-determinant magnitude over a field of
    deformation gradients (one per quadrature point)."""
    f_field = np.asarray(f_field, dtype=float)
    if f_field.size == 0:
        raise ValueError("empty field")
    f_field = f_field.reshape(-1, 3, 3)
    if np.any(det3(f_field) <= 0):
        raise ValueError("field contains a deformation gradient with det <= 0")
    c_field = material.elasticity(f_field)
    margin, a, cdir, pt = margin_field(c_field, f_field, n_dirs=se_dirs)
    adn_abs, mdir, apt = adn_min_field(c_field, f_field, n_dirs=adn_dirs)
    return FieldAuditReport(se_margin=margin, se_a=a, se_c=cdir, se_worst_point=pt,
                            adn_min_abs=adn_abs, adn_m=mdir, adn_worst_point=apt,
                            n_points=f_field.shape[0])
