"""Pointwise constitutive audits: rank-one convexity margins on the
incompressibility-tangent cone and the bordered acoustic-determinant test
for the linearized mixed system.

The branch records audit the moduli C_eff = W_FF - p D^2 det that the
Jacobian is built from, which audit as W_FF does (MaterialModel.elasticity).

The complementing (boundary) condition is not checked anywhere: with
Dirichlet data it holds automatically once the margin is positive, and the
field audit records that assumption in its note instead of testing it.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import cof, det3

# Points per block of the field audit, so that its memory does not grow with
# the number of points.
_BLOCK = 256


def fibonacci_sphere(n):
    """n deterministic, roughly equidistributed unit vectors."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + 5.0 ** 0.5) * i
    return np.stack([np.cos(theta) * np.sin(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(phi)], axis=-1)


def _plane_basis(vhat):
    """Orthonormal b1, b2 with (b1, b2, vhat) right-handed; batched."""
    helper = np.zeros_like(vhat)
    helper[..., 0] = 1.0
    helper[np.abs(vhat[..., 0]) > 0.9] = (0.0, 1.0, 0.0)
    b1 = np.cross(vhat, helper)
    b1 /= np.linalg.norm(b1, axis=-1, keepdims=True)
    return b1, np.cross(vhat, b1)


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


def audit_state(moduli, f_field, n_dirs=32):
    """Worst-case margin and bordered-determinant magnitude over a field of
    moduli and deformation gradients (one of each per quadrature point).

    moduli has shape f_field.shape[:-2] + (3, 3, 3, 3) and is read in blocks
    of points; a p D^2 det term in it has no effect (MaterialModel.elasticity).
    For each point and sampled direction m the acoustic tensor
    Q = C[. m m] is built once, by one GEMM per block of points, and both
    tests read the 2x2 matrix M = [[b1.Q.b1, b1.Q.b2], [b2.Q.b1, b2.Q.b2]]
    of sym(Q) in an orthonormal basis (b1, b2) of the plane orthogonal to
    v = (Cof F) m.  The margin is the smallest eigenvalue of M, so the
    minimum over the first direction is exact for each m.  The bordered
    determinant is det [[Q, -v], [v^T, 0]] = v^T adj(Q) v = |v|^2 det M:
    adj(Q) rotated to the frame (b1, b2, v/|v|) is adj of the rotated Q,
    whose corner minor is det M, and Q is symmetric because C is a Hessian.
    """
    f_field, moduli = np.asarray(f_field, float), np.asarray(moduli, float)
    if f_field.size == 0:
        raise ValueError("empty field")
    if moduli.shape != f_field.shape[:-2] + (3, 3, 3, 3):
        raise ValueError("moduli do not match the field's shape")
    f_field, moduli = f_field.reshape(-1, 3, 3), moduli.reshape(-1, 3, 3, 3, 3)
    if np.any(det3(f_field) <= 0):
        raise ValueError("field contains a deformation gradient with det <= 0")
    dirs = fibonacci_sphere(n_dirs)
    mm = (dirs[:, :, None] * dirs[:, None, :]).reshape(n_dirs, 9).T  # (jl, dir)
    se = adn = None
    for s in range(0, f_field.shape[0], _BLOCK):
        f = f_field[s:s + _BLOCK]
        c = moduli[s:s + _BLOCK].transpose(0, 1, 3, 2, 4).reshape(-1, 9)
        q = (c @ mm).reshape(-1, 3, 3, n_dirs).transpose(0, 3, 1, 2)  # (b, dir, i, k)
        q = 0.5 * (q + np.swapaxes(q, -1, -2))
        v = dirs @ np.swapaxes(cof(f), -1, -2)                        # (b, dir, 3)
        vv = np.einsum('nci,nci->nc', v, v)
        b1, b2 = _plane_basis(v / np.sqrt(vv)[..., None])
        qb1 = np.einsum('ncik,nck->nci', q, b1)
        qb2 = np.einsum('ncik,nck->nci', q, b2)
        m11 = np.einsum('nci,nci->nc', b1, qb1)
        m12 = np.einsum('nci,nci->nc', b1, qb2)
        m22 = np.einsum('nci,nci->nc', b2, qb2)
        half = 0.5 * (m11 - m22)
        lam = 0.5 * (m11 + m22) - np.sqrt(half * half + m12 * m12)
        dets = vv * np.abs(m11 * m22 - m12 * m12)

        i = np.unravel_index(int(np.argmin(lam)), lam.shape)
        if se is None or lam[i] < se[0]:
            w1, w2 = -m12[i], m11[i] - lam[i]
            if w1 == 0.0 and w2 == 0.0:
                w1 = 1.0
            a = w1 * b1[i] + w2 * b2[i]
            se = (float(lam[i]), a / np.linalg.norm(a), dirs[i[1]], s + int(i[0]))
        i = np.unravel_index(int(np.argmin(dets)), dets.shape)
        if adn is None or dets[i] < adn[0]:
            adn = (float(dets[i]), dirs[i[1]], s + int(i[0]))
    return FieldAuditReport(*se, *adn, n_points=f_field.shape[0])
