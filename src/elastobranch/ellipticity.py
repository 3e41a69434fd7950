"""Pointwise constitutive audits: rank-one convexity margins on the
incompressibility-tangent cone and the bordered acoustic-determinant test
for the linearized mixed system.

Both tests read one 2x2 matrix per point and direction, the acoustic tensor
in an orthonormal basis of the plane orthogonal to the constraint normal;
the field audit forms it in flat component arithmetic over blocks of points
and builds 3-vectors only at the worst point.

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
# the number of points; on 3^3 and 4^3 meshes it beats 1,024 and one block.
_BLOCK = 256


def fibonacci_sphere(n):
    """n deterministic, roughly equidistributed unit vectors."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + 5.0 ** 0.5) * i
    return np.stack([np.cos(theta) * np.sin(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(phi)], axis=-1)


def _plane_frame(x, y, z):
    """Orthonormal b1, b2, as component triples, with (b1, b2, n)
    right-handed for the unit vector n = (x, y, z); the components may be
    arrays.  This is the branchless basis of Duff et al., "Building an
    Orthonormal Basis, Revisited" (JCGT 2017): s + z, with s the sign of z
    (of -0.0 too), has magnitude at least 1, so no n needs a special case.
    """
    s = np.copysign(1.0, z)
    a = -1.0 / (s + z)
    b = x * y * a
    return (1.0 + s * x * x * a, s * b, -s * x), (b, s + y * y * a, -y)


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
    Q = C[. m m] is built once, by one GEMM per block of points, laid out so
    that each component Q_ik is one contiguous (point, direction) array.
    Both tests read the 2x2 matrix M = [[b1.Q.b1, b1.Q.b2], [b2.Q.b1,
    b2.Q.b2]] of sym(Q) in the orthonormal basis (b1, b2) of the plane
    orthogonal to v = (Cof F) m that _plane_frame builds, all by explicit
    component products; the 3-vectors are formed at the worst point alone.
    The margin is the smallest eigenvalue of M, so the minimum over the
    first direction is exact for each m.  M is formed in a basis, not from
    the invariants of Q and v: the basis-free discriminant
    (tr M / 2)^2 - det M cancels to round-off at a double eigenvalue, such
    as neo-Hookean F = I, and its square root keeps only half the digits,
    where (m11 - m22)^2 / 4 + m12^2 in a basis is zero up to round-off
    squared.  The bordered determinant is
    det [[Q, -v], [v^T, 0]] = v^T adj(Q) v = |v|^2 det M: adj(Q) rotated to
    the frame (b1, b2, v/|v|) is adj of the rotated Q, whose corner minor is
    det M, and Q is symmetric because C is a Hessian.
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
        c = moduli[s:s + _BLOCK].transpose(1, 3, 0, 2, 4).reshape(-1, 9)
        q = (c @ mm).reshape(3, 3, -1, n_dirs)          # (i, k, point, dir)
        cf = cof(f_field[s:s + _BLOCK]).transpose(1, 0, 2).reshape(-1, 3)
        v = (cf @ dirs.T).reshape(3, -1, n_dirs)         # (i, point, dir)
        vv = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
        r = 1.0 / np.sqrt(vv)
        b1, b2 = _plane_frame(v[0] * r, v[1] * r, v[2] * r)
        # sym(Q) applied to b1, then its forms with b1 and b2
        h01, h02, h12 = (0.5 * (q[0, 1] + q[1, 0]), 0.5 * (q[0, 2] + q[2, 0]),
                         0.5 * (q[1, 2] + q[2, 1]))
        qb0 = q[0, 0] * b1[0] + h01 * b1[1] + h02 * b1[2]
        qb1 = h01 * b1[0] + q[1, 1] * b1[1] + h12 * b1[2]
        qb2 = h02 * b1[0] + h12 * b1[1] + q[2, 2] * b1[2]
        m11 = b1[0] * qb0 + b1[1] * qb1 + b1[2] * qb2
        m12 = b2[0] * qb0 + b2[1] * qb1 + b2[2] * qb2
        m22 = (q[0, 0] * b2[0] * b2[0] + q[1, 1] * b2[1] * b2[1]
               + q[2, 2] * b2[2] * b2[2]
               + 2.0 * (h01 * b2[0] * b2[1] + h02 * b2[0] * b2[2]
                        + h12 * b2[1] * b2[2]))
        half = 0.5 * (m11 - m22)
        lam = 0.5 * (m11 + m22) - np.sqrt(half * half + m12 * m12)
        dets = vv * np.abs(m11 * m22 - m12 * m12)

        i = np.unravel_index(int(np.argmin(lam)), lam.shape)
        if se is None or lam[i] < se[0]:
            w1, w2 = -m12[i], m11[i] - lam[i]
            if w1 == 0.0 and w2 == 0.0:
                w1 = 1.0
            a = (w1 * np.array([x[i] for x in b1])
                 + w2 * np.array([x[i] for x in b2]))
            se = (float(lam[i]), a / np.linalg.norm(a), dirs[i[1]], s + int(i[0]))
        i = np.unravel_index(int(np.argmin(dets)), dets.shape)
        if adn is None or dets[i] < adn[0]:
            adn = (float(dets[i]), dirs[i[1]], s + int(i[0]))
    return FieldAuditReport(*se, *adn, n_points=f_field.shape[0])
