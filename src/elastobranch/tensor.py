"""Small-dimension tensor algebra on 3x3 matrices and 3x3x3x3 tensors.

All functions broadcast over leading axes, so a field of deformation
gradients with shape (..., 3, 3) is handled in one call.  Fourth-order
tensors are stored dense with the index convention C[i, j, k, l] such
that (C applied to H)_ij = C_ijkl H_kl.
"""

import numpy as np

EYE3 = np.eye(3)


def det3(m):
    """Determinant of a 3x3 matrix by cofactor expansion."""
    m = np.asarray(m)
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def cof(m):
    """Cofactor matrix from the 2x2-minor table (defined for singular m too)."""
    m = np.asarray(m)
    c = np.empty(m.shape, dtype=float)
    c[..., 0, 0] = m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1]
    c[..., 0, 1] = m[..., 1, 2] * m[..., 2, 0] - m[..., 1, 0] * m[..., 2, 2]
    c[..., 0, 2] = m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]
    c[..., 1, 0] = m[..., 0, 2] * m[..., 2, 1] - m[..., 0, 1] * m[..., 2, 2]
    c[..., 1, 1] = m[..., 0, 0] * m[..., 2, 2] - m[..., 0, 2] * m[..., 2, 0]
    c[..., 1, 2] = m[..., 0, 1] * m[..., 2, 0] - m[..., 0, 0] * m[..., 2, 1]
    c[..., 2, 0] = m[..., 0, 1] * m[..., 1, 2] - m[..., 0, 2] * m[..., 1, 1]
    c[..., 2, 1] = m[..., 0, 2] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 2]
    c[..., 2, 2] = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return c


def _dcof_signs():
    """dcof(F)_ijkl = eps_ikn eps_jlq F_nq: row nq holds the sign (0 or +-1)
    with which F_nq enters each of the 81 entries ijkl; no entry has two."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[i, k, j] = 1.0, -1.0
    return np.einsum('ikn,jlq->nqijkl', eps, eps).reshape(9, 81)


_DCOF_SIGNS = _dcof_signs()


def dcof(f):
    """Derivative of the cofactor map at f, as a fourth-order tensor.

    cof(F)_ij = (1/2) eps_ikn eps_jlq F_kl F_nq, so dcof(F)_ijkl =
    eps_ikn eps_jlq F_nq: each entry is 0 or +- one entry of F, read by one
    product with a constant 9 x 81 sign table, and exact.  dcof(f)[h]
    satisfies, at f = I, (tr h) I - h^T, and dcof(f)[f] = 2 cof(f) for
    every f.
    """
    f = np.asarray(f, dtype=float)
    return (f.reshape(f.shape[:-2] + (9,)) @ _DCOF_SIGNS).reshape(
        f.shape[:-2] + (3, 3, 3, 3))


def identity4():
    """Fourth-order identity: I_ijkl = delta_ik delta_jl, so I[h] = h."""
    return np.einsum('ik,jl->ijkl', EYE3, EYE3)

