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


def dcof(f):
    """Derivative of the cofactor map at f, as a fourth-order tensor.

    Closed form from cof F = (F^T)^2 - (tr F) F^T + ((tr F)^2 - tr F^2)/2 I,
    differentiated term by term.  dcof(f)[h] satisfies, at f = I,
    (tr h) I - h^T, and dcof(f)[f] = 2 cof(f) for every f.
    """
    f = np.asarray(f, dtype=float)
    trf = np.trace(f, axis1=-2, axis2=-1)[..., None, None, None, None]
    eye = EYE3
    d = (np.einsum('...jk,il->...ijkl', f, eye)
         + np.einsum('jk,...li->...ijkl', eye, f)
         - np.einsum('...ji,kl->...ijkl', f, eye)
         - trf * np.einsum('jk,il->ijkl', eye, eye)
         + trf * np.einsum('ij,kl->ijkl', eye, eye)
         - np.einsum('ij,...lk->...ijkl', eye, f))
    return d


def identity4():
    """Fourth-order identity: I_ijkl = delta_ik delta_jl, so I[h] = h."""
    return np.einsum('ik,jl->ijkl', EYE3, EYE3)

