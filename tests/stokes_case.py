"""Manufactured Stokes solution shared by the assembly and acceptance tests.

The velocity is a curl-type field vanishing with its gradient on the unit
cube boundary, the pressure is a zero-mean cosine product that no trilinear
field represents exactly, and the forcing is the analytic -laplace(u) +
grad(p).  Solving the mu = 1 homotopy operator against the weak forcing
recovers both fields to discretization error.
"""

import numpy as np

from elastobranch.assembly import (Discretization, _pattern, homotopy_operator,
                                   solve_bordered)
from elastobranch.materials import NeoHookean
from elastobranch.mesh import build_box_mesh


def _g(t):
    return t * t * (1.0 - t) ** 2


def _dg(t):
    return 2.0 * t - 6.0 * t ** 2 + 4.0 * t ** 3


def _d2g(t):
    return 2.0 - 12.0 * t + 12.0 * t ** 2


def _d3g(t):
    return -12.0 + 24.0 * t


def exact_velocity(x):
    x, y, z = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([_g(x) * _dg(y) * _g(z),
                     -_dg(x) * _g(y) * _g(z),
                     np.zeros_like(x)], axis=-1)


def exact_pressure(x):
    return np.cos(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1]) \
        * np.cos(np.pi * x[..., 2])


def forcing(x):
    """f = -laplace(u) + grad(p), evaluated analytically."""
    x, y, z = x[..., 0], x[..., 1], x[..., 2]
    lap1 = (_d2g(x) * _dg(y) * _g(z) + _g(x) * _d3g(y) * _g(z)
            + _g(x) * _dg(y) * _d2g(z))
    lap2 = -(_d3g(x) * _g(y) * _g(z) + _dg(x) * _d2g(y) * _g(z)
             + _dg(x) * _g(y) * _d2g(z))
    pi = np.pi
    gp = np.stack([-pi * np.sin(pi * x) * np.cos(pi * y) * np.cos(pi * z),
                   -pi * np.cos(pi * x) * np.sin(pi * y) * np.cos(pi * z),
                   -pi * np.cos(pi * x) * np.cos(pi * y) * np.sin(pi * z)],
                  axis=-1)
    return np.stack([-lap1, -lap2, np.zeros_like(x)], axis=-1) + gp


def solve_stokes(n):
    """Discrete L2 errors (velocity, pressure) on an n^3 unit-cube mesh."""
    mesh = build_box_mesh((1.0, 1.0, 1.0), (n, n, n))
    disc = Discretization(mesh)
    # at mu = 1 the blend is the fourth-order identity for any material
    mat = homotopy_operator(1.0, disc, NeoHookean(mu=1.0))

    # weak forcing against the Q2 basis; constraint and mean rows stay zero
    f = forcing(mesh.qp_phys)                            # (E, 27, 3)
    w = mesh.qp_weight
    r_elem = np.einsum('eq,eqi,ql->eli', w, f, disc.n2)
    rhs = np.zeros(disc.n_total)
    keep = disc.udof >= 0
    np.add.at(rhs, disc.udof[keep], r_elem.reshape(len(disc.udof), 81)[keep])

    sol, _ = solve_bordered(mat, rhs, _pattern(disc)[0])
    u, p = sol[:disc.n_u], sol[disc.n_u:disc.n_u + disc.n_p]

    uq = disc.u_at_qp(u)
    pq = disc.p_at_qp(p)
    du = uq - exact_velocity(mesh.qp_phys)
    dp = pq - exact_pressure(mesh.qp_phys)
    err_u = float(np.sqrt(np.einsum('eq,eqi,eqi->', w, du, du)))
    err_p = float(np.sqrt(np.einsum('eq,eq,eq->', w, dp, dp)))
    return err_u, err_p
