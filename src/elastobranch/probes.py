"""Sampling probes for the energy hypotheses and the zero-load uniqueness
statement: global minimum of W on the unimodular group, quasiconvexity at
the identity over exactly volume-preserving test fields, and multi-start
Newton at lambda = 0.

The quasiconvexity test fields are built as time-1 flow maps of compactly
supported divergence-free velocity fields: the flow preserves volume
analytically, so det(I + grad v) = 1 up to time-integration error, which is
measured and reported next to the integral.
"""

from dataclasses import dataclass

import numpy as np

from .materials import random_unimodular
from .tensor import det3
from .mesh import Mesh, build_box_mesh, star_shape_check
from .assembly import (Discretization, State, LoadProgram, InvertedElementError,
                       SingularMatrixError, residual, jacobian, factor_bordered)
from .continuation import ContinuationSettings, newton_correct

# Largest volume defect max |det(I + grad v) - 1| of a passing flow: RK4's
# error is 1e-11 at the default amplitude, and a field far from volume-
# preserving says nothing about quasiconvexity on det F = 1.
MAX_DET_DEFECT = 1e-6


@dataclass
class DivFreeField:
    """w = curl(0, 0, psi) with psi = amplitude * B(x) B(y) B(z).

    B is a quartic-contact bump supported on [margin, 1 - margin], so w
    vanishes identically in a band near the unit-cube boundary and is C^3
    across the support edge.
    """
    amplitude: float = 1.0
    margin: float = 0.1

    def _bump(self, s):
        m, top = self.margin, 1.0 - self.margin
        q = (s - m) * (top - s)
        inside = (s > m) & (s < top)
        q = np.where(inside, q, 0.0)
        dq = np.where(inside, top + m - 2.0 * s, 0.0)
        scale = ((top - m) / 2.0) ** -8          # unit peak
        b = scale * q ** 4
        db = scale * 4.0 * q ** 3 * dq
        d2b = scale * np.where(inside, 12.0 * q ** 2 * dq ** 2 - 8.0 * q ** 3, 0.0)
        return b, db, d2b

    def value_grad(self, x):
        """Velocity (..., 3) and its gradient d w_i / d x_j (..., 3, 3)."""
        x = np.asarray(x, dtype=float)
        bx, dbx, d2bx = self._bump(x[..., 0])
        by, dby, d2by = self._bump(x[..., 1])
        bz, dbz, d2bz = self._bump(x[..., 2])
        a = self.amplitude
        v = np.stack([a * bx * dby * bz, -a * dbx * by * bz, np.zeros_like(bx)],
                     axis=-1)
        g = np.zeros(x.shape[:-1] + (3, 3))
        g[..., 0, 0] = a * dbx * dby * bz
        g[..., 0, 1] = a * bx * d2by * bz
        g[..., 0, 2] = a * bx * dby * dbz
        g[..., 1, 0] = -a * d2bx * by * bz
        g[..., 1, 1] = -a * dbx * dby * bz
        g[..., 1, 2] = -a * dbx * by * dbz
        return v, g

    def value(self, x):
        return self.value_grad(x)[0]

    def grad(self, x):
        return self.value_grad(x)[1]


def flow_map(field: DivFreeField, x0, n_steps):
    """RK4 time-1 flow of the field with its Jacobian.

    The Jacobian rides along through the variational equation
    dJ/dt = grad w(x(t)) J, avoiding finite differences of flow maps.
    Where the field and its gradient are both zero, every RK4 stage
    evaluates at x itself and returns zero again, so such a point is an
    exact fixed point with J = I: only the other points are integrated.
    Returns (x(1), J(1)).
    """
    x = np.asarray(x0, dtype=float).copy()
    jac = np.broadcast_to(np.eye(3), x.shape + (3,)).copy()
    v, g = field.value_grad(x)
    moving = np.any(v != 0.0, axis=-1) | np.any(g != 0.0, axis=(-2, -1))
    xm, jm = x[moving], jac[moving]
    h = 1.0 / n_steps

    def rhs(xc, jc):
        v, g = field.value_grad(xc)
        return v, g @ jc

    for _ in range(n_steps):
        k1x, k1j = rhs(xm, jm)
        k2x, k2j = rhs(xm + 0.5 * h * k1x, jm + 0.5 * h * k1j)
        k3x, k3j = rhs(xm + 0.5 * h * k2x, jm + 0.5 * h * k2j)
        k4x, k4j = rhs(xm + h * k3x, jm + h * k3j)
        xm = xm + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        jm = jm + (h / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j)
    x[moving], jac[moving] = xm, jm
    return x, jac


@dataclass
class GlobalMinReport:
    min_value: float
    argmin_f: np.ndarray
    argmin_so3_dist: float
    n_samples: int
    passed: bool


def global_min_probe(material, n_samples, seed=0, spread=0.6):
    """Sample W on random unimodular matrices; the minimum should be >= 0
    to round-off, attained only near rotations."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    fs = np.array([random_unimodular(rng, spread=spread) for _ in range(n_samples)])
    vals = material.energy(fs)
    k = int(np.argmin(vals))
    sv = np.linalg.svd(fs[k], compute_uv=False)
    dist = float(np.linalg.norm(sv - 1.0))
    near_zero = vals < 1e-9
    sv_all = np.linalg.svd(fs[near_zero], compute_uv=False) if near_zero.any() \
        else np.empty((0, 3))
    rotation_like = bool(np.all(np.abs(sv_all - 1.0) < 1e-6)) if near_zero.any() else True
    passed = bool(vals.min() > -1e-12) and rotation_like
    return GlobalMinReport(min_value=float(vals.min()), argmin_f=fs[k],
                           argmin_so3_dist=dist, n_samples=n_samples,
                           passed=passed)


@dataclass
class QuasiconvexityReport:
    integral: float
    max_det_defect: float
    amplitude: float
    flow_steps: int
    passed: bool


def quasiconvexity_probe(material, field: DivFreeField, flow_steps=200,
                         quad_divisions=5):
    """Evaluate int W(I + grad v) over the unit cube for the flow-built v.

    The quadrature grid is a Gauss rule on quad_divisions^3 cells.  The
    reported defect max |det(I + grad v) - 1| bounds the constraint
    violation introduced by time integration.  The probe passes when the
    defect is at most MAX_DET_DEFECT and the integral exceeds
    -(10 defect + 1e-14).
    """
    if flow_steps < 100:
        raise ValueError("need at least 100 flow steps")
    grid = build_box_mesh((1.0, 1.0, 1.0), (quad_divisions,) * 3)
    pts = grid.qp_phys.reshape(-1, 3)
    w = grid.qp_weight.reshape(-1)
    x1, jac = flow_map(field, pts, flow_steps)
    if np.any(x1 < -1e-9) or np.any(x1 > 1.0 + 1e-9):
        raise ValueError("flow leaves the domain; reduce the amplitude")
    gradv = jac - np.eye(3)
    defect = float(np.abs(np.linalg.det(jac) - 1.0).max())
    vals = material.energy(np.eye(3) + gradv)
    integral = float(w @ vals)
    passed = defect <= MAX_DET_DEFECT and integral > -(10.0 * defect + 1e-14)
    return QuasiconvexityReport(integral=integral, max_det_defect=defect,
                                amplitude=field.amplitude,
                                flow_steps=flow_steps, passed=passed)


@dataclass
class UniquenessReport:
    solution_norms: list
    n_converged: int
    n_failed: int
    n_inadmissible: int
    max_norm: float
    passed: bool
    certified: bool
    note: str


def uniqueness_probe(material, mesh, n_starts=20, start_radius=0.05,
                     newton_tol=1e-11, seed=0, origin=None):
    """Multi-start Newton on the zero-load problem.

    Every converged solution should coincide with w = 0; a nonzero find
    would be a reportable contradiction of the uniqueness expectation.
    Each start is uniform noise of size start_radius times 3 h, h the
    largest mesh spacing: nodal noise r gives grad u of size r / h.  A draw
    with det(I + grad u) <= 0 is inadmissible and drawn again, 9 times at most.
    Every start corrects by chord steps on one LU of J(0), the Jacobian at
    the root under test, and takes one more chord step before its distance
    to w = 0 is measured: at w = 0 that leaves round-off, at another root
    it moves almost nothing.  If J(0) cannot be factored, the starts run
    plain Newton.  A start from which Newton inverts an element or meets a
    singular Jacobian counts as failed, like one that does not converge.
    The star-shape certificate gates the interpretation only: without it
    the report is labelled as not certified but still runs.
    """
    if n_starts < 1:
        raise ValueError("need at least one start")
    disc = Discretization(mesh) if isinstance(mesh, Mesh) else mesh
    if origin is None:
        origin = disc.mesh.nodes.mean(axis=0)
    try:
        star = star_shape_check(disc.mesh, origin)
        certified = star.passed
    except ValueError:
        certified = False
    note = "hypotheses certified (star-shaped domain)" if certified \
        else "hypotheses not certified (star-shape check failed)"

    program = LoadProgram()
    settings = ContinuationSettings(newton_tol=newton_tol, newton_max_iter=30)
    try:
        solve, _ = factor_bordered(
            jacobian(State.zero(disc), program, material, disc), disc.fill_order)
        chord = (solve, np.zeros(disc.n_total))    # unloaded: F_lambda = 0
    except (InvertedElementError, SingularMatrixError):
        chord = None
    radius = start_radius * (3.0 * float(np.max(disc.mesh.spacing)))
    rng = np.random.default_rng(seed)
    norms, failed, inadmissible = [], 0, 0
    for _ in range(n_starts):
        for _ in range(10):
            u0 = radius * (2.0 * rng.random(disc.n_u) - 1.0)
            p0 = radius * (2.0 * rng.random(disc.n_p) - 1.0)
            if det3(np.eye(3) + disc.grad_u(u0)).min() > 0.0:
                break
            inadmissible += 1
        start = State(lam=0.0, u=u0, p=p0, mu_p=0.0)
        try:
            res = newton_correct(start, program, material, disc, settings,
                                 chord=chord)
        except (InvertedElementError, SingularMatrixError):
            failed += 1
            continue
        if not res.converged:
            failed += 1
            continue
        w = res.state
        if chord is not None:
            w = w.with_increment(solve(-residual(w, program, material, disc)))
        norms.append(float(np.abs(w.u).max() + np.abs(w.p).max()))
    max_norm = max(norms) if norms else 0.0
    passed = bool(norms) and max_norm < 10.0 * newton_tol
    return UniquenessReport(norms, len(norms), failed, inadmissible, max_norm,
                            passed, certified, note)
