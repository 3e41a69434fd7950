"""Sampling probes for the energy hypotheses and the zero-load uniqueness
statement: global minimum of W on the unimodular group, quasiconvexity at
the identity over exactly volume-preserving test maps, and multi-start
Newton at lambda = 0.

The quasiconvexity test map is two swirls composed in closed form.  A swirl
turns each point about an axis by an angle that depends only on its
distance to the axis and its height along it, so det grad phi = 1 holds to
round-off and no point leaves the unit cube.
"""

from dataclasses import dataclass

import numpy as np

from .materials import random_unimodular
from .tensor import det3
from .mesh import Mesh, build_box_mesh, star_shape_check
from .assembly import (Discretization, State, LoadProgram, InvertedElementError,
                       SingularMatrixError, residual, factor_at)
from .continuation import ContinuationSettings, newton_correct

# Width of the band along each face of the unit cube where the
# quasiconvexity test map is the identity.
MARGIN = 0.1


def _bump(s):
    """Quartic-contact bump of unit peak supported on [MARGIN, 1 - MARGIN]
    (C^3 across the support edge), and its derivative."""
    m, top = MARGIN, 1.0 - MARGIN
    q = np.where((s > m) & (s < top), (s - m) * (top - s), 0.0)
    scale = ((top - m) / 2.0) ** -8
    return scale * q ** 4, scale * 4.0 * q ** 3 * (top + m - 2.0 * s)


def _swirl(x, angle, axis):
    """x -> c + R(theta)(x - c) in the plane normal to the coordinate axis
    through the cube's centre c, theta = angle (1 - r^2/rho^2)^4 B(x_axis)
    with rho = 1/2 - MARGIN: r and x_axis are kept, so det = 1 and the
    support stays in [MARGIN, 1 - MARGIN]^3.  Returns (image, gradient)."""
    i, j = (axis + 1) % 3, (axis + 2) % 3
    u, v = x[..., i] - 0.5, x[..., j] - 0.5
    rho2 = (0.5 - MARGIN) ** 2
    q = np.maximum(1.0 - (u * u + v * v) / rho2, 0.0)
    b, db = _bump(x[..., axis])
    theta = angle * q ** 4 * b
    radial = -8.0 * angle * q ** 3 * b / rho2      # d theta / du = radial u
    dtheta = np.empty(x.shape)
    dtheta[..., i], dtheta[..., j] = radial * u, radial * v
    dtheta[..., axis] = angle * q ** 4 * db
    c, s = np.cos(theta), np.sin(theta)
    y = x.copy()
    y[..., i] += (c - 1.0) * u - s * v              # the identity where theta = 0
    y[..., j] += s * u + (c - 1.0) * v
    turn = np.zeros(x.shape)                        # d y / d theta
    turn[..., i], turn[..., j] = 0.5 - y[..., j], y[..., i] - 0.5
    g = turn[..., :, None] * dtheta[..., None, :]
    g[..., axis, axis] += 1.0
    g[..., i, i] += c
    g[..., j, j] += c
    g[..., i, j] -= s
    g[..., j, i] += s
    return y, g


def swirl_map(x, amplitude):
    """The probe's test map: a swirl about the z axis, then one about the
    x axis, each of peak angle amplitude (radians).  Returns phi(x) and
    grad phi(x) by the chain rule."""
    y, g1 = _swirl(np.asarray(x, dtype=float), amplitude, 2)
    y, g2 = _swirl(y, amplitude, 0)
    return y, g2 @ g1


@dataclass
class GlobalMinReport:
    min_value: float
    argmin_f: np.ndarray
    argmin_so3_dist: float
    n_samples: int
    passed: bool


# samples per batch of global_min_probe: a (_BLOCK, 3, 3) array is 0.3 MB
_BLOCK = 4096


def global_min_probe(material, n_samples, seed=0, spread=0.6):
    """Sample W on random unimodular matrices; the minimum should be >= 0
    to round-off, attained only near rotations.

    The samples are random_unimodular's, drawn in its order, in batches of
    _BLOCK, each evaluated by one call of material.energy.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    lows, picks, rotation_like = [], [], True
    for start in range(0, n_samples, _BLOCK):
        fs = random_unimodular(rng, spread=spread,
                               size=min(_BLOCK, n_samples - start))
        vals = material.energy(fs)
        k = int(np.argmin(vals))
        lows.append(vals[k])
        picks.append(fs[k])
        sv = np.linalg.svd(fs[vals < 1e-9], compute_uv=False)   # (0, 3) if none
        rotation_like &= bool(np.all(np.abs(sv - 1.0) < 1e-6))
    k = int(np.argmin(lows))        # the first least block minimum, or NaN
    low, argmin_f = float(lows[k]), picks[k]
    dist = float(np.linalg.norm(np.linalg.svd(argmin_f, compute_uv=False) - 1.0))
    return GlobalMinReport(min_value=low, argmin_f=argmin_f,
                           argmin_so3_dist=dist, n_samples=n_samples,
                           passed=bool(low > -1e-12) and rotation_like)


@dataclass
class QuasiconvexityReport:
    integral: float
    max_det_defect: float
    amplitude: float
    passed: bool


def quasiconvexity_probe(material, amplitude, quad_divisions=5):
    """Evaluate int W(grad phi) over the unit cube for phi = swirl_map.

    W(I) = 0 and phi is the identity near the faces, so a W quasiconvex at
    I gives an integral >= 0.  The quadrature grid is a Gauss rule on
    quad_divisions^3 cells.  The reported defect max |det grad phi - 1|,
    with det3 as the material computes it, is round-off; the probe passes
    when the integral exceeds -1e-14, and fails (integral nan) where
    round-off leaves the material's det > 0.
    """
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    grid = build_box_mesh((1.0, 1.0, 1.0), (quad_divisions,) * 3)
    _, grad = swirl_map(grid.qp_phys.reshape(-1, 3), amplitude)
    defect = float(np.abs(det3(grad) - 1.0).max())    # the det W integrates
    try:
        integral = float(grid.qp_weight.reshape(-1) @ material.energy(grad))
    except ValueError:      # the material's own test found det grad phi <= 0
        integral = np.nan
    return QuasiconvexityReport(integral=integral, max_det_defect=defect,
                                amplitude=amplitude,
                                passed=integral > -1e-14)


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
        chord = factor_at(State.zero(disc), program, material, disc)[:2]  # unloaded: t = 0
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
            w = w.with_increment(chord[0](-residual(w, program, material, disc)))
        norms.append(float(np.abs(w.u).max() + np.abs(w.p).max()))
    max_norm = max(norms) if norms else 0.0
    passed = bool(norms) and max_norm < 10.0 * newton_tol
    return UniquenessReport(norms, len(norms), failed, inadmissible, max_norm,
                            passed, certified, note)
