"""Isochoric stored-energy models extended to all of GL+ with analytic derivatives.

Each model is the classical incompressible energy plus a -k (det F - 1)
extension term, which MaterialModel adds.  The extension vanishes identically
on det F = 1, so it does not change the incompressible physics, and k is
calibrated in closed form so the reference configuration is exactly stress
free.  Energies are evaluated on batches: any input of shape (..., 3, 3) works.
"""

from dataclasses import dataclass, field

import numpy as np

from .tensor import EYE3, cof, dcof, det3, identity4

_I4 = identity4()


# row (a, b, c, d): the coefficient of F_ab F_cd in each entry ijkl of
# 2 (F : H) F + |F|^2 H - H F^T F - F H^T F - F F^T H at H = e_k (x) e_l
_MR_QUAD = sum(c * np.einsum(s + '->abcdijkl', *[EYE3] * 4) for c, s in (
    (2.0, 'ai,bj,ck,dl'), (1.0, 'ac,bd,ik,jl'), (-1.0, 'ac,bl,dj,ik'),
    (-1.0, 'ai,bl,ck,dj'), (-1.0, 'ai,ck,bd,jl'))).reshape(81, 81)


def _require_orientation(f):
    f = np.asarray(f, dtype=float)
    d = det3(f)
    if np.any(d <= 0.0):
        raise ValueError("deformation gradient with det <= 0 is outside the model domain")
    return f, d


class MaterialModel:
    """Stored energy W = W0 - k (det F - 1), its stress and its elasticity.

    A subclass states the incompressible law W0 alone, as base_energy,
    base_stress and base_elasticity, and sets k = solve_stress_free_k(self).
    stress and elasticity take the pressure p, a scalar or one value per
    point of f, and are the derivatives of the Lagrangian W - p (det F - 1):
    the extension and the pressure make the one term -(k + p) (det F - 1).
    """

    def energy(self, f):
        f, d = _require_orientation(f)
        return self.base_energy(f) - self.k * (d - 1.0)

    def stress(self, f, p=0.0):
        """dW/dF - p Cof F."""
        f, _ = _require_orientation(f)
        pk = self.k + np.asarray(p, dtype=float)[..., None, None]
        return self.base_stress(f) - pk * cof(f)

    def elasticity(self, f, p=0.0):
        """C_eff = W_FF - p D^2 det, the moduli the Jacobian is built from.

        C_eff audits as W_FF does: det(F + t a (x) m) is affine in t, so
        D^2 det has a zero rank-one form, and neither the pressure term nor
        the -k D^2 det extension changes the acoustic tensor sym Q(m).
        """
        f, _ = _require_orientation(f)
        pk = self.k + np.asarray(p, dtype=float)[..., None, None]
        return self.base_elasticity(f) - dcof(pk * f)     # dcof is linear


class NeoHookean(MaterialModel):
    """W = (mu/2)(|F|^2 - 3) - k (det F - 1) with k = mu."""

    model_id = "neo-hookean"

    def __init__(self, mu=1.0):
        if not 0 < mu < np.inf:             # NaN fails every comparison
            raise ValueError("need finite mu > 0 (got mu=%r)" % mu)
        self.mu = float(mu)
        self.k = solve_stress_free_k(self)

    def base_energy(self, f):
        return 0.5 * self.mu * (np.einsum('...ij,...ij->...', f, f) - 3.0)

    def base_stress(self, f):
        return self.mu * f

    def base_elasticity(self, f):
        return self.mu * _I4


class MooneyRivlin(MaterialModel):
    """W = c1(|F|^2 - 3) + c2(|Cof F|^2 - 3) - k (det F - 1), k = 2 c1 + 4 c2."""

    model_id = "mooney-rivlin"

    def __init__(self, c1=0.5, c2=0.125):
        if not (0 <= c1 < np.inf and 0 <= c2 < np.inf and c1 + c2 > 0):
            raise ValueError("need finite c1, c2 >= 0 and c1 + c2 > 0 "
                             "(got c1=%r, c2=%r)" % (c1, c2))
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.k = solve_stress_free_k(self)

    def base_energy(self, f):
        sq = np.einsum('...ij,...ij->...', f, f)
        cf = cof(f)
        csq = np.einsum('...ij,...ij->...', cf, cf)
        return self.c1 * (sq - 3.0) + self.c2 * (csq - 3.0)

    def base_stress(self, f):
        # |Cof F|^2 is the second invariant of C = F^T F, whose gradient in F
        # is 2 (|F|^2 F - F F^T F).  In flat 3x3 component arithmetic, as
        # cof and det3 are, on rows x[i] (j, point): row i of the bracket is
        # (|F_j|^2 + |F_k|^2) F_i - (F_i . F_j) F_j - (F_i . F_k) F_k
        x = np.ascontiguousarray(f.reshape(-1, 9).T).reshape(3, 3, -1)
        dot = {(i, k): (x[i] * x[k]).sum(axis=0) for i in range(3) for k in range(3)}
        out = np.empty(x.shape)
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            out[i] = (dot[j, j] + dot[k, k]) * x[i] - dot[i, j] * x[j] - dot[i, k] * x[k]
        return 2.0 * self.c1 * f + 2.0 * self.c2 * out.reshape(9, -1).T.reshape(np.shape(f))

    def base_elasticity(self, f):
        # base_stress differentiated in the direction H: 2 c1 H + 2 c2 times
        # a form bilinear in F, read from F (x) F by one product with _MR_QUAD
        f9 = f.reshape(f.shape[:-2] + (9,))
        quad = (f9[..., :, None] * f9[..., None, :]).reshape(f.shape[:-2] + (81,)) @ _MR_QUAD
        return 2.0 * self.c1 * _I4 + 2.0 * self.c2 * quad.reshape(f.shape + (3, 3))


def solve_stress_free_k(material):
    """Extension constant k making the reference stress vanish.

    The extension contributes -k Cof F to the stress and Cof I = I, so k is
    the isotropic factor of the base stress at the identity.  Closed form:
    mu for neo-Hookean, 2 c1 + 4 c2 for Mooney-Rivlin.
    """
    g = material.base_stress(EYE3)
    k = float(np.trace(g)) / 3.0
    if not np.allclose(g, k * EYE3, atol=1e-12):
        raise ValueError("base stress at identity is not isotropic; no scalar k fixes it")
    return k


def make_material(model_id, **params):
    """Construct a model by id ('neo-hookean' or 'mooney-rivlin')."""
    if model_id == "neo-hookean":
        return NeoHookean(**params)
    if model_id == "mooney-rivlin":
        return MooneyRivlin(**params)
    raise ValueError(f"unknown material model {model_id!r}")


# ---------------------------------------------------------------------------
# random sampling helpers shared by the self-checks and the probes
# ---------------------------------------------------------------------------

def random_rotation(rng):
    """Uniform random rotation from a normalized quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_gl_plus(rng, spread=0.4, min_det=0.1, size=None):
    """Random matrix with det above min_det, sampled as a perturbed identity
    I + spread N(0, 1)^(3x3): one (3, 3), or (size, 3, 3) holding the
    matrices size calls would return, drawn from rng in the same order."""
    if not (np.isfinite(spread) and np.isfinite(min_det)):
        raise ValueError("need finite spread and min_det (got spread=%r, "
                         "min_det=%r)" % (spread, min_det))
    n = 1 if size is None else size
    out, got = np.empty((n, 3, 3)), 0
    while got < n:          # only the candidates still needed: none is wasted
        f = EYE3 + spread * rng.standard_normal((n - got, 3, 3))
        f = f[det3(f) > min_det]
        out[got:got + len(f)] = f
        got += len(f)
    return out[0] if size is None else out


def random_unimodular(rng, spread=0.4, size=None):
    """Random det-1 matrix: a GL+ sample rescaled by det^(-1/3); size as
    random_gl_plus.  Each root is libm's pow on one float, as for one
    matrix: numpy's vectorized pow differs in the last bit on some values."""
    f = random_gl_plus(rng, spread=spread, size=size)
    root = [d ** (1.0 / 3.0) for d in np.ravel(det3(f)).tolist()]
    return f / np.reshape(root, f.shape[:-2] + (1, 1))


@dataclass
class ObjectivityReport:
    max_deviation: float
    trials: int
    tolerance: float
    passed: bool
    worst_rotation: np.ndarray = field(repr=False, default=None)


def verify_objectivity(material, trials, rng=None, tolerance=1e-10):
    """Sample W(QF) - W(F) over random rotations Q and random GL+ F.

    Each trial draws its F, then its Q, from rng; W is evaluated on all
    trials at once.  A NaN deviation is the maximum, and fails.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(0) if rng is None else rng
    f, q = np.empty((2, trials, 3, 3))
    for t in range(trials):
        f[t] = random_gl_plus(rng)
        q[t] = random_rotation(rng)
    dev = np.abs(material.energy(q @ f) - material.energy(f))
    k = int(np.argmax(dev))                 # the first NaN, if any
    worst = float(dev[k])
    return ObjectivityReport(max_deviation=worst, trials=trials,
                             tolerance=tolerance, passed=worst < tolerance,
                             worst_rotation=q[k] if worst else EYE3)
