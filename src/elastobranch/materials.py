"""Isochoric stored-energy models extended to all of GL+ with analytic derivatives.

Each model is an invariant law W0 = w1 (|F|^2 - 3) + w2 (|Cof F|^2 - 3) plus
a -k (det F - 1) extension; MaterialModel forms W and its derivatives from
the constants (w1, w2) by one chain rule.  The extension vanishes on det F = 1,
so the incompressible physics is unchanged, and k = 2 w1 + 4 w2 makes the
reference exactly stress free.  Energies are evaluated on batches of (..., 3, 3).
"""

from dataclasses import dataclass, field

import numpy as np

from .tensor import EYE3, cof, dcof, det3, identity4

_I4 = identity4()


# row (a, b, c, d): the coefficient of F_ab F_cd in each entry ijkl of DG[H] =
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
    """W = w1 (I1 - 3) + w2 (I2 - 3) - k (det F - 1), I1 = |F|^2, I2 = |Cof F|^2.

    A law passes its invariant derivatives w1 and w2 to __init__.  With
    G = I1 F - F F^T F = (1/2) dI2/dF the chain rule (Ogden, Non-linear
    Elastic Deformations, 1984) gives dW0/dF = 2 w1 F + 2 w2 G; G(I) = 2 I
    and Cof I = I, so k = 2 w1 + 4 w2 makes S(I) = 0 exactly.  Each w2 term
    is skipped when w2 = 0.  stress and elasticity take the pressure p, a
    scalar or one value per point of f, and are the derivatives of the
    Lagrangian W - p (det F - 1): the extension and the pressure make the
    one term -(k + p) (det F - 1).
    """

    def __init__(self, w1, w2):
        self.w1, self.w2, self.k = w1, w2, 2.0 * w1 + 4.0 * w2

    def energy(self, f):
        f, d = _require_orientation(f)
        w = self.w1 * (np.einsum('...ij,...ij->...', f, f) - 3.0)
        if self.w2:
            cf = cof(f)
            w = w + self.w2 * (np.einsum('...ij,...ij->...', cf, cf) - 3.0)
        return w - self.k * (d - 1.0)

    def stress(self, f, p=0.0):
        """dW/dF - p Cof F = 2 w1 F + 2 w2 G - (k + p) Cof F."""
        f, _ = _require_orientation(f)
        pk = self.k + np.asarray(p, dtype=float)[..., None, None]
        s = 2.0 * self.w1 * f
        if self.w2:
            # G in flat component arithmetic, as cof is, on rows x[i] (j, point):
            # (|F_j|^2 + |F_k|^2) F_i - (F_i . F_j) F_j - (F_i . F_k) F_k
            x = np.ascontiguousarray(f.reshape(-1, 9).T).reshape(3, 3, -1)
            dot = {(i, k): (x[i] * x[k]).sum(axis=0) for i in range(3) for k in range(3)}
            g = np.empty(x.shape)
            for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
                g[i] = (dot[j, j] + dot[k, k]) * x[i] - dot[i, j] * x[j] - dot[i, k] * x[k]
            s = s + 2.0 * self.w2 * g.reshape(9, -1).T.reshape(f.shape)
        return s - pk * cof(f)

    def elasticity(self, f, p=0.0):
        """C_eff = W_FF - p D^2 det = 2 w1 I4 + 2 w2 DG - dcof((k + p) F), the
        Jacobian's moduli; DG is F (x) F times _MR_QUAD.  C_eff audits as W_FF
        does: det(F + t a (x) m) is affine in t, so D^2 det has a zero rank-one
        form, and neither the pressure nor the extension changes sym Q(m).
        """
        f, _ = _require_orientation(f)
        pk = self.k + np.asarray(p, dtype=float)[..., None, None]
        c = 2.0 * self.w1 * _I4
        if self.w2:     # formed inline: the (..., 81) product goes before dcof
            f9 = f.reshape(f.shape[:-2] + (9,))
            c = c + 2.0 * self.w2 * ((f9[..., :, None] * f9[..., None, :]).reshape(
                f.shape[:-2] + (81,)) @ _MR_QUAD).reshape(f.shape + (3, 3))
        return c - dcof(pk * f)     # dcof is linear


class NeoHookean(MaterialModel):
    """W = (mu/2)(|F|^2 - 3) - k (det F - 1): w1 = mu/2, w2 = 0, k = mu."""

    model_id = "neo-hookean"

    def __init__(self, mu=1.0):
        if not 0 < mu < np.inf:             # NaN fails every comparison
            raise ValueError("need finite mu > 0 (got mu=%r)" % mu)
        self.mu = float(mu)
        super().__init__(0.5 * self.mu, 0.0)


class MooneyRivlin(MaterialModel):
    """W = c1(|F|^2 - 3) + c2(|Cof F|^2 - 3) - k (det F - 1), k = 2 c1 + 4 c2."""

    model_id = "mooney-rivlin"

    def __init__(self, c1=0.5, c2=0.125):
        if not (0 <= c1 < np.inf and 0 <= c2 < np.inf and c1 + c2 > 0):
            raise ValueError("need finite c1, c2 >= 0 and c1 + c2 > 0 "
                             "(got c1=%r, c2=%r)" % (c1, c2))
        self.c1, self.c2 = float(c1), float(c2)
        super().__init__(self.c1, self.c2)


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


_DRY_ROUNDS = 1000      # rounds in a row that accept no draw: random_gl_plus gives up


def random_gl_plus(rng, spread=0.4, min_det=0.1, size=None):
    """Random matrix with det above min_det, sampled as a perturbed identity
    I + spread N(0, 1)^(3x3): one (3, 3), or (size, 3, 3) holding the
    matrices size calls would return, drawn from rng in the same order."""
    if not (np.isfinite(spread) and np.isfinite(min_det)):
        raise ValueError("need finite spread and min_det (got spread=%r, "
                         "min_det=%r)" % (spread, min_det))
    n = 1 if size is None else size
    out, got, dry = np.empty((n, 3, 3)), 0, 0
    while got < n:          # only the candidates still needed: none is wasted
        if dry == _DRY_ROUNDS:      # spread 0 and min_det >= 1, say
            raise ValueError("no draw passed det > %r in %d rounds at spread=%r"
                             % (min_det, dry, spread))
        f = EYE3 + spread * rng.standard_normal((n - got, 3, 3))
        f = f[det3(f) > min_det]
        out[got:got + len(f)] = f
        got, dry = got + len(f), 0 if len(f) else dry + 1
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
