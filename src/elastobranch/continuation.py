"""Branch tracing: Newton corrector, pseudo-arclength predictor-corrector
loop, and the per-step monitors (injectivity, incompressibility,
ellipticity margins, Jacobian determinant sign).

The loop's first try is the exactly-known solution at lambda = 0; it then
walks toward the target.  Failures halve the step; steps below ds_min, or
a singular Jacobian or a ValueError at an accepted state, stop the trace
with a diagnostic status rather than an exception, so partial branches
always come back with their records.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .assembly import (Discretization, State, LoadProgram, residual, factor_at,
                       _PATTERN, InvertedElementError, SingularMatrixError)
from .ellipticity import audit_state


@dataclass
class ContinuationSettings:
    lam_target: float = 1.0
    ds0: float = 0.05
    ds_min: float = 1e-6
    ds_max: float = 0.25
    newton_tol: float = 1e-11
    newton_max_iter: int = 12
    audit_dirs: int = 32           # direction samples per ellipticity audit

    def validate(self):
        for name in ("lam_target", "ds0", "ds_min", "ds_max", "newton_tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite (got %r)"
                                 % (name, getattr(self, name)))
        if self.lam_target == 0.0:
            raise ValueError("lam_target must be nonzero")
        if not (0.0 < self.ds_min <= self.ds0 <= self.ds_max):
            raise ValueError("need 0 < ds_min <= ds0 <= ds_max")
        if self.newton_tol <= 0.0:
            raise ValueError("Newton tolerance must be positive")
        if self.audit_dirs < 8:
            raise ValueError("need audit_dirs >= 8")
        return self


@dataclass
class BranchRecord:
    lam: float
    norm_u_inf: float
    norm_gradu_inf: float
    norm_p_inf: float
    min_detF: float
    max_det_dev: float
    se_margin: float
    adn_min_abs: float
    jac_det_sign: int
    newton_iters: int
    ds: float

    CSV_COLUMNS = ("lambda", "norm_u_inf", "norm_gradu_inf", "norm_p_inf",
                   "min_detF", "max_det_dev", "se_margin", "adn_min_abs",
                   "jac_det_sign", "newton_iters", "ds")

    def csv_row(self):
        floats = (self.lam, self.norm_u_inf, self.norm_gradu_inf,
                  self.norm_p_inf, self.min_detF, self.max_det_dev,
                  self.se_margin, self.adn_min_abs)
        return ",".join(["%.17g" % v for v in floats]
                        + [str(self.jac_det_sign), str(self.newton_iters),
                           "%.17g" % self.ds])


@dataclass
class NewtonResult:
    state: State
    converged: bool
    iters: int
    residual_norms: List[float]
    anchors: int = 0               # fresh linearizations made


def newton_correct(initial: State, program: LoadProgram, material,
                   disc: Discretization, settings: ContinuationSettings,
                   constraint=None, chord=None):
    """Newton iteration on the equilibrium equations bordered by one row.

    constraint is (t_w, t_lam, ref_state, ds), the row
    t_w . (w - w_ref) + t_lam (lam - lam_ref) = ds that closes the system
    in (w, lambda).  Without one, the row (0, 1, initial, 0) holds lambda
    at its initial value.

    Every step solves z = J0^-1 (-r) on the LU of an anchor's Jacobian J0
    and borders it as Keller does with the anchor's tangent
    t = -J0^-1 F_lambda: dlam = (-r_c - t_w . z) / (t_w . t + t_lam),
    dw = z + t dlam.  Anchored at the iterate itself, this is the Newton
    step of the augmented system [[J, F_lambda], [t_w^T, t_lam]].  A row
    with t_w = 0 that holds at the start keeps lambda bit-exact.

    chord, when given, is (solve, t), the first anchor: the solve of a kept
    LU of an earlier state's Jacobian and that state's tangent.  It is kept
    while its observed contraction q = r_k / r_(k-1) can still reach the
    tolerance within the iteration budget, q < 1 and
    r_k q^(newton_max_iter - k) <= newton_tol.  Without a chord, and from
    the first iterate where it cannot, each iterate re-anchors: it
    linearizes and factors at its own state and solves its tangent.  iters
    counts the steps of both kinds, anchors the fresh linearizations.
    """
    if constraint is None:
        constraint = (np.zeros(disc.n_total), 1.0, initial, 0.0)
    t_w, t_lam, ref, ds = constraint
    state = initial.copy()
    norms = []
    fresh, anchors = chord is None, 0
    for it in range(settings.newton_max_iter + 1):
        r = np.append(residual(state, program, material, disc),
                      t_w @ (state.pack() - ref.pack())
                      + t_lam * (state.lam - ref.lam) - ds)
        rn = float(np.linalg.norm(r))
        norms.append(rn)
        if rn <= settings.newton_tol:
            return NewtonResult(state, True, it, norms, anchors)
        if it == settings.newton_max_iter or not np.isfinite(rn):
            break
        if not fresh and it > 0:
            q = rn / norms[-2]      # q < 1 first: a growing q ** n overflows
            fresh = not (q < 1.0 and rn * q ** (settings.newton_max_iter - it)
                         <= settings.newton_tol)
        if fresh:
            chord = solve = None        # release the last anchor first
            chord, anchors = factor_at(state, program, material, disc)[:2], anchors + 1
        solve, t = chord
        delta = solve(-r[:-1])
        dlam = float(-r[-1] - t_w @ delta) / (t_w @ t + t_lam)
        state = state.with_increment(delta + t * dlam, dlam=dlam)
    return NewtonResult(state, False, settings.newton_max_iter, norms, anchors)


def parity_tracker(records: List[BranchRecord]):
    """Intervals between consecutive records with opposite determinant sign.

    Each event marks a possible singular point; no bifurcation claim is made.
    """
    events = []
    for a, b in zip(records, records[1:]):
        if a.jac_det_sign * b.jac_det_sign < 0:
            events.append((a.lam, b.lam))
    return events


@dataclass
class BranchTrace:
    records: List[BranchRecord]
    status: str                    # 'completed' | 'stall' | 'inverted'
    detail: str
    final_state: Optional[State]


def _make_record(state, program, material, disc, settings, iters, ds):
    """Monitors of a converged state, and its chord: the solve of its
    Jacobian's LU factors and its tangent d w / d lambda.

    One linearization and one factorization (factor_at) serve all three.
    The audit reads the linearization's moduli C_eff = W_FF - p D^2 det,
    which audit as W_FF does (MaterialModel.elasticity).  The factors give
    the determinant sign, their solve of J t = -F_lambda the tangent, and
    the solve is the next step's chord corrector.
    """
    def monitor(gradu, fgrad, detf, moduli):
        audit = audit_state(moduli, fgrad, n_dirs=settings.audit_dirs)
        return dict(
            lam=float(state.lam),   # not np.float64, whose repr names numpy
            norm_u_inf=float(np.abs(state.u).max()) if state.u.size else 0.0,
            norm_gradu_inf=float(np.abs(gradu).max()),
            norm_p_inf=float(np.abs(state.p).max()) if state.p.size else 0.0,
            min_detF=float(detf.min()),
            max_det_dev=float(np.abs(detf - 1.0).max()),
            se_margin=audit.se_margin,
            adn_min_abs=audit.adn_min_abs,
            newton_iters=iters,
            ds=ds)

    solve, tangent, sign, fields = factor_at(state, program, material, disc, monitor)
    return BranchRecord(jac_det_sign=sign, **fields), (solve, tangent)


def _failure(exc):
    """Diagnostic text for an error or failure text that ends a try."""
    if isinstance(exc, SingularMatrixError):
        return "singular Jacobian: %s" % exc
    if isinstance(exc, ValueError):
        return "ValueError: %s" % exc
    return str(exc)


def trace_branch(program: LoadProgram, settings: ContinuationSettings,
                 material, disc: Discretization,
                 on_accept: Optional[Callable] = None):
    """Predictor-corrector walk from (0, 0) toward settings.lam_target.

    The first try is the origin's, w = 0 at lambda = 0 with theta = 0,
    dlambda = 0 and no chord: its row is the fixed-lambda row (0, 1).
    Every later step predicts along the last record's tangent t = dw/dlambda:
    it moves ds along (t, 1) / nrm, nrm = sqrt(theta^2 t.t + 1) with
    theta^2 = 1 / n_total, so that ds^2 = |dw|_rms^2 + dlambda^2, and
    corrects with the arclength row (theta^2 t / nrm, 1 / nrm) anchored at
    that predictor.  The first step, and the approach to a target within
    ds / nrm (within ds in that metric), take theta = 0: they step lambda
    by ds or to the target, and the row holds it exactly.  The corrector
    makes chord steps on the record's LU (see newton_correct), released
    before the next record factors.  A step whose corrector kept that
    chord to convergence (no anchors) grows ds by 1.5, up to ds_max.
    A failed try halves ds (the origin's is 0); below ds_min the trace
    ends 'inverted' after an InvertedElementError, else 'stall', as it
    does when a record fails.  Accepted steps go to on_accept(state, record).
    """
    settings.validate()
    program.validate()
    try:
        direction = 1.0 if settings.lam_target > 0 else -1.0
        target = settings.lam_target

        state, chord, records, ds = State.zero(disc), None, [], 0.0
        while not records or direction * (target - state.lam) > 1e-14:
            tangent = chord[1] if chord else np.zeros(disc.n_total)
            theta2 = 1.0 / disc.n_total     # ds^2 = |dw|_rms^2 + dlam^2
            nrm = np.sqrt(theta2 * (tangent @ tangent) + 1.0)
            if len(records) < 2 or abs(target - state.lam) <= ds / nrm:
                theta2, nrm = 0.0, 1.0
            dlam = direction * min(ds, abs(target - state.lam)) / nrm
            failure = None      # set on every failed try
            try:
                pred = state.with_increment(tangent * dlam, dlam=dlam)
                res = newton_correct(pred, program, material, disc, settings,
                                     constraint=(theta2 * tangent / nrm, 1.0 / nrm,
                                                 pred, 0.0), chord=chord)
                if not res.converged:
                    failure = "Newton non-convergence"
                elif res.state.lam * direction > abs(target) + 1e-12:
                    failure = "arclength overshoot"     # retry smaller
            except (InvertedElementError, SingularMatrixError, ValueError) as exc:
                failure = exc

            if failure is not None:
                ds *= 0.5
                if ds < settings.ds_min:
                    inverted = isinstance(failure, InvertedElementError)
                    return BranchTrace(records, 'inverted' if inverted else 'stall',
                                       "step underflow at lambda=%.6g after: %s"
                                       % (state.lam, _failure(failure)), state)
                continue

            state, chord = res.state, None  # release the old LU before the record factors
            try:
                rec, chord = _make_record(state, program, material, disc,
                                          settings, res.iters, ds)
            except (SingularMatrixError, ValueError) as exc:
                return BranchTrace(records, 'stall', "at lambda=%.6g: %s"
                                   % (state.lam, _failure(exc)), state)
            records.append(rec)
            if on_accept:
                on_accept(state, rec)
            if len(records) == 1:       # the origin: the first step takes ds0
                ds = settings.ds0
            elif res.anchors == 0:      # the record's chord converged alone
                ds = min(ds * 1.5, settings.ds_max)
        return BranchTrace(records, 'completed', "reached lambda=%.6g" % state.lam,
                           state)
    finally:     # a caller that keeps disc would keep J's structure too
        _PATTERN.clear()
