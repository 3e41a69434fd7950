import os
import sys
import weakref

import numpy as np
import pytest

from elastobranch import assembly, continuation
from elastobranch.assembly import (Discretization, InvertedElementError,
                                   LoadProgram, SingularMatrixError, State,
                                   _kinematics, jacobian, residual,
                                   residual_dlam)
from elastobranch.continuation import (BranchRecord, ContinuationSettings,
                                       newton_correct, parity_tracker,
                                       trace_branch)
from elastobranch.ellipticity import audit_state
from elastobranch.materials import MooneyRivlin, NeoHookean
from elastobranch.mesh import build_box_mesh
from elastobranch.probes import uniqueness_probe
from elastobranch.runner import RunConfig


def _disc(n=2):
    return Discretization(build_box_mesh((1.0, 1.0, 1.0), (n, n, n)))


def _ramped_dead_load(scale=3.0):
    # transverse magnitude ramp keeps the dead load non-conservative, so
    # the displacement response is genuinely first order in lambda
    return LoadProgram(b_family='dead', b_scale=scale,
                       b_direction=np.array([1.0, 0.0, 0.0]),
                       b_ramp=np.array([0.0, 2.0, 0.0]))


def test_settings_validation():
    ContinuationSettings().validate()
    with pytest.raises(ValueError):
        ContinuationSettings(ds_min=0.5, ds0=0.1).validate()
    with pytest.raises(ValueError):
        ContinuationSettings(newton_tol=0.0).validate()
    with pytest.raises(TypeError):     # every trace is pseudo-arclength
        ContinuationSettings(mode='natural')
    with pytest.raises(ValueError):
        ContinuationSettings(audit_dirs=4).validate()
    with pytest.raises(ValueError):
        trace_branch(LoadProgram(), ContinuationSettings(lam_target=0.0),
                     NeoHookean(), _disc())


def test_newton_converges_instantly_at_origin():
    disc = _disc()
    res = newton_correct(State.zero(disc), LoadProgram(), NeoHookean(), disc,
                         ContinuationSettings())
    assert res.converged
    assert res.iters == 0
    assert res.residual_norms == [0.0]


def test_newton_quadratic_decay_on_loaded_step():
    disc = _disc()
    prog = _ramped_dead_load()
    start = State.zero(disc, lam=0.05)
    res = newton_correct(start, prog, NeoHookean(), disc,
                         ContinuationSettings(newton_tol=1e-11))
    assert res.converged
    assert res.iters <= 5
    norms = res.residual_norms
    assert all(b < a for a, b in zip(norms, norms[1:]))
    # second correction is quadratic in the first
    assert norms[2] < norms[1] ** 1.8
    assert norms[-1] <= 1e-11


def test_branch_record_csv_row_shape():
    rec = BranchRecord(lam=0.125, norm_u_inf=1e-3, norm_gradu_inf=2e-3,
                       norm_p_inf=3e-3, min_detF=1.0, max_det_dev=1e-15,
                       se_margin=0.99, adn_min_abs=0.5, jac_det_sign=-1,
                       newton_iters=2, ds=0.05)
    parts = rec.csv_row().split(",")
    assert len(parts) == len(BranchRecord.CSV_COLUMNS)
    assert float(parts[0]) == 0.125
    assert parts[8] == "-1"
    assert parts[9] == "2"


def test_trace_homogeneous_shear_branch():
    """The pure-shear program has the exact solution u = 0 at every lambda;
    the trace must stay on it to round-off with clean monitors."""
    disc = _disc()
    settings = ContinuationSettings(lam_target=1.0, ds0=0.2, ds_max=0.3,
                                    audit_dirs=16)
    trace = trace_branch(LoadProgram(a_family='shear', a_rate=1.0), settings,
                         NeoHookean(), disc)
    assert trace.status == 'completed'
    recs = trace.records
    assert recs[0].lam == 0.0
    assert recs[0].ds == 0.0
    assert abs(recs[-1].lam - 1.0) < 1e-12
    assert all(b.lam > a.lam for a, b in zip(recs, recs[1:]))
    assert max(r.norm_u_inf for r in recs) < 1e-10
    assert max(r.norm_p_inf for r in recs) < 1e-10
    assert max(r.max_det_dev for r in recs) < 1e-12
    assert max(r.ds for r in recs) <= settings.ds_max + 1e-15
    assert parity_tracker(recs) == []


def test_shear_steps_move_lambda_by_exactly_ds():
    """On the exact shear branch the tangent is round-off, so nrm = 1:
    every step, arclength or not, moves lambda by exactly its record's ds,
    and the last one lands exactly on the target (shear.ini's settings)."""
    disc = _disc()
    settings = ContinuationSettings(lam_target=1.0, ds0=0.2, ds_max=0.25,
                                    audit_dirs=8)
    trace = trace_branch(LoadProgram(a_family='shear', a_rate=1.0), settings,
                         NeoHookean(), disc)
    assert trace.status == 'completed'
    recs = trace.records
    assert [r.lam for r in recs] == [0.0, 0.2, 0.45, 0.7, 0.95, 1.0]
    for a, b in zip(recs[:-1], recs[1:-1]):
        assert b.lam == a.lam + b.ds
    assert recs[-1].lam == settings.lam_target
    assert recs[-1].lam - recs[-2].lam < recs[-1].ds


def test_trace_streams_accepted_steps():
    disc = _disc()
    seen, states = [], []

    def on_accept(state, record):
        seen.append((state.lam, record.lam))
        states.append(state.copy())

    settings = ContinuationSettings(lam_target=0.3, ds0=0.1, audit_dirs=16)
    trace = trace_branch(LoadProgram(a_family='shear'), settings,
                         NeoHookean(), disc, on_accept=on_accept)
    assert trace.status == 'completed'
    assert len(seen) == len(trace.records)
    assert all(abs(a - b) < 1e-15 for a, b in seen)
    assert len(states) == len(trace.records)
    assert trace.final_state is states[-1] or \
        trace.final_state.lam == states[-1].lam


def test_trace_arclength_mode_completes():
    disc = _disc()
    settings = ContinuationSettings(lam_target=0.5, ds0=0.1, ds_max=0.2,
                                    audit_dirs=16)
    trace = trace_branch(_ramped_dead_load(), settings, NeoHookean(), disc)
    assert trace.status == 'completed'
    lams = [r.lam for r in trace.records]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert abs(lams[-1] - 0.5) < 1e-10
    assert disc not in assembly._PATTERN    # J's structure ends with the trace


def test_trace_negative_direction():
    disc = _disc()
    settings = ContinuationSettings(lam_target=-0.4, ds0=0.2, audit_dirs=16)
    trace = trace_branch(LoadProgram(a_family='shear'), settings,
                         NeoHookean(), disc)
    assert trace.status == 'completed'
    assert abs(trace.records[-1].lam + 0.4) < 1e-12


def test_trace_reports_stall_without_raising():
    disc = _disc()
    settings = ContinuationSettings(lam_target=1.0, ds0=0.05, ds_min=0.02,
                                    newton_max_iter=0, audit_dirs=16)
    trace = trace_branch(_ramped_dead_load(), settings, NeoHookean(), disc)
    assert trace.status == 'stall'
    assert len(trace.records) == 1
    assert "underflow" in trace.detail
    assert trace.final_state is not None
    assert disc not in assembly._PATTERN


def test_origin_non_convergence_stalls_without_records(monkeypatch):
    """The origin is the trace's first try: a residual that stays above the
    tolerance at lambda = 0 fails it, and the trace stalls at once with no
    records instead of raising; its final state is the state it tried."""
    real = continuation.residual

    def fake(state, program, material, disc):
        r = real(state, program, material, disc)
        return np.full_like(r, 1e-9) if state.lam == 0.0 else r

    monkeypatch.setattr(continuation, "residual", fake)
    accepted = []
    trace = trace_branch(LoadProgram(a_family='shear'),
                         ContinuationSettings(audit_dirs=8), NeoHookean(),
                         _disc(), on_accept=lambda s, r: accepted.append(r))
    assert trace.status == 'stall'
    assert trace.records == [] and accepted == []
    assert trace.detail == ("step underflow at lambda=0 after: "
                            "Newton non-convergence")
    assert trace.final_state.lam == 0.0
    assert not trace.final_state.pack().any()


def test_record_lambdas_are_python_floats():
    """An arclength step's lambda is computed in numpy; the record holds a
    float, so a parity event prints as plain numbers."""
    settings = ContinuationSettings(lam_target=0.5, ds0=0.05, ds_max=0.2,
                                    audit_dirs=8)
    trace = trace_branch(_ramped_dead_load(), settings, NeoHookean(), _disc())
    assert len(trace.records) > 2
    assert all(type(r.lam) is float for r in trace.records)


def test_trace_reports_inversion_without_raising():
    """The fifty-fold dead load of demos/dead_load_branch.py, with its
    settings: the trace follows the branch past the origin until det F
    nears zero, then ends 'inverted' instead of raising."""
    disc = _disc()
    settings = ContinuationSettings(lam_target=50.0, ds0=0.1, ds_min=1e-3,
                                    ds_max=4.0, newton_max_iter=8,
                                    audit_dirs=16)
    trace = trace_branch(_ramped_dead_load(scale=50.0), settings,
                         NeoHookean(), disc)
    assert trace.status == 'inverted'
    assert "inverted" in trace.detail
    assert len(trace.records) > 1
    assert trace.records[-1].min_detF < 0.05
    assert disc not in assembly._PATTERN


def _newton_calls(monkeypatch):
    """Collect the keyword arguments and the NewtonResult of every
    newton_correct call of a trace."""
    real, calls = continuation.newton_correct, []

    def newton(*args, **kwargs):
        calls.append((kwargs, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(continuation, "newton_correct", newton)
    return calls


def _assert_growth_rule(trace, calls, settings):
    """With no failed try, each Newton call after the origin's accepts one
    record, and the next record's ds is 1.5 times its own, up to ds_max,
    exactly when its corrector made no fresh linearization."""
    recs = trace.records
    assert len(calls) == len(recs)
    for (_, res), a, b in zip(calls[1:], recs[1:], recs[2:]):
        grown = min(a.ds * 1.5, settings.ds_max)
        assert b.ds == (grown if res.anchors == 0 else a.ds)


def test_step_grows_after_every_chord_only_step(monkeypatch):
    """dead_load.ini's settings on 2^3: every corrector converges on the
    record's chord alone, so ds grows by 1.5 at every step up to ds_max."""
    calls = _newton_calls(monkeypatch)
    settings = ContinuationSettings(lam_target=0.5, ds0=0.05, ds_max=0.2,
                                    audit_dirs=8)
    trace = trace_branch(_ramped_dead_load(), settings, NeoHookean(), _disc())
    assert trace.status == 'completed'
    assert all(res.anchors == 0 for _, res in calls[1:])
    _assert_growth_rule(trace, calls, settings)
    assert [r.ds for r in trace.records[1:4]] == [0.05, 0.05 * 1.5,
                                                  0.05 * 1.5 * 1.5]
    assert trace.records[-1].ds == settings.ds_max


def test_reanchored_step_does_not_grow(monkeypatch):
    """A first step of ds0 = 1 meets the slow chord of
    test_slow_chord_falls_back_to_fresh_linearizations: its corrector
    re-anchors three times, and the next step keeps ds = 1."""
    calls = _newton_calls(monkeypatch)
    settings = ContinuationSettings(lam_target=2.0, ds0=1.0, ds_max=1.5,
                                    audit_dirs=8)
    trace = trace_branch(_ramped_dead_load(), settings, NeoHookean(), _disc())
    assert trace.status == 'completed'
    assert calls[1][1].anchors == 3
    _assert_growth_rule(trace, calls, settings)
    assert trace.records[2].ds == trace.records[1].ds == settings.ds0


def test_approach_to_the_target_is_measured_in_the_metric(monkeypatch):
    """A step lands on the target (theta = 0, lambda moved to the target)
    exactly when the target lies within ds / nrm, that is within ds in the
    RMS metric.  With lam_target = 0.55 on 2^3 one step starts between
    ds / nrm and ds from the target, and is an arclength step."""
    calls = _newton_calls(monkeypatch)
    disc = _disc()
    settings = ContinuationSettings(lam_target=0.55, ds0=0.05, ds_max=0.2,
                                    audit_dirs=8)
    trace = trace_branch(_ramped_dead_load(), settings, NeoHookean(), disc)
    recs = trace.records
    assert trace.status == 'completed'
    assert recs[-1].lam == settings.lam_target
    assert len(calls) == len(recs)
    between = 0
    for (kwargs, _), a, b in zip(calls[2:], recs[1:], recs[2:]):
        t = kwargs["chord"][1]
        nrm = np.sqrt(t @ t / disc.n_total + 1.0)
        left = settings.lam_target - a.lam
        landing = not kwargs["constraint"][0].any()
        assert landing == (left <= b.ds / nrm)
        assert landing == (b.lam == settings.lam_target)
        between += b.ds / nrm < left <= b.ds
    assert between >= 1


def test_dead_load_demo_reaches_its_target_in_six_records():
    """The shipped dead_load.ini problem, traced to lambda = 0.5: the RMS
    metric moves lambda by most of ds, so six records reach the target."""
    cfg = RunConfig.from_file(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "demos", "configs",
                                           "dead_load.ini"))
    disc = Discretization(build_box_mesh(cfg["mesh", "extent"],
                                         cfg["mesh", "divisions"]))
    trace = trace_branch(cfg.program(), cfg.settings(), cfg.material(), disc)
    assert trace.status == 'completed'
    assert trace.records[-1].lam == 0.5
    assert len(trace.records) <= 6


def test_first_order_response_matches_origin_tangent():
    """Near lambda = 0 the branch is tangent to the linearized solution:
    max|u(lam) - lam u_lin| is second order in lam."""
    from elastobranch.assembly import jacobian, residual_dlam, solve_bordered

    disc = _disc()
    mat = NeoHookean(mu=1.0)
    prog = _ramped_dead_load()
    j = jacobian(State.zero(disc), prog, mat, disc)
    f_lam = residual_dlam(State.zero(disc), prog, mat, disc)
    t, _ = solve_bordered(j, -f_lam, assembly._pattern(disc)[0])
    u_lin = t[:disc.n_u]
    assert np.abs(u_lin).max() > 1e-4

    ratios = []
    for lam in (1e-3, 5e-4):
        settings = ContinuationSettings(lam_target=lam, ds0=lam,
                                        audit_dirs=16)
        trace = trace_branch(prog, settings, mat, disc)
        assert trace.status == 'completed'
        u = trace.final_state.u
        ratios.append(np.abs(u - lam * u_lin).max() / lam ** 2)
    assert abs(ratios[0] - ratios[1]) < 0.5 * max(ratios)


def test_injectivity_monitor_on_states():
    """The record's min det(A + grad u) is the orientation certificate; a
    folded state is stopped by the assembly guard before it is recorded."""
    disc = _disc()
    prog = LoadProgram(a_family='shear')
    mat = NeoHookean()
    good = State(lam=0.5, u=np.zeros(disc.n_u), p=np.zeros(disc.n_p))
    rec, _ = continuation._make_record(good, prog, mat, disc,
                                       ContinuationSettings(), 0, 0.0)
    assert abs(rec.min_detF - 1.0) < 1e-12

    folded = State(lam=0.0, u=np.full(disc.n_u, 5.0), p=np.zeros(disc.n_p))
    with pytest.raises(InvertedElementError) as exc:
        residual(folded, prog, mat, disc)
    assert exc.value.min_det <= 0.0


def test_incompressibility_monitor():
    disc = _disc()
    prog = LoadProgram(a_family='shear')
    mat = NeoHookean()
    settings = ContinuationSettings()
    zero = State(lam=0.7, u=np.zeros(disc.n_u), p=np.zeros(disc.n_p))
    rec, _ = continuation._make_record(zero, prog, mat, disc, settings, 0, 0.0)
    assert rec.max_det_dev < 1e-12
    rng = np.random.default_rng(0)
    bent = State(lam=0.0, u=1e-2 * rng.standard_normal(disc.n_u),
                 p=np.zeros(disc.n_p))
    rec, _ = continuation._make_record(bent, prog, mat, disc, settings, 0, 0.0)
    assert rec.max_det_dev > 1e-6


def test_parity_tracker_event_intervals():
    def rec(lam, sign):
        return BranchRecord(lam=lam, norm_u_inf=0, norm_gradu_inf=0,
                            norm_p_inf=0, min_detF=1, max_det_dev=0,
                            se_margin=1, adn_min_abs=1, jac_det_sign=sign,
                            newton_iters=1, ds=0.1)

    recs = [rec(0.0, 1), rec(0.1, 1), rec(0.2, -1), rec(0.3, 1)]
    assert parity_tracker(recs) == [(0.1, 0.2), (0.2, 0.3)]
    assert parity_tracker(recs[:2]) == []


def singular_at_record(monkeypatch, from_call):
    """Make the record-time factorization (the factor_at call _make_record
    makes for the sign, the tangent and the chord corrector) raise
    SingularMatrixError from its from_call-th call on."""
    real = continuation.factor_at
    calls = [0]

    def fake(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_make_record":
            calls[0] += 1
            if calls[0] >= from_call:
                raise SingularMatrixError("zero pivot at position 0")
        return real(*args, **kwargs)

    monkeypatch.setattr(continuation, "factor_at", fake)


@pytest.mark.parametrize("from_call, kept", [(1, 0), (3, 2)])
def test_trace_returns_stall_on_singular_jacobian_at_record(monkeypatch,
                                                            from_call, kept):
    singular_at_record(monkeypatch, from_call)
    settings = ContinuationSettings(lam_target=1.0, ds0=0.2, audit_dirs=8)
    trace = trace_branch(LoadProgram(a_family='shear'), settings,
                         NeoHookean(), _disc())
    assert trace.status == 'stall'
    assert len(trace.records) == kept
    assert "singular Jacobian" in trace.detail
    assert trace.final_state is not None


def _factoring_paths(disc):
    """A trace's records, one fresh Newton solve and the uniqueness probe,
    each on disc, by the names of their factoring paths."""
    start = State.zero(disc).with_increment(
        1e-3 * np.random.default_rng(1).standard_normal(disc.n_total))
    return {
        "trace": lambda: trace_branch(
            LoadProgram(a_family='shear'),
            ContinuationSettings(lam_target=0.4, ds0=0.2, audit_dirs=8),
            NeoHookean(), disc).status == 'completed',
        "newton": lambda: newton_correct(
            start, LoadProgram(), NeoHookean(), disc, ContinuationSettings(),
            chord=None).converged,
        "uniqueness": lambda: uniqueness_probe(
            NeoHookean(), disc, n_starts=2, start_radius=0.02).passed,
    }


@pytest.mark.parametrize("path", ["trace", "newton", "uniqueness"])
def test_each_factored_matrix_is_released_before_its_pivots_are_read(
        monkeypatch, path):
    """The point fields grad u, F, det F and C_eff go before J is factored,
    and J goes once its fronts are: on every path that factors, no point
    field linearize returned is alive when J is scattered into the fronts,
    and neither J nor its data when the elimination starts, nor when its
    solve is first called (the tangent)."""
    real_scatter, real, real_linearize = (assembly._scatter, assembly._multifrontal,
                                          assembly.linearize)
    given, live, refs = [], [], []

    def scatter(matrix, *args, **kwargs):
        live.append(sum(ref() is not None for fields in given for ref in fields))
        refs[:] = [weakref.ref(matrix), weakref.ref(matrix.data)]
        return real_scatter(matrix, *args, **kwargs)

    def spy(*args, **kwargs):
        live.append(sum(ref() is not None for ref in refs))
        solve, info = real(*args, **kwargs)
        seen = list(refs)

        def first_solve(rhs):
            if seen:
                live.append(sum(ref() is not None for ref in seen))
                seen.clear()
            return solve(rhs)
        return first_solve, info

    def linearize(*args):
        out = real_linearize(*args)
        given.append(tuple(weakref.ref(field) for field in out[2:]))
        return out

    run = _factoring_paths(_disc())[path]
    monkeypatch.setattr(assembly, "_scatter", scatter)
    monkeypatch.setattr(assembly, "_multifrontal", spy)
    monkeypatch.setattr(assembly, "linearize", linearize)
    assert run()
    assert len(live) >= 3 and len(given) == len(live) // 3
    assert live == [0] * len(live)


@pytest.mark.parametrize("mode", ["natural", "arclength"])
@pytest.mark.parametrize("fault", ["nan", "value_error"])
def test_faulty_residual_fails_the_step_without_raising(monkeypatch, mode,
                                                        fault):
    """A residual that is NaN, or raises ValueError, over a lambda-interval
    fails every step into it: the trace returns a status, and no record
    holds a NaN or lies in the interval.  mode names the kind of step that
    meets the interval: from the origin every try is a theta = 0 step at
    fixed lambda ("natural"), from lambda = 0.3 on an arclength step."""
    lo = {"natural": 0.0, "arclength": 0.3}[mode]
    real = continuation.residual
    hits = [0]

    def fake(state, program, material, disc):
        r = real(state, program, material, disc)
        if lo < state.lam < 0.6:
            hits[0] += 1
            if fault == "value_error":
                raise ValueError("residual undefined at lambda=%g" % state.lam)
            return np.full_like(r, np.nan)
        return r

    monkeypatch.setattr(continuation, "residual", fake)
    settings = ContinuationSettings(lam_target=1.0, ds0=0.1, ds_min=1e-3,
                                    audit_dirs=8)
    trace = trace_branch(_ramped_dead_load(), settings, NeoHookean(), _disc())
    assert hits[0] > 0
    assert trace.status == 'stall'
    assert "step underflow" in trace.detail
    if fault == "value_error":
        assert "ValueError: residual undefined" in trace.detail
    else:       # Newton stops at the NaN, before a Jacobian of NaN states
        assert "Newton non-convergence" in trace.detail
    if mode == "natural":
        assert [r.lam for r in trace.records] == [0.0]
    else:
        assert len(trace.records) >= 3
    assert all(r.lam <= lo for r in trace.records)
    rows = np.array([[float(v) for v in r.csv_row().split(",")]
                     for r in trace.records])
    assert np.isfinite(rows).all()


def test_accepted_step_clears_the_last_failure(monkeypatch):
    """An inversion that a smaller retry gets past is not the reason for a
    later underflow: the detail names the failure that ended the trace."""
    real = continuation.residual
    inverted = [False]

    def fake(state, program, material, disc):
        if abs(state.lam - 0.2) < 1e-12 and not inverted[0]:
            inverted[0] = True
            raise InvertedElementError(0, state.lam, -0.1)
        r = real(state, program, material, disc)
        return np.full_like(r, np.nan) if state.lam > 0.45 else r

    monkeypatch.setattr(continuation, "residual", fake)
    settings = ContinuationSettings(lam_target=1.0, ds0=0.2, ds_min=1e-3,
                                    audit_dirs=8)
    trace = trace_branch(LoadProgram(a_family='shear'), settings,
                         NeoHookean(), _disc())
    assert inverted[0]
    assert trace.records[1].lam < 0.2
    assert trace.status == 'stall'
    assert "Newton non-convergence" in trace.detail
    assert "inverted" not in trace.detail


def test_underflow_reports_the_last_failed_try(monkeypatch):
    """A try that inverts an element, followed by tries that do not
    converge until ds underflows: the trace stalls, and its detail names
    the non-convergence, not the earlier inversion."""
    real, calls = continuation.newton_correct, [0]

    def fake(initial, program, material, disc, settings, **kwargs):
        calls[0] += 1
        if calls[0] == 1:                   # the origin solve
            return real(initial, program, material, disc, settings, **kwargs)
        if calls[0] == 2:
            raise InvertedElementError(0, initial.lam, -0.1)
        return continuation.NewtonResult(initial, False,
                                         settings.newton_max_iter, [1.0])

    monkeypatch.setattr(continuation, "newton_correct", fake)
    settings = ContinuationSettings(lam_target=1.0, ds0=0.1, ds_min=0.02,
                                    audit_dirs=8)
    trace = trace_branch(LoadProgram(a_family='shear'), settings,
                         NeoHookean(), _disc())
    assert calls[0] > 3
    assert len(trace.records) == 1
    assert trace.status == 'stall'
    assert "Newton non-convergence" in trace.detail
    assert "inverted" not in trace.detail


def _count_factorizations(monkeypatch):
    """Count LU factorizations, the steps inside newton_correct (each
    residual norm after the first follows one step) and, of those, the
    fresh ones: the re-anchoring linearizations (assembly.linearize, which
    factor_at calls) made inside it, and the sum of the anchors its
    results report."""
    real_lu, real_newton = assembly._multifrontal, continuation.newton_correct
    real_linearize = assembly.linearize
    counts = {"lu": 0, "newton": 0, "fresh": 0, "anchors": 0}
    inside = [False]

    def lu(*args, **kwargs):
        counts["lu"] += 1
        return real_lu(*args, **kwargs)

    def linearize(*args, **kwargs):
        if inside[0]:
            counts["fresh"] += 1
        return real_linearize(*args, **kwargs)

    def newton(*args, **kwargs):
        inside[0] = True
        try:
            res = real_newton(*args, **kwargs)
        finally:
            inside[0] = False
        counts["newton"] += len(res.residual_norms) - 1
        counts["anchors"] += res.anchors
        return res

    monkeypatch.setattr(assembly, "_multifrontal", lu)
    monkeypatch.setattr(assembly, "linearize", linearize)
    monkeypatch.setattr(continuation, "newton_correct", newton)
    return counts


def test_one_factorization_per_accepted_state(monkeypatch):
    """The record's LU gives the sign, the next predictor and the chord
    corrector, so a trace factors once per record and once per fresh step
    after a slow chord step, and no more."""
    counts = _count_factorizations(monkeypatch)
    trace = trace_branch(LoadProgram(a_family='shear'),
                         ContinuationSettings(lam_target=1.0, ds0=0.2,
                                              audit_dirs=8),
                         NeoHookean(), _disc())
    assert trace.status == 'completed'
    assert counts["newton"] == 0
    assert counts["lu"] == len(trace.records)

    counts = _count_factorizations(monkeypatch)
    trace = trace_branch(_ramped_dead_load(),
                         ContinuationSettings(lam_target=0.5, ds0=0.1,
                                              ds_max=0.2, audit_dirs=8),
                         NeoHookean(), _disc())
    assert trace.status == 'completed'
    assert counts["newton"] > 4 * counts["fresh"]
    assert counts["lu"] == len(trace.records) + counts["fresh"]
    assert counts["anchors"] == counts["fresh"]

    # a first step of ds0 = 1 re-anchors: each anchor factors once more
    counts = _count_factorizations(monkeypatch)
    trace = trace_branch(_ramped_dead_load(),
                         ContinuationSettings(lam_target=2.0, ds0=1.0,
                                              ds_max=1.5, audit_dirs=8),
                         NeoHookean(), _disc())
    assert trace.status == 'completed'
    assert counts["lu"] == len(trace.records) + counts["fresh"]
    assert counts["anchors"] == counts["fresh"] > 0


def test_one_moduli_evaluation_per_accepted_state(monkeypatch):
    """The record audits the moduli its linearization built, so a trace
    evaluates material.elasticity once per record and once per fresh
    linearization after a slow chord step, and no more."""
    cases = [(LoadProgram(a_family='shear'),
              ContinuationSettings(lam_target=1.0, ds0=0.2, audit_dirs=8)),
             (_ramped_dead_load(),
              ContinuationSettings(lam_target=0.5, ds0=0.1, ds_max=0.2,
                                   audit_dirs=8))]
    for prog, settings in cases:
        mat = NeoHookean()
        real, calls = mat.elasticity, [0]

        def elasticity(f, *p):
            calls[0] += 1
            return real(f, *p)

        monkeypatch.setattr(mat, "elasticity", elasticity)
        counts = _count_factorizations(monkeypatch)
        trace = trace_branch(prog, settings, mat, _disc())
        assert trace.status == 'completed'
        assert len(trace.records) > 2
        assert calls[0] == len(trace.records) + counts["fresh"]


def test_record_monitors_are_the_direct_audit():
    """The record reads grad u, det F and the moduli W_FF - p D^2 det from
    its linearization; its monitors equal those of the kinematics and the
    audit of W_FF, the audit to round-off since D^2 det has a zero rank-one
    form."""
    disc = _disc()
    prog = _ramped_dead_load()
    settings = ContinuationSettings(audit_dirs=16)
    for mat in (NeoHookean(), MooneyRivlin(c1=0.5, c2=0.125)):
        res = newton_correct(State.zero(disc, lam=0.4), prog, mat, disc,
                             settings)
        assert res.converged
        assert np.abs(res.state.p).max() > 1e-2     # the pressure term is live
        rec, _ = continuation._make_record(res.state, prog, mat, disc,
                                           settings, res.iters, 0.0)
        _, gradu, f, detf = _kinematics(res.state, prog, disc)
        audit = audit_state(mat.elasticity(f), f, n_dirs=16)
        assert rec.norm_gradu_inf == np.abs(gradu).max()
        assert rec.min_detF == detf.min()
        assert rec.max_det_dev == np.abs(detf - 1.0).max()
        assert abs(rec.se_margin - audit.se_margin) \
            <= 1e-12 * abs(audit.se_margin)
        assert abs(rec.adn_min_abs - audit.adn_min_abs) \
            <= 1e-12 * audit.adn_min_abs


def _chord_from_origin(mode, dlam):
    """The origin's record LU and tangent, and the arguments of a
    newton_correct call from the predictor at lambda = dlam."""
    disc = _disc()
    mat = NeoHookean()
    prog = _ramped_dead_load()
    settings = ContinuationSettings(audit_dirs=8)
    origin = State.zero(disc)
    _, (solve, t) = continuation._make_record(origin, prog, mat, disc,
                                              settings, 0, 0.0)
    constraint = None
    if mode == "arclength":
        nrm = np.sqrt(t @ t + 1.0)
        constraint = (t / nrm, 1.0 / nrm, origin, dlam * nrm)
    pred = origin.with_increment(t * dlam, dlam=dlam)
    return (pred, prog, mat, disc, settings), constraint, solve, t


@pytest.mark.parametrize("mode", ["natural", "arclength"])
def test_slow_chord_falls_back_to_fresh_linearizations(monkeypatch, mode):
    """Far from the record's state the chord's observed contraction can no
    longer reach the tolerance within the iteration budget; newton_correct
    then linearizes and factors at every later step, and converges."""
    dlam = 1.0
    args, constraint, solve, t = _chord_from_origin(mode, dlam)
    counts = _count_factorizations(monkeypatch)
    res = continuation.newton_correct(     # the counting wrapper
        *args, constraint=constraint, chord=(solve, t))
    assert res.converged
    assert counts["fresh"] == 3
    assert counts["lu"] == counts["fresh"] < counts["newton"]
    if mode == "arclength":
        assert abs(res.state.lam - dlam) > 1e-6     # lambda moved as well


@pytest.mark.parametrize("mode", ["natural", "arclength"])
def test_chord_is_kept_while_it_can_reach_the_tolerance(monkeypatch, mode):
    """At dlam = 0.6 a chord step cuts the residual only a few times, yet
    its contraction still reaches the tolerance within the budget: the
    chord converges alone, with no linearization and no factorization."""
    args, constraint, solve, t = _chord_from_origin(mode, 0.6)
    counts = _count_factorizations(monkeypatch)
    res = continuation.newton_correct(
        *args, constraint=constraint, chord=(solve, t))
    assert res.converged
    assert counts["fresh"] == counts["lu"] == 0
    assert counts["newton"] == res.iters == 11
    norms = res.residual_norms
    assert min(a / b for a, b in zip(norms, norms[1:])) < 20.0


@pytest.mark.parametrize("mode", ["natural", "arclength"])
def test_growing_chord_residual_falls_back(monkeypatch, mode):
    """A wrong solve (-50 times the chord step) makes the residual grow
    about 50 times, so with a budget of 200 iterations the ratio's power
    q ** 199 overflows a float.  The rule tests q < 1 first: it drops the
    chord at once, raises no OverflowError, and fresh Newton steps
    converge."""
    args, constraint, solve, t = _chord_from_origin(mode, 0.2)
    args[4].newton_max_iter = 200
    counts = _count_factorizations(monkeypatch)
    res = continuation.newton_correct(
        *args, constraint=constraint,
        chord=(lambda rhs: -50.0 * solve(rhs), t))
    norms = res.residual_norms
    with pytest.raises(OverflowError):
        (norms[1] / norms[0]) ** (args[4].newton_max_iter - 1)
    assert res.converged
    assert counts["fresh"] == res.iters - 1 > 0


@pytest.mark.parametrize("mode", ["natural", "arclength"])
@pytest.mark.parametrize("mat", [NeoHookean(), MooneyRivlin(c1=0.5, c2=0.125)],
                         ids=["neo-hookean", "mooney-rivlin"])
def test_fresh_step_is_the_dense_newton_step(mode, mat):
    """Without a chord an iterate re-anchors at its own state, and its
    bordered step is the Newton step: from an off-branch predictor it
    equals the dense solve of [[J, F_lambda], [t_w^T, t_lam]] with the
    arclength row, and of J at fixed lambda."""
    disc = _disc()
    prog = _ramped_dead_load()
    origin = State.zero(disc)
    j, f_lam = jacobian(origin, prog, mat, disc), residual_dlam(origin, prog, mat, disc)
    t = np.linalg.solve(j.toarray(), -f_lam)
    rng = np.random.default_rng(0)
    pred = origin.with_increment(
        0.3 * t + 1e-3 * rng.standard_normal(disc.n_total), dlam=0.3)

    j, f_lam = jacobian(pred, prog, mat, disc), residual_dlam(pred, prog, mat, disc)
    matrix, rhs = j.toarray(), -residual(pred, prog, mat, disc)
    constraint = None
    if mode == "arclength":
        nrm = np.sqrt(t @ t + 1.0)
        constraint = (t / nrm, 1.0 / nrm, origin, 0.35 * nrm)
        matrix = np.block([[matrix, f_lam[:, None]],
                           [t[None, :] / nrm, np.array([[1.0 / nrm]])]])
        rhs = np.append(rhs, 0.35 * nrm - (t @ pred.pack() + 0.3) / nrm)
    want = np.linalg.solve(matrix, rhs)

    res = newton_correct(pred, prog, mat, disc,
                         ContinuationSettings(newton_max_iter=1),
                         constraint=constraint)
    step = res.state.pack() - pred.pack()
    if mode == "arclength":
        step = np.append(step, res.state.lam - pred.lam)
    else:
        assert res.state.lam == pred.lam
    assert np.linalg.norm(step - want) <= 1e-10 * np.linalg.norm(want)


def test_record_tangent_is_the_branch_derivative():
    """The tangent _make_record returns is d w / d lambda: central
    differences of converged states at lambda +- h approach it as h^2."""
    disc = _disc()
    mat = NeoHookean()
    prog = _ramped_dead_load()
    settings = ContinuationSettings(audit_dirs=8)
    lam0 = 0.3
    base = newton_correct(State.zero(disc, lam=lam0), prog, mat, disc,
                          settings)
    assert base.converged
    _, (_, t) = continuation._make_record(base.state, prog, mat, disc, settings,
                                          base.iters, 0.0)
    errors = []
    for h in (0.04, 0.02):
        ends = []
        for dlam in (-h, h):
            res = newton_correct(base.state.with_increment(t * dlam,
                                                           dlam=dlam),
                                 prog, mat, disc, settings)
            assert res.converged
            ends.append(res.state.pack())
        errors.append(np.abs((ends[1] - ends[0]) / (2 * h) - t).max())
    assert errors[0] < 1e-2 * np.abs(t).max()
    assert 3.5 < errors[0] / errors[1] < 4.5
