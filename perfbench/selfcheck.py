"""Shows that no output check of the benchmark is vacuous.

    python3 perfbench/selfcheck.py

For each workload it runs one round, requires every check
to pass on the real outputs, then applies each corruption in CORRUPTIONS to
a copy of the outputs and requires the check it targets to fail.  Every
check must be targeted by at least one corruption.  Exits 0 when all of
that holds.
"""

import copy
import os
import sys

from run import ROOT, THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402  (after the thread settings)


# Each corruption replaces an artifact with a spoiled copy; none changes
# the round's own objects.

def _edit_csv(a, row, column, value):
    text = a["csv"].decode().strip().split("\n")
    header = text[0].split(",")
    line = 1 + row % (len(text) - 1)
    cells = text[line].split(",")
    cells[header.index(column)] = value
    text[line] = ",".join(cells)
    a["csv"] = ("\n".join(text) + "\n").encode()


def _perturb_state(a):
    state = a["final_state"].copy()
    state.u[len(state.u) // 2] += 1e-7
    a["final_state"] = state


def _perturb_trace_state(a):
    t = copy.copy(a["trace"])
    t.final_state = t.final_state.copy()
    t.final_state.u[len(t.final_state.u) // 2] += 1e-7
    a["trace"] = t


def _swap_rows(a):
    lines = a["csv"].decode().strip().split("\n")
    lines[2], lines[3] = lines[3], lines[2]
    a["csv"] = ("\n".join(lines) + "\n").encode()


def _trace_records(a, edit):
    t = copy.copy(a["trace"])
    t.records = [copy.copy(r) for r in t.records]
    edit(t)
    a["trace"] = t


def _flip_sign(a, row):
    rows = W.read_csv(a["csv"].decode())[1]
    _edit_csv(a, row, "jac_det_sign", str(-int(rows[row]["jac_det_sign"])))


CORRUPTIONS = {
    "shear_n3": [
        ("exit code 3", W.check_exit_code, lambda a: a.update(exit_code=3)),
        ("uniqueness failed=1", W.check_probes_passed,
         lambda a: a.update(summary=a["summary"].replace("failed=0", "failed=1"))),
        ("final lambda 0.99999999", W.check_lambda_endpoints,
         lambda a: _edit_csv(a, -1, "lambda", "0.99999999")),
        ("|u| 1e-9 in row 2", W.check_shear_closed_forms,
         lambda a: _edit_csv(a, 2, "norm_u_inf", "1.0000000000000001e-09")),
        ("min det F 1+1e-11", W.check_shear_closed_forms,
         lambda a: _edit_csv(a, 1, "min_detF", "1.00000000001")),
        ("se_margin 1-1e-11", W.check_shear_se_margin,
         lambda a: _edit_csv(a, 3, "se_margin", "0.99999999999")),
        ("flipped jac_det_sign in row 4", W.check_sign_constant,
         lambda a: _flip_sign(a, 4)),
        ("one CSV byte changed", W.check_csv_deterministic,
         lambda a: a.update(csv=a["csv"].replace(b"\n0,", b"\n0.0,", 1))),
    ],
    "deadload_n4": [
        ("exit code 1", W.check_exit_code, lambda a: a.update(exit_code=1)),
        ("two rows swapped", W.check_lambda_endpoints, _swap_rows),
        ("final lambda 0.5+1e-9", W.check_lambda_endpoints,
         lambda a: _edit_csv(a, -1, "lambda", "0.500000001")),
        ("negative min det F", W.check_min_det_positive,
         lambda a: _edit_csv(a, 5, "min_detF", "-0.01")),
        ("perturbed final state", W.check_final_state, _perturb_state),
        ("flipped last jac_det_sign", W.check_dense_det_sign,
         lambda a: _flip_sign(a, -1)),
        ("one CSV byte changed", W.check_csv_deterministic,
         lambda a: a.update(csv=a["csv"].replace(b"\n0,", b"\n0.0,", 1))),
    ],
    "deadload_n8": [
        ("status stall", W.check_trace_completed,
         lambda a: _trace_records(a, lambda t: setattr(t, "status", "stall"))),
        ("stopped at lambda 0.025", W.check_trace_completed,
         lambda a: _trace_records(a, lambda t: setattr(t.records[-1], "lam", 0.025))),
        ("perturbed final state", W.check_trace_state, _perturb_trace_state),
        ("negative min det F", W.check_trace_state,
         lambda a: _trace_records(a, lambda t: setattr(t.records[-1], "min_detF", -1e-3))),
        ("max_det_dev x4, above the 4^3 value", W.check_refinement,
         lambda a: _trace_records(a, lambda t: setattr(
             t.records[-1], "max_det_dev", 4 * t.records[-1].max_det_dev))),
    ],
}


def main():
    out_root = os.path.join(ROOT, "perfbench", "out", "selfcheck")
    ok = True
    for name in W.WORKLOADS:
        workload = W.make(name, os.path.join(out_root, name), seed=0)
        rnd = workload.round()
        ctx = W.context(name, workload, [rnd], out_root)
        base = W.run_checks(name, rnd.artifacts, ctx)
        print("%s: %d checks on the real outputs: %s"
              % (name, len(W.CHECKS[name]), "; ".join(base) or "all pass"))
        ok &= not base
        targeted = set()
        for label, check, corrupt in CORRUPTIONS[name]:
            artifacts = dict(rnd.artifacts)
            corrupt(artifacts)
            try:
                msg = check(artifacts, ctx)
            except Exception as exc:
                msg = "%s: %s" % (type(exc).__name__, exc)
            targeted.add(check)
            print("  %-36s -> %-26s %s" % (label, check.__name__,
                                           "caught: %s" % msg if msg else "MISSED"))
            ok &= msg is not None
        for check in W.CHECKS[name]:
            if check not in targeted:
                print("  no corruption targets %s" % check.__name__)
                ok = False
    print("selfcheck:", "every corruption caught" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
