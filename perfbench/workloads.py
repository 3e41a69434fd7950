"""The benchmark's workloads and the checks on their outputs.

A workload has a set-up pass and a round.  The set-up pass runs the
workload up to the call into ``trace_branch`` and stops there, returning
its start and stop times; a round runs the whole workload and returns its
time stamps and the artifacts the checks read.  Every check compares
against a closed form, an independent computation or a property the
method must have.
"""

import configparser
import dataclasses
import hashlib
import os
import sys
import time

import numpy as np
import scipy

from elastobranch import assembly, continuation, mesh as mesh_mod, runner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHEAR_INI = os.path.join(ROOT, "demos", "configs", "shear.ini")
DEAD_LOAD_INI = os.path.join(ROOT, "demos", "configs", "dead_load.ini")
SRC = os.path.join(ROOT, "src", "elastobranch")


class SetupDone(BaseException):
    """Raised at the call into trace_branch to end a set-up pass.

    A BaseException, so that run()'s handlers let it through."""


def derive_config(shipped, path, overrides):
    """Copy a shipped INI config to path with some keys replaced."""
    parser = configparser.ConfigParser()
    if not parser.read(shipped):
        raise FileNotFoundError(shipped)
    for (section, key), value in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def program_digest(shipped, overrides):
    """SHA-256 over what a branch CSV may depend on: the package sources,
    the shipped config, the keys changed in it (the probe seed is not one
    of them) and the Python, numpy and scipy versions."""
    h = hashlib.sha256()
    for path in [os.path.join(SRC, n) for n in sorted(os.listdir(SRC))
                 if n.endswith(".py")] + [shipped]:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    h.update(repr(sorted(overrides.items())).encode())
    h.update(("%s|%s|%s" % (sys.version, np.__version__, scipy.__version__)).encode())
    return h.hexdigest()[:16]


def read_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def col(rows, key, kind=float):
    return [kind(r[key]) for r in rows]


@dataclasses.dataclass
class Round:
    """perf_counter() stamps of one round: start, the call into
    trace_branch, its return, end."""
    start: float
    trace_start: float
    trace_end: float
    end: float
    artifacts: dict


class _TraceHook:
    """Stands in for runner.trace_branch: times the call and keeps its
    arguments and result, or ends a set-up pass."""

    def __init__(self):
        self.inner = runner.trace_branch
        self.setup_only = False
        self.reset()

    def reset(self):
        self.t_enter = self.t_exit = None
        self.args = self.result = None

    def __call__(self, *args, **kwargs):
        self.t_enter = time.perf_counter()
        if self.setup_only:
            raise SetupDone()
        self.args = args
        self.result = self.inner(*args, **kwargs)
        self.t_exit = time.perf_counter()
        return self.result


class _Workload:
    """A shipped config with a few keys changed, written to out_dir."""

    def __init__(self, shipped, overrides, out_dir, seed):
        self.shipped, self.overrides = shipped, overrides
        self.out_dir, self.seed = out_dir, seed
        self.config = derive_config(
            shipped, os.path.join(out_dir, "config.ini"),
            {**overrides, ("output", "directory"): "run",
             ("probes", "seed"): str(seed)})


class RunWorkload(_Workload):
    """elastobranch.runner.run on a shipped config with a few keys changed."""

    def __init__(self, shipped, overrides, out_dir, seed):
        super().__init__(shipped, overrides, out_dir, seed)
        self.cfg = runner.RunConfig.from_file(self.config)
        self.hook = None
        self.trace_args = None

    def _install(self):
        if self.hook is None or runner.trace_branch is not self.hook:
            self.hook = _TraceHook()
            runner.trace_branch = self.hook

    def setup_pass(self):
        self._install()
        self.hook.reset()
        self.hook.setup_only = True
        t0 = time.perf_counter()
        try:
            runner.run(self.config)
        except SetupDone:
            pass
        else:
            raise RuntimeError("run() returned before calling trace_branch")
        finally:
            self.hook.setup_only = False
        return t0, self.hook.t_enter

    def round(self):
        self._install()
        self.hook.reset()
        t0 = time.perf_counter()
        code = runner.run(self.config)
        t1 = time.perf_counter()
        out = os.path.join(self.out_dir, "run")
        with open(os.path.join(out, self.cfg["output", "csv_name"]), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(out, self.cfg["output", "summary_name"])) as fh:
            summary = fh.read()
        self.trace_args = self.hook.args[:4]
        program, settings, material, disc = self.trace_args
        return Round(
            t0, self.hook.t_enter, self.hook.t_exit, t1,
            artifacts={"exit_code": code, "csv": csv_bytes, "summary": summary,
                       "final_state": self.hook.result.final_state,
                       "program": program, "material": material, "disc": disc,
                       "settings": settings})

    def trace_pass(self):
        """trace_branch on the arguments run() last passed it, without
        run()'s on_accept writer (its CSV rows and VTK snapshots)."""
        t0 = time.perf_counter()
        trace = self.hook.inner(*self.trace_args)
        t1 = time.perf_counter()
        if trace.status != "completed":
            raise RuntimeError("trace pass: %s: %s" % (trace.status, trace.detail))
        return t0, t1


class TraceWorkload(_Workload):
    """trace_branch called directly, as a library user would."""

    def _setup(self):
        cfg = runner.RunConfig.from_file(self.config)
        mesh = mesh_mod.build_box_mesh(extent=cfg["mesh", "extent"],
                                       divisions=cfg["mesh", "divisions"],
                                       center_at_origin=cfg["mesh", "center_at_origin"])
        disc = assembly.Discretization(mesh)
        return cfg, disc, cfg.program(), cfg.settings(), cfg.material()

    def setup_pass(self):
        t0 = time.perf_counter()
        self._setup()
        return t0, time.perf_counter()

    def round(self):
        t0 = time.perf_counter()
        cfg, disc, program, settings, material = self._setup()
        t1 = time.perf_counter()
        trace = continuation.trace_branch(program, settings, material, disc)
        t2 = time.perf_counter()
        return Round(t0, t1, t2, t2,
                     artifacts={"trace": trace, "program": program,
                                "material": material, "disc": disc,
                                "settings": settings, "cfg": cfg})

    def coarse_max_det_dev(self, divisions="4 4 4"):
        """max_det_dev of the same problem on a coarser mesh, at the same load."""
        coarse = TraceWorkload(self.shipped,
                               {**self.overrides, ("mesh", "divisions"): divisions},
                               os.path.join(self.out_dir, "coarse"), self.seed)
        t = coarse.round().artifacts["trace"]
        if t.status != "completed":
            raise RuntimeError("%s reference trace: %s" % (divisions, t.detail))
        return t.records[-1].max_det_dev


# -- checks ---------------------------------------------------------------
#
# A check takes (artifacts, context) and returns None when it holds or a
# message saying what is wrong.  context carries what the checks of one run
# share: the run's config, the CSV digest recorded for this program and
# config and, for deadload_n8, the 4^3 reference.

def _state_residual_ok(a):
    r = assembly.residual(a["final_state"], a["program"], a["material"], a["disc"])
    norm = float(np.linalg.norm(r))
    tol = a["settings"].newton_tol
    return None if norm <= tol else "final residual %.3e > newton_tol %.1e" % (norm, tol)


def _csv_rows(a):
    header, rows = read_csv(a["csv"].decode())
    if header != list(continuation.BranchRecord.CSV_COLUMNS):
        raise ValueError("CSV header %s" % header)
    return rows


def check_exit_code(a, ctx):
    return None if a["exit_code"] == runner.EXIT_OK else "exit code %r" % a["exit_code"]


def check_probes_passed(a, ctx):
    lines = {l.split(":")[0]: l for l in a["summary"].splitlines()}
    starts = ctx["cfg"]["probes", "uniqueness_starts"]
    want = {"probe_global_min": "passed=True",
            "probe_quasiconvexity": "passed=True",
            "probe_uniqueness": "converged=%d failed=0" % starts}
    for key, text in want.items():
        if text not in lines.get(key, ""):
            return "%s lacks %r" % (key, text)
    if "passed=True" not in lines["probe_uniqueness"]:
        return "uniqueness probe did not pass"
    return None


def check_lambda_endpoints(a, ctx):
    lam = col(_csv_rows(a), "lambda")
    target = ctx["cfg"]["continuation", "lam_target"]
    if lam[0] != 0.0:
        return "first lambda %r" % lam[0]
    if abs(lam[-1] - target) > ctx["lam_tol"]:
        return "final lambda %r, target %r" % (lam[-1], target)
    if any(b <= a_ for a_, b in zip(lam, lam[1:])):
        return "lambda not strictly increasing"
    return None


def check_shear_closed_forms(a, ctx):
    """Homogeneous shear is exact on the mesh: u = 0, p = 0, det F = 1."""
    for i, r in enumerate(_csv_rows(a)):
        if abs(float(r["norm_u_inf"])) >= 1e-10 or abs(float(r["norm_p_inf"])) >= 1e-10:
            return "row %d: |u| %s |p| %s" % (i, r["norm_u_inf"], r["norm_p_inf"])
        if abs(float(r["min_detF"]) - 1.0) > 1e-12:
            return "row %d: min det F %s" % (i, r["min_detF"])
    return None


def check_shear_se_margin(a, ctx):
    """The neo-Hookean margin on unimodular F is mu: the extension term's
    rank-one form vanishes."""
    mu = ctx["cfg"]["material", "mu"]
    for i, v in enumerate(col(_csv_rows(a), "se_margin")):
        if abs(v - mu) > 1e-12:
            return "row %d: se_margin %r, mu %r" % (i, v, mu)
    return None


def check_sign_constant(a, ctx):
    signs = col(_csv_rows(a), "jac_det_sign", int)
    return None if len(set(signs)) == 1 else "jac_det_sign changes: %s" % signs


def check_csv_deterministic(a, ctx):
    """Byte-identical CSV in every round of every run of this source tree."""
    digest = hashlib.sha256(a["csv"]).hexdigest()
    if digest != ctx["csv_digest"]:
        return "CSV sha256 %s differs from %s" % (digest[:12], ctx["csv_digest"][:12])
    return None


def check_min_det_positive(a, ctx):
    dets = col(_csv_rows(a), "min_detF")
    return None if min(dets) > 0.0 else "min det F %r" % min(dets)


def check_final_state(a, ctx):
    lam = col(_csv_rows(a), "lambda")[-1]
    if lam != a["final_state"].lam:
        return "CSV final lambda %r is not the state's %r" % (lam, a["final_state"].lam)
    return _state_residual_ok(a)


def check_dense_det_sign(a, ctx):
    """Last row's sign against a dense LU (LAPACK), not SuperLU."""
    j = assembly.jacobian(a["final_state"], a["program"], a["material"], a["disc"])
    sign, _ = np.linalg.slogdet(j.toarray())
    row = col(_csv_rows(a), "jac_det_sign", int)[-1]
    return None if row == int(sign) else "last jac_det_sign %d, dense %d" % (row, sign)


def check_trace_completed(a, ctx):
    t = a["trace"]
    target = a["settings"].lam_target
    if t.status != "completed":
        return "status %s: %s" % (t.status, t.detail)
    if abs(t.records[-1].lam - target) > 1e-12 or t.final_state.lam != t.records[-1].lam:
        return "final lambda %r, target %r" % (t.records[-1].lam, target)
    return None


def check_trace_state(a, ctx):
    t = a["trace"]
    if min(r.min_detF for r in t.records) <= 0.0:
        return "min det F <= 0"
    a = dict(a, final_state=t.final_state)
    return _state_residual_ok(a)


def check_refinement(a, ctx):
    """max |det F - 1| shrinks under refinement (the 4^3 value at the same load)."""
    dev = a["trace"].records[-1].max_det_dev
    ref = ctx["coarse_max_det_dev"]
    return None if dev < ref else "max_det_dev %.3e not below 4^3 value %.3e" % (dev, ref)


CHECKS = {
    "shear_n3": [check_exit_code, check_probes_passed, check_lambda_endpoints,
                 check_shear_closed_forms, check_shear_se_margin,
                 check_sign_constant, check_csv_deterministic],
    "deadload_n4": [check_exit_code, check_lambda_endpoints,
                    check_min_det_positive, check_final_state,
                    check_dense_det_sign, check_csv_deterministic],
    "deadload_n8": [check_trace_completed, check_trace_state, check_refinement],
}

WORKLOADS = {
    # shear.ini as shipped, output moved out of the tree
    "shear_n3": (RunWorkload, SHEAR_INI, {}),
    # dead_load.ini with the probes off: its uniqueness probe inverts an
    # element and run() raises (see CHANGES.md)
    "deadload_n4": (RunWorkload, DEAD_LOAD_INI, {("probes", "enabled"): "false"}),
    # the same problem on 8^3 elements, origin plus one step
    "deadload_n8": (TraceWorkload, DEAD_LOAD_INI,
                    {("mesh", "divisions"): "8 8 8",
                     ("continuation", "lam_target"): "0.05",
                     ("probes", "enabled"): "false"}),
}

# Set-up passes per run, in addition to the set-up of every round: the
# median of these is setup_s.
SETUP_PASSES = {"shear_n3": 12, "deadload_n4": 4, "deadload_n8": 30}
# Trace passes per run, in addition to the trace of every round: the median
# of these is trace_s.  Only shear_n3's trace is short (about 0.6 s) and
# fits one or two rounds in a run when the host is slow, so that one
# median needs more intervals.
TRACE_PASSES = {"shear_n3": 8}


def make(name, out_dir, seed):
    cls, shipped, overrides = WORKLOADS[name]
    return cls(shipped, overrides, out_dir, seed)


def context(name, workload, rounds, out_root):
    """What the checks of one run share; built after the timed rounds."""
    # shear lands on lam_target exactly; the arclength trace to 1e-12
    ctx = {"lam_tol": 0.0 if name == "shear_n3" else 1e-12}
    if isinstance(workload, RunWorkload):
        ctx["cfg"] = workload.cfg
        ctx["csv_digest"] = recorded_csv_digest(name, workload, rounds[0].artifacts["csv"],
                                                out_root)
    else:
        ctx["coarse_max_det_dev"] = workload.coarse_max_det_dev()
    return ctx


def recorded_csv_digest(name, workload, csv_bytes, out_root):
    """The CSV digest the first run of this program and config recorded.

    Runs of one program must write the same CSV bytes, whatever the seed
    (the seed reaches only the probes and the objectivity trials).  The
    first run in a checkout has only its own rounds to compare."""
    key = program_digest(workload.shipped, workload.overrides)
    path = os.path.join(out_root, "%s.%s.csv.sha256" % (name, key))
    if not os.path.exists(path):
        with open(path, "w") as fh:
            fh.write(hashlib.sha256(csv_bytes).hexdigest() + "\n")
    with open(path) as fh:
        return fh.read().strip()


def run_checks(name, artifacts, ctx):
    """Failure messages of every check of the workload on one round."""
    failures = []
    for check in CHECKS[name]:
        try:
            msg = check(artifacts, ctx)
        except Exception as exc:  # a malformed artifact fails its check
            msg = "%s: %s" % (type(exc).__name__, exc)
        if msg:
            failures.append("%s: %s" % (check.__name__, msg))
    return failures

