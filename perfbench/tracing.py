"""Per-layer spans recorded from outside the elastobranch package.

Each public function named in TARGETS is replaced, in every elastobranch
module namespace that holds it (the modules import each other's functions
by name), by a wrapper that records a span: name, start, end and the span
that was open when it started.  Methods are wrapped on their class.  Spans
stay in memory; ``layer_metrics`` turns one round's spans into the
per-layer metrics, and measure.py writes them out at the end of the run.

A layer's self time is its span's duration minus the durations of its
direct children.  Work the wrappers themselves add (reading the LU fill)
is recorded as a ``perfbench.instrumentation`` child, so it is not charged
to the layer it sits in.
"""

import sys
import time

import numpy as np

INSTRUMENTATION = "perfbench.instrumentation"

# (module, attribute, span name); "Class.method" attributes wrap a method.
TARGETS = [
    ("mesh", "build_box_mesh", "mesh.build_box_mesh"),
    ("mesh", "star_shape_check", "mesh.star_shape_check"),
    ("mesh", "write_vtk", "runner.write_vtk"),
    ("assembly", "Discretization.__init__", "assembly.discretization"),
    ("assembly", "residual", "assembly.residual"),
    ("assembly", "residual_dlam", "assembly.residual_dlam"),
    ("assembly", "jacobian", "assembly.jacobian"),
    ("assembly", "homotopy_operator", "assembly.homotopy_operator"),
    ("assembly", "solve_bordered", "assembly.solve_bordered"),
    ("assembly", "splu", "assembly.splu"),
    ("continuation", "trace_branch", "continuation.trace_branch"),
    ("continuation", "newton_correct", "continuation.newton_correct"),
    ("ellipticity", "audit_state", "ellipticity.audit_state"),
    ("materials", "verify_objectivity", "materials.verify_objectivity"),
    ("probes", "global_min_probe", "probes.global_min"),
    ("probes", "quasiconvexity_probe", "probes.quasiconvexity"),
    ("probes", "uniqueness_probe", "probes.uniqueness"),
    ("runner", "run", "runner.run"),
]

PREFLIGHT = "runner.preflight"


class Tracer:
    """Span store with a stack of open spans."""

    def __init__(self):
        self.spans = []          # dicts: name, start, end, parent, attrs
        self._stack = []
        self._installed = []     # (owner, attribute, original)

    def reset(self):
        self.spans = []
        self._stack = []

    def top(self):
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "attrs": {}})
        self._stack.append(idx)
        return idx

    def close(self, idx):
        """Close span idx and any span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top]["end"] = now
            if top == idx:
                return
        raise RuntimeError("span %d was not open" % idx)

    # -- installation ---------------------------------------------------

    def install(self):
        import elastobranch  # noqa: F401  (loads every submodule)
        special = {"splu": self._wrap_splu, "solve_bordered": self._wrap_solve,
                   "trace_branch": self._wrap_trace}
        for module, attr, name in TARGETS:
            mod = sys.modules["elastobranch." + module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            orig = getattr(mod, attr)
            self._replace_everywhere(orig, special.get(attr, self._wrap)(name, orig))
        materials = sys.modules["elastobranch.materials"]
        for obj in list(vars(materials).values()):
            if isinstance(obj, type) and issubclass(obj, materials.MaterialModel) \
                    and "elasticity" in vars(obj) and obj is not materials.MaterialModel:
                self._patch(obj, "elasticity",
                            self._wrap("materials.elasticity", obj.elasticity))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _patch(self, owner, attr, value):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "elastobranch"
                                   or mod_name.startswith("elastobranch.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "assembly.discretization" and tracer.top() == "runner.run":
                # run() goes from the discretization into its preflight
                # audits; the span ends when trace_branch starts.
                tracer.open(PREFLIGHT)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_trace(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.top() == PREFLIGHT:
                tracer.close(tracer._stack[-1])
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.spans[idx]["attrs"]["records"] = len(result.records)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_solve(self, name, fn):
        tracer = self

        def traced(matrix, rhs, *args, **kwargs):
            idx = tracer.open(name)
            tracer.spans[idx]["attrs"]["zero_rhs"] = not np.any(rhs)
            try:
                return fn(matrix, rhs, *args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_splu(self, name, fn):
        tracer = self

        def traced(matrix, *args, **kwargs):
            idx = tracer.open(name)
            try:
                lu = fn(matrix, *args, **kwargs)
            finally:
                tracer.close(idx)
            inst = tracer.open(INSTRUMENTATION)
            try:
                n = matrix.shape[0]
                # L is stored with its unit diagonal; count it once.
                tracer.spans[idx]["attrs"].update(
                    lu_nnz=int(lu.L.nnz + lu.U.nnz - n), a_nnz=int(matrix.nnz))
            finally:
                tracer.close(inst)
            return lu

        traced.__wrapped__ = fn
        return traced


def _ancestors(spans, idx):
    names = []
    parent = spans[idx]["parent"]
    while parent >= 0:
        names.append(spans[parent]["name"])
        parent = spans[parent]["parent"]
    return names


def self_times(spans):
    """Self time of every span: duration minus its direct children's."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_table(spans):
    """name -> [calls, inclusive seconds, self seconds]."""
    table = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += own
    return table


def layer_metrics(spans):
    """Per-layer metrics of one round, as name -> value."""
    table = layer_table(spans)

    def calls(name):
        return table.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return table.get(name, [0, 0.0, 0.0])[1]

    def selft(name):
        return table.get(name, [0, 0.0, 0.0])[2]

    m = {}
    for name in ("mesh.build_box_mesh", "assembly.discretization",
                 "assembly.homotopy_operator", "assembly.jacobian",
                 "materials.elasticity", "assembly.residual",
                 "assembly.residual_dlam", "assembly.splu",
                 "ellipticity.audit_state", "runner.write_vtk"):
        m[name + "_calls"] = calls(name)
        m[name + "_s"] = incl(name)
    m["runner.preflight_s"] = incl(PREFLIGHT)
    m["assembly.solve_bordered_calls"] = calls("assembly.solve_bordered")
    m["assembly.solve_bordered_s"] = selft("assembly.solve_bordered")
    lu_nnz = sum(s["attrs"].get("lu_nnz", 0) for s in spans)
    a_nnz = sum(s["attrs"].get("a_nnz", 0) for s in spans)
    m["assembly.lu_nnz"] = lu_nnz
    m["assembly.matrix_nnz"] = a_nnz
    m["assembly.lu_fill_ratio"] = lu_nnz / a_nnz if a_nnz else 0.0

    in_trace = [i for i, s in enumerate(spans)
                if "continuation.trace_branch" in _ancestors(spans, i)]
    traces = [i for i, s in enumerate(spans)
              if s["name"] == "continuation.trace_branch"]
    states = sum(spans[i]["attrs"].get("records", 0) for i in traces)
    newton_calls = sum(1 for i in in_trace
                       if spans[i]["name"] == "continuation.newton_correct")
    jac_in_trace = [i for i in in_trace
                    if spans[i]["name"] == "assembly.jacobian"]
    m["continuation.accepted_states"] = states
    m["continuation.accepted_steps"] = states - len(traces)
    # every trace makes one origin solve, then one Newton solve per step
    # attempted; a step that is not accepted was rejected
    m["continuation.rejected_steps"] = \
        newton_calls - len(traces) - m["continuation.accepted_steps"]
    m["continuation.newton_iterations"] = sum(
        1 for i in jac_in_trace
        if "continuation.newton_correct" in _ancestors(spans, i))
    m["continuation.jacobians_per_state"] = \
        len(jac_in_trace) / states if states else 0.0
    splu_in_trace = sum(1 for i in in_trace
                        if spans[i]["name"] == "assembly.splu")
    m["continuation.factorizations_per_state"] = \
        splu_in_trace / states if states else 0.0
    m["continuation.sign_only_factorizations"] = sum(
        1 for i in in_trace if spans[i]["name"] == "assembly.solve_bordered"
        and spans[i]["attrs"].get("zero_rhs"))
    trace_s = incl("continuation.trace_branch")
    trace_self = selft("continuation.trace_branch")
    m["continuation.trace_s"] = trace_s
    m["continuation.trace_self_s"] = trace_self
    m["continuation.trace_attributed_pct"] = \
        100.0 * (1.0 - trace_self / trace_s) if trace_s else 0.0

    m["probes.global_min_s"] = incl("probes.global_min")
    m["probes.quasiconvexity_s"] = incl("probes.quasiconvexity")
    m["probes.uniqueness_s"] = incl("probes.uniqueness")
    m["probes.uniqueness_newton_iterations"] = sum(
        1 for i, s in enumerate(spans) if s["name"] == "assembly.jacobian"
        and "probes.uniqueness" in _ancestors(spans, i))
    m["runner.self_s"] = selft("runner.run")
    m["perfbench.instrumentation_s"] = incl(INSTRUMENTATION)
    return m
