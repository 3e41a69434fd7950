"""Configured runs and reporting.

One INI-style configuration file describes an entire experiment: material,
mesh, loading, continuation settings, probe budgets, and output paths.
run() executes the pipeline (mesh build, star-shape check, material
self-checks, branch trace, origin homotopy certificate, probes) and writes
a branch CSV, a text summary, and optional VTK snapshots.  Exit codes:
0 success, 2 configuration error, 3 solver stall, 4 element inversion.
A summary file is written on every exit path.
"""

import configparser
import csv
import dataclasses
import os
import re

import numpy as np

from .materials import make_material, verify_objectivity
from .mesh import build_box_mesh, star_shape_check, write_vtk
from .assembly import Discretization, LoadProgram, _Q2_CORNERS
from .continuation import ContinuationSettings, BranchRecord, trace_branch, parity_tracker
from .probes import global_min_probe, quasiconvexity_probe, uniqueness_probe
from .tensor import EYE3, identity4

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STALL = 3
EXIT_INVERTED = 4

CSV_HEADER = ",".join(BranchRecord.CSV_COLUMNS)


class ConfigError(ValueError):
    pass


def _parse_vec3(raw, key):
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError("%s must have 3 entries" % key)
    try:
        v = np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError("%s entries must be numbers" % key)
    if not np.all(np.isfinite(v)):
        raise ConfigError("%s must be finite (got %s)" % (key, raw))
    return v


def _parse_int3(raw, key):
    v = _parse_vec3(raw, key)
    if np.any(v != np.rint(v)):
        raise ConfigError("%s entries must be integers" % key)
    return v.astype(int)


def _parse_bool(raw, key):
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError("%s must be a boolean" % key)


def _dataclass_section(cls, **checks):
    """Schema entries for the fields of cls: the parser from the field's
    type, the default from the field; cls.validate() checks the ranges."""
    return {f.name: ("vec3" if f.type is np.ndarray else f.type,
                     getattr(cls(), f.name), checks.get(f.name))
            for f in dataclasses.fields(cls)}


def _finite_nonnegative(v):
    return bool(np.isfinite(v)) and v >= 0


def _file_name(v):
    return v == os.path.basename(v) and v not in ("", ".", "..")


# schema: section -> key -> (parser, default, validator or None)
_SCHEMA = {
    "material": {       # the model's constructor checks the values
        "model": (str, "neo-hookean", None),
        "mu": (float, 1.0, None),
        "c1": (float, 0.5, None),
        "c2": (float, 0.125, None),
    },
    "mesh": {
        "extent": ("vec3", "1.0 1.0 1.0", lambda v: bool(np.all(v > 0))),
        "divisions": ("int3", "3 3 3", lambda v: bool(np.all(v >= 2))),
        "center_at_origin": ("bool", "false", None),
        "star_origin": ("vec3", "0.5 0.5 0.5", None),   # unset: the box's centre
    },
    "loading": _dataclass_section(LoadProgram),
    # a library caller may trace with no Newton iteration; a run may not
    "continuation": _dataclass_section(ContinuationSettings,
                                       newton_max_iter=lambda v: v >= 1),
    "probes": {
        "enabled": ("bool", "true", None),
        "global_min_samples": (int, 2000, lambda v: v >= 1),
        "quasiconvexity_amplitude": (float, 0.05, _finite_nonnegative),
        "uniqueness_starts": (int, 10, lambda v: v >= 1),
        "uniqueness_radius": (float, 0.05, _finite_nonnegative),
        "seed": (int, 0, lambda v: v >= 0),
    },
    "output": {
        "directory": (str, "out", None),
        "csv_name": (str, "branch.csv", _file_name),
        "summary_name": (str, "summary.txt", _file_name),
        "write_vtk_every": (int, 0, lambda v: v >= 0),
    },
}

_PARSERS = {"vec3": _parse_vec3, "int3": _parse_int3, "bool": _parse_bool}


def _check_output_names(values):
    """The branch CSV, the summary and run's VTK snapshots (snapshot_NNNN.vtk,
    when write_vtk_every > 0) share one directory: no file may overwrite another."""
    csv_name, summary_name = values["output", "csv_name"], values["output", "summary_name"]
    if csv_name == summary_name:
        raise ConfigError("[output] csv_name and summary_name are both %r" % csv_name)
    for key, name in (("csv_name", csv_name), ("summary_name", summary_name)):
        if values["output", "write_vtk_every"] and re.fullmatch(r"snapshot_\d{4,}\.vtk", name):
            raise ConfigError("[output] %s %r is a VTK snapshot's name (write_vtk_every > 0)"
                              % (key, name))


class RunConfig:
    """Validated experiment configuration.

    Every key is schema-checked for type and range; unknown sections or
    keys are rejected so a typo cannot silently fall back to a default.
    The [loading] and [continuation] keys are the fields of LoadProgram and
    ContinuationSettings, whose validate() checks them as a whole, and the
    material's constructor checks [material], so an error raised inside
    the trace is never a config error.
    """

    def __init__(self, values):
        self.values = values

    def __getitem__(self, pair):
        return self.values[pair]

    @classmethod
    def from_file(cls, path):
        if not os.path.isfile(path):
            raise ConfigError("config file not found: %s" % path)
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError("config parse failure: %s" % exc)
        if not read:
            raise ConfigError("config file unreadable: %s" % path)

        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError("unknown section [%s]" % section)
            for key in parser[section]:
                if key not in _SCHEMA[section]:
                    raise ConfigError("unknown key %s in [%s]" % (key, section))

        values = {}
        for section, keys in _SCHEMA.items():
            for key, (kind, default, check) in keys.items():
                raw = parser.get(section, key, fallback=default)
                label = "[%s] %s" % (section, key)
                if kind in _PARSERS:
                    val = _PARSERS[kind](raw, label) if isinstance(raw, str) \
                        else np.array(raw)      # a copy of a field's default
                else:
                    try:
                        val = kind(raw)
                    except (TypeError, ValueError):
                        raise ConfigError("%s must be of type %s"
                                          % (label, kind.__name__))
                if check is not None and not check(val):
                    raise ConfigError("%s out of range (got %r)" % (label, raw))
                values[(section, key)] = val
        if not parser.has_option("mesh", "star_origin"):       # the box's centre
            values["mesh", "star_origin"] = np.zeros(3) if values["mesh", "center_at_origin"] \
                else values["mesh", "extent"] / 2
        _check_output_names(values)
        cfg = cls(values)
        try:        # the checks the material and trace_branch make, up front
            cfg.material()
            cfg.settings().validate()
            cfg.program().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cfg

    def material(self):
        model = self["material", "model"]
        if model == "neo-hookean":
            return make_material(model, mu=self["material", "mu"])
        return make_material(model, c1=self["material", "c1"],
                             c2=self["material", "c2"])

    def _section(self, name):
        return {key: self[name, key] for key in _SCHEMA[name]}

    def program(self):
        return LoadProgram(**self._section("loading"))

    def settings(self):
        return ContinuationSettings(**self._section("continuation"))


def _vertex_fields(disc, state, program):
    """Displacement and pressure sampled at mesh vertices, plus deformed
    coordinates, for snapshot output."""
    mesh = disc.mesh
    uv = np.zeros_like(mesh.nodes)
    uv[disc.conn1] = disc.u_elem(state.u)[:, _Q2_CORNERS]
    deformed = mesh.nodes @ program.a_matrix(state.lam).T + uv
    return deformed, deformed - mesh.nodes, state.p


def run(config_path):
    """Execute a configured study; returns the process exit code."""
    summary = ["run summary"]
    base = os.path.dirname(os.path.abspath(config_path))
    try:
        cfg = RunConfig.from_file(config_path)
        out_dir = os.path.join(base, cfg["output", "directory"])   # or an absolute one
        csv_path = os.path.join(out_dir, cfg["output", "csv_name"])
        os.makedirs(out_dir, exist_ok=True)
        open(csv_path, "w").close()     # an unusable output path is a config error
    except (ConfigError, OSError) as exc:
        _write_summary(base, "summary.txt",
                       summary + ["status: config error", "error: %s" % exc,
                                  "exit_code: %d" % EXIT_CONFIG])
        return EXIT_CONFIG
    summary_name = cfg["output", "summary_name"]

    material = cfg.material()
    mesh = build_box_mesh(extent=cfg["mesh", "extent"],
                          divisions=cfg["mesh", "divisions"],
                          center_at_origin=cfg["mesh", "center_at_origin"])
    disc = Discretization(mesh)
    summary.append("mesh: %d nodes, %d elements, %d dofs"
                   % (mesh.n_nodes, mesh.n_elements, disc.n_total))

    try:
        star = star_shape_check(mesh, cfg["mesh", "star_origin"])
        summary.append("star_shape: min=%.6g passed=%s"
                       % (star.min_value, star.passed))
    except ValueError:      # a failed audit: the trace decides the exit code
        summary.append("star_shape: origin outside the mesh passed=False")

    obj = verify_objectivity(material, trials=20,
                             rng=np.random.default_rng(cfg["probes", "seed"]))
    stress_free = float(np.abs(material.stress(np.eye(3))).max())
    summary.append("objectivity: max_dev=%.3e passed=%s" % (obj.max_deviation, obj.passed))
    summary.append("stress_free_reference: max|S(I)|=%.3e" % stress_free)

    c_id = material.elasticity(EYE3)     # certifies the origin homotopy
    program = cfg.program()
    every = cfg["output", "write_vtk_every"]
    accepted = [0]

    with open(csv_path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.flush()

        def on_accept(state, record):
            fh.write(record.csv_row() + "\n")
            fh.flush()
            accepted[0] += 1
            if every and accepted[0] % every == 0:
                deformed, u_v, p_v = _vertex_fields(disc, state, program)
                snap = os.path.join(out_dir, "snapshot_%04d.vtk" % accepted[0])
                snap_mesh = dataclasses.replace(mesh, nodes=deformed)
                write_vtk(snap, snap_mesh, point_data={"u": u_v, "p": p_v})

        trace = trace_branch(program, cfg.settings(), material, disc,
                             on_accept=on_accept)

    summary.append(_homotopy_line(c_id, trace))
    summary.append("branch: status=%s records=%d detail=%s"
                   % (trace.status, len(trace.records), trace.detail))
    if trace.records:
        summary.extend(_branch_digest(trace.records))

    if cfg["probes", "enabled"]:
        seed = cfg["probes", "seed"]
        gm = global_min_probe(material, cfg["probes", "global_min_samples"],
                              seed=seed)
        summary.append("probe_global_min: min_W=%.6e so3_dist=%.3e passed=%s"
                       % (gm.min_value, gm.argmin_so3_dist, gm.passed))
        qc = quasiconvexity_probe(material,
                                  cfg["probes", "quasiconvexity_amplitude"])
        summary.append("probe_quasiconvexity: integral=%.6e defect=%.3e passed=%s"
                       % (qc.integral, qc.max_det_defect, qc.passed))
        uq = uniqueness_probe(material, disc,
                              n_starts=cfg["probes", "uniqueness_starts"],
                              start_radius=cfg["probes", "uniqueness_radius"],
                              seed=seed, origin=cfg["mesh", "star_origin"])
        summary.append("probe_uniqueness: converged=%d failed=%d inadmissible=%d "
                       "max_norm=%.3e passed=%s (%s)"
                       % (uq.n_converged, uq.n_failed, uq.n_inadmissible,
                          uq.max_norm, uq.passed, uq.note))

    code = {"completed": EXIT_OK, "stall": EXIT_STALL,
            "inverted": EXIT_INVERTED}[trace.status]
    summary.append("status: %s" % trace.status)
    summary.append("exit_code: %d" % code)
    _write_summary(out_dir, summary_name, summary)
    return code


def _homotopy_line(c_id, trace):
    """The line of the homotopy mu I4 + (1 - mu) C(I) to the origin Jacobian,
    certified in closed form (README, "Command line") by an isotropic C(I)
    with alpha > 0 and alpha + div > 0 and an origin LU of sign -1."""
    a, b, g = c_id[0, 1, 0, 1], c_id[0, 0, 1, 1], c_id[0, 1, 1, 0]
    fit = float(np.abs(c_id - a * identity4() - b * np.einsum('ij,kl->ijkl', EYE3, EYE3)
                       - g * np.einsum('il,jk->ijkl', EYE3, EYE3)).max())
    sign = trace.records[0].jac_det_sign if trace.records else None
    certified = bool(fit <= 1e-12 * np.abs(c_id).max() and a > 0
                     and a + b + g > 0 and sign == -1)
    return ("homotopy: det_sign=%s certified=%s alpha=%.6g div=%.6g fit=%.3e%s"
            % ("none" if sign is None else "%+d" % sign, certified, a, b + g,
               fit, "" if trace.records else " (no origin record: %s)" % trace.detail))


def _write_summary(directory, name, lines):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _branch_digest(records):
    """The summary lines of a branch: its lambda extent, the extremal
    monitors over its records and its parity events.  run writes them to
    summary.txt and summarize prints them from the branch CSV."""
    events = parity_tracker(records)
    return ["branch_extent: lambda in [%.6g, %.6g]"
            % (records[0].lam, records[-1].lam),
            "monitors: min_detF=%.6g max_det_dev=%.3e se_margin_min=%.6g "
            "adn_min=%.3e" % (min(r.min_detF for r in records),
                              max(r.max_det_dev for r in records),
                              min(r.se_margin for r in records),
                              min(r.adn_min_abs for r in records)),
            "parity_events: %d %s" % (len(events), events)]


def summarize(branch_csv_path):
    """Text digest of a branch CSV: its record count, then the lines that
    run writes for the branch (_branch_digest).

    Raises ConfigError on a schema mismatch or a malformed file; an empty
    branch yields the 'no accepted steps' report (callers exit nonzero on it).
    """
    try:        # csv.Error: a field over the csv module's size limit
        with open(branch_csv_path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh)) or [None]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError("malformed file %s: %s" % (branch_csv_path, exc))
    if header is None:
        raise ConfigError("empty file: %s" % branch_csv_path)
    if header != list(BranchRecord.CSV_COLUMNS):
        raise ConfigError("CSV schema mismatch: got %s" % ",".join(header))
    rows = [row for row in rows if row]
    if not rows:
        return "no accepted steps"

    for r in rows:
        if len(r) != len(header):
            raise ConfigError("malformed row in %s: %d fields, the header has %d"
                              % (branch_csv_path, len(r), len(header)))
    try:
        recs = [BranchRecord(*map(float, r[:8]), int(r[8]), int(r[9]),
                             float(r[10])) for r in rows]
    except ValueError as exc:
        raise ConfigError("malformed row in %s: %s" % (branch_csv_path, exc))
    return "\n".join(["records: %d" % len(recs)] + _branch_digest(recs))
