import configparser
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from elastobranch.runner import (CSV_HEADER, EXIT_CONFIG, EXIT_INVERTED,
                                 EXIT_OK, EXIT_STALL, ConfigError, RunConfig,
                                 _homotopy_line, _vertex_fields, run, summarize)

from elastobranch.assembly import (Discretization, LoadProgram,
                                   SingularMatrixError, State)
from elastobranch.materials import MooneyRivlin, NeoHookean
from elastobranch.mesh import build_box_mesh
from elastobranch.continuation import (BranchRecord, BranchTrace,
                                       ContinuationSettings)
from elastobranch.tensor import identity4

from test_continuation import singular_at_record
from test_probes import _fail_origin_factorization

SHEAR_INI = """
[material]
model = neo-hookean
mu = 1.0

[mesh]
divisions = 2 2 2

[loading]
a_family = shear
a_rate = 1.0

[continuation]
lam_target = 1.0
ds0 = 0.2
ds_max = 0.3
audit_dirs = 16

[probes]
enabled = true
global_min_samples = 300
uniqueness_starts = 3

[output]
directory = {out}
write_vtk_every = 2
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_golden_csv_header():
    assert CSV_HEADER == ("lambda,norm_u_inf,norm_gradu_inf,norm_p_inf,"
                          "min_detF,max_det_dev,se_margin,adn_min_abs,"
                          "jac_det_sign,newton_iters,ds")


def test_config_defaults(tmp_path):
    cfg = RunConfig.from_file(_write(tmp_path, "[material]\n"))
    assert cfg["material", "model"] == "neo-hookean"
    assert np.array_equal(cfg["mesh", "divisions"], [3, 3, 3])
    mat = cfg.material()
    assert mat.mu == 1.0
    assert cfg.settings() == ContinuationSettings()


def test_config_field_mapping(tmp_path):
    text = """
[material]
model = mooney-rivlin
c1 = 0.4
c2 = 0.2

[loading]
b_family = dead
b_scale = 2.5
b_direction = 1 0 0
b_ramp = 0 3 0

[continuation]
lam_target = 0.5
"""
    cfg = RunConfig.from_file(_write(tmp_path, text))
    mat = cfg.material()
    assert (mat.c1, mat.c2) == (0.4, 0.2)
    prog = cfg.program()
    assert prog.b_family == "dead"
    assert np.array_equal(prog.b_ramp, [0.0, 3.0, 0.0])
    assert cfg.settings().lam_target == 0.5


@pytest.mark.parametrize("text", [
    "[material2]\nmu = 1\n",
    "[material]\nmu2 = 1\n",
    "[material]\nmodel = hencky\n",
    "[material]\nmu = -1\n",
    "[mesh]\ndivisions = 1 1 1\n",
    "[mesh]\ndivisions = 2 2\n",
    "[mesh]\ndivisions = a b c\n",
    "[loading]\na_family = twist\n",
    "[loading]\nb_family = gravity\n",
    "[loading]\nb_ramp = 0 1\n",
    "[continuation]\nnewton_max_iter = two\n",
    "[continuation]\nnewton_max_iter = 0\n",
    "[continuation]\nlam_target = 0\n",
    "[continuation]\nds_min = 0.5\nds0 = 0.1\n",
    "[continuation]\nmode = tangent\n",
    "[continuation]\naudit_dirs = 4\n",
    "[continuation]\nse_dirs = 32\n",
    "[probes]\nenabled = maybe\n",
    "[probes]\nquasiconvexity_steps = 200\n",
    "[probes]\nquasiconvexity_amplitude = inf\n",
    "[probes]\nuniqueness_radius = inf\n",
    "[output]\nworkers = 2\n",
])
def test_config_rejections(tmp_path, text):
    with pytest.raises(ConfigError):
        RunConfig.from_file(_write(tmp_path, text))


@pytest.mark.parametrize("section, key, scalar", [
    ("continuation", "lam_target", True), ("continuation", "ds0", True),
    ("continuation", "ds_min", True), ("continuation", "ds_max", True),
    ("continuation", "newton_tol", True), ("loading", "a_rate", True),
    ("loading", "b_scale", True), ("loading", "b_direction", False),
    ("loading", "b_ramp", False)])
def test_config_rejects_a_non_finite_trace_value(tmp_path, section, key,
                                                 scalar):
    """A NaN target would end the trace at its first record, a NaN Newton
    tolerance would stall it and an infinite target on the exact shear
    branch would never end it: every non-finite [continuation] and
    [loading] float is a config error that names its key."""
    for value in ("nan", "inf", "-inf"):
        raw = value if scalar else "0 %s 0" % value
        text = "[%s]\n%s = %s\n" % (section, key, raw)
        with pytest.raises(ConfigError, match="%s must be finite" % key):
            RunConfig.from_file(_write(tmp_path, text))


@pytest.mark.parametrize("key", ["extent", "star_origin"])
def test_config_rejects_a_non_finite_mesh_value(tmp_path, key):
    """An infinite extent would run NaN arithmetic and exit 3, and a NaN
    star origin would fail the star-shape check and still exit 0: every
    non-finite [mesh] float is a config error that names its key."""
    for value in ("nan", "inf", "-inf"):
        text = "[mesh]\n%s = 0.5 %s 0.5\n" % (key, value)
        with pytest.raises(ConfigError, match="%s must be finite" % key):
            RunConfig.from_file(_write(tmp_path, text))
        assert run(_write(tmp_path, text)) == EXIT_CONFIG


@pytest.mark.parametrize("keep_cell", [
    None, lambda c: not (c[0] > 2.0 and c[1] > 1.5)], ids=["box", "l_shape"])
def test_vertex_fields_read_the_q2_lattice_at_each_vertex(keep_cell):
    """The element-corner read gives the free displacement dofs of the Q2
    lattice node at each mesh vertex, and zero on the boundary."""
    mesh = build_box_mesh((4.0, 3.0, 2.0), (4, 3, 2), keep_cell=keep_cell)
    disc = Discretization(mesh)
    rng = np.random.default_rng(0)
    state = State(0.3, rng.standard_normal(disc.n_u),
                  rng.standard_normal(disc.n_p))
    program = LoadProgram(a_family='shear', a_rate=1.0)
    deformed, u_v, p_v = _vertex_fields(disc, state, program)

    full = np.zeros((disc.q2_interior.size, 3))
    full[disc.q2_interior >= 0] = state.u.reshape(-1, 3)
    lattice = {tuple(p): i for i, p in enumerate(disc.q2_lattice)}
    scaled = np.rint(2 * (mesh.nodes - mesh.origin) / mesh.spacing).astype(int)
    want = mesh.nodes @ program.a_matrix(0.3).T \
        + full[[lattice[tuple(s)] for s in scaled]]
    assert np.array_equal(deformed, want)
    assert np.array_equal(u_v, want - mesh.nodes)
    assert p_v is state.p


def test_config_material_is_checked_by_its_constructor(tmp_path):
    """[material] accepts what the model's constructor accepts: a
    Mooney-Rivlin solid with c1 = 0 is valid (k = 4 c2)."""
    text = "[material]\nmodel = mooney-rivlin\nc1 = 0\nc2 = 0.25\n"
    mat = RunConfig.from_file(_write(tmp_path, text)).material()
    assert (mat.c1, mat.c2, mat.k) == (0.0, 0.25, 1.0)
    for bad in ("model = mooney-rivlin\nc1 = 0\nc2 = 0\n", "mu = nan\n"):
        with pytest.raises(ConfigError):
            RunConfig.from_file(_write(tmp_path, "[material]\n" + bad))


@pytest.mark.parametrize("name, value, model", [
    ("mu", "nan", "neo-hookean"), ("mu", "inf", "neo-hookean"),
    ("c1", "nan", "mooney-rivlin"), ("c1", "inf", "mooney-rivlin"),
    ("c2", "nan", "mooney-rivlin"), ("c2", "inf", "mooney-rivlin")])
def test_config_rejects_a_non_finite_material_parameter(tmp_path, name, value,
                                                        model):
    """The constructor names a NaN or infinite parameter, with no numpy
    warning from a stress evaluated on it."""
    text = "[material]\nmodel = %s\n%s = %s\n" % (model, name, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="%s=%s" % (name, value)):
            RunConfig.from_file(_write(tmp_path, text))


def test_config_values_are_read_literally(tmp_path):
    """A '%' is a plain character, not an interpolation: it makes a bad
    number a ConfigError and stays in a path as written."""
    with pytest.raises(ConfigError):
        RunConfig.from_file(_write(tmp_path, "[material]\nmu = 1%\n"))
    cfg = RunConfig.from_file(_write(tmp_path, "[output]\ndirectory = out%1\n"))
    assert cfg["output", "directory"] == "out%1"


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(tmp_path / "absent.ini"))


def test_run_shear_study_end_to_end(tmp_path):
    cfg = _write(tmp_path, SHEAR_INI.format(out="out"))
    assert run(cfg) == EXIT_OK

    out = tmp_path / "out"
    names = sorted(os.listdir(out))
    assert "branch.csv" in names
    assert "summary.txt" in names
    assert "snapshot_0002.vtk" in names and "snapshot_0004.vtk" in names

    lines = (out / "branch.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) >= 3
    assert float(rows[0][0]) == 0.0
    assert abs(float(rows[-1][0]) - 1.0) < 1e-12
    assert max(float(r[1]) for r in rows) < 1e-10

    summary = (out / "summary.txt").read_text()
    for needle in ("star_shape: min=0.5 passed=True", "objectivity:",
                   "homotopy: det_sign=-1 certified=True",
                   "branch: status=completed",
                   "parity_events: 0", "probe_global_min:",
                   "probe_quasiconvexity:", "probe_uniqueness:",
                   "exit_code: 0"):
        assert needle in summary


def _shipped_config(tmp_path, name, probes=True, divisions=None, seed=0):
    """A copy of a demos/configs file that writes into tmp_path/out, on
    its own mesh or on divisions, with the probes' seed."""
    parser = configparser.ConfigParser()
    parser.read(os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                             "configs", name))
    parser["output"]["directory"] = str(tmp_path / "out")
    parser["probes"]["enabled"] = str(probes).lower()
    parser["probes"]["seed"] = str(seed)
    if divisions:
        parser["mesh"]["divisions"] = divisions
    cfg = tmp_path / name
    with open(cfg, "w") as fh:
        parser.write(fh)
    return str(cfg)


def test_run_dead_load_demo_writes_summary(tmp_path):
    """The shipped dead-load demo runs clean: the uniqueness probe counts a
    start that inverts an element as failed instead of letting it escape."""
    assert run(_shipped_config(tmp_path, "dead_load.ini")) == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "branch: status=completed" in summary
    assert "probe_uniqueness: converged=" in summary
    assert "exit_code: 0" in summary


def test_run_shear_demo_reports_the_homotopy_sign(tmp_path):
    """The homotopy line reads the origin's determinant sign from the
    trace's first record and certifies every blend from C(I)."""
    assert run(_shipped_config(tmp_path, "shear.ini", probes=False)) == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert "homotopy: det_sign=-1 certified=True alpha=1 div=0 " \
           "fit=0.000e+00" in summary


def test_run_redraws_a_uniqueness_start_outside_the_domain(tmp_path):
    """Seed 97 on the shipped 3^3 shear config draws one start with
    det(I + grad u) < 0 at a quadrature point.  It is drawn again, not
    counted as failed: every start converges and the probe passes."""
    assert run(_shipped_config(tmp_path, "shear.ini", seed=97)) == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "probe_uniqueness: converged=10 failed=0 inadmissible=1 " in summary
    assert "passed=False" not in summary


def _origin_trace(sign):
    record = BranchRecord(0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, sign, 0, 0.0)
    return BranchTrace([record], "completed", "reached lambda=0", None)


def test_homotopy_line_certifies_the_shipped_materials():
    for mat, moduli in ((NeoHookean(mu=1.0), "alpha=1 div=0"),
                        (MooneyRivlin(c1=0.5, c2=0.125), "alpha=1.25 div=0.25")):
        assert _homotopy_line(mat.elasticity(np.eye(3)), _origin_trace(-1)) \
            == "homotopy: det_sign=-1 certified=True %s fit=0.000e+00" % moduli


def test_homotopy_line_refuses_what_the_certificate_does_not_cover():
    """Materials whose C(I) has alpha <= 0, alpha + beta + gamma <= 0 or
    a nonzero fit to the isotropic form, and an origin of sign +1, read
    certified=False."""
    eye = np.eye(3)
    one = np.einsum('ij,kl->ijkl', eye, eye)
    tilt = NeoHookean(mu=1.0).elasticity(eye).copy()
    tilt[0, 0, 0, 0] += 1e-6
    for c_id, trace, text in (
            (-0.5 * identity4(), _origin_trace(-1), "alpha=-0.5 "),
            (identity4() - 2.0 * one, _origin_trace(-1), "alpha=1 div=-2 "),
            (tilt, _origin_trace(-1), "fit=1.000e-06"),
            (identity4(), _origin_trace(1), "det_sign=+1 ")):
        line = _homotopy_line(c_id, trace)
        assert "certified=False" in line and text in line, line


def test_run_reports_an_uncertified_homotopy_without_an_origin_record(
        tmp_path, monkeypatch):
    """If the origin's factorization fails, the trace has no record to
    read the sign from: the homotopy line says so, and the trace's stall
    decides the exit code."""
    singular_at_record(monkeypatch, 1)
    text = SHEAR_INI.format(out="out").replace("enabled = true",
                                               "enabled = false")
    assert run(_write(tmp_path, text)) == EXIT_STALL
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert "homotopy: det_sign=none certified=False alpha=1 div=0 " \
           "fit=0.000e+00 (no origin record: at lambda=0: singular " \
           "Jacobian: zero pivot at position 0)" in summary
    assert "branch: status=stall records=0 detail=at lambda=0: singular " \
           "Jacobian: zero pivot at position 0" in summary
    assert "exit_code: 3" in summary


def test_run_is_deterministic(tmp_path):
    c1 = _write(tmp_path, SHEAR_INI.format(out="out_a"), "a.ini")
    c2 = _write(tmp_path, SHEAR_INI.format(out="out_b"), "b.ini")
    assert run(c1) == EXIT_OK
    assert run(c2) == EXIT_OK
    csv_a = (tmp_path / "out_a" / "branch.csv").read_bytes()
    csv_b = (tmp_path / "out_b" / "branch.csv").read_bytes()
    assert csv_a == csv_b
    vtk_a = (tmp_path / "out_a" / "snapshot_0002.vtk").read_bytes()
    vtk_b = (tmp_path / "out_b" / "snapshot_0002.vtk").read_bytes()
    assert vtk_a == vtk_b


def test_run_config_error_exit_and_summary(tmp_path):
    cfg = _write(tmp_path, "[mesh]\ndivisions = 1 1 1\n")
    assert run(cfg) == EXIT_CONFIG
    summary = (tmp_path / "summary.txt").read_text()
    assert "status: config error" in summary
    assert "divisions" in summary
    assert run(str(tmp_path / "missing.ini")) == EXIT_CONFIG


def test_run_reports_a_non_utf8_config_as_a_config_error(tmp_path):
    """A config is read as UTF-8: a byte that does not decode, even in a
    comment, exits 2 with a summary next to the config, not a traceback."""
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"# \xff\n" + SHEAR_INI.format(out="out").encode())
    with pytest.raises(ConfigError, match="utf-8"):
        RunConfig.from_file(str(cfg))
    assert run(str(cfg)) == EXIT_CONFIG
    summary = (tmp_path / "summary.txt").read_text()
    assert "status: config error" in summary and "exit_code: 2" in summary
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out, extra, named", [
    ("blocker", "", "blocker"),
    ("out", "csv_name = sub/branch.csv\n", "sub/branch.csv"),
    ("out", "summary_name = sub/summary.txt\n", "sub/summary.txt")],
    ids=["directory", "csv_name", "summary_name"])
def test_run_reports_an_unusable_output_path_as_a_config_error(tmp_path, out,
                                                               extra, named):
    """An output directory that is a file, or a CSV or summary name with a
    directory in it, exits 2 before the trace, with the summary next to the
    config naming the path, and no traceback."""
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    assert run(_write(tmp_path, SHEAR_INI.format(out=out) + extra)) == EXIT_CONFIG
    summary = (tmp_path / "summary.txt").read_text()
    assert "status: config error" in summary and named in summary
    assert "exit_code: 2" in summary
    assert not (tmp_path / "out" / "sub").exists()


def test_run_reports_a_star_origin_outside_the_mesh(tmp_path):
    """An origin outside the mesh fails the star-shape audit in the
    summary; the trace still runs and decides the exit code."""
    text = SHEAR_INI.format(out="out").replace(
        "divisions = 2 2 2", "divisions = 2 2 2\nstar_origin = 5 5 5")
    text = text.replace("enabled = true", "enabled = false")
    assert run(_write(tmp_path, text)) == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "star_shape: origin outside the mesh passed=False" in summary
    assert "exit_code: 0" in summary


def test_uniqueness_probe_reads_the_configured_star_origin(tmp_path):
    """On a mesh centred at the origin, the default star_origin is a
    corner: the star-shape audit fails there, and the uniqueness probe,
    which certifies from the same point, reports its hypotheses as not
    certified."""
    text = SHEAR_INI.format(out="out").replace(
        "divisions = 2 2 2", "divisions = 2 2 2\ncenter_at_origin = true")
    text = text.replace("uniqueness_starts = 3", "uniqueness_starts = 1")
    assert run(_write(tmp_path, text)) == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert "star_shape: min=0 passed=False" in summary
    probe = [ln for ln in summary if ln.startswith("probe_uniqueness:")]
    assert probe[0].endswith("(hypotheses not certified "
                             "(star-shape check failed))")


def test_run_stall_exit(tmp_path):
    text = """
[material]
model = neo-hookean

[loading]
b_family = dead
b_scale = 3.0
b_direction = 1 0 0
b_ramp = 0 2 0

[mesh]
divisions = 2 2 2

[continuation]
lam_target = 1.0
ds0 = 0.05
ds_min = 0.04
newton_tol = 1e-14
newton_max_iter = 1
audit_dirs = 16

[probes]
enabled = false

[output]
directory = out
"""
    assert run(_write(tmp_path, text)) == EXIT_STALL
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "status: stall" in summary
    assert "exit_code: 3" in summary


def test_run_stall_exit_on_singular_jacobian_at_record(tmp_path, monkeypatch):
    singular_at_record(monkeypatch, 3)
    text = SHEAR_INI.format(out="out").replace("enabled = true",
                                               "enabled = false")
    assert run(_write(tmp_path, text)) == EXIT_STALL
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "branch: status=stall records=2" in summary
    assert "singular Jacobian" in summary
    assert "exit_code: 3" in summary


def test_run_stall_exit_on_value_error_at_record(tmp_path, monkeypatch):
    """A ValueError raised inside the trace is a failed record, not a
    configuration error: the branch stalls and the summary names it."""
    from elastobranch import continuation
    real = continuation.audit_state
    calls = [0]

    def fake(*args, **kwargs):
        calls[0] += 1
        if calls[0] > 1:
            raise ValueError("audit input out of range")
        return real(*args, **kwargs)

    monkeypatch.setattr(continuation, "audit_state", fake)
    text = SHEAR_INI.format(out="out").replace("enabled = true",
                                               "enabled = false")
    assert run(_write(tmp_path, text)) == EXIT_STALL
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "branch: status=stall records=1" in summary
    assert "ValueError: audit input out of range" in summary
    assert "exit_code: 3" in summary


def test_run_survives_a_singular_origin_jacobian_in_the_probe(tmp_path,
                                                             monkeypatch):
    """If the uniqueness probe cannot factor J(0), its starts run plain
    Newton; run still writes the probe line and summary.txt."""
    calls = _fail_origin_factorization(monkeypatch,
                                       SingularMatrixError("zero pivot"))
    assert run(_write(tmp_path, SHEAR_INI.format(out="out"))) == EXIT_OK
    assert calls[0] == 1
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "probe_uniqueness: converged=3 failed=0" in summary
    assert "exit_code: 0" in summary


@pytest.mark.parametrize("amplitude", [20, 100])
def test_run_passes_the_quasiconvexity_probe_at_large_amplitudes(tmp_path,
                                                                 amplitude):
    """A swirl of peak angle 20 or 100 rad neither inverts a point nor
    leaves the cube, so the probe gives its verdict.  The defect is the
    round-off of det3 on gradients of size |grad phi| ~ 25 and ~ 470:
    2.7e-13 and 1.6e-10."""
    text = SHEAR_INI.format(out="out").replace(
        "uniqueness_starts = 3",
        "uniqueness_starts = 3\nquasiconvexity_amplitude = %g" % amplitude)
    assert run(_write(tmp_path, text)) == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text()
    line = [ln for ln in summary.splitlines()
            if ln.startswith("probe_quasiconvexity:")]
    assert len(line) == 1 and line[0].endswith(" passed=True")
    assert float(line[0].split("defect=")[1].split()[0]) <= 1e-9
    assert "probe_uniqueness: converged=3 failed=0" in summary
    assert "exit_code: 0" in summary


def test_run_reports_a_failed_quasiconvexity_probe_at_a_huge_amplitude(tmp_path):
    """At a peak angle of 1e5 rad round-off takes grad phi out of det > 0:
    the probe line reads passed=False with its defect, and run keeps the
    trace's exit code and writes the summary."""
    text = SHEAR_INI.format(out="out").replace(
        "uniqueness_starts = 3",
        "uniqueness_starts = 3\nquasiconvexity_amplitude = 1e5")
    assert run(_write(tmp_path, text)) == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text()
    line = [ln for ln in summary.splitlines()
            if ln.startswith("probe_quasiconvexity:")]
    assert len(line) == 1 and line[0].endswith(" passed=False"), line
    assert float(line[0].split("defect=")[1].split()[0]) > 1e-3
    assert "exit_code: 0" in summary


def test_run_inversion_exit(tmp_path):
    text = """
[material]
model = neo-hookean

[loading]
b_family = dead
b_scale = 50.0
b_direction = 1 0 0
b_ramp = 0 4 0

[mesh]
divisions = 2 2 2

[continuation]
lam_target = 50
ds0 = 2.0
ds_min = 0.5
ds_max = 4.0
newton_max_iter = 8
audit_dirs = 16

[probes]
enabled = false

[output]
directory = out
"""
    assert run(_write(tmp_path, text)) == EXIT_INVERTED
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "status: inverted" in summary
    assert "exit_code: 4" in summary


def test_summarize_digest(tmp_path):
    row = ("0.5,1e-16,2e-16,3e-16,1,2.2e-16,0.99,0.43,-1,2,0.25")
    path = tmp_path / "branch.csv"
    path.write_text(CSV_HEADER + "\n" + row + "\n")
    text = summarize(str(path))
    assert text.splitlines() == [
        "records: 1",
        "branch_extent: lambda in [0.5, 0.5]",
        "monitors: min_detF=1 max_det_dev=2.200e-16 se_margin_min=0.99 "
        "adn_min=4.300e-01",
        "parity_events: 0 []"]

    path.write_text(CSV_HEADER + "\n")
    assert summarize(str(path)) == "no accepted steps"

    path.write_text("lambda,oops\n1,2\n")
    with pytest.raises(ConfigError):
        summarize(str(path))
    # a non-UTF-8 byte, and a field over csv's 131,072-character limit
    for bad in (row.rsplit(",", 2)[0], row.replace("0.99", "x"),
                row + ",7,8", row + "\xff", "1" * 131073):
        path.write_bytes((CSV_HEADER + "\n" + bad + "\n").encode("latin-1"))
        with pytest.raises(ConfigError):
            summarize(str(path))
    path.write_text("")
    with pytest.raises(ConfigError):
        summarize(str(path))


def test_summarize_reports_parity_events(tmp_path):
    rows = ["0,0,0,0,1,0,1,1,1,0,0",
            "0.5,0,0,0,1,0,1,1,-1,2,0.5"]
    path = tmp_path / "branch.csv"
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    text = summarize(str(path))
    assert "parity_events: 1 [(0.0, 0.5)]" in text.splitlines()


@pytest.mark.parametrize("name", ["shear.ini", "dead_load.ini"])
def test_summarize_prints_the_summary_lines_of_the_run(tmp_path, name):
    """summarize reads back from the CSV what run wrote for the branch:
    its record count, and after it lines that are verbatim in summary.txt."""
    assert run(_shipped_config(tmp_path, name, probes=False,
                               divisions="2 2 2")) == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    count, *lines = summarize(str(tmp_path / "out" / "branch.csv")).splitlines()
    branch = [ln for ln in summary if ln.startswith("branch:")][0]
    assert " records=%s " % count.split(": ")[1] in branch
    assert len(lines) == 3
    assert all(line in summary for line in lines)


def test_cli_process_contract(tmp_path):
    cfg = _write(tmp_path, SHEAR_INI.format(out="cli_out"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    r = subprocess.run([sys.executable, "-m", "elastobranch", "run", cfg],
                       capture_output=True, text=True, env=env)
    assert r.returncode == EXIT_OK

    csv_path = str(tmp_path / "cli_out" / "branch.csv")
    r = subprocess.run([sys.executable, "-m", "elastobranch", "summarize",
                        csv_path], capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert "monitors: min_detF=1 " in r.stdout

    r = subprocess.run([sys.executable, "-m", "elastobranch", "summarize",
                        str(tmp_path / "nope.csv")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == EXIT_CONFIG

    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n")
    r = subprocess.run([sys.executable, "-m", "elastobranch", "summarize",
                        str(empty)], capture_output=True, text=True, env=env)
    assert r.returncode == EXIT_CONFIG
    assert "no accepted steps" in r.stdout
