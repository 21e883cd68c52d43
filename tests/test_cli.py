import json
import os
import subprocess
import sys

import pytest

from quiverflow.errors import ConfigError
from quiverflow.runconfig import validate_config

from conftest import decoded_census_grid, per_cell_census_csv

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "quiverflow", "configs")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "quiverflow.cli", *args],
                          capture_output=True, text=True)


def config_path(name):
    return os.path.abspath(os.path.join(CONFIG_DIR, name))


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for fn in files:
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                out[rel] = fh.read()
    return out


def test_check_subcommand_passes(tmp_path):
    res = run_cli("check", "--config", config_path("a2_check.json"),
                  "--out", str(tmp_path / "arch"))
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "arch" / "outputs" / "checks.json").read_text())
    assert all(c["passed"] for c in doc["checks"])


def test_retract_archive_counts(tmp_path):
    res = run_cli("retract", "--config", config_path("slit_retract.json"),
                  "--out", str(tmp_path / "arch"))
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "arch" / "outputs" / "retract.json").read_text())
    assert doc["census_counts"]["base"]["low_with_unstable"] == 2
    assert doc["census_counts"]["base"]["high"] == 1
    assert doc["stable_under_refinement"]
    assert doc["condition4"]["slit_quotient"]["holds"] is False
    assert doc["condition4"]["slit_quotient"]["witness_sample"] is not None
    assert doc["condition4"]["smooth_saddle"]["holds"] is True


def test_retract_archive_stores_labels_once_and_export_renders_census(tmp_path):
    doc = json.load(open(config_path("slit_retract.json")))
    doc["params"]["grid"], doc["params"]["refine"] = [6, 8], [12, 16]
    small = tmp_path / "small.json"
    small.write_text(json.dumps(doc))
    arch = tmp_path / "arch"
    res = run_cli("retract", "--config", str(small), "--out", str(arch))
    assert res.returncode == 0, res.stderr
    assert os.listdir(arch / "outputs") == ["retract.json"]
    res = run_cli("export", "--archive", str(arch), "--what", "census")
    assert res.returncode == 0, res.stderr
    for name in ("low_with_unstable", "high"):
        lines = (arch / "outputs" / f"census_{name}.csv").read_text().splitlines()
        assert lines[0] == "rho,theta,in_set,component_id"
        assert len(lines) == 1 + 6 * 8


def test_malformed_config_names_field(tmp_path):
    doc = json.load(open(config_path("a2_check.json")))
    doc["dims"]["2"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("check", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2
    assert "dims.2" in res.stderr


def test_wrong_subcommand_for_config(tmp_path):
    res = run_cli("flow", "--config", config_path("a2_check.json"),
                  "--out", str(tmp_path / "arch"))
    assert res.returncode == 2
    assert "experiment" in res.stderr


def test_missing_alpha_entry_is_named(tmp_path):
    doc = json.load(open(config_path("a2_check.json")))
    del doc["alpha"]["2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("check", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2
    assert "alpha.2" in res.stderr


def test_flow_archive_and_reexport_identical(tmp_path):
    arch = tmp_path / "arch"
    res = run_cli("flow", "--config", config_path("jordan2_flow.json"),
                  "--out", str(arch))
    assert res.returncode == 0, res.stderr
    csv_path = arch / "outputs" / "trace_000.csv"
    before = csv_path.read_bytes()
    header = before.decode().splitlines()[0]
    assert header.startswith("t,f,gradnorm,")
    assert "cyc:trx:re" in header and "rel:comm" in header

    res2 = run_cli("export", "--archive", str(arch), "--what", "trace")
    assert res2.returncode == 0, res2.stderr
    assert csv_path.read_bytes() == before


def test_export_missing_artifact(tmp_path):
    arch = tmp_path / "arch"
    res = run_cli("flow", "--config", config_path("jordan2_flow.json"),
                  "--out", str(arch))
    assert res.returncode == 0
    res2 = run_cli("export", "--archive", str(arch), "--what", "census")
    assert res2.returncode == 1
    assert "retract.json" in res2.stderr


def test_seed_override_recorded_and_changes_outputs(tmp_path):
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    base = config_path("a2_strata.json")
    assert run_cli("strata", "--config", base, "--out", str(a)).returncode == 0
    assert run_cli("strata", "--config", base, "--out", str(b),
                   "--seed-override", "99").returncode == 0
    assert run_cli("strata", "--config", base, "--out", str(c),
                   "--seed-override", "99").returncode == 0
    snap_b = json.loads((b / "config.json").read_text())
    assert snap_b["seed"] == 99
    assert read_tree(b / "outputs") == read_tree(c / "outputs")
    assert read_tree(a / "outputs") != read_tree(b / "outputs")


def test_check_exit_three_on_violation(tmp_path):
    # max_time too small for any level crossing: the contract check fails
    doc = json.load(open(config_path("a2_check.json")))
    doc["integrator"]["max_time"] = 1e-7
    bad = tmp_path / "weak.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("check", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 3
    assert "invariant violations" in res.stderr


def test_missing_experiment_params_named(tmp_path):
    doc = json.load(open(config_path("product_broken.json")))
    del doc["params"]["levels"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("broken", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2
    assert "params.levels" in res.stderr


def test_runtime_failure_exit_code(tmp_path):
    # an anchor that is not on the stated level is a runtime failure of the
    # lines experiment, reported with exit 1 and a failure record
    doc = json.load(open(config_path("a2_lines.json")))
    doc["params"]["z"] = 0.123
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("lines", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 0      # per-anchor errors are reported in-line
    doc2 = json.loads((tmp_path / "arch" / "outputs" / "lines.json").read_text())
    assert all(e["status"] == "error" for e in doc2["lines"])


def test_export_checkpoints_and_slice(tmp_path):
    arch_b = tmp_path / "broken"
    res = run_cli("broken", "--config", config_path("product_broken.json"),
                  "--out", str(arch_b))
    assert res.returncode == 0, res.stderr
    res = run_cli("export", "--archive", str(arch_b), "--what", "checkpoints")
    assert res.returncode == 0
    body = (arch_b / "outputs" / "checkpoints.csv").read_text()
    assert body.splitlines()[0] == "member,param,level,coord_index,value"

    arch_s = tmp_path / "slice"
    res = run_cli("slice", "--config", config_path("a2_slice.json"),
                  "--out", str(arch_s))
    assert res.returncode == 0, res.stderr
    res = run_cli("export", "--archive", str(arch_s), "--what", "slice")
    assert res.returncode == 0
    body = (arch_s / "outputs" / "slice.csv").read_text()
    assert body.splitlines()[0].startswith("vector_index,coord_0")
    assert len(body.splitlines()) == 3          # header + two fiber vectors


def test_strict_escalates_census_instability(tmp_path):
    doc = json.load(open(config_path("slit_retract.json")))
    doc["params"]["grid"] = [4, 8]
    doc["params"]["refine"] = [8, 16]
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps(doc))
    res = run_cli("retract", "--config", str(coarse), "--out", str(tmp_path / "a"))
    assert res.returncode == 0
    assert "census unstable" in res.stderr
    res2 = run_cli("retract", "--config", str(coarse), "--out", str(tmp_path / "b"),
                   "--strict")
    assert res2.returncode == 1


def test_bad_retract_grid_is_a_config_error(tmp_path):
    for key, grid in (("grid", [40, 41]), ("grid", [0, 40]), ("refine", [80, 80.0])):
        doc = json.load(open(config_path("slit_retract.json")))
        doc["params"][key] = grid
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        res = run_cli("retract", "--config", str(bad), "--out", str(tmp_path / "arch"))
        assert res.returncode == 2, (grid, res.stderr)
        assert f"params.{key}" in res.stderr


def test_failed_run_keeps_config_snapshot(tmp_path):
    # too short a time cap for the broken-line family: the run fails, and the
    # archive still holds the snapshot that reproduces the failure
    doc = json.load(open(config_path("product_broken.json")))
    doc["integrator"]["max_time"] = 1e-3
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(doc))
    arch = tmp_path / "arch"
    res = run_cli("broken", "--config", str(bad), "--out", str(arch))
    assert res.returncode == 1
    assert json.loads((arch / "config.json").read_text()) == doc
    assert (arch / "outputs" / "failure.json").exists()


def test_negative_slice_eps_is_a_config_error(tmp_path):
    # before validation every seed started past the level f_crit - eps, and
    # the run exited 0 with bounded false
    doc = json.load(open(config_path("a2_slice.json")))
    doc["params"]["eps"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("slice", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2, res.stderr
    assert "params.eps" in res.stderr


def test_zero_trials_without_points_is_a_config_error(tmp_path):
    # before validation the battery had no point to flow and exited 1 (IndexError)
    doc = json.load(open(config_path("a2_check.json")))
    doc["params"]["trials"] = 0
    del doc["points"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("check", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2, res.stderr
    assert "params.trials" in res.stderr


def test_sweep_params_are_validated():
    base = {name: json.load(open(config_path(f"{name}.json")))
            for name in ("a2_slice", "a3_variety", "a2_check", "slit_retract", "a2_critical",
                         "jordan2_flow", "a2_lines", "a2_strata")}
    for name, key, value in (("a2_slice", "eps", 0), ("a3_variety", "eps", -0.4),
                             ("a3_variety", "eps", "0.4"), ("a2_slice", "eps", True),
                             ("a2_slice", "seeds", -1), ("a3_variety", "seeds", 2.0),
                             ("a2_check", "trials", True), ("a2_check", "trials", -3),
                             ("a3_variety", "residual_tol", -1), ("a3_variety", "residual_tol", 0),
                             ("a3_variety", "residual_tol", float("inf")),
                             ("a2_critical", "refine_tol", -1), ("a2_slice", "refine_tol", "1e-10"),
                             ("a2_critical", "refine_tol", float("nan")),
                             ("jordan2_flow", "state_stride", 0), ("jordan2_flow", "state_stride", "x"),
                             ("jordan2_flow", "state_stride", 2.0), ("a2_lines", "z", "high"),
                             ("a2_lines", "z", float("inf")), ("slit_retract", "eps", 0),
                             ("slit_retract", "delta", 0), ("slit_retract", "rho_max", -3),
                             ("slit_retract", "rho_max", True), ("a2_slice", "boundedness", "false"),
                             ("a2_slice", "boundedness", 0), ("a2_slice", "epss", 2.0),
                             ("a2_strata", "refine_tol", 1e-3)):
        doc = json.loads(json.dumps(base[name]))
        doc["params"][key] = value
        with pytest.raises(ConfigError) as info:
            validate_config(doc)
        assert info.value.field == f"params.{key}", (name, key, value)
    for name, key, value in (("a2_slice", "eps", 2), ("a3_variety", "seeds", 0),
                             ("a2_check", "trials", 1), ("slit_retract", "eps", 0.1),
                             ("a3_variety", "residual_tol", 1e-9), ("a2_critical", "refine_tol", 1),
                             ("a2_slice", "refine_tol", 1e-12), ("jordan2_flow", "state_stride", 1),
                             ("a2_lines", "z", -0.5), ("slit_retract", "delta", 0.25),
                             ("slit_retract", "rho_max", 2), ("a2_slice", "boundedness", False)):
        doc = json.loads(json.dumps(base[name]))
        doc["params"][key] = value
        validate_config(doc)


@pytest.mark.parametrize("key, value", [
    # before validation each exited 1 with a bare KeyError, IndexError or ValueError
    ("varying_edge", "zz"), ("fixed", {}), ("fixed", {"a": [0.35]}),
    ("varying_direction", [1]), ("scales", []), ("levels", ["a"]), ("limit_scale", "x"),
])
def test_bad_broken_params_are_config_errors(tmp_path, key, value):
    doc = json.load(open(config_path("product_broken.json")))
    doc["params"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("broken", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2, res.stderr
    assert f"params.{key}" in res.stderr


@pytest.mark.parametrize("key", ["probe_width", "saddle_probe_width"])
@pytest.mark.parametrize("value", ["x", -1.0])
def test_probe_widths_are_validated(tmp_path, key, value):
    # before validation "x" exited 1 after both censuses had run, and -1.0
    # exited 0 with a condition-4 verdict over a negative width
    doc = json.load(open(config_path("slit_retract.json")))
    doc["params"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("retract", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2, res.stderr
    assert f"params.{key}" in res.stderr


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("name, edit, field", [
    ("jordan2_flow", _set(["dims", "v"], 10), "dims"),
    ("a3_variety", _set(["relations", 0, "terms", 0, "path"], ["b", "a"]), "relations.0"),
    ("a3_variety", _set(["relations", 0, "terms", 0, "coef"], [float("nan"), 0.0]),
     "relations.0"),
    ("a2_check", _set(["cycles"], [{"name": "open", "path": ["a"]}]), "cycles.0"),
    ("a2_lines", _set(["points", "values", 0, "a"], [[[1.0, 0.0], [2.0, 0.0]]]),
     "points.values.0.a"),
    ("jordan2_flow", _set(["points", "values", 0, "x"], [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]]),
     "points.values.0.x"),
    ("a2_check", _set(["alpha", "2"], float("inf")), "alpha.2"),
    ("a2_check", _set(["integrator", "min_step"], 1e7), "integrator"),
    ("slit_retract", _set(["integrator"], {"min_step": 1.0, "max_step": 0.5}), "integrator"),
    ("a2_check", _set(["points", "scale"], float("inf")), "points.scale"),
], ids=["tensor_size", "relation_path", "relation_coef", "open_cycle", "block_shape", "ragged_block",
        "alpha", "step_bounds", "retract_step_bounds", "point_scale"])
def test_constructor_rejections_are_config_errors(tmp_path, name, edit, field):
    # each passed validation and then failed inside the run (exit 1): the oversize
    # moment tensor wrote failure.json, the others raised from build_model; a
    # retract model builds its integrator only from a section that is present
    doc = json.load(open(config_path(f"{name}.json")))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(doc["experiment"], "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2, res.stderr
    assert f"config field {field}:" in res.stderr
    assert not (tmp_path / "arch" / "outputs" / "failure.json").exists()


def test_broken_needs_scalar_blocks(tmp_path):
    # before validation the 1x1 family blocks failed the dims-2 shape check (exit 1)
    doc = json.load(open(config_path("product_broken.json")))
    doc["dims"]["2"] = 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("broken", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2, res.stderr
    assert "dims.2" in res.stderr


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_override_is_validated(tmp_path, seed):
    # before, the override skipped validation and rng_for raised OverflowError (exit 1)
    res = run_cli("strata", "--config", config_path("a2_strata.json"),
                  "--out", str(tmp_path / "arch"), "--seed-override", seed)
    assert res.returncode == 2, res.stderr
    assert "config field seed:" in res.stderr
    assert not (tmp_path / "arch" / "outputs" / "failure.json").exists()


@pytest.mark.parametrize("edit, field", [
    (_set(["integrator", "max_steps"], 200000.0), "integrator.max_steps"),
    (_set(["integrator", "stall_window"], 5.0), "integrator.stall_window"),
    (_set(["dims", "1"], 1.0), "dims.1"),
    (_set(["points", "count"], 2.0), "points.count"),
    (_set(["seed"], 2.0), "seed"),
    (_set(["seed"], 2 ** 64), "seed"),
], ids=["max_steps", "stall_window", "dims", "count", "float_seed", "big_seed"])
def test_integers_are_json_integers_and_seeds_fit_64_bits(tmp_path, edit, field):
    # each passed validation: max_steps exited 1 mid-run ("'float' object cannot be
    # interpreted as an integer") and 2**64 with an OverflowError traceback from rng_for
    doc = json.load(open(config_path("a2_strata.json")))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("strata", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2, res.stderr
    assert f"config field {field}:" in res.stderr
    assert not (tmp_path / "arch" / "outputs" / "failure.json").exists()


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc["relations"].append(doc["relations"][0]), "relations.1.name"),
    (_set(["cycles", 1, "name"], "trx"), "cycles.1.name"),
], ids=["relation", "cycle"])
def test_repeated_monitor_names_are_config_errors(tmp_path, edit, field):
    # each passed validation, and the trace kept one column for the two monitors
    doc = json.load(open(config_path("jordan2_flow.json")))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("flow", "--config", str(bad), "--out", str(tmp_path / "arch"))
    assert res.returncode == 2, res.stderr
    assert f"config field {field}:" in res.stderr
    assert not (tmp_path / "arch" / "outputs" / "failure.json").exists()


def _grid(rows=3, cols=4, **runs):
    """A census grid of one component, its labels as runs (``runs`` replaces them)."""
    return {"count": 1, "rho": [0.5 * i for i in range(rows)],
            "theta": [1.5 * j for j in range(cols)],
            **(runs or {"label_values": [0, 1], "label_lengths": [5, rows * cols - 5]})}


@pytest.mark.parametrize("retract_json", [
    json.dumps({"census_grids": {"high": {**_grid(), "theta": [0.0, 1.5, 3.0]}}}),
    json.dumps({"census_grids": {"high": _grid(label_values=[0], label_lengths=[4])}}),
    json.dumps({"census_grids": {"high": _grid(label_values=[0, 1],
                                               label_lengths=[[4, 4], [4]])}}),
    json.dumps({"census_grids": {"high": _grid()}})[:-20],
], ids=["short_theta", "missing_rows", "ragged_rows", "truncated_json"])
def test_export_refuses_a_malformed_census(tmp_path, retract_json):
    # before, a short theta axis or missing label rows were silently truncated
    # (exit 0), and ragged rows or broken JSON raised a traceback
    (tmp_path / "outputs").mkdir()
    (tmp_path / "outputs" / "retract.json").write_text(retract_json)
    res = run_cli("export", "--archive", str(tmp_path), "--what", "census")
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert not (tmp_path / "outputs" / "census_high.csv").exists()



def test_export_census_of_the_bundled_config_matches_per_cell_formatter(tmp_path):
    arch = tmp_path / "arch"
    res = run_cli("retract", "--config", config_path("slit_retract.json"), "--out", str(arch))
    assert res.returncode == 0, res.stderr
    res = run_cli("export", "--archive", str(arch), "--what", "census")
    assert res.returncode == 0, res.stderr
    doc = json.loads((arch / "outputs" / "retract.json").read_text())
    assert sorted(doc["census_grids"]) == ["high", "low_with_unstable"]
    for name, grid in doc["census_grids"].items():
        got = (arch / "outputs" / f"census_{name}.csv").read_bytes()
        assert got == per_cell_census_csv(decoded_census_grid(grid)).encode()


@pytest.mark.parametrize("what, name, doc, key", [
    ("census", "retract.json",
     {"census_grids": {"high": {k: v for k, v in _grid().items() if k != "label_values"}}},
     "'label_values'"),
    ("trace", "traces.json",
     {"traces": [{"t": [0.0], "f": [1.0], "gradnorm": [0.5], "monitor_values": []}]},
     "'monitor_names'"),
    # a grid archived before the labels were stored as runs has no read path
    ("census", "retract.json",
     {"census_grids": {"high": _grid(labels=[[0] * 4] * 3)}}, "'label_values'"),
], ids=["census_without_labels", "trace_without_monitor_names", "census_with_per_cell_labels"])
def test_export_names_a_missing_key(tmp_path, what, name, doc, key):
    # before, the first two ended in a KeyError traceback
    (tmp_path / "outputs").mkdir()
    (tmp_path / "outputs" / name).write_text(json.dumps(doc))
    res = run_cli("export", "--archive", str(tmp_path), "--what", what)
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert f"lacks the key {key}" in res.stderr
    assert os.listdir(tmp_path / "outputs") == [name]


@pytest.mark.parametrize("what, name, doc, message", [
    ("census", "retract.json", [{"census_grids": {"high": _grid()}}], "not an object"),
    ("trace", "traces.json",
     {"traces": [{"t": [0.0, 1.0], "f": [1.0], "gradnorm": [0.5, 0.25],
                  "monitor_names": [], "monitor_values": []}]}, "trace columns"),
    ("census", "retract.json",
     {"census_grids": {"high": _grid(label_values=["a"], label_lengths=[12])}},
     "census label_values are not integers"),
    ("census", "retract.json", {"census_grids": [1, 2]}, "census_grids is a JSON list"),
    ("census", "retract.json", {"census_grids": {"high": [1]}},
     "census grid 'high' is a JSON list"),
    ("trace", "traces.json", {"traces": [[0.0]]}, "trace 0 is a JSON list"),
    ("slice", "slice.json", {"fiber": {"dim": 2, "basis": [[0.5, 0.25]]}},
     "fiber basis has 1 rows, not 2"),
    ("slice", "slice.json", {"fiber": {"dim": 1, "basis": [5]}},
     "fiber basis row 0 is a JSON int, not an array"),
    ("checkpoints", "broken.json",
     {"levels": [1.5, 0.5], "params": [0.1], "checkpoints": [[[0.5, 0.25]]]},
     "checkpoints has 1 rows, not 2"),
    ("trace", "traces.json", {"traces": 5}, "traces is a JSON int, not an array"),
    ("checkpoints", "broken.json", {"levels": [1.5], "params": [0.1], "checkpoints": [[7]]},
     "a checkpoint in row 0 is a JSON int, not an array"),
    # one case per refusal rule of the label runs
    ("census", "retract.json",
     {"census_grids": {"high": _grid(label_values=[0, 1], label_lengths=[12])}},
     "census label_values has 2 runs, label_lengths 1"),
    ("census", "retract.json",
     {"census_grids": {"high": _grid(label_values=[0, 1, 0], label_lengths=[6, -1, 7])}},
     "census label_lengths holds -1, not a positive length"),
    ("census", "retract.json",
     {"census_grids": {"high": _grid(label_values=[0, 1], label_lengths=[12, 0])}},
     "census label_lengths holds 0, not a positive length"),
    ("census", "retract.json",
     {"census_grids": {"high": _grid(label_values=[0], label_lengths=[12.0])}},
     "census label_lengths are not integers"),
    ("census", "retract.json",
     {"census_grids": {"high": _grid(label_values=[0.5], label_lengths=[12])}},
     "census label_values are not integers"),
    ("census", "retract.json",
     {"census_grids": {"high": _grid(label_values=[0, 1], label_lengths=[5, 6])}},
     "census label_lengths sum to 11, not the 3 x 4 cells of rho and theta"),
    # one case per renderer of a cell that is not a number
    ("trace", "traces.json",
     {"traces": [{"t": ["a"], "f": [1.0], "gradnorm": [0.5],
                  "monitor_names": [], "monitor_values": []}]},
     "a CSV cell holds 'a', not a number"),
    ("census", "retract.json", {"census_grids": {"high": {**_grid(), "rho": [0.0, None, 1.0]}}},
     "a CSV cell holds None, not a number"),
    ("checkpoints", "broken.json",
     {"levels": [1.5], "params": [0.1], "checkpoints": [[[0.5, "x"]]]},
     "a CSV cell holds 'x', not a number"),
    ("slice", "slice.json", {"fiber": {"dim": 1, "basis": [[0.5, [0.25]]]}},
     "a CSV cell holds [0.25], not a number"),
], ids=["top_level_list", "short_f_column", "string_labels", "grids_list", "grid_list",
        "trace_list", "short_basis", "basis_row_number", "short_checkpoints", "traces_number",
        "checkpoint_number", "unequal_runs", "negative_length", "zero_length",
        "float_lengths", "float_labels", "short_runs", "string_time", "null_rho",
        "string_checkpoint_value", "array_basis_value"])
def test_export_refuses_a_malformed_shape(tmp_path, what, name, doc, message):
    # before, these raised AttributeError, IndexError, TypeError and ValueError
    # tracebacks, or (a negative or zero length, float runs) rendered a CSV
    (tmp_path / "outputs").mkdir()
    (tmp_path / "outputs" / name).write_text(json.dumps(doc))
    res = run_cli("export", "--archive", str(tmp_path), "--what", what)
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert message in res.stderr
    assert os.listdir(tmp_path / "outputs") == [name]
