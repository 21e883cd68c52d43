"""``tools/archive_drift.py`` finds differences planted in a copy of a bundled archive.

The oracle is the plant itself: each changed leaf is known, so the report
must name exactly those numeric paths with exactly those changes, and
exactly those structural differences.
"""

import importlib.util
import json
import os
import shutil

import pytest

from quiverflow.runconfig import build_model, load_config
from quiverflow.runner import run_experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "src", "quiverflow", "configs")


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "archive_drift", os.path.join(ROOT, "tools", "archive_drift.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("drift") / "a"
    run_experiment(build_model(load_config(os.path.join(CONFIGS, "jordan2_flow.json"))), str(out))
    return out


def edit_json(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def edit_csv_cell(path, row, col, value):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    old, cells[col] = cells[col], value
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return float(old)


def test_an_identical_copy_has_no_drift(archive, tmp_path):
    tool = load_tool()
    copy = tmp_path / "b"
    shutil.copytree(archive, copy)
    edit_json(copy / "meta.json", lambda doc: doc.update(wall_s=-1.0))     # never compared
    drift, n_files = tool.compare_trees(str(archive), str(copy))
    assert n_files == 3 and drift.structural == []
    assert drift.numeric and all(v == [0.0, 0.0] for v in drift.numeric.values())
    assert tool.main([str(archive), str(copy)]) == 0


def test_planted_numeric_changes_are_measured_and_exit_zero(archive, tmp_path, capsys):
    tool = load_tool()
    copy = tmp_path / "b"
    shutil.copytree(archive, copy)
    traces = copy / "outputs" / "traces.json"
    with open(traces) as fh:
        t3 = json.load(fh)["traces"][0]["t"][3]
    edit_json(traces, lambda doc: doc["traces"][0]["t"].__setitem__(3, 2.0 * t3))
    old = edit_csv_cell(copy / "outputs" / "trace_000.csv", 5, 1, "-1.5")
    drift, _ = tool.compare_trees(str(archive), str(copy))
    moved = {k: v for k, v in drift.numeric.items() if v[0] > 0.0}
    assert moved == {("outputs/traces.json", "traces[].t[]"): [abs(t3), 1.0 / 2.0],
                     ("outputs/trace_000.csv", "f"): [abs(old + 1.5), abs(old + 1.5) / abs(old)]}
    assert drift.structural == []
    assert tool.main([str(archive), str(copy)]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("summary: 3 files") and "2 moved" in summary
    assert summary.endswith(", 0 structural differences")


def test_planted_structural_changes_are_listed_and_exit_one(archive, tmp_path, capsys):
    tool = load_tool()
    copy = tmp_path / "b"
    shutil.copytree(archive, copy)

    def plant(doc):
        tr = doc["traces"][0]
        tr["status"] = "max_time"
        del tr["state_stride"]
        tr["f"].append(0.0)
        tr["direction"] = True
        tr["new_key"] = None

    edit_json(copy / "outputs" / "traces.json", plant)
    csv_path = copy / "outputs" / "trace_000.csv"
    with open(csv_path) as fh:
        text = fh.read()
    with open(csv_path, "w") as fh:
        fh.write(text.replace("t,f,gradnorm", "t,f,grad", 1))
    (copy / "outputs" / "extra.txt").write_text("x\n")
    os.remove(copy / "config.json")
    drift, _ = tool.compare_trees(str(archive), str(copy))
    assert sorted(drift.structural) == sorted([
        ("config.json", "(file)", "only in A"),
        ("outputs/extra.txt", "(file)", "only in B"),
        ("outputs/trace_000.csv", "gradnorm", "column only in A"),
        ("outputs/trace_000.csv", "grad", "column only in B"),
        ("outputs/traces.json", "traces[0].direction", "type number -> bool"),
        ("outputs/traces.json", "traces[0].f", "length 48 -> 49"),
        ("outputs/traces.json", "traces[0].new_key", "key only in B"),
        ("outputs/traces.json", "traces[0].state_stride", "key only in A"),
        ("outputs/traces.json", "traces[0].status", "string 'converged' -> 'max_time'"),
    ])
    assert all(v == [0.0, 0.0] for v in drift.numeric.values())
    assert tool.main([str(archive), str(copy)]) == 1
    out = capsys.readouterr().out
    assert "  outputs/traces.json  traces[0].status  string 'converged' -> 'max_time'" in out
    assert out.splitlines()[-1].endswith(", 9 structural differences")


def test_a_usage_error_exits_two(archive, tmp_path):
    tool = load_tool()
    assert tool.main([str(archive)]) == 2
    assert tool.main([str(archive), str(tmp_path / "missing")]) == 2
