"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench

The traced-worker tests start real worker processes on the two
workloads that BENCHMARK.json lists (``flows`` runs the other three) and
take about three minutes on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_configs_repeat_and_validate(name):
    from quiverflow.runconfig import validate_config

    wl = workloads.WORKLOADS[name]
    docs = wl.configs(workloads.DEFAULT_SEED)
    assert json.dumps(docs) == json.dumps(wl.configs(workloads.DEFAULT_SEED))
    for doc in docs:
        validate_config(doc)
    assert json.dumps(docs) != json.dumps(wl.configs(workloads.HELDOUT_SEED))


def test_self_time_subtracts_direct_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> a [5, 6]
    spans = {"name": np.array([0, 1, 2, 1], dtype=np.int32),
             "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
             "start": np.array([0.0, 1.0, 2.0, 5.0]),
             "end": np.array([10.0, 4.0, 3.0, 6.0]),
             "names": ["runner.run_experiment", "flow.integrate", "moment.velocity_flat"],
             "counters": {"flow.integrate.accepted_steps": 4, "flow.integrate.useful": 1,
                          "archive.write_text.bytes": 0, "retract.census_cells": 0}}
    m = tracer.layer_metrics(spans)
    assert m["runner.run_experiment.self_s"] == pytest.approx(6.0)
    assert m["flow.integrate.self_s"] == pytest.approx(3.0)
    assert m["flow.integrate.calls"] == 2
    assert m["moment.velocity_flat.self_s"] == pytest.approx(1.0)
    assert m["flow.integrate.useful_ratio"] == pytest.approx(0.5)
    assert m["flow.field_evals_per_step"] == pytest.approx(0.25)


def _worker(tmp_path, name, tag, traced):
    out = tmp_path / tag
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(workloads.DEFAULT_SEED), "--out", str(out),
           "--t0", repr(time.perf_counter())]
    if traced:
        cmd += ["--trace", tag]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sample["error"] is None, sample["error"]
    assert sample["verdicts"] and all(sample["verdicts"].values()), sample["verdicts"]
    if traced:
        sample["layers"] = tracer.layer_metrics(tracer.load_spans(str(out / "spans.npz")))
    return sample


@pytest.mark.parametrize("name", ["flows", "census"])
def test_tracing_is_transparent_and_counts_repeat(tmp_path, name):
    plain = _worker(tmp_path, name, "plain", traced=False)
    first = _worker(tmp_path, name, "traced1", traced=True)
    second = _worker(tmp_path, name, "traced2", traced=True)
    # traced archives (config.json and outputs/) match the untraced one byte for byte
    assert first["archive_sha256"] == plain["archive_sha256"]
    assert second["archive_sha256"] == plain["archive_sha256"]
    assert first["verdicts"] == plain["verdicts"] == second["verdicts"]
    for key in tracer.EXACT:
        assert first["layers"][key] == second["layers"][key], key
    layers = first["layers"]
    assert layers["archive.write_text.calls"] > 0
    assert layers["runner.run_experiment.self_s"] > 0
    assert layers["runconfig.validate_config.self_s"] > 0
    if name == "census":
        assert layers["flow.integrate.calls"] == 0
        assert layers["retract.census_cells"] == workloads.WORKLOADS[name].units
    else:
        # integrate is imported by name into runner, strata, critical and checks
        assert layers["flow.integrate.calls"] > 0
        assert layers["moment.velocity_flat.calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
