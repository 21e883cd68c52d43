"""The benchmark tracer's hook points still name live code paths.

``perfbench/tracer.py`` wraps kernel methods and public functions by name;
if a refactor renames or bypasses one of them, the per-layer metrics read
zero without any error.  The tracer patches the package in place, so the
check runs in a subprocess and cannot leak into other tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys, tempfile
root = sys.argv[1]
sys.path[:0] = [root + "/perfbench", root + "/src"]
import tracer
from quiverflow import runconfig, runner
spans = tracer.install(tracer.Tracer("hooks"))
doc = runconfig.load_config(root + "/src/quiverflow/configs/a2_critical.json")
doc["points"]["count"] = 1
# stop the flow early so that refine_critical takes Newton steps
doc["integrator"]["grad_stop"] = 1e-4
with tempfile.TemporaryDirectory() as out:
    runner.run_experiment(runconfig.build_model(doc), out)
doc = runconfig.load_config(root + "/src/quiverflow/configs/slit_retract.json")
doc["params"]["grid"] = [8, 16]
doc["params"]["refine"] = [16, 32]
with tempfile.TemporaryDirectory() as out:
    runner.run_experiment(runconfig.build_model(doc), out)
doc = runconfig.load_config(root + "/src/quiverflow/configs/product_broken.json")
doc["params"]["scales"] = doc["params"]["scales"][:2]
doc["params"]["levels"] = doc["params"]["levels"][:1]
with tempfile.TemporaryDirectory() as out:
    runner.run_experiment(runconfig.build_model(doc), out)
calls = {}
for nid in spans.span_name:
    calls[spans.names[nid]] = calls.get(spans.names[nid], 0) + 1
print(json.dumps({"calls": calls, "counters": spans.counters}))
"""


def test_tracer_hooks_see_the_kernel():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    calls = out["calls"]
    for name in ("moment.velocity_flat", "moment.f_flat", "quiver.unflatten",
                 "moment.hessian_matrix", "retract.connectivity_census",
                 "flow.trace_crossings"):
        assert calls.get(name, 0) > 0, name
    # two sublevels on the base and the refined grid
    assert out["counters"]["retract.census_cells"] == 2 * (8 * 16 + 16 * 32)
