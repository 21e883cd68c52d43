"""One benchmark sample, in a fresh process: set up, run, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --t0 T --out DIR [--trace RUN_ID]

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, the package import, schema validation and
``build_model``.  Each of the workload's experiments then runs through
``runner.run_experiment`` with ``threads=1`` into ``DIR/archive_<k>``.
With ``--trace`` the package is wrapped in spans first and the spans are
written to ``DIR/spans.npz`` at exit.  The last line printed is one JSON
object with the sample's measurements and oracle verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def archive_digest(archives):
    """sha256 and byte count of config.json and outputs/, meta.json excluded."""
    digest = hashlib.sha256()
    total = 0
    for k, archive in enumerate(archives):
        for dirpath, dirnames, files in os.walk(archive):
            dirnames.sort()
            for fn in sorted(files):
                if fn == "meta.json":
                    continue
                path = os.path.join(dirpath, fn)
                with open(path, "rb") as fh:
                    data = fh.read()
                total += len(data)
                digest.update(f"{k}/{os.path.relpath(path, archive)}\0".encode())
                digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), total


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None, help="run id; enables span tracing")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from quiverflow import runconfig, runner

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace is not None:
        import tracer as tracing
        tracer = tracing.install(tracing.Tracer(args.trace))

    docs = workload.configs(args.seed)
    models = []
    for doc in docs:
        runconfig.validate_config(doc)
        models.append(runconfig.build_model(doc))
    setup_s = time.perf_counter() - args.t0

    archives = [os.path.join(args.out, f"archive_{k}") for k in range(len(models))]
    result = {"setup_s": setup_s, "error": None}
    wall_s = cpu_s = 0.0
    try:
        for model, archive in zip(models, archives):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            runner.run_experiment(model, archive, threads=1)
            wall_s += time.perf_counter() - wall0
            cpu_s += time.process_time() - cpu0
        verdicts = workload.oracle(docs, archives)
    except Exception:  # a failed sample is reported, and counted as failed in full
        result["error"] = traceback.format_exc()
        verdicts = {}
    digest, nbytes = archive_digest(archives)
    result.update(
        wall_s=wall_s, cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        archive_mb=nbytes / 1e6, archive_sha256=digest,
        items_per_s=workload.units / wall_s if wall_s > 0 else 0.0,
        verdicts=verdicts)
    if tracer is not None:
        tracer.dump(os.path.join(args.out, "spans.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
