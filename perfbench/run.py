"""quiverflow benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload {flows,census,ensemble,broken,battery} \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; nothing needs installing or
building (the package is imported from ``src/``).  The run is a closed
loop with one client: it starts one fresh worker process at a time
(``perfbench/worker.py``), each of which imports the package, validates
and builds the workload's configs, runs every experiment with
``threads=1`` into a temporary archive under ``.perfbench_out/``, and
checks the archive against the workload's oracles.  Workers are started
until the next one would end after ``--seconds``; at least one always runs.

``--trace 0`` reports every end-to-end metric over the run's workers: the
mean time of the work (``items_per_s`` is total work over total time) and
the median set-up time, memory and archive size.  ``--trace 1`` alternates untraced and traced workers; the traced
ones record spans around every public quiverflow function (see
``tracer.py``) and the run reports the per-layer metrics and the tracing
overhead.  Every worker of a run uses the same seed, so all archives of a
run must be byte-identical, traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with every sample and a description of the machine, is written to
``.perfbench_out/result-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "quiverflow")
OUT = os.path.join(ROOT, ".perfbench_out")
RUN_LIMIT_S = 165.0      # a run, workers included, ends well inside 180 s

# (metric, unit, how a run's samples combine into its value).  Times of the
# work are averaged over the run (items_per_s is total work over total
# time): this host alternates between a fast and a ~1.8x slower state for
# seconds at a time, and a median flips between the two while the mean
# follows the slow share smoothly.  Set-up time and sizes take the median.
END_TO_END = (("setup_s", "s", statistics.median), ("wall_s", "s", statistics.fmean),
              ("items_per_s", "1/s", statistics.harmonic_mean),
              ("cpu_s", "s", statistics.fmean), ("peak_rss_mb", "MB", statistics.median),
              ("archive_mb", "MB", statistics.median))


def run_worker(workload, seed, run_id, traced, timeout):
    """Start one worker, wait for it, and return its sample dict."""
    out = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    if traced:
        cmd += ["--trace", run_id]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(started)], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
        sample = json.loads(lines[-1])
        if traced and sample["error"] is None:
            spans = os.path.join(out, "spans.npz")
            sample["layers"] = tracer.layer_metrics(tracer.load_spans(spans))
            shutil.copyfile(spans, os.path.join(OUT, f"spans-{workload}-seed{seed}.npz"))
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, KeyError, OSError) as exc:
        sample = {"error": f"{type(exc).__name__}: {exc}", "verdicts": {}}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    sample["traced"] = traced
    sample["process_s"] = time.perf_counter() - started
    return sample


def quartiles(values):
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def tally(workload, samples):
    """Oracle verdicts, archive identity and exact counts -> (attempted, failed, notes)."""
    n_ops = workloads.WORKLOADS[workload].ops
    attempted = failed = 0
    notes = []
    good = [s for s in samples if s["error"] is None]
    for s in samples:
        attempted += n_ops
        if s["error"] is not None:
            failed += n_ops
            notes.append(f"sample failed: {s['error'].strip().splitlines()[-1]}")
            continue
        missed = [k for k, ok in s["verdicts"].items() if not ok]
        failed += len(missed) + max(0, n_ops - len(s["verdicts"]))
        if missed:
            notes.append(f"oracle missed: {', '.join(missed)}")
    for s in good[1:]:
        # same seed, so every archive of the run must match byte for byte
        attempted += 1
        if s["archive_sha256"] != good[0]["archive_sha256"]:
            failed += 1
            notes.append(f"archive differs from the first sample (traced={s['traced']})")
    layered = [s["layers"] for s in good if "layers" in s]
    for layers in layered[1:]:
        attempted += 1
        moved = [k for k in tracer.EXACT if layers[k] != layered[0][k]]
        if moved:
            failed += 1
            notes.append(f"counts differ between traced samples: {', '.join(moved)}")
    return attempted, failed, notes


def environment():
    """Machine and source description recorded with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # informational only
        blas = "unknown"
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, files in os.walk(PACKAGE):
        dirnames.sort()
        for fn in sorted(files):
            if fn.endswith(".py"):
                with open(os.path.join(dirpath, fn), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(fn.encode() + b"\0" + data)
    versions = {}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset (library default)")
                         for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_quiverflow_lines": lines,
    }


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None      # not a git checkout; src_sha256 identifies the code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"perfbench: no quiverflow sources under {PACKAGE}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    wl = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    started = time.perf_counter()
    samples = []
    while True:
        for trace_this in ((False, True) if traced else (False,)):
            elapsed = time.perf_counter() - started
            samples.append(run_worker(args.workload, args.seed,
                                      f"{args.workload}-{args.seed}-{len(samples)}",
                                      trace_this, timeout=max(5.0, RUN_LIMIT_S - elapsed)))
        elapsed = time.perf_counter() - started
        per_round = elapsed / (len(samples) // (2 if traced else 1))
        if (any(s["error"] for s in samples) or elapsed + per_round > args.seconds
                or elapsed + 1.5 * per_round > RUN_LIMIT_S):
            break

    attempted, failed, notes = tally(args.workload, samples)
    good = [s for s in samples if s["error"] is None]
    plain = [s for s in good if not s["traced"]]
    layered = [s for s in good if s["traced"]]
    summary = {}
    if traced and plain and layered:
        first = layered[0]["layers"]
        for name, unit in tracer.metric_names():
            if name in tracer.EXACT:
                values = [first[name]]
            else:
                values = [s["layers"][name] for s in layered]
            summary[name] = (unit, statistics.median(values), values)
        overhead = (statistics.median(s["wall_s"] for s in layered)
                    - statistics.median(s["wall_s"] for s in plain))
        summary["trace.overhead_s"] = ("s", overhead, [overhead])
    elif not traced and plain:
        for name, unit, combine in END_TO_END:
            values = [s[name] for s in plain]
            summary[name] = (unit, combine(values), values)
    correct = failed == 0 and bool(summary)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(samples)} worker processes, closed loop, one client, threads=1")
    print(f"  workload: {wl.why}; {wl.units} {wl.unit_name} per sample; "
          f"ROADMAP {wl.roadmap}")
    metrics = {}
    for name, (unit, value, values) in summary.items():
        med, q1, q3 = quartiles(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:40s} {value:<13.6g} {unit:6s} samples: median {med:<11.6g} "
              f"q1 {q1:<11.6g} q3 {q3:<11.6g} n={len(values)}")
    print(f"  {'failed_frac':40s} {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    for note in notes:
        print(f"  FAILED: {note}")
    env = environment()
    print(f"  environment: {json.dumps(env)}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "correct": correct,
              "attempted": attempted, "failed": failed, "notes": notes,
              "summary": {k: {"unit": u, "value": x, "samples": v}
                          for k, (u, x, v) in summary.items()},
              "samples": [{k: v for k, v in s.items() if k != "verdicts"} for s in samples]}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
