"""Command-line front end.

Subcommands mirror the experiment kinds plus `export`:

    quiverflow <experiment> --config cfg.json --out dir [--seed-override S] [--strict]
    quiverflow export --archive dir --what {trace|checkpoints|census|slice}

Exit codes: 0 ok, 1 runtime failure, 2 config error, 3 invariant violation
(`check` only).  With --strict, any warning raised during the run is a
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .archive import _CSV_RENDERERS, export_csv, write_json
from .errors import ConfigError, QuiverFlowError
from .runconfig import EXPERIMENTS, build_model, load_config, validate_config
from .runner import run_experiment

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quiverflow",
        description="Numerical engine for moment-map flow on quiver representation varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True, help="path to the experiment config")
        sp.add_argument("--out", required=True, help="archive directory to write")
        sp.add_argument("--seed-override", type=int, default=None,
                        help="replace the config seed (recorded in the archive snapshot)")
        sp.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    ex = sub.add_parser("export", help="re-render CSV artifacts from an archive")
    ex.add_argument("--archive", required=True)
    ex.add_argument("--what", required=True, choices=list(_CSV_RENDERERS))
    ex.add_argument("--dest", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "export":
        try:
            files = export_csv(args.archive, args.what, dest_dir=args.dest)
        except QuiverFlowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for f in files:
            print(f)
        return 0

    try:
        doc = load_config(args.config)
        if doc["experiment"] != args.command:
            raise ConfigError(
                f"config field experiment: config says {doc['experiment']!r} "
                f"but the {args.command!r} subcommand was invoked",
                field="experiment")
        if args.seed_override is not None:
            doc["seed"] = args.seed_override
            validate_config(doc)
        model = build_model(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = run_experiment(model, args.out)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        if args.strict and caught:
            print("error: warnings escalated by --strict", file=sys.stderr)
            return 1
    except Exception as exc:  # noqa: BLE001 - exit-code discipline for the CLI
        # serialize what we know about the failure next to any partial outputs
        try:
            write_json(f"{args.out}/outputs/failure.json",
                       {"error": str(exc), "type": type(exc).__name__})
        except OSError:
            pass
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(summary, sort_keys=True))
    if args.command == "check" and summary.get("failed"):
        print(f"invariant violations: {', '.join(summary['failed'])}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
