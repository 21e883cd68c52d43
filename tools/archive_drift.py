"""Report how two quiverflow archive trees differ, leaf by leaf.

    python tools/archive_drift.py A B

A and B are directories holding archives (one archive, or several side by
side); files are matched by their path relative to A and B, and every
``meta.json`` is skipped, since it records the run's wall-clock time.

For each numeric JSON path (list indices collapsed to ``[]``) and each
numeric CSV column, the report gives the largest absolute change and the
largest relative change, |a - b| / max(|a|, |b|), over its leaves.  It
lists every structural difference: a file, key or CSV column present on
one side only, a list or table of another length (whose entries are then
not compared), a string, bool or null that differs, and a leaf whose type
differs.  Exit status: 0 when only numbers moved, 1 on any structural
difference, 2 on a usage error.

The script needs only the standard library.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys


class Drift:
    """Numeric changes per grouped path and structural differences, in file order."""

    def __init__(self):
        self.numeric = {}       # (file, path) -> [largest abs change, largest rel change]
        self.structural = []    # (file, path, what)

    def number(self, where, path, a, b):
        entry = self.numeric.setdefault((where, path), [0.0, 0.0])
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        diff = abs(a - b)
        if math.isnan(diff):
            diff = math.inf
        size = max(abs(a), abs(b))
        entry[0] = max(entry[0], diff)
        entry[1] = max(entry[1], diff / size if size > 0 and math.isfinite(size) else math.inf)

    def differ(self, where, path, what):
        self.structural.append((where, path, what))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _kind(v):
    if _is_number(v):
        return "number"
    return {dict: "object", list: "list", str: "string", bool: "bool"}.get(type(v), "null")


def compare_json(drift, where, a, b, path="", group=""):
    """Walk two JSON values in step; ``path`` names the leaf, ``group`` its
    path with list indices collapsed."""
    ka, kb = _kind(a), _kind(b)
    if ka != kb:
        drift.differ(where, path or "(root)", f"type {ka} -> {kb}")
    elif ka == "object":
        for key in sorted(set(a) | set(b)):
            sub, sub_group = f"{path}.{key}" if path else key, f"{group}.{key}" if group else key
            if key not in b:
                drift.differ(where, sub, "key only in A")
            elif key not in a:
                drift.differ(where, sub, "key only in B")
            else:
                compare_json(drift, where, a[key], b[key], sub, sub_group)
    elif ka == "list":
        if len(a) != len(b):
            drift.differ(where, path or "(root)", f"length {len(a)} -> {len(b)}")
            return
        for i, (va, vb) in enumerate(zip(a, b)):
            compare_json(drift, where, va, vb, f"{path}[{i}]", f"{group}[]")
    elif ka == "number":
        drift.number(where, group or "(root)", float(a), float(b))
    elif a != b:
        drift.differ(where, path or "(root)", f"{ka} {a!r} -> {b!r}")


def _float_or_none(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(drift, where, text_a, text_b):
    """Column by column: numbers where every cell of the column parses on
    both sides, strings otherwise."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(t))) for t in (text_a, text_b))
    head_a, head_b = (rows[0] if rows else [] for rows in (rows_a, rows_b))
    for name in head_a:
        if name not in head_b:
            drift.differ(where, name, "column only in A")
    for name in head_b:
        if name not in head_a:
            drift.differ(where, name, "column only in B")
    if len(rows_a) != len(rows_b):
        drift.differ(where, "(rows)", f"length {len(rows_a) - 1} -> {len(rows_b) - 1}")
        return
    if any(len(r) != len(head_a) for r in rows_a) or any(len(r) != len(head_b) for r in rows_b):
        drift.differ(where, "(rows)", "a row whose width is not its header's")
        return
    for name in (n for n in head_a if n in head_b):
        col_a = [r[head_a.index(name)] for r in rows_a[1:]]
        col_b = [r[head_b.index(name)] for r in rows_b[1:]]
        nums_a, nums_b = [_float_or_none(c) for c in col_a], [_float_or_none(c) for c in col_b]
        if None in nums_a or None in nums_b:
            for i, (ca, cb) in enumerate(zip(col_a, col_b)):
                if ca != cb:
                    drift.differ(where, f"{name}[{i}]", f"string {ca!r} -> {cb!r}")
        else:
            for va, vb in zip(nums_a, nums_b):
                drift.number(where, name, va, vb)


def _files(root):
    out = set()
    for dirpath, _, files in os.walk(root):
        for fn in files:
            if fn != "meta.json":
                out.add(os.path.relpath(os.path.join(dirpath, fn), root))
    return out


def compare_trees(root_a, root_b):
    drift = Drift()
    files_a, files_b = _files(root_a), _files(root_b)
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            drift.differ(rel, "(file)", "only in A")
            continue
        if rel not in files_a:
            drift.differ(rel, "(file)", "only in B")
            continue
        with open(os.path.join(root_a, rel), "rb") as fa, open(os.path.join(root_b, rel), "rb") as fb:
            data_a, data_b = fa.read(), fb.read()
        if rel.endswith(".json"):
            compare_json(drift, rel, json.loads(data_a), json.loads(data_b))
        elif rel.endswith(".csv"):
            compare_csv(drift, rel, data_a.decode("utf-8"), data_b.decode("utf-8"))
        elif data_a != data_b:
            drift.differ(rel, "(file)", "bytes differ")
    return drift, len(files_a | files_b)


def report(drift, n_files):
    lines = []
    moved = [(k, v) for k, v in drift.numeric.items() if v[0] > 0.0]
    if moved:
        lines.append("numeric paths that moved (largest absolute, largest relative change):")
        lines += [f"  {where}  {path}  abs {d:.3g}  rel {r:.3g}" for (where, path), (d, r) in moved]
    if drift.structural:
        lines.append("structural differences:")
        lines += [f"  {where}  {path}  {what}" for where, path, what in drift.structural]
    summary = (f"summary: {n_files} files, {len(drift.numeric)} numeric paths, "
               f"{len(moved)} moved")
    if moved:
        (wa, pa), (da, _) = max(moved, key=lambda kv: kv[1][0])
        (wr, pr), (_, rr) = max(moved, key=lambda kv: kv[1][1])
        summary += f" (largest abs {da:.3g} at {wa} {pa}; largest rel {rr:.3g} at {wr} {pr})"
    lines.append(summary + f", {len(drift.structural)} structural differences")
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(os.path.isdir(p) for p in argv):
        print("usage: python tools/archive_drift.py A B  (two archive directories)",
              file=sys.stderr)
        return 2
    drift, n_files = compare_trees(*argv)
    print(report(drift, n_files))
    return 1 if drift.structural else 0


if __name__ == "__main__":
    sys.exit(main())
