"""Run archives: canonical JSON outputs, CSV exports, atomic writes.

An archive directory holds the effective config snapshot (config.json),
deterministic artifacts under outputs/, and volatile wall-clock metadata in
meta.json.  Everything under outputs/ plus config.json is byte-reproducible
from the snapshot: JSON is compact with sorted keys, one line per file
(``python -m json.tool FILE`` pretty-prints one), floats go through
Python's shortest round-trip repr, CSV floats are printed with 17
significant digits, and writes are atomic (temp file then rename).

A census grid in retract.json holds its labels as runs over the row-major
cells of the rho x theta grid, as the census returns them:
``np.repeat(label_values, label_lengths)`` reshaped to (len(rho),
len(theta)) is the label grid, so the archive grows with the number of
runs, not of cells.  ``census_csv`` decodes the runs and renders one CSV
row per cell.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import QuiverFlowError

__all__ = [
    "write_text",
    "write_json",
    "canonical_json",
    "csv_float",
    "trace_jsonable",
    "record_jsonable",
    "fiber_jsonable",
    "trace_csv",
    "census_csv",
    "checkpoints_csv",
    "slice_csv",
    "export_csv",
]


def _plain(obj):
    """``obj`` with str keys, tuples and arrays as lists, complex values as
    [re, im] and numpy scalars as Python scalars, ready for ``json.dumps``."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack([obj.real, obj.imag], axis=-1)
        return obj.tolist()
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def canonical_json(obj) -> str:
    """Compact, sorted-key JSON of ``obj`` on one line, from json's C encoder
    (non-finite floats spelled NaN, Infinity and -Infinity)."""
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":")) + "\n"


def write_text(path, text):
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    write_text(path, canonical_json(obj))


def csv_float(x) -> str:
    """17 significant digits, enough to round-trip doubles.  A cell that is not a
    number, such as a JSON string, array or null, raises QuiverFlowError."""
    if hasattr(x, "__float__"):         # float() alone would also parse a string
        try:
            return f"{float(x):.17g}"
        except OverflowError:           # an integer beyond the range of doubles
            pass
    raise QuiverFlowError(f"a CSV cell holds {x!r:.40}, not a number")


# ---------------------------------------------------------------------------
# jsonable views of the core value types; they hold arrays, which
# ``canonical_json`` turns into lists


def trace_jsonable(trace, state_stride: int = 1):
    from .quiver import unflatten_blocks     # here, so that a census run loads no quiver code

    idx = list(range(0, trace.n_samples, max(1, state_stride)))
    if idx and idx[-1] != trace.n_samples - 1:
        idx.append(trace.n_samples - 1)
    blocks = unflatten_blocks(trace.states[idx], trace.quiver.block_shapes(trace.dims))
    return {
        "status": trace.status,
        "direction": trace.direction,
        "t": trace.ts,
        "f": trace.fs,
        "gradnorm": trace.gradnorms,
        # parallel lists keep registration order under sorted-key JSON dumps
        "monitor_names": list(trace.monitors),
        "monitor_values": list(trace.monitors.values()),
        "state_stride": int(state_stride),
        "state_indices": idx,
        "states": [{e: b[k] for e, b in zip(trace.quiver.edges, blocks)}
                   for k in range(len(idx))],
    }


def record_jsonable(rec):
    return {"f_crit": rec.f_crit, "grad_residual": rec.grad_residual,
            "beta_spectra": rec.beta_spectra, "x": dict(zip(rec.x.quiver.edges, rec.x.blocks))}


def fiber_jsonable(fiber):
    return {"dim": fiber.dim, "basis": fiber.basis.T}


# ---------------------------------------------------------------------------
# CSV renderers (deterministic column order, documented in the README)


def trace_csv(tr_json) -> str:
    mon_names = tr_json["monitor_names"]
    mon_values = tr_json["monitor_values"]
    n = len(tr_json["t"])
    lengths = [len(c) for c in (tr_json["f"], tr_json["gradnorm"], *mon_values)]
    if len(mon_values) != len(mon_names) or lengths.count(n) != len(lengths):
        raise QuiverFlowError(f"trace columns of lengths {lengths} do not match {n} times "
                              f"and {len(mon_names)} monitor names")
    header = ["t", "f", "gradnorm"] + list(mon_names)
    lines = [",".join(header)]
    for i in range(n):
        row = [csv_float(tr_json["t"][i]), csv_float(tr_json["f"][i]),
               csv_float(tr_json["gradnorm"][i])]
        row += [csv_float(vals[i]) for vals in mon_values]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _label_run(census_json, key):
    """One run array of a census grid, as a flat integer array (empty when the grid is)."""
    try:
        a = np.asarray(census_json[key])
    except ValueError as exc:       # ragged nested lists
        raise QuiverFlowError(f"census {key} is not a flat array: {exc}") from exc
    if a.ndim != 1:
        raise QuiverFlowError(f"census {key} is not a flat array (shape {a.shape})")
    if not a.size:
        return np.zeros(0, dtype=np.int64)
    if a.dtype.kind not in "iu":
        raise QuiverFlowError(f"census {key} are not integers (dtype {a.dtype})")
    return a


def census_csv(census_json) -> str:
    """One row per grid cell; the grid's rho, theta and label runs may be arrays
    or lists.  Runs that are not integers, or whose lengths are not positive
    and do not fill the rho x theta grid, raise QuiverFlowError."""
    values = _label_run(census_json, "label_values")
    lengths = _label_run(census_json, "label_lengths")
    shape = (len(census_json["rho"]), len(census_json["theta"]))
    if values.size != lengths.size:
        raise QuiverFlowError(f"census label_values has {values.size} runs, "
                              f"label_lengths {lengths.size}")
    if lengths.size and lengths.min() < 1:
        raise QuiverFlowError(f"census label_lengths holds {lengths.min()}, not a positive length")
    total = sum(lengths.tolist())       # Python ints: no overflow
    if total != shape[0] * shape[1]:
        raise QuiverFlowError(f"census label_lengths sum to {total}, not the "
                              f"{shape[0]} x {shape[1]} cells of rho and theta")
    # each length is at most the cell count, so it fits np.repeat's intp
    labels = np.repeat(values, lengths.astype(np.intp)).reshape(shape)
    rows = labels.tolist()
    # one "in_set,component_id" line end per label value; each rho row fills the
    # rho and label slots of a (rho, theta, label) token list and joins it once
    cells = {lab: f"{'1' if lab >= 0 else '0'},{lab}\n" for lab in set(values.tolist())}
    n = len(census_json["theta"])
    tokens = [""] * (3 * n)
    tokens[1::3] = [csv_float(t) + "," for t in census_json["theta"]]
    out = ["rho,theta,in_set,component_id\n"]
    for r, row in zip(map(csv_float, census_json["rho"]), rows):
        tokens[0::3] = [r + ","] * n
        tokens[2::3] = map(cells.__getitem__, row)
        out.append("".join(tokens))
    return "".join(out)


def checkpoints_csv(broken_json) -> str:
    lines = ["member,param,level,coord_index,value"]
    for k, level in enumerate(broken_json["levels"]):
        for n, param in enumerate(broken_json["params"]):
            pt = broken_json["checkpoints"][k][n]
            if pt is None:
                continue
            for ci, v in enumerate(pt):
                lines.append(",".join([str(n), csv_float(param), csv_float(level),
                                       str(ci), csv_float(v)]))
    return "\n".join(lines) + "\n"


def slice_csv(slice_json) -> str:
    dim = slice_json["fiber"]["dim"]
    basis = slice_json["fiber"]["basis"]
    width = len(basis[0]) if dim else 0
    header = ["vector_index"] + [f"coord_{i}" for i in range(width)]
    lines = [",".join(header)]
    for j in range(dim):
        lines.append(",".join([str(j)] + [csv_float(v) for v in basis[j]]))
    return "\n".join(lines) + "\n"


# the shapes a renderer indexes; a wrong one is refused before any row is rendered
def _object(value, what):
    if not isinstance(value, dict):
        raise QuiverFlowError(f"{what} is a JSON {type(value).__name__}, not an object")
    return value


def _array(value, what, n=None):
    if not isinstance(value, list):
        raise QuiverFlowError(f"{what} is a JSON {type(value).__name__}, not an array")
    if n is not None and len(value) != n:
        raise QuiverFlowError(f"{what} has {len(value)} rows, not {n}")
    return value


def _checkpoint_files(doc):
    n = len(_array(doc["params"], "params"))
    for k, row in enumerate(_array(doc["checkpoints"], "checkpoints",
                                   len(_array(doc["levels"], "levels")))):
        for pt in _array(row, f"checkpoints row {k}", n):
            if pt is not None:
                _array(pt, f"a checkpoint in row {k}")
    return {"checkpoints.csv": checkpoints_csv(doc)}


def _slice_files(doc):
    fiber = _object(doc["fiber"], "fiber")
    for j, row in enumerate(_array(fiber["basis"], "fiber basis", fiber["dim"])):
        _array(row, f"fiber basis row {j}")
    return {"slice.csv": slice_csv(doc)}


# export kind -> (source artifact, renderer from its JSON to {csv file name: text})
_CSV_RENDERERS = {
    "trace": ("traces.json", lambda doc: {
        f"trace_{i:03d}.csv": trace_csv(_object(tr, f"trace {i}"))
        for i, tr in enumerate(_array(doc["traces"], "traces"))}),
    "checkpoints": ("broken.json", _checkpoint_files),
    "census": ("retract.json", lambda doc: {
        f"census_{name}.csv": census_csv(_object(grid, f"census grid {name!r}"))
        for name, grid in _object(doc.get("census_grids", {}), "census_grids").items()}),
    "slice": ("slice.json", _slice_files),
}


def export_csv(archive_dir, what, dest_dir=None):
    """Re-render CSV artifacts from an archive's JSON outputs.

    Returns the list of files written.  Raises QuiverFlowError, and writes
    nothing, when the archive lacks the artifact or the artifact does not fit
    its renderer: not an object, a missing key, a wrong row count, column or
    label shape or type.
    """
    out_dir = dest_dir or os.path.join(archive_dir, "outputs")
    src_dir = os.path.join(archive_dir, "outputs")
    if what not in _CSV_RENDERERS:
        raise QuiverFlowError(f"unknown export kind {what!r}")
    src_name, renderer = _CSV_RENDERERS[what]
    src = os.path.join(src_dir, src_name)
    if not os.path.exists(src):
        raise QuiverFlowError(f"archive has no {src_name} (needed for {what!r})")
    try:
        with open(src, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:       # not UTF-8 or not JSON
        raise QuiverFlowError(f"archive {src_name} is not readable JSON: {exc}") from exc
    try:
        texts = renderer(_object(doc, f"archive {src_name}"))
    except KeyError as exc:
        raise QuiverFlowError(f"archive {src_name} lacks the key {exc} "
                              f"(needed for {what!r})") from exc
    written = [os.path.join(out_dir, name) for name in texts]
    for path, text in zip(written, texts.values()):
        write_text(path, text)
    return written
