"""The archive writers against straightforward oracles, and the on-disk format.

``old_canonical_json`` and ``conftest.per_cell_census_csv`` are the
straightforward routes: a conversion pass written out case by case followed
by compact, sorted-key ``json.dumps``, and one f-string per grid cell.
"""

import itertools
import json
import os

import numpy as np
import pytest

from quiverflow import retract, runner
from quiverflow.archive import canonical_json, census_csv, export_csv, write_json
from quiverflow.quiver import Representation
from quiverflow.retract import connectivity_census
from quiverflow.runconfig import build_model, validate_config

from conftest import cell_census, decoded_census_grid, one_edge, per_cell_census_csv, philox

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "quiverflow", "configs")


def old_to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): old_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack([obj.real, obj.imag], axis=-1)
        return obj.tolist()
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def old_canonical_json(obj):
    return json.dumps(old_to_jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1e300, -1e-300, 5e-324, 2.2250738585072014e-308 / 3,
          1e16, 123456789.125, float("nan"), float("inf"), float("-inf")]
INTS = [0, 1, -1, 7, 2**31, -(2**63), 2**64 + 1, 10**40]
STRINGS = ["", "a", "key", "é", "日本", "tab\there", 'quote"back\\slash', "nl\n\x00\x1f",
           " ", "😀", "1", "-1"]


def random_leaf(rng):
    kind = int(rng.integers(0, 17))
    pick = lambda seq: seq[int(rng.integers(0, len(seq)))]  # noqa: E731
    if kind == 0:
        return pick(INTS)
    if kind == 1:
        return pick(FLOATS)
    if kind == 2:
        return pick([True, False, None])
    if kind == 3:
        return pick(STRINGS)
    if kind == 4:
        return complex(pick(FLOATS), pick(FLOATS))
    if kind == 5:
        return pick([np.float64(0.3), np.float32(0.1), np.float16(-2.5), np.int8(-3),
                     np.int64(2**62), np.uint64(2**64 - 1), np.bool_(True), np.bool_(False),
                     np.complex128(1.5 - 0.5j), np.float64("nan"), np.float32("-inf")])
    if kind == 6:
        return pick([[], {}, (), np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)),
                     np.zeros((2, 0, 2), dtype=np.int32)])
    if kind == 7:
        return np.array(pick(FLOATS + INTS[:5]))          # 0-d
    shape = tuple(int(n) for n in rng.integers(0, 4, size=int(rng.integers(1, 4))))
    if kind == 8:
        return rng.integers(-(2**40), 2**40, size=shape)
    if kind == 9:
        return rng.integers(-100, 100, size=shape).astype(pick([np.int32, np.int8, np.uint16]))
    if kind == 10:
        return rng.random(shape) < 0.5
    if kind == 11:
        return (rng.standard_normal(shape) * 10.0 ** int(rng.integers(-300, 300)))
    if kind == 12:
        return rng.standard_normal(shape).astype(pick([np.float32, np.float16]))
    if kind == 13:
        a = rng.standard_normal(shape)
        if a.size:
            a.flat[int(rng.integers(0, a.size))] = pick(FLOATS)
        return a
    if kind == 14:
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            pick([np.complex128, np.complex64]))
    if kind == 15:
        return np.array(complex(pick(FLOATS), pick(FLOATS)))   # 0-d complex
    return np.array([pick(STRINGS), pick(FLOATS), pick(INTS), None], dtype=object)


def random_doc(rng, depth=0):
    if depth >= 4 or rng.random() < 0.3:
        return random_leaf(rng)
    n = int(rng.integers(0, 5))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return [random_doc(rng, depth + 1) for _ in range(n)]
    if kind == 1:
        return tuple(random_doc(rng, depth + 1) for _ in range(n))
    keys = STRINGS + [0, 1, -1, 2.5, True, None]
    return {keys[int(rng.integers(0, len(keys)))]: random_doc(rng, depth + 1)
            for _ in range(n)}


def test_canonical_json_matches_json_dumps_on_random_documents():
    rng = philox(14)
    for _ in range(600):
        doc = random_doc(rng)
        assert canonical_json(doc) == old_canonical_json(doc)


@pytest.mark.parametrize("doc", [
    {1: "int", "1": "str"},                   # str(1) collides: the last value wins
    {"1": "str", 1: "int", True: "bool", "True": "s", None: 0, 2.5: [1, 2]},
    {"z": {}, "a": [], "m": np.zeros((0, 3)), "k": ()},
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300],
    np.array([[1.0, np.nan], [np.inf, -np.inf]]),
    np.array([[1, 2], [3, 4]], dtype=np.int32),
    np.array([1.5, -0.25], dtype=np.float32),
    np.array([[True, False]]),
    np.array(3.5), np.array(True), np.array(-7), np.array(1 + 2j),
    np.array([[1 + 2j, -0.0 - 1j]], dtype=np.complex64),
    [np.float64(0.1), np.float32(0.1), np.int16(5), np.bool_(False), 10**30],
    {"é": "日本", "esc": "a\"b\\c\n\t\x01"},
    "top", 1, 2.5, None, True, [],
])
def test_canonical_json_matches_json_dumps_on_edge_cases(doc):
    assert canonical_json(doc) == old_canonical_json(doc)


RUN_DTYPES = [np.int8, np.int32, np.int64, np.uint16, np.bool_]


def random_run_array(rng):
    """Up to 4-D, each dim 0-6, 1-3 distinct values laid out in runs of equal cells."""
    shape = tuple(int(n) for n in rng.integers(0, 7, size=int(rng.integers(1, 5))))
    dtype = RUN_DTYPES[int(rng.integers(0, len(RUN_DTYPES)))]
    info = np.iinfo(dtype) if dtype is not np.bool_ else None
    values = (rng.integers(0, 2, size=3).astype(bool) if info is None
              else rng.integers(info.min, info.max, size=3, endpoint=True).astype(dtype))
    values = values[:int(rng.integers(1, 4))]
    size = int(np.prod(shape))
    keep = rng.random(size) < rng.choice([0.5, 0.9, 1.0])      # stay in the current run
    picks = rng.integers(0, len(values), size=size)
    flat = np.empty(size, dtype=dtype)
    for i in range(size):
        flat[i] = flat[i - 1] if i and keep[i] else values[picks[i]]
    return flat.reshape(shape)


def test_canonical_json_matches_json_dumps_on_run_arrays():
    rng = philox(17)
    for _ in range(400):
        a = random_run_array(rng)
        assert canonical_json(a) == old_canonical_json(a)
        assert canonical_json({"a": [a]}) == old_canonical_json({"a": [a]})


@pytest.mark.parametrize("a", [
    np.full((4, 5), 7), np.full((2, 3, 4), -1, dtype=np.int8), np.ones((3, 3), dtype=bool),
    np.full((1, 9), 3, dtype=np.uint16), np.full((9, 1), 3, dtype=np.int32),
    np.zeros((0, 3), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
    np.zeros((2, 0, 3), dtype=np.int8), np.zeros((2, 0, 3), dtype=bool),
    np.array([[-(2**63)] * 5 + [2**63 - 1] * 5] * 3, dtype=np.int64),
    np.full((2, 6), 2**64 - 1, dtype=np.uint64),
    np.arange(60).reshape(6, 10),                                   # run-dense
    # floats are never merged into runs: 0.0 == -0.0 and NaN != NaN
    np.array([[0.0, -0.0, 0.0] * 4] * 4), np.array([[np.nan, np.nan] * 8] * 3),
    np.array([[5, 5, 5, 5], [5, 5, 6, 6]]),                         # a run across the row end
    np.repeat([[1, 2, 3]], 8, axis=0).T,                            # not C-contiguous
], ids=lambda a: f"{a.dtype}{a.shape}")
def test_canonical_json_run_boundaries(a):
    assert canonical_json(a) == old_canonical_json(a)
    assert canonical_json([a, {"k": a}]) == old_canonical_json([a, {"k": a}])


def bundled_model(name, edit=lambda params: None):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        doc = json.load(fh)
    edit(doc["params"])
    validate_config(doc)
    return build_model(doc)


def archive_docs(monkeypatch, out_dir, model):
    """Every document ``run_experiment`` writes, meta.json aside."""
    written = []
    monkeypatch.setattr(runner, "write_json", lambda path, obj: written.append(obj))
    monkeypatch.setattr(runner, "write_text", lambda path, text: None)
    runner.run_experiment(model, str(out_dir))
    return written[:-1]


@pytest.mark.parametrize("name, edit", [
    ("slit_retract.json", lambda p: p.update(grid=[12, 16], refine=[24, 32])),
    pytest.param("slit_retract.json", lambda p: None, id="slit_retract.json-full_size"),
    ("a2_critical.json", lambda p: None),
    ("jordan2_flow.json", lambda p: None),
])
def test_canonical_json_matches_json_dumps_on_archive_documents(monkeypatch, tmp_path,
                                                                name, edit):
    docs = archive_docs(monkeypatch, tmp_path, bundled_model(name, edit))
    assert len(docs) == 2          # config.json and the experiment's output
    for doc in docs:
        assert canonical_json(doc) == old_canonical_json(doc)


@pytest.mark.parametrize("name, edit", [
    ("slit_retract.json", lambda p: p.update(grid=[12, 16], refine=[24, 32])),
    ("a2_critical.json", lambda p: None),
], ids=["slit_retract", "a2_critical"])
def test_archive_json_files_are_one_canonical_line(tmp_path, name, edit):
    runner.run_experiment(bundled_model(name, edit), str(tmp_path))
    paths = sorted(tmp_path.glob("*.json")) + sorted(tmp_path.glob("outputs/*.json"))
    assert len(paths) == 3         # config.json, meta.json and the experiment's output
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        assert text.endswith("\n") and text.count("\n") == 1, path.name
        assert text == canonical_json(json.loads(text)), path.name


def test_unsupported_objects_raise_and_leave_no_file(tmp_path):
    x = Representation.zero(*one_edge()[:2])
    for bad in ({"a": {1, 2}}, [0, {"rep": x}], x, {"c": np.complex64(1.0)}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json(bad)
        with pytest.raises(TypeError):
            write_json(tmp_path / "doc.json", bad)
        assert os.listdir(tmp_path) == []


def run_grid(rho, theta, labels):
    """A census grid with ``labels`` as its row-major runs, as the runner writes it."""
    flat = np.asarray(labels, dtype=np.int64).ravel()
    lengths = [len(list(g)) for _, g in itertools.groupby(flat.tolist())]
    return {"rho": rho, "theta": theta, "label_values": flat[np.cumsum([0] + lengths[:-1])],
            "label_lengths": np.array(lengths, dtype=np.int64)}


def test_census_csv_matches_per_cell_formatter(tmp_path):
    rng = philox(7)
    grids = [run_grid([0.0, 0.5], [0.0, 1.0, 2.0], [[0, 0, 0], [-1, 1, 12]]),
             run_grid(np.linspace(0, 1, 5), np.linspace(0, 6, 4), rng.integers(-1, 3, size=(5, 4))),
             {"rho": [], "theta": [], "label_values": [], "label_lengths": []},
             {"rho": [0.0, 1.0], "theta": [], "label_values": np.zeros(0, dtype=int),
              "label_lengths": np.zeros(0, dtype=int)},
             run_grid([1.0], [0.1, 0.2], [[-1, -1]]),
             # a run across the end of a rho row
             run_grid([0.0, 1.0, 2.0], [0.0, 1.0], [[3, 3], [3, 5], [5, 5]])]
    for grid in grids:
        assert census_csv(grid) == per_cell_census_csv(decoded_census_grid(grid))
    # the bundled slit_retract config, exported from its archive
    runner.run_experiment(bundled_model("slit_retract.json"), str(tmp_path))
    written = export_csv(str(tmp_path), "census")
    with open(tmp_path / "outputs" / "retract.json") as fh:
        doc = json.load(fh)
    assert len(written) == 2
    for name, grid in doc["census_grids"].items():
        with open(tmp_path / "outputs" / f"census_{name}.csv") as fh:
            assert fh.read() == per_cell_census_csv(decoded_census_grid(grid))


def test_retract_archive_stores_the_census_labels_as_runs(monkeypatch, tmp_path):
    # per-cell labels made retract.json 4.38 MB: 2 x 400^2 lines for 1,936 and 1,361 runs
    censuses = []

    def census(*args, **kwargs):
        out = connectivity_census(*args, **kwargs)
        censuses.append((out[1], out[2][2]) if len(censuses) < 2 else None)  # the base grids
        return out

    monkeypatch.setattr(retract, "connectivity_census", census)
    runner.run_experiment(bundled_model("slit_retract.json"), str(tmp_path))
    path = tmp_path / "outputs" / "retract.json"
    with open(path) as fh:
        grids = json.load(fh)["census_grids"]
    for name, (runs, mask) in zip(("low_with_unstable", "high"), censuses):
        assert grids[name]["label_values"] == runs.values.tolist(), name
        assert grids[name]["label_lengths"] == runs.lengths.tolist(), name
        got = decoded_census_grid(grids[name])["labels"]
        assert np.array_equal(got, cell_census(mask)[1]), name
        assert all(np.diff(grids[name]["label_values"]) != 0)     # maximal runs
    assert os.path.getsize(path) < 0.25e6
