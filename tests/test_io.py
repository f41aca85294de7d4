"""Lineage and mask file boundary: the numpy reader against the row loop.

A mask file is a lineage file without its value column, and both go
through one reader.  ``parse_lineage`` and ``parse_mask`` read a file
with numpy when its body passes the format's byte gate, and leave every
other file, and every error, to the one row loop (``_rows``), which names
the offending line.  These tests hold the two paths to the same results
and errors for both formats, keep the writers' bytes, make sure files
the program writes take the numpy path, hold the reader's edge cases
(file names, a pipe, undecodable bytes, a BOM, CRLF and CR line ends) and bound
the memory of reading and writing.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bartree import (
    BarParams, NoiseParams, ObservationMask, ObservedTree, ReproductionLaw, simulate_joint,
)
from bartree import io
from bartree.errors import BartreeError
from bartree.cli import run_cli

# ---------------------------------------------------------------------------
# fuzzed texts: valid rows mixed with edge tokens

ID_EDGES = [
    "+5", "05", "1_0", " 5", "5.0", "1e1", "٣", "５", "0", "-1", "+0",
    "9223372036854775807", "9223372036854775808", "99999999999999999999",
    "2199023255552", "4 # note",
]
VALUE_EDGES = [
    "+5", "05", "1.", ".5", "+.5e-3", "1_0", " 5", "infinity", "nan", "-inf", "1e400",
    "1e-400", "5e-324", "-0.0", "1e300", "1e", "--1", "١.٥", "1.5 # note", "1.5#",
]
LINE_EDGES = ["", "  ", "#", "# depth: 3", "# root_type: 1", "# depth: x", ",1", "5,", "1,2,3"]
HEADERS = [
    "# bartree lineage v1", "# seed: 3", "# depth: 12", "# depth: 2", "# depth: 41",
    "# root_type: 1", "# root_type: 0", "# root_type: 2", "#depth:13", " # depth: 12",
    "# note without a colon",
]
TAILS = ["", "\n", "# depth: 13\n", "# root_type: 1", "\n\n"]


@st.composite
def closed_ids(draw):
    """Ascending ids closed under mothers, rooted at 1."""
    ids = {1}
    for k in draw(st.lists(st.integers(1, 4095), max_size=30)):
        while k not in ids:
            ids.add(k)
            k //= 2
    return sorted(ids)


@st.composite
def fuzzed_text(draw, lineage: bool):
    ids = draw(closed_ids())
    if lineage:
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=len(ids), max_size=len(ids)))
        rows = [f"{k},{x!r}" for k, x in zip(ids, values)]
    else:
        rows = [str(k) for k in ids]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["id", "value", "line", "swap", "dup", "orphan", "drop"]))
        if kind == "id":
            token = draw(st.sampled_from(ID_EDGES))
            rows[i] = f"{token},{rows[i].partition(',')[2]}" if lineage else token
        elif kind == "value" and lineage:
            rows[i] = f"{rows[i].partition(',')[0]},{draw(st.sampled_from(VALUE_EDGES))}"
        elif kind == "line":
            rows.insert(i, draw(st.sampled_from(LINE_EDGES)))
        elif kind == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "dup":
            rows.insert(draw(st.integers(0, len(rows))), rows[i])
        elif kind == "orphan":
            rows.append(f"{4 * ids[-1]},0.5" if lineage else str(4 * ids[-1]))
        elif kind == "drop" and len(rows) > 1:
            del rows[i]
    if draw(st.booleans()):
        rows = []  # an empty body, headers only
    header = draw(st.lists(st.sampled_from(HEADERS), max_size=3))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in header + rows) + draw(st.sampled_from(TAILS))


def _outcome(parse, arg):
    try:
        return parse(arg)
    except BartreeError as exc:
        return type(exc), str(exc)


def _same(a, b):
    """Equal masks and bit-equal values, or the same exception type and message."""
    if isinstance(a, ObservedTree) and isinstance(b, ObservedTree):
        return (
            a.mask == b.mask  # depth, root type and ids
            and np.concatenate(a.values).tobytes() == np.concatenate(b.values).tobytes()
        )
    return a == b


def _cli_contained(command, path):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli([command, "--input", str(path)])
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert err.count("\n") == (0 if code == 0 else 1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(text=fuzzed_text(lineage=True))
@example(text="# depth: 3\n1,1.0\n2,2.0\n")
@example(text="1,1.0\n2,2.0\n# depth: 5\n")
@example(text="1,1.0\n9223372036854775808,2.0\n")
@example(text="1,1.0\n2,1e400\n")
@example(text="# only a header\n")
@example(text="1,0.0\n3,0.0\n7,0.0\n14,3.3610710249425595e+93\n29,1.0\n58,0.0\n117,9.140285088655805e+60\n")
def test_lineage_fast_path_matches_row_loop(text, fuzz_dir):
    path = fuzz_dir / "lineage.csv"
    path.write_text(text)
    fast = _outcome(io.parse_lineage, path)
    slow = _outcome(lambda text: io._rows(text, lineage=True), path.read_text())
    assert _same(fast, slow), (fast, slow)
    _cli_contained("estimate", path)


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(text=fuzzed_text(lineage=False))
@example(text="1\n2\n2\n3\n")
@example(text="1\n3\n2\n")
@example(text="# root_type: 1\n# depth: 4\n1\n2\n")
@example(text="1\n2\n9223372036854775808\n")
def test_mask_fast_path_matches_row_loop(text, fuzz_dir):
    path = fuzz_dir / "mask.csv"
    path.write_text(text)
    fast = _outcome(io.parse_mask, path)
    slow = _outcome(lambda text: io._rows(text, lineage=False), path.read_text())
    assert _same(fast, slow), (fast, slow)
    _cli_contained("gw", path)


# ---------------------------------------------------------------------------
# the writers keep their bytes


def _reference_lineage(tree):
    lines = ["# bartree lineage v1", "# columns: node_id,value"]
    if tree.seed is not None:
        lines.append(f"# seed: {tree.seed}")
    lines += [f"# root_type: {tree.mask.root_type}", f"# depth: {tree.depth}"]
    lines += [f"{int(k)},{float(x):.17g}" for k, x in zip(tree.mask.ids, tree.x)]
    return "\n".join(lines) + "\n"


def _reference_noise(tree):
    lines = ["# bartree noise v1", "# columns: node_id,noise"]
    kids = slice(tree.mask.starts[1], None)
    lines += [f"{int(k)},{float(e):.17g}" for k, e in zip(tree.mask.ids[kids], tree.eps[kids])]
    return "\n".join(lines) + "\n"


def _reference_mask(mask):
    lines = ["# bartree mask v1", f"# root_type: {mask.root_type}", f"# depth: {mask.depth}"]
    lines += [str(int(k)) for k in mask.ids]
    return "\n".join(lines) + "\n"


def _simulated(depth, seed, root_type=0):
    return simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5),
        ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]]),
        depth=depth, root_type=root_type, seed=seed,
    )


def _hand_built():
    edges = [-0.0, 5e-324, 1e300, 1.0 / 3.0, -1e-300, 2.0**53 + 1]
    tree = ObservedTree.from_arrays(range(1, 7), edges, root_type=1)
    noise = np.concatenate([[0.0]] + [v[::-1] for v in tree.values[1:]])
    return dataclasses.replace(tree, eps=noise)


@pytest.mark.parametrize("case", ["depth0", "depth5", "depth9", "hand"])
def test_writers_keep_their_bytes(tmp_path, monkeypatch, case):
    tree = {
        "depth0": lambda: _simulated(0, 2),
        "depth5": lambda: _simulated(5, 4, root_type=1),
        "depth9": lambda: _simulated(9, 7),
        "hand": _hand_built,
    }[case]()
    # the writers' own chunks, then chunks of 3 rows, which put rows on both
    # sides of chunk boundaries (the depth-0 sidecar has no rows at all)
    for chunk in (io._CHUNK_ROWS, 3):
        monkeypatch.setattr(io, "_CHUNK_ROWS", chunk)
        io.write_lineage(tree, tmp_path / "t.csv")
        io.write_noise_sidecar(tree, tmp_path / "e.csv")
        io.write_mask(tree.mask, tmp_path / "m.csv")
        assert (tmp_path / "t.csv").read_text() == _reference_lineage(tree)
        assert (tmp_path / "e.csv").read_text() == _reference_noise(tree)
        assert (tmp_path / "m.csv").read_text() == _reference_mask(tree.mask)


def test_io_memory_floor(tmp_path):
    # a 101,500-row dense-law tree: each writer and reader peaks below its
    # bound in bytes per row.  A writer holds the mask's ids, which it
    # builds once, and one chunk of formatted rows; a reader holds numpy's
    # table and the builders' temporaries, and no copy of the whole file
    # (its bytes, their text or a StringIO of it).  The readers' mask
    # builder, given the ids, holds their flags and one chunk's temporaries
    bounds = {"write_lineage": 40.0, "write_mask": 20.0, "parse_lineage": 41.0, "parse_mask": 21.0,
              "from_ids": 8.0}
    law = ReproductionLaw.from_mean_matrix([[0.95, 0.9], [0.9, 0.95]])  # growth rate 1.85
    tree = simulate_joint(BarParams(0.5, 0.3, -0.4, 0.7), NoiseParams(1.0, 0.5), law, depth=18, seed=1)
    rows = tree.mask.total_count(tree.depth)
    assert rows >= 100_000
    lineage, mask = tmp_path / "t.csv", tmp_path / "m.csv"
    small = _simulated(3, 1)  # lazy imports stay out of the trace
    io.write_lineage(small, lineage)
    io.write_mask(small.mask, mask)
    io.parse_lineage(lineage)
    io.parse_mask(mask)
    ids = dataclasses.replace(tree.mask).ids  # the writers build their own
    calls = {
        "from_ids": lambda: ObservationMask.from_ids(ids, tree.depth),
        "write_lineage": lambda: io.write_lineage(tree, lineage),
        "write_mask": lambda: io.write_mask(tree.mask, mask),
        "parse_lineage": lambda: io.parse_lineage(lineage),
        "parse_mask": lambda: io.parse_mask(mask),
    }
    per_row = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            result = call()
            per_row[name] = round(tracemalloc.get_traced_memory()[1] / rows, 1)
        finally:
            tracemalloc.stop()
        del result
    over = {name: (peak, bounds[name]) for name, peak in per_row.items() if peak > bounds[name]}
    assert not over, f"bytes per row (peak, bound) above the bound: {over}; all peaks {per_row}"


# ---------------------------------------------------------------------------
# reader edge cases, written as bytes


@pytest.fixture
def written(tmp_path):
    """A simulated tree and the bytes of its lineage and mask files."""
    tree = _simulated(7, 5, root_type=1)
    io.write_lineage(tree, tmp_path / "t.csv")
    io.write_mask(tree.mask, tmp_path / "m.csv")
    return tree, (tmp_path / "t.csv").read_bytes(), (tmp_path / "m.csv").read_bytes()


@pytest.mark.parametrize("name", ["lineage.csv.gz", "lineage.csv.xz", "lineage.gz", "lineage.bz2"])
def test_compressed_suffixes_are_read_as_text(tmp_path, written, name):
    # plain text is read as text whatever the name says
    tree, lineage, mask = written
    (tmp_path / name).write_bytes(lineage)
    (tmp_path / ("mask" + name[7:])).write_bytes(mask)
    assert _same(io.parse_lineage(tmp_path / name), tree)
    assert io.parse_mask(tmp_path / ("mask" + name[7:])) == tree.mask


def _run_module(argv, **kwargs):
    path = [str(Path(io.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-m", "bartree.cli", *argv], env=env,
                          capture_output=True, **kwargs)


def test_estimate_reads_stdin_once(tmp_path, written):
    # /dev/stdin fed from a file, and from a pipe, which can be read only
    # once: the report is the file's, with the input named as given
    _, lineage, _ = written
    path = tmp_path / "t.csv"
    path.write_bytes(lineage)
    out = StringIO()
    with redirect_stdout(out):
        assert run_cli(["estimate", "--input", str(path)]) == 0
    want = json.loads(out.getvalue())
    want["input"] = "/dev/stdin"
    with open(path, "rb") as stdin:
        from_file = _run_module(["estimate", "--input", "/dev/stdin"], stdin=stdin)
    piped = _run_module(["estimate", "--input", "/dev/stdin"], input=lineage)
    for run in (from_file, piped):
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == want


@pytest.mark.parametrize("lineage", [True, False])
@pytest.mark.parametrize("where", ["header", "body"])
def test_undecodable_byte_is_one_error(tmp_path, written, lineage, where):
    # a byte that is not UTF-8 gives one line naming the file and the byte,
    # in the header as in the body
    _, text, mask = written
    data = text if lineage else mask
    at = data.index(b"\n") - 1 if where == "header" else len(data) - 2
    path = tmp_path / "bad.csv"
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(BartreeError) as exc:
        (io.parse_lineage if lineage else io.parse_mask)(path)
    assert str(exc.value) == f"{path}: not UTF-8 text (byte {at})"
    err = StringIO()
    with redirect_stderr(err), redirect_stdout(StringIO()):
        assert run_cli(["estimate" if lineage else "gw", "--input", str(path)]) == 2
    assert err.getvalue() == f"error: {path}: not UTF-8 text (byte {at})\n"


@pytest.mark.parametrize("data, lineage, message", [
    (b"\xef\xbb\xbf# bartree lineage v1\n1,0.5\n2,1.5\n", True,
     "line 1: expected 'node_id,value', got '\\ufeff# bartree lineage v1'"),
    (b"\xef\xbb\xbf1,0.5\n2,1.5\n", True, "line 1: malformed node id '\\ufeff1'"),
    (b"\xef\xbb\xbf1\n2\n", False, "line 1: malformed node id '\\ufeff1'"),
])
def test_byte_order_mark_is_not_skipped(tmp_path, data, lineage, message):
    # a UTF-8 BOM is a character of the first line, which then is no
    # header and no row
    path = tmp_path / "bom.csv"
    path.write_bytes(data)
    with pytest.raises(BartreeError) as exc:
        (io.parse_lineage if lineage else io.parse_mask)(path)
    assert str(exc.value) == message


@pytest.mark.parametrize("end", [b"\r\n", b"\r"])
def test_crlf_files_read_as_lf(tmp_path, written, end):
    # CRLF or CR line ends, and a last line without one, give the tree and
    # mask of the LF file
    tree, lineage, mask = written
    for name, data in (("t.csv", lineage), ("m.csv", mask), ("u.csv", lineage[:-1])):
        (tmp_path / name).write_bytes(data.replace(b"\n", end))
    assert _same(io.parse_lineage(tmp_path / "t.csv"), tree)
    assert _same(io.parse_lineage(tmp_path / "u.csv"), tree)
    assert io.parse_mask(tmp_path / "m.csv") == tree.mask


# ---------------------------------------------------------------------------
# files the program writes take the numpy path


def test_written_files_take_the_fast_path(tmp_path, monkeypatch):
    def row_loop(text, lineage):
        raise AssertionError("a program-written file fell back to the row loop")

    monkeypatch.setattr(io, "_rows", row_loop)
    config = tmp_path / "model.json"
    config.write_text(json.dumps({
        "schema": "bartree-model-v1",
        "bar": {"a": 0.5, "b": 0.3, "c": -0.4, "d": 0.7},
        "noise": {"sigma2": 1.0, "rho": 0.5},
        "law": {"type0": {"11": 0.5, "10": 0.3, "00": 0.2}, "type1": {"11": 0.6, "01": 0.4}},
        "depth": 9, "seed": 21, "root_type": 1,
    }))
    lineage, mask = tmp_path / "t.csv", tmp_path / "m.csv"
    argv = ["simulate", "--config", str(config), "--output", str(lineage),
            "--mask-output", str(mask)]
    assert run_cli(argv) == 0
    assert "# seed: 21" in lineage.read_text()
    tree = io.parse_lineage(lineage)
    back = io.parse_mask(mask)
    assert tree.depth == back.depth == 9 and back.root_type == tree.mask.root_type == 1
    assert tree.mask == back
    assert run_cli(["estimate", "--input", str(lineage)]) in (0, 3)
    assert run_cli(["gw", "--input", str(mask)]) in (0, 3)


def test_shuffled_files_take_the_fast_path(tmp_path, monkeypatch):
    # numpy reads ids in any order (the builders sort them) and gives the
    # row loop's tree and mask
    tree = _simulated(7, 5, root_type=1)
    lineage, mask = tmp_path / "t.csv", tmp_path / "m.csv"
    io.write_lineage(tree, lineage)
    io.write_mask(tree.mask, mask)
    rng = np.random.default_rng(3)
    for path in (lineage, mask):
        lines = path.read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        path.write_text("\n".join(header + list(rng.permutation(body))) + "\n")
    slow_tree = io._rows(lineage.read_text(), True)
    slow_mask = io._rows(mask.read_text(), False)

    def row_loop(text, lineage):
        raise AssertionError("a shuffled file fell back to the row loop")

    monkeypatch.setattr(io, "_rows", row_loop)
    fast_tree, fast_mask = io.parse_lineage(lineage), io.parse_mask(mask)
    assert fast_mask == slow_mask == fast_tree.mask == slow_tree.mask == tree.mask
    for fast, slow, want in zip(fast_tree.values, slow_tree.values, tree.values):
        assert np.array_equal(fast, slow) and np.array_equal(fast, want)
