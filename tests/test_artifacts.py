"""The one write rule: `artifacts.open_for_write` makes the file's
directories and rewrites the file in place, without O_TRUNC. The one CSV
writer, `artifacts.write_csv`, writes csv.writer's bytes. Every writer
records the sha256 of what it wrote for the stage being recorded."""

import csv
import hashlib
import json
import os
import tempfile
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from airdrop_forensics import artifacts, graphs

from conftest import addr, digraph, recorded_sha256

OLD = b"0123456789\n" * 8
NEW = {"shorter": b"short\n", "equal": OLD.upper().replace(b"\n", b";"), "longer": OLD * 3}


@pytest.mark.parametrize("mode", ["w", "wb"])
@pytest.mark.parametrize("size", sorted(NEW))
def test_a_rewrite_leaves_exactly_the_new_bytes_in_the_same_file(tmp_path, size, mode):
    path = tmp_path / "artifact.csv"
    path.write_bytes(OLD)
    inode = path.stat().st_ino
    with artifacts.open_for_write(path, mode) as fh:
        fh.write(NEW[size] if "b" in mode else NEW[size].decode())
    assert path.read_bytes() == NEW[size]
    assert path.stat().st_ino == inode


@pytest.mark.parametrize("size", sorted(NEW))
def test_a_block_that_raises_leaves_the_bytes_written_so_far(tmp_path, size):
    path = tmp_path / "artifact.csv"
    path.write_bytes(OLD)
    with pytest.raises(RuntimeError), artifacts.open_for_write(path) as fh:
        fh.write(NEW[size].decode())
        raise RuntimeError("stopped mid-write")
    assert path.read_bytes() == NEW[size]


def test_missing_parent_directories_are_made(tmp_path):
    path = tmp_path / "out" / "detect" / "components" / "component_1.dot"
    with artifacts.open_for_write(path) as fh:
        fh.write("digraph {}\n")
    assert path.read_text() == "digraph {}\n"


@pytest.mark.parametrize("in_the_way", ["file_for_parent", "directory_for_file"])
def test_a_path_in_the_way_is_an_unusable_output_that_names_it(tmp_path, in_the_way):
    named = tmp_path / "detect"
    if in_the_way == "file_for_parent":
        named.write_text("")
        path = named / "findings.jsonl"
    else:
        named.mkdir()
        path = named
    with pytest.raises(artifacts.UnusableOutputError) as caught:
        with artifacts.open_for_write(path):
            pass
    assert repr(str(named)) in str(caught.value)


def test_the_file_is_never_opened_with_o_trunc(tmp_path):
    path = tmp_path / "artifact.json"
    flags = []
    real_open = os.open

    def spy(file, flag, *args, **kw):
        flags.append(flag)
        return real_open(file, flag, *args, **kw)

    with mock.patch.object(os, "open", spy):
        for payload in ({"rows": list(range(50))}, {}):  # create, then rewrite shorter
            artifacts.write_json(payload, path)
    assert len(flags) == 2 and not any(flag & os.O_TRUNC for flag in flags)
    assert path.read_text() == "{}\n"


def test_text_mode_writes_utf8_whatever_the_locale(tmp_path):
    """A file that open_for_write opens in text mode is UTF-8 in a process
    whose locale encoding is ASCII (the C locale, with UTF-8 mode and
    locale coercion off). The CSV and JSON writers write bytes, so this is
    the text-mode writers' rule: the graph exports, findings.jsonl and
    report.md."""
    path = tmp_path / "report.md"
    code = ("import sys\nfrom airdrop_forensics import artifacts\n"
            "with artifacts.open_for_write(sys.argv[1]) as fh:\n    fh.write('caf\\u00e9\\n')\n")
    env = {**os.environ, "PYTHONPATH": str(Path(artifacts.__file__).parents[1]),
           "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert path.read_bytes() == "caf\u00e9\n".encode("utf-8")


# Any text but "\r", with the characters csv.writer quotes drawn often.
_CELLS = st.text(st.characters(exclude_characters="\r"), max_size=5) | st.sampled_from(
    [",", '"', "\n", "\0", "", 'a,"b"\n'])


@st.composite
def csv_tables(draw):
    """(header, rows, carriage): a table of 2 to 9 columns, whose rows of
    digits fill more than one batch of write_csv, with rows of any text
    among them and, when `carriage`, a "\\r" in one cell."""
    width = draw(st.integers(2, 9))
    row = st.lists(_CELLS, min_size=width, max_size=width)
    header = draw(row)
    rows = [[str(i)] * width for i in range(draw(st.integers(0, 3 * artifacts._ROWS)))]
    for drawn in draw(st.lists(row, max_size=4)):
        rows.insert(draw(st.integers(0, len(rows))), drawn)
    carriage = draw(st.booleans())
    if carriage:
        cells = [header, *rows]
        cells[draw(st.integers(0, len(rows)))][draw(st.integers(0, width - 1))] += "\r"
    return header, rows, carriage


def _needs_quoting(batch) -> bool:
    return any(c in cell for row in batch for cell in row for c in ',"\n\0')


@settings(max_examples=150, derandomize=True, deadline=None)
@example(table=(["a", "b"], [["1", "2"]] * 700 + [["x,y", ""]], False))
@example(table=(["a", "b"], [["x\0", "\n"]] + [["1", "2"]] * 700, False))
@given(table=csv_tables())
def test_write_csv_writes_csv_writers_bytes(tmp_path_factory, table):
    """write_csv writes the bytes csv.writer(fh, lineterminator="\\n")
    writes (or raises what it raises), renders by csv.writer exactly the
    batches that hold a cell it would quote, refuses a "\\r", and records
    the sha256 of the file."""
    header, rows, carriage = table
    tmp = tmp_path_factory.mktemp("csv")
    written, reference = tmp / "written.csv", tmp / "reference.csv"
    if carriage:
        with pytest.raises(ValueError, match="carriage return"):
            artifacts.write_csv(header, rows, written)
        return
    try:
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    except csv.Error:  # a NUL, on an interpreter whose csv refuses one
        with pytest.raises(csv.Error):
            artifacts.write_csv(header, rows, written)
        return
    except UnicodeEncodeError:  # a lone surrogate, which UTF-8 cannot encode
        with pytest.raises(UnicodeEncodeError):
            artifacts.write_csv(header, rows, written)
        return
    batches = [[header]] + [rows[i:i + artifacts._ROWS] for i in range(0, len(rows), artifacts._ROWS)]
    with mock.patch("csv.writer", wraps=csv.writer) as writer:
        with artifacts.recording(tmp):
            artifacts.write_csv(header, rows, written)
    assert writer.call_count == sum(map(_needs_quoting, batches))
    assert written.read_bytes() == reference.read_bytes()
    assert recorded_sha256(written) == hashlib.sha256(written.read_bytes()).hexdigest()


@pytest.mark.parametrize("cell", [",", '"', "\n", "\0"])
def test_write_csv_without_quoting_refuses_a_cell_to_quote(tmp_path, cell):
    with pytest.raises(ValueError, match="in a cell"):
        artifacts.write_csv(["a", "b"], [["1", "2"]] * 600 + [["1", cell]], tmp_path / "t.csv",
                            quote=False)


@pytest.mark.parametrize("row", [["1"], ["1", "2", "3"]], ids=["short", "long"])
def test_write_csv_refuses_a_row_of_another_width_than_the_header(tmp_path, row):
    with pytest.raises(ValueError, match="not the header's 2"):
        artifacts.write_csv(["a", "b"], [["1", "2"], row], tmp_path / "t.csv")


def test_write_json_records_the_sha256_of_the_file(tmp_path):
    path = tmp_path / "artifact.json"
    with artifacts.recording(tmp_path):
        artifacts.write_json({"b": [1, 2.5], "a": "\u00e9"}, path)
    assert recorded_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.read_text(encoding="utf-8") == artifacts.render_json({"a": "\u00e9", "b": [1, 2.5]})


# Text of the writers' cells and keys: any valid Unicode but "\r".
_TEXT = st.text(st.characters(exclude_characters="\r", exclude_categories=["Cs"]), max_size=4)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8)


@st.composite
def writes(draw):
    """(writer, path relative to the stage, the call that writes what was
    drawn to a path) for each writer of the artifacts and graphs modules."""
    writer = draw(st.sampled_from(["write_json", "write_jsonl", "write_csv", "graphml", "dot",
                                   "write_graph_json"]))
    if writer == "write_json":
        payload = draw(_JSON)
        return writer, "a.json", lambda path: artifacts.write_json(payload, path)
    if writer == "write_jsonl":
        rows = draw(st.lists(st.dictionaries(_TEXT, _JSON, max_size=3), max_size=4))
        return writer, "a.jsonl", lambda path: artifacts.write_jsonl(rows, path)
    if writer == "write_csv":
        row = st.lists(_TEXT, min_size=2, max_size=2)
        header, rows = draw(row), draw(st.lists(row, max_size=5))
        return writer, "a.csv", lambda path: artifacts.write_csv(header, rows, path)
    g = digraph([(addr(u), addr(v), w) for u, v, w in draw(st.lists(st.tuples(
        st.integers(1, 6), st.integers(1, 6), st.integers(1, 10**24)), max_size=8))])
    if writer == "write_graph_json":
        return writer, "graph/g.json", lambda path: graphs.write_graph_json(g, path)
    return writer, f"graph/g.{writer}", lambda path: graphs.write_graph(g, path, writer, "g")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(drawn=writes())
def test_every_writer_records_the_sha256_of_the_bytes_on_disk(drawn):
    """Inside `recording`, each writer's file is recorded in the stage's
    run.json, by its name relative to the stage, with the sha256 of the
    bytes on disk."""
    writer, name, write = drawn
    with tempfile.TemporaryDirectory() as tmp:
        stage = Path(tmp) / "stage"
        with artifacts.recording(stage):
            write(stage / name)
        digest = hashlib.sha256((stage / name).read_bytes()).hexdigest()
        record = json.loads((stage / artifacts.RECORD).read_text())
    assert record == {"outputs": {name: {"sha256": digest}}}, writer


def test_a_recording_that_raises_writes_no_record(tmp_path):
    with pytest.raises(RuntimeError), artifacts.recording(tmp_path):
        artifacts.write_json({}, tmp_path / "a.json")
        raise RuntimeError("the stage failed")
    assert (tmp_path / "a.json").exists() and not (tmp_path / artifacts.RECORD).exists()
