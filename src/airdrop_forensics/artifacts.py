"""The byte format of every stage artifact, and its file errors.

JSON files hold keys in sorted order, indented by 2, and end in a newline;
the graph files, which are large and machine-read only, are compact
(graphs.write_graph_json).
JSONL files hold one sorted-key object per line. CSV files start with a
header row, quote cells as csv.writer does, end every line with "\\n" and
hold no "\\r", which csv.writer leaves unquoted. `write_csv`, the one CSV
writer, and `write_json` return the sha256 of what they wrote, which
ingest records. Text is UTF-8 whatever the locale.

The contract between stages is declared once, in SHAPES: for each
artifact a later stage reads, what its readers index. The one reader,
`read`, inverts the writers and checks that shape, so a stage indexes
what it reads without guards of its own. The files ingest writes are the
exception: `ingest.read_records` and `ingest.read_store` parse each one
unchecked once its bytes match the sha256 recorded in ingest's run.json.

Every artifact is written by one rule, `open_for_write`: the writer makes
the file's directories and rewrites the file in place, opened without
O_TRUNC and cut where the writes end. On ext4 mounted with `discard`, a
write after a truncation stalls (about 0.2 s for a 4 MB file) from the third
rewrite of a path on; an in-place rewrite does not. An interrupted write
leaves the new bytes followed by the old file's tail.

Every artifact is opened through `open_for_write` or `open_for_read`, so
a file error is a `UserError` (exit 1) raised where the file is opened:
UnusableOutputError for a path that cannot be written, MissingArtifactError
naming the stage that writes it (the artifact's directory) for an input
that is missing, not a file, or does not decode, parse or have its
declared shape.
"""

import csv
import hashlib
import io
import json
import os
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path


class UserError(Exception):
    """A user error: the CLI prints `code` and the message and exits 1."""

    code = "validation_error"


class UnusableOutputError(UserError):
    """An artifact path, or a directory on it, cannot be written."""


class MissingArtifactError(UserError):
    """An upstream artifact is missing or unreadable: its stage must run first."""

    code = "missing_artifact"


@contextmanager
def open_for_write(path, mode: str = "w", **kw):
    """`open(path, mode, **kw)` under the write rule above, UTF-8 in text
    mode. A directory or a file in the way, or a denied permission, raises
    UnusableOutputError naming the path."""
    path = Path(path)
    if "b" not in mode:
        kw.setdefault("encoding", "utf-8")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # the opener drops open()'s own flags, which for "w" hold O_TRUNC
        fh = open(path, mode, **kw,
                  opener=lambda p, _flags: os.open(p, os.O_WRONLY | os.O_CREAT, 0o666))
    except (FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise UnusableOutputError(f"cannot write {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        finally:
            fh.truncate()


def unreadable(path, reason) -> MissingArtifactError:
    """The error for the artifact at `path`, which `reason` kept from being
    read; it names the stage that writes the artifact (its directory)."""
    path = Path(path)
    return MissingArtifactError(
        f"cannot read {path} ({reason}): run the {path.parent.name} stage first"
    )


@contextmanager
def open_for_read(path, **kw):
    """`open(path, **kw)` for reading, UTF-8 in text mode. An OSError on
    open, or a ValueError (bad encoding or JSON) or csv.Error while the
    body parses, raises `unreadable(path, ...)`."""
    if "b" not in kw.get("mode", "r"):
        kw.setdefault("encoding", "utf-8")
    try:
        with open(path, **kw) as fh:
            yield fh
    except (OSError, ValueError, csv.Error) as exc:
        raise unreadable(path, exc) from exc


def render_json(payload) -> str:
    """The text `write_json` writes for `payload`."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(payload, path) -> str:
    """Write `payload` as `render_json` renders it; the sha256 of the bytes."""
    data = render_json(payload).encode()
    with open_for_write(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_jsonl(rows: Iterable, path) -> None:
    with open_for_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# Rows per batch of write_csv: about 100 KB of events.csv's text, under
# glibc's mmap threshold (see ingest._CHUNK).
_ROWS = 1 << 9


def write_csv(header: Sequence[str], rows: Iterable[Sequence[str]], path, *,
              quote: bool = True) -> str:
    """Write `header` and `rows`, rows of text with a cell per column, with
    the bytes of csv.writer(fh, lineterminator="\\n"); the sha256 of those
    bytes, hashed as written. Each batch of rows is joined by "," and
    "\\n", unless its text shows a cell that csv.writer quotes (more commas
    or newlines than its rows' own, a '"', or a NUL, which some
    interpreters' csv refuses) or its rows have one cell: then csv.writer
    renders it, or, if not `quote`, that is a ValueError, so the file
    splits at its commas. So is a "\\r" in a cell, or a row of another width.
    """
    width, rows, digest = len(header), iter(rows), hashlib.sha256()
    with open_for_write(path, "wb") as fh:
        for batch in chain([[header]], iter(lambda: list(islice(rows, _ROWS)), [])):
            text = "\n".join(map(",".join, batch)) + "\n"
            if "\r" in text:
                raise ValueError("a carriage return in a cell, where csv.reader would end the row")
            if {*map(len, batch)} != {width}:
                raise ValueError(f"a row whose cells are not the header's {width}")
            if (width < 2 or text.count(",") != (width - 1) * len(batch)
                    or text.count("\n") != len(batch) or '"' in text or "\0" in text):
                if not quote:
                    raise ValueError("a '\"', ',', '\\n' or NUL in a cell of a file that "
                                     "splits at its commas")
                buffer = io.StringIO()
                csv.writer(buffer, lineterminator="\n").writerows(batch)
                text = buffer.getvalue()
            data = text.encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


# What later stages read of each stage artifact, keyed "<stage>/<file>".
# For a CSV: the columns its readers index, each with the type its cells
# must parse as (they are returned as text). For JSON, and for each line
# of JSONL: a type, or an object of the keys its readers index with their
# shapes, where the key `str` stands for every key. `float` admits any
# number; `int` and `float` admit no bool.
_DENSITIES = {str: {"bandwidth": float, "integral": float, "grid": list}}
SHAPES = {
    "ingest/run.json": {"outputs": {name: {"sha256": str} for name in (
        "claims.csv", "contracts.csv", "events.csv", "report.json")}},
    "graph/token_graph.json": {"nodes": list, "edges": list},
    "graph/external_graph.json": {"nodes": list, "edges": list},
    "graph/summary.json": {"token_graph": {"nodes": int, "edges": int}},
    "graph/metric_series.json": list,
    "cluster/assignment.csv": {"address": str, "cluster": int, "role": str},
    "cluster/silhouette.json": {"chosen_k": int},
    "detect/findings.jsonl": {"pattern": str},
    "detect/voting_power.json": list,
    "eligibility/summary.json": dict,
    "stats/attrition.json": {"left_pct": float},
    "stats/behavior_table.json": dict,
    "stats/top_contracts.csv": {"name": str, "category": str, "address": str, "interactions": int},
    "stats/kde_periods.json": _DENSITIES,
    "stats/kde_quantities.json": _DENSITIES,
    "stats/tier_composition.csv": {"cluster": int},
}


def read(path):
    """The artifact at `path`, parsed by its suffix: the rows of a CSV as
    dicts of text, the values of a JSONL file's lines, or a JSON value. One
    that SHAPES names must have the shape declared there; one that does
    not, or that does not parse, raises `unreadable(path, ...)`. An
    artifact SHAPES does not name is parsed unchecked."""
    path = Path(path)
    shape = SHAPES.get(f"{path.parent.name}/{path.name}")
    if path.suffix == ".csv":
        with open_for_read(path, newline="") as fh:
            return _csv_rows(csv.DictReader(fh), shape or {})
    with open_for_read(path) as fh:
        if path.suffix == ".jsonl":
            payload = [json.loads(line) for line in fh if line.strip()]
            for n, value in enumerate(payload, 1):
                _check(value, shape, f"row {n}")
        else:
            payload = json.load(fh)
            _check(payload, shape, "")
    return payload


def _csv_rows(reader: csv.DictReader, columns: dict) -> list[dict[str, str]]:
    """The rows of `reader`. A header that lacks one of `columns`, a row
    whose cells do not match the header, or a cell that does not parse as
    its column's type is a parse error."""
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise csv.Error(f"the header lacks the columns {missing}")
    rows = []
    for row in reader:
        if None in row or None in row.values():
            raise csv.Error(f"line {reader.line_num}: cells do not match the header")
        for column, kind in columns.items():
            try:
                kind(row[column])
            except ValueError:
                raise csv.Error(f"line {reader.line_num}: {column} {row[column]!r} "
                                f"is not {kind.__name__}") from None
        rows.append(row)
    return rows


def _check(value, shape, where: str) -> None:
    """Raise ValueError naming `where`, the keys that lead to `value`,
    unless `value` has `shape` (see SHAPES); None is any shape."""
    if shape is None:
        return
    kind = dict if isinstance(shape, dict) else shape
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"wrong shape: {where or 'the value'} is {type(value).__name__}, "
                         f"not {kind.__name__}")
    if isinstance(shape, dict):
        for key, inner in ((k, shape[str]) for k in value) if str in shape else shape.items():
            if key not in value:
                raise ValueError(f"wrong shape: {where or 'the value'} has no key {key!r}")
            _check(value[key], inner, f"{where}[{key!r}]")
