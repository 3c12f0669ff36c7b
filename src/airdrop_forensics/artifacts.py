"""The byte format of every stage artifact, the one way each is written,
and the one rule by which a later stage trusts what it reads.

JSON files hold keys in sorted order, indented by 2, and end in a newline;
the graph files, which are large and machine-read only, are compact
(graphs.write_graph_json).
JSONL files hold one sorted-key object per line. CSV files start with a
header row, quote cells as csv.writer does, end every line with "\\n" and
hold no "\\r", which csv.writer leaves unquoted. Text is UTF-8 whatever the
locale.

Every artifact is written by `write(path, chunks)`: each writer renders
its text a chunk at a time, and `write` hashes the bytes as it writes them.
It keeps one write rule, `open_for_write`: the file's directories are made
and the file is rewritten in place, opened without O_TRUNC and cut where
the writes end. On ext4 mounted with `discard`, a write after a truncation
stalls (about 0.2 s for a 4 MB file) from the third rewrite of a path on;
an in-place rewrite does not. An interrupted write leaves the new bytes
followed by the old file's tail.

cli.main runs each stage inside `recording(stage_dir)`. Once the stage
succeeds, the stage's run.json records the sha256 of each file that run
wrote: {"outputs": {name relative to the stage directory: {"sha256": ...}}}.
A stage that fails records nothing, so the record of its last successful
run stays, and a file the failed run rewrote no longer matches it.

A later stage trusts an artifact by that record alone: `read_chunks`, and
so `read` and ingest's loaders, accept a file only when its bytes match the
sha256 its stage recorded, and the file is then parsed unchecked. Every
artifact is opened through `open_for_write` or `open_for_read`, so a file
error is a `UserError` (exit 1) raised where the file is opened:
UnusableOutputError for a path that cannot be written, MissingArtifactError
naming the stage that writes it (the artifact's directory) for an input
that is missing, not a file or undecodable, or whose stage recorded no
digest for it or another digest than its bytes have.
"""

import csv
import hashlib
import io
import json
import os
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
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


# The record each stage leaves in its directory.
RECORD = "run.json"
# The sha256 of each file written inside the innermost `recording`, by path.
_outputs: ContextVar[dict[Path, str] | None] = ContextVar("outputs", default=None)


def write(path, chunks: Iterable[str]) -> None:
    """Write the UTF-8 bytes of `chunks` to `path` under the write rule,
    and record their sha256, hashed as written, for the stage being
    recorded."""
    digest = hashlib.sha256()
    with open_for_write(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode()
            digest.update(data)
            fh.write(data)
    outputs = _outputs.get()
    if outputs is not None:
        outputs[Path(path)] = digest.hexdigest()


@contextmanager
def recording(stage_dir):
    """Collect the sha256 of every file `write` writes in the block and,
    if the block raises nothing, write them to `stage_dir`/run.json, each
    by its name relative to `stage_dir`."""
    stage_dir = Path(stage_dir)
    outputs: dict[Path, str] = {}
    token = _outputs.set(outputs)
    try:
        yield
    finally:
        _outputs.reset(token)
    write_json({"outputs": {path.relative_to(stage_dir).as_posix(): {"sha256": digest}
                            for path, digest in outputs.items()}}, stage_dir / RECORD)


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


def read_chunks(path, size: int = -1) -> Iterator[bytes]:
    """The bytes of the artifact at `path`, `size` at a time (by default
    all at once), hashed as they are read. Their sha256 must be the one
    that the stage writing the artifact (its directory) recorded for it in
    its run.json: once the last chunk is read, a missing record, a record
    without the file or another digest raises MissingArtifactError naming
    that stage."""
    path = Path(path)
    record = path.parent / RECORD
    with open_for_read(record) as fh:
        outputs = json.load(fh)
    try:
        recorded = outputs["outputs"][path.name]["sha256"]
    except (KeyError, TypeError):
        raise unreadable(path, f"{record} records no sha256 for it") from None
    digest = hashlib.sha256()
    with open_for_read(path, mode="rb") as fh:
        while chunk := fh.read(size):
            digest.update(chunk)
            yield chunk
    if digest.hexdigest() != recorded:
        stage = path.parent.name
        raise MissingArtifactError(f"{path} does not match the sha256 {recorded} that {stage} "
                                   f"recorded in {RECORD}: re-run the {stage} stage")


def read(path):
    """The artifact at `path`, read by `read_chunks` and parsed by its
    suffix: the rows of a CSV as dicts of text, the values of a JSONL
    file's lines, or a JSON value."""
    path = Path(path)
    text = b"".join(read_chunks(path)).decode()
    if path.suffix == ".csv":
        return list(csv.DictReader(io.StringIO(text, newline="")))
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def render_json(payload) -> str:
    """The text `write_json` writes for `payload`."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(payload, path) -> None:
    """Write `payload` as `render_json` renders it."""
    write(path, [render_json(payload)])


def write_jsonl(rows: Iterable, path) -> None:
    write(path, (json.dumps(row, sort_keys=True) + "\n" for row in rows))


# Rows per batch of write_csv: about 100 KB of events.csv's text, under
# glibc's mmap threshold (see ingest._CHUNK).
_ROWS = 1 << 9


def write_csv(header: Sequence[str], rows: Iterable[Sequence[str]], path, *,
              quote: bool = True) -> None:
    """Write `header` and `rows`, rows of text with a cell per column, with
    the bytes of csv.writer(fh, lineterminator="\\n"). Each batch of rows is joined by "," and "\\n", unless its text
    shows a cell that csv.writer quotes (more commas or newlines than its
    rows' own, a '"', or a NUL, which some interpreters' csv refuses) or its
    rows have one cell: then csv.writer renders it, or, if not `quote`,
    that is a ValueError, so the file splits at its commas. So is a "\\r" in
    a cell, or a row of another width.
    """
    write(path, _csv_chunks(header, iter(rows), quote))


def _csv_chunks(header: Sequence[str], rows: Iterator[Sequence[str]], quote: bool
                ) -> Iterator[str]:
    width = len(header)
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
        yield text
