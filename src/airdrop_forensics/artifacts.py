"""The byte format of every stage artifact, and its file errors.

JSON files hold keys in sorted order, indented by 2 (compact for the
graph files, which are large and machine-read only) and end in a newline.
JSONL files hold one sorted-key object per line. CSV files start with a
header row and end every line with "\\n". Text is UTF-8 whatever the
locale. The readers invert the writers.

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
that is missing, not a file, or does not decode or parse.
"""

import csv
import json
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
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


def render_json(payload, *, compact: bool = False) -> str:
    """The text `write_json` writes for `payload`."""
    if compact:
        # json.dumps without indent takes the C encoder; json.dump never does
        return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(payload, path, *, compact: bool = False) -> None:
    with open_for_write(path) as fh:
        fh.write(render_json(payload, compact=compact))


def write_jsonl(rows: Iterable, path) -> None:
    with open_for_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_csv(header: list, rows: Iterable, path) -> None:
    with open_for_write(path, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def read_json(path):
    with open_for_read(path) as fh:
        return json.load(fh)


def read_jsonl(path) -> Iterator:
    with open_for_read(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def read_csv(path, columns: Iterable[str] = ()) -> Iterator[dict[str, str]]:
    """The rows of a CSV with a header, one dict at a time. A header that
    lacks one of `columns` (those the caller indexes), or a row whose cells
    do not match the header, is a parse error."""
    with open_for_read(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise csv.Error(f"the header lacks the columns {missing}")
        for row in reader:
            if None in row or None in row.values():
                raise csv.Error(f"line {reader.line_num}: cells do not match the header")
            yield row
