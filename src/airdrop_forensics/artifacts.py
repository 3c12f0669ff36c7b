"""The byte format of every stage artifact, and nothing else.

JSON files hold keys in sorted order, indented by 2 (compact for the
graph files, which are large and machine-read only) and end in a newline.
JSONL files hold one sorted-key object per line. CSV files start with a
header row and end every line with "\\n". The readers invert the writers.
Every artifact is opened for writing through `open_for_write`, so a path
that cannot be written is a user error that names it.
"""

import csv
import json
from collections.abc import Iterable, Iterator


class UnusableOutputError(Exception):
    """An output directory, run record or artifact path cannot be written."""


def open_for_write(path, mode: str = "w", **kw):
    """`open(path, mode, **kw)`, raising UnusableOutputError naming `path`
    when a directory or a file is in the way or permission is denied."""
    try:
        return open(path, mode, **kw)
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise UnusableOutputError(f"cannot write {path}: {exc}") from exc


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
    with open(path) as fh:
        return json.load(fh)


def read_jsonl(path) -> Iterator:
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def read_csv(path) -> Iterator[dict[str, str]]:
    """The rows of a CSV with a header, one dict at a time."""
    with open(path, newline="") as fh:
        yield from csv.DictReader(fh)
