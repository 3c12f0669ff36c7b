"""The one write rule: `artifacts.open_for_write` makes the file's
directories and rewrites the file in place, without O_TRUNC."""

import os
from unittest import mock

import pytest

from airdrop_forensics import artifacts

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
