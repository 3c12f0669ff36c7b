"""No user error exits 2.

Stages run on mutated configs and on mutated raw inputs must exit 0 or 1,
and on exit 1 the last stderr line is a JSON error with a `code`. Values
that size the synthetic corpus stay small, because a valid but huge one
(say `synth.noise_rate: 1e9`) is a long run, not an error.
"""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import re
import shutil
import tempfile
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from airdrop_forensics import artifacts
from airdrop_forensics.cli import main
from airdrop_forensics.clustering import Linkage
from airdrop_forensics.config import Preset
from airdrop_forensics.forensics import PatternKind

from conftest import record

STAGES = ["synth", "ingest", "graph", "cluster", "detect", "eligibility", "stats", "report"]
BASE = {"synth": {"seed": 5, "population_total": 120},
        "eligibility": {"min_tx_count": 5, "interaction_window_days": 2}}
RAW_INPUTS = ["token_transfers", "external_txs", "contracts", "claims"]

_PROPERTY = settings(derandomize=True, deadline=None, database=None)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Every stage's artifacts for BASE, plus a balances file."""
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "config.json"
    config.write_text(json.dumps(BASE))
    for stage in STAGES:
        assert main([stage, "--config", str(config), "--out", str(root / "out")]) == 0, stage
    claims = (root / "out" / "synth" / "claims.csv").read_text().splitlines()[1:6]
    (root / "balances.csv").write_text("address,chain,balance\n" + "".join(
        f"{line.split(',')[0]},ethereum,{i / 10}\n" for i, line in enumerate(claims)))
    return root


def assert_exit_0_or_1(stage: str, config, out: Path):
    """Run `stage` with `config` on the artifacts in `out`; the exit code,
    and on exit 1 the JSON error."""
    path = out.parent / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([stage, "--config", str(path), "--out", str(out)])
    assert code in (0, 1), err.getvalue()
    if code == 0:
        return code, None
    error = json.loads(err.getvalue().splitlines()[-1])
    assert "code" in error
    return code, error


# A mutation is (path, value). Each step of the path is a key, or an int
# that picks the key (in sorted order) or list entry at that depth; the
# walk stops early at a value that is not a non-empty object or list.
UNKNOWN_KEY = "<unknown key>"


@dataclass(frozen=True)
class Near:
    """Stands for a value of the same JSON type as the one it replaces,
    `step` (±1 or ±2) away from it; see `near`."""

    step: int


# Half the values are drawn from the type of the value they replace, so
# that mutated configs also load and run their stage; the other half suit
# none or few fields.
VALUES = st.one_of(st.sampled_from([-2, -1, 1, 2]).map(Near),
                   st.sampled_from(["x", None, math.nan, True, [], {}, UNKNOWN_KEY]))
MUTATION = st.tuples(st.lists(st.integers(0, 40), max_size=3).map(tuple), VALUES)
ENUMS = [[m.value for m in enum] for enum in (Linkage, PatternKind, Preset)]


def near(old, step: int):
    """A value of the type of `old`: the other bool, an int `step` away, a
    float scaled by 2**step, a date `step` months away, another member of
    the same enum, a rotated list, an object without one key, or a path
    for an unset input. Synth sizes stay small: a few units from BASE's,
    or the defaults when their key is dropped."""
    if isinstance(old, bool):
        return not old
    if isinstance(old, int):
        return old + step
    if isinstance(old, float):
        return old * 2.0**step
    if isinstance(old, str):
        for choices in ENUMS:
            if old in choices:
                return choices[(choices.index(old) + step) % len(choices)]
        with contextlib.suppress(ValueError):
            return (date.fromisoformat(old) + timedelta(days=30 * step)).isoformat()
        return old + str(step)
    if isinstance(old, list):
        return old[step:] + old[:step]
    if isinstance(old, dict):
        return {key: v for i, (key, v) in enumerate(sorted(old.items())) if i != step % len(old)}
    return "missing.csv"  # null: an input path left unset


def mutate(config, path: tuple, value):
    """`config` with `value` at `path`, or with an unknown key added to the
    innermost object on the path; a `Near` value is made from the value it
    replaces."""
    parent, key, node, section = None, None, config, config
    for step in path:
        if isinstance(node, dict) and node:
            step = step if isinstance(step, str) else sorted(node)[step % len(node)]
        elif isinstance(node, list) and node:
            step %= len(node)
        else:
            break
        parent, key = node, step
        if isinstance(node, dict) and step not in node:
            break
        node = node[step]
        section = node if isinstance(node, dict) else section
    if isinstance(value, Near):
        value = near(node, value.step)
    if value == UNKNOWN_KEY:
        if isinstance(section, dict):
            section["bogus"] = 1
    elif parent is None:
        return copy.deepcopy(value)
    else:
        parent[key] = copy.deepcopy(value)
    return config


@settings(_PROPERTY, max_examples=60)
@given(stage=st.sampled_from(STAGES), mutations=MUTATION.map(lambda m: [m]))
@example(stage="cluster", mutations=[(("clustering", "k_min"), 0), (("clustering", "k_max"), 1)])
@example(stage="synth", mutations=[(("window", "start"), None)])
@example(stage="synth", mutations=[(("window", "end"), None)])
def test_mutated_config_never_exits_2(pipeline, stage, mutations):
    """One mutation per generated config, so that many still load and run;
    the explicit examples combine more."""
    config = json.loads((pipeline / "out" / "config.resolved.json").read_text())
    for path, value in mutations:
        config = mutate(config, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(pipeline / "out", out)
        assert_exit_0_or_1(stage, config, out)


def to_jsonl(data: bytes, how: str, row: int, column: int) -> bytes:
    """The CSV export as JSONL, with one line replaced by a JSON array
    (`jsonl_array`) or one cell written as a JSON number (`jsonl_number`):
    an integer cell as itself, any other as 5."""
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    r = row % len(rows)
    if how == "jsonl_number":
        key = sorted(rows[r])[column % len(rows[r])]
        rows[r][key] = int(rows[r][key]) if rows[r][key].isdigit() else 5
    lines = [json.dumps(cells) for cells in rows]
    if how == "jsonl_array":
        lines[r] = "[1, 2]"
    return ("\n".join(lines) + "\n").encode()


def mutate_csv(data: bytes, how: str, row: int, column: int) -> bytes:
    if how.startswith("jsonl"):
        return to_jsonl(data, how, row, column)
    if how == "empty":
        return b""
    if how == "bom":
        return b"\xef\xbb\xbf" + data
    if how == "crlf":
        return data.replace(b"\n", b"\r\n")
    if how == "non_utf8":
        lines = data.split(b"\n")
        lines[row % len(lines)] += b"\xff"
        return b"\n".join(lines)
    rows = list(csv.reader(data.decode().splitlines()))
    r = 1 + row % (len(rows) - 1) if len(rows) > 1 else 0
    c = column % len(rows[r])
    if how == "drop_column":
        rows = [cells[:c] + cells[c + 1:] for cells in rows]
    elif how == "blank_cell":
        rows[r][c] = ""
    elif how == "bad_hex":
        rows[r][c] = "0xZZ" + rows[r][c][4:]
    elif how == "duplicate_row":
        rows.insert(r, rows[r])
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().encode()


@settings(_PROPERTY, max_examples=40)
@given(name=st.sampled_from(RAW_INPUTS + ["balances"]),
       how=st.sampled_from(["empty", "bom", "crlf", "non_utf8", "drop_column", "blank_cell",
                            "bad_hex", "duplicate_row", "jsonl_array", "jsonl_number"]),
       row=st.integers(0, 300), column=st.integers(0, 7))
@example(name="claims", how="non_utf8", row=3, column=0)
@example(name="balances", how="drop_column", row=0, column=1)
@example(name="token_transfers", how="jsonl_number", row=0, column=6)  # "tx_hash": 5
@example(name="contracts", how="jsonl_array", row=0, column=0)
def test_mutated_inputs_never_exit_2(pipeline, name, how, row, column):
    """Ingest on a mutated raw export, or eligibility on a mutated balances file."""
    sources = {n: pipeline / "out" / "synth" / f"{n}.csv" for n in RAW_INPUTS}
    sources["balances"] = pipeline / "balances.csv"
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {}
        for n, source in sources.items():
            suffix = ".jsonl" if n == name and how.startswith("jsonl") else source.suffix
            inputs[n] = str(Path(tmp) / source.with_suffix(suffix).name)
            data = source.read_bytes()
            Path(inputs[n]).write_bytes(mutate_csv(data, how, row, column) if n == name else data)
        out = Path(tmp) / "out"
        if name == "balances":
            shutil.copytree(pipeline / "out" / "ingest", out / "ingest")
        assert_exit_0_or_1("eligibility" if name == "balances" else "ingest",
                           {**BASE, "inputs": inputs}, out)


# Each artifact a later stage reads, and the stage that reads it here; a
# stage's run.json is read with each of its artifacts.
READERS = {
    "ingest/events.csv": "graph",
    "ingest/contracts.csv": "eligibility",
    "ingest/claims.csv": "stats",
    "ingest/report.json": "cluster",
    "ingest/run.json": "cluster",
    "graph/token_graph.json": "detect",
    "graph/external_graph.json": "detect",
    "graph/summary.json": "report",
    "graph/metric_series.json": "report",
    "graph/run.json": "detect",
    "cluster/assignment.csv": "stats",
    "cluster/silhouette.json": "report",
    "cluster/run.json": "report",
    "detect/findings.jsonl": "report",
    "detect/voting_power.json": "report",
    "detect/run.json": "report",
    "eligibility/summary.json": "report",
    "eligibility/run.json": "report",
    "stats/attrition.json": "report",
    "stats/behavior_table.json": "report",
    "stats/top_contracts.csv": "report",
    "stats/kde_periods.json": "report",
    "stats/kde_quantities.json": "report",
    "stats/tier_composition.csv": "report",
    "stats/run.json": "report",
}
# Read only when present: without them the reader leaves a part out.
OPTIONAL = {"cluster/assignment.csv", "eligibility/summary.json", "stats/tier_composition.csv"}


def test_every_artifact_a_later_stage_reads_is_recorded_by_its_stage(pipeline):
    """Each artifact of READERS but the records themselves has its sha256
    in its stage's run.json, and every stage a later one reads records."""
    for artifact in READERS:
        path = pipeline / "out" / artifact
        outputs = json.loads((path.parent / artifacts.RECORD).read_text())["outputs"]
        if path.name != artifacts.RECORD:
            assert outputs[path.name] == {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    assert {Path(a).parent.name for a in READERS if Path(a).name == artifacts.RECORD} \
        == {Path(a).parent.name for a in READERS}


def damage(path: Path, how: str) -> None:
    data = path.read_bytes()
    path.unlink()
    if how == "directory":
        path.mkdir()
    elif how == "half":
        path.write_bytes(data[:len(data) // 2])
    elif how == "0xff":
        path.write_bytes(b"\xff" + data)


@pytest.mark.parametrize("how", ["deleted", "directory", "half", "0xff"])
@pytest.mark.parametrize("artifact", sorted(READERS))
def test_damaged_upstream_artifact_never_exits_2(pipeline, tmp_path, artifact, how):
    """An upstream artifact deleted, replaced by a directory, cut to its
    first half or given a leading byte that is not UTF-8 exits 1 with
    `missing_artifact`, naming the stage that writes it; an optional
    artifact may be deleted."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    damage(out / artifact, how)
    code, error = assert_exit_0_or_1(READERS[artifact], BASE, out)
    if how == "deleted" and artifact in OPTIONAL:
        assert code == 0
    else:
        assert code == 1 and error["code"] == "missing_artifact"
        assert f"{Path(artifact).parent.name} stage" in error["error"]


def test_stats_splits_buyers_without_features_csv(pipeline, tmp_path):
    """stats takes the buy bit from its own flows, so its artifacts are the
    same bytes with cluster/features.csv gone."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    (out / "cluster" / "features.csv").unlink()
    shutil.rmtree(out / "stats")
    assert assert_exit_0_or_1("stats", BASE, out) == (0, None)
    expected = sorted((pipeline / "out" / "stats").iterdir())
    assert sorted(path.name for path in (out / "stats").iterdir()) == [p.name for p in expected]
    for path in expected:
        assert (out / "stats" / path.name).read_bytes() == path.read_bytes(), path.name


def _files(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("how", ["deleted", "directory"])
def test_detect_reads_no_events_csv(pipeline, tmp_path, how):
    """detect takes its events from the graphs, so it writes the same
    files, byte for byte, with ingest/events.csv gone or a directory."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    damage(out / "ingest" / "events.csv", how)
    shutil.rmtree(out / "detect")
    assert assert_exit_0_or_1("detect", BASE, out) == (0, None)
    assert _files(out / "detect") == _files(pipeline / "out" / "detect")


@pytest.mark.parametrize("artifact", ["report.json", "contracts.csv", "claims.csv"])
def test_detect_without_an_ingest_record_exits_1(pipeline, tmp_path, artifact):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    (out / "ingest" / artifact).unlink()
    code, error = assert_exit_0_or_1("detect", BASE, out)
    assert code == 1 and error["code"] == "missing_artifact"
    assert artifact in error["error"] and "ingest stage" in error["error"]


@pytest.mark.parametrize("stage, how", [
    ("stats", "cut"), ("stats", "duplicated"), ("report", "cut"), ("stats", "non_integer"),
    ("stats", "repeated"), ("stats", "appended"),
])
def test_assignment_of_other_claimants_exits_1(pipeline, tmp_path, stage, how):
    """An assignment.csv cut at a row boundary holds fewer rows than there
    are claimants; one with a row in place of the next holds as many, but
    not every claimant; one with a row added that repeats a claimant, in
    another cluster or as an exact copy of its row, holds every claimant,
    one twice. Each is recorded as if the cluster stage had written it, so
    that the check against ingest's claimants refuses it. One with a cluster
    cell that is not an integer, left unrecorded, fails its digest. The
    stage writes no file."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out, ignore=shutil.ignore_patterns(stage))
    path = out / "cluster" / "assignment.csv"
    lines = path.read_text().splitlines(keepends=True)
    column = lines[0].split(",").index("cluster")
    cells = lines[1].split(",")
    if how == "cut":
        lines = lines[:len(lines) // 2]
    elif how == "duplicated":
        lines[2] = lines[1]
    elif how == "repeated":
        cells[column] = str(int(cells[column]) + 1)
        lines.append(",".join(cells))
    elif how == "appended":
        lines.append(lines[1])
    else:
        cells[column] = "x"
        lines[1] = ",".join(cells)
    path.write_text("".join(lines))
    if how != "non_integer":
        record(path)
    code, error = assert_exit_0_or_1(stage, BASE, out)
    assert code == 1 and error["code"] == "missing_artifact"
    assert "assignment.csv" in error["error"] and "cluster stage" in error["error"]
    assert not (out / stage).exists()


def rename_column(path: Path, old: str, new: str) -> None:
    header, body = path.read_text().split("\n", 1)
    cells = header.split(",")
    assert old in cells
    path.write_text(",".join(new if cell == old else cell for cell in cells) + "\n" + body)


GRAPH_SHAPES = {
    "edge_key": {"nodes": [], "edge": []},
    "empty_object": {},
    "list": [],
    "node_class": {"nodes": [["0x1", "hunter"]], "edges": []},
    "edge_arity": {"nodes": [["0x1", "plain"]], "edges": [["0x1", "0x1", 1]]},
    "unknown_endpoint": {"nodes": [["0x1", "plain"]], "edges": [["0x1", "0x2", 1, 1, 0, 0]]},
    "repeated_node": {"nodes": [["0x1", "plain"], ["0x1", "contract"]], "edges": []},
    "repeated_edge": {"nodes": [["0x1", "plain"]],
                      "edges": [["0x1", "0x1", 1, 1, 0, 0], ["0x1", "0x1", 2, 1, 0, 0]]},
}


@pytest.mark.parametrize("graph", ["token_graph", "external_graph"])
@pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
def test_wrong_shaped_graph_json_exits_1(pipeline, tmp_path, graph, shape):
    """Well-formed JSON that is not a graph names the file and the graph stage."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    (out / "graph" / f"{graph}.json").write_text(json.dumps(GRAPH_SHAPES[shape]))
    code, error = assert_exit_0_or_1("detect", BASE, out)
    assert code == 1 and error["code"] == "missing_artifact"
    assert f"{graph}.json" in error["error"] and "graph stage" in error["error"]


@pytest.mark.parametrize("artifact, column, stage", [
    ("cluster/assignment.csv", "cluster", "stats"),
    ("cluster/assignment.csv", "address", "stats"),
    ("cluster/assignment.csv", "cluster", "report"),
    ("cluster/assignment.csv", "role", "report"),
])
def test_csv_header_without_a_read_column_exits_1(pipeline, tmp_path, artifact, column, stage):
    """A stage artifact whose header misnames a column its reader indexes
    (`klass` for `cluster`, say) fails its digest: it is unreadable, not an
    internal error."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    rename_column(out / artifact, column, "klass")
    code, error = assert_exit_0_or_1(stage, BASE, out)
    assert code == 1 and error["code"] == "missing_artifact"
    assert Path(artifact).name in error["error"] and "cluster stage" in error["error"]
    assert "does not match the sha256" in error["error"]


@pytest.mark.parametrize("artifact, text", [
    ("detect/findings.jsonl", "{}"),
    ("detect/findings.jsonl", "[]"),
    ("stats/attrition.json", "{}"),
    ("stats/attrition.json", '{"left_pct": "12%"}'),
    ("ingest/report.json", "{}"),
    ("graph/summary.json", "{}"),
    ("graph/summary.json", '{"token_graph": []}'),
    ("cluster/silhouette.json", "{}"),
    ("stats/kde_periods.json", '{"all.balance_period": {}}'),
    ("stats/kde_quantities.json", '{"all.balance_quantity": {"bandwidth": 1, "integral": 1}}'),
    ("stats/kde_quantities.json", "[]"),
    ("stats/kde_periods.json", '{"all.balance_period": {"bandwidth": 1, "integral": 1, "grid": 5}}'),
])
def test_wrong_shaped_report_input_exits_1(pipeline, tmp_path, artifact, text):
    """Well-formed JSON of the wrong shape in a file `report` indexes is
    unreadable, naming the file and the stage that writes it."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    (out / artifact).write_text(text + "\n")
    code, error = assert_exit_0_or_1("report", BASE, out)
    assert code == 1 and error["code"] == "missing_artifact"
    assert Path(artifact).name in error["error"]
    assert f"{Path(artifact).parent.name} stage" in error["error"]


def _cut_at_a_row_boundary(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) > 2
    path.write_text("".join(lines[:len(lines) // 2]))


def _one_number_changed(path: Path) -> None:
    text = path.read_text()
    edited = re.sub(r"[1-9]", lambda m: str(int(m[0]) % 9 + 1), text, count=1)
    assert edited != text and json.loads(edited).keys() == json.loads(text).keys()
    path.write_text(edited)


@pytest.mark.parametrize("artifact, edit", [
    ("detect/findings.jsonl", _cut_at_a_row_boundary),
    ("stats/top_contracts.csv", _cut_at_a_row_boundary),
    ("stats/attrition.json", _one_number_changed),
], ids=["findings_cut", "top_contracts_cut", "attrition_number"])
def test_a_well_formed_edit_of_an_artifact_exits_1(pipeline, tmp_path, artifact, edit):
    """A file cut at a row boundary, or with one number changed, still
    parses as a file of its kind, but it is not what its stage wrote: the
    report exits 1, naming that stage, and writes nothing."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out, ignore=shutil.ignore_patterns("report"))
    edit(out / artifact)
    code, error = assert_exit_0_or_1("report", BASE, out)
    assert code == 1 and error["code"] == "missing_artifact"
    assert Path(artifact).name in error["error"]
    assert f"{Path(artifact).parent.name} stage" in error["error"]
    assert not (out / "report").exists()


@pytest.mark.parametrize("artifact", sorted(a for a in READERS if not a.endswith(".csv")))
def test_json_artifact_of_another_type_exits_1(pipeline, tmp_path, artifact):
    """A JSON artifact, or a JSONL artifact's line, that holds an object
    where its writer wrote a list, or a list where it wrote an object, is
    unreadable for the stage that reads it, naming the stage that writes
    it."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    path = out / artifact
    path.write_text("{}\n" if path.read_text().startswith("[") else "[]\n")
    code, error = assert_exit_0_or_1(READERS[artifact], BASE, out)
    assert code == 1 and error["code"] == "missing_artifact"
    assert Path(artifact).name in error["error"]
    assert f"{Path(artifact).parent.name} stage" in error["error"]


def test_stats_rerun_without_an_assignment_leaves_what_a_fresh_tree_holds(pipeline, tmp_path):
    """stats removes the tier_composition.csv of an earlier run that had a
    cluster/assignment.csv, so its files are a fresh tree's."""
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    shutil.copytree(pipeline / "out", out)
    (out / "cluster" / "assignment.csv").unlink()
    shutil.copytree(pipeline / "out", fresh, ignore=shutil.ignore_patterns("cluster", "stats"))
    for tree in (out, fresh):
        assert assert_exit_0_or_1("stats", BASE, tree) == (0, None)
    assert "stats/tier_composition.csv" in _files(pipeline / "out")
    assert _files(out / "stats") == _files(fresh / "stats")


@pytest.mark.parametrize("artifact", ["stats/kde_periods.json", "stats/kde_quantities.json"])
def test_report_reads_an_empty_density_file(pipeline, tmp_path, artifact):
    """stats writes {} when no group has a sample to estimate; report
    lists no densities for it."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    (out / artifact).write_text("{}\n")
    record(out / artifact)
    assert assert_exit_0_or_1("report", BASE, out) == (0, None)
    report = json.loads((out / "report" / "report.json").read_text())
    assert report["density_estimates"][Path(artifact).stem] == {}
