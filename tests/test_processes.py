"""Checks on process_tree (conftest.py), the seed-7, 120-claimant tree that
the CLI writes when each stage runs as a process, `python -m
airdrop_forensics.cli`: the daily metric series against networkx, the
external graph against events.csv, raw exports read through the row loop,
the store's columns for every set of kinds, and one history re-screened
under every eligibility preset, and each stage's run.json."""

import csv
import hashlib
import json
import math
import shutil
import warnings
from collections import defaultdict
from itertools import combinations
from unittest import mock

import networkx as nx

from airdrop_forensics import ingest
from airdrop_forensics.config import RAW_INPUTS, Preset, load_config

from conftest import PROCESS_CONFIG, columns, run_stage


def _window_rows(process_tree, kind: str) -> list[dict]:
    """The rows of `kind` in the tree's events.csv that fall in its
    config's study window, in file order."""
    lo, hi = load_config(str(process_tree / "config.json")).ingest_config().window_bounds()
    with open(process_tree / "out" / "ingest" / "events.csv", newline="", encoding="utf-8") as fh:
        return [row for row in csv.DictReader(fh)
                if row["kind"] == kind and lo <= int(row["timestamp"]) <= hi]


def _same(got, want) -> bool:
    """Whether a metric_series.json value is networkx's. None is an
    undefined metric, which networkx gives as nan or an error."""
    if got is None or want is None or math.isnan(want):
        return got is None and (want is None or math.isnan(want))
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def _nx_or_none(metric, G):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return metric(G)
    except (nx.NetworkXError, ValueError, ZeroDivisionError):
        return None


def test_daily_metric_series_agrees_with_networkx(process_tree):
    """Each row of the metric_series.json that graph wrote with
    --slice-interval 1 holds the node and edge counts, attracting
    components, reciprocity (self-loops left out) and out-in degree
    assortativity that networkx gives for the token graph of the events up
    to its cutoff, and the last row holds every event of the window."""
    events = [(row["from"], row["to"], int(row["timestamp"]))
              for row in _window_rows(process_tree, "token_transfer")]
    rows = json.loads((process_tree / "out" / "graph" / "metric_series.json").read_text())
    assert len(rows) > 100
    G, added = nx.DiGraph(), 0
    for row in rows:
        while added < len(events) and events[added][2] <= row["cutoff_ts"]:
            G.add_edge(*events[added][:2])
            added += 1
        loopless = G.copy()
        loopless.remove_edges_from(list(nx.selfloop_edges(loopless)))
        got = (row["nodes"], row["edges"], row["attracting_components"])
        assert got == (G.number_of_nodes(), G.number_of_edges(),
                       nx.number_attracting_components(G)), row["cutoff"]
        want = {
            "reciprocity": _nx_or_none(nx.reciprocity, loopless),
            "assortativity": _nx_or_none(
                lambda G: nx.degree_pearson_correlation_coefficient(G, x="out", y="in"), G),
        }
        for name, value in want.items():
            assert _same(row[name], value), (row["cutoff"], name, row[name], value)
    assert added == len(events)


def test_external_edges_hold_the_count_and_value_of_their_events(process_tree):
    """Every edge of external_graph.json holds the number and the total
    value of the external events of its ordered pair in events.csv."""
    totals = defaultdict(lambda: [0, 0])
    for row in _window_rows(process_tree, "external_tx"):
        edge = totals[row["from"], row["to"]]
        edge[0] += 1
        edge[1] += int(row["value"])
    graph = json.loads((process_tree / "out" / "graph" / "external_graph.json").read_text())
    got = {(u, v): (count, total) for u, v, total, count, _, _ in graph["edges"]}
    assert len(got) > 256  # more than one of the writers' batches
    assert got == {edge: tuple(sums) for edge, sums in totals.items()}


def test_crlf_exports_are_read_by_the_row_loop_into_the_same_store(process_tree, tmp_path):
    """synth's raw exports with every line ended by "\\r\\n" are not in the
    form the splitter takes, so ingest reads them through parse_transfers'
    row loop, and the events.csv it writes is the one ingest wrote from the
    "\\n" exports through the splitter, byte for byte."""
    synth = process_tree / "out" / "synth"
    inputs = {}
    for name in RAW_INPUTS:
        inputs[name] = str(tmp_path / f"{name}.csv")
        (tmp_path / f"{name}.csv").write_bytes(
            (synth / f"{name}.csv").read_bytes().replace(b"\n", b"\r\n"))
    for name in ("token_transfers", "external_txs"):
        assert ingest._split_events(synth / f"{name}.csv", False) is not None
        assert ingest._split_events(tmp_path / f"{name}.csv", False) is None
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**PROCESS_CONFIG, "inputs": inputs}))
    run_stage("ingest", config, tmp_path / "out")
    events = "ingest/events.csv"
    assert (tmp_path / "out" / events).read_bytes() == (process_tree / "out" / events).read_bytes()


def test_read_store_columns_for_every_kind_set_are_the_row_loops(process_tree):
    """For every non-empty set of kinds, read_store loads the columns of
    the events of those kinds in the window that parse_transfers' row loop
    reads from the tree's events.csv, and builds no event."""
    stage, config = process_tree / "out" / "ingest", ingest.IngestConfig()
    with mock.patch.object(ingest, "_split_events", return_value=None):
        rows, errors = ingest.parse_transfers(stage / "events.csv")
    assert rows and not errors, errors
    assert {e.kind for e in rows} >= {ingest.EventKind.TOKEN_TRANSFER, ingest.EventKind.EXTERNAL_TX}
    lo, hi = config.window_bounds()
    for n in range(1, len(ingest.EventKind) + 1):
        for kinds in combinations(ingest.EventKind, n):
            want = {kind: columns([e for e in rows if e.kind == kind and lo <= e.timestamp <= hi])
                    for kind in kinds}
            store = ingest.read_store(stage, config, kinds)
            assert store.events is None and store.columns == want, [k.value for k in kinds]


def test_one_history_rescreened_under_every_preset(process_tree, tmp_path):
    """eligibility re-run over one tree under each preset, in configs that
    differ in the preset alone, screens one population; re-run under the
    preset of the tree's own run, it writes that run's files byte for byte."""
    first = process_tree / "out" / "eligibility"
    resolved = json.loads((process_tree / "out" / "config.resolved.json").read_text())
    assert resolved["eligibility"]["preset"] == Preset.THRESHOLD_DIFFERENTIAL.value
    out = tmp_path / "out"
    shutil.copytree(process_tree / "out", out)
    populations = [json.loads((first / "summary.json").read_text())["population"]]
    for preset in (Preset.DIFFERENTIAL, Preset.FAIR, Preset.THRESHOLD_DIFFERENTIAL):
        config = tmp_path / f"{preset.value}.json"
        config.write_text(json.dumps({**PROCESS_CONFIG, "eligibility": {
            **PROCESS_CONFIG["eligibility"], "preset": preset.value}}))
        run_stage("eligibility", config, out)
        populations.append(json.loads((out / "eligibility" / "summary.json").read_text())[
            "population"])
    assert populations[0] > 0 and len(set(populations)) == 1, populations
    for name in ("verdicts.csv", "summary.json"):
        assert (out / "eligibility" / name).read_bytes() == (first / name).read_bytes(), name


def test_each_stage_records_the_sha256_of_every_file_it_wrote(process_tree):
    """Each stage directory holds a run.json whose entries are exactly the
    directory's other files, by their names relative to it, each with the
    sha256 of its bytes."""
    stages = sorted(path for path in (process_tree / "out").iterdir() if path.is_dir())
    assert [stage.name for stage in stages] == ["eligibility", "graph", "ingest", "synth"]
    for stage in stages:
        files = sorted(path for path in stage.rglob("*")
                       if path.is_file() and path != stage / "run.json")
        digests = {path.relative_to(stage).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in files}
        assert json.loads((stage / "run.json").read_text()) == {"outputs": {
            name: {"sha256": digest} for name, digest in digests.items()}}, stage.name
