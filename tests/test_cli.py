import csv
import dataclasses
import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest

from airdrop_forensics import artifacts, cli, graphs, ingest
from airdrop_forensics.cli import load_config, main, ConfigInvalidError
from airdrop_forensics.config import EligibilityRules, Preset, to_json
from airdrop_forensics.eligibility import EligibilityHistory, run_campaign

from conftest import WINDOW_START, addr, assert_addresses_shared, claim, contract, ev, stored

PIPELINE = ["synth", "ingest", "graph", "cluster", "detect", "eligibility", "stats", "report"]


def write_config(tmp_path, out_name="out", **overrides):
    config = {
        "output_dir": str(tmp_path / out_name),
        "synth": {"seed": 5, "population_total": 120},
        "eligibility": {"min_tx_count": 5, "interaction_window_days": 2},
    }
    for key, value in overrides.items():
        config[key] = value
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(config))
    return path


def run(command, config_path, *extra):
    return main([command, "--config", str(config_path), *extra])


def tree_digest(root: Path, skip=("config.resolved.json",)) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_full_pipeline_produces_artifacts(tmp_path):
    config = write_config(tmp_path)
    for command in PIPELINE:
        assert run(command, config) == 0, command
    out = tmp_path / "out"
    for artifact in (
        "synth/ground_truth.json",
        "ingest/events.csv",
        "ingest/report.json",
        "graph/token_graph.json",
        "graph/metric_series.json",
        "cluster/assignment.csv",
        "cluster/silhouette.json",
        "detect/findings.jsonl",
        "detect/voting_power.json",
        "eligibility/summary.json",
        "stats/attrition.json",
        "stats/kde_periods.json",
        "report/report.json",
        "report/report.md",
    ):
        assert (out / artifact).exists(), artifact
    report = json.loads((out / "report" / "report.json").read_text())
    assert report["clustering"]["silhouette"]["chosen_k"] >= 2
    assert report["findings_by_pattern"]  # the default config plants patterns


def test_pure_archetype_pipeline_reports_fourteen_clusters(tmp_path):
    # large enough that even the 0.09% signature keeps >= 2 members
    config = write_config(
        tmp_path,
        out_name="pure",
        synth={"seed": 8, "population_total": 2500, "tier_mix": [0.3, 0.5, 0.2],
               "noise_rate": 0.0, "patterns": []},
    )
    for command in ("synth", "ingest", "graph", "cluster", "detect", "stats", "report"):
        assert run(command, config) == 0, command
    report = json.loads((tmp_path / "pure" / "report" / "report.json").read_text())
    assert report["clustering"]["silhouette"]["chosen_k"] == 14
    assert len(report["clustering"]["role_counts"]) == 6


def test_detect_without_graph_stage_fails_cleanly(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    assert run("ingest", config) == 0
    code = run("detect", config)
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["code"] == "missing_artifact"


def test_report_without_upstream_fails_cleanly(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run("report", config) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "missing_artifact"


def test_report_with_missing_stats_artifact_fails_cleanly(tmp_path, capsys):
    # every file report reads is opened through artifacts.open_for_read, so
    # a stats stage that failed half way is a missing artifact (exit 1), not
    # an internal error
    config = write_config(tmp_path)
    for command in ("synth", "ingest", "graph", "cluster", "detect", "stats"):
        assert run(command, config) == 0, command
    out = tmp_path / "out"
    for artifact in (
        "stats/kde_periods.json",
        "stats/kde_quantities.json",
        "stats/top_contracts.csv",
        "cluster/assignment.csv",
        "detect/voting_power.json",
    ):
        path = out / artifact
        kept = path.read_bytes()
        path.unlink()
        capsys.readouterr()
        assert run("report", config) == 1, artifact
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["code"] == "missing_artifact", artifact
        assert f"run the {path.parent.name} stage first" in err["error"]
        path.write_bytes(kept)
    assert run("report", config) == 0


def test_missing_inputs_without_synth(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run("ingest", config) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "missing_artifact"


def test_partly_configured_inputs_exit_1(ingested, tmp_path, capsys):
    """One raw export configured, with synth's exports present, is a config
    error naming the three left unset, not a run on synth's exports."""
    token = ingested / "out" / "synth" / "token_transfers.csv"
    config = write_config(tmp_path, inputs={"token_transfers": str(token)})
    shutil.copytree(ingested / "out" / "synth", tmp_path / "out" / "synth")
    assert run("ingest", config) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "config_invalid"
    assert "['external_txs', 'contracts', 'claims'] unset" in err["error"]
    assert not (tmp_path / "out" / "ingest").exists()


def test_invalid_config_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nonsense": True}))
    assert main(["ingest", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "config_invalid"


def test_bad_weights_rejected(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"weights": {"buy": -1.0}}))
    with pytest.raises(ConfigInvalidError):
        load_config(str(path))


def test_cluster_uses_the_configured_weights(tmp_path):
    """Non-uniform weights change the distances and so the chosen K: 10
    here where uniform weights choose 15. The artifacts are pinned."""
    synth = {"seed": 5, "population_total": 400}
    weighted = write_config(tmp_path, "weighted", synth=synth,
                            weights={"buy": 8, "sell": 0.25, "send": 4, "stake": 0.5})
    uniform = write_config(tmp_path, "uniform", synth=synth)
    for config in (weighted, uniform):
        for command in ("synth", "ingest", "cluster"):
            assert run(command, config) == 0, command
    chosen = {name: json.loads((tmp_path / name / "cluster" / "silhouette.json").read_text())
              ["chosen_k"] for name in ("weighted", "uniform")}
    assert chosen == {"weighted": 10, "uniform": 15}
    digests = tree_digest(tmp_path / "weighted" / "cluster")
    assert {name: digests[name][:16] for name in
            ("assignment.csv", "silhouette.json", "dendrogram.json")} == {
        "assignment.csv": "44f96dbf683add2f",
        "silhouette.json": "2a7df85f48f63413",
        "dendrogram.json": "0039751a4352065d",
    }


def test_config_round_trips_through_canonical_writer(tmp_path):
    """The run record holds the canonical bytes of the resolved config and
    is rewritten in place."""
    config_path = write_config(tmp_path)
    assert run("synth", config_path) == 0
    resolved = tmp_path / "out" / "config.resolved.json"
    first = resolved.read_bytes()
    loaded = load_config(str(resolved))
    assert to_json(loaded) == json.loads(first)
    # An mtime in the past shows any rewrite, however soon it follows.
    os.utime(resolved, ns=(0, 0))
    before = resolved.stat()
    assert run("synth", config_path) == 0
    after = resolved.stat()
    assert resolved.read_bytes() == first
    assert after.st_ino == before.st_ino

    changed = write_config(tmp_path, eligibility={"preset": "fair", "interaction_window_days": 2})
    assert run("synth", changed) == 0
    assert resolved.read_bytes() == artifacts.render_json(to_json(load_config(str(changed)))).encode()
    assert load_config(str(resolved)).eligibility.preset.value == "fair"


@pytest.mark.parametrize("layout", ["out_is_a_file", "record_is_a_directory"])
def test_unusable_output_path_exits_1(tmp_path, capsys, layout):
    out = tmp_path / "out"
    if layout == "out_is_a_file":
        out.write_text("")
        named = out
    else:
        named = out / "config.resolved.json"
        named.mkdir(parents=True)
    assert run("synth", write_config(tmp_path)) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "validation_error"
    assert repr(str(named)) in err["error"]


ARTIFACT_PER_STAGE = {
    "synth": "token_transfers.csv",
    "ingest": "events.csv",
    "graph": "token_graph.graphml",
    "cluster": "assignment.csv",
    "detect": "findings.jsonl",
    "eligibility": "summary.json",
    "stats": "behavior_table.csv",
    "report": "report.md",
}


def test_stage_directory_that_is_a_file_exits_1(tmp_path, capsys):
    """A regular file where a stage writes its directory, or where detect
    writes components/, and a directory where a stage writes an artifact,
    are user errors that name the path."""
    config = write_config(tmp_path)
    for command in PIPELINE:
        assert run(command, config) == 0, command
    out = tmp_path / "out"
    for command, named in [*((c, out / c) for c in PIPELINE),
                           ("detect", out / "detect" / "components"),
                           *((c, out / c / name) for c, name in ARTIFACT_PER_STAGE.items())]:
        aside = named.with_name(named.name + ".aside")
        named.rename(aside)
        if aside.is_dir():
            named.write_text("")
        else:
            named.mkdir()
        assert run(command, config) == 1, named
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["code"] == "validation_error"
        assert repr(str(named)) in err["error"]
        (named.rmdir if named.is_dir() else named.unlink)()
        aside.rename(named)


# Detector thresholds under which nothing is flagged, and monthly slices.
FLAG_NOTHING = {
    "detectors": {"min_spokes": 50, "min_chain_len": 50, "min_beneficiaries": 500,
                  "min_cautious_size": 500, "min_clique": 6, "max_clique": 6},
    "slice_interval_days": 30,
}


def files_of(root: Path) -> dict:
    """Each file under `root` with its bytes; an empty directory is not an artifact."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_rerun_under_a_new_config_leaves_what_a_fresh_run_writes(tmp_path):
    """Passes over one tree rewrite its files in place: three passes under
    one config leave the first pass's bytes, and a fourth under another
    config leaves the files and bytes of a fresh tree under it, with no
    component file or file tail left from before. A file in components/
    that detect does not name is left alone."""
    first, second = write_config(tmp_path, "a"), write_config(tmp_path, "b", **FLAG_NOTHING)
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    for n in range(3):
        for command in PIPELINE:
            assert run(command, first, "--out", str(reused)) == 0, command
        if n == 0:
            after_first = files_of(reused)
            assert any(name.startswith("detect/components/component_") for name in after_first)
    assert files_of(reused) == after_first
    notes = reused / "detect" / "components" / "notes.txt"
    notes.write_text("kept")
    for command in PIPELINE:
        assert run(command, second, "--out", str(reused)) == 0, command
        assert run(command, second, "--out", str(fresh)) == 0, command
    assert notes.read_text() == "kept"
    notes.unlink()
    assert files_of(reused) == files_of(fresh)


def test_a_stage_that_fails_records_nothing(ingested, tmp_path):
    """cluster, failing once it has rewritten features.csv, leaves its
    run.json as its last successful run wrote it, so the stages after it
    read the files that run recorded."""
    out = tmp_path / "out"
    shutil.copytree(ingested / "out", out)
    config = write_config(tmp_path)
    assert run("cluster", config) == 0
    record = (out / "cluster" / "run.json").read_bytes()
    features = out / "cluster" / "features.csv"
    written = features.read_bytes()
    features.write_bytes(b"stale\n")
    assert run("cluster", write_config(tmp_path, clustering={"k_min": 0, "k_max": 1})) == 1
    assert features.read_bytes() == written
    assert (out / "cluster" / "run.json").read_bytes() == record
    assert run("stats", config) == 0


def test_no_stage_opens_a_file_to_write_but_in_place(tmp_path):
    """Every stage, writing a new tree and then rewriting it, opens each
    file it writes through artifacts.open_for_write, whose opener calls
    os.open without O_TRUNC: open() in a writing mode always has one."""
    config = write_config(tmp_path)
    flags, bare_writes = [], []
    real_os_open, real_open = os.open, open

    def os_open(path, flag, *args, **kw):
        flags.append(flag)
        return real_os_open(path, flag, *args, **kw)

    def spy_open(file, mode="r", *args, **kw):
        if set(mode) & set("wax+") and kw.get("opener") is None:
            bare_writes.append((file, mode))
        return real_open(file, mode, *args, **kw)

    with mock.patch.object(os, "open", os_open), mock.patch("builtins.open", spy_open), \
            mock.patch("io.open", spy_open):
        for _ in range(2):
            for command in PIPELINE:
                assert run(command, config) == 0, command
    assert flags and not any(flag & os.O_TRUNC for flag in flags)
    assert bare_writes == []


def test_main_restores_the_collector_state(tmp_path, monkeypatch):
    """Each command runs with the cyclic collector off; main then leaves
    it as it found it, whatever the exit code."""
    seen = []

    def passes(config, out, args):
        seen.append(gc.isenabled())

    def crashes(config, out, args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "synth", passes)
    monkeypatch.setitem(cli.COMMANDS, "ingest", crashes)
    config = write_config(tmp_path)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for command, code in (("synth", 0), ("report", 1), ("ingest", 2)):
                assert run(command, config) == code, command
                assert gc.isenabled() is enabled, (command, enabled)
    finally:
        gc.enable()
    assert seen == [False] * 4


def test_stages_leave_no_garbage_per_event_or_member(tmp_path):
    """What each stage leaves for the cyclic collector is the same at 120
    and at 480 claimants, so running stages with it off costs memory
    that does not grow with the corpus."""

    def garbage_after_each_stage(out_name, population):
        config = write_config(tmp_path, out_name=out_name,
                              synth={"seed": 5, "population_total": population})
        counts = {}
        for command in PIPELINE:
            gc.collect()
            assert run(command, config) == 0, command
            counts[command] = gc.collect()
        return counts

    gc.disable()
    try:
        garbage_after_each_stage("warm_up", 120)  # first imports and caches leave their own
        small = garbage_after_each_stage("small", 120)
        large = garbage_after_each_stage("large", 480)
    finally:
        gc.enable()
    assert small == large


def test_pipeline_is_deterministic_and_idempotent(tmp_path):
    config_a = write_config(tmp_path, out_name="out_a")
    config_b = write_config(tmp_path, out_name="out_b")
    for command in PIPELINE:
        assert run(command, config_a) == 0
    for command in PIPELINE:
        assert run(command, config_b) == 0
    digest_a = tree_digest(tmp_path / "out_a")
    digest_b = tree_digest(tmp_path / "out_b")
    assert digest_a == digest_b
    # re-running one stage rewrites identical bytes
    before = tree_digest(tmp_path / "out_a")
    assert run("cluster", config_a) == 0
    assert tree_digest(tmp_path / "out_a") == before


def test_seed_override_changes_artifacts(tmp_path):
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    first = (tmp_path / "out" / "synth" / "claims.csv").read_bytes()
    assert run("synth", config, "--seed", "99") == 0
    assert (tmp_path / "out" / "synth" / "claims.csv").read_bytes() != first


def test_empty_config_runs_every_stage(tmp_path, monkeypatch, caplog):
    """The default config runs all eight stages on its own synth output. Its
    183-day recency window reaches back before the synth history, so
    eligibility clips it at the history start, says so in its summary and
    warns once."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text("{}")
    for command in PIPELINE:
        assert run(command, config) == 0, command
    summary = json.loads((tmp_path / "out" / "eligibility" / "summary.json").read_text())
    assert summary["recency_window_clipped_to"] == ingest.IngestConfig().window_bounds()[0]
    warnings = [r for r in caplog.records if "recency window" in r.getMessage()]
    assert len(warnings) == 1 and warnings[0].levelname == "WARNING"


def test_graph_on_a_one_instant_history(ingested, tmp_path):
    """With no study window, token transfers that all share one timestamp
    give one slice, at that instant."""
    synth_dir = ingested / "out" / "synth"
    lines = (synth_dir / "token_transfers.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for cells in rows:
        cells[4] = "1637000000"
    token = tmp_path / "token_transfers.csv"
    token.write_text("\n".join([lines[0], *(",".join(cells) for cells in rows)]) + "\n")
    inputs = {"token_transfers": str(token),
              "external_txs": str(synth_dir / "external_txs.csv"),
              "contracts": str(synth_dir / "contracts.csv"),
              "claims": str(synth_dir / "claims.csv")}
    config = write_config(tmp_path, out_name="instant", inputs=inputs,
                          window={"start": None, "end": None})
    assert run("ingest", config) == 0
    assert run("graph", config) == 0
    series = json.loads((tmp_path / "instant" / "graph" / "metric_series.json").read_text())
    assert len(series) == 1 and series[0]["cutoff_ts"] == 1637000000


def test_stats_without_a_window_spans_the_events_of_every_kind(ingested, tmp_path):
    """With no study window, stats describes the period from the store's
    first event to its last, of whatever kind: synth's external history
    starts before its first token transfer."""
    out = tmp_path / "out"
    shutil.copytree(ingested / "out" / "synth", out / "synth")
    config = write_config(tmp_path, window={"start": None, "end": None})
    assert run("ingest", config) == 0
    events, _ = ingest.parse_transfers(out / "ingest" / "events.csv")
    token = [e.timestamp for e in events if e.kind == ingest.EventKind.TOKEN_TRANSFER]
    assert events[0].timestamp < token[0]
    with mock.patch.object(cli.stats, "build_timelines", wraps=cli.stats.build_timelines) as built:
        assert run("stats", config) == 0
    assert built.call_args.args[1:] == (events[0].timestamp, events[-1].timestamp)


@pytest.mark.parametrize("window", [{"start": None, "end": None}, {}], ids=["no_window", "window"])
def test_every_stage_on_an_empty_store_exits_0_or_1(tmp_path, capsys, window):
    """Raw exports with headers only give an empty store, which every stage
    either handles or rejects as a user error. With no study window, stats
    has no period to describe."""
    inputs = {}
    for key, columns in (("token_transfers", ingest.TRANSFER_COLUMNS),
                         ("external_txs", ingest.TRANSFER_COLUMNS),
                         ("contracts", ingest.CONTRACT_COLUMNS),
                         ("claims", ingest.CLAIM_COLUMNS)):
        path = tmp_path / f"{key}.csv"
        path.write_text(",".join(columns) + "\n")
        inputs[key] = str(path)
    config = write_config(tmp_path, inputs=inputs, window=window)
    assert run("ingest", config) == 0
    stage = tmp_path / "out" / "ingest"
    # no events, no rows
    empty = ingest.EventColumns([], [], [], [])
    assert ingest._split_store(stage / "events.csv", frozenset(ingest.EventKind))[:2] == (
        dict.fromkeys(ingest.EventKind, empty), None)
    codes = {}
    for command in PIPELINE[2:]:
        capsys.readouterr()
        codes[command] = run(command, config)
        if codes[command]:
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["code"] != "internal_error", (command, err)
    assert set(codes.values()) <= {0, 1}, codes
    assert codes["stats"] == (1 if window else 0)


def test_artifacts_are_utf8_whatever_the_locale(tmp_path):
    """A contract name outside ASCII, ingested in a process whose locale
    encoding is ASCII (the C locale, with UTF-8 mode and locale coercion
    off), gives the bytes that a UTF-8 process gives."""
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    contracts = tmp_path / "out" / "synth" / "contracts.csv"
    header, first, rest = contracts.read_text(encoding="utf-8").split("\n", 2)
    address, _, category = first.split(",")
    contracts.write_text(f"{header}\n{address},dex routeur café,{category}\n{rest}",
                         encoding="utf-8")
    src = str(Path(cli.__file__).parents[1])
    trees = {}
    for name, env in [("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
                      ("utf8", {"PYTHONUTF8": "1"})]:
        out = tmp_path / name
        shutil.copytree(tmp_path / "out" / "synth", out / "synth")
        proc = subprocess.run(
            [sys.executable, "-m", "airdrop_forensics.cli", "ingest", "--config", str(config),
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src, **env}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        trees[name] = tree_digest(out / "ingest")
    assert trees["ascii"] == trees["utf8"]
    assert "dex routeur café" in (tmp_path / "ascii" / "ingest" / "contracts.csv").read_text(
        encoding="utf-8")


def test_dot_export_format(tmp_path):
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    assert run("ingest", config) == 0
    assert run("graph", config, "--format", "dot") == 0
    assert (tmp_path / "out" / "graph" / "token_graph.dot").exists()


@pytest.mark.parametrize("internal", [True, False], ids=["internal_contact", "none"])
def test_internal_event_makes_a_sunflower_center_a_contract_user(tmp_path, internal):
    """A later member that five claimants' tokens converge on is a staging
    area unless it touched a contract; an internal_tx row of a raw export
    with a kind column is such a touch, though no graph holds it. detect
    opens each of ingest's records once, whether or not it reads
    events.csv for the internal events."""
    center, swap = addr(50), addr(100)
    spokes = [addr(i) for i in range(1, 6)]
    events = [ev(s, center, 10**21, ts=WINDOW_START + 86400 * (2 + i))
              for i, s in enumerate(spokes)]
    if internal:
        events.append(ev(center, swap, 1, ts=WINDOW_START + 86400 * 9,
                         kind=ingest.EventKind.INTERNAL_TX))
    raw = tmp_path / "raw"
    ingest.write_transfers_csv(events, raw / "token_transfers.csv")
    ingest.write_transfers_csv([], raw / "external_txs.csv")
    ingest.write_contracts_csv([contract(swap, "swap", ingest.ContractCategory.TRADING_SWAP)],
                               raw / "contracts.csv")
    ingest.write_claims_csv([claim(s) for s in spokes], raw / "claims.csv")
    config = write_config(tmp_path, inputs={key: str(raw / f"{key}.csv") for key in cli.RAW_INPUTS})
    for command in ("ingest", "graph"):
        assert run(command, config) == 0, command
    with mock.patch.object(artifacts, "open_for_read", wraps=artifacts.open_for_read) as opened:
        assert run("detect", config) == 0
    opens = Counter(Path(call.args[0]).name for call in opened.call_args_list)
    assert [opens[name] for name in ("report.json", "contracts.csv", "claims.csv")] == [1, 1, 1]
    assert opens["events.csv"] == (1 if internal else 0)
    out = tmp_path / "out"
    report = json.loads((out / "ingest" / "report.json").read_text())
    assert report["internal_events"] == (1 if internal else 0)
    lines = (out / "detect" / "findings.jsonl").read_text().splitlines()
    stars = [f for f in map(json.loads, lines)
             if f["pattern"] in ("sunflower", "staging_aggregation")]
    assert [f["pattern"] for f in stars] == ["sunflower" if internal else "staging_aggregation"]
    assert center in stars[0]["members"]


def test_a_contract_name_holding_a_carriage_return_leaves_a_readable_store(tmp_path):
    """A contract row whose name holds a "\\r" is a malformed row, so
    ingest writes a contracts.csv that the later stages read."""
    raw = tmp_path / "raw"
    ingest.write_transfers_csv([ev(addr(1), addr(2), 5)], raw / "token_transfers.csv")
    ingest.write_transfers_csv([], raw / "external_txs.csv")
    (raw / "contracts.csv").write_text(
        f'address,name,category\n{addr(9)},"dex\rrouter",TradingSwap\n', newline="")
    ingest.write_claims_csv([claim(addr(1))], raw / "claims.csv")
    config = write_config(tmp_path, inputs={key: str(raw / f"{key}.csv") for key in cli.RAW_INPUTS})
    for command in ("ingest", "graph"):
        assert run(command, config) == 0, command
    report = json.loads((tmp_path / "out" / "ingest" / "report.json").read_text())
    assert report["n_contracts"] == 0
    assert [m["reason"] for m in report["malformed"]] == [
        "contract name 'dex\\rrouter' holds a carriage return"]


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """An output directory that has been through synth and ingest."""
    root = tmp_path_factory.mktemp("ingested")
    config = write_config(root)
    assert run("synth", config) == 0
    assert run("ingest", config) == 0
    return root


def test_ingest_removes_a_column_cache_left_by_an_earlier_version(ingested, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(ingested / "out", out)
    stale = out / "ingest" / "events.cols"
    stale.write_bytes(b"column cache of an earlier version")
    assert run("ingest", write_config(tmp_path)) == 0
    assert not stale.exists()
    assert tree_digest(out) == tree_digest(ingested / "out")


def run_on_edited_exports(ingested, tmp_path, name: str, edit) -> dict:
    """tree_digest of the seven stages after synth, run on copies of
    `ingested`'s synth exports whose rows are `edit(export, rows)`."""
    inputs = {}
    for export in cli.RAW_INPUTS:
        source = ingested / "out" / "synth" / f"{export}.csv"
        header, *rows = source.read_text().splitlines(keepends=True)
        path = tmp_path / name / source.name
        path.parent.mkdir(exist_ok=True)
        path.write_text(header + "".join(edit(export, rows)))
        inputs[export] = str(path)
    config = write_config(tmp_path, f"{name}_out", inputs=inputs)
    for command in PIPELINE[1:]:
        assert run(command, config) == 0, command
    return tree_digest(tmp_path / f"{name}_out")


def test_row_order_and_repeated_rows_of_the_exports_change_no_result(ingested, tmp_path):
    """Shuffled raw-export rows leave every artifact of the seven stages
    byte-identical. Rows repeated exactly, in any of the four exports,
    change only ingest's counts of rows read and deduplicated, and the
    report that embeds them."""
    base = run_on_edited_exports(ingested, tmp_path, "base", lambda export, rows: rows)
    for seed in range(3):
        rng = random.Random(seed)
        assert run_on_edited_exports(ingested, tmp_path, f"shuffled_{seed}",
                                     lambda export, rows: rng.sample(rows, len(rows))) == base

    repeats = []

    def repeat(export, rows):
        repeats.append((export, len(rows[::7])))
        return rows + rows[::7]

    repeated = run_on_edited_exports(ingested, tmp_path, "repeated", repeat)
    assert [export for export, _ in repeats] == list(cli.RAW_INPUTS)
    assert all(n for _, n in repeats) and repeated.keys() == base.keys()
    repeats = sum(n for _, n in repeats)
    assert {name for name in base if repeated[name] != base[name]} == {
        "ingest/report.json", "ingest/run.json", "report/report.json", "report/run.json"}
    want, got = ({stage: json.loads((tmp_path / tree / stage / "report.json").read_text())
                  for stage in ("ingest", "report")} for tree in ("base_out", "repeated_out"))
    assert got["ingest"]["input_rows"] == want["ingest"]["input_rows"] + repeats
    assert got["ingest"]["deduplicated"] == want["ingest"]["deduplicated"] + repeats
    counts = {key: want["ingest"][key] for key in ("input_rows", "deduplicated")}
    assert {**got["ingest"], **counts} == want["ingest"]
    assert got["report"]["ingest"] == got["ingest"]
    assert {**got["report"], "ingest": want["ingest"]} == want["report"]


@pytest.mark.parametrize("narrowed_at", ["ingest", "graph"])
def test_token_graph_is_the_last_slice(ingested, tmp_path, narrowed_at):
    """The graph stage writes the last slice as the token graph: the same
    bytes as a full build from the store, with a study window narrower
    than the synth corpus applied at ingest or only afterwards."""
    out = tmp_path / "narrow"
    shutil.copytree(ingested / "out" / "synth", out / "synth")
    narrow = write_config(tmp_path, out_name="narrow",
                          window={"start": "2021-12-01", "end": "2022-03-01"})
    wide = write_config(tmp_path, out_name="wide", output_dir=str(out))
    at_ingest = narrow if narrowed_at == "ingest" else wide
    assert run("ingest", at_ingest) == 0
    assert run("graph", narrow) == 0
    store = ingest.read_store(out / "ingest", load_config(narrow).ingest_config())
    token_graph = graphs.build_token_graph(store)
    graphs.write_graph_json(token_graph, tmp_path / "token_graph.json")
    graphs.write_graph(token_graph, tmp_path / "token_graph.graphml", "graphml", "token_graph")
    for name in ("token_graph.json", "token_graph.graphml"):
        assert (out / "graph" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    series = json.loads((out / "graph" / "metric_series.json").read_text())
    assert len(series) > 1 and series[-1]["edges"] == token_graph.n_edges
    assert 0 < token_graph.n_edges < graphs.build_token_graph(
        ingest.read_store(ingested / "out" / "ingest")).n_edges


def test_graph_without_token_events_writes_empty_token_graph(ingested, tmp_path, caplog):
    synth_dir = ingested / "out" / "synth"
    token = tmp_path / "token_transfers.csv"
    token.write_text((synth_dir / "token_transfers.csv").read_text().splitlines()[0] + "\n")
    inputs = {"token_transfers": str(token),
              "external_txs": str(synth_dir / "external_txs.csv"),
              "contracts": str(synth_dir / "contracts.csv"),
              "claims": str(synth_dir / "claims.csv")}
    config = write_config(tmp_path, out_name="tokenless", inputs=inputs)
    assert run("ingest", config) == 0
    assert run("graph", config) == 0
    stage = tmp_path / "tokenless" / "graph"
    assert json.loads((stage / "token_graph.json").read_text()) == {"edges": [], "nodes": []}
    assert json.loads((stage / "metric_series.json").read_text()) == []
    assert json.loads((stage / "summary.json").read_text())["token_graph"] == {
        "nodes": 0, "edges": 0}
    assert any(r.levelname == "WARNING" and "no token events in the study window"
               in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("interval", [0, -3, True, "7"])
def test_bad_slice_interval_in_config_rejected(ingested, tmp_path, capsys, interval):
    config = write_config(tmp_path, output_dir=str(ingested / "out"), slice_interval_days=interval)
    assert run("graph", config) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "config_invalid"
    assert not (ingested / "out" / "graph").exists()


def test_zero_slice_interval_flag_rejected(ingested, capsys):
    config = ingested / "config_out.json"
    assert run("graph", config, "--slice-interval", "0") == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "config_invalid"
    assert not (ingested / "out" / "graph").exists()


def test_unknown_detector_key_rejected(tmp_path, capsys):
    config = write_config(tmp_path, detectors={"bogus": 1})
    with pytest.raises(ConfigInvalidError, match="detectors"):
        load_config(str(config))
    assert run("detect", config) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "config_invalid"


@pytest.mark.parametrize(
    "stage,override",
    [
        ("cluster", {"clustering": {"linkage": "ward"}}),
        ("cluster", {"weights": {"buy": "x"}}),
        ("cluster", {"clustering": {"k_min": "2"}}),
        ("eligibility", {"eligibility": {"min_tx_count": "5"}}),
        ("ingest", {"window": {"start": 5}}),
        ("cluster", {"clustering": "single"}),
        ("cluster", {"clustering": {"k_min": 9, "k_max": 3}}),
        ("detect", {"detectors": {"min_spokes": "5"}}),
        ("synth", {"synth": {"population_total": "x"}}),
        ("synth", {"synth": {"tier_mix": [0.5, 0.5]}}),
        ("synth", {"synth": {"patterns": [{"kind": "bogus"}]}}),
        ("synth", {"synth": {"seed": 5, "populaton_total": 120}}),
        ("eligibility", {"eligibility": {"min_native_balance": "x"}}),
        ("eligibility", {"eligibility": {"tier_table": [[6, 4000]]}}),
        ("eligibility", {"eligibility": {"min_interactions": 1}}),
        ("ingest", {"inputs": {"claims": 5}}),
        ("ingest", {"allow_self_transfers": "yes"}),
        ("ingest", {"output_dir": 5}),
        ("detect", {"detectors": {"min_clique": 6, "max_clique": 5}}),
        ("detect", {"detectors": {"min_chain_len": 0}}),
        ("detect", {"detectors": {"max_chain_in": 0}}),
        ("detect", {"detectors": {"min_sponsors": -1}}),
        ("detect", {"detectors": {"accumulation_slack": -1}}),
        ("detect", {"detectors": {"forward_frac": 1.5}}),
        ("detect", {"detectors": {"max_cautious_density": -0.1}}),
    ],
    ids=["linkage_ward", "string_weight", "string_k_min", "string_min_tx_count",
         "int_window_start", "section_not_object", "k_min_above_k_max", "string_detector_value",
         "string_population_total", "short_tier_mix", "unknown_pattern_kind",
         "misspelled_synth_key", "string_min_native_balance", "unknown_tier",
         "tier_table_gap", "int_input_path", "string_allow_self_transfers", "int_output_dir",
         "min_clique_above_max_clique", "zero_min_chain_len", "zero_max_chain_in",
         "negative_min_sponsors", "negative_accumulation_slack", "forward_frac_above_1",
         "negative_max_cautious_density"],
)
def test_config_type_error_rejected(tmp_path, capsys, stage, override):
    config = write_config(tmp_path, **override)
    with pytest.raises(ConfigInvalidError):
        load_config(str(config))
    assert run(stage, config) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "config_invalid"


@pytest.mark.parametrize("stage,override,code,needle", [
    ("cluster", {"clustering": {"k_min": 0, "k_max": 1}}, "validation_error", "k range [0,1]"),
    ("synth", {"window": {"start": None}}, "config_invalid", "window.start"),
    ("synth", {"window": {"end": None}}, "config_invalid", "window.end"),
], ids=["k_range_above_members", "null_window_start", "null_window_end"])
def test_config_a_stage_cannot_run_exits_1(ingested, tmp_path, capsys, stage, override, code,
                                          needle):
    shutil.copytree(ingested / "out" / "ingest", tmp_path / "out" / "ingest")
    assert run(stage, write_config(tmp_path, **override)) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == code and needle in err["error"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unsupported_graph_format_rejected(ingested, capsys, fmt):
    config = ingested / "config_out.json"
    assert run("graph", config, "--format", fmt) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "config_invalid"
    assert not (ingested / "out" / "graph").exists()


@pytest.mark.parametrize("first,second", [("graphml", "dot"), ("dot", "graphml")])
def test_graph_rerun_in_another_format_leaves_what_a_fresh_run_writes(ingested, tmp_path,
                                                                      first, second):
    """A graph run in one format over a tree graphed in the other leaves
    the files and bytes of a fresh run: the other format's exports go.
    Every graph file, written a batch of rows at a time, reads back whole:
    networkx finds in each graphml file the counts that summary.json
    gives, and each graph JSON holds its edges and nodes."""
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    shutil.copytree(ingested / "out", reused)
    shutil.copytree(ingested / "out", fresh)
    config = write_config(tmp_path)
    assert run("graph", config, "--out", str(reused), "--format", first) == 0
    assert run("graph", config, "--out", str(reused), "--format", second) == 0
    assert run("graph", config, "--out", str(fresh), "--format", second) == 0
    assert files_of(reused) == files_of(fresh)
    stage = reused / "graph"
    assert {p.suffix for p in stage.iterdir()} == {".json", f".{second}"}
    summary = json.loads((stage / "summary.json").read_text())
    for name in ("token_graph", "external_graph"):
        assert sorted(json.loads((stage / f"{name}.json").read_text())) == ["edges", "nodes"]
        if second == "graphml":
            G = nx.read_graphml(stage / f"{name}.graphml")
            assert {"nodes": G.number_of_nodes(), "edges": G.number_of_edges()} == summary[name]


def test_preset_fields_left_unset_take_the_preset_values(ingested, tmp_path):
    out = ingested / "out"
    config = write_config(tmp_path, output_dir=str(out),
                          eligibility={"preset": "fair", "interaction_window_days": 2})
    assert run("eligibility", config) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())["eligibility"]
    assert resolved == {"preset": "fair", "min_tx_count": 0, "min_interactions": 1,
                        "interaction_window_days": 2, "max_clique": None}

    events, _ = ingest.parse_transfers(out / "ingest" / "events.csv")
    contracts, _ = ingest.parse_contracts(out / "ingest" / "contracts.csv")
    claims, _ = ingest.parse_claims(out / "ingest" / "claims.csv")
    store = ingest.build_event_store(events, [], contracts, claims)
    external = store.columns_of(ingest.EventKind.EXTERNAL_TX)
    protocol = frozenset(a for a, c in store.contracts.items() if c.category in (
        ingest.ContractCategory.TRADING_SWAP, ingest.ContractCategory.TRADING_OR_LP))
    history = EligibilityHistory(external, {}, protocol, store.config.window_bounds()[0])
    expected = run_campaign(
        sorted({a for a in external.senders if a not in store.contracts}), history,
        dataclasses.replace(EligibilityRules(Preset.FAIR), interaction_window_days=2),
        min(c.claim_timestamp for c in store.claims.values()),
    )
    assert json.loads((out / "eligibility" / "summary.json").read_text()) == expected.summary


def test_configured_tier_table_runs(ingested, tmp_path):
    out = ingested / "out"
    config = write_config(tmp_path, output_dir=str(out), eligibility={
        "min_tx_count": 5, "interaction_window_days": 2, "tier_table": [[6, 5200]],
    })
    assert run("eligibility", config) == 0
    summary = json.loads((out / "eligibility" / "summary.json").read_text())
    assert summary["eligible"] > 0
    assert summary["tier_counts"] == {"5200": summary["eligible"]}


def _validated_load(stage: Path, config: ingest.IngestConfig) -> ingest.EventStore:
    """The full raw-input validation of the ingest artifacts, row by row,
    as an oracle."""
    with mock.patch.object(ingest, "_split_events", return_value=None):
        events, errs = ingest.parse_transfers(stage / "events.csv",
                                              allow_self_transfers=config.allow_self_transfers)
    contracts, errs_c = ingest.parse_contracts(stage / "contracts.csv")
    claims, errs_cl = ingest.parse_claims(stage / "claims.csv")
    assert errs == errs_c == errs_cl == []
    return ingest.build_event_store(events, [], contracts, claims, config)


def _assert_same_store(got: ingest.EventStore, want: ingest.EventStore) -> None:
    """`got`, read_store's, holds the events of `want` as read_store keeps them."""
    assert got.events is None and got.columns == stored(want.events)
    assert got.contracts == want.contracts
    assert got.claims == want.claims
    assert got.config == want.config


@pytest.mark.parametrize("window", [
    (ingest.DEFAULT_WINDOW_START, ingest.DEFAULT_WINDOW_END),
    ("2021-12-01", "2022-03-01"),
], ids=["ingest_window", "narrower_window"])
def test_read_store_equals_validated_load(ingested, window):
    stage = ingested / "out" / "ingest"
    config = ingest.IngestConfig(*window)
    store = ingest.read_store(stage, config)
    _assert_same_store(store, _validated_load(stage, config))
    assert_addresses_shared(*store.columns.values())
    report = json.loads((stage / "report.json").read_text())
    assert store.report.to_json() == report
    if window[0] != ingest.DEFAULT_WINDOW_START:
        assert 0 < sum(len(c.timestamps) for c in store.columns.values()) < report["stored"]


def test_self_transfers_ingested_then_disallowed_fail(ingested, tmp_path, capsys):
    synth_dir = ingested / "out" / "synth"
    token = tmp_path / "token_transfers.csv"
    self_row = f"0x{'5e' * 32},0x{'77' * 20},0x{'77' * 20},1,1637000000,13604000,0,token_transfer"
    token.write_text((synth_dir / "token_transfers.csv").read_text() + self_row + "\n")
    inputs = {"token_transfers": str(token),
              "external_txs": str(synth_dir / "external_txs.csv"),
              "contracts": str(synth_dir / "contracts.csv"),
              "claims": str(synth_dir / "claims.csv")}
    allowed = write_config(tmp_path, out_name="selfish", inputs=inputs, allow_self_transfers=True)
    assert run("ingest", allowed) == 0
    stage = tmp_path / "selfish" / "ingest"
    config = ingest.IngestConfig(allow_self_transfers=True)
    store = ingest.read_store(stage, config)
    _assert_same_store(store, _validated_load(stage, config))
    assert any(u == v for c in store.columns.values() for u, v in zip(c.senders, c.receivers))
    assert_addresses_shared(*store.columns.values())

    with pytest.raises(ingest.SelfTransferDisallowedError, match="self-transfer") as raised:
        ingest.read_store(stage, ingest.IngestConfig())
    assert not isinstance(raised.value, artifacts.MissingArtifactError)
    disallowed = write_config(tmp_path, out_name="selfish", inputs=inputs)
    capsys.readouterr()
    assert run("cluster", disallowed) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "missing_artifact"
    line = (stage / "events.csv").read_text().splitlines().index(self_row) + 1
    assert f"events.csv line {line}: self-transfer not allowed by config" in err["error"]
    assert "allow_self_transfers" in err["error"] and "the store is intact" in err["error"]
    assert "re-run the ingest stage under this config" in err["error"]
    assert "corrupt" not in err["error"]


def _swap_first_unequal_timestamps(lines: list[str]) -> list[str]:
    ts = [line.split(",")[4] for line in lines]
    i = next(i for i in range(1, len(lines) - 1) if ts[i] != ts[i + 1])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return lines


def _replace_cell(lines: list[str], column: int, value: str, line: int = 2) -> list[str]:
    cells = lines[line - 1].split(",")
    cells[column] = value
    lines[line - 1] = ",".join(cells)
    return lines


def _first_row_of(lines: list[str], kind: str) -> int:
    """The line of the first `kind` row of events.csv from line 1000 on,
    where the fixture's chunks hold external rows, token rows or both."""
    return next(n for n in range(1000, len(lines) + 1) if lines[n - 1].endswith("," + kind))


def _damage_row_of(kind: str, damage):
    """A corruption that applies `damage(lines, line)` to _first_row_of `kind`."""
    return lambda lines: damage(lines, _first_row_of(lines, kind))


def _late_timestamp(lines: list[str], line: int) -> list[str]:
    """Line `line`'s timestamp moved past the last row's, out of order."""
    return _replace_cell(lines, 4, str(int(lines[-1].split(",")[4]) + 1), line)


def _self_transfer(lines: list[str], line: int) -> list[str]:
    return _replace_cell(lines, 2, lines[line - 1].split(",")[1], line)


def _scale_value(lines: list[str], line: int) -> list[str]:
    """Line `line`'s value times 7: a row that still parses."""
    return _replace_cell(lines, 3, str(int(lines[line - 1].split(",")[3]) * 7), line)


# Edits of ingest's files: (file, edit of its lines, or None to delete it).
CORRUPTIONS = {
    "wrong_header": ("events.csv", lambda lines: [lines[0].replace("value", "amount")] + lines[1:]),
    "row_deleted": ("events.csv", lambda lines: lines[:5] + lines[6:]),
    "non_int_value": ("events.csv", lambda lines: _replace_cell(lines, 3, "12x")),
    "short_row": ("events.csv", lambda lines: [lines[0], lines[1].rsplit(",", 1)[0]] + lines[2:]),
    "unknown_kind": ("events.csv", lambda lines: _replace_cell(lines, 7, "bogus_tx")),
    "unknown_category": ("contracts.csv", lambda lines: _replace_cell(lines, 2, "Casino")),
    "unknown_tier": ("claims.csv", lambda lines: _replace_cell(lines, 1, "4000")),
    "duplicate_claim": ("claims.csv", lambda lines: lines[:2] + lines[1:]),
    "rows_swapped": ("events.csv", _swap_first_unequal_timestamps),
    "nine_cells": ("events.csv", lambda lines: _replace_cell(lines, 7, "token_transfer,0", 800)),
    # a row whose kind lands on an empty cell, which has no first character
    "empty_kind_cell": ("events.csv", lambda lines: _replace_cell(lines, 7, ",token_transfer", 800)),
    "bad_cell_deep": ("events.csv", lambda lines: _replace_cell(lines, 5, "13x", 1500)),
    "bad_log_index_deep": ("events.csv", lambda lines: _replace_cell(lines, 6, "7x", 1500)),
    "empty_block_deep": ("events.csv", lambda lines: _replace_cell(lines, 5, "", 1500)),
    "report_not_json": ("report.json", lambda lines: ["{"]),
    "report_missing": ("report.json", None),
    # Edits that leave every file well-formed: numbers int() reads, a
    # value scaled, rows cut at a row boundary, and changed names, tiers,
    # timestamps and counts.
    "block_signed": ("events.csv", lambda lines: _replace_cell(lines, 5, "+13", 1500)),
    "block_underscored": ("events.csv", lambda lines: _replace_cell(lines, 5, "1_3", 1500)),
    "log_index_signed": ("events.csv", lambda lines: _replace_cell(lines, 6, "+0", 1500)),
    "token_value_times_7": ("events.csv", _damage_row_of("token_transfer", _scale_value)),
    "truncated_at_row_boundary": ("events.csv", lambda lines: lines[:len(lines) // 2]),
    "contract_renamed": ("contracts.csv", lambda lines: _replace_cell(lines, 1, "renamed")),
    "non_int_tier": ("claims.csv", lambda lines: _replace_cell(lines, 1, "52x")),
    "claim_timestamp_edited": ("claims.csv", lambda lines: _replace_cell(
        lines, 3, str(int(lines[1].split(",")[3]) + 1))),
    "report_count_edited": ("report.json", lambda lines: [
        line.replace('"n_claims": ', '"n_claims": 1') for line in lines]),
    "run_record_missing": ("run.json", None),
    "run_record_not_json": ("run.json", lambda lines: ["{"]),
}
# Damage to rows of a kind that the stage does not build.
UNBUILT_KIND_CORRUPTIONS = {
    "cluster": {
        "external_row_value": ("events.csv", _damage_row_of(
            "external_tx", lambda lines, line: _replace_cell(lines, 3, "12x", line))),
        "external_row_out_of_order": ("events.csv", _damage_row_of("external_tx", _late_timestamp)),
        "external_row_self_transfer": ("events.csv", _damage_row_of("external_tx", _self_transfer)),
    },
    "eligibility": {
        "token_row_value": ("events.csv", _damage_row_of(
            "token_transfer", lambda lines, line: _replace_cell(lines, 3, "12x", line))),
        "token_row_out_of_order": ("events.csv", _damage_row_of("token_transfer", _late_timestamp)),
        "token_row_self_transfer": ("events.csv", _damage_row_of("token_transfer", _self_transfer)),
    },
}


# Every stage that loads the store, with cluster's cases under their bare names.
@pytest.mark.parametrize("stage,case", [
    pytest.param(stage, case, id=case if stage == "cluster" else f"{stage}-{case}")
    for stage in ("graph", "cluster", "eligibility", "stats")
    for case in sorted(CORRUPTIONS) + sorted(UNBUILT_KIND_CORRUPTIONS.get(stage, ()))
])
def test_corrupt_ingest_artifact_exits_1(ingested, tmp_path, capsys, stage, case):
    """Any edit of a file ingest wrote, whatever its kind of row, fails the
    sha256 that ingest recorded in run.json, and the error names the file
    and that digest (a self-transfer in an edited row too). A missing file
    or run.json is unreadable."""
    name, corrupt = {**CORRUPTIONS, **UNBUILT_KIND_CORRUPTIONS.get(stage, {})}[case]
    out = tmp_path / "out"
    ingest_dir = out / "ingest"
    ingest_dir.mkdir(parents=True)
    for path in (ingested / "out" / "ingest").iterdir():
        (ingest_dir / path.name).write_bytes(path.read_bytes())
    recorded = json.loads((ingest_dir / "run.json").read_text())["outputs"]
    target = ingest_dir / name
    lines = target.read_text().splitlines()
    if corrupt is None:
        target.unlink()
    else:
        target.write_text("\n".join(corrupt(list(lines))) + "\n")
    assert run(stage, write_config(tmp_path)) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "missing_artifact"
    assert "ingest stage" in err["error"] and name in err["error"]
    if corrupt is not None and name in recorded:
        digest = recorded[name]["sha256"]
        assert f"{name} does not match the sha256 {digest} that ingest recorded" in err["error"]
    assert not (out / stage).exists()


@pytest.mark.parametrize("content,needle", [
    ("address,balance\n{addr},0.5\n", "header missing columns ['chain']"),
    ("address,chain,balance\n{addr},ethereum,lots\n", "line 2"),
    ("address,chain,balance\n{addr},ethereum,0.5\n0x1234,ethereum,1\n", "line 3"),
    ("address,chain,balance\n{addr},ethereum,-1\n", "line 2"),
    ("address,chain,balance\n{addr},ethereum,nan\n", "line 2"),
    ("address,chain,balance\n{addr},ethereum\n", "line 2"),
], ids=["missing_column", "non_number", "bad_address", "negative", "nan", "short_row"])
def test_bad_balances_file_exits_1(ingested, tmp_path, capsys, content, needle):
    balances = tmp_path / "balances.csv"
    balances.write_text(content.format(addr="0x" + "ab" * 20))
    config = write_config(tmp_path, output_dir=str(ingested / "out"),
                          inputs={"balances": str(balances)})
    assert run("eligibility", config) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "validation_error"
    assert str(balances) in err["error"] and needle in err["error"]


def test_balances_header_after_byte_order_mark_is_read(ingested, tmp_path):
    balances = tmp_path / "balances.csv"
    balances.write_text("\ufeffaddress,chain,balance\n")
    config = write_config(tmp_path, output_dir=str(ingested / "out"),
                          inputs={"balances": str(balances)})
    assert run("eligibility", config) == 0


def test_balances_file_is_read(ingested, tmp_path):
    store = ingest.read_store(ingested / "out" / "ingest")
    member = min(a for a in store.columns_of(ingest.EventKind.EXTERNAL_TX).senders
                 if a not in store.contracts)
    balances = tmp_path / "balances.csv"
    balances.write_text(f"address,chain,balance\n{member.upper()},ethereum,2.5\n")
    config = write_config(tmp_path, output_dir=str(ingested / "out"), inputs={
        "balances": str(balances)}, eligibility={
        "min_tx_count": 10**6, "interaction_window_days": 2, "min_native_balance": {"ethereum": 1.0}})
    assert run("eligibility", config) == 0
    verdicts = ingested / "out" / "eligibility" / "verdicts.csv"
    with verdicts.open() as f:
        met = [row["address"] for row in csv.DictReader(f)
               if "activity_floor=pass" in row["rule_trace"]]
    assert met == [member]
