import csv
import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from airdrop_forensics import ingest
from airdrop_forensics.cli import load_config, main, ConfigInvalidError
from airdrop_forensics.config import to_json
from airdrop_forensics.eligibility import EligibilityHistory, EligibilityRules, run_campaign

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
    # every file report reads is checked up front, so a stats stage that
    # failed half way is a validation failure (exit 1), not an internal error
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


def test_config_round_trips_through_canonical_writer(tmp_path):
    config_path = write_config(tmp_path)
    assert run("synth", config_path) == 0
    resolved = tmp_path / "out" / "config.resolved.json"
    first = resolved.read_bytes()
    loaded = load_config(str(resolved))
    assert to_json(loaded) == json.loads(first)
    assert run("synth", config_path) == 0
    assert resolved.read_bytes() == first


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


def test_dot_export_format(tmp_path):
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    assert run("ingest", config) == 0
    assert run("graph", config, "--format", "dot") == 0
    assert (tmp_path / "out" / "graph" / "token_graph.dot").exists()


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """An output directory that has been through synth and ingest."""
    root = tmp_path_factory.mktemp("ingested")
    config = write_config(root)
    assert run("synth", config) == 0
    assert run("ingest", config) == 0
    return root


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
    ],
    ids=["linkage_ward", "string_weight", "string_k_min", "string_min_tx_count",
         "int_window_start", "section_not_object", "k_min_above_k_max", "string_detector_value",
         "string_population_total", "short_tier_mix", "unknown_pattern_kind",
         "misspelled_synth_key", "string_min_native_balance", "unknown_tier",
         "tier_table_gap", "int_input_path", "string_allow_self_transfers", "int_output_dir"],
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
    external = store.events_of_kind(ingest.EventKind.EXTERNAL_TX)
    protocol = frozenset(a for a, c in store.contracts.items() if c.category in (
        ingest.ContractCategory.TRADING_SWAP, ingest.ContractCategory.TRADING_OR_LP))
    history = EligibilityHistory(external, {}, protocol, store.config.window_bounds()[0])
    expected = run_campaign(
        sorted({e.sender for e in external if e.sender not in store.contracts}), history,
        dataclasses.replace(EligibilityRules.fair(), interaction_window_days=2),
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
    """The full raw-input validation of the ingest artifacts, as an oracle."""
    events, errs = ingest.parse_transfers(stage / "events.csv",
                                          allow_self_transfers=config.allow_self_transfers)
    contracts, errs_c = ingest.parse_contracts(stage / "contracts.csv")
    claims, errs_cl = ingest.parse_claims(stage / "claims.csv")
    assert errs == errs_c == errs_cl == []
    return ingest.build_event_store(events, [], contracts, claims, config)


def _assert_same_store(got: ingest.EventStore, want: ingest.EventStore) -> None:
    assert got.events == want.events
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
    oracle = _validated_load(stage, config)
    _assert_same_store(store, oracle)
    report = json.loads((stage / "report.json").read_text())
    assert store.report.to_json() == report
    if window[0] != ingest.DEFAULT_WINDOW_START:
        assert 0 < len(store.events) < report["stored"]


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
    _assert_same_store(ingest.read_store(stage, config), _validated_load(stage, config))

    with pytest.raises(ingest.CorruptStoreError, match="self-transfer"):
        ingest.read_store(stage, ingest.IngestConfig())
    disallowed = write_config(tmp_path, out_name="selfish", inputs=inputs)
    capsys.readouterr()
    assert run("cluster", disallowed) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "missing_artifact"
    assert "re-run the ingest stage" in err["error"]


def _swap_first_unequal_timestamps(lines: list[str]) -> list[str]:
    ts = [line.split(",")[4] for line in lines]
    i = next(i for i in range(1, len(lines) - 1) if ts[i] != ts[i + 1])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return lines


def _replace_cell(lines: list[str], column: int, value: str) -> list[str]:
    cells = lines[1].split(",")
    cells[column] = value
    lines[1] = ",".join(cells)
    return lines


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
    "report_not_json": ("report.json", lambda lines: ["{"]),
    "report_missing": ("report.json", None),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_ingest_artifact_exits_1(ingested, tmp_path, capsys, case):
    name, corrupt = CORRUPTIONS[case]
    out = tmp_path / "out"
    stage = out / "ingest"
    stage.mkdir(parents=True)
    for path in (ingested / "out" / "ingest").iterdir():
        (stage / path.name).write_bytes(path.read_bytes())
    target = stage / name
    if corrupt is None:
        target.unlink()
    else:
        target.write_text("\n".join(corrupt(target.read_text().splitlines())) + "\n")
    assert run("cluster", write_config(tmp_path)) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "missing_artifact"
    assert "ingest stage" in err["error"]
    assert not (out / "cluster").exists()


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
    member = min(e.sender for e in store.events_of_kind(ingest.EventKind.EXTERNAL_TX)
                 if e.sender not in store.contracts)
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
