"""Batch pipeline frontend: one config file, staged file artifacts.

Every command reads the artifacts of its upstream stages from the output
directory and writes its own; nothing is held in memory between commands,
so each intermediate is reproducible and diffable. Outputs are
byte-deterministic for a fixed config and seed.

Exit codes: 0 success, 1 user error (an `artifacts.UserError`, printed as
one JSON line on stderr), 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import logging
import math
import os
import re
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from . import artifacts, clustering, eligibility, flows, forensics, graphs, ingest, stats, synth
from .artifacts import MissingArtifactError
from .config import Config, ConfigInvalidError, from_json, load_config, to_json

log = logging.getLogger("airdrop_forensics.cli")


RAW_INPUTS = ("token_transfers", "external_txs", "contracts", "claims")


def _input_paths(config: Config, out: Path) -> list[Path]:
    """The raw exports in RAW_INPUTS order: as configured, else synth's."""
    configured = [getattr(config.inputs, key) for key in RAW_INPUTS]
    if all(configured):
        return [Path(path) for path in configured]
    if (out / "synth" / "token_transfers.csv").exists():
        return [out / "synth" / f"{key}.csv" for key in RAW_INPUTS]
    raise MissingArtifactError(
        "no input files configured and no synth artifacts present: "
        "set inputs.* in the config or run the synth stage"
    )


def cmd_synth(config: Config, out: Path, args) -> None:
    section, window = config.synth, config.window
    if None in (window.start, window.end):
        raise ConfigInvalidError(f"synth needs window.start and window.end, got {to_json(window)}")
    spec = synth.ScenarioSpec(
        seed=args.seed if args.seed is not None else section.seed,
        population=synth.population_from_shares(section.population_total),
        tier_mix=section.tier_mix,
        patterns=list(section.patterns),
        noise_rate=section.noise_rate,
        window_start=window.start,
        window_end=window.end,
    )
    scenario = synth.generate(spec)
    scenario.write(out / "synth")
    log.info(
        "synth: %d claimants, %d token events, %d external events, %d planted instances",
        len(scenario.claims), len(scenario.token_events),
        len(scenario.external_events), len(scenario.truth.pattern_instances),
    )


def cmd_ingest(config: Config, out: Path, args) -> None:
    paths = _input_paths(config, out)
    for path in paths:
        if not path.exists():
            raise MissingArtifactError(f"input file {path} does not exist")
    store = ingest.load_event_store(*paths, config.ingest_config())
    stage = out / "ingest"
    # Earlier versions also wrote a column cache here, which nothing reads
    # now; left in place it would stay in every digest of a reused tree.
    stale_cache = stage / "events.cols"
    if stale_cache.is_file():
        stale_cache.unlink()
    ingest.write_transfers_csv(store.events, stage / "events.csv")
    ingest.write_contracts_csv(list(store.contracts.values()), stage / "contracts.csv")
    ingest.write_claims_csv(list(store.claims.values()), stage / "claims.csv")
    artifacts.write_json(store.report.to_json(), stage / "report.json")
    log.info("ingest: %d events stored, %d claims, %d contracts",
             store.report.stored, store.report.n_claims, store.report.n_contracts)


def cmd_graph(config: Config, out: Path, args) -> None:
    if args.slice_interval is not None:
        config = from_json(Config, {**to_json(config), "slice_interval_days": args.slice_interval},
                           "--slice-interval")
    interval = config.slice_interval_days
    fmt = args.format or "graphml"
    if fmt not in ("graphml", "dot"):
        raise ConfigInvalidError(f"--format must be graphml or dot, got {fmt!r}")
    store = ingest.read_store(out / "ingest", config.ingest_config())
    stage = out / "graph"
    # The last slice holds every token event of the store (read_store
    # applied the window, and iter_slices' default bounds cover the rest),
    # so it is the token graph. Each slice is measured at its own cutoff
    # before the next one grows the graph; only the last is kept.
    token_graph = graphs.CommunityGraph()

    def keep_last(slices):
        nonlocal token_graph
        for sl in slices:
            token_graph = sl.graph
            yield sl

    try:
        series = graphs.metric_series(keep_last(graphs.iter_slices(store, interval_days=interval)))
    except graphs.WindowEmptyError:
        log.warning("no token events in the study window; metric series skipped")
        series = graphs.MetricSeries()
    # The token graph's files are written, and the graph dropped, before
    # the external graph is built, so the two are never held at once.
    sizes = {"token_graph": _write_graph_files(token_graph, stage, "token_graph", fmt)}
    token_graph = None
    sizes["external_graph"] = _write_graph_files(
        graphs.build_external_graph(store), stage, "external_graph", fmt)
    artifacts.write_json(series.to_json_rows(), stage / "metric_series.json")
    artifacts.write_json({**sizes, "slice_interval_days": interval}, stage / "summary.json")
    log.info("graph: token %d/%d, external %d/%d (nodes/edges)",
             *sizes["token_graph"].values(), *sizes["external_graph"].values())


def _write_graph_files(graph: graphs.CommunityGraph, stage: Path, name: str, fmt: str) -> dict:
    """Write `graph` as `name`.json and `name`.`fmt`; its node and edge counts."""
    order = graphs.sorted_order(graph)
    graphs.write_graph_json(graph, stage / f"{name}.json", order)
    graphs.write_graph(graph, stage / f"{name}.{fmt}", fmt, name, order)
    return {"nodes": graph.n_nodes, "edges": graph.n_edges}


def cmd_cluster(config: Config, out: Path, args) -> None:
    store = ingest.read_store(out / "ingest", config.ingest_config())
    stage = out / "cluster"
    member_flows = flows.build_flows(store, sorted(store.claims))
    features = {a: flows.extract_features(f) for a, f in member_flows.items()}
    flows.write_feature_matrix(sorted(features.items()), stage / "features.csv")
    addresses = sorted(features)
    vectors = [features[a] for a in addresses]
    assignment = clustering.select_k(vectors, config.clustering, addresses,
                                     dataclasses.astuple(config.weights))
    mapping = clustering.map_roles(assignment, features)
    clustering.write_assignment_csv(assignment, mapping, stage / "assignment.csv")
    clustering.write_silhouette_json(assignment, stage / "silhouette.json")
    artifacts.write_json(assignment.dendrogram.to_json(), stage / "dendrogram.json")
    log.info("cluster: K=%d over %d members (%d unmapped clusters)",
             assignment.k, len(addresses), len(mapping.unmapped))


def cmd_detect(config: Config, out: Path, args) -> None:
    # The graphs hold every token and external event, so events.csv is read
    # only when ingest stored internal events, which no graph holds.
    report, contracts, claims = ingest.read_records(out / "ingest")
    internal = []
    if report.internal_events:
        internal = ingest.read_store(out / "ingest", config.ingest_config()).events_of_kind(
            ingest.EventKind.INTERNAL_TX)
    token_graph = graphs.load_graph_json(out / "graph" / "token_graph.json")
    external_graph = graphs.load_graph_json(out / "graph" / "external_graph.json")
    stage = out / "detect"
    result = forensics.run_detectors(token_graph, external_graph, claims, contracts,
                                     config.detectors, internal)
    artifacts.write_jsonl((f.to_json() for f in result.findings), stage / "findings.jsonl")
    forensics.write_components_csv(result.profiles, stage / "components.csv")
    rows = forensics.voting_power_report(result.findings, claims)
    forensics.write_voting_power_json(rows, stage / "voting_power.json")
    comp_dir = stage / "components"
    flagged = {f.component_id for f in result.findings if f.component_id > 0}
    by_id = {p.id: p for p in result.profiles}
    for cid in sorted(flagged):
        graphs.write_graph(
            by_id[cid].graph, comp_dir / f"component_{cid}.dot", "dot", f"component_{cid}"
        )
    # A component file this run did not write is left from an earlier one.
    written = {f"component_{cid}.dot" for cid in flagged}
    for path in comp_dir.glob("component_*.dot"):
        if path.name not in written and re.fullmatch(r"component_[0-9]+\.dot", path.name):
            path.unlink()
    log.info("detect: %d components, %d findings", len(result.profiles), len(result.findings))


def cmd_eligibility(config: Config, out: Path, args) -> None:
    store = ingest.read_store(out / "ingest", config.ingest_config())
    stage = out / "eligibility"
    balances_path = config.inputs.balances
    balances = _read_balances(balances_path) if balances_path else {}

    protocol = frozenset(
        a for a, c in store.contracts.items()
        if c.category in (ingest.ContractCategory.TRADING_SWAP, ingest.ContractCategory.TRADING_OR_LP)
    )
    external = store.events_of_kind(ingest.EventKind.EXTERNAL_TX)
    if not external:
        raise MissingArtifactError("no external transactions ingested; nothing to screen")
    bounds = store.config.window_bounds()
    history = eligibility.EligibilityHistory(
        events=external,
        balances=balances,
        protocol_addresses=protocol,
        coverage_start=bounds[0] if bounds else external[0].timestamp,
    )
    snapshot = min((c.claim_timestamp for c in store.claims.values()), default=None)
    if snapshot is None:
        snapshot = max(e.timestamp for e in external)
    population = sorted(
        {e.sender for e in external if e.sender not in store.contracts}
    )
    result = eligibility.run_campaign(population, history, config.eligibility, snapshot)
    if "recency_window_clipped_to" in result.summary:
        log.warning("eligibility: the %d-day recency window reaches back before the history; "
                    "clipped to its start %d", config.eligibility.interaction_window_days,
                    result.summary["recency_window_clipped_to"])
    eligibility.write_verdicts_csv(result, stage / "verdicts.csv")
    artifacts.write_json(result.summary, stage / "summary.json")
    log.info("eligibility: %d of %d addresses pass under preset %s",
             result.summary["eligible"], result.summary["population"],
             config.eligibility.preset.value)


BALANCE_COLUMNS = ("address", "chain", "balance")


def _read_balances(path: str) -> dict[str, dict[str, float]]:
    """address -> chain -> native balance; a bad file or row is an input error."""
    balances: dict = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in BALANCE_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ingest.IngestError(f"{path}: header missing columns {missing}")
            for row in reader:
                try:
                    address = ingest.normalize_address(row["address"] or "")
                    balance = float(row["balance"] or "")
                    if not 0 <= balance < math.inf:
                        raise ValueError(f"balance {row['balance']!r} is not a finite number >= 0")
                except ValueError as exc:
                    raise ingest.IngestError(f"{path} line {reader.line_num}: {exc}") from exc
                balances.setdefault(address, {})[row["chain"]] = balance
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ingest.IngestError(f"cannot read balances file {path}: {exc}") from exc
    return balances


def cmd_stats(config: Config, out: Path, args) -> None:
    store = ingest.read_store(out / "ingest", config.ingest_config())
    bounds = store.config.window_bounds()
    if not (bounds or store.events):
        raise MissingArtifactError("no events ingested and no study window; no period to describe")
    start_ts, end_ts = bounds or (store.events[0].timestamp, store.events[-1].timestamp)
    stage = out / "stats"
    member_flows = flows.build_flows(store, sorted(store.claims))
    ops = {a: flows.extract_features(f).op_set() for a, f in member_flows.items()}
    table = stats.behavior_table(ops, store.claims)
    stats.write_behavior_table_csv(table, stage / "behavior_table.csv")
    artifacts.write_json({str(t.value): table[t] for t in ingest.Tier},
                         stage / "behavior_table.json")
    timelines = stats.build_timelines(member_flows, start_ts, end_ts)
    artifacts.write_json(stats.attrition(timelines, store.claims).to_json(),
                         stage / "attrition.json")
    stats.write_top_contracts_csv(stats.top_contracts(store), stage / "top_contracts.csv")

    groups: dict[str, list[str]] = {"all": sorted(store.claims)}
    assignment = out / "cluster" / "assignment.csv"
    if assignment.exists():
        with _shaped(assignment):
            labels = {row["address"]: int(row["cluster"]) for row in
                      artifacts.read_csv(assignment, ("address", "cluster"))}
        if labels.keys() != store.claims.keys():
            raise artifacts.unreadable(assignment, "its addresses are not the ingested claimants")
        stats.write_tier_composition_csv(
            stats.tier_composition(labels, store.claims), stage / "tier_composition.csv"
        )
        buyers = {a for a, kinds in ops.items() if flows.OperationKind.BUY in kinds}
        groups = {
            "group1_airdrop_only": sorted(a for a in labels if a not in buyers),
            "group2_buyers": sorted(a for a in labels if a in buyers),
        }

    period_estimates: dict[str, stats.DensityEstimate] = {}
    quantity_estimates: dict[str, stats.DensityEstimate] = {}
    for group, members in sorted(groups.items()):
        samples = stats.period_quantity_samples(timelines, members)
        for key, values in sorted(samples.items()):
            if not values:
                continue
            bucket = period_estimates if key.endswith("_period") else quantity_estimates
            bucket[f"{group}.{key}"] = stats.kde(values)
    stats.write_kde_json(period_estimates, stage / "kde_periods.json")
    stats.write_kde_json(quantity_estimates, stage / "kde_quantities.json")
    log.info("stats: behavior table, attrition, top contracts, %d densities",
             len(period_estimates) + len(quantity_estimates))


# What JSON of the wrong shape raises where report indexes or formats it.
_WRONG_SHAPE = (AttributeError, KeyError, TypeError, ValueError)


@contextmanager
def _shaped(path):
    """Index the JSON of the artifact at `path` inside; an error that JSON
    of another shape raises there makes it an unreadable artifact, as in
    graphs.load_graph_json."""
    try:
        yield
    except _WRONG_SHAPE as exc:
        raise artifacts.unreadable(path, f"wrong shape: {exc!r}") from exc


def cmd_report(config: Config, out: Path, args) -> None:
    """Assemble stage artifacts into one report; formatting only, every
    number is traceable to an artifact file."""
    findings = out / "detect" / "findings.jsonl"
    with _shaped(findings):
        pattern_counts = Counter(f["pattern"] for f in artifacts.read_jsonl(findings))
    assignment = out / "cluster" / "assignment.csv"
    rows = list(artifacts.read_csv(assignment, ("cluster", "role")))
    role_counts = Counter(row["role"] for row in rows)

    ingested = out / "ingest" / "report.json"
    summary = out / "graph" / "summary.json"
    silhouette = out / "cluster" / "silhouette.json"
    attrition = out / "stats" / "attrition.json"
    report = {
        "ingest": artifacts.read_json(ingested),
        "graph": artifacts.read_json(summary),
        "metric_series": artifacts.read_json(out / "graph" / "metric_series.json"),
        "clustering": {
            "silhouette": artifacts.read_json(silhouette),
            "cluster_counts": Counter(row["cluster"] for row in rows),
            "role_counts": role_counts,
        },
        "behavior_table": artifacts.read_json(out / "stats" / "behavior_table.json"),
        "top_contracts": list(artifacts.read_csv(out / "stats" / "top_contracts.csv")),
        "attrition": artifacts.read_json(attrition),
        "findings_by_pattern": pattern_counts,
        "voting_power": artifacts.read_json(out / "detect" / "voting_power.json"),
    }
    composition_csv = out / "stats" / "tier_composition.csv"
    if composition_csv.exists():
        report["tier_composition"] = list(artifacts.read_csv(composition_csv))
    densities = {}
    for name in ("kde_periods", "kde_quantities"):
        path = out / "stats" / f"{name}.json"
        payload = artifacts.read_json(path)
        with _shaped(path):
            densities[name] = {
                key: {"bandwidth": est["bandwidth"], "integral": est["integral"],
                      "points": len(est["grid"])}
                for key, est in payload.items()
            }
    report["density_estimates"] = densities
    eligibility_summary = out / "eligibility" / "summary.json"
    if eligibility_summary.exists():
        report["eligibility"] = artifacts.read_json(eligibility_summary)

    lines = ["# Community report", ""]
    with _shaped(ingested):
        lines.append(f"- events stored: {report['ingest']['stored']}")
        lines.append(f"- initial members: {report['ingest']['n_claims']}")
        if len(rows) != report["ingest"]["n_claims"]:
            raise artifacts.unreadable(assignment, f"{len(rows)} rows for "
                                       f"{report['ingest']['n_claims']} ingested claims")
    with _shaped(summary):
        token_graph = report["graph"]["token_graph"]
        lines.append(f"- token graph: {token_graph['nodes']} nodes / {token_graph['edges']} edges")
    with _shaped(silhouette):
        lines.append(f"- chosen K: {report['clustering']['silhouette']['chosen_k']}")
    with _shaped(attrition):
        lines.append(f"- attrition: {report['attrition']['left_pct']:.2%}")
    lines.append("")
    lines.append("## Findings")
    for pattern, count in sorted(pattern_counts.items()):
        lines.append(f"- {pattern}: {count}")
    if not pattern_counts:
        lines.append("- none")
    lines.append("")
    lines.append("## Roles")
    for role, count in sorted(role_counts.items()):
        lines.append(f"- {role}: {count}")

    stage = out / "report"
    artifacts.write_json(report, stage / "report.json")
    with artifacts.open_for_write(stage / "report.md") as fh:
        fh.write("\n".join(lines) + "\n")
    log.info("report: assembled into %s", stage)


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "graph": cmd_graph,
    "cluster": cmd_cluster,
    "detect": cmd_detect,
    "eligibility": cmd_eligibility,
    "stats": cmd_stats,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airdrop-forensics",
        description="Token-distribution forensics pipeline (staged batch commands)",
    )
    parser.add_argument("command", choices=sorted(COMMANDS), help="pipeline stage to run")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="synth seed override")
    parser.add_argument(
        "--slice-interval", type=int, default=None, help="slice interval in days (graph stage)"
    )
    parser.add_argument(
        "--format", default=None, help="graph export format, graphml or dot (graph stage)",
    )
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("AIRDROP_FORENSICS_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    # A stage leaves a fixed amount of cyclic garbage whatever the corpus
    # size (tests/test_cli.py checks that), while each full collection
    # re-walks the whole event store: TransferEvent is a NamedTuple, and
    # the collector untracks only exact tuples. So the command runs with
    # the collector off, and the caller's setting comes back afterwards.
    collector_was_on = gc.isenabled()
    gc.disable()
    try:
        config = load_config(args.config)
        out = Path(args.out or config.output_dir)
        artifacts.write_json(to_json(config), out / "config.resolved.json")
        COMMANDS[args.command](config, out, args)
        return 0
    except artifacts.UserError as exc:
        print(json.dumps({"code": exc.code, "error": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print(json.dumps({"code": "internal_error", "error": str(exc)}), file=sys.stderr)
        return 2
    finally:
        if collector_was_on:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
