"""Mutants of src/ and the tests that must catch them.

Each row of MUTANTS names a module of src/airdrop_forensics, a fragment
that occurs exactly once in it, the fragment's replacement, and the tests
that must fail once it is replaced. Run

    python tests/mutants.py [--only NAME ...]

to run each named test on an unmodified copy of the repository, where it
must pass, then apply each mutant in turn to that copy and run its tests
there with pytest. A mutant is caught when every one of its tests fails.
The script exits non-zero if a test fails unmodified, a fragment is not
found exactly once, or a mutant survives. It takes a few minutes, so
tier-1 does not run it; tests/test_checks.py checks the table itself.

A row is added by the change whose tests catch it. A mutant that survives
is a gap in the tests, to be closed or recorded, not a row to delete.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "airdrop_forensics"


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/airdrop_forensics
    fragment: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


_EXIT = "tests/test_exit_codes.py::"
_CLI = "tests/test_cli.py::"
_PROC = "tests/test_processes.py::"
_CORRUPT = _CLI + "test_corrupt_ingest_artifact_exits_1"
_ART = "tests/test_artifacts.py::"
_INGEST = "tests/test_ingest.py::"
_GRAPHS = "tests/test_graphs.py::"

MUTANTS = [
    Mutant("config-imports-numpy", "config.py",
           "import typing\n",
           "import typing\n\nimport numpy  # noqa: F401\n",
           ("tests/test_config.py::test_loading_a_config_loads_no_stage_module",)),
    Mutant("deleted-artifact-is-internal", "artifacts.py",
           "    except (OSError, ValueError, csv.Error) as exc:",
           "    except (ValueError, csv.Error) as exc:",
           (_EXIT + "test_damaged_upstream_artifact_never_exits_2[graph/token_graph.json-deleted]",)),
    Mutant("graph-json-read-unchecked", "graphs.py",
           "    return graph_from_json(artifacts.read(path))",
           "    with open(path) as fh:\n        return graph_from_json(json.load(fh))",
           (_EXIT + "test_damaged_upstream_artifact_never_exits_2[graph/token_graph.json-deleted]",
            _EXIT + "test_wrong_shaped_graph_json_exits_1[empty_object-token_graph]")),
    Mutant("read-skips-the-digest", "artifacts.py",
           '    text = b"".join(read_chunks(path)).decode()',
           '    text = path.read_text(encoding="utf-8")',
           (_EXIT + "test_a_well_formed_edit_of_an_artifact_exits_1[findings_cut]",
            _EXIT + "test_a_well_formed_edit_of_an_artifact_exits_1[top_contracts_cut]",
            _EXIT + "test_a_well_formed_edit_of_an_artifact_exits_1[attrition_number]",
            _EXIT + 'test_wrong_shaped_report_input_exits_1[stats/attrition.json-{"left_pct": "12%"}]')),
    Mutant("assignment-repeat-uncounted", "clustering.py",
           "    if len(addresses) != len(rows) or addresses != claimants:",
           "    if addresses != claimants:",
           (_EXIT + "test_assignment_of_other_claimants_exits_1[stats-repeated]",
            _EXIT + "test_assignment_of_other_claimants_exits_1[stats-appended]")),
    Mutant("detect-reads-events-csv", "cli.py",
           "    if report.internal_events:",
           "    if True:",
           (_EXIT + "test_detect_reads_no_events_csv[deleted]",
            _EXIT + "test_detect_reads_no_events_csv[directory]")),
    Mutant("graph-keeps-other-format", "cli.py",
           "    if other.is_file():\n        other.unlink()",
           "    if False:\n        other.unlink()",
           (_CLI + "test_graph_rerun_in_another_format_leaves_what_a_fresh_run_writes[graphml-dot]",
            _CLI + "test_graph_rerun_in_another_format_leaves_what_a_fresh_run_writes[dot-graphml]")),
    Mutant("graphml-first-edge-batch-only", "graphs.py",
           "    for batch in _batches(edges):\n        yield \"\".join(\n"
           "            f'    <edge source=",
           "    for batch in list(_batches(edges))[:1]:\n        yield \"\".join(\n"
           "            f'    <edge source=",
           (_CLI + "test_graph_rerun_in_another_format_leaves_what_a_fresh_run_writes[dot-graphml]",)),
    Mutant("attracting-singletons-side-right", "graphs.py",
           "    counts = n - np.searchsorted(leaves_at, e)",
           '    counts = n - np.searchsorted(leaves_at, e, side="right")',
           (_PROC + "test_daily_metric_series_agrees_with_networkx",)),
    Mutant("assortativity-source-in-degree", "graphs.py",
           "    dx, sx = _deviations(np.bincount(src, minlength=n)[src])",
           "    dx, sx = _deviations(np.bincount(dst, minlength=n)[src])",
           (_PROC + "test_daily_metric_series_agrees_with_networkx",)),
    Mutant("edge-keeps-last-value", "graphs.py",
           "            stats.total_value += value",
           "            stats.total_value = value",
           (_PROC + "test_external_edges_hold_the_count_and_value_of_their_events",)),
    Mutant("rewrite-leaves-old-tail", "artifacts.py",
           "        finally:\n            fh.truncate()",
           "        finally:\n            pass",
           (_CLI + "test_rerun_under_a_new_config_leaves_what_a_fresh_run_writes",
            _PROC + "test_one_history_rescreened_under_every_preset")),
    Mutant("detect-keeps-stale-components", "cli.py",
           '            path.unlink()\n    log.info("detect: ',
           '            pass\n    log.info("detect: ',
           (_CLI + "test_rerun_under_a_new_config_leaves_what_a_fresh_run_writes",)),
    Mutant("row-loop-swaps-block-and-log-index", "ingest.py",
           "        events.append(TransferEvent(tx_hash, sender, receiver, value, timestamp, block,\n"
           "                                    row_kind, log_index))",
           "        events.append(TransferEvent(tx_hash, sender, receiver, value, timestamp,\n"
           "                                    log_index, row_kind, block))",
           (_PROC + "test_crlf_exports_are_read_by_the_row_loop_into_the_same_store",)),
    Mutant("mixed-chunk-mask-inverted", "ingest.py",
           "keep = list(map(initial.__eq__, initials))",
           "keep = list(map(initial.__ne__, initials))",
           (_PROC + "test_read_store_columns_for_every_kind_set_are_the_row_loops",)),
    Mutant("text-artifacts-in-locale-encoding", "artifacts.py",
           '    path = Path(path)\n    if "b" not in mode:\n        kw.setdefault("encoding", "utf-8")',
           '    path = Path(path)\n    if "b" not in mode:\n        pass',
           (_ART + "test_text_mode_writes_utf8_whatever_the_locale",)),
    Mutant("store-digest-unchecked", "ingest.py",
           "    chunks = artifacts.read_chunks(path, _CHUNK)",
           '    chunks = iter(partial(open(path, "rb").read, _CHUNK), b"")',
           (_CORRUPT + "[bad_cell_deep]", _CORRUPT + "[block_signed]",
            _CORRUPT + "[graph-token_value_times_7]", _CORRUPT + "[token_value_times_7]",
            _CORRUPT + "[stats-token_value_times_7]", _CORRUPT + "[external_row_value]",
            _CORRUPT + "[eligibility-token_row_out_of_order]")),
    Mutant("partial-inputs-allowed", "config.py",
           "        if 0 < len(unset) < len(RAW_INPUTS):",
           "        if False:",
           (_CLI + "test_partly_configured_inputs_exit_1",)),
    Mutant("population-is-the-recent", "eligibility.py",
           '        "population": len(verdicts),',
           '        "population": sum(1 for v in verdicts if v.reasons[1].passed),',
           (_PROC + "test_one_history_rescreened_under_every_preset",)),
    # The one CSV writer.
    Mutant("csv-quoting-check-removed", "artifacts.py",
           '        if (width < 2 or text.count(",") != (width - 1) * len(batch)\n'
           '                or text.count("\\n") != len(batch) or \'"\' in text or "\\0" in text):',
           "        if width < 2:",
           (_ART + "test_write_csv_writes_csv_writers_bytes",
            _ART + "test_write_csv_without_quoting_refuses_a_cell_to_quote[,]",
            _INGEST + "test_events_csv_bytes_are_csv_writers",
            _INGEST + "test_read_store_of_a_text_holding_a_newline_is_the_store[tx_hash]")),
    Mutant("csv-carriage-return-written", "artifacts.py",
           '        if "\\r" in text:\n            raise ValueError(',
           '        if False:\n            raise ValueError(',
           (_ART + "test_write_csv_writes_csv_writers_bytes",
            _INGEST + "test_a_contract_name_holding_a_carriage_return_is_malformed")),
    Mutant("csv-digest-of-other-bytes", "artifacts.py",
           "            digest.update(data)\n",
           "            digest.update(data[1:])\n",
           (_ART + "test_write_csv_writes_csv_writers_bytes",
            _ART + "test_every_writer_records_the_sha256_of_the_bytes_on_disk",
            _INGEST + "test_events_csv_bytes_are_csv_writers",
            _INGEST + "test_read_store_of_written_store_is_the_store")),
    # One trust rule: each stage records what it wrote in its run.json.
    Mutant("failed-stage-records", "artifacts.py",
           "        _outputs.reset(token)\n    write_json(",
           "        _outputs.reset(token)\n        write_json(",
           (_ART + "test_a_recording_that_raises_writes_no_record",
            _CLI + "test_a_stage_that_fails_records_nothing")),
    Mutant("stale-entry-kept", "artifacts.py",
           "    outputs: dict[Path, str] = {}",
           "    record = stage_dir / RECORD\n"
           "    outputs = {stage_dir / name: entry[\"sha256\"] for name, entry in (\n"
           "        json.loads(record.read_text())[\"outputs\"].items() if record.is_file() else ())}",
           (_CLI + "test_rerun_under_a_new_config_leaves_what_a_fresh_run_writes",
            _CLI + "test_graph_rerun_in_another_format_leaves_what_a_fresh_run_writes[graphml-dot]",
            _CLI + "test_graph_rerun_in_another_format_leaves_what_a_fresh_run_writes[dot-graphml]")),
    # Events as columns (597be9d); its mixed-chunk mask is a row above.
    Mutant("split-one-kind-shortcut-always", "ingest.py",
           "                if len(present) == 1:",
           "                if len(present) >= 1:",
           (_PROC + "test_read_store_columns_for_every_kind_set_are_the_row_loops",
            _INGEST + "test_store_split_loads_what_the_row_loop_reads")),
    Mutant("store-window-drops-its-last-second", "ingest.py",
           "            hi = bisect_right(timestamps, bounds[1], lo)\n            if hi - lo",
           "            hi = bisect_left(timestamps, bounds[1], lo)\n            if hi - lo",
           (_INGEST + "test_store_split_loads_what_the_row_loop_reads",)),
    Mutant("claims-fields-swapped", "ingest.py",
           "    addresses, tiers, amounts, timestamps = (cells[i:-1:4] for i in range(4))",
           "    addresses, tiers, timestamps, amounts = (cells[i:-1:4] for i in range(4))",
           (_INGEST + "test_read_records_splits_the_claims_parse_claims_reads",)),
    Mutant("record-repeats-uncounted", "ingest.py",
           "    report.deduplicated += repeats",
           "    report.deduplicated += 0",
           (_INGEST + "test_an_exact_repeat_of_a_contract_or_claim_is_dropped_and_counted",
            _CLI + "test_row_order_and_repeated_rows_of_the_exports_change_no_result")),
    Mutant("columns-grouped-by-the-wrong-kind", "ingest.py",
           "else list(compress(events, map(eq, kinds, repeat(kind)))) if n else [])",
           "else list(compress(events, map(eq, kinds, repeat(kinds[0])))) if n else [])",
           (_INGEST + "test_read_store_of_written_store_is_the_store",
            _INGEST + "test_build_event_store_keeps_the_first_of_each_key_in_the_window")),
    Mutant("slice-islice-short-by-one", "graphs.py",
           "_add_events(graph, islice(events, upto - done), store.claims",
           "_add_events(graph, islice(events, max(upto - done - 1, 0)), store.claims",
           (_GRAPHS + "test_slices_equal_from_scratch_builds",)),
    Mutant("top-contracts-on-one-kind", "stats.py",
           "    for columns in store.columns.values():\n        for sender, receiver in",
           "    for columns in list(store.columns.values())[:1]:\n        for sender, receiver in",
           ("tests/test_stats.py::TestTopContracts::test_interactions_of_every_kind_count",)),
    Mutant("stats-period-on-one-kind", "cli.py",
           "    loaded = [c.timestamps for c in store.columns.values() if c.timestamps]",
           "    loaded = [c.timestamps for c in store.columns.values() if c.timestamps][:1]",
           (_CLI + "test_stats_without_a_window_spans_the_events_of_every_kind",)),
    # One insertion loop per source and one split per chunk (70ab719).
    Mutant("edge-first-timestamp-not-widened", "graphs.py",
           "            if ts < stats.first_ts:\n                stats.first_ts = ts",
           "            if False:\n                stats.first_ts = ts",
           (_GRAPHS + "test_insertion_loop_equals_the_event_by_event_build",)),
    Mutant("node-contract-before-claimant", "graphs.py",
           "            nodes[u] = initial if u in claims else contract if u in contracts else default",
           "            nodes[u] = contract if u in contracts else initial if u in claims else default",
           (_GRAPHS + "test_insertion_loop_equals_the_event_by_event_build",)),
    Mutant("added-mutual-pair-uncounted", "graphs.py",
           "                mutual += 2\n            edges[u, v] = EdgeStats(value, 1, ts, ts)",
           "                mutual += 0\n            edges[u, v] = EdgeStats(value, 1, ts, ts)",
           (_GRAPHS + "test_insertion_loop_equals_the_event_by_event_build",)),
    Mutant("stored-mutual-pair-uncounted", "graphs.py",
           "            mutual += 2\n        edges[u, v] = EdgeStats(total, tx_count, first_ts, last_ts)",
           "            mutual += 0\n        edges[u, v] = EdgeStats(total, tx_count, first_ts, last_ts)",
           (_GRAPHS + "test_insertion_loop_equals_the_event_by_event_build",)),
    Mutant("stored-edge-twice-accepted", "graphs.py",
           "    if len(edges) != len(rows):\n        raise ValueError",
           "    if False:\n        raise ValueError",
           (_GRAPHS + "test_graph_from_json_refuses_what_is_not_a_graph[repeated_edge]",)),
    Mutant("split-self-transfer-line-off-by-one", "ingest.py",
           "next(compress(count(rows), map(eq, sender, receiver)), None)",
           "next(compress(count(rows + 1), map(eq, sender, receiver)), None)",
           (_INGEST + "test_store_split_loads_what_the_row_loop_reads",
            _CLI + "test_self_transfers_ingested_then_disallowed_fail")),
    Mutant("split-index-error-escapes", "ingest.py",
           "    except (ValueError, IndexError):  # UnicodeDecodeError is a ValueError\n"
           "        for _ in chunks:",
           "    except ValueError:  # UnicodeDecodeError is a ValueError\n"
           "        for _ in chunks:",
           (_CORRUPT + "[empty_kind_cell]", _CORRUPT + "[stats-empty_kind_cell]")),
    Mutant("detect-reads-the-records-twice", "cli.py",
           "(kind,),\n                                     records)",
           "(kind,))",
           (_CLI + "test_internal_event_makes_a_sunflower_center_a_contract_user[internal_contact]",)),
    # One pass per re-screened member (2265d4c).
    Mutant("feature-vector-cache-bypassed", "flows.py",
           "    return _vector(op_set(flow))",
           "    return _vector.__wrapped__(op_set(flow))",
           ("tests/test_flows.py::TestFeatures::test_members_with_one_op_set_share_one_checked_vector",)),
    Mutant("clique-sizes-walk-the-events-again", "eligibility.py",
           "    for clique in _maximal_cliques(history.index.adjacency):",
           "    list(zip(*history.events))\n    for clique in _maximal_cliques(history.index.adjacency):",
           ("tests/test_eligibility.py::test_campaign_walks_the_history_once"
            "[threshold_differential]",)),
]


def _copy(dest: Path) -> Path:
    """A copy of the repository's working tree at `dest`, without git's
    files or anything a run left behind."""
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "BENCH_*.json"))
    return dest


def _failed(tree: Path, tests: list[str]) -> dict[str, bool]:
    """Run `tests` with pytest in `tree`, importing its src/; whether each
    test that ran failed. A test that did not run is left out."""
    report = tree / "junit.xml"
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    f"--junitxml={report}", *tests],
                   cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not report.exists():
        return {}
    ran = {}
    for case in ET.parse(report).iter("testcase"):
        # the classname is the module's dotted path, then any test class
        parts = case.get("classname").split(".")
        cut = next(i for i in range(len(parts), 0, -1)
                   if (tree / Path(*parts[:i])).with_suffix(".py").is_file())
        node = "::".join(["/".join(parts[:cut]) + ".py", *parts[cut:], case.get("name")])
        ran[node] = any(child.tag in ("failure", "error") for child in case)
    report.unlink()
    return ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", choices=[m.name for m in MUTANTS],
                        help="run these mutants alone")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = _copy(Path(tmp) / "repo")
        tests = sorted({t for m in mutants for t in m.tests})
        unmodified = _failed(tree, tests)
        for test in tests:
            if unmodified.get(test, True):
                print(f"{test}: {'fails' if test in unmodified else 'did not run'} unmodified")
                bad += 1
        if bad:
            return 1
        for mutant in mutants:
            path = tree / PACKAGE / mutant.module
            source = path.read_text(encoding="utf-8")
            if source.count(mutant.fragment) != 1:
                print(f"{mutant.name}: the fragment occurs {source.count(mutant.fragment)} "
                      f"times in {mutant.module}")
                bad += 1
                continue
            path.write_text(source.replace(mutant.fragment, mutant.replacement), encoding="utf-8")
            try:
                ran = _failed(tree, list(mutant.tests))
            finally:
                path.write_text(source, encoding="utf-8")
            survivors = [t for t in mutant.tests if not ran.get(t)]
            print(f"{mutant.name}: " + (f"survived {survivors}" if survivors else "caught"))
            bad += bool(survivors)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
