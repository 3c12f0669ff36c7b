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
           "    payload = artifacts.read(path)\n    try:\n        return graph_from_json(payload)\n"
           "    except (KeyError, TypeError, ValueError) as exc:",
           "    with open(path) as fh:\n        payload = json.load(fh)\n    try:\n"
           "        return graph_from_json(payload)\n    except (TypeError, ValueError) as exc:",
           (_EXIT + "test_damaged_upstream_artifact_never_exits_2[graph/token_graph.json-deleted]",
            _EXIT + "test_wrong_shaped_graph_json_exits_1[empty_object-token_graph]")),
    Mutant("attrition-shape-unchecked", "artifacts.py",
           '    "stats/attrition.json": {"left_pct": float},',
           '    "stats/attrition.json": dict,',
           (_EXIT + 'test_wrong_shaped_report_input_exits_1[stats/attrition.json-{"left_pct": "12%"}]',)),
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
           (_CLI + "test_artifacts_are_utf8_whatever_the_locale",)),
    Mutant("store-digest-unchecked", "ingest.py",
           "    if split is None or split[2] != recorded[path.name]:",
           "    if split is None:",
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
        node = case.get("classname").replace(".", "/") + ".py::" + case.get("name")
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
