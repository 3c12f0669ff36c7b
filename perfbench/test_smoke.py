"""Smoke check of the benchmark harness on the default 400-claimant corpus.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_on_default_corpus(name, trace):
    sys.path.insert(0, str(run.SRC))
    w = dataclasses.replace(run.WORKLOADS[name], population=400)
    result = run.run_workload(w, seed=7, seconds=0, trace=trace)

    assert result["correct"]
    assert result["attempted"] == run.MIN_REPS * len(w.measured)
    assert 0 <= result["failed"] <= result["attempted"]
    names = [m[0] for m in (tracer.PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    saved = json.loads(
        (run.WORK / "results" / f"{name}-n400-seed7-trace{int(trace)}.json").read_text()
    )
    assert all(f["reason"] for _, f in saved["failures"])
    assert saved["shape"]["claimants"] > 0 and saved["digests"]


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
