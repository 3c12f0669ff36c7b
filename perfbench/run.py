"""Benchmark of the staged airdrop-forensics pipeline, end to end and per layer.

    python3 perfbench/run.py --workload pipeline --seed 7 --seconds 10 --trace 0

Run from any directory of a checkout that holds `src/airdrop_forensics`.
Each workload makes a synthetic corpus with the program's own `synth`
stage from `--seed` (set-up, repeated and timed as `setup_s`), then runs
its measured stages in-process through `cli.main`, once per repetition in
a fresh worker process, until `--seconds` of stage time have been measured
and at least MIN_REPS repetitions have run. Every repetition's artifacts
are checked (see `check_rep`). `--trace 1` alternates untraced repetitions
with traced ones and reports the per-layer metrics instead of the
end-to-end ones. `--workload all` runs every workload in turn.

`wall_s` is the sum of the measured stages' `cli.main` times and
`setup_s` that of the set-up stages, both in quiet-host seconds (see
PROBE_QUIET_S), without the probes' own time; the seconds as timed are
printed beside them.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. One op is one stage invocation; it
fails when the stage exits non-zero or its artifacts fail a check.
`correct` is false only when a stage that exited 0 left wrong artifacts.
Everything else goes to `.bench_work/` at the root of the checkout:
`results/<workload>-n<claimants>-seed<seed>-trace<t>.json` keeps every artifact's
sha256, the corpus shape, per-repetition stage times and the failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402

SETUP_REPS = 3
MIN_REPS = 2
# One workload must end within 180 s, whatever its workers do.
WORKLOAD_DEADLINE_S = 170
# Seconds worker.probe takes on the 2-vCPU host this benchmark was tuned on
# when that host is quiet (the 10th percentile of 300 probes). Every time is
# reported at that speed: each stage's seconds times PROBE_QUIET_S over the
# mean of the probes run just before it, every SAMPLE_EVERY_S during it and
# just after it. Other tenants slowed that host by up to half for seconds to
# minutes at a time; as timed, wall_s of five seeds spread by 0.17 to 0.32
# of its median, and scaled this way by 0.03 to 0.05.
PROBE_QUIET_S = 0.0085

# Every workload uses the default synth patterns and this eligibility
# override, the one tests/test_cli.py and the ROADMAP baseline use. Without
# it `eligibility` exits 1 with InsufficientHistoryError: the default 183-day
# recency window reaches back before the study window that synth covers
# (ROADMAP item 0, second defect, still open).
#
# Known failures, recorded and not worked around: on numpy >= 2.0 without
# `np.trapz`, `stats` exits 2 in `DensityEstimate.integral` after all its
# computation, and `report` then exits 2 on the missing kde_periods.json.
# That is 2 of 7 ops per repetition on `pipeline` and 1 of 4 on `rescreen`.
# Fixing ROADMAP item 0 should cut the failed ops to 0 and add only about
# 0.1 s of KDE-integral and report work to `wall_s`.
OVERRIDES = {"eligibility": {"interaction_window_days": 2, "min_tx_count": 5}}


@dataclass(frozen=True)
class Workload:
    name: str
    population: int
    slice_interval_days: int
    setup: tuple[str, ...]
    measured: tuple[str, ...]
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "pipeline", 4000, 7, ("synth",),
        ("ingest", "graph", "cluster", "detect", "eligibility", "stats", "report"),
        "an analyst's first pass: the only workload that parses the raw exports and "
        "writes the canonical store, so every layer works in its real proportion",
    ),
    Workload(
        "slices-daily", 3000, 1, ("synth", "ingest"), ("graph",),
        "150 daily cutoffs: slicing and the metric series do most of the work and set "
        "peak memory; clustering, detection and repeated store reloads are bypassed",
    ),
    Workload(
        "rescreen", 4000, 7, ("synth", "ingest", "graph"),
        ("cluster", "detect", "eligibility", "stats"),
        "the re-run loop: store reloads are most of the work; raw-export parsing, graph "
        "writes and slicing are bypassed, so slower raw ingest shows on pipeline only",
    ),
)}

END_TO_END = [
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The harness could not produce a result."""


def digest_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def stored_check(out: Path) -> str | None:
    stored = _read_json(out / "ingest" / "report.json")["stored"]
    rows = _csv_rows(out / "ingest" / "events.csv")
    return None if stored == rows else f"report.json stored {stored} != {rows} rows in events.csv"


def score_check(out: Path) -> list[str]:
    """Score detect/findings.jsonl against the planted ground truth."""
    from airdrop_forensics import forensics, synth

    truth = synth.GroundTruth(pattern_instances=[
        synth.PlantedPattern(forensics.PatternKind(p["kind"]), p["instance_id"], p["members"], p["sink"])
        for p in _read_json(out / "synth" / "ground_truth.json")["pattern_instances"]
    ])
    findings = []
    with open(out / "detect" / "findings.jsonl") as fh:
        for line in fh:
            f = json.loads(line)
            findings.append(forensics.PatternFinding(
                f["component_id"], forensics.PatternKind(f["pattern"]), f["members"],
                f["evidence"], f["aggregate_value"],
            ))
    return [
        f"{kind}: precision {s.precision:.3f} recall {s.recall:.3f} (tp {s.tp} fp {s.fp} fn {s.fn})"
        for kind, s in synth.score_findings(truth, findings).items()
        if s.precision < 1.0 or s.recall < 1.0
    ]


def check_rep(w: Workload, out: Path, rep: dict, reference: dict | None) -> list[dict]:
    """Failures of one measured repetition, each owned by one stage."""
    failures = []

    def fail(stage, kind, reason):
        failures.append({"stage": stage, "kind": kind, "reason": reason})

    ok = set()
    for result in rep["stages"]:
        if result["rc"] == 0:
            ok.add(result["stage"])
        else:
            fail(result["stage"], "exit", f"exit {result['rc']}: {result['error']}")
    if reference is not None:
        for path in sorted(set(reference) | set(rep["digests"])):
            if reference.get(path) != rep["digests"].get(path):
                # config.resolved.json at the root is last written by the last stage.
                owner = path.split("/")[0]
                fail(owner if owner in w.measured else w.measured[-1], "digest",
                     f"{path} differs from the first repetition")
    if "ingest" in ok:
        reason = stored_check(out)
        if reason:
            fail("ingest", "stored", reason)
    if "detect" in ok:
        for reason in score_check(out):
            fail("detect", "score", reason)
    return failures


def corpus_shape(out: Path) -> dict:
    """Input properties that layer costs depend on, read from the artifacts."""
    from airdrop_forensics import flows, forensics, graphs, ingest

    report = _read_json(out / "ingest" / "report.json")
    token_graph = graphs.load_graph_json(out / "graph" / "token_graph.json")
    events, _ = ingest.parse_transfers(out / "ingest" / "events.csv")
    contracts, _ = ingest.parse_contracts(out / "ingest" / "contracts.csv")
    claims, _ = ingest.parse_claims(out / "ingest" / "claims.csv")
    store = ingest.build_event_store(events, [], contracts, claims, ingest.IngestConfig())
    patterns = {flows.extract_features(f).bits for f in flows.build_flows(store, sorted(store.claims)).values()}
    return {
        "claimants": report["n_claims"],
        "events_stored": report["stored"],
        "token_events": report["token_events"],
        "external_events": report["external_events"],
        "graph_nodes": token_graph.n_nodes,
        "graph_edges": token_graph.n_edges,
        "p2p_components": len(forensics.p2p_components(token_graph)),
        "slices": len(_read_json(out / "graph" / "metric_series.json")),
        "feature_patterns": len(patterns),
    }


def run_worker(work: Path, name: str, config: Path, out: Path, stages, repeat: int,
               fresh: bool, trace: bool, deadline: float) -> dict:
    result = work / f"{name}.json"
    log = work / f"{name}.log"
    # Paths relative to the checkout root keep error reasons the same in every checkout.
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--config", str(config.relative_to(ROOT)),
        "--out", str(out.relative_to(ROOT)),
        "--stages", ",".join(stages), "--repeat", str(repeat), "--fresh", str(int(fresh)),
        "--trace", str(int(trace)), "--result", str(result),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=fh, stderr=fh,
                                  timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {name} ran past the {WORKLOAD_DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"worker {name} exited {proc.returncode}:\n{tail}")
    return _read_json(result)


def describe(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def stage_scales(rep: dict) -> list[float]:
    """Per stage, the factor that turns its seconds into quiet-host seconds:
    PROBE_QUIET_S over the mean of the probes run around and during it."""
    return [PROBE_QUIET_S / statistics.mean(s["probe_s"]) for s in rep["stages"]]


def quiet_seconds(rep: dict) -> float:
    return sum(s["seconds"] * k for s, k in zip(rep["stages"], stage_scales(rep)))


def measure(w: Workload, work: Path, seed: int, seconds: float, trace: bool):
    """Set up `SETUP_REPS` times, then run checked repetitions of the
    measured stages until `seconds` of stage time are measured."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    setup_dir, run_dir = work / "setup", work / "run"
    config = work / "config.json"
    config.write_text(json.dumps({
        **OVERRIDES,
        "output_dir": "out",
        "slice_interval_days": w.slice_interval_days,
        "synth": {"seed": seed, "population_total": w.population},
    }, indent=2, sort_keys=True))
    try:
        setup = run_worker(work, "setup", config, setup_dir, w.setup, SETUP_REPS, True, trace,
                           deadline)
        for rep in setup["reps"]:
            for result in rep["stages"]:
                if result["rc"] != 0:
                    raise BenchError(f"set-up stage {result['stage']} exited "
                                     f"{result['rc']}: {result['error']}")
        if "ingest" in w.setup and (reason := stored_check(setup_dir)):
            raise BenchError(f"set-up ingest: {reason}")

        reps: list[dict] = []
        shape = None
        measured = 0.0
        while len(reps) < MIN_REPS or measured < seconds:
            traced = trace and len(reps) % 2 == 1
            shutil.rmtree(run_dir, ignore_errors=True)
            shutil.copytree(setup_dir, run_dir)
            res = run_worker(work, f"rep{len(reps)}", config, run_dir, w.measured, 1, False,
                             traced, deadline)
            rep = {**res["reps"][0], "peak_rss_mb": res["peak_rss_mb"], "traced": traced,
                   "digests": digest_tree(run_dir)}
            rep["failures"] = check_rep(w, run_dir, rep, reps[0]["digests"] if reps else None)
            if shape is None:
                shape = corpus_shape(run_dir)
            measured += rep["wall_s"]
            reps.append(rep)
    finally:
        shutil.rmtree(setup_dir, ignore_errors=True)
        shutil.rmtree(run_dir, ignore_errors=True)
    return setup["reps"], reps, shape


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure, check and print one workload; returns the result object."""
    label = f"{w.name}-n{w.population}-seed{seed}-trace{int(trace)}"
    work = WORK / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup, reps, shape = measure(w, work, seed, seconds, trace)

    plain = [r for r in reps if not r["traced"]]
    wall = [quiet_seconds(r) for r in plain]
    samples = {
        "wall_s": wall,
        "events_per_s": [shape["events_stored"] / t for t in wall],
        "setup_s": [quiet_seconds(r) for r in setup],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    end_to_end = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
    failures = [(i, f) for i, r in enumerate(reps) for f in r["failures"]]
    attempted = len(reps) * len(w.measured)
    failed = len({(i, f["stage"]) for i, f in failures})
    correct = all(f["kind"] == "exit" for _, f in failures)

    print(f"== {w.name}: seed {seed}, {w.population} claimants, slices every "
          f"{w.slice_interval_days} d, set-up {'+'.join(w.setup)}, measured "
          f"{'+'.join(w.measured)}, {len(reps)} repetitions, trace {int(trace)}")
    print("corpus: " + ", ".join(f"{k} {v}" for k, v in shape.items()))
    tree = hashlib.sha256(json.dumps(reps[0]["digests"], sort_keys=True).encode()).hexdigest()
    print(f"artifacts: {len(reps[0]['digests'])} files, tree sha256 {tree[:16]}, "
          f"{'identical' if not any(f['kind'] == 'digest' for _, f in failures) else 'DIFFERENT'}"
          f" across repetitions")
    print(f"ops: attempted {attempted}, failed {failed}, correct {str(correct).lower()}")
    reasons: dict[str, int] = {}
    for _, f in failures:
        key = f"{f['stage']}: {f['reason']}"
        reasons[key] = reasons.get(key, 0) + 1
    for key, count in reasons.items():
        print(f"  {count}x {key}")
    print(f"times in quiet-host seconds (probe {PROBE_QUIET_S} s); as timed: wall "
          f"{statistics.median(r['wall_s'] for r in plain):.4f} s, set-up "
          f"{statistics.median(r['wall_s'] for r in setup):.4f} s, probe "
          f"{statistics.median(p for r in reps for s in r['stages'] for p in s['probe_s']):.4f} s")
    for name, unit in END_TO_END:
        print(f"{name:<14} {end_to_end[name]:>14.4f} {unit:<4} ({describe(samples[name])})")

    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        metrics = tracer.median_metrics(traced_reps, [stage_scales(r) for r in traced_reps])
        setup_layers = tracer.median_metrics(setup, [stage_scales(r) for r in setup])
        for name in ("synth.generate.self_s", "synth.validate_scenario.self_s"):
            metrics[name] = setup_layers[name]
        metrics["trace.overhead_s"] = (
            statistics.median(quiet_seconds(r) for r in traced_reps) - end_to_end["wall_s"]
        )
        print(f"per layer (median of {len(traced_reps)} traced repetitions; synth.* of "
              f"{len(setup)} set-up repetitions):")
        for name, unit, _ in tracer.PER_LAYER:
            print(f"  {name:<38} {metrics[name]:>14.4f} {unit}")
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u, _ in tracer.PER_LAYER}
    else:
        result_metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END}

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps({
        "workload": w.name, "seed": seed, "population": w.population, "shape": shape,
        "digests": reps[0]["digests"], "samples": samples, "failures": failures,
        "setup": [{k: r[k] for k in ("wall_s", "stages")} for r in setup],
        "reps": [{k: r[k] for k in ("wall_s", "traced", "stages")} for r in reps],
    }, indent=2, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="airdrop-forensics pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "airdrop_forensics" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/airdrop_forensics", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
