"""Spans around the program's public functions, installed from outside it.

`Tracer.install` replaces each function named in `TRACED` by a wrapper in
every `airdrop_forensics` module namespace that binds it, so calls through
`from ... import` names (synth binds `run_detectors` and the graph builders
that way) are traced as well as calls through the defining module. Spans
stay in memory as `[name, start, end, parent]` rows; `layer_metrics` turns
the rows of one repetition into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "airdrop_forensics"
STAGES = ("ingest", "graph", "cluster", "detect", "eligibility", "stats", "report")
DETECTORS = (
    "detect_chain", "detect_sunflower", "detect_sponsorship", "detect_cautious", "detect_blatant",
)


def _count_rows(t, args, result):
    events, errors = result
    t.counters["ingest.rows_parsed"] += len(events) + len(errors)


def _store_size(t, args, result):
    t.gauges["ingest.events_stored"] = len(result.events)


def _token_edges(t, args, result):
    t.gauges["graphs.token_graph_edges"] = result.n_edges


def _slices(t, args, result):
    t.counters["graphs.slices"] += len(result)
    t.counters["graphs.slice_edges"] += sum(s.graph.n_edges for s in result)


def _points(t, args, result):
    features = args[0]
    t.gauges["clustering.points"] = len(features)
    t.gauges["clustering.distinct_patterns"] = len({f.bits for f in features})


def _components(t, args, result):
    t.counters["forensics.components"] += len(result)


def _findings(t, args, result):
    t.counters["forensics.detector_calls"] += 1
    if isinstance(result, list):
        t.counters["forensics.findings"] += len(result)
    elif result is not None:
        t.counters["forensics.findings"] += 1


def _population(t, args, result):
    t.gauges["eligibility.population"] = len(result.verdicts)


# (module, function, observer). An observer reads a call's arguments and
# result after its span has closed, so the counting is not part of the span;
# it is called with the Tracer, the positional arguments and the result.
TRACED = [
    ("ingest", "parse_transfers", _count_rows),
    ("ingest", "parse_claims", None),
    ("ingest", "build_event_store", _store_size),
    ("ingest", "write_transfers_csv", None),
    ("graphs", "build_token_graph", _token_edges),
    ("graphs", "build_external_graph", None),
    ("graphs", "weekly_slices", _slices),
    ("graphs", "metric_series", None),
    ("graphs", "write_graph_json", None),
    ("graphs", "write_graph", None),
    ("graphs", "load_graph_json", None),
    ("flows", "build_flows", None),
    ("clustering", "ahc", _points),
    ("clustering", "cut", None),
    ("clustering", "silhouette_score", None),
    ("forensics", "p2p_components", _components),
    *[("forensics", name, _findings) for name in DETECTORS],
    ("eligibility", "run_campaign", _population),
    ("stats", "build_timelines", None),
    ("stats", "kde", None),
    ("synth", "generate", None),
    ("synth", "validate_scenario", None),
]

# Per-layer metrics: (name, unit, better). `layer_metrics` fills every one.
# What each layer should move, written down before measuring:
# - ingest.parse_transfers + build_event_store and parse_per_stored (6 on
#   pipeline, 4 on rescreen, 1 on slices-daily, as every downstream stage
#   re-parses events.csv): wall_s on rescreen and pipeline, flat on
#   slices-daily.
# - graphs.weekly_slices + metric_series and rebuild_ratio: wall_s and
#   peak_rss_mb on slices-daily, cli.graph.wall_s on pipeline; not run on
#   rescreen.
# - clustering.cut and ahc.calls: wall_s on rescreen and pipeline.
# - forensics.p2p_components: wall_s on rescreen and pipeline, and setup_s
#   everywhere, because synth validation runs the detectors.
# - flows.build_flows.calls, eligibility.* and stats.*: wall_s on pipeline
#   and rescreen.
# - synth.*: setup_s only.
PER_LAYER = [
    *[(f"cli.{stage}.wall_s", "s", "lower") for stage in STAGES],
    ("cli.self_s", "s", "lower"),
    ("ingest.parse_transfers.self_s", "s", "lower"),
    ("ingest.parse_transfers.calls", "count", "lower"),
    ("ingest.build_event_store.self_s", "s", "lower"),
    ("ingest.parse_claims.self_s", "s", "lower"),
    ("ingest.write_transfers_csv.self_s", "s", "lower"),
    ("ingest.rows_parsed", "count", "lower"),
    ("ingest.events_stored", "count", "higher"),
    ("ingest.parse_per_stored", "ratio", "lower"),
    ("graphs.build_token_graph.self_s", "s", "lower"),
    ("graphs.build_external_graph.self_s", "s", "lower"),
    ("graphs.weekly_slices.self_s", "s", "lower"),
    ("graphs.metric_series.self_s", "s", "lower"),
    ("graphs.write_graph_json.self_s", "s", "lower"),
    ("graphs.write_graph.self_s", "s", "lower"),
    ("graphs.load_graph_json.self_s", "s", "lower"),
    ("graphs.slices", "count", "lower"),
    ("graphs.slice_edges", "count", "lower"),
    ("graphs.rebuild_ratio", "ratio", "lower"),
    ("flows.build_flows.self_s", "s", "lower"),
    ("flows.build_flows.calls", "count", "lower"),
    ("clustering.ahc.calls", "count", "lower"),
    ("clustering.ahc.self_s", "s", "lower"),
    ("clustering.cut.self_s", "s", "lower"),
    ("clustering.cut.calls", "count", "lower"),
    ("clustering.silhouette_score.self_s", "s", "lower"),
    ("clustering.points", "count", "higher"),
    ("clustering.distinct_patterns", "count", "lower"),
    ("forensics.p2p_components.self_s", "s", "lower"),
    ("forensics.components", "count", "higher"),
    ("forensics.detectors.self_s", "s", "lower"),
    ("forensics.detector_calls", "count", "lower"),
    ("forensics.findings", "count", "higher"),
    ("forensics.hit_ratio", "ratio", "higher"),
    ("eligibility.run_campaign.self_s", "s", "lower"),
    ("eligibility.population", "count", "higher"),
    ("stats.build_timelines.self_s", "s", "lower"),
    ("stats.kde.self_s", "s", "lower"),
    ("stats.kde.calls", "count", "lower"),
    ("synth.generate.self_s", "s", "lower"),
    ("synth.validate_scenario.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Records nested spans and counts for one repetition at a time."""

    def __init__(self):
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.gauges: dict = {}

    def take(self) -> dict:
        """Return what was recorded since the last call and start afresh."""
        record = {"spans": self.spans, "counters": dict(self.counters), "gauges": self.gauges}
        self.spans, self.counters, self.gauges = [], Counter(), {}
        return record

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Substitute every traced function in every package namespace."""
        namespaces = [
            module for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module_name, attr, observe in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            traced = self.wrap(f"{module_name}.{attr}", original, observe)
            for namespace in namespaces:
                for key in [k for k, v in vars(namespace).items() if v is original]:
                    setattr(namespace, key, traced)


def self_times(spans: list[list], scales: list[float]) -> tuple[dict[str, float], Counter]:
    """Per span name: summed duration not covered by child spans, and calls.

    Each duration is multiplied by the scale of its top-level span (the
    stage it ran in), in the order the top-level spans started.
    """
    covered = [0.0] * len(spans)
    top = [0] * len(spans)
    n_top = 0
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            # A probe span can start just after its parent ended: clip to it.
            _, p_start, p_end, _ = spans[parent]
            covered[parent] += max(min(end, p_end) - max(start, p_start), 0.0)
            top[i] = top[parent]
        else:
            top[i] = n_top
            n_top += 1
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += ((end - start) - covered[i]) * scales[top[i]]
        calls[name] += 1
    return self_s, calls


def layer_metrics(rep: dict, scales: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (0 for layers it did not
    run); `scales` holds one time factor per stage."""
    record = rep["trace"]
    self_s, calls = self_times(record["spans"], scales)
    counts = Counter(record["counters"])
    gauges = record["gauges"]
    stage_wall = defaultdict(float)
    for stage, scale in zip(rep["stages"], scales):
        stage_wall[stage["stage"]] += stage["seconds"] * scale

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"cli.{stage}.wall_s": stage_wall[stage] for stage in STAGES}
    out["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s") and not name.startswith(("cli.", "forensics.detectors")):
            out[name] = self_s[name[: -len(".self_s")]]
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
    out["forensics.detectors.self_s"] = sum(self_s[f"forensics.{d}"] for d in DETECTORS)
    for name in ("ingest.rows_parsed", "graphs.slices", "graphs.slice_edges",
                 "forensics.components", "forensics.detector_calls", "forensics.findings"):
        out[name] = counts[name]
    for name in ("ingest.events_stored", "clustering.points", "clustering.distinct_patterns",
                 "eligibility.population"):
        out[name] = gauges.get(name, 0)
    out["ingest.parse_per_stored"] = ratio(out["ingest.rows_parsed"], out["ingest.events_stored"])
    out["graphs.rebuild_ratio"] = ratio(
        out["graphs.slice_edges"], gauges.get("graphs.token_graph_edges", 0)
    )
    out["forensics.hit_ratio"] = ratio(out["forensics.findings"], out["forensics.detector_calls"])
    return out


def median_metrics(reps: list[dict], scales: list[list[float]]) -> dict[str, float]:
    """Median over repetitions of each per-layer metric."""
    per_rep = [layer_metrics(rep, s) for rep, s in zip(reps, scales)]
    return {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
