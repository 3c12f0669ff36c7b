import dataclasses
import hashlib
import json

import pytest

from airdrop_forensics.clustering import ClusterAssignment, RoleLabel, select_k
from airdrop_forensics.config import PatternSpec
from airdrop_forensics.flows import build_flows, extract_features
from airdrop_forensics.forensics import PatternFinding, PatternKind, run_detectors
from airdrop_forensics.graphs import (
    build_external_graph,
    build_token_graph,
    metric_series,
    weekly_slices,
)
from airdrop_forensics.synth import (
    GroundTruth,
    InfeasibleSpecError,
    PlantedPattern,
    ScenarioSpec,
    generate,
    population_from_shares,
    score_findings,
    validate_scenario,
)

from conftest import from_ops
from oracles import cluster_purity
from airdrop_forensics.ingest import Tier
from scenarios import (
    airdrop_star_churn,
    attrition_scenario,
    detector_benchmark_spec,
    eligibility_draw,
    pattern_membership,
    tier_quota_draw,
)


def test_population_from_shares_sums_and_is_deterministic():
    counts = population_from_shares(5000)
    assert sum(counts.values()) == 5000
    assert counts == population_from_shares(5000)
    # largest remainder: every count within one of its exact share
    from airdrop_forensics.synth import TABLE_SHARES

    for name, pct in TABLE_SHARES.items():
        assert abs(counts[name] - 5000 * pct / 100.0) < 1.0


def test_same_seed_same_bytes(tmp_path):
    spec = ScenarioSpec(
        seed=99,
        population=population_from_shares(120),
        patterns=[PatternSpec(PatternKind.CHAIN, 2), PatternSpec(PatternKind.SUNFLOWER, 1)],
    )
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate(spec).write(a_dir)
    generate(spec).write(b_dir)
    for name in ("token_transfers.csv", "external_txs.csv", "contracts.csv",
                 "claims.csv", "ground_truth.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name


def test_different_seeds_differ(tmp_path):
    base = dict(population=population_from_shares(60))
    a = generate(ScenarioSpec(seed=1, **base))
    b = generate(ScenarioSpec(seed=2, **base))
    assert a.claims != b.claims


def test_planted_signature_fidelity():
    scenario = generate(
        ScenarioSpec(
            seed=55,
            population=population_from_shares(250),
            patterns=[
                PatternSpec(PatternKind.CHAIN, 2),
                PatternSpec(PatternKind.SUNFLOWER, 1),
                PatternSpec(PatternKind.SPONSORSHIP_CLIQUE, 1),
            ],
        )
    )
    store = scenario.build_store()
    flows = build_flows(store, sorted(scenario.truth.ops_of))
    for address, ops in scenario.truth.ops_of.items():
        features = extract_features(flows[address])
        assert features == from_ops(ops), address


def test_speculator_only_population_recovers_one_cluster():
    scenario = generate(ScenarioSpec(seed=31, population={"selling": 100}))
    store = scenario.build_store()
    flows = build_flows(store, sorted(store.claims))
    feats = {a: extract_features(f) for a, f in flows.items()}
    addresses = sorted(feats)
    assignment = select_k([feats[a] for a in addresses], addresses=addresses)
    assert assignment.k == 1
    assert set(scenario.truth.role_of[a] for a in addresses) == {
        RoleLabel.SPECULATOR.value
    }


def test_single_sunflower_detector_round_trip():
    scenario = generate(
        ScenarioSpec(seed=77, population=population_from_shares(80),
                     patterns=[PatternSpec(PatternKind.SUNFLOWER, 1, 8)])
    )
    store = scenario.build_store()
    result = run_detectors(build_token_graph(store), build_external_graph(store),
                           store.claims, store.contracts)
    sunflowers = [f for f in result.findings if f.pattern == PatternKind.SUNFLOWER]
    assert len(sunflowers) == 1
    assert sum(1 for r in sunflowers[0].members.values() if r == "source") == 8


def test_validation_sweep_scores_every_kind():
    scenario = generate(detector_benchmark_spec(seed=13, instances_per_pattern=2,
                                                distractors=200))
    for kind, score in validate_scenario(scenario).items():
        assert score.precision == 1.0 and score.recall == 1.0, kind


def test_infeasible_specs_rejected():
    with pytest.raises(InfeasibleSpecError):
        generate(ScenarioSpec(seed=1, patterns=[PatternSpec(PatternKind.BLATANT_CLIQUE, 1, 6)]))
    with pytest.raises(InfeasibleSpecError):
        generate(ScenarioSpec(seed=1, patterns=[PatternSpec(PatternKind.SUNFLOWER, 1, 12)]))
    with pytest.raises(InfeasibleSpecError):
        generate(ScenarioSpec(seed=1, population={"figment": 3}))


class TestOracleCompare:
    def fake_finding(self, inst, kind=None):
        return PatternFinding(
            1, kind or inst.kind, dict(inst.members), ["planted"], 0
        )

    def make_truth(self, n=10):
        truth = GroundTruth()
        for i in range(n):
            members = {f"m{i}_{j}": "source" for j in range(4)}
            truth.pattern_instances.append(
                PlantedPattern(PatternKind.CHAIN, i, members, None)
            )
        return truth

    def test_perfect_detection(self):
        truth = self.make_truth()
        findings = [self.fake_finding(i) for i in truth.pattern_instances]
        score = score_findings(truth, findings)["chain"]
        assert score.precision == 1.0 and score.recall == 1.0

    def test_no_findings_zero_recall(self):
        score = score_findings(self.make_truth(), [])["chain"]
        assert score.recall == 0.0 and score.precision == 1.0

    def test_nine_found_one_false(self):
        truth = self.make_truth(10)
        findings = [self.fake_finding(i) for i in truth.pattern_instances[:9]]
        findings.append(
            PatternFinding(99, PatternKind.CHAIN, {"zz1": "source", "zz2": "sink"},
                           ["bogus"], 0)
        )
        score = score_findings(truth, findings)["chain"]
        assert score.precision == 0.9 and score.recall == 0.9

    def test_purity_of_mixed_cluster(self):
        truth = GroundTruth()
        truth.signature_of = {"a": "selling", "b": "selling", "c": "staking", "d": "staking"}
        assignment = ClusterAssignment({"a": 1, "b": 1, "c": 1, "d": 2}, 2, {})
        assert cluster_purity(truth, assignment) == (0.75, {1: 2 / 3, 2: 1.0})


def test_star_churn_reciprocity_strictly_increases():
    scenario = airdrop_star_churn(seed=17, claimants=40, weeks=8)
    store = scenario.build_store()
    slices = weekly_slices(
        store, start=scenario.airdrop_ts - 86400 * 2,
        end=scenario.airdrop_ts - 86400 * 2 + 8 * 7 * 86400,
    )
    series = metric_series(slices)
    values = [v for v in series.reciprocity if v is not None]
    assert len(values) >= 8
    assert all(b > a for a, b in zip(values, values[1:]))


def test_ground_truth_round_trips_to_json():
    scenario = generate(
        ScenarioSpec(seed=3, population={"selling": 5},
                     patterns=[PatternSpec(PatternKind.BLATANT_CLIQUE, 1, 5)])
    )
    payload = scenario.truth.to_json()
    assert payload["pattern_instances"][0]["kind"] == "blatant_clique"
    membership = pattern_membership(scenario.truth)
    sink = payload["pattern_instances"][0]["sink"]
    assert ("blatant_clique", 1, "sink") in membership[sink]


def _digest(*parts) -> str:
    def plain(o):
        return sorted(o) if isinstance(o, frozenset) else dataclasses.astuple(o)

    return hashlib.sha256(json.dumps(parts, default=plain).encode()).hexdigest()


def _scenario_digest(scenario) -> str:
    return _digest(scenario.token_events, scenario.external_events, scenario.claims,
                   scenario.truth.to_json())


def _history_digest(drawn) -> str:
    events, balances, _, population, meta = drawn
    return _digest(events, balances, population, meta)


def _benchmark_draw():
    return generate(detector_benchmark_spec(seed=13, instances_per_pattern=2, distractors=200),
                    validate=False)


# Digests of each builder's output as drawn when the builders lived in
# synth.py: an RNG call added, dropped or reordered changes them.
BUILDER_DIGESTS = {
    "detector_benchmark_spec": (
        lambda: _scenario_digest(_benchmark_draw()),
        "ae588b6ac68135717ab73c6f9ee5eb0ff440be100544f3b683df7470c1668c20",
    ),
    "pattern_membership": (
        lambda: _digest(sorted(pattern_membership(_benchmark_draw().truth).items())),
        "5b69db2062b80a3bcb1c8e5dffc67e055cd1601c055cc22fcf393ba7f9d9c610",
    ),
    "airdrop_star_churn": (
        lambda: _scenario_digest(airdrop_star_churn(seed=17, claimants=40, weeks=8)),
        "9b9be40da13c9ae8cda80fee34ebca118eaf537511e384ba3f432e9e02a92b2a",
    ),
    "attrition_scenario": (
        lambda: _scenario_digest(attrition_scenario(
            seed=33,
            bases={Tier.T5200: 40, Tier.T7800: 30, Tier.T10400: 20},
            departures={Tier.T5200: 10, Tier.T7800: 20, Tier.T10400: 5},
        )),
        "697af5df71d9f5a9958215f3f418341529ac33429e69313e0ffe311e8c256ef9",
    ),
    "eligibility_scenario": (
        lambda: _history_digest(eligibility_draw(seed=5)),
        "e7e61d40784e0f514d9a77385954ff05454f7e281a071e024eb8d5eafaa3ace9",
    ),
    "tier_quota_history": (
        lambda: _history_digest(tier_quota_draw(seed=9, quotas=(30, 20, 10))),
        "e2d49e2c6ec36bbe3c753853c7dc8c04d33a269178cf95e8570a3d5bec3a016f",
    ),
}


@pytest.mark.parametrize("builder", sorted(BUILDER_DIGESTS))
def test_scenario_builder_draws_as_pinned(builder):
    draw, want = BUILDER_DIGESTS[builder]
    assert draw() == want
