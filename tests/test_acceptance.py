"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its measured numbers. Tolerances are pinned here and
nowhere else."""

import hashlib
import json
import math
import random
import time

import pytest

from airdrop_forensics import cli
from airdrop_forensics.clustering import (
    ClusterConfig,
    RoleLabel,
    ahc,
    cluster_shares,
    map_roles,
    role_shares,
    select_k,
)
from airdrop_forensics.config import EligibilityRules
from airdrop_forensics.eligibility import run_campaign
from airdrop_forensics.flows import (
    FeatureVector,
    build_flows,
    extract_features,
    weighted_cosine_distance,
)
from airdrop_forensics.forensics import PatternKind, run_detectors
from airdrop_forensics.graphs import (
    UndefinedOnDegenerateError,
    build_external_graph,
    build_token_graph,
    degree_assortativity,
    metric_series,
    reciprocity,
    weekly_slices,
)
from airdrop_forensics.ingest import Tier
from airdrop_forensics.stats import (
    attrition,
    build_timelines,
    claimed_total_for_counts,
    kde,
)
from airdrop_forensics.synth import (
    ScenarioSpec,
    generate,
    population_from_shares,
    score_findings,
)

from conftest import attracting_components, digraph, from_ops, merge_heights
from oracles import (
    cluster_purity,
    kernel_sum_density,
    naive_ahc_heights,
    oracle_assortativity,
    oracle_attracting,
    oracle_reciprocity,
    random_digraph,
)
from scenarios import (
    airdrop_star_churn,
    attrition_scenario,
    detector_benchmark_spec,
    eligibility_scenario,
)

TOKEN = 10**18


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_metric_oracles():
    """Reciprocity / assortativity / attracting components vs brute force
    on 200 random digraphs (n <= 50); exact except assortativity <= 1e-9;
    under 10 s."""
    rng = random.Random(2024)
    start = time.perf_counter()
    trials = assort_checked = 0
    worst = 0.0
    while trials < 200:
        nodes, edges = random_digraph(rng, max_n=50)
        g = digraph(edges, nodes)
        if edges:
            assert reciprocity(g) == oracle_reciprocity(edges)
        assert attracting_components(g) == oracle_attracting(nodes, edges)
        expected = oracle_assortativity(nodes, edges)
        if expected is None:
            if len(edges) >= 2:
                with pytest.raises(UndefinedOnDegenerateError):
                    degree_assortativity(g)
        else:
            delta = abs(degree_assortativity(g) - expected)
            worst = max(worst, delta)
            assert delta <= 1e-9
            assort_checked += 1
        trials += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert assort_checked >= 100
    report(1, f"200 digraphs, worst assortativity delta {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_weighted_cosine():
    """Eq-1 distance behavior: fixed points exact, the {sell} vs
    {sell,stake} value within 1e-12, and invariance under global weight
    scaling across 100 random weight vectors."""
    sell = from_ops({"sell"})
    sell_stake = from_ops({"sell", "stake"})
    assert weighted_cosine_distance(sell, sell) == 0.0
    assert weighted_cosine_distance(sell, from_ops({"stake"})) == 1.0
    expected = 1.0 - 1.0 / math.sqrt(2.0)
    assert abs(weighted_cosine_distance(sell, sell_stake) - expected) <= 1e-12

    rng = random.Random(4096)
    worst = 0.0
    for _ in range(100):
        weights = tuple(rng.uniform(0.05, 8.0) for _ in range(8))
        scale = rng.uniform(1e-3, 1e3)
        scaled = tuple(scale * w for w in weights)
        bits_a = tuple(rng.randint(0, 1) for _ in range(8))
        bits_b = tuple(rng.randint(0, 1) for _ in range(8))
        a, b = FeatureVector(bits_a), FeatureVector(bits_b)
        base = weighted_cosine_distance(a, b, weights)
        moved = weighted_cosine_distance(a, b, scaled)
        worst = max(worst, abs(base - moved))
        assert abs(base - moved) <= 1e-12
    report(2, f"1 - 1/sqrt(2) matched; worst scaling drift {worst:.2e}")


def test_criterion_3_clustering_recovery():
    """5,000 addresses drawn from the 14 behavior signatures: K=14 at the
    silhouette argmax, purity 1.0, and role shares that are exact sums of
    their cluster shares; under 60 s."""
    start = time.perf_counter()
    scenario = generate(ScenarioSpec(seed=314, population=population_from_shares(5000)))
    store = scenario.build_store()
    flows = build_flows(store, sorted(store.claims))
    features = {a: extract_features(f) for a, f in flows.items()}
    addresses = sorted(features)
    vectors = [features[a] for a in addresses]
    assignment = select_k(vectors, ClusterConfig(), addresses)

    assert assignment.k == 14
    best = max(assignment.silhouette_by_k.values())
    assert assignment.silhouette_by_k[14] == best

    assert cluster_purity(scenario.truth, assignment)[0] == 1.0

    mapping = map_roles(assignment, features)
    assert mapping.unmapped == []
    shares = cluster_shares(assignment)
    roles = role_shares(assignment, mapping)
    speculator_clusters = sorted(
        c for c, r in mapping.cluster_roles.items() if r == RoleLabel.SPECULATOR
    )
    assert len(speculator_clusters) == 2  # {sell} and {sell,send}
    exact_sum = sum(shares[c] for c in speculator_clusters)
    assert roles[RoleLabel.SPECULATOR] == exact_sum  # additivity, +/- 0.0
    assert abs(roles[RoleLabel.SPECULATOR] * 100 - 41.18) < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        3,
        f"K=14, purity 1.0, speculator share {roles[RoleLabel.SPECULATOR] * 100:.2f}% "
        f"= exact cluster sum, {elapsed:.1f}s",
    )


def test_criterion_4_ahc_oracle():
    """Single-linkage merge heights equal an O(n^3) naive recomputation on
    50 random 20-point sets, exactly."""
    rng = random.Random(8192)
    for trial in range(50):
        vectors = [
            FeatureVector(tuple(rng.randint(0, 1) for _ in range(8)))
            for _ in range(20)
        ]
        got = merge_heights(ahc(vectors, ClusterConfig()))
        want = naive_ahc_heights(vectors, "single")
        assert got == want, f"trial {trial}"
    report(4, "50 random 20-point sets, merge heights exactly equal")


def test_criterion_5_arithmetic_identities():
    """Published bookkeeping identities: total claimed from the per-tier
    claim counts, and per-tier attrition from the planted departures,
    within 0.01 percentage points."""
    counts = {Tier.T5200: 4291, Tier.T7800: 6836, Tier.T10400: 2703}
    total = claimed_total_for_counts(counts)
    assert total == 103_745_200 * TOKEN

    bases = {Tier.T5200: 4291, Tier.T7800: 6836, Tier.T10400: 3824}
    departures = {Tier.T5200: 3282, Tier.T7800: 4885, Tier.T10400: 1843}
    scenario = attrition_scenario(seed=271, bases=bases, departures=departures)
    store = scenario.build_store()
    flows = build_flows(store, sorted(store.claims))
    bounds = store.config.window_bounds()
    timelines = build_timelines(flows, bounds[0], bounds[1])
    result = attrition(timelines, store.claims)
    expected = {Tier.T5200: 76.49, Tier.T7800: 71.46, Tier.T10400: 48.20}
    for tier, pct in expected.items():
        assert abs(result.per_tier_pct[tier] * 100 - pct) < 0.01, tier
    assert result.outflow_tokens == claimed_total_for_counts(departures)
    report(
        5,
        "claimed total 103,745,200; attrition "
        + " / ".join(f"{result.per_tier_pct[t] * 100:.2f}%" for t in expected),
    )


def test_criterion_6_detector_ground_truth():
    """20 seeded scenarios, 10 planted instances per pattern over >= 2,000
    distractor addresses: precision and recall >= 0.95 per detector, and
    the 5-node clique passes the eligibility screen while the 6-node one
    is excluded; under 120 s."""
    start = time.perf_counter()
    floor = {kind.value: [1.0, 1.0] for kind in PatternKind}
    for seed in range(20):
        spec = detector_benchmark_spec(seed=9000 + seed, instances_per_pattern=10,
                                       distractors=2000)
        scenario = generate(spec, validate=False)
        store = scenario.build_store()
        result = run_detectors(build_token_graph(store), build_external_graph(store),
                               store.claims, store.contracts)
        for kind, score in score_findings(scenario.truth, result.findings).items():
            floor[kind][0] = min(floor[kind][0], score.precision)
            floor[kind][1] = min(floor[kind][1], score.recall)
    for kind, (precision, recall) in floor.items():
        assert precision >= 0.95, (kind, precision)
        assert recall >= 0.95, (kind, recall)

    history, population, meta = eligibility_scenario(seed=606)
    campaign = run_campaign(population, history, EligibilityRules(), meta["snapshot"])
    verdict_of = {v.address: v for v in campaign.verdicts}
    for a in meta["expectations"]["clique5"]:
        assert verdict_of[a].eligible, "5-clique must slip under the screen"
    for a in meta["expectations"]["clique6"]:
        assert not verdict_of[a].eligible
        assert [c.rule for c in verdict_of[a].reasons if not c.passed] == [
            "clique_exclusion"
        ]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    worst = min(min(v) for v in floor.values())
    report(6, f"20 scenarios, min P/R over all detectors {worst:.2f}, "
              f"5-clique in / 6-clique out, {elapsed:.1f}s")


def test_criterion_7_temporal_monotonicity():
    """Node/edge series are non-decreasing on every corpus tried; the
    star-then-churn scenario yields a strictly rising reciprocity series."""
    for seed in (1, 2, 3):
        scenario = generate(
            ScenarioSpec(seed=seed, population=population_from_shares(200))
        )
        store = scenario.build_store()
        series = metric_series(weekly_slices(store))
        assert series.nodes == sorted(series.nodes)
        assert series.edges == sorted(series.edges)

    churn = airdrop_star_churn(seed=45, claimants=40, weeks=8)
    store = churn.build_store()
    origin = churn.airdrop_ts - 2 * 86400
    slices = weekly_slices(store, start=origin, end=origin + 8 * 7 * 86400)
    series = metric_series(slices)
    values = series.reciprocity
    assert all(v is not None for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert series.nodes == sorted(series.nodes)
    report(7, f"monotone counts on 4 corpora; churn reciprocity "
              f"{values[0]:.3f} -> {values[-1]:.3f} strictly rising")


def test_criterion_8_kde_soundness():
    """Density integrates to 1 +/- 0.02 on its grid and matches a direct
    kernel-sum oracle within 1e-9 at 10 probe points."""
    rng = random.Random(555)
    samples = [rng.gauss(30, 4) for _ in range(80)] + [rng.gauss(90, 9) for _ in range(40)]
    estimate = kde(samples)
    integral = estimate.integral()
    assert 0.98 <= integral <= 1.02
    worst = 0.0
    for i in range(10):
        idx = int(i * (len(estimate.grid) - 1) / 9)
        want = kernel_sum_density(estimate.grid[idx], samples, estimate.bandwidth)
        worst = max(worst, abs(estimate.density[idx] - want))
        assert abs(estimate.density[idx] - want) <= 1e-9
    degenerate = kde([7.0] * 12)
    assert 0.98 <= degenerate.integral() <= 1.02
    report(8, f"integral {integral:.4f}, worst probe delta {worst:.1e}")


# sha256 of every artifact of the criterion 9 pipeline (seed 77, 150
# claimants), config.resolved.json aside because it holds tmp paths. A
# change that alters any artifact byte must update this table on purpose.
# Recorded with Python 3.11.7 and numpy 2.4.6; the KDE floats may differ
# in the last digit on another toolchain.
GOLDEN_ARTIFACTS = {
    "cluster/assignment.csv": "90b5b5e18e5db9c9337f42df5e9e2730f4238aa8de07c2581d021db14754bf26",
    "cluster/dendrogram.json": "a15490ded62365450090dbd6a5d5b77b6bdd1381ff08a0471cd94abc4a7a6e9a",
    "cluster/features.csv": "9ef392285169e36873a675a55c16a52579e55119c7be7caa9b3bafbe32bbeeeb",
    "cluster/silhouette.json": "b66704403a3c80c605e88ad4643868576ab4895077ba5eef54868d9d6b652197",
    "detect/components/component_1.dot": "7a80696bf530396211ef31838048278a1d197c71823d0a6a032d95d8bae1d165",
    "detect/components/component_10.dot": "f8e5ebd15030481e448a70cfa84ce3492c9b81706dca7c7ac71ad5c07387bede",
    "detect/components/component_2.dot": "965f1dc4f2b4777702fc1407c83ca2b49cfcc87134fa74670a44cec7549b90f8",
    "detect/components/component_3.dot": "6ffd2d0d9490d4e3d502cd2c59879ae9ebda8a26ac173cb559112617d4972a78",
    "detect/components/component_4.dot": "9e98bd044fc89d686188d6dd480122ce2ad569aa592dce284ccbd9b7f54febcf",
    "detect/components/component_5.dot": "eed25d2a567d5f6d7799b0567954f75373b266b9dfa3ade1986177f81da6579e",
    "detect/components/component_6.dot": "1571e57280fb676222639e8e1e516a713497bfcc56052ab0b5ec4e200d45e967",
    "detect/components/component_7.dot": "ed4dd37390bdee3826573b7c15ce9ac91f0635005adca6f0bb9112e84aee5fd9",
    "detect/components/component_8.dot": "39c6a1473adbd184be92125ad44ee2910975183ab61e871c5e692adea0d2e36d",
    "detect/components/component_9.dot": "ed05e1e1ee187c474b69de6654602632d1cd967ee7b9a56a993d127699ac24e4",
    "detect/components.csv": "9b0dac02710e5915015eb825833bce9939ded97808b57901c63b23f7b2e93c49",
    "detect/findings.jsonl": "608f819a94b9551b8d4de1e6d926e92732dfccae644df2e49011777ff8a77783",
    "detect/voting_power.json": "9e69c5825c54934d276857ac6d9781e2618b6db40cc9a56807579bd250967497",
    "eligibility/summary.json": "963636bda31b0c7b4407e85fcbb2cea87b97ad4f775ef901249b660ebf3b34f9",
    "eligibility/verdicts.csv": "4fe175863f33f41b88e06ee0e79cf269891ac45e3f07b2240adda73634eaed42",
    "graph/external_graph.graphml": "5ab9aab61b392f646795a7628d6e78f635b92deca81b84b403ad1ff09293814a",
    "graph/external_graph.json": "c29b7d5cd0bac257a6b89fe44dea98917011e0991658d98e1616e5dae8da59e4",
    "graph/metric_series.json": "bc8ee34819a46a294a4a8a82424f017f319bf229f0d2968a4c7a555969abceab",
    "graph/summary.json": "b45b98e5b8773d83f79574657313b7ffd2b450d576a0877e7098dadd497443db",
    "graph/token_graph.graphml": "1fbb602616f74fa1603dc24de293d8e4bbb182557dcf092bb7144ef11a6dd9a6",
    "graph/token_graph.json": "486a243f17885d9f41b50f85a1b105951ea2d214e71768761aeaba6c74560520",
    "ingest/claims.csv": "5c18a4119f66fd938bfe0845970e5f58015c394f547b3f1a1cc73e697c4fc869",
    "ingest/contracts.csv": "744b1a46b035e21447f7d45838944c412a0dad36ad656849596aaa2e39402c5a",
    "ingest/events.csv": "cb9b926e47dff7706cf527b1d2fc90291941bf6b0edf52681692601fdef5f455",
    "ingest/report.json": "d77a500993bb6dbb53d946dfb867be08130a62ac24ebc1b9a322d2f38f3662fe",
    "ingest/run.json": "e4faaa13e8f11b7a39db8c77c5635cbd182a3f9ef9d075994f72d1098a660d16",
    "report/report.json": "19135f93f0dd0848f3875181ad3acb23b33d53a57ff372510c7b052c37191663",
    "report/report.md": "98c43dd16c3972607c8a444a108facb9f39481806b3ca31c1bd008a3a609bcf8",
    "stats/attrition.json": "939501819d3971f95f6c136616180eb40ea8663dca446fba9d892e9239f2ded4",
    "stats/behavior_table.csv": "c9a017957cd61f2187eca013e99d65c4dcf6364b0a4379e941f52633d7561096",
    "stats/behavior_table.json": "0ee6e91e4d4cec94b343193af05c999cdb9781c6c45878d99994dfbf9fb5cc27",
    "stats/kde_periods.json": "7b9a9042196fa640b67ca3160e674d5a8df2dd73d8919cc6a97cca39882b5e31",
    "stats/kde_quantities.json": "3e4c27c3933dd1e4d3a42c24cdff35ed1463e46f13cf0737d64ba9599eb2d5a8",
    "stats/tier_composition.csv": "3e138ca4cf011817567084b549da76cadfb738c76b2c075823c067f0f1fb5604",
    "stats/top_contracts.csv": "5b886ddde4af9fdf9b72583755eac35889afe0e37f10d069b8027f2e3e98b7f2",
    "synth/claims.csv": "5c18a4119f66fd938bfe0845970e5f58015c394f547b3f1a1cc73e697c4fc869",
    "synth/contracts.csv": "744b1a46b035e21447f7d45838944c412a0dad36ad656849596aaa2e39402c5a",
    "synth/external_txs.csv": "7d60d24f404bc2fb12512ba0f7b1583b048f9ee9a34d3c9ef24317d4699d8d45",
    "synth/ground_truth.json": "3d6ac3e6db42c33261b020233e9227203877b9cb625f7ed6431085111574259c",
    "synth/token_transfers.csv": "1f8ff2e870fe88cf6494bde31721b61c94087dbc9bacb9deb367f6e563eb05e5",
}


def test_criterion_9_pipeline_determinism(tmp_path):
    """The full pipeline, run twice on the same config and seed, produces
    byte-identical artifact directories, and those bytes match the golden
    digests."""

    def run_pipeline(out_name: str) -> dict:
        config_path = tmp_path / f"{out_name}.json"
        config_path.write_text(json.dumps({
            "output_dir": str(tmp_path / out_name),
            "synth": {"seed": 77, "population_total": 150},
            "eligibility": {"min_tx_count": 5, "interaction_window_days": 2},
        }))
        for command in ("synth", "ingest", "graph", "cluster", "detect",
                        "eligibility", "stats", "report"):
            assert cli.main([command, "--config", str(config_path)]) == 0, command
        digest = {}
        root = tmp_path / out_name
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.name != "config.resolved.json":
                digest[str(path.relative_to(root))] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        return digest

    first = run_pipeline("run_a")
    second = run_pipeline("run_b")
    assert first == second
    assert first == GOLDEN_ARTIFACTS
    report(9, f"{len(first)} artifacts byte-identical across two runs and to the golden digests")
