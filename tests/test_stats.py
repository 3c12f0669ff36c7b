import math
import random
import tracemalloc

import numpy as np
import pytest

from airdrop_forensics.flows import build_flows, extract_features
from airdrop_forensics.ingest import Tier
from airdrop_forensics.stats import (
    EmptySampleError,
    aggregate_shares,
    attrition,
    behavior_table,
    build_timelines,
    claimed_total_for_counts,
    kde,
    period_quantity_samples,
    silverman_bandwidth,
    tier_composition,
    top_contracts,
)
from airdrop_forensics.synth import ScenarioSpec, generate, population_from_shares

from conftest import WINDOW_END, WINDOW_START, addr, claim, ev, make_store
from oracles import kernel_sum_density
from scenarios import attrition_scenario

TOKEN = 10**18


def flows_for(scenario):
    store = scenario.build_store()
    return store, build_flows(store, sorted(store.claims))


def op_sets(flows):
    return {a: extract_features(f).op_set() for a, f in flows.items()}


class TestBehaviorTable:
    def test_everyone_stakes(self, airdrop_contract, staking_contract):
        members = [addr(i) for i in range(1, 6)]
        claims = [claim(m, ts=WINDOW_START + 3600) for m in members]
        events = [
            ev(airdrop_contract.address, c.address, c.amount, ts=c.claim_timestamp)
            for c in claims
        ] + [
            ev(c.address, staking_contract.address, c.amount,
               ts=c.claim_timestamp + 3600)
            for c in claims
        ]
        store = make_store(events, contracts=[airdrop_contract, staking_contract],
                           claims=claims)
        table = behavior_table(op_sets(build_flows(store, members)), store.claims)
        assert table[Tier.T5200]["staking"] == 1.0
        assert table[Tier.T5200]["selling"] == 0.0
        assert table[Tier.T5200]["receiving"] == 0.0  # the claim itself never counts

    def test_synth_planted_rates_match_exactly(self):
        scenario = generate(ScenarioSpec(seed=21, population=population_from_shares(300)))
        store, flows = flows_for(scenario)
        table = behavior_table(op_sets(flows), store.claims)
        planted = scenario.truth.planted_stats
        for tier in Tier:
            claimed = planted["claims_per_tier"].get(str(tier.value), 0)
            if not claimed:
                continue
            counts = planted["action_counts"][str(tier.value)]
            for action in ("selling", "buying", "staking", "sending", "receiving", "lp"):
                expected = counts.get(action, 0) / claimed
                assert table[tier][action] == expected, (tier, action)


class TestAttrition:
    def test_claimed_total_identity(self):
        counts = {Tier.T5200: 4291, Tier.T7800: 6836, Tier.T10400: 2703}
        total = claimed_total_for_counts(counts)
        assert total == 103_745_200 * TOKEN

    def test_nobody_sells_zero_attrition(self, airdrop_contract):
        members = [addr(i) for i in range(1, 4)]
        claims = [claim(m, ts=WINDOW_START + 3600) for m in members]
        events = [
            ev(airdrop_contract.address, c.address, c.amount, ts=c.claim_timestamp)
            for c in claims
        ]
        store = make_store(events, contracts=[airdrop_contract], claims=claims)
        flows = build_flows(store, members)
        timelines = build_timelines(flows, WINDOW_START, WINDOW_END)
        report = attrition(timelines, store.claims)
        assert report.left_count == 0 and report.left_pct == 0.0
        assert report.outflow_tokens == 0

    def test_planted_departures_reproduce_published_rates(self):
        bases = {Tier.T5200: 4291, Tier.T7800: 6836, Tier.T10400: 3824}
        departures = {Tier.T5200: 3282, Tier.T7800: 4885, Tier.T10400: 1843}
        scenario = attrition_scenario(seed=33, bases=bases, departures=departures)
        store, flows = flows_for(scenario)
        timelines = build_timelines(flows, WINDOW_START, WINDOW_END)
        report = attrition(timelines, store.claims)
        assert report.left_count == sum(departures.values())
        assert abs(report.per_tier_pct[Tier.T5200] * 100 - 76.49) < 0.01
        assert abs(report.per_tier_pct[Tier.T7800] * 100 - 71.46) < 0.01
        assert abs(report.per_tier_pct[Tier.T10400] * 100 - 48.20) < 0.01
        expected_outflow = claimed_total_for_counts(departures)
        assert report.outflow_tokens == expected_outflow

    def test_outflow_is_exact_integer_difference(self, airdrop_contract, router_contract):
        member = addr(1)
        c = claim(member, Tier.T7800, ts=WINDOW_START + 3600)
        sold = 1234567890123456789
        events = [
            ev(airdrop_contract.address, member, c.amount, ts=c.claim_timestamp),
            ev(member, router_contract.address, sold, ts=c.claim_timestamp + 3600),
        ]
        store = make_store(events, contracts=[airdrop_contract, router_contract],
                           claims=[c])
        timelines = build_timelines(build_flows(store, [member]), WINDOW_START, WINDOW_END)
        report = attrition(timelines, store.claims)
        assert report.outflow_tokens == sold
        assert report.claimed_total - report.outflow_tokens == c.amount - sold


class TestTopContracts:
    def test_empty_store(self):
        assert top_contracts(make_store()) == []

    def test_synth_counts_exact(self):
        scenario = generate(ScenarioSpec(seed=25, population=population_from_shares(200)))
        store, _ = flows_for(scenario)
        rows = top_contracts(store)
        by_name = {r.name: r.interactions for r in rows}
        assert by_name["airdrop distributor"] == len(store.claims)
        planted = scenario.truth.planted_stats["signature_counts"]
        stakers = sum(
            count for name, count in planted.items() if "staking" in name
        )
        assert by_name.get("staking pool 1", 0) == stakers


class TestTierComposition:
    def test_single_tier_cluster(self):
        claims = {addr(1): claim(addr(1), Tier.T7800), addr(2): claim(addr(2), Tier.T7800)}
        comp = tier_composition({addr(1): 1, addr(2): 1}, claims)
        assert comp[1] == {Tier.T5200: 0.0, Tier.T7800: 1.0, Tier.T10400: 0.0}

    def test_fractions_sum_to_one_and_mix_is_three_five_two(self):
        rng = random.Random(77)
        scenario = generate(ScenarioSpec(seed=29, population=population_from_shares(400)))
        store, _ = flows_for(scenario)
        labels = {a: rng.randint(1, 4) for a in store.claims}
        comp = tier_composition(labels, store.claims)
        for cluster, fractions in comp.items():
            assert math.isclose(sum(fractions.values()), 1.0)
        counts = scenario.truth.planted_stats["claims_per_tier"]
        total = sum(counts.values())
        assert abs(counts.get("7800", 0) / total - 0.5) < 0.1  # ~3:5:2 mix


class TestShares:
    def test_group_sums_match_published_arithmetic(self):
        group1 = [38.79, 22.24, 14.94, 8.50, 4.87, 2.39, 1.71, 0.39, 0.30, 0.11, 0.09]
        group2 = [3.58, 1.91, 0.18]
        assert round(aggregate_shares(group1), 2) == 94.33
        assert round(aggregate_shares(group2), 2) == 5.67
        assert round(aggregate_shares([38.79, 22.24, 14.94]), 2) == 75.97
        assert round(aggregate_shares([38.79, 2.39]), 2) == 41.18

    def test_aggregate_reproduces_plain_sum_exactly(self):
        rng = random.Random(79)
        values = [rng.random() for _ in range(20)]
        expected = 0.0
        for v in values:
            expected += v
        assert aggregate_shares(values) == expected


class TestKde:
    def test_repeated_value_peaks_there(self):
        est = kde([42.0] * 25)
        assert 0.98 <= est.integral() <= 1.02
        peak_x = est.grid[int(np.argmax(est.density))]
        assert abs(peak_x - 42.0) < est.bandwidth / 4

    def test_two_point_sample_symmetric_bimodal(self):
        est = kde([0.0, 100.0])
        assert 0.98 <= est.integral() <= 1.02
        dens = np.array(est.density)
        mid = len(dens) // 2
        assert np.allclose(dens[:mid], dens[::-1][:mid], atol=1e-12)

    def test_matches_direct_kernel_sum_oracle(self):
        rng = random.Random(83)
        samples = [rng.gauss(10, 2) for _ in range(60)] + [
            rng.gauss(40, 5) for _ in range(40)
        ]
        est = kde(samples)
        probes = [int(i * (len(est.grid) - 1) / 9) for i in range(10)]
        for idx in probes:
            want = kernel_sum_density(est.grid[idx], samples, est.bandwidth)
            assert abs(est.density[idx] - want) <= 1e-9

    @pytest.mark.parametrize("grid_size", [512])  # the one grid kde uses
    @pytest.mark.parametrize("shape", ["spread", "ties", "all_equal"])
    def test_blocked_grid_matches_one_matrix_bit_for_bit(self, grid_size, shape):
        rng = random.Random(89)
        samples = {
            "spread": [rng.lognormvariate(3, 1.5) for _ in range(700)],
            "ties": [float(rng.randrange(9)) for _ in range(700)],
            "all_equal": [7.25] * 700,
        }[shape]
        est = kde(samples)
        x, h = np.asarray(samples), est.bandwidth
        grid = np.linspace(x.min() - 3 * h, x.max() + 3 * h, grid_size)
        z = (grid[:, None] - x[None, :]) / h
        dens = np.exp(-0.5 * z * z).sum(axis=1) / (len(x) * h * np.sqrt(2 * np.pi))
        assert est.grid == grid.tolist()
        assert est.density == dens.tolist()

    def test_peak_memory_is_bounded_by_the_block(self):
        """numpy reports its buffers to tracemalloc; one 512 x 20,000
        matrix alone would be 82 MB."""
        rng = random.Random(97)
        samples = [rng.random() for _ in range(20_000)]
        tracemalloc.start()
        try:
            kde(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySampleError):
            kde([])

    def test_silverman_uses_iqr_guard(self):
        # heavy outlier: IQR/1.34 < std, so the rule picks the IQR side
        samples = [1.0, 2.0, 3.0, 4.0, 1000.0]
        h = silverman_bandwidth(samples)
        x = np.asarray(samples)
        q75, q25 = np.percentile(x, [75, 25])
        assert h == pytest.approx(0.9 * ((q75 - q25) / 1.34) * len(samples) ** -0.2)


def test_timeline_periods_and_quantities(airdrop_contract, router_contract):
    member = addr(1)
    c = claim(member, Tier.T5200, ts=WINDOW_START + 3600)
    sell_ts = WINDOW_START + 10 * 86400 + 3600
    events = [
        ev(airdrop_contract.address, member, c.amount, ts=c.claim_timestamp),
        ev(member, router_contract.address, c.amount, ts=sell_ts),
    ]
    store = make_store(events, contracts=[airdrop_contract, router_contract], claims=[c])
    flows = build_flows(store, [member])
    timelines = build_timelines(flows, WINDOW_START, WINDOW_END)
    # held from day 0 (end-of-day) through day 9; sold during day 10, and
    # nothing held through the window's 150th and last day
    assert timelines[member] == [(10, c.amount, 0, 0), (140, 0, 0, 0)]
    samples = period_quantity_samples(timelines, [member])
    assert samples["balance_period"] == [10.0]
    assert samples["balance_quantity"] == [5200.0]
    assert samples["staking_period"] == []


def test_same_day_exit_has_zero_period(airdrop_contract, router_contract):
    member = addr(1)
    c = claim(member, Tier.T5200, ts=WINDOW_START + 3600)
    events = [
        ev(airdrop_contract.address, member, c.amount, ts=c.claim_timestamp),
        ev(member, router_contract.address, c.amount, ts=c.claim_timestamp + 600),
    ]
    store = make_store(events, contracts=[airdrop_contract, router_contract], claims=[c])
    timelines = build_timelines(build_flows(store, [member]), WINDOW_START, WINDOW_END)
    assert timelines[member] == [(150, 0, 0, 0)]
    assert period_quantity_samples(timelines, [member])["balance_period"] == []
