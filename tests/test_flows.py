import hashlib
import itertools
import math
import random
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from airdrop_forensics.flows import (
    OPERATION_ORDER,
    FeatureVector,
    FlowEvent,
    OperationKind,
    TransactionFlow,
    UNIFORM_WEIGHTS,
    _vector,
    build_flows,
    classify_event,
    extract_features,
    op_set,
    weighted_cosine_distance,
    write_feature_matrix,
)
from airdrop_forensics.ingest import ContractCategory, IngestConfig, Tier
from airdrop_forensics.stats import attrition, build_timeline, period_quantity_samples

from conftest import WINDOW_START, addr, claim, contract, ev, from_ops, make_store
from oracles import naive_apply, naive_timeline, period_days, quantity

T = WINDOW_START + 86400


def vec(*ops):
    return from_ops(ops)


class TestClassify:
    def test_staking_pool_transfer_is_stake(self, staking_contract):
        subject = addr(1)
        op = classify_event(
            subject, staking_contract.address, subject,
            {staking_contract.address: staking_contract},
        )
        assert op == OperationKind.STAKE

    def test_plain_counterparty_is_send(self):
        subject = addr(1)
        op = classify_event(subject, addr(2), subject, {})
        assert op == OperationKind.SEND
        op = classify_event(addr(2), subject, subject, {})
        assert op == OperationKind.RECEIVE

    def test_trading_or_lp_outgoing_counts_as_sell(self):
        pool = contract(addr(9), "amm pool v3", ContractCategory.TRADING_OR_LP)
        subject = addr(1)
        op = classify_event(subject, pool.address, subject, {pool.address: pool})
        assert op == OperationKind.SELL

    def test_unknown_contract_falls_back_to_transfer(self):
        subject = addr(1)
        op = classify_event(addr(7), subject, subject, {})
        assert op == OperationKind.RECEIVE

    def test_cex_counts_as_trading(self):
        cex = contract(addr(8), "cex hot wallet", ContractCategory.CEX)
        subject = addr(1)
        op = classify_event(subject, cex.address, subject, {cex.address: cex})
        assert op == OperationKind.SELL


class TestBuildFlow:
    def test_claim_then_sell(self, airdrop_contract, router_contract):
        member = addr(1)
        amount = Tier.T5200.amount
        events = [
            ev(airdrop_contract.address, member, amount, ts=T),
            ev(member, router_contract.address, amount, ts=T + 3600),
        ]
        store = make_store(
            events,
            contracts=[airdrop_contract, router_contract],
            claims=[claim(member, ts=T)],
        )
        flow = build_flows(store, [member])[member]
        assert [e.op for e in flow.events] == [OperationKind.RECEIVE, OperationKind.SELL]
        assert [e.balance_after for e in flow.events] == [amount, 0]
        assert flow.events[0].is_claim
        assert flow.balance == 0

    def test_stake_tracks_position(self, airdrop_contract, staking_contract):
        member = addr(1)
        amount = Tier.T7800.amount
        events = [
            ev(airdrop_contract.address, member, amount, ts=T),
            ev(member, staking_contract.address, amount, ts=T + 3600),
        ]
        store = make_store(
            events,
            contracts=[airdrop_contract, staking_contract],
            claims=[claim(member, Tier.T7800, ts=T)],
        )
        flow = build_flows(store, [member])[member]
        assert flow.balance == 0
        assert flow.staked == amount

    def test_sell_before_receive_excluded_and_logged(self, router_contract, caplog):
        member, other = addr(1), addr(2)
        events = [ev(member, router_contract.address, 99, ts=T),
                  ev(other, router_contract.address, 7, ts=T + 1)]
        store = make_store(events, contracts=[router_contract])
        with caplog.at_level("WARNING", logger="airdrop_forensics.flows"):
            flow = build_flows(store, [member, other])[member]
        assert flow.events == []
        assert len(flow.excluded) == 1
        assert flow.excluded[0][0] == T and "negative balance" in flow.excluded[0][1]
        # one warning per call, with the count and the first reason
        [record] = caplog.records
        assert record.levelname == "WARNING"
        assert record.getMessage() == (f"2 token events excluded from the flows; the first, of "
                                       f"{member}: {flow.excluded[0][1]}")

    def test_flows_without_exclusions_log_nothing(self, airdrop_contract, caplog):
        member = addr(1)
        store = make_store([ev(airdrop_contract.address, member, 5, ts=T)],
                           contracts=[airdrop_contract])
        with caplog.at_level("DEBUG", logger="airdrop_forensics.flows"):
            build_flows(store, [member])
        assert caplog.records == []

    def test_unstake_beyond_position_excluded(self, airdrop_contract, staking_contract):
        member = addr(1)
        events = [
            ev(airdrop_contract.address, member, Tier.T5200.amount, ts=T),
            ev(staking_contract.address, member, 5, ts=T + 10),  # nothing staked yet
        ]
        store = make_store(
            events, contracts=[airdrop_contract, staking_contract],
            claims=[claim(member, ts=T)],
        )
        flow = build_flows(store, [member])[member]
        assert [e.op for e in flow.events] == [OperationKind.RECEIVE]
        assert flow.excluded


DAY = 86400
MEMBER = addr(1)
# Per operation, (counterparties that yield it, whether the member pays).
_OP_ROUTES = {
    OperationKind.BUY: ([addr(9002), addr(9005), addr(9006)], False),
    OperationKind.SELL: ([addr(9002), addr(9005), addr(9006)], True),
    OperationKind.STAKE: ([addr(9003)], True),
    OperationKind.UNSTAKE: ([addr(9003)], False),
    OperationKind.LP_ADD: ([addr(9004)], True),
    OperationKind.LP_REMOVE: ([addr(9004)], False),
    OperationKind.SEND: ([addr(2), addr(3)], True),
    OperationKind.RECEIVE: ([addr(2), addr(9001)], False),
}
_LEDGER_CONTRACTS = [
    contract(addr(9001), "airdrop distributor", ContractCategory.AIRDROP),
    contract(addr(9002), "dex router", ContractCategory.TRADING_SWAP),
    contract(addr(9003), "staking pool", ContractCategory.STAKING),
    contract(addr(9004), "lp pool", ContractCategory.LIQUIDITY_POOL),
    contract(addr(9005), "amm pool", ContractCategory.TRADING_OR_LP),
    contract(addr(9006), "cex hot wallet", ContractCategory.CEX),
]


# Seconds into a day, often its first or last second.
_SECOND = st.one_of(st.sampled_from([0, DAY - 1]), st.integers(0, DAY - 1))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(list(OperationKind)), st.integers(0, 40),
                  st.builds(lambda d, s: d * DAY + s, st.integers(-2, 8), _SECOND),
                  st.integers(0, 2)),
        max_size=40,
    ),
    span=st.builds(lambda d, s: d * DAY + s, st.integers(0, 5), _SECOND),
)
def test_ledger_matches_six_branch_oracle(steps, span):
    """Random operation sequences, with overdraws of every position, several
    events a day and events before `start_ts` and after `end_ts`: the move
    table's positions, exclusions and per-event positions equal a
    one-branch-per-operation replay; the holding runs expand to its
    end-of-day positions, and the period, quantity and attrition read from
    the runs equal the reference formulas on those days."""
    start_ts = WINDOW_START + 3 * DAY
    end_ts = start_ts + span
    events, op_of = [], {}
    for i, (op, amount, offset, pick) in enumerate(steps):
        counterparties, pays = _OP_ROUTES[op]
        other = counterparties[pick % len(counterparties)]
        e = ev(MEMBER, other, amount, ts=start_ts + offset, block=i) if pays else ev(
            other, MEMBER, amount, ts=start_ts + offset, block=i)
        events.append(e)
        op_of[e.tx_hash] = op
    store = make_store(events, contracts=_LEDGER_CONTRACTS,
                       config=IngestConfig(window_start=None, window_end=None))
    flow = build_flows(store, [MEMBER])[MEMBER]

    naive = SimpleNamespace(balance=0, staked=0, lp=0, excluded=[])
    applied, positions = [], []
    for e in store.events:
        op = op_of[e.tx_hash]
        if naive_apply(naive, op, e.value, e.timestamp):
            applied.append((op, e.value, e.timestamp))
            positions.append((naive.balance, naive.staked, naive.lp))
    assert (flow.balance, flow.staked, flow.lp) == (naive.balance, naive.staked, naive.lp)
    assert flow.excluded == naive.excluded
    assert [(e.op, e.amount, e.timestamp) for e in flow.events] == applied
    assert [(e.balance_after, e.staked_after, e.lp_after) for e in flow.events] == positions
    days = naive_timeline(applied, start_ts, end_ts)
    runs = build_timeline(flow, start_ts, end_ts)
    assert all(run[0] > 0 for run in runs)
    lead = len(days[0]) - sum(run[0] for run in runs)
    assert lead >= 0
    assert tuple([0] * lead + [run[j] for run in runs for _ in range(run[0])]
                 for j in (1, 2, 3)) == days

    samples = period_quantity_samples({MEMBER: runs}, [MEMBER])
    for name, series in zip(("balance", "staking", "lp"), days):
        period = period_days(series)
        assert samples[f"{name}_period"] == ([float(period)] if period else [])
        assert samples[f"{name}_quantity"] == ([quantity(series)] if period else [])
    member_claim = claim(MEMBER)
    held = sum(series[-1] for series in days)
    report = attrition({MEMBER: runs}, {MEMBER: member_claim})
    assert report.outflow_tokens == member_claim.amount - held
    assert report.left_count == (held == 0)


class TestFeatures:
    def test_claim_only_is_all_zero(self, airdrop_contract):
        member = addr(1)
        store = make_store(
            [ev(airdrop_contract.address, member, Tier.T5200.amount, ts=T)],
            contracts=[airdrop_contract],
            claims=[claim(member, ts=T)],
        )
        features = extract_features(build_flows(store, [member])[member])
        assert features.bits == (0,) * 8

    def test_post_claim_receive_sets_bit(self, airdrop_contract):
        member = addr(1)
        store = make_store(
            [
                ev(airdrop_contract.address, member, Tier.T5200.amount, ts=T),
                ev(addr(2), member, 5, ts=T + 10),
            ],
            contracts=[airdrop_contract],
            claims=[claim(member, ts=T)],
        )
        features = extract_features(build_flows(store, [member])[member])
        assert features.op_set() == {OperationKind.RECEIVE}

    def test_claim_stake_sell_bits(self, airdrop_contract, staking_contract, router_contract):
        member = addr(1)
        amount = Tier.T10400.amount
        store = make_store(
            [
                ev(airdrop_contract.address, member, amount, ts=T),
                ev(member, staking_contract.address, amount // 2, ts=T + 10),
                ev(member, router_contract.address, amount // 2, ts=T + 20),
            ],
            contracts=[airdrop_contract, staking_contract, router_contract],
            claims=[claim(member, Tier.T10400, ts=T)],
        )
        features = extract_features(build_flows(store, [member])[member])
        assert features.op_set() == {OperationKind.STAKE, OperationKind.SELL}

    def test_build_flows_covers_every_address(self, airdrop_contract):
        members = [addr(i) for i in range(1, 4)]
        events = [
            ev(airdrop_contract.address, m, Tier.T5200.amount, ts=T + i)
            for i, m in enumerate(members)
        ]
        store = make_store(events, contracts=[airdrop_contract],
                           claims=[claim(m, ts=T) for m in members])
        flows = build_flows(store, members)
        assert sorted(flows) == sorted(members)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(OPERATION_ORDER), st.booleans()), max_size=12))
    def test_bits_are_the_op_set_without_the_claim_receipt(self, steps):
        flow = TransactionFlow(addr(1), [FlowEvent(op, 1, 0, 0, 0, T, claim)
                                         for op, claim in steps])
        counted = {op for op, claim in steps if not (claim and op == OperationKind.RECEIVE)}
        assert op_set(flow) == counted
        features = extract_features(flow)
        assert features.bits == tuple(int(op in counted) for op in OPERATION_ORDER)
        assert features.op_set() == counted

    def test_members_with_one_op_set_share_one_checked_vector(self, monkeypatch):
        """Many flows over a few patterns build and check one vector per
        pattern, not one per member."""
        built = []
        check = FeatureVector.__post_init__

        def counted_check(vector):
            built.append(vector.bits)
            check(vector)

        monkeypatch.setattr(FeatureVector, "__post_init__", counted_check)
        _vector.cache_clear()
        patterns = [(), (OperationKind.BUY,), (OperationKind.STAKE, OperationKind.SELL),
                    (OperationKind.RECEIVE, OperationKind.SEND)]
        rng = random.Random(7)
        claim_receipt = FlowEvent(OperationKind.RECEIVE, 1, 1, 0, 0, T, True)
        members = []
        for i in range(600):
            pattern = patterns[i % len(patterns)]
            ops = list(pattern) + rng.choices(pattern, k=rng.randint(0, 5) if pattern else 0)
            rng.shuffle(ops)
            events = [FlowEvent(op, 1, 0, 0, 0, T + k) for k, op in enumerate(ops)]
            members.append((pattern, TransactionFlow(addr(i), [claim_receipt] + events)))
        vectors = [(pattern, extract_features(flow)) for pattern, flow in members]
        assert len(built) == len(patterns)
        shared = {}
        for pattern, vector in vectors:
            assert vector.op_set() == set(pattern)
            assert shared.setdefault(pattern, vector) is vector


class TestWeightedCosine:
    def test_identical_vectors_distance_zero(self):
        v = vec(OperationKind.SELL, OperationKind.STAKE)
        assert weighted_cosine_distance(v, v) == 0.0

    def test_disjoint_vectors_distance_one(self):
        a = vec(OperationKind.SELL)
        b = vec(OperationKind.STAKE)
        assert weighted_cosine_distance(a, b) == 1.0

    def test_sell_vs_sell_stake_uniform(self):
        a = vec(OperationKind.SELL)
        b = vec(OperationKind.SELL, OperationKind.STAKE)
        expected = 1.0 - 1.0 / math.sqrt(2.0)
        assert abs(weighted_cosine_distance(a, b) - expected) < 1e-12

    def test_zero_vector_conventions(self):
        zero = vec()
        assert weighted_cosine_distance(zero, zero) == 0.0
        assert weighted_cosine_distance(zero, vec(OperationKind.SELL)) == 1.0

    def test_symmetric_and_bounded(self):
        rng = random.Random(31)
        for _ in range(200):
            bits_a = tuple(rng.randint(0, 1) for _ in range(8))
            bits_b = tuple(rng.randint(0, 1) for _ in range(8))
            w = tuple(rng.uniform(0.1, 5.0) for _ in range(8))
            a, b = FeatureVector(bits_a), FeatureVector(bits_b)
            d_ab = weighted_cosine_distance(a, b, w)
            assert d_ab == weighted_cosine_distance(b, a, w)
            assert 0.0 <= d_ab <= 1.0

    def test_global_weight_scaling_invariance(self):
        rng = random.Random(37)
        for _ in range(100):
            w = tuple(rng.uniform(0.1, 4.0) for _ in range(8))
            scale = rng.uniform(0.01, 100.0)
            scaled = tuple(scale * x for x in w)
            bits_a = tuple(rng.randint(0, 1) for _ in range(8))
            bits_b = tuple(rng.randint(0, 1) for _ in range(8))
            a, b = FeatureVector(bits_a), FeatureVector(bits_b)
            base = weighted_cosine_distance(a, b, w)
            moved = weighted_cosine_distance(a, b, scaled)
            assert abs(base - moved) < 1e-12

    @pytest.mark.parametrize("weights,digest", [
        ((0.5, 1.0, 1.5, 2.0, 0.3, 0.7, 1.1, 2.5),
         "e1258511e1fd6d8011d264a674f2ea234fd3312859dd463b8e5290cfc3358918"),
        (UNIFORM_WEIGHTS, "948bcd7191f40782d2718eb2d52d38968465a8c04929648207dc7ffa9ed5546b"),
    ], ids=["weighted", "uniform"])
    def test_all_pattern_distances_have_pinned_bits(self, weights, digest):
        """The sums fold left to right, so every distance has the same bits
        on every interpreter; builtin sum rounds differently from 3.12 on."""
        vectors = [FeatureVector(bits) for bits in itertools.product((0, 1), repeat=8)]
        packed = b"".join(struct.pack("<d", weighted_cosine_distance(a, b, weights))
                          for a in vectors for b in vectors)
        assert hashlib.sha256(packed).hexdigest() == digest


def test_feature_matrix_export(tmp_path):
    entries = [(addr(1), vec(OperationKind.SELL)), (addr(2), vec())]
    path = tmp_path / "features.csv"
    write_feature_matrix(entries, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "address,buy,sell,lp_add,lp_remove,stake,unstake,send,receive"
    assert lines[1].startswith(addr(1)) and ",1," in lines[1]
