import random

import pytest

from airdrop_forensics.config import EligibilityRules, Preset
from airdrop_forensics.eligibility import (
    EligibilityHistory,
    _HistoryIndex,
    clique_sizes,
    run_campaign,
)
from airdrop_forensics.ingest import EventColumns, EventKind, Tier

from conftest import WINDOW_START, addr, columns, ev
from scenarios import eligibility_scenario, tier_quota_history

DAY = 86400
SNAPSHOT = WINDOW_START + 200 * DAY
PROTOCOL = addr(900)


def history(events, balances=None, coverage_start=WINDOW_START):
    return EligibilityHistory(
        events=columns(sorted(events, key=lambda e: (e.timestamp, e.block, e.tx_hash,
                                                      e.log_index))),
        balances=balances or {},
        protocol_addresses=frozenset({PROTOCOL}),
        coverage_start=coverage_start,
    )


def screen(subject, h, rules):
    """One address's verdict, through the campaign the eligibility stage runs."""
    return run_campaign([subject], h, rules, SNAPSHOT).verdicts[0]


def interactions(subject, count, start=SNAPSHOT - 100 * DAY):
    return [
        ev(subject, PROTOCOL, 1, ts=start + i * 3600, kind=EventKind.EXTERNAL_TX)
        for i in range(count)
    ]


def filler_txs(subject, count):
    return [
        ev(subject, addr(800 + i), 1, ts=SNAPSHOT - 150 * DAY + i * 60,
           kind=EventKind.EXTERNAL_TX)
        for i in range(count)
    ]


def test_history_index_counts_match_linear_scan():
    # timestamps drawn from a few values land exactly on start and until;
    # the events stay unsorted, which the index must tolerate
    rng = random.Random(41)
    wallets = [addr(i) for i in range(1, 6)]
    for _ in range(200):
        instants = [SNAPSHOT + k * DAY for k in range(-4, 5)]
        events = [
            ev(rng.choice(wallets), rng.choice(wallets + [PROTOCOL]), 1,
               ts=rng.choice(instants), kind=EventKind.EXTERNAL_TX)
            for _ in range(rng.randint(0, 30))
        ]
        h = EligibilityHistory(columns(events), {}, frozenset({PROTOCOL}), WINDOW_START)
        index = _HistoryIndex(h)
        for wallet in wallets + [PROTOCOL]:
            start, until = rng.choice(instants), rng.choice(instants)
            sent = [e.timestamp for e in events if e.sender == wallet]
            touched = [e.timestamp for e in events
                       if e.sender == wallet and e.receiver == PROTOCOL]
            assert index.tx_count(wallet, until) == sum(1 for t in sent if t <= until)
            assert index.interactions(wallet, start, until) == sum(
                1 for t in touched if start <= t <= until
            )


def test_active_address_is_eligible():
    subject = addr(1)
    h = history(interactions(subject, 7) + filler_txs(subject, 53))
    verdict = screen(subject, h, EligibilityRules())
    assert verdict.eligible
    assert verdict.tier == Tier.T5200
    assert all(c.passed for c in verdict.reasons)


def test_balance_branch_replaces_tx_floor():
    subject = addr(2)
    h = history(
        interactions(subject, 6) + filler_txs(subject, 4),
        balances={subject: {"ethereum": 0.030}},
    )
    verdict = screen(subject, h, EligibilityRules())
    assert verdict.eligible  # 10 txs < 50, but 0.030 ETH >= 0.028


def test_balance_below_floor_fails_without_txs():
    subject = addr(3)
    h = history(interactions(subject, 6), balances={subject: {"ethereum": 0.01}})
    verdict = screen(subject, h, EligibilityRules())
    assert not verdict.eligible
    assert [c.rule for c in verdict.reasons if not c.passed] == ["activity_floor"]


def test_stale_interactions_fail_recency():
    subject = addr(4)
    old = interactions(subject, 9, start=SNAPSHOT - 250 * DAY)
    h = history(old, balances={subject: {"ethereum": 1.0}},
                coverage_start=SNAPSHOT - 300 * DAY)
    verdict = screen(subject, h, EligibilityRules())
    assert not verdict.eligible
    assert [c.rule for c in verdict.reasons if not c.passed] == ["interaction_recency"]


def test_clique_of_six_excluded_hereditarily():
    wallets = [addr(10 + i) for i in range(6)]
    events = []
    for i in range(6):
        for j in range(i + 1, 6):
            events.append(ev(wallets[i], wallets[j], 1, ts=SNAPSHOT - 50 * DAY,
                             kind=EventKind.EXTERNAL_TX))
        events += interactions(wallets[i], 8)
    balances = {w: {"ethereum": 1.0} for w in wallets}
    h = history(events, balances)
    result = run_campaign(wallets, h, EligibilityRules(), SNAPSHOT)
    assert all(not v.eligible for v in result.verdicts)
    for v in result.verdicts:
        failed = [c.rule for c in v.reasons if not c.passed]
        assert failed == ["clique_exclusion"]


def test_five_clique_passes_clique_rule():
    wallets = [addr(30 + i) for i in range(5)]
    events = []
    for i in range(5):
        for j in range(i + 1, 5):
            events.append(ev(wallets[i], wallets[j], 1, ts=SNAPSHOT - 50 * DAY,
                             kind=EventKind.EXTERNAL_TX))
        events += interactions(wallets[i], 8)
    h = history(events, {w: {"ethereum": 1.0} for w in wallets})
    result = run_campaign(wallets, h, EligibilityRules(), SNAPSHOT)
    assert all(v.eligible for v in result.verdicts)


def test_rule_trace_replays_to_verdict():
    rng = random.Random(71)
    events = []
    balances = {}
    population = []
    for i in range(40):
        subject = addr(100 + i)
        population.append(subject)
        events += interactions(subject, rng.randint(0, 12))
        if rng.random() < 0.5:
            balances[subject] = {"ethereum": rng.choice([0.001, 0.05])}
    result = run_campaign(population, history(events, balances),
                          EligibilityRules(), SNAPSHOT)
    for v in result.verdicts:
        assert v.reasons
        assert v.eligible == all(c.passed for c in v.reasons)
        if not v.eligible:
            assert v.tier is None


def test_monotonicity_adding_interactions_never_hurts():
    rng = random.Random(73)
    subject = addr(200)
    base_events = interactions(subject, 3)
    h1 = history(base_events, {subject: {"ethereum": 1.0}})
    v1 = screen(subject, h1, EligibilityRules())
    for extra in (3, 10, 30):
        h2 = history(base_events + interactions(subject, extra, start=SNAPSHOT - 90 * DAY),
                     {subject: {"ethereum": 1.0}})
        v2 = screen(subject, h2, EligibilityRules())
        if v1.eligible:
            assert v2.eligible
        v1 = v2
    assert v1.eligible  # 46 interactions comfortably clear every gate


def test_recency_window_clipped_at_history_start():
    subject = addr(5)
    start = SNAPSHOT - 10 * DAY
    h = history(interactions(subject, 8, start=SNAPSHOT - 5 * DAY), coverage_start=start)
    verdict = screen(subject, h, EligibilityRules(min_tx_count=0))
    assert verdict.eligible
    recency = verdict.reasons[1]
    assert recency.rule == "interaction_recency" and recency.passed
    assert recency.detail == (
        f"8 protocol interactions in the last 183 days, clipped to the history start {start} "
        "(min 6)"
    )
    summary = run_campaign([subject], h, EligibilityRules(min_tx_count=0), SNAPSHOT).summary
    assert summary["recency_window_clipped_to"] == start
    # A window inside the history is not clipped, and the summary has no key for it.
    inside = EligibilityRules(min_tx_count=0, interaction_window_days=10)
    assert "clipped" not in screen(subject, h, inside).reasons[1].detail
    assert "recency_window_clipped_to" not in run_campaign([subject], h, inside, SNAPSHOT).summary


def test_fair_preset_admits_every_interacting_address():
    population = [addr(300 + i) for i in range(20)]
    events = []
    for i, subject in enumerate(population):
        events += interactions(subject, 1 + i % 4)
    result = run_campaign(population, history(events), EligibilityRules(Preset.FAIR), SNAPSHOT)
    assert all(v.eligible for v in result.verdicts)
    assert {v.tier for v in result.verdicts} == {Tier.T5200}


def test_tier_table_breakpoints():
    rules = EligibilityRules()
    assert rules.tier_for(6) == Tier.T5200
    assert rules.tier_for(10) == Tier.T5200
    assert rules.tier_for(11) == Tier.T7800
    assert rules.tier_for(25) == Tier.T7800
    assert rules.tier_for(26) == Tier.T10400


def test_tier_table_gap_rejected():
    with pytest.raises(ValueError):
        EligibilityRules(min_interactions=3)  # lowest breakpoint is 6


def test_clique_sizes_ignore_protocol_star():
    subject = addr(6)
    h = history(interactions(subject, 10))
    assert clique_sizes(h).get(subject, 1) == 1


def test_synth_eligibility_scenario_expectations():
    h, population, meta = eligibility_scenario(seed=5)
    result = run_campaign(population, h, EligibilityRules(), meta["snapshot"])
    verdict_of = {v.address: v for v in result.verdicts}
    exp = meta["expectations"]
    for a in exp["eligible"] + exp["clique5"]:
        assert verdict_of[a].eligible, a
    for a in exp["under_active"] + exp["no_floor"] + exp["clique6"]:
        assert not verdict_of[a].eligible, a
    for a in exp["clique6"]:
        failed = [c.rule for c in verdict_of[a].reasons if not c.passed]
        assert failed == ["clique_exclusion"]


class CountedWalks(list):
    """A list that counts the times it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize("preset", list(Preset))
def test_campaign_walks_the_history_once(preset):
    """The population, every rule and the clique sizes come from one pass
    over the events, under every preset."""
    h, population, meta = eligibility_scenario(seed=5)
    h.events = EventColumns(*map(CountedWalks, h.events))
    senders = set(h.index.senders)
    assert set(population) <= senders
    result = run_campaign(population, h, EligibilityRules(preset), meta["snapshot"])
    assert [column.walks for column in h.events] == [1, 1, 0, 1]  # no value is read
    assert len(result.verdicts) == len(set(population))


def test_tier_quota_counts_reproduced():
    h, population, meta = tier_quota_history(seed=9, quotas=(6189, 9986, 3824))
    result = run_campaign(population, h, EligibilityRules(), meta["snapshot"])
    assert result.summary["eligible"] == 19999
    assert result.summary["tier_counts"] == {
        "5200": 6189, "7800": 9986, "10400": 3824,
    }
