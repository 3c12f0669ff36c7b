"""Hand-built synthetic scenarios that only tests use.

Each builder draws from synth's `_Builder`, the bookkeeping `generate`
uses, so its events and claims have the shapes the stages read. A seed
fixes every draw.
"""

import random

from airdrop_forensics.config import PatternSpec
from airdrop_forensics.eligibility import EligibilityHistory
from airdrop_forensics.forensics import PatternKind
from airdrop_forensics.flows import OperationKind
from airdrop_forensics.ingest import EVENT_ORDER, Address, Tier, TransferEvent
from airdrop_forensics.synth import (
    DAY,
    GroundTruth,
    InfeasibleSpecError,
    Scenario,
    ScenarioSpec,
    _Builder,
    population_from_shares,
)

from conftest import columns


def pattern_membership(truth: GroundTruth) -> dict[Address, list[tuple[str, int, str]]]:
    out: dict[Address, list] = {}
    for inst in truth.pattern_instances:
        for addr, role in sorted(inst.members.items()):
            out.setdefault(addr, []).append((inst.kind.value, inst.instance_id, role))
    return out


def detector_benchmark_spec(seed: int, instances_per_pattern: int = 10,
                            distractors: int = 2000) -> ScenarioSpec:
    """The standard detector-benchmark draw: every pattern planted several
    times over a large distractor population."""
    return ScenarioSpec(
        seed=seed,
        population=population_from_shares(distractors),
        patterns=[
            PatternSpec(PatternKind.CHAIN, instances_per_pattern, 4),
            PatternSpec(PatternKind.SUNFLOWER, instances_per_pattern, 8),
            PatternSpec(PatternKind.SUNFLOWER_RELAY, instances_per_pattern, 8),
            PatternSpec(PatternKind.STAGING_AGGREGATION, instances_per_pattern, 8),
            PatternSpec(PatternKind.SPONSORSHIP_CLIQUE, instances_per_pattern, 17),
            PatternSpec(PatternKind.CAUTIOUS_CLIQUE, instances_per_pattern, 19),
            PatternSpec(PatternKind.BLATANT_CLIQUE, instances_per_pattern, 5),
        ],
        noise_rate=0.05,
    )


def airdrop_star_churn(seed: int, claimants: int = 40, weeks: int = 8) -> Scenario:
    """Airdrop star first, then one fresh mutual p2p pair per week: the
    reciprocity series over weekly slices rises strictly."""
    if claimants < 2 * weeks:
        raise InfeasibleSpecError("need two fresh claimants per churn week")
    spec = ScenarioSpec(seed=seed, population={}, noise_rate=0.0)
    b = _Builder(spec)
    wallets = [b.address() for _ in range(claimants)]
    for w in wallets:
        b.claim(w)
    for week in range(weeks):
        a, c = wallets[2 * week], wallets[2 * week + 1]
        ts = b.airdrop_ts + 7200 + week * 7 * DAY
        amount = 100 * 10**18
        b.token(a, c, amount, ts)
        b.token(c, a, amount // 2, ts + 3600)
    b.token_events.sort(key=EVENT_ORDER)
    b.claims.sort(key=lambda c: c.address)
    return Scenario(spec, b.token_events, b.external_events, b.contracts,
                    b.claims, b.truth, b.airdrop_ts)


def attrition_scenario(
    seed: int,
    bases: dict[Tier, int],
    departures: dict[Tier, int],
) -> Scenario:
    """Exactly `departures[tier]` members per tier sell everything; the
    rest hold to the end of the window."""
    for tier, dep in departures.items():
        if dep > bases.get(tier, 0):
            raise InfeasibleSpecError("more departures than members in a tier")
    spec = ScenarioSpec(seed=seed, population={}, noise_rate=0.0)
    b = _Builder(spec)
    for tier in Tier:
        for i in range(bases.get(tier, 0)):
            addr = b.address()
            rec = b.claim(addr, tier)
            if i < departures.get(tier, 0):
                ts = rec.claim_timestamp + b.rng.randint(3600, 30 * DAY)
                b.token(addr, b.router.address, rec.amount, ts)
                b.record_truth(addr, {OperationKind.SELL}, "selling")
            else:
                b.record_truth(addr, set(), "holding")
    b.token_events.sort(key=EVENT_ORDER)
    b.claims.sort(key=lambda c: c.address)
    return Scenario(spec, b.token_events, b.external_events, b.contracts,
                    b.claims, b.truth, b.airdrop_ts)


def _history(events: list[TransferEvent], balances: dict, coverage_start: int,
             population: list[Address], meta: dict
             ) -> tuple[EligibilityHistory, list[Address], dict]:
    """The history of a draw, its external events as columns, with the
    population and meta the draw gives."""
    history = EligibilityHistory(
        events=columns(events),
        balances=balances,
        protocol_addresses=frozenset({meta["protocol"]}),
        coverage_start=coverage_start,
    )
    return history, population, meta


def eligibility_scenario(seed: int) -> tuple[EligibilityHistory, list[Address], dict]:
    """A screening population with planted cliques either side of the size
    bound, plus under-qualified controls."""
    return _history(*eligibility_draw(seed))


def eligibility_draw(seed: int) -> tuple[list[TransferEvent], dict, int, list[Address], dict]:
    """eligibility_scenario's draw: the external events, the balances, the
    start of the covered history, the population and the meta."""
    rng = random.Random(seed)
    spec = ScenarioSpec(seed=seed)
    b = _Builder(spec)
    snapshot = b.airdrop_ts - DAY
    window_days = 183
    window_start = snapshot - window_days * DAY
    coverage_start = window_start - 30 * DAY
    protocol = b.router.address
    balances: dict[Address, dict[str, float]] = {}
    population: list[Address] = []
    expectations: dict[str, list[Address]] = {
        "eligible": [], "under_active": [], "no_floor": [],
        "clique5": [], "clique6": [],
    }

    def interactions(addr: Address, count: int) -> None:
        for _ in range(count):
            ts = rng.randint(window_start + DAY, snapshot - 3600)
            b.external(addr, protocol, ts)

    for _ in range(30):
        addr = b.address()
        balances[addr] = {"ethereum": 0.05}
        interactions(addr, rng.randint(6, 30))
        population.append(addr)
        expectations["eligible"].append(addr)
    for _ in range(10):
        addr = b.address()
        balances[addr] = {"ethereum": 0.05}
        interactions(addr, 3)
        population.append(addr)
        expectations["under_active"].append(addr)
    for _ in range(5):
        addr = b.address()
        interactions(addr, 8)  # 8 sent txs < 50 and no balance floor
        population.append(addr)
        expectations["no_floor"].append(addr)

    for label, size in (("clique5", 5), ("clique6", 6)):
        wallets = [b.address() for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                ts = rng.randint(coverage_start, snapshot - 3600)
                b.external(wallets[i], wallets[j], ts)
            balances[wallets[i]] = {"ethereum": 0.05}
            interactions(wallets[i], 7)
            population.append(wallets[i])
            expectations[label].append(wallets[i])

    b.external_events.sort(key=EVENT_ORDER)
    meta = {"snapshot": snapshot, "expectations": expectations,
            "protocol": protocol}
    return b.external_events, balances, coverage_start, sorted(population), meta


def tier_quota_history(
    seed: int, quotas: tuple[int, int, int] = (6189, 9986, 3824)
) -> tuple[EligibilityHistory, list[Address], dict]:
    """A population whose interaction scores land exactly `quotas`
    addresses in each reward tier under the default table."""
    return _history(*tier_quota_draw(seed, quotas))


def tier_quota_draw(
    seed: int, quotas: tuple[int, int, int]
) -> tuple[list[TransferEvent], dict, int, list[Address], dict]:
    """tier_quota_history's draw, in eligibility_draw's form."""
    rng = random.Random(seed)
    spec = ScenarioSpec(seed=seed)
    b = _Builder(spec)
    snapshot = b.airdrop_ts - DAY
    window_start = snapshot - 183 * DAY
    coverage_start = window_start - 30 * DAY
    protocol = b.router.address
    balances: dict[Address, dict[str, float]] = {}
    population: list[Address] = []
    score_ranges = {Tier.T5200: (6, 10), Tier.T7800: (11, 25), Tier.T10400: (26, 34)}
    for tier, quota in zip((Tier.T5200, Tier.T7800, Tier.T10400), quotas):
        lo, hi = score_ranges[tier]
        for _ in range(quota):
            addr = b.address()
            balances[addr] = {"ethereum": 0.05}
            count = rng.randint(lo, hi)
            base = rng.randint(window_start + DAY, snapshot - DAY)
            for k in range(count):
                b.external(addr, protocol, min(base + k * 900, snapshot - 60))
            population.append(addr)
    b.external_events.sort(key=EVENT_ORDER)
    return (b.external_events, balances, coverage_start, sorted(population),
            {"snapshot": snapshot, "protocol": protocol})
