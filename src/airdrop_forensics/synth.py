"""Deterministic synthetic communities with planted ground truth.

Generates the same CSV shapes the ingest stage consumes: claims, token
transfers, external transactions, and a contract dictionary, plus a
ground-truth sidecar naming every planted role and hunter pattern. The
RNG is Python's Mersenne Twister seeded per scenario, so a seed fully
determines every emitted byte on every platform.

Planted instances are constructed to fire exactly their own detector:
noise components stay below every structural threshold, and a validation
sweep (rejection sampling against the real detector predicates) rejects
any draw that would blur the ground truth.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import artifacts
from .clustering import role_for_ops
from .config import PatternKind, PatternSpec, Synth
from .flows import OperationKind
from .forensics import run_detectors
from .graphs import build_external_graph, build_token_graph
from .ingest import (
    Address,
    ClaimRecord,
    ContractCategory,
    ContractInfo,
    DEFAULT_WINDOW_END,
    DEFAULT_WINDOW_START,
    EVENT_ORDER,
    EventKind,
    EventStore,
    IngestConfig,
    Tier,
    TransferEvent,
    build_event_store,
    write_claims_csv,
    write_contracts_csv,
    write_transfers_csv,
    _date_ts,
)
from .stats import ACTION_OPS

log = logging.getLogger(__name__)

DAY = 86400


class InfeasibleSpecError(artifacts.UserError, ValueError):
    pass


# The 14 canonical behavior signatures with their reference shares (%).
# Composite send-or-sell rows are pinned to one concrete pattern; the buy
# bit is what separates the last three from the airdrop-only signatures.
SIGNATURES: dict[str, frozenset] = {
    "selling": frozenset({OperationKind.SELL}),
    "sending": frozenset({OperationKind.SEND}),
    "staking": frozenset({OperationKind.STAKE}),
    "staking_selling": frozenset({OperationKind.STAKE, OperationKind.SELL}),
    "holding": frozenset(),
    "selling_sending": frozenset({OperationKind.SELL, OperationKind.SEND}),
    "staking_sending": frozenset({OperationKind.STAKE, OperationKind.SEND}),
    "lp_staking": frozenset({OperationKind.LP_ADD, OperationKind.STAKE}),
    "lp_selling": frozenset({OperationKind.LP_ADD, OperationKind.SELL}),
    "lp": frozenset({OperationKind.LP_ADD}),
    "lp_sending": frozenset({OperationKind.LP_ADD, OperationKind.SEND}),
    "buy_staking_selling": frozenset(
        {OperationKind.BUY, OperationKind.STAKE, OperationKind.SELL}
    ),
    "buy_selling": frozenset({OperationKind.BUY, OperationKind.SELL}),
    "buy_lp_selling": frozenset(
        {OperationKind.BUY, OperationKind.LP_ADD, OperationKind.SELL}
    ),
}

TABLE_SHARES: dict[str, float] = {
    "selling": 38.79,
    "sending": 22.24,
    "staking": 14.94,
    "staking_selling": 8.50,
    "holding": 4.87,
    "selling_sending": 2.39,
    "staking_sending": 1.71,
    "lp_staking": 0.39,
    "lp_selling": 0.30,
    "lp": 0.11,
    "lp_sending": 0.09,
    "buy_staking_selling": 3.58,
    "buy_selling": 1.91,
    "buy_lp_selling": 0.18,
}


def population_from_shares(total: int, shares: dict[str, float] | None = None) -> dict[str, int]:
    """Integer counts per signature by largest remainder, summing to total."""
    shares = shares or TABLE_SHARES
    raw = {name: total * pct / 100.0 for name, pct in shares.items()}
    counts = {name: int(v) for name, v in raw.items()}
    short = total - sum(counts.values())
    order = sorted(shares, key=lambda n: (-(raw[n] - counts[n]), n))
    for name in order[:short]:
        counts[name] += 1
    return counts


@dataclass
class ScenarioSpec:
    seed: int
    population: dict[str, int] = field(default_factory=dict)  # signature -> count
    tier_mix: tuple[float, float, float] = Synth.tier_mix
    patterns: list[PatternSpec] = field(default_factory=list)
    noise_rate: float = Synth.noise_rate  # distractor p2p components per claimant
    window_start: str = DEFAULT_WINDOW_START
    window_end: str = DEFAULT_WINDOW_END


@dataclass
class PlantedPattern:
    kind: PatternKind
    instance_id: int
    members: dict[Address, str]  # address -> role in pattern
    sink: Address | None

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "instance_id": self.instance_id,
            "members": {a: r for a, r in sorted(self.members.items())},
            "sink": self.sink,
        }


@dataclass
class GroundTruth:
    ops_of: dict[Address, list[str]] = field(default_factory=dict)
    role_of: dict[Address, str] = field(default_factory=dict)
    signature_of: dict[Address, str] = field(default_factory=dict)
    pattern_instances: list[PlantedPattern] = field(default_factory=list)
    planted_stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "ops_of": {a: ops for a, ops in sorted(self.ops_of.items())},
            "role_of": {a: r for a, r in sorted(self.role_of.items())},
            "signature_of": {a: s for a, s in sorted(self.signature_of.items())},
            "pattern_instances": [p.to_json() for p in self.pattern_instances],
            "planted_stats": self.planted_stats,
        }


@dataclass
class Scenario:
    spec: ScenarioSpec
    token_events: list[TransferEvent]
    external_events: list[TransferEvent]
    contracts: list[ContractInfo]
    claims: list[ClaimRecord]
    truth: GroundTruth
    airdrop_ts: int

    def ingest_config(self) -> IngestConfig:
        return IngestConfig(self.spec.window_start, self.spec.window_end)

    def build_store(self) -> EventStore:
        return build_event_store(
            list(self.token_events),
            list(self.external_events),
            list(self.contracts),
            list(self.claims),
            self.ingest_config(),
        )

    def write(self, outdir) -> None:
        outdir = Path(outdir)
        write_transfers_csv(self.token_events, outdir / "token_transfers.csv")
        write_transfers_csv(self.external_events, outdir / "external_txs.csv")
        write_contracts_csv(self.contracts, outdir / "contracts.csv")
        write_claims_csv(self.claims, outdir / "claims.csv")
        artifacts.write_json(self.truth.to_json(), outdir / "ground_truth.json")


class _Builder:
    """Shared bookkeeping for one scenario draw."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.start_ts = _date_ts(spec.window_start)
        self.end_ts = _date_ts(spec.window_end) + DAY - 1
        self.airdrop_ts = self.start_ts + 2 * DAY + 43200
        self.activity_end = self.end_ts - 2 * DAY
        self.token_events: list[TransferEvent] = []
        self.external_events: list[TransferEvent] = []
        self.claims: list[ClaimRecord] = []
        self.truth = GroundTruth()

        self.airdrop = self._contract("airdrop distributor", ContractCategory.AIRDROP)
        self.router = self._contract("dex router", ContractCategory.TRADING_SWAP)
        self.staking_pool = self._contract("staking pool 1", ContractCategory.STAKING)
        self.lp_pool = self._contract("lp pool", ContractCategory.LIQUIDITY_POOL)
        self.amm_pool = self._contract("amm pool v3", ContractCategory.TRADING_OR_LP)
        self.cex = self._contract("cex hot wallet", ContractCategory.CEX)
        self.contracts = [
            self.airdrop, self.router, self.staking_pool,
            self.lp_pool, self.amm_pool, self.cex,
        ]

    def _contract(self, name: str, category: ContractCategory) -> ContractInfo:
        return ContractInfo(self.address(), name, category)

    def address(self) -> Address:
        return "0x%040x" % self.rng.getrandbits(160)

    def txid(self) -> str:
        return "0x%064x" % self.rng.getrandbits(256)

    def _block(self, ts: int) -> int:
        return 13_600_000 + (ts - self.start_ts) // 13

    def token(self, sender: Address, receiver: Address, value: int, ts: int) -> None:
        self.token_events.append(
            TransferEvent(self.txid(), sender, receiver, value, ts, self._block(ts),
                          EventKind.TOKEN_TRANSFER)
        )

    def external(self, sender: Address, receiver: Address, ts: int, value: int | None = None) -> None:
        if value is None:
            value = self.rng.randint(10**16, 10**18)
        self.external_events.append(
            TransferEvent(self.txid(), sender, receiver, value, ts, self._block(ts),
                          EventKind.EXTERNAL_TX)
        )

    def pick_tier(self) -> Tier:
        r = self.rng.random()
        a, b, _ = self.spec.tier_mix
        if r < a:
            return Tier.T5200
        if r < a + b:
            return Tier.T7800
        return Tier.T10400

    def claim(self, addr: Address, tier: Tier | None = None) -> ClaimRecord:
        tier = tier or self.pick_tier()
        ts = self.airdrop_ts + self.rng.randint(0, 3600)
        rec = ClaimRecord(addr, tier, tier.amount, ts)
        self.claims.append(rec)
        self.token(self.airdrop.address, addr, tier.amount, ts)
        return rec

    def activity_ts(self, after: int) -> int:
        lo = after + 3600
        hi = max(lo + 3600, self.activity_end)
        return self.rng.randint(lo, hi)

    def record_truth(self, addr: Address, ops, signature: str) -> None:
        ops = sorted(OperationKind(o).value for o in ops)
        self.truth.ops_of[addr] = ops
        role = role_for_ops(ops)
        self.truth.role_of[addr] = role.value if role else "unmapped"
        self.truth.signature_of[addr] = signature

    def protocol_warmup(self, addr: Address) -> None:
        """Pre-airdrop protocol calls: what made the wallet eligible."""
        for _ in range(self.rng.randint(6, 10)):
            ts = self.rng.randint(self.start_ts, self.airdrop_ts - 7200)
            self.external(addr, self.router.address, ts)

    def emit_signature(self, addr: Address, signature: str) -> None:
        """Claim plus the signature's operations, one transfer each, with
        amounts that keep the running balance non-negative."""
        ops = SIGNATURES[signature]
        self.protocol_warmup(addr)
        rec = self.claim(addr)
        t = rec.claim_timestamp
        avail = rec.amount
        if OperationKind.BUY in ops:
            t = self.activity_ts(t)
            bought = (rec.amount // 100) * self.rng.choice([25, 50, 75])
            self.token(self.router.address, addr, bought, t)
            avail += bought
        consume = [op for op in (OperationKind.SELL, OperationKind.STAKE,
                                 OperationKind.LP_ADD, OperationKind.SEND)
                   if op in ops]
        if consume:
            share = avail // len(consume)
            targets = {
                OperationKind.SELL: self.router.address,
                OperationKind.STAKE: self.staking_pool.address,
                OperationKind.LP_ADD: self.lp_pool.address,
            }
            for op in consume:
                t = self.activity_ts(t)
                target = targets.get(op)
                if target is None:  # send goes to a fresh later member
                    target = self.address()
                self.token(addr, target, share, t)
        self.record_truth(addr, ops, signature)


def _plant_chain(b: _Builder, inst_id: int, n_nodes: int) -> PlantedPattern:
    if n_nodes < 4:
        raise InfeasibleSpecError("a chain needs at least 4 nodes at the default path length")
    links = [b.address() for _ in range(n_nodes - 1)]
    sink = b.address()
    nodes = links + [sink]
    carried = 0
    t = b.airdrop_ts
    for i, addr in enumerate(links):
        rec = b.claim(addr)
        t = max(t, rec.claim_timestamp)
        carried += rec.amount
        t = t + b.rng.randint(3600, 4 * 3600)
        b.token(addr, nodes[i + 1], carried, t)
        ops = {OperationKind.SEND} | ({OperationKind.RECEIVE} if i > 0 else set())
        b.record_truth(addr, ops, "pattern_chain")
    b.record_truth(sink, {OperationKind.RECEIVE}, "pattern_chain")
    members = {links[0]: "source", sink: "sink"}
    for addr in links[1:]:
        members[addr] = "relay"
    return PlantedPattern(PatternKind.CHAIN, inst_id, members, sink)


def _spoke_ring_external(b: _Builder, spokes: list[Address]) -> None:
    """Pre-airdrop linkage among spokes: a ring (triangle-free for >= 4
    nodes) so the component's external density clears the cautious bound
    without ever forming a claimant clique."""
    k = len(spokes)
    for i in range(k):
        ts = b.rng.randint(b.start_ts, b.airdrop_ts - 3600)
        b.external(spokes[i], spokes[(i + 1) % k], ts)


def _plant_sunflower(
    b: _Builder, inst_id: int, n_spokes: int, variant: PatternKind
) -> PlantedPattern:
    if n_spokes < 5:
        raise InfeasibleSpecError("a sunflower needs at least 5 spokes at default thresholds")
    if variant == PatternKind.SUNFLOWER and n_spokes > 9:
        raise InfeasibleSpecError(
            "a plain sunflower above 9 spokes cannot clear the cautious density "
            "bound without claimant cliques; use the relay or staging variant"
        )
    spokes = [b.address() for _ in range(n_spokes)]
    members: dict[Address, str] = {s: "source" for s in spokes}

    if variant == PatternKind.STAGING_AGGREGATION:
        center = b.address()  # later member, never touches a contract
        for s in spokes:
            ts = b.rng.randint(b.start_ts, b.airdrop_ts - 3600)
            b.external(center, s, ts)  # the staging wallet funds its spokes
    else:
        center = b.address()
        _spoke_ring_external(b, spokes)

    received = 0
    t = b.airdrop_ts
    for s in spokes:
        rec = b.claim(s)
        ts = rec.claim_timestamp + b.rng.randint(3600, DAY)
        b.token(s, center, rec.amount, ts)
        received += rec.amount
        t = max(t, ts)
        b.record_truth(s, {OperationKind.SEND}, "pattern_spoke")

    sink: Address | None = center
    if variant == PatternKind.SUNFLOWER:
        rec = b.claim(center)
        t = max(t, rec.claim_timestamp) + b.rng.randint(3600, DAY)
        b.token(center, b.staking_pool.address, received + rec.amount, t)
        b.record_truth(center, {OperationKind.RECEIVE, OperationKind.STAKE}, "pattern_center")
        members[center] = "sink"
    elif variant == PatternKind.SUNFLOWER_RELAY:
        rec = b.claim(center)
        successor = b.address()
        t = max(t, rec.claim_timestamp) + b.rng.randint(3600, DAY)
        b.token(center, successor, received + rec.amount, t)
        b.record_truth(center, {OperationKind.RECEIVE, OperationKind.SEND}, "pattern_center")
        b.record_truth(successor, {OperationKind.RECEIVE}, "pattern_successor")
        members[center] = "relay"
        members[successor] = "sink"
        sink = successor
        # external star on the non-claimant successor keeps density up
        # without claimant triangles
        for s in spokes + [center]:
            ts = b.rng.randint(b.start_ts, b.airdrop_ts - 3600)
            b.external(s, successor, ts)
    else:  # staging aggregation: the center only holds
        b.record_truth(center, {OperationKind.RECEIVE}, "pattern_staging_center")
        members[center] = "relay"
    return PlantedPattern(variant, inst_id, members, sink)


def _plant_sponsorship(
    b: _Builder, inst_id: int, n_beneficiaries: int, n_sponsors: int = 4
) -> PlantedPattern:
    if n_beneficiaries < 5 or n_sponsors < 2:
        raise InfeasibleSpecError("sponsorship needs >= 5 beneficiaries and >= 2 sponsors")
    sponsors = [b.address() for _ in range(n_sponsors)]
    beneficiaries = [b.address() for _ in range(n_beneficiaries)]
    # sponsors know each other pre-airdrop
    for i in range(n_sponsors):
        for j in range(i + 1, n_sponsors):
            ts = b.rng.randint(b.start_ts, b.airdrop_ts - 3600)
            b.external(sponsors[i], sponsors[j], ts)
    members: dict[Address, str] = {s: "sponsor" for s in sponsors}
    for i, ben in enumerate(beneficiaries):
        backers = [sponsors[(i + j) % n_sponsors] for j in range(3)]
        for s in backers:
            ts = b.rng.randint(b.start_ts, b.airdrop_ts - 3600)
            b.external(s, ben, ts)
        rec = b.claim(ben)
        half = rec.amount // 2
        t1 = rec.claim_timestamp + b.rng.randint(3600, DAY)
        t2 = t1 + b.rng.randint(3600, DAY)
        b.token(ben, backers[0], half, t1)  # rewards return along the route
        b.token(ben, backers[1], rec.amount - half, t2)
        b.record_truth(ben, {OperationKind.SEND}, "pattern_beneficiary")
        members[ben] = "source"
    for s in sponsors:
        b.record_truth(s, {OperationKind.RECEIVE}, "pattern_sponsor")
    return PlantedPattern(PatternKind.SPONSORSHIP_CLIQUE, inst_id, members, None)


def _plant_cautious(b: _Builder, inst_id: int, n_members: int) -> tuple[PlantedPattern, PlantedPattern]:
    """A sunflower-shaped aggregation whose members are nearly invisible
    to each other pre-airdrop; ground truth carries both labels."""
    if n_members < 6:
        raise InfeasibleSpecError("a cautious clique needs >= 6 members (5 spokes + center)")
    center = b.address()
    spokes = [b.address() for _ in range(n_members - 1)]
    # only a few members ever touched the center externally (far below the
    # density bound)
    for s in spokes[: min(3, len(spokes))]:
        ts = b.rng.randint(b.start_ts, b.airdrop_ts - 3600)
        b.external(s, center, ts)
    rec_c = b.claim(center)
    for s in spokes:
        rec = b.claim(s)
        ts = rec.claim_timestamp + b.rng.randint(3600, DAY)
        b.token(s, center, rec.amount, ts)
        b.record_truth(s, {OperationKind.SEND}, "pattern_spoke")
    b.record_truth(center, {OperationKind.RECEIVE}, "pattern_center")
    members = {s: "source" for s in spokes}
    members[center] = "sink"
    cautious = PlantedPattern(PatternKind.CAUTIOUS_CLIQUE, inst_id, dict(members), center)
    shadow = PlantedPattern(PatternKind.SUNFLOWER, inst_id, dict(members), center)
    return cautious, shadow


def _plant_blatant(b: _Builder, inst_id: int, size: int) -> PlantedPattern:
    if not 3 <= size <= 5:
        raise InfeasibleSpecError("a blatant clique must have 3..5 members to pass screening")
    wallets = [b.address() for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            ts = b.rng.randint(b.start_ts, b.airdrop_ts - 3600)
            pair = (wallets[i], wallets[j])
            if b.rng.random() < 0.5:
                pair = (wallets[j], wallets[i])
            b.external(pair[0], pair[1], ts)
    sink = wallets[0]
    rec_sink = b.claim(sink)
    b.record_truth(sink, {OperationKind.RECEIVE}, "pattern_blatant_sink")
    for w in wallets[1:]:
        rec = b.claim(w)
        ts = rec.claim_timestamp + b.rng.randint(3600, DAY)
        b.token(w, sink, rec.amount, ts)
        b.record_truth(w, {OperationKind.SEND}, "pattern_blatant")
    members = {w: "source" for w in wallets[1:]}
    members[sink] = "sink"
    return PlantedPattern(PatternKind.BLATANT_CLIQUE, inst_id, members, sink)


_DEFAULT_SIZES = {
    PatternKind.CHAIN: 4,
    PatternKind.SUNFLOWER: 8,
    PatternKind.SUNFLOWER_RELAY: 8,
    PatternKind.STAGING_AGGREGATION: 8,
    PatternKind.SPONSORSHIP_CLIQUE: 17,
    PatternKind.CAUTIOUS_CLIQUE: 19,
    PatternKind.BLATANT_CLIQUE: 5,
}

# Distractor micro-components: all below every structural threshold.
_NOISE_SHAPES = ("pair", "mutual_pair", "vee", "path3")


def _plant_noise(b: _Builder, count: int) -> None:
    """Later-member p2p chatter funded through the router (a contract
    edge, so it never joins the wallet components)."""
    for _ in range(count):
        shape = b.rng.choice(_NOISE_SHAPES)
        n = 2 if shape in ("pair", "mutual_pair") else 3
        wallets = [b.address() for _ in range(n)]
        t = b.rng.randint(b.airdrop_ts + DAY, b.activity_end)
        amount = b.rng.randint(10, 400) * 10**18
        b.token(b.router.address, wallets[0], amount * 2, t)
        if shape == "pair":
            b.token(wallets[0], wallets[1], amount, t + 3600)
        elif shape == "mutual_pair":
            b.token(wallets[0], wallets[1], amount, t + 3600)
            b.token(wallets[1], wallets[0], amount // 2, t + 7200)
        elif shape == "vee":
            b.token(wallets[0], wallets[1], amount, t + 3600)
            b.token(wallets[0], wallets[2], amount // 2, t + 7200)
        else:  # path3: two hops with shrinking value stays un-chain-like
            b.token(wallets[0], wallets[1], amount, t + 3600)
            b.token(wallets[1], wallets[2], amount // 3, t + 7200)


def _plant_distractor_funding(b: _Builder, claimants: list[Address]) -> None:
    """Plain pre-airdrop funding for a slice of the ordinary claimants;
    every funder serves a handful of unrelated wallets."""
    funded = [a for a in claimants if b.rng.random() < 0.3]
    funder = None
    used = 0
    for addr in funded:
        if funder is None or used >= 3:
            funder = b.address()
            used = 0
        ts = b.rng.randint(b.start_ts, b.airdrop_ts - 3600)
        b.external(funder, addr, ts)
        used += 1


def _score_key(inst: PlantedPattern) -> tuple:
    return (inst.kind.value, inst.instance_id)


def generate(spec: ScenarioSpec, validate: bool = True) -> Scenario:
    """Build one scenario: role population, planted patterns, noise.

    With validate=True the finished draw is swept with the real detectors;
    any mismatch between findings and the planted truth raises
    InfeasibleSpecError (the rejection step that keeps ground-truth
    negatives true negatives).
    """
    b = _Builder(spec)

    role_claimants: list[Address] = []
    for signature in SIGNATURES:
        for _ in range(spec.population.get(signature, 0)):
            addr = b.address()
            b.emit_signature(addr, signature)
            role_claimants.append(addr)
    for signature in spec.population:
        if signature not in SIGNATURES:
            raise InfeasibleSpecError(f"unknown behavior signature {signature!r}")

    instance_id = 0
    for pat in spec.patterns:
        size = pat.size or _DEFAULT_SIZES[pat.kind]
        for _ in range(pat.count):
            instance_id += 1
            if pat.kind == PatternKind.CHAIN:
                b.truth.pattern_instances.append(_plant_chain(b, instance_id, size))
            elif pat.kind in (
                PatternKind.SUNFLOWER,
                PatternKind.SUNFLOWER_RELAY,
                PatternKind.STAGING_AGGREGATION,
            ):
                b.truth.pattern_instances.append(
                    _plant_sunflower(b, instance_id, size, pat.kind)
                )
            elif pat.kind == PatternKind.SPONSORSHIP_CLIQUE:
                b.truth.pattern_instances.append(_plant_sponsorship(b, instance_id, size))
            elif pat.kind == PatternKind.CAUTIOUS_CLIQUE:
                cautious, shadow = _plant_cautious(b, instance_id, size)
                b.truth.pattern_instances.append(cautious)
                b.truth.pattern_instances.append(shadow)
            elif pat.kind == PatternKind.BLATANT_CLIQUE:
                b.truth.pattern_instances.append(_plant_blatant(b, instance_id, size))
            else:
                raise InfeasibleSpecError(f"cannot plant pattern {pat.kind}")

    _plant_noise(b, int(spec.noise_rate * max(len(b.claims), 1)))
    _plant_distractor_funding(b, role_claimants)

    b.token_events.sort(key=EVENT_ORDER)
    b.external_events.sort(key=EVENT_ORDER)
    b.claims.sort(key=lambda c: c.address)

    tier_counts: dict[str, int] = {}
    for rec in b.claims:
        tier_counts[str(rec.tier.value)] = tier_counts.get(str(rec.tier.value), 0) + 1
    action_counts: dict[str, dict[str, int]] = {str(t.value): {} for t in Tier}
    for rec in b.claims:
        ops = set(b.truth.ops_of.get(rec.address, ()))
        bucket = action_counts[str(rec.tier.value)]
        for action, op in ACTION_OPS.items():
            if op.value in ops:
                bucket[action] = bucket.get(action, 0) + 1
    signature_counts: dict[str, int] = {}
    for sig in b.truth.signature_of.values():
        signature_counts[sig] = signature_counts.get(sig, 0) + 1
    b.truth.planted_stats = {
        "claims_per_tier": tier_counts,
        "action_counts": action_counts,
        "signature_counts": dict(sorted(signature_counts.items())),
        "n_claimants": len(b.claims),
        "n_token_events": len(b.token_events),
        "n_external_events": len(b.external_events),
    }

    scenario = Scenario(
        spec, b.token_events, b.external_events, b.contracts, b.claims,
        b.truth, b.airdrop_ts,
    )
    if validate and spec.patterns:
        bad = {
            kind: s for kind, s in validate_scenario(scenario).items()
            if s.precision < 1.0 or s.recall < 1.0
        }
        if bad:
            raise InfeasibleSpecError(
                f"planted truth and detector output disagree: { {k: (s.precision, s.recall) for k, s in bad.items()} }"
            )
    return scenario


@dataclass
class PatternScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 1.0


def score_findings(truth: GroundTruth, findings) -> dict[str, PatternScore]:
    """Greedy per-kind matching: a finding matches a planted instance when
    at least half the instance's members appear in it."""
    by_kind_truth: dict[str, list[PlantedPattern]] = {}
    for inst in truth.pattern_instances:
        by_kind_truth.setdefault(inst.kind.value, []).append(inst)
    by_kind_found: dict[str, list] = {}
    for f in findings:
        by_kind_found.setdefault(f.pattern.value, []).append(f)

    scores: dict[str, PatternScore] = {}
    for kind in sorted(set(by_kind_truth) | set(by_kind_found)):
        score = PatternScore()
        instances = sorted(by_kind_truth.get(kind, []), key=_score_key)
        found = sorted(by_kind_found.get(kind, []), key=lambda f: (f.component_id, min(f.members, default="")))
        unmatched = list(instances)
        for f in found:
            fm = set(f.members)
            hit = None
            for inst in unmatched:
                overlap = len(fm & set(inst.members))
                if overlap * 2 >= len(inst.members):
                    hit = inst
                    break
            if hit is None:
                score.fp += 1
            else:
                score.tp += 1
                unmatched.remove(hit)
        score.fn = len(unmatched)
        scores[kind] = score
    return scores


def validate_scenario(scenario: Scenario) -> dict[str, PatternScore]:
    """Run the real detector stack against the planted truth and score its
    findings per pattern kind."""
    store = scenario.build_store()
    token_graph = build_token_graph(store)
    external_graph = build_external_graph(store)
    result = run_detectors(token_graph, external_graph, store.claims, store.contracts)
    return score_findings(scenario.truth, result.findings)
