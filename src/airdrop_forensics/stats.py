"""Descriptive tables and distributions over the reconstructed community.

Covers the per-tier behavior table, attrition, contract popularity, tier
composition per cluster, holding timelines as runs of days between flow
events, and Gaussian KDEs of activity period/quantity samples (plot-ready
arrays, no images).
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .flows import OperationKind, TransactionFlow
from .ingest import Address, ClaimRecord, EventStore, Tier, format_token_amount

log = logging.getLogger(__name__)


class EmptySampleError(ValueError):
    pass


# Behavior-table columns: action name -> operation that counts as doing it.
ACTION_OPS = {
    "selling": OperationKind.SELL,
    "buying": OperationKind.BUY,
    "staking": OperationKind.STAKE,
    "sending": OperationKind.SEND,
    "receiving": OperationKind.RECEIVE,
    "lp": OperationKind.LP_ADD,
}


def behavior_table(
    ops: dict[Address, set[OperationKind]], claims: dict[Address, ClaimRecord]
) -> dict[Tier, dict[str, float]]:
    """Per tier, the fraction of claimants performing each action at least
    once, read from each member's feature-vector op set (`op_set()` of
    `flows.extract_features`), so receiving ignores the claim payout itself."""
    performed: dict[Tier, Counter] = {t: Counter() for t in Tier}
    claimed: Counter = Counter()
    for addr, rec in claims.items():
        claimed[rec.tier] += 1
        kinds = ops.get(addr, ())
        for action, op in ACTION_OPS.items():
            if op in kinds:
                performed[rec.tier][action] += 1
    table: dict[Tier, dict[str, float]] = {}
    for tier in Tier:
        n = claimed[tier]
        table[tier] = {
            action: (performed[tier][action] / n if n else 0.0) for action in ACTION_OPS
        }
    return table


# One run of days with the same end-of-day positions: (days, balance,
# staked, lp).
Run = tuple[int, int, int, int]


def build_timeline(flow: TransactionFlow, start_ts: int, end_ts: int) -> list[Run]:
    """The member's holding runs in day order. Each flow event that is the
    last event of at least one day opens a run with its positions, lasting
    until the next event's first day or through the window's last day.
    Days before the first event hold nothing and get no run."""
    days = (end_ts - start_ts) // 86400 + 1
    first = [min(max(0, (ev.timestamp - start_ts) // 86400), days) for ev in flow.events]
    return [
        (hi - lo, ev.balance_after, ev.staked_after, ev.lp_after)
        for ev, lo, hi in zip(flow.events, first, first[1:] + [days])
        if lo < hi
    ]


def build_timelines(
    flows: dict[Address, TransactionFlow], start_ts: int, end_ts: int
) -> dict[Address, list[Run]]:
    return {a: build_timeline(f, start_ts, end_ts) for a, f in sorted(flows.items())}


@dataclass
class AttritionReport:
    left_count: int
    left_pct: float
    per_tier_pct: dict[Tier, float]
    outflow_tokens: int
    outflow_pct: float
    claimed_total: int

    def to_json(self) -> dict:
        return {
            "left_count": self.left_count,
            "left_pct": self.left_pct,
            "per_tier_pct": {str(t.value): v for t, v in sorted(self.per_tier_pct.items())},
            "outflow_tokens": self.outflow_tokens,
            "outflow_display": format_token_amount(self.outflow_tokens),
            "outflow_pct": self.outflow_pct,
            "claimed_total": self.claimed_total,
            "claimed_display": format_token_amount(self.claimed_total),
        }


def claimed_total_for_counts(counts: dict[Tier, int]) -> int:
    """Total claimed in smallest units for given per-tier claim counts."""
    return sum(tier.amount * n for tier, n in counts.items())


def attrition(
    timelines: dict[Address, list[Run]], claims: dict[Address, ClaimRecord]
) -> AttritionReport:
    """Who gave away everything. An initial member has left when balance,
    staked, and LP positions are all zero on the window's last day, which
    is the last run's; staked/LP tokens count as still in the community
    (the value stays locked). Outflow is exactly claimed minus what initial
    members still hold, in integer units."""
    left = 0
    left_by_tier: Counter = Counter()
    claimed_by_tier: Counter = Counter()
    held = 0
    claimed_total = 0
    for addr, rec in claims.items():
        claimed_by_tier[rec.tier] += 1
        claimed_total += rec.amount
        runs = timelines.get(addr)
        holdings = sum(runs[-1][1:]) if runs else 0
        held += holdings
        if holdings == 0:
            left += 1
            left_by_tier[rec.tier] += 1
    n = len(claims)
    per_tier = {
        tier: (left_by_tier[tier] / claimed_by_tier[tier] if claimed_by_tier[tier] else 0.0)
        for tier in Tier
    }
    outflow = claimed_total - held
    return AttritionReport(
        left_count=left,
        left_pct=left / n if n else 0.0,
        per_tier_pct=per_tier,
        outflow_tokens=outflow,
        outflow_pct=outflow / claimed_total if claimed_total else 0.0,
        claimed_total=claimed_total,
    )


@dataclass(frozen=True)
class ContractUsage:
    name: str
    category: str
    address: Address
    interactions: int


def top_contracts(store: EventStore) -> list[ContractUsage]:
    """The ten contracts that the most distinct initial members interacted
    with, over the full event history."""
    users: dict[Address, set[Address]] = defaultdict(set)
    for ev in store.events:
        if ev.sender in store.contracts and ev.receiver in store.claims:
            users[ev.sender].add(ev.receiver)
        if ev.receiver in store.contracts and ev.sender in store.claims:
            users[ev.receiver].add(ev.sender)
    rows = [
        ContractUsage(
            store.contracts[addr].name,
            store.contracts[addr].category.value,
            addr,
            len(members),
        )
        for addr, members in users.items()
    ]
    rows.sort(key=lambda r: (-r.interactions, r.address))
    return rows[:10]


def tier_composition(
    labels: dict[Address, int], claims: dict[Address, ClaimRecord]
) -> dict[int, dict[Tier, float]]:
    """Stacked tier fractions per cluster label, each summing to 1."""
    counts: dict[int, Counter] = defaultdict(Counter)
    for addr, cluster in labels.items():
        rec = claims.get(addr)
        if rec is not None:
            counts[cluster][rec.tier] += 1
    out: dict[int, dict[Tier, float]] = {}
    for cluster in sorted(counts):
        total = sum(counts[cluster].values())
        out[cluster] = {tier: counts[cluster][tier] / total for tier in Tier}
    return out


def aggregate_shares(shares: list[float]) -> float:
    """Plain left-to-right sum so re-aggregations reproduce their inputs
    exactly (no reordering, no compensation)."""
    total = 0.0
    for s in shares:
        total += s
    return total


@dataclass
class DensityEstimate:
    grid: list[float]
    density: list[float]
    bandwidth: float

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.grid))

    def to_json(self) -> dict:
        return {
            "grid": self.grid,
            "density": self.density,
            "bandwidth": self.bandwidth,
            "integral": self.integral(),
        }


def silverman_bandwidth(samples) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), with a unit fallback when the
    sample is degenerate (all identical)."""
    x = np.asarray(samples, dtype=float)
    n = len(x)
    std = float(np.std(x))
    q75, q25 = np.percentile(x, [75, 25])
    spread = min(std, (q75 - q25) / 1.34)
    if spread <= 0:
        spread = std if std > 0 else 1.0
    return 0.9 * spread * n ** (-0.2)


KDE_GRID_SIZE = 512


def kde(samples) -> DensityEstimate:
    """Gaussian kernel density, at Silverman's bandwidth, on a grid of
    KDE_GRID_SIZE points spanning the samples plus three bandwidths either
    side, so the curve integrates to ~1."""
    if len(samples) == 0:
        raise EmptySampleError("cannot estimate a density from an empty sample")
    x = np.asarray(samples, dtype=float)
    h = silverman_bandwidth(x)
    grid = np.linspace(x.min() - 3 * h, x.max() + 3 * h, KDE_GRID_SIZE)
    # 16 grid rows at a time, so no temporary exceeds 16 x n floats. Each
    # row is still summed on its own over all samples in order, so every
    # bit matches the one-matrix form; blocking the samples would not.
    sums = np.empty(KDE_GRID_SIZE)
    for i in range(0, KDE_GRID_SIZE, 16):
        z = (grid[i:i + 16, None] - x[None, :]) / h
        sums[i:i + 16] = np.exp(-0.5 * z * z).sum(axis=1)
    dens = sums / (len(x) * h * np.sqrt(2 * np.pi))
    return DensityEstimate(grid.tolist(), dens.tolist(), float(h))


def period_quantity_samples(
    timelines: dict[Address, list[Run]], addresses
) -> dict[str, list[float]]:
    """Period (days with a position > 0) and quantity (its mean over those
    days, in display units) samples per activity for a member group;
    addresses with no activity in a series contribute nothing to it."""
    out: dict[str, list[float]] = {
        f"{series}_{measure}": []
        for series in ("balance", "staking", "lp")
        for measure in ("period", "quantity")
    }
    for addr in sorted(addresses):
        runs = timelines.get(addr, ())
        for j, series in enumerate(("balance", "staking", "lp"), start=1):
            period = sum(run[0] for run in runs if run[j] > 0)
            if period > 0:
                out[f"{series}_period"].append(float(period))
                total = sum(run[0] * run[j] for run in runs if run[j] > 0)
                out[f"{series}_quantity"].append(total / period / 10**18)
    return out


def write_behavior_table_csv(table: dict[Tier, dict[str, float]], path) -> None:
    artifacts.write_csv(
        ["tier", *ACTION_OPS],
        ([t.value] + [repr(table[t][a]) for a in ACTION_OPS] for t in Tier),
        path,
    )


def write_top_contracts_csv(rows: list[ContractUsage], path) -> None:
    artifacts.write_csv(
        ["name", "category", "address", "interactions"],
        ([r.name, r.category, r.address, r.interactions] for r in rows),
        path,
    )


def write_tier_composition_csv(comp: dict[int, dict[Tier, float]], path) -> None:
    artifacts.write_csv(
        ["cluster"] + [str(t.value) for t in Tier],
        ([c] + [repr(comp[c][t]) for t in Tier] for c in sorted(comp)),
        path,
    )


def write_kde_json(estimates: dict[str, DensityEstimate], path) -> None:
    artifacts.write_json({name: est.to_json() for name, est in sorted(estimates.items())}, path)
