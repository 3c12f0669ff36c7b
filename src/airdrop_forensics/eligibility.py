"""Airdrop eligibility simulation over an external-transaction history.

Replays the threshold-differential filter: an activity floor (transaction
count or native balance), a recency requirement on protocol interactions,
and a clique exclusion on interlinked applicant wallets. Alternative rule
presets (fair / differential) let the same history be re-screened under
earlier-generation policies, or re-run as a second allocation pass.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import artifacts
from .config import EligibilityRules
from .ingest import Address, Tier

log = logging.getLogger(__name__)


@dataclass
class EligibilityHistory:
    """External transactions plus supplied balances; balances arrive as
    input because multi-chain reconstruction is out of scope."""

    events: list  # StoredEvent, kind external
    balances: dict[Address, dict[str, float]]
    protocol_addresses: frozenset[Address]
    coverage_start: int


class _HistoryIndex:
    """Per-address sorted timestamps assembled in one pass; shared
    read-only. Counts in a time range are two bisections."""

    def __init__(self, history: EligibilityHistory):
        self.sent_ts: dict[Address, list[int]] = defaultdict(list)
        self.interaction_ts: dict[Address, list[int]] = defaultdict(list)
        for e in history.events:
            self.sent_ts[e.sender].append(e.timestamp)
            if e.receiver in history.protocol_addresses:
                self.interaction_ts[e.sender].append(e.timestamp)
        # linear on a time-ordered history; keeps any other caller correct
        for per_address in (self.sent_ts, self.interaction_ts):
            for ts in per_address.values():
                ts.sort()

    def tx_count(self, addr: Address, until: int) -> int:
        return bisect_right(self.sent_ts.get(addr, ()), until)

    def interactions(self, addr: Address, start: int, until: int) -> int:
        ts = self.interaction_ts.get(addr, ())
        return max(0, bisect_right(ts, until) - bisect_left(ts, start))


def clique_sizes(history: EligibilityHistory) -> dict[Address, int]:
    """Largest maximal clique containing each address, over the undirected
    projection of wallet-to-wallet external transfers (protocol endpoints
    excluded: hunters link their own accounts, not the router)."""
    from .forensics import _maximal_cliques

    adj: dict[Address, set[Address]] = defaultdict(set)
    for e in history.events:
        if e.sender == e.receiver:
            continue
        if e.sender in history.protocol_addresses or e.receiver in history.protocol_addresses:
            continue
        adj[e.sender].add(e.receiver)
        adj[e.receiver].add(e.sender)
    sizes: dict[Address, int] = defaultdict(lambda: 1)
    for clique in _maximal_cliques(dict(adj)):
        for a in clique:
            sizes[a] = max(sizes[a], len(clique))
    return dict(sizes)


@dataclass(frozen=True)
class RuleCheck:
    rule: str
    passed: bool
    detail: str


@dataclass
class EligibilityVerdict:
    address: Address
    eligible: bool
    tier: Tier | None
    reasons: list[RuleCheck]

    def to_row(self) -> list:
        return [
            self.address,
            int(self.eligible),
            self.tier.value if self.tier else "",
            ";".join(f"{r.rule}={'pass' if r.passed else 'fail'}" for r in self.reasons),
        ]


def recency_window(
    history: EligibilityHistory, rules: EligibilityRules, snapshot_ts: int
) -> tuple[int, bool]:
    """Start of the interaction-recency window, clipped at the start of the
    covered history, and whether it was clipped."""
    start = snapshot_ts - rules.interaction_window_days * 86400
    return max(start, history.coverage_start), history.coverage_start > start


def evaluate(
    address: Address,
    history: EligibilityHistory,
    rules: EligibilityRules,
    snapshot_ts: int,
    clique_size: int,
    index: _HistoryIndex,
) -> EligibilityVerdict:
    """Screen one address at the snapshot instant.

    Eligible iff (tx count or native balance clears the floor) AND enough
    protocol interactions land inside the recency window AND the address
    is not part of an oversized clique. A recency window reaching back
    before the history is clipped at its start, and the detail says so.
    The ordered rule trace is complete: the verdict is exactly
    `all(check.passed)`. `run_campaign` computes `clique_size` and `index`
    once for the whole population.
    """
    window_start, clipped = recency_window(history, rules, snapshot_ts)

    checks: list[RuleCheck] = []
    tx_count = index.tx_count(address, snapshot_ts)
    balances = history.balances.get(address, {})
    balance_ok = any(
        balances.get(chain, 0.0) >= floor
        for chain, floor in sorted(rules.floors.items())
    )
    floor_ok = tx_count >= rules.min_tx_count or balance_ok
    checks.append(
        RuleCheck(
            "activity_floor",
            floor_ok,
            f"tx_count={tx_count} (min {rules.min_tx_count}); "
            f"balance_floor={'met' if balance_ok else 'not met'}",
        )
    )

    interactions = index.interactions(address, window_start, snapshot_ts)
    checks.append(
        RuleCheck(
            "interaction_recency",
            interactions >= rules.min_interactions,
            f"{interactions} protocol interactions in the last "
            f"{rules.interaction_window_days} days"
            + (f", clipped to the history start {window_start}" if clipped else "")
            + f" (min {rules.min_interactions})",
        )
    )

    if rules.max_clique is None:
        checks.append(RuleCheck("clique_exclusion", True, "clique rule disabled"))
    else:
        checks.append(
            RuleCheck(
                "clique_exclusion",
                clique_size <= rules.max_clique,
                f"largest clique containing address has size {clique_size} "
                f"(max {rules.max_clique})",
            )
        )

    eligible = all(c.passed for c in checks)
    tier = rules.tier_for(interactions) if eligible else None
    return EligibilityVerdict(address, eligible, tier, checks)


@dataclass
class CampaignResult:
    verdicts: list[EligibilityVerdict]
    summary: dict


def run_campaign(
    population: list[Address],
    history: EligibilityHistory,
    rules: EligibilityRules,
    snapshot_ts: int,
) -> CampaignResult:
    """Evaluate the whole applicant population with shared precomputation.

    The summary names the clipped recency-window start only when the
    window was clipped.
    """
    index = _HistoryIndex(history)
    sizes = clique_sizes(history) if rules.max_clique is not None else {}
    verdicts = [
        evaluate(a, history, rules, snapshot_ts, sizes.get(a, 1), index)
        for a in sorted(set(population))
    ]
    tier_counts = Counter(v.tier.value for v in verdicts if v.tier)
    exclusion = Counter(
        check.rule for v in verdicts if not v.eligible for check in v.reasons if not check.passed
    )
    summary = {
        "population": len(verdicts),
        "eligible": sum(1 for v in verdicts if v.eligible),
        "tier_counts": {str(t): tier_counts.get(t, 0) for t in sorted(tier_counts)},
        "exclusion_reasons": dict(sorted(exclusion.items())),
    }
    window_start, clipped = recency_window(history, rules, snapshot_ts)
    if clipped:
        summary["recency_window_clipped_to"] = window_start
    return CampaignResult(verdicts, summary)


def write_verdicts_csv(result: CampaignResult, path) -> None:
    artifacts.write_csv(
        ["address", "eligible", "tier", "rule_trace"], (v.to_row() for v in result.verdicts), path
    )
