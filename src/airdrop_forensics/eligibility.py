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
from functools import cache, cached_property
from typing import NamedTuple

from . import artifacts
from .config import EligibilityRules
from .ingest import Address, EventColumns, Tier

log = logging.getLogger(__name__)


@dataclass
class EligibilityHistory:
    """External transactions plus supplied balances; balances arrive as
    input because multi-chain reconstruction is out of scope."""

    events: EventColumns  # the external transactions
    balances: dict[Address, dict[str, float]]
    protocol_addresses: frozenset[Address]
    coverage_start: int

    @cached_property
    def index(self) -> _HistoryIndex:
        """The one walk of `events`, made on first use and shared by the
        population, every rule and the clique sizes; `events` must not
        change after it."""
        return _HistoryIndex(self)


class _HistoryIndex:
    """What the screening reads of a history, assembled in one pass over
    its events; shared read-only.

    - Per sender, sorted timestamps of all its transactions and of those
      to protocol addresses; a count in a time range is two bisections.
    - `senders`: every address that sent a transaction.
    - `adjacency`: the undirected wallet-to-wallet projection, without
      protocol endpoints and self-transfers (hunters link their own
      accounts, not the router).
    """

    def __init__(self, history: EligibilityHistory):
        self.sent_ts: dict[Address, list[int]] = defaultdict(list)
        self.interaction_ts: dict[Address, list[int]] = defaultdict(list)
        adjacency: dict[Address, set[Address]] = defaultdict(set)
        protocol = history.protocol_addresses
        events = history.events
        for sender, receiver, ts in zip(events.senders, events.receivers, events.timestamps):
            self.sent_ts[sender].append(ts)
            if receiver in protocol:
                self.interaction_ts[sender].append(ts)
            elif sender != receiver and sender not in protocol:
                adjacency[sender].add(receiver)
                adjacency[receiver].add(sender)
        # linear on a time-ordered history; keeps any other caller correct
        for per_address in (self.sent_ts, self.interaction_ts):
            for ts in per_address.values():
                ts.sort()
        self.senders = self.sent_ts.keys()
        self.adjacency = dict(adjacency)

    def tx_count(self, addr: Address, until: int) -> int:
        return bisect_right(self.sent_ts.get(addr, ()), until)

    def interactions(self, addr: Address, start: int, until: int) -> int:
        ts = self.interaction_ts.get(addr, ())
        return max(0, bisect_right(ts, until) - bisect_left(ts, start))


def clique_sizes(history: EligibilityHistory) -> dict[Address, int]:
    """Largest maximal clique containing each address, over the history
    index's wallet-to-wallet adjacency."""
    from .forensics import _maximal_cliques

    sizes: dict[Address, int] = defaultdict(lambda: 1)
    for clique in _maximal_cliques(history.index.adjacency):
        for a in clique:
            sizes[a] = max(sizes[a], len(clique))
    return dict(sizes)


class RuleCheck(NamedTuple):
    rule: str
    passed: bool
    detail: str


@dataclass
class EligibilityVerdict:
    address: Address
    eligible: bool
    tier: Tier | None
    reasons: list[RuleCheck]
    rule_trace: str  # "rule=pass;..." over `reasons`


def recency_window(
    history: EligibilityHistory, rules: EligibilityRules, snapshot_ts: int
) -> tuple[int, bool]:
    """Start of the interaction-recency window, clipped at the start of the
    covered history, and whether it was clipped."""
    start = snapshot_ts - rules.interaction_window_days * 86400
    return max(start, history.coverage_start), history.coverage_start > start


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
    """Screen every address of the population at the snapshot instant.

    Eligible iff (tx count or native balance clears the floor) AND enough
    protocol interactions land inside the recency window AND the address
    is not part of an oversized clique. A recency window reaching back
    before the history is clipped at its start, and the detail says so.
    The ordered rule trace is complete: the verdict is exactly
    `all(check.passed)`.

    Whatever does not depend on the address is worked out once per
    campaign: the history index, the clique sizes, the window, the sorted
    floors, the tier lookup, the fixed parts of the detail texts and the
    trace strings. The summary names the clipped recency-window start only
    when the window was clipped.
    """
    index = history.index
    sizes = clique_sizes(history) if rules.max_clique is not None else {}
    window_start, clipped = recency_window(history, rules, snapshot_ts)
    floors = sorted(rules.floors.items())
    # an address without balances meets a floor only if that floor is 0
    unfunded_ok = any(0.0 >= floor for _, floor in floors)
    floor_text = {
        ok: f" (min {rules.min_tx_count}); balance_floor={'met' if ok else 'not met'}"
        for ok in (True, False)
    }
    recency_text = (
        f" protocol interactions in the last {rules.interaction_window_days} days"
        + (f", clipped to the history start {window_start}" if clipped else "")
        + f" (min {rules.min_interactions})"
    )
    clique_off = RuleCheck("clique_exclusion", True, "clique rule disabled")
    traces: dict[tuple[bool, ...], str] = {}  # by the checks' outcomes
    tier_for = cache(rules.tier_for)

    verdicts = []
    for address in sorted(set(population)):
        tx_count = index.tx_count(address, snapshot_ts)
        balances = history.balances.get(address)
        balance_ok = any(
            balances.get(chain, 0.0) >= floor for chain, floor in floors
        ) if balances else unfunded_ok
        activity = RuleCheck("activity_floor", tx_count >= rules.min_tx_count or balance_ok,
                             f"tx_count={tx_count}{floor_text[balance_ok]}")
        interactions = index.interactions(address, window_start, snapshot_ts)
        recency = RuleCheck("interaction_recency", interactions >= rules.min_interactions,
                            f"{interactions}{recency_text}")
        if rules.max_clique is None:
            clique = clique_off
        else:
            size = sizes.get(address, 1)
            clique = RuleCheck(
                "clique_exclusion", size <= rules.max_clique,
                f"largest clique containing address has size {size} (max {rules.max_clique})",
            )
        checks = [activity, recency, clique]
        passed = (activity.passed, recency.passed, clique.passed)
        if passed not in traces:
            traces[passed] = ";".join(f"{c.rule}={'pass' if c.passed else 'fail'}" for c in checks)
        eligible = all(passed)
        verdicts.append(EligibilityVerdict(
            address, eligible, tier_for(interactions) if eligible else None, checks, traces[passed],
        ))

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
    if clipped:
        summary["recency_window_clipped_to"] = window_start
    return CampaignResult(verdicts, summary)


def write_verdicts_csv(result: CampaignResult, path) -> None:
    artifacts.write_csv(["address", "eligible", "tier", "rule_trace"], (
        [v.address, str(int(v.eligible)), str(v.tier.value) if v.tier else "", v.rule_trace]
        for v in result.verdicts), path)
