"""Per-address transaction flows, operation classification, and features.

Every token event of an address becomes one flow event in one of eight
operation kinds: the four interaction categories (trading, LP, staking,
transferring) split by direction. A flow then collapses into an 8-slot
binary presence vector, and pairwise similarity is a weighted cosine.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, reduce
from math import sqrt
from operator import add, mul
from typing import NamedTuple

from . import artifacts
from .ingest import Address, ContractCategory, ContractInfo, EventKind, EventStore

log = logging.getLogger(__name__)


class OperationKind(str, Enum):
    BUY = "buy"
    SELL = "sell"
    LP_ADD = "lp_add"
    LP_REMOVE = "lp_remove"
    STAKE = "stake"
    UNSTAKE = "unstake"
    SEND = "send"
    RECEIVE = "receive"


# Fixed feature-slot order; index j of a vector refers to this tuple.
OPERATION_ORDER: tuple[OperationKind, ...] = (
    OperationKind.BUY,
    OperationKind.SELL,
    OperationKind.LP_ADD,
    OperationKind.LP_REMOVE,
    OperationKind.STAKE,
    OperationKind.UNSTAKE,
    OperationKind.SEND,
    OperationKind.RECEIVE,
)
N_FEATURES = len(OPERATION_ORDER)

# The one accounting rule: how each operation moves a member's tokens, as
# (source, destination) positions. None is outside the member's books.
MOVES: dict[OperationKind, tuple[str | None, str | None]] = {
    OperationKind.BUY: (None, "balance"),
    OperationKind.SELL: ("balance", None),
    OperationKind.LP_ADD: ("balance", "lp"),
    OperationKind.LP_REMOVE: ("lp", "balance"),
    OperationKind.STAKE: ("balance", "staked"),
    OperationKind.UNSTAKE: ("staked", "balance"),
    OperationKind.SEND: ("balance", None),
    OperationKind.RECEIVE: (None, "balance"),
}
# Ops that spend the liquid balance.
SPENDING_OPS = frozenset(op for op, (source, _) in MOVES.items() if source == "balance")
# How an exclusion reason names what a source position holds.
_HOLDS = {"balance": "held", "staked": "staked", "lp": "provided"}

# Contract category -> (op when the member pays the contract, op when it
# pays the member). CEX deposits and withdrawals count as trading: members
# cash out through centralized venues just as through swap pools. Ambiguous
# trading-or-LP pools count as trading too.
_CATEGORY_OPS = {
    ContractCategory.TRADING_SWAP: (OperationKind.SELL, OperationKind.BUY),
    ContractCategory.TRADING_OR_LP: (OperationKind.SELL, OperationKind.BUY),
    ContractCategory.CEX: (OperationKind.SELL, OperationKind.BUY),
    ContractCategory.STAKING: (OperationKind.STAKE, OperationKind.UNSTAKE),
    ContractCategory.LIQUIDITY_POOL: (OperationKind.LP_ADD, OperationKind.LP_REMOVE),
}
_TRANSFER_OPS = (OperationKind.SEND, OperationKind.RECEIVE)


def classify_event(
    sender: Address, receiver: Address, subject: Address, contracts: dict[Address, ContractInfo]
) -> OperationKind:
    """Map one token event of `subject`, from `sender` to `receiver`, to an
    operation kind.

    A counterparty missing from the dictionary, an airdrop contract (its
    payout is flagged as the claim by build_flows) or an Other-category
    contract is a plain transfer by direction.
    """
    outgoing = sender == subject
    info = contracts.get(receiver if outgoing else sender)
    pay, paid = _CATEGORY_OPS.get(info.category, _TRANSFER_OPS) if info else _TRANSFER_OPS
    return pay if outgoing else paid


class FlowEvent(NamedTuple):
    """One applied event, with the member's three positions after it."""

    op: OperationKind
    amount: int
    balance_after: int
    staked_after: int
    lp_after: int
    timestamp: int
    is_claim: bool = False


@dataclass
class TransactionFlow:
    address: Address
    events: list[FlowEvent] = field(default_factory=list)
    balance: int = 0
    staked: int = 0
    lp: int = 0
    excluded: list[tuple[int, str]] = field(default_factory=list)  # (ts, reason)


def _apply(flow: TransactionFlow, op: OperationKind, amount: int, ts: int) -> bool:
    """Move `amount` as MOVES says; False means the source position would
    go negative and the event must be excluded, not clamped."""
    source, destination = MOVES[op]
    if source is not None:
        have = getattr(flow, source)
        if have < amount:
            flow.excluded.append(
                (ts, f"negative balance: {op.value} {amount} with {have} {_HOLDS[source]}")
            )
            return False
        setattr(flow, source, have - amount)
    if destination is not None:
        setattr(flow, destination, getattr(flow, destination) + amount)
    return True


def build_flows(store: EventStore, addresses) -> dict[Address, TransactionFlow]:
    """Reconstruct the ordered operation flow of each address in one pass
    over the store's token transfers.

    Positions start at zero; any event that would push one negative is
    excluded and logged, one warning per call (inconsistent input).
    Receives from airdrop-category contracts are flagged as claim receipts.
    """
    by_addr: dict[Address, list] = {address: [] for address in addresses}
    for event in zip(*store.columns_of(EventKind.TOKEN_TRANSFER)):
        sender, receiver, _, _ = event
        if sender in by_addr:
            by_addr[sender].append(event)
        if receiver != sender and receiver in by_addr:
            by_addr[receiver].append(event)
    contracts = store.contracts
    flows: dict[Address, TransactionFlow] = {}
    for address, events in by_addr.items():
        flow = flows[address] = TransactionFlow(address)
        for sender, receiver, value, ts in events:
            op = classify_event(sender, receiver, address, contracts)
            if not _apply(flow, op, value, ts):
                continue
            info = contracts.get(sender) if receiver == address else None
            flow.events.append(FlowEvent(
                op, value, flow.balance, flow.staked, flow.lp, ts,
                bool(info and info.category == ContractCategory.AIRDROP),
            ))
    if excluded := [(address, why) for address, flow in flows.items() for _, why in flow.excluded]:
        log.warning("%d token events excluded from the flows; the first, of %s: %s",
                    len(excluded), *excluded[0])
    return flows


# The distance weights of the feature slots when none are configured; a
# clustering run weighs every vector by one such tuple (config.Weights).
UNIFORM_WEIGHTS: tuple[float, ...] = (1.0,) * N_FEATURES


@dataclass(frozen=True)
class FeatureVector:
    """8-slot binary operation presence."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != N_FEATURES:
            raise ValueError(f"feature vectors have exactly {N_FEATURES} slots")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def op_set(self) -> set[OperationKind]:
        return {OPERATION_ORDER[i] for i, b in enumerate(self.bits) if b}


def op_set(flow: TransactionFlow) -> frozenset[OperationKind]:
    """The operations a flow contains at least once.

    The claim receipt itself does not count as a receive -- every initial
    member has it, so it would carry no information; only post-claim
    receives count.
    """
    receive = OperationKind.RECEIVE
    return frozenset({ev.op for ev in flow.events if not (ev.is_claim and ev.op == receive)})


@cache
def _vector(ops: frozenset[OperationKind]) -> FeatureVector:
    return FeatureVector(tuple(int(op in ops) for op in OPERATION_ORDER))


def extract_features(flow: TransactionFlow) -> FeatureVector:
    """Bit j set iff operation j is in the flow's `op_set`. There are at
    most 2**N_FEATURES op sets, so members with the same one share a
    single vector, built and validated once per process."""
    return _vector(op_set(flow))


def weighted_cosine_distance(
    a: FeatureVector, b: FeatureVector, weights: tuple[float, ...] = UNIFORM_WEIGHTS
) -> float:
    """1 - cosine similarity of the two presence vectors, slot j weighted
    by weights[j] (positive, as config.Weights holds them).

    Conventions: two all-zero vectors are at distance 0 (holding-only
    addresses form one behavior), a zero vector is at distance 1 from any
    non-zero vector. The result is clamped into [0, 1] against float noise
    so identical vectors always land exactly at 0.
    """
    if a.bits == b.bits:
        return 0.0
    wa = [w * c for w, c in zip(weights, a.bits)]
    wb = [w * c for w, c in zip(weights, b.bits)]
    # Left folds: builtin sum rounds differently from Python 3.12 on.
    num = reduce(add, map(mul, wa, wb), 0.0)
    na = sqrt(reduce(add, map(mul, wa, wa), 0.0))
    nb = sqrt(reduce(add, map(mul, wb, wb), 0.0))
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    return min(max(1.0 - num / (na * nb), 0.0), 1.0)


def write_feature_matrix(entries, path) -> None:
    """CSV export (address + one column per operation slot) for external
    embedding or plotting."""
    artifacts.write_csv(["address"] + [op.value for op in OPERATION_ORDER], (
        [addr, *map(str, vec.bits)] for addr, vec in sorted(entries)), path)
