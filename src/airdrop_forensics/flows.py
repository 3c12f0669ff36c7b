"""Per-address transaction flows, operation classification, and features.

Every token event of an address becomes one flow event in one of eight
operation kinds: the four interaction categories (trading, LP, staking,
transferring) split by direction. A flow then collapses into an 8-slot
binary presence vector, and pairwise similarity is a weighted cosine.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from math import sqrt

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
_SLOT = {op: i for i, op in enumerate(OPERATION_ORDER)}

# Ops that reduce the liquid balance vs. ops that grow it.
OUTGOING_OPS = {OperationKind.SELL, OperationKind.LP_ADD, OperationKind.STAKE, OperationKind.SEND}


class WeightMismatchError(ValueError):
    pass


def classify_event(
    event,
    subject: Address,
    contracts: dict[Address, ContractInfo],
    trading_or_lp: str = "trading",
) -> tuple[OperationKind, str | None]:
    """Map one token event of `subject` to an operation kind.

    Returns (op, note). The note flags judgment calls: ambiguous
    trading-or-LP pools resolved by config, and contract-initiated events
    whose counterparty is missing from the dictionary (classified as a
    plain transfer by direction).
    """
    outgoing = event.sender == subject
    counterparty = event.receiver if outgoing else event.sender
    info = contracts.get(counterparty)
    if info is None:
        if event.kind == EventKind.INTERNAL_TX and not outgoing:
            # Contract-initiated payout from an address we cannot name.
            return (
                OperationKind.RECEIVE,
                f"unknown_contract:{counterparty}",
            )
        return (OperationKind.SEND if outgoing else OperationKind.RECEIVE, None)

    cat = info.category
    if cat == ContractCategory.TRADING_OR_LP:
        resolved = ContractCategory.TRADING_SWAP if trading_or_lp == "trading" else ContractCategory.LIQUIDITY_POOL
        note = f"ambiguous_trading_or_lp:{counterparty}"
        cat = resolved
    else:
        note = None

    if cat in (ContractCategory.TRADING_SWAP, ContractCategory.CEX):
        # CEX deposits/withdrawals count as trading: members cash out
        # through centralized venues just as they do through swap pools.
        return (OperationKind.SELL if outgoing else OperationKind.BUY, note)
    if cat == ContractCategory.STAKING:
        return (OperationKind.STAKE if outgoing else OperationKind.UNSTAKE, note)
    if cat == ContractCategory.LIQUIDITY_POOL:
        return (OperationKind.LP_ADD if outgoing else OperationKind.LP_REMOVE, note)
    # Airdrop payouts are receives (flagged as the claim by build_flow);
    # Other-category contracts behave like plain counterparties.
    return (OperationKind.SEND if outgoing else OperationKind.RECEIVE, note)


@dataclass(frozen=True, slots=True)
class FlowEvent:
    op: OperationKind
    counterparty: Address
    amount: int
    balance_after: int
    timestamp: int
    is_claim: bool = False


@dataclass
class TransactionFlow:
    address: Address
    events: list[FlowEvent] = field(default_factory=list)
    balance: int = 0
    staked: int = 0
    lp: int = 0
    notes: list[str] = field(default_factory=list)
    excluded: list[tuple[int, str]] = field(default_factory=list)  # (ts, reason)


def _apply(flow: TransactionFlow, op: OperationKind, amount: int, ts: int) -> bool:
    """Mutate positions for one event; False means the books would go
    negative and the event must be excluded, not clamped."""
    if op in (OperationKind.RECEIVE, OperationKind.BUY):
        flow.balance += amount
    elif op in (OperationKind.SELL, OperationKind.SEND):
        if flow.balance < amount:
            flow.excluded.append((ts, f"negative balance: {op.value} {amount} with {flow.balance} held"))
            return False
        flow.balance -= amount
    elif op == OperationKind.STAKE:
        if flow.balance < amount:
            flow.excluded.append((ts, f"negative balance: stake {amount} with {flow.balance} held"))
            return False
        flow.balance -= amount
        flow.staked += amount
    elif op == OperationKind.UNSTAKE:
        if flow.staked < amount:
            flow.excluded.append((ts, f"negative balance: unstake {amount} with {flow.staked} staked"))
            return False
        flow.staked -= amount
        flow.balance += amount
    elif op == OperationKind.LP_ADD:
        if flow.balance < amount:
            flow.excluded.append((ts, f"negative balance: lp_add {amount} with {flow.balance} held"))
            return False
        flow.balance -= amount
        flow.lp += amount
    elif op == OperationKind.LP_REMOVE:
        if flow.lp < amount:
            flow.excluded.append((ts, f"negative balance: lp_remove {amount} with {flow.lp} provided"))
            return False
        flow.lp -= amount
        flow.balance += amount
    return True


def build_flow(
    address: Address,
    store: EventStore,
    events=None,
    trading_or_lp: str = "trading",
) -> TransactionFlow:
    """Reconstruct the ordered operation flow of one address.

    Balance starts at zero; any event that would push a position negative
    is excluded and logged (inconsistent input). Receives from
    airdrop-category contracts are flagged as claim receipts.
    """
    if events is None:
        events = [
            e
            for e in store.events_of_kind(EventKind.TOKEN_TRANSFER)
            if address in (e.sender, e.receiver)
        ]
    flow = TransactionFlow(address)
    for ev in events:
        op, note = classify_event(ev, address, store.contracts, trading_or_lp)
        if note:
            flow.notes.append(note)
        incoming = ev.receiver == address
        info = store.contracts.get(ev.sender) if incoming else None
        is_claim = bool(incoming and info and info.category == ContractCategory.AIRDROP)
        if not _apply(flow, op, ev.value, ev.timestamp):
            continue
        counterparty = ev.sender if incoming else ev.receiver
        flow.events.append(
            FlowEvent(op, counterparty, ev.value, flow.balance, ev.timestamp, is_claim)
        )
    return flow


def build_flows(
    store: EventStore,
    addresses=None,
    trading_or_lp: str = "trading",
) -> dict[Address, TransactionFlow]:
    """Flow reconstruction for many addresses in one pass over the store."""
    by_addr: dict[Address, list] = defaultdict(list)
    for ev in store.events_of_kind(EventKind.TOKEN_TRANSFER):
        by_addr[ev.sender].append(ev)
        if ev.receiver != ev.sender:
            by_addr[ev.receiver].append(ev)
    if addresses is None:
        addresses = sorted(by_addr)
    return {
        addr: build_flow(addr, store, by_addr.get(addr, []), trading_or_lp)
        for addr in addresses
    }


UNIFORM_WEIGHTS: tuple[float, ...] = (1.0,) * N_FEATURES


@dataclass(frozen=True)
class FeatureVector:
    """8-slot binary operation presence with per-slot positive weights."""

    bits: tuple[int, ...]
    weights: tuple[float, ...] = UNIFORM_WEIGHTS

    def __post_init__(self):
        if len(self.bits) != N_FEATURES or len(self.weights) != N_FEATURES:
            raise ValueError(f"feature vectors have exactly {N_FEATURES} slots")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")

    def op_set(self) -> set[OperationKind]:
        return {OPERATION_ORDER[i] for i, b in enumerate(self.bits) if b}

    @classmethod
    def from_ops(cls, ops, weights: tuple[float, ...] = UNIFORM_WEIGHTS) -> "FeatureVector":
        bits = [0] * N_FEATURES
        for op in ops:
            bits[_SLOT[OperationKind(op)]] = 1
        return cls(tuple(bits), weights)


def extract_features(
    flow: TransactionFlow, weights: tuple[float, ...] = UNIFORM_WEIGHTS
) -> FeatureVector:
    """Bit j set iff the flow contains operation j at least once.

    The claim receipt itself does not set the receive bit -- every initial
    member has it, so it would carry no information; only post-claim
    receives count.
    """
    bits = [0] * N_FEATURES
    for ev in flow.events:
        if ev.op == OperationKind.RECEIVE and ev.is_claim:
            continue
        bits[_SLOT[ev.op]] = 1
    return FeatureVector(tuple(bits), tuple(weights))


def weighted_cosine_distance(a: FeatureVector, b: FeatureVector) -> float:
    """1 - weighted cosine similarity of the two presence vectors.

    Conventions: two all-zero vectors are at distance 0 (holding-only
    addresses form one behavior), a zero vector is at distance 1 from any
    non-zero vector. The result is clamped into [0, 1] against float noise
    so identical vectors always land exactly at 0.
    """
    if a.weights != b.weights:
        raise WeightMismatchError("feature vectors carry different weights")
    if a.bits == b.bits:
        return 0.0
    wa = [w * c for w, c in zip(a.weights, a.bits)]
    wb = [w * c for w, c in zip(b.weights, b.bits)]
    num = sum(x * y for x, y in zip(wa, wb))
    na = sqrt(sum(x * x for x in wa))
    nb = sqrt(sum(y * y for y in wb))
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    return min(max(1.0 - num / (na * nb), 0.0), 1.0)


def write_feature_matrix(entries, path) -> None:
    """CSV export (address + one column per operation slot) for external
    embedding or plotting."""
    artifacts.write_csv(
        ["address"] + [op.value for op in OPERATION_ORDER],
        ([addr, *vec.bits] for addr, vec in sorted(entries)),
        path,
    )
