import gc
import itertools

import pytest

from airdrop_forensics.flows import OPERATION_ORDER, FeatureVector, OperationKind
from airdrop_forensics.graphs import CommunityGraph, NodeClass, attracting_counts
from airdrop_forensics.ingest import (
    ClaimRecord,
    ContractCategory,
    ContractInfo,
    EventKind,
    IngestConfig,
    Tier,
    TransferEvent,
    build_event_store,
)

# Window used throughout the tests (the default study window).
WINDOW_START = 1636934400  # 2021-11-15 00:00:00 UTC
WINDOW_END = 1649894399  # 2022-04-13 23:59:59 UTC

_counter = itertools.count(1)


def addr(i: int) -> str:
    return f"0x{i:040x}"


def txid() -> str:
    return f"0x{next(_counter):064x}"


def ev(
    sender: str,
    receiver: str,
    value: int,
    ts: int = WINDOW_START + 86400,
    kind: EventKind = EventKind.TOKEN_TRANSFER,
    block: int | None = None,
    tx_hash: str | None = None,
    log_index: int = 0,
) -> TransferEvent:
    return TransferEvent(
        tx_hash or txid(), sender, receiver, value, ts,
        block if block is not None else (ts - WINDOW_START) // 13,
        kind, log_index,
    )


def make_store(token_events=(), external_events=(), contracts=(), claims=(), config=None):
    return build_event_store(
        list(token_events), list(external_events), list(contracts), list(claims),
        config or IngestConfig(),
    )


def assert_addresses_shared(events) -> None:
    """Events that name one address hold one string for it."""
    names = [a for e in events for a in (e.sender, e.receiver)]
    assert len({id(a) for a in names}) == len(set(names))


def claim(address: str, tier: Tier = Tier.T5200, ts: int = WINDOW_START + 86400):
    return ClaimRecord(address, tier, tier.amount, ts)


def contract(address: str, name: str, category: ContractCategory) -> ContractInfo:
    return ContractInfo(address, name, category)


def digraph(edges, nodes=(), node_class=NodeClass.LATER_MEMBER) -> CommunityGraph:
    """Build a CommunityGraph straight from (u, v[, weight]) tuples."""
    g = CommunityGraph()
    for n in nodes:
        g.add_node(n, node_class)
    for edge in edges:
        u, v = edge[0], edge[1]
        w = edge[2] if len(edge) > 2 else 1
        g.add_node(u, node_class)
        g.add_node(v, node_class)
        g.add_edge_event(u, v, w, WINDOW_START + 86400)
    return g


def attracting_components(graph: CommunityGraph) -> int:
    """`attracting_counts` of the whole graph, its one-prefix case."""
    return attracting_counts(graph, [graph.n_nodes], [graph.n_edges])[0]


def merge_heights(dendrogram) -> list[float]:
    """The merge heights of `dendrogram`, in merge order."""
    return [m.height for m in dendrogram.merges]


def from_ops(ops) -> FeatureVector:
    """The feature vector with the bit of each operation in `ops` set."""
    kinds = {OperationKind(op) for op in ops}
    return FeatureVector(tuple(int(op in kinds) for op in OPERATION_ORDER))


def dedup_key(event: TransferEvent) -> tuple:
    """The key build_event_store deduplicates events by (ingest._DEDUP_KEY)."""
    return (event.tx_hash, event.log_index, event.kind)


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fail a test that leaves the cyclic collector off or objects frozen,
    and undo it, so that no stage's collector state reaches later tests."""
    yield
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.enable()
    gc.unfreeze()
    assert enabled, "the test left the cyclic garbage collector disabled"
    assert frozen == 0, f"the test left {frozen} objects frozen (gc.freeze)"


@pytest.fixture
def airdrop_contract():
    return contract(addr(9001), "airdrop distributor", ContractCategory.AIRDROP)


@pytest.fixture
def router_contract():
    return contract(addr(9002), "dex router", ContractCategory.TRADING_SWAP)


@pytest.fixture
def staking_contract():
    return contract(addr(9003), "staking pool 3", ContractCategory.STAKING)


@pytest.fixture
def lp_contract():
    return contract(addr(9004), "lp pool", ContractCategory.LIQUIDITY_POOL)
