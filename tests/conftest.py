import gc
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import airdrop_forensics
from airdrop_forensics.flows import OPERATION_ORDER, FeatureVector, OperationKind
from airdrop_forensics.graphs import (
    CommunityGraph, NodeClass, _add_events, _from_rows, attracting_counts,
)
from airdrop_forensics.ingest import (
    ClaimRecord,
    ContractCategory,
    ContractInfo,
    EventColumns,
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


def assert_addresses_shared(*records: EventColumns) -> None:
    """The EventColumns `records` hold one string for each address they
    name, across every sender and receiver column."""
    names = [a for c in records for a in (*c.senders, *c.receivers)]
    assert len({id(a) for a in names}) == len(set(names))


def claim(address: str, tier: Tier = Tier.T5200, ts: int = WINDOW_START + 86400):
    return ClaimRecord(address, tier, tier.amount, ts)


def contract(address: str, name: str, category: ContractCategory) -> ContractInfo:
    return ContractInfo(address, name, category)


def digraph(edges, nodes=(), node_class=NodeClass.LATER_MEMBER) -> CommunityGraph:
    """Build a CommunityGraph from (u, v[, weight]) tuples through the
    graph's own insertion loops: `nodes` first, in order, then one event
    per tuple, every node of `node_class`."""
    g = _from_rows(dict.fromkeys(nodes, node_class), [])
    events = [(edge[0], edge[1], edge[2] if len(edge) > 2 else 1, WINDOW_START + 86400)
              for edge in edges]
    _add_events(g, events, (), (), node_class)
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


def columns(events) -> EventColumns:
    """The EventColumns of `events`, in their order."""
    return EventColumns([e.sender for e in events], [e.receiver for e in events],
                        [e.value for e in events], [e.timestamp for e in events])


def stored(events, kinds=tuple(EventKind)) -> dict[EventKind, EventColumns]:
    """The columns read_store loads for `kinds` from a store of `events`:
    each kind's events, in their order, projected to the four fields."""
    return {kind: columns([e for e in events if e.kind == kind])
            for kind in EventKind if kind in kinds}


def dedup_key(event: TransferEvent) -> tuple:
    """The key build_event_store deduplicates events by (ingest._DEDUP_KEY)."""
    return (event.tx_hash, event.log_index, event.kind)


def run_stage(stage: str, config: Path, out: Path, *extra: str) -> None:
    """Run `stage` over the tree `out` as a process, `python -m
    airdrop_forensics.cli`, in a fresh interpreter that imports the
    package these tests import; it must exit 0."""
    src = str(Path(airdrop_forensics.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "airdrop_forensics.cli", stage, "--config", str(config),
         "--out", str(out), *extra],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 0, (stage, proc.stderr)


# The config of process_tree: seed 7, 120 claimants, and the eligibility
# overrides that perfbench's configs and CI's console-script run use.
PROCESS_CONFIG = {"synth": {"seed": 7, "population_total": 120},
                  "eligibility": {"interaction_window_days": 2, "min_tx_count": 5}}


@pytest.fixture(scope="session")
def process_tree(tmp_path_factory) -> Path:
    """A root holding config.json, PROCESS_CONFIG, and out/, the tree that
    synth, ingest, graph with daily slices and eligibility write for it,
    each stage run as a process. Tests that edit the tree copy it first."""
    root = tmp_path_factory.mktemp("process_tree")
    config = root / "config.json"
    config.write_text(json.dumps(PROCESS_CONFIG))
    for stage, *extra in (["synth"], ["ingest"], ["graph", "--slice-interval", "1"],
                          ["eligibility"]):
        run_stage(stage, config, root / "out", *extra)
    return root


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
