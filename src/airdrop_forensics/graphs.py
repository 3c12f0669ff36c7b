"""Directed weighted community graphs, weekly slices, and health metrics.

Two graphs matter: the token graph (who moved the governance token to
whom) and the external graph (plain value transfers, mostly pre-airdrop).
Parallel transfers between the same pair aggregate into a single weighted
edge, so every metric here is defined on the simple digraph.

Reciprocity and assortativity cost no per-edge Python code per slice.
Reciprocity reads two counters kept as edges land. Degree assortativity
reads two integer columns of edge endpoints kept the same way, and
computes it with numpy: degrees by `bincount`, and each float sum as a
strict left-to-right fold (`np.add.accumulate`) in edge order, so its
bits equal a plain Python loop's on every interpreter. Attracting
components are counted for all slices at once from the last slice's
graph, as each slice is a prefix of it in node and edge insertion order
(`attracting_counts`): O(V + E), plus Tarjan reruns inside the last
graph's nontrivial strongly connected components that changed.
"""

from __future__ import annotations

import json
import logging
import re
from array import array
from bisect import bisect_right
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from enum import Enum
from math import sqrt

import numpy as np

from . import artifacts
from .ingest import (
    Address,
    EventKind,
    EventStore,
    format_token_amount,
)

log = logging.getLogger(__name__)


class MetricUndefinedError(Exception):
    """Base for metric evaluations with no defined value."""


class UndefinedOnEmptyError(MetricUndefinedError):
    pass


class UndefinedOnDegenerateError(MetricUndefinedError):
    pass


class WindowEmptyError(artifacts.UserError):
    pass


class NodeClass(str, Enum):
    INITIAL_MEMBER = "initial_member"
    LATER_MEMBER = "later_member"
    CONTRACT = "contract"
    PLAIN = "plain"


@dataclass(slots=True)
class EdgeStats:
    total_value: int
    tx_count: int
    first_ts: int
    last_ts: int


class CommunityGraph:
    """Aggregated directed graph with classed nodes.

    nodes: address -> NodeClass. edges: (from, to) -> EdgeStats, with
    parallel events folded into one edge. Two counters kept as edges land
    give reciprocity without a scan: `_loops` self-loops, and `_mutual`
    non-loop edges whose reverse edge also exists. Each node gets the next
    integer id when it is inserted, and `_src`/`_dst` hold the ids of every
    edge's endpoints in edge insertion order, for the numpy metrics.
    """

    def __init__(self):
        self.nodes: dict[Address, NodeClass] = {}
        self.edges: dict[tuple[Address, Address], EdgeStats] = {}
        self._out: dict[Address, set[Address]] = {}
        self._in: dict[Address, set[Address]] = {}
        self._id: dict[Address, int] = {}
        self._src = array("q")
        self._dst = array("q")
        self._loops = 0
        self._mutual = 0

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def add_node(self, addr: Address, node_class: NodeClass) -> None:
        if addr not in self.nodes:
            self._id[addr] = len(self.nodes)
            self.nodes[addr] = node_class
            self._out[addr] = set()
            self._in[addr] = set()

    def add_edge_event(self, sender: Address, receiver: Address, value: int, ts: int) -> None:
        stats = self.edges.get((sender, receiver))
        if stats is None:
            self._put_edge(sender, receiver, EdgeStats(value, 1, ts, ts))
        else:
            stats.total_value += value
            stats.tx_count += 1
            stats.first_ts = min(stats.first_ts, ts)
            stats.last_ts = max(stats.last_ts, ts)

    def out_neighbors(self, addr: Address) -> set[Address]:
        return self._out.get(addr, set())

    def in_neighbors(self, addr: Address) -> set[Address]:
        return self._in.get(addr, set())

    def out_degree(self, addr: Address) -> int:
        return len(self._out.get(addr, ()))

    def in_degree(self, addr: Address) -> int:
        return len(self._in.get(addr, ()))

    def _put_edge(self, u: Address, v: Address, stats: EdgeStats) -> None:
        """Insert the edge (u, v), which must not be present yet. Every
        edge insertion goes through here, so the counters and the endpoint
        columns stay exact."""
        if u == v:
            self._loops += 1
        elif (v, u) in self.edges:
            self._mutual += 2  # (u, v) and its reverse both become mutual
        self.edges[(u, v)] = stats
        self._out[u].add(v)
        self._in[v].add(u)
        self._src.append(self._id[u])
        self._dst.append(self._id[v])

    def copy(self) -> "CommunityGraph":
        """Independent copy keeping node and edge insertion order."""
        dup = CommunityGraph()
        for addr, node_class in self.nodes.items():
            dup.add_node(addr, node_class)
        for (u, v), stats in self.edges.items():
            dup._put_edge(u, v, replace(stats))
        return dup

    def subgraphs(self, parts: list[list[Address]]) -> list["CommunityGraph"]:
        """Induced subgraphs on disjoint node lists, in one pass over edges.

        Each subgraph inserts its nodes in the order given and its edges in
        this graph's edge order.
        """
        subs = [CommunityGraph() for _ in parts]
        part_of: dict[Address, int] = {}
        for i, (sub, part) in enumerate(zip(subs, parts)):
            for addr in part:
                sub.add_node(addr, self.nodes[addr])
                part_of[addr] = i
        for (u, v), stats in self.edges.items():
            i = part_of.get(u)
            if i is not None and part_of.get(v) == i:
                subs[i]._put_edge(u, v, replace(stats))
        return subs


def _node_class_for(addr: Address, store: EventStore, default: NodeClass) -> NodeClass:
    if addr in store.claims:
        return NodeClass.INITIAL_MEMBER
    if addr in store.contracts:
        return NodeClass.CONTRACT
    return default


def _add_events(g: CommunityGraph, events, store: EventStore, default_class: NodeClass) -> None:
    nodes = g.nodes
    for ev in events:
        sender, receiver = ev.sender, ev.receiver
        # add_node keeps a node's first class, so only a new address is classed
        if sender not in nodes:
            g.add_node(sender, _node_class_for(sender, store, default_class))
        if receiver not in nodes:
            g.add_node(receiver, _node_class_for(receiver, store, default_class))
        g.add_edge_event(sender, receiver, ev.value, ev.timestamp)


def _build_graph(events, store: EventStore, default_class: NodeClass) -> CommunityGraph:
    g = CommunityGraph()
    _add_events(g, events, store, default_class)
    return g


def build_token_graph(store: EventStore) -> CommunityGraph:
    """Token transfer graph: claimants are initial members, dictionary
    addresses are contracts, everyone else holds the token later."""
    return _build_graph(
        store.events_of_kind(EventKind.TOKEN_TRANSFER), store, NodeClass.LATER_MEMBER
    )


def build_external_graph(store: EventStore) -> CommunityGraph:
    """External transaction graph; non-claimant, non-contract nodes are
    plain addresses (they hold no token position by construction)."""
    return _build_graph(
        store.events_of_kind(EventKind.EXTERNAL_TX), store, NodeClass.PLAIN
    )


@dataclass
class GraphSlice:
    cutoff: int
    graph: CommunityGraph


def iter_slices(
    store: EventStore,
    kind: EventKind = EventKind.TOKEN_TRANSFER,
    start: int | None = None,
    end: int | None = None,
    interval_days: int = 7,
) -> Iterator[GraphSlice]:
    """Grow one graph over the sorted events and yield it at every cutoff.

    Cutoffs are start + k * interval for k >= 1, plus a final cutoff at
    `end` when the window does not divide evenly, so a one-instant window
    (start == end) has the one cutoff `end`. Each slice contains all
    events with timestamp <= cutoff, added in store order, so node and edge
    sets are monotone across slices and each graph equals a from-scratch
    build of its events. The yielded graph is live: the next step extends
    it in place, so `copy()` it to keep it. Raises WindowEmptyError, when
    iteration starts, if no event falls in [start, end].
    """
    events = store.events_of_kind(kind)
    bounds = store.config.window_bounds()
    if start is None:
        start = bounds[0] if bounds else (events[0].timestamp if events else 0)
    if end is None:
        end = bounds[1] if bounds else (events[-1].timestamp if events else 0)
    if start > end:
        raise ValueError("window start must not follow end")
    in_window = [e for e in events if start <= e.timestamp <= end]
    if not in_window:
        raise WindowEmptyError(f"no {kind.value} events in [{start}, {end}]")

    interval = interval_days * 86400
    cutoffs = list(range(start + interval, end + 1, interval))
    if not cutoffs or cutoffs[-1] != end:
        cutoffs.append(end)

    default = NodeClass.LATER_MEMBER if kind == EventKind.TOKEN_TRANSFER else NodeClass.PLAIN
    graph = CommunityGraph()
    done = 0
    for cutoff in cutoffs:
        # the store is time-ordered, so the slice's events are a prefix
        upto = bisect_right(in_window, cutoff, lo=done, key=lambda e: e.timestamp)
        _add_events(graph, in_window[done:upto], store, default)
        done = upto
        yield GraphSlice(cutoff, graph)


def weekly_slices(
    store: EventStore,
    kind: EventKind = EventKind.TOKEN_TRANSFER,
    start: int | None = None,
    end: int | None = None,
    interval_days: int = 7,
) -> list[GraphSlice]:
    """The slices of `iter_slices`, each materialised as an independent
    snapshot. Holds every slice graph at once; stream `iter_slices`
    instead when one slice at a time is enough."""
    return [
        GraphSlice(sl.cutoff, sl.graph.copy())
        for sl in iter_slices(store, kind, start, end, interval_days)
    ]


def reciprocity(graph: CommunityGraph) -> float:
    """Fraction of directed edges whose reverse edge also exists.

    Self-loops are excluded from both counts, which the graph keeps as
    edges are inserted, so this costs O(1).
    """
    non_loops = graph.n_edges - graph._loops
    if not non_loops:
        raise UndefinedOnEmptyError("reciprocity needs at least one non-loop edge")
    return graph._mutual / non_loops


def _left_fold(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., added strictly left to right:
    `np.add.accumulate` never reorders, unlike `np.sum`'s pairwise sum."""
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def _deviations(degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge deviations from the mean degree, and their squares.

    Each is computed once per distinct degree in Python, as `x - mean` and
    `d ** 2` (whose bits can differ from `d * d`), then looked up per edge.
    Raises UndefinedOnDegenerateError when every degree is the same.
    """
    distinct = np.flatnonzero(np.bincount(degrees)).tolist()
    if len(distinct) == 1:
        raise UndefinedOnDegenerateError("zero variance in a degree marginal")
    mean = int(degrees.sum()) / len(degrees)  # integer sum: exact
    deviation = np.zeros(distinct[-1] + 1)
    square = np.zeros(distinct[-1] + 1)
    for x in distinct:
        d = x - mean
        deviation[x] = d
        square[x] = d ** 2
    return deviation[degrees], square[degrees]


def degree_assortativity(graph: CommunityGraph) -> float:
    """Pearson correlation of out-degree(source) with in-degree(target)
    over directed edges.

    Degrees come from the aggregated simple digraph. Raises
    UndefinedOnDegenerateError when either marginal has zero variance.

    The degrees are counted from the graph's endpoint columns, and the
    sums run over the edges in insertion order as strict left folds, so
    the value has the same bits as plain Python loops over the edges on
    every interpreter (builtin `sum` compensates from Python 3.12 on).
    """
    if graph.n_edges < 2:
        raise UndefinedOnDegenerateError("assortativity needs at least two edges")
    # np.array copies: a view would pin the arrays' buffers, and the next
    # edge appended to the live slice graph would raise BufferError
    src, dst = np.array(graph._src), np.array(graph._dst)
    n = graph.n_nodes
    dx, sx = _deviations(np.bincount(src, minlength=n)[src])
    dy, sy = _deviations(np.bincount(dst, minlength=n)[dst])
    cov = _left_fold(dx * dy)
    return cov / sqrt(_left_fold(sx) * _left_fold(sy))


def _tarjan(
    successors: Mapping[Hashable, Iterable[Hashable]], roots: Iterable[Hashable]
) -> Iterator[list[Hashable]]:
    """Iterative Tarjan over the nodes reachable from `roots`, where
    `successors` maps a node to its out-neighbours (a node it lacks has
    none). Yields each strongly connected component, unsorted, as it closes."""
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    counter = 0

    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors.get(root, ())))]
        while work:
            node, succs = work[-1]
            advanced = False
            for succ in succs:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                yield comp
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])


def _closed_components(edges: Iterable[tuple[int, int]], members: set[int]) -> int:
    """Components of two or more nodes that no edge leaves, in the graph of
    `edges`, whose sources all lie in `members`."""
    inner: dict[int, list[int]] = {}
    leaks = set()
    for u, v in edges:
        if v in members:
            inner.setdefault(u, []).append(v)
        else:
            leaks.add(u)
    count = 0
    for comp in _tarjan(inner, inner):
        if len(comp) > 1 and leaks.isdisjoint(comp):
            closed = set(comp)
            count += all(closed.issuperset(inner[u]) for u in comp)
    return count


def attracting_counts(
    graph: CommunityGraph, nodes: Sequence[int], edges: Sequence[int]
) -> list[int]:
    """Attracting components (terminal strongly connected components: once
    a random walker enters one, no out-edge leaves it) of each prefix of
    `graph`. Prefix k holds the first `nodes[k]` nodes and the first
    `edges[k]` edges in insertion order; neither may decrease with k, and
    every edge of a prefix must join nodes of that prefix.

    A single node is attracting while it has no out-edge other than a
    self-loop, so one pass over the edges, finding each node's first other
    out-edge, counts those nodes in every prefix. A component of two or
    more nodes is strongly connected in the whole graph too, so it lies
    inside one of the whole graph's components of two or more nodes. At
    each prefix, Tarjan reruns only inside those of them that gained an
    out-edge since the prefix before, on their edges so far. The cost is
    O(V + E) plus that rerun work.
    """
    n = np.asarray(nodes, dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64)
    if (np.diff(n) < 0).any() or (np.diff(e) < 0).any() or (n > graph.n_nodes).any() \
            or (e > graph.n_edges).any():
        raise ValueError("prefixes must not shrink and must lie within the graph")
    src, dst = np.array(graph._src, dtype=np.int64), np.array(graph._dst, dtype=np.int64)
    moves = np.flatnonzero(src != dst)
    _, first = np.unique(src[moves], return_index=True)
    leaves_at = np.sort(moves[first])  # each node's first non-loop out-edge
    counts = n - np.searchsorted(leaves_at, e)

    comp_of = np.full(graph.n_nodes, -1, dtype=np.int64)
    members: list[set[int]] = []
    for comp in _tarjan(graph._out, graph.nodes):
        if len(comp) > 1:
            ids = {graph._id[a] for a in comp}
            comp_of[list(ids)] = len(members)
            members.append(ids)
    if not members:
        return counts.tolist()

    # the edges out of each such component, with their positions, in edge order
    owner_of = comp_of[src]
    owned = np.flatnonzero(owner_of >= 0)
    owner = owner_of[owned]
    by_owner = np.argsort(owner, kind="stable")
    splits = np.searchsorted(owner[by_owner], np.arange(1, len(members)))
    positions = np.split(owned[by_owner], splits)
    pairs = [list(zip(src[at].tolist(), dst[at].tolist())) for at in positions]
    closed = [0] * len(members)
    total = 0
    for k, (lo, hi) in enumerate(zip([0, *e[:-1].tolist()], e.tolist())):
        a, b = np.searchsorted(owned, [lo, hi])
        for c in set(owner[a:b].tolist()):
            count = _closed_components(pairs[c][: np.searchsorted(positions[c], hi)], members[c])
            total += count - closed[c]
            closed[c] = count
        counts[k] += total
    return counts.tolist()


@dataclass
class MetricSeries:
    cutoffs: list[int] = field(default_factory=list)
    reciprocity: list[float | None] = field(default_factory=list)
    assortativity: list[float | None] = field(default_factory=list)
    attracting: list[int] = field(default_factory=list)
    nodes: list[int] = field(default_factory=list)
    edges: list[int] = field(default_factory=list)

    def to_json_rows(self) -> list[dict]:
        rows = []
        for i, cutoff in enumerate(self.cutoffs):
            rows.append(
                {
                    "cutoff": _iso(cutoff),
                    "cutoff_ts": cutoff,
                    "reciprocity": self.reciprocity[i],
                    "assortativity": self.assortativity[i],
                    "attracting_components": self.attracting[i],
                    "nodes": self.nodes[i],
                    "edges": self.edges[i],
                }
            )
        return rows


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def metric_series(slices: Iterable[GraphSlice]) -> MetricSeries:
    """Evaluate all four panels per slice; undefined metrics become None.

    Iterates `slices` once, so it can consume `iter_slices` directly.
    Attracting components are counted after the last slice, from its graph
    (`attracting_counts`), so every slice's graph must hold a prefix of the
    last slice's nodes and edges in insertion order. The slices of
    `iter_slices` (one growing graph) and of `weekly_slices` (copies in
    that order) do.
    """
    series = MetricSeries()
    graph = None
    for sl in slices:
        graph = sl.graph
        series.cutoffs.append(sl.cutoff)
        try:
            series.reciprocity.append(reciprocity(graph))
        except MetricUndefinedError:
            series.reciprocity.append(None)
        try:
            series.assortativity.append(degree_assortativity(graph))
        except MetricUndefinedError:
            series.assortativity.append(None)
        series.nodes.append(graph.n_nodes)
        series.edges.append(graph.n_edges)
    if graph is not None:
        series.attracting = attracting_counts(graph, series.nodes, series.edges)
    return series


# Exports. Edge weight is the aggregate value in display token units;
# node_class rides along as an attribute for coloring.

_DOT_COLORS = {
    NodeClass.INITIAL_MEMBER: "orange",
    NodeClass.LATER_MEMBER: "skyblue",
    NodeClass.CONTRACT: "gray",
    NodeClass.PLAIN: "white",
}


def _xml_escape(text: str) -> str:
    """`text` as a double-quoted XML attribute value holds it:
    xml.sax.saxutils.escape(text, {'"': "&quot;"}), whose module imports
    urllib. On an address, four replaces take less than half the time of
    one str.translate."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


_DOT_UNSAFE_RUN = re.compile(r'(\\*)("|\n|\Z)')


def _dot_run(m: re.Match) -> str:
    run = m[1] + "\\" * (len(m[1]) % 2)
    return run + "\\" + m[2] if m[2] == '"' else run + m[2]


def _dot_escape(text: str) -> str:
    """`text` as a double-quoted DOT id holds it. DOT escapes only '"'
    inside quotes, as '\\"'; a backslash stands for itself, but Graphviz
    reads two backslashes as one unit and drops a backslash before a
    newline, so an odd run of backslashes before a '"', a newline or the
    end of the id would swallow what follows. Such a run gets one more
    backslash: the id reads back one longer there, but the file stays
    well-formed. Every other id reads back unchanged."""
    if '"' not in text and "\\\n" not in text and text[-1:] != "\\":
        return text
    return _DOT_UNSAFE_RUN.sub(_dot_run, text)


GraphOrder = tuple[list[Address], list[tuple[Address, Address]]]


def sorted_order(graph: CommunityGraph) -> GraphOrder:
    """The nodes and the edges of `graph` in the sorted order every writer
    lists them in. A caller that writes one graph in two formats sorts it
    once and passes the order to both writers."""
    return sorted(graph.nodes), sorted(graph.edges)


# Rows per chunk of text the graph writers render and write at a time. A
# graphml edge is about 230 characters, so each chunk stays under glibc's
# 128 KiB mmap threshold (see ingest._CHUNK), and a writer holds one chunk,
# not the whole file.
_BATCH = 256


def _batches(rows: list) -> Iterator[list]:
    return (rows[i:i + _BATCH] for i in range(0, len(rows), _BATCH))


_GRAPHML_HEAD = """\
<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="node_class" attr.type="string"/>
  <key id="d1" for="edge" attr.name="weight" attr.type="double"/>
  <key id="d2" for="edge" attr.name="tx_count" attr.type="int"/>
  <graph edgedefault="directed">
"""


def _graphml_chunks(graph: CommunityGraph, nodes: list, edges: list) -> Iterator[str]:
    yield _GRAPHML_HEAD
    for batch in _batches(nodes):
        yield "".join(
            f'    <node id="{_xml_escape(addr)}">\n'
            f'      <data key="d0">{graph.nodes[addr].value}</data>\n'
            "    </node>\n"
            for addr in batch
        )
    for batch in _batches(edges):
        yield "".join(
            f'    <edge source="{_xml_escape(u)}" target="{_xml_escape(v)}">\n'
            f'      <data key="d1">{format_token_amount(stats.total_value)}</data>\n'
            f'      <data key="d2">{stats.tx_count}</data>\n'
            "    </edge>\n"
            for (u, v), stats in zip(batch, map(graph.edges.__getitem__, batch))
        )
    yield "  </graph>\n</graphml>\n"


def _dot_chunks(graph: CommunityGraph, name: str, nodes: list, edges: list) -> Iterator[str]:
    yield f"digraph {name} {{\n  node [style=filled];\n"
    for batch in _batches(nodes):
        yield "".join(
            f'  "{_dot_escape(addr)}" [node_class="{cls.value}", '
            f'fillcolor="{_DOT_COLORS[cls]}"];\n'
            for addr, cls in zip(batch, map(graph.nodes.__getitem__, batch))
        )
    for batch in _batches(edges):
        yield "".join(
            f'  "{_dot_escape(u)}" -> "{_dot_escape(v)}" '
            f'[weight="{format_token_amount(stats.total_value)}", '
            f'tx_count="{stats.tx_count}"];\n'
            for (u, v), stats in zip(batch, map(graph.edges.__getitem__, batch))
        )
    yield "}\n"


def write_graph(graph: CommunityGraph, path, fmt: str = "graphml", name: str = "community",
                order: GraphOrder | None = None) -> None:
    """Write `graph` as graphml or dot, in sorted order, a batch of rows at a time."""
    if fmt not in ("graphml", "dot"):
        raise ValueError(f"unsupported graph format {fmt!r}")
    nodes, edges = order or sorted_order(graph)
    chunks = (_graphml_chunks(graph, nodes, edges) if fmt == "graphml"
              else _dot_chunks(graph, name, nodes, edges))
    with artifacts.open_for_write(path) as fh:
        fh.writelines(chunks)


# Canonical JSON round-trip used for stage artifacts between CLI commands:
# {"edges": [[u, v, total_value, tx_count, first_ts, last_ts], ...],
#  "nodes": [[address, node_class], ...]}, each list in sorted order.

def _json_rows(batches: Iterator[list]) -> Iterator[str]:
    """The JSON text of the rows of `batches`, comma-separated, without the
    list's brackets."""
    for i, batch in enumerate(batches):
        yield ("," if i else "") + json.dumps(batch, separators=(",", ":"))[1:-1]


def write_graph_json(graph: CommunityGraph, path, order: GraphOrder | None = None) -> None:
    """Write the graph JSON of `graph` a batch of rows at a time: sorted
    keys, no whitespace, and a final newline."""
    nodes, edges = order or sorted_order(graph)
    edge_rows = (
        [[u, v, s.total_value, s.tx_count, s.first_ts, s.last_ts]
         for (u, v), s in zip(batch, map(graph.edges.__getitem__, batch))]
        for batch in _batches(edges)
    )
    node_rows = ([[a, graph.nodes[a].value] for a in batch] for batch in _batches(nodes))
    with artifacts.open_for_write(path) as fh:
        fh.write('{"edges":[')
        fh.writelines(_json_rows(edge_rows))
        fh.write('],"nodes":[')
        fh.writelines(_json_rows(node_rows))
        fh.write("]}\n")


def graph_from_json(payload: dict) -> CommunityGraph:
    """The graph of a graph JSON payload. Each edge endpoint is the node's
    own key string, not the equal copy json made for every occurrence."""
    g = CommunityGraph()
    for addr, cls in payload["nodes"]:
        g.add_node(addr, NodeClass(cls))
    key = {addr: addr for addr in g.nodes}
    for u, v, total, count, first_ts, last_ts in payload["edges"]:
        g._put_edge(key[u], key[v], EdgeStats(total, count, first_ts, last_ts))
    return g


def load_graph_json(path) -> CommunityGraph:
    """The graph a graph JSON file holds; JSON of another shape is an
    unreadable artifact, like one that does not parse."""
    payload = artifacts.read_json(path)
    try:
        return graph_from_json(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise artifacts.unreadable(path, f"not a graph: {exc!r}") from exc
