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
(`attracting_counts`). Tarjan runs once on the last graph, after numpy
trims edges that lie on no cycle, then offline, O(log S) times per edge
inside the cycles it found, to find when each edge's endpoints become
strongly connected; one union-find sweep over the S slices then counts
the closed components: O((V + E) log S) in all.
"""

from __future__ import annotations

import json
import logging
import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Container, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from itertools import islice
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

    def out_neighbors(self, addr: Address) -> set[Address]:
        return self._out.get(addr, set())

    def in_neighbors(self, addr: Address) -> set[Address]:
        return self._in.get(addr, set())

    def out_degree(self, addr: Address) -> int:
        return len(self._out.get(addr, ()))

    def in_degree(self, addr: Address) -> int:
        return len(self._in.get(addr, ()))

    def copy(self) -> "CommunityGraph":
        """Independent copy keeping node and edge insertion order."""
        return _from_rows(dict(self.nodes), [
            (u, v, s.total_value, s.tx_count, s.first_ts, s.last_ts)
            for (u, v), s in self.edges.items()])

    def subgraphs(self, parts: list[list[Address]]) -> list["CommunityGraph"]:
        """Induced subgraphs on disjoint node lists, in one pass over edges.

        Each subgraph inserts its nodes in the order given and its edges in
        this graph's edge order.
        """
        part_of = {addr: i for i, part in enumerate(parts) for addr in part}
        rows: list[list] = [[] for _ in parts]
        for (u, v), s in self.edges.items():
            i = part_of.get(u)
            if i is not None and part_of.get(v) == i:
                rows[i].append((u, v, s.total_value, s.tx_count, s.first_ts, s.last_ts))
        classes = self.nodes
        return [_from_rows({addr: classes[addr] for addr in part}, part_rows)
                for part, part_rows in zip(parts, rows)]


# The two insertion loops. Every graph is built by one of them, inline,
# with no graph method called per node or edge, and each keeps the
# counters, the adjacency sets, the node ids and the endpoint columns
# exact: a new edge (u, v) adds one to `_loops` when u == v, and two to
# `_mutual` when its reverse is already present.

def _from_rows(nodes: dict[Address, NodeClass], rows: list[Sequence]) -> CommunityGraph:
    """The graph of `nodes`, in their order, and of the edge `rows`, each
    (u, v, total_value, tx_count, first_ts, last_ts) in insertion order.
    Each endpoint becomes the node's own key string. Takes `nodes` over.
    KeyError if an edge names a node not in `nodes`, ValueError if a row
    is not six cells or an edge comes twice."""
    g = CommunityGraph()
    g.nodes = nodes
    edges, ids, out, inn = g.edges, g._id, g._out, g._in
    key: dict[Address, Address] = {}
    # a loop, not a dict per field: most graphs built here are components
    # of a few nodes, where building a zip per dict costs more
    for i, addr in enumerate(nodes):
        ids[addr] = i
        out[addr] = set()
        inn[addr] = set()
        key[addr] = addr
    src, dst = g._src.append, g._dst.append
    loops = mutual = 0
    for u, v, total, tx_count, first_ts, last_ts in rows:
        u, v = key[u], key[v]
        if u == v:
            loops += 1
        elif (v, u) in edges:
            mutual += 2
        edges[u, v] = EdgeStats(total, tx_count, first_ts, last_ts)
        out[u].add(v)
        inn[v].add(u)
        src(ids[u])
        dst(ids[v])
    if len(edges) != len(rows):
        raise ValueError("an edge comes twice")
    g._loops, g._mutual = loops, mutual
    return g


def _add_events(g: CommunityGraph, events: Iterable[tuple[Address, Address, int, int]],
                claims: Container[Address], contracts: Container[Address],
                default: NodeClass) -> None:
    """Fold `events`, in order, into `g`. Each is a (sender, receiver,
    value, timestamp) tuple, as zip(*columns) gives an EventColumns' rows.
    A new address is a node of the class of its first event: an initial
    member if it is in `claims`, else a contract if it is in `contracts`,
    else `default`. An event adds its value and one transaction to the
    edge (sender, receiver), and widens the edge's first and last
    timestamps to its own, whatever the order of events."""
    nodes, edges, ids, out, inn = g.nodes, g.edges, g._id, g._out, g._in
    src, dst = g._src.append, g._dst.append
    stats_of = edges.get
    initial, contract = NodeClass.INITIAL_MEMBER, NodeClass.CONTRACT
    loops = mutual = 0
    for u, v, value, ts in events:
        if u not in nodes:
            ids[u] = len(nodes)
            nodes[u] = initial if u in claims else contract if u in contracts else default
            out[u] = set()
            inn[u] = set()
        if v not in nodes:
            ids[v] = len(nodes)
            nodes[v] = initial if v in claims else contract if v in contracts else default
            out[v] = set()
            inn[v] = set()
        stats = stats_of((u, v))
        if stats is None:
            if u == v:
                loops += 1
            elif (v, u) in edges:
                mutual += 2
            edges[u, v] = EdgeStats(value, 1, ts, ts)
            out[u].add(v)
            inn[v].add(u)
            src(ids[u])
            dst(ids[v])
        else:
            stats.total_value += value
            stats.tx_count += 1
            if ts < stats.first_ts:
                stats.first_ts = ts
            elif ts > stats.last_ts:
                stats.last_ts = ts
    g._loops += loops
    g._mutual += mutual


def _build_graph(events, store: EventStore, default_class: NodeClass) -> CommunityGraph:
    g = CommunityGraph()
    _add_events(g, events, store.claims, store.contracts, default_class)
    return g


def build_token_graph(store: EventStore) -> CommunityGraph:
    """Token transfer graph: claimants are initial members, dictionary
    addresses are contracts, everyone else holds the token later."""
    return _build_graph(
        zip(*store.columns_of(EventKind.TOKEN_TRANSFER)), store, NodeClass.LATER_MEMBER
    )


def build_external_graph(store: EventStore) -> CommunityGraph:
    """External transaction graph; non-claimant, non-contract nodes are
    plain addresses (they hold no token position by construction)."""
    return _build_graph(
        zip(*store.columns_of(EventKind.EXTERNAL_TX)), store, NodeClass.PLAIN
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
    columns = store.columns_of(kind)
    timestamps = columns.timestamps
    bounds = store.config.window_bounds()
    if start is None:
        start = bounds[0] if bounds else (timestamps[0] if timestamps else 0)
    if end is None:
        end = bounds[1] if bounds else (timestamps[-1] if timestamps else 0)
    if start > end:
        raise ValueError("window start must not follow end")
    # the store is time-ordered, so the window is one run of it
    lo = bisect_left(timestamps, start)
    hi = bisect_right(timestamps, end, lo)
    if lo == hi:
        raise WindowEmptyError(f"no {kind.value} events in [{start}, {end}]")

    interval = interval_days * 86400
    cutoffs = list(range(start + interval, end + 1, interval))
    if not cutoffs or cutoffs[-1] != end:
        cutoffs.append(end)

    default = NodeClass.LATER_MEMBER if kind == EventKind.TOKEN_TRANSFER else NodeClass.PLAIN
    graph = CommunityGraph()
    events = islice(zip(*columns), lo, hi)
    done = lo
    for cutoff in cutoffs:
        # the slice's events are a prefix of the window's
        upto = bisect_right(timestamps, cutoff, done, hi)
        _add_events(graph, islice(events, upto - done), store.claims, store.contracts, default)
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


def _find(parent: list[int], x: int) -> int:
    """The root of x's set in the union-find forest `parent`, halving the
    path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _cycle_components(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """For each of `n` nodes, the number of its strongly connected component
    of two or more nodes in the graph of the non-loop edges (src, dst), or
    -1 if it lies in none.

    No edge on a cycle leaves a node without in-edges or enters one without
    out-edges, so a pass drops every such edge first. Passes repeat only
    while one drops at least half of the edges left, which keeps their
    total work under twice the edges, and Tarjan runs on what is left."""
    while len(src):
        live = (np.bincount(dst, minlength=n) > 0)[src] & (np.bincount(src, minlength=n) > 0)[dst]
        src, dst = src[live], dst[live]
        if 2 * len(src) > len(live):
            break
    successors: dict[int, list[int]] = {}
    for u, v in zip(src.tolist(), dst.tolist()):
        successors.setdefault(u, []).append(v)
    comp_of = np.full(n, -1, dtype=np.int64)
    cycles = (comp for comp in _tarjan(successors, successors) if len(comp) > 1)
    for k, comp in enumerate(cycles):
        comp_of[comp] = k
    return comp_of


def _merge_times(src: list[int], dst: list[int], lands: list[int], n_prefixes: int,
                 n_nodes: int) -> list[int]:
    """For each edge i, which the prefixes hold from prefix lands[i] on, the
    first prefix from lands[i] on in which src[i] and dst[i] are strongly
    connected, or `n_prefixes` if none is.

    Offline divide and conquer over prefix indices: a call on [lo, hi]
    gets the edges whose answer lies in it, with the union-find forest
    holding every merge before lo. Tarjan runs once, on the forest's roots
    of the edges prefix mid holds; an edge whose roots share a component
    there goes left, the others go right. An edge whose endpoints already
    share a root merges when it lands, and a leaf unions its edges'
    endpoints, so each edge takes part in O(log S) Tarjan calls."""
    parent = list(range(n_nodes))
    merged = [n_prefixes] * len(src)

    def solve(lo: int, hi: int, group: list[int]) -> None:
        pending = []  # (edge, root of its source, root of its target)
        for i in group:
            a, b = _find(parent, src[i]), _find(parent, dst[i])
            if a == b:
                merged[i] = lands[i]
            else:
                pending.append((i, a, b))
        if lo == hi:  # lo == n_prefixes: they never merge, and nothing reads the forest after
            for i, _, _ in pending:
                merged[i] = lo
                parent[_find(parent, src[i])] = _find(parent, dst[i])
            return
        mid = (lo + hi) // 2
        successors: dict[int, list[int]] = {}
        for i, a, b in pending:
            if lands[i] <= mid:
                successors.setdefault(a, []).append(b)
        component: dict[int, int] = {}
        for k, comp in enumerate(_tarjan(successors, successors)):
            component.update(dict.fromkeys(comp, k))
        left, right = [], []
        for i, a, b in pending:
            joined = lands[i] <= mid and component[a] == component[b]
            (left if joined else right).append(i)
        if left:
            solve(lo, mid, left)
        if right:
            solve(mid + 1, hi, right)

    solve(0, n_prefixes, list(range(len(src))))
    return merged


def _closed_counts(src: list[int], dst: list[int], lands: list[int], merged: list[int],
                   n_prefixes: int, n_nodes: int) -> list[int]:
    """Components of two or more nodes that no edge leaves, in each prefix,
    given every non-loop edge out of the whole graph's components of two
    or more nodes: the prefix it lands in, and the prefix its endpoints
    merge in as `_merge_times` gives it (`n_prefixes`: never).

    One sweep over the prefixes in order with union-find: each component
    keeps the number of its out-edges that leave it, an edge counting from
    when it lands until its endpoints merge, and a running total counts the
    components of two or more nodes where that number is 0."""
    parent = list(range(n_nodes))
    size = [1] * n_nodes
    leaving = [0] * n_nodes
    landing: list[list[int]] = [[] for _ in range(n_prefixes)]
    merging: list[list[int]] = [[] for _ in range(n_prefixes)]
    for i, (at, joined) in enumerate(zip(lands, merged)):
        if at < joined:
            landing[at].append(i)
        if joined < n_prefixes:
            merging[joined].append(i)

    def closed(root: int) -> bool:
        return size[root] > 1 and not leaving[root]

    total, counts = 0, []
    for k in range(n_prefixes):
        for i in landing[k]:
            a = _find(parent, src[i])
            total -= closed(a)
            leaving[a] += 1
        for i in merging[k]:
            a, b = _find(parent, src[i]), _find(parent, dst[i])
            total -= closed(a) + (a != b and closed(b))
            leaving[a] -= lands[i] < k
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                leaving[a] += leaving[b]
            total += closed(a)
        counts.append(total)
    return counts


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
    inside one of the whole graph's components of two or more nodes
    (`_cycle_components`). Only the edges inside those can ever be on a
    cycle: `_merge_times` finds, for each, the first prefix in which its
    endpoints are strongly connected, and `_closed_counts` sweeps the
    prefixes once with union-find. The cost is O((V + E) log S) for S
    prefixes, and Tarjan never reruns once per prefix.
    """
    n = np.asarray(nodes, dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64)
    if (np.diff(n) < 0).any() or (np.diff(e) < 0).any() or (n > graph.n_nodes).any() \
            or (e > graph.n_edges).any():
        raise ValueError("prefixes must not shrink and must lie within the graph")
    src, dst = np.array(graph._src, dtype=np.int64), np.array(graph._dst, dtype=np.int64)
    # the highest node that the first i + 1 edges name, read at each prefix's last edge
    named = np.maximum.accumulate(np.maximum(src, dst))
    held = e > 0
    if (named[e[held] - 1] >= n[held]).any():
        raise ValueError("every edge of a prefix must join nodes of that prefix")
    moves = np.flatnonzero(src != dst)
    _, first = np.unique(src[moves], return_index=True)
    leaves_at = np.sort(moves[first])  # each node's first non-loop out-edge
    counts = n - np.searchsorted(leaves_at, e)

    comp_of = _cycle_components(src[moves], dst[moves], graph.n_nodes)
    # the non-loop edges out of those components, in edge order
    owned = moves[comp_of[src[moves]] >= 0]
    if not len(owned) or not len(e):
        return counts.tolist()
    s, d = src[owned], dst[owned]
    lands = np.searchsorted(e, owned, side="right")  # the first prefix holding each edge
    merged = np.full(len(owned), len(e))
    inner = np.flatnonzero(comp_of[s] == comp_of[d])
    merged[inner] = _merge_times(s[inner].tolist(), d[inner].tolist(), lands[inner].tolist(),
                                 len(e), graph.n_nodes)
    closed = _closed_counts(s.tolist(), d.tolist(), lands.tolist(), merged.tolist(),
                            len(e), graph.n_nodes)
    return (counts + closed).tolist()


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
    urllib. Text that holds none of the four characters it escapes, as
    every hex address, is returned as it is; on other text, four replaces
    take less than half the time of one str.translate."""
    if "&" not in text and "<" not in text and ">" not in text and '"' not in text:
        return text
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


_NODE_CLASSES = {c.value: c for c in NodeClass}


def graph_from_json(payload: dict) -> CommunityGraph:
    """The graph of a graph JSON payload. Each edge endpoint is the node's
    own key string, not the equal copy json made for every occurrence. A
    payload that repeats a node or an edge, names an unknown class or
    endpoint, or holds a row of another shape raises KeyError, TypeError or
    ValueError."""
    classes = dict(payload["nodes"])
    if len(classes) != len(payload["nodes"]):
        raise ValueError("a node comes twice")
    nodes = dict(zip(classes, map(_NODE_CLASSES.__getitem__, classes.values())))
    return _from_rows(nodes, payload["edges"])


def load_graph_json(path) -> CommunityGraph:
    """The graph a graph JSON file holds; JSON of another shape is an
    unreadable artifact, like one that does not parse."""
    payload = artifacts.read(path)
    try:
        return graph_from_json(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise artifacts.unreadable(path, f"not a graph: {exc!r}") from exc
