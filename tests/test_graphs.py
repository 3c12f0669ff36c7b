import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from itertools import islice
from pathlib import Path
from xml.sax.saxutils import escape

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airdrop_forensics import graphs
from airdrop_forensics.forensics import p2p_components
from airdrop_forensics.graphs import (
    _BATCH,
    CommunityGraph,
    NodeClass,
    UndefinedOnDegenerateError,
    UndefinedOnEmptyError,
    WindowEmptyError,
    attracting_counts,
    build_external_graph,
    build_token_graph,
    degree_assortativity,
    _add_events,
    _build_graph,
    _from_rows,
    graph_from_json,
    iter_slices,
    load_graph_json,
    metric_series,
    reciprocity,
    weekly_slices,
    write_graph,
    write_graph_json,
)
from airdrop_forensics.ingest import ContractCategory, EventColumns, EventKind, format_token_amount

from conftest import (
    WINDOW_START, addr, attracting_components, claim, contract, digraph, ev, make_store,
)
from oracles import (
    compact_json,
    event_by_event_graph,
    graph_to_json,
    oracle_assortativity,
    oracle_attracting,
    oracle_reciprocity,
    random_digraph,
    read_dot_id,
    scan_assortativity,
    scan_reciprocity,
    strongly_connected_components,
    to_dot,
    to_graphml,
)


def test_token_graph_star_from_claims(airdrop_contract):
    claims = [claim(addr(i)) for i in range(1, 6)]
    events = [
        ev(airdrop_contract.address, c.address, c.amount, ts=c.claim_timestamp)
        for c in claims
    ]
    store = make_store(events, contracts=[airdrop_contract], claims=claims)
    g = build_token_graph(store)
    # hand enumeration: one hub, five leaves, five edges
    assert g.n_nodes == 6
    assert g.n_edges == len(claims)
    assert g.nodes[airdrop_contract.address] == NodeClass.CONTRACT
    assert all(g.nodes[c.address] == NodeClass.INITIAL_MEMBER for c in claims)
    assert g.out_degree(airdrop_contract.address) == 5


def test_parallel_transfers_aggregate():
    events = [
        ev(addr(1), addr(2), 5, ts=WINDOW_START + 100),
        ev(addr(1), addr(2), 7, ts=WINDOW_START + 200),
    ]
    g = build_token_graph(make_store(events))
    assert g.n_edges == 1
    stats = g.edges[(addr(1), addr(2))]
    assert stats.total_value == 12
    assert stats.tx_count == 2
    assert (stats.first_ts, stats.last_ts) == (WINDOW_START + 100, WINDOW_START + 200)


def test_external_triangle_six_directed_edges():
    a, b, c = addr(1), addr(2), addr(3)
    events = [
        ev(u, v, 1, kind=EventKind.EXTERNAL_TX)
        for u, v in [(a, b), (b, a), (b, c), (c, b), (a, c), (c, a)]
    ]
    g = build_external_graph(make_store(external_events=events))
    assert g.n_nodes == 3 and g.n_edges == 6
    assert all(cls == NodeClass.PLAIN for cls in g.nodes.values())


def test_empty_external_set_empty_graph():
    g = build_external_graph(make_store([ev(addr(1), addr(2), 1)]))
    assert g.n_nodes == 0 and g.n_edges == 0


def test_weekly_slices_cumulative():
    day = 86400
    e1 = ev(addr(1), addr(2), 1, ts=WINDOW_START + 1 * day)
    e2 = ev(addr(1), addr(3), 1, ts=WINDOW_START + 9 * day)
    store = make_store([e1, e2])
    slices = weekly_slices(store, start=WINDOW_START, end=WINDOW_START + 14 * day)
    assert len(slices) == 2
    assert slices[0].graph.n_edges == 1
    assert slices[1].graph.n_edges == 2


def test_weekly_slices_study_window_count():
    # 2021-11-15 .. 2022-04-13 inclusive: 21 whole weeks plus a final
    # partial cutoff at the window end.
    store = make_store([ev(addr(1), addr(2), 1, ts=WINDOW_START + 3600)])
    slices = weekly_slices(store)
    assert len(slices) == 22
    assert slices[-1].cutoff == 1649894399


def test_weekly_slices_window_empty():
    store = make_store([ev(addr(1), addr(2), 1, ts=WINDOW_START + 40 * 86400)])
    with pytest.raises(WindowEmptyError):
        weekly_slices(store, start=WINDOW_START, end=WINDOW_START + 86400 * 7)


def test_slices_monotone_on_random_events():
    rng = random.Random(5)
    events = [
        ev(addr(rng.randint(1, 12)), addr(rng.randint(13, 25)), rng.randint(1, 9),
           ts=WINDOW_START + rng.randint(0, 60) * 86400)
        for _ in range(120)
    ]
    events = [e for e in events if e.sender != e.receiver]
    store = make_store(events)
    slices = weekly_slices(store, start=WINDOW_START, end=WINDOW_START + 61 * 86400)
    for earlier, later in zip(slices, slices[1:]):
        assert set(earlier.graph.nodes) <= set(later.graph.nodes)
        assert set(earlier.graph.edges) <= set(later.graph.edges)


def test_reciprocity_trivials():
    assert reciprocity(digraph([("a", "b"), ("b", "a")])) == 1.0
    assert reciprocity(digraph([("a", "b")])) == 0.0
    with pytest.raises(UndefinedOnEmptyError):
        reciprocity(digraph([]))


def test_reciprocity_excludes_self_loops():
    assert reciprocity(digraph([("a", "b"), ("b", "a"), ("a", "a")])) == 1.0


def test_reciprocity_random_matches_oracle_exactly():
    rng = random.Random(11)
    for _ in range(30):
        nodes, edges = random_digraph(rng, max_n=30)
        if not edges:
            continue
        assert reciprocity(digraph(edges, nodes)) == oracle_reciprocity(edges)


def test_assortativity_star_degenerate():
    hub = "h"
    edges = [(hub, f"leaf{i}") for i in range(6)]
    with pytest.raises(UndefinedOnDegenerateError):
        degree_assortativity(digraph(edges))


def test_assortativity_hand_example():
    # two mutual pairs plus a hub mutually wired to all four: Pearson over
    # the 12 directed edges works out to exactly -1/2 by hand.
    edges = [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]
    for leaf in ("a", "b", "c", "d"):
        edges += [("h", leaf), (leaf, "h")]
    value = degree_assortativity(digraph(edges))
    assert abs(value - (-0.5)) < 1e-12


def test_assortativity_random_matches_oracle():
    rng = random.Random(13)
    checked = 0
    for _ in range(40):
        nodes, edges = random_digraph(rng, max_n=30)
        g = digraph(edges, nodes)
        expected = oracle_assortativity(nodes, edges)
        if expected is None:
            with pytest.raises(UndefinedOnDegenerateError):
                degree_assortativity(g)
        else:
            assert abs(degree_assortativity(g) - expected) <= 1e-9
            checked += 1
    assert checked > 10


def test_attracting_components_trivials():
    assert attracting_components(digraph([("a", "b"), ("a", "c")])) == 2
    cycle_plus = digraph([("a", "b"), ("b", "c"), ("c", "a"), ("x", "a")])
    assert attracting_components(cycle_plus) == 1


def test_attracting_components_edgeless_equals_node_count():
    g = digraph([], nodes=[f"n{i}" for i in range(7)])
    assert attracting_components(g) == 7


def test_attracting_components_random_matches_oracle():
    rng = random.Random(19)
    for _ in range(30):
        nodes, edges = random_digraph(rng, max_n=40)
        assert attracting_components(digraph(edges, nodes)) == oracle_attracting(nodes, edges)


def test_attracting_counts_need_growing_prefixes():
    g = digraph([("a", "b"), ("b", "a"), ("b", "c")])
    # the sink b; then the closed pair {a, b} and the lone c; then the sink c
    assert attracting_counts(g, [2, 3, 3], [1, 2, 3]) == [1, 2, 1]
    with pytest.raises(ValueError):
        attracting_counts(g, [3, 2], [3, 3])
    with pytest.raises(ValueError):
        attracting_counts(g, [3], [4])
    day = 86400
    store = make_store([ev(addr(1), addr(2), 1, ts=WINDOW_START + day),
                        ev(addr(2), addr(3), 1, ts=WINDOW_START + 3 * day)])
    slices = weekly_slices(store, start=WINDOW_START, end=WINDOW_START + 4 * day, interval_days=1)
    assert metric_series(slices).attracting == [1, 1, 1, 1]
    with pytest.raises(ValueError):  # the last slice must be the largest
        metric_series(slices[::-1])


@pytest.mark.parametrize("nodes", [0, 1])
def test_attracting_counts_refuse_an_edge_outside_its_prefix(nodes):
    # the edge a -> b names node 1 (b), outside a prefix of fewer than 2 nodes
    g = digraph([("a", "b")])
    with pytest.raises(ValueError, match="every edge of a prefix"):
        attracting_counts(g, [nodes], [1])
    assert attracting_counts(g, [nodes, 2], [0, 1]) == [nodes, 1]


def test_metric_series_single_mutual_pair(airdrop_contract):
    e1 = ev(addr(1), addr(2), 5, ts=WINDOW_START + 3600)
    e2 = ev(addr(2), addr(1), 5, ts=WINDOW_START + 7200)
    store = make_store([e1, e2])
    slices = weekly_slices(store, start=WINDOW_START, end=WINDOW_START + 7 * 86400)
    series = metric_series(slices)
    assert len(series.cutoffs) == 1
    assert series.reciprocity == [1.0]
    assert series.assortativity == [None]  # two symmetric edges: zero variance


def test_metric_series_counts_non_decreasing():
    rng = random.Random(23)
    events = [
        ev(addr(rng.randint(1, 8)), addr(rng.randint(9, 20)), 1,
           ts=WINDOW_START + rng.randint(0, 27) * 86400)
        for _ in range(60)
    ]
    store = make_store([e for e in events if e.sender != e.receiver])
    series = metric_series(weekly_slices(store, start=WINDOW_START, end=WINDOW_START + 28 * 86400))
    assert series.nodes == sorted(series.nodes)
    assert series.edges == sorted(series.edges)


def written(write, graph, *args) -> str:
    """The text `write(graph, path, *args)` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph"
        write(graph, path, *args)
        return path.read_bytes().decode("utf-8")


def test_graph_exports_deterministic():
    g = digraph([("0x" + "a" * 40, "0x" + "b" * 40, 5 * 10**18)])
    g.nodes["0x" + "a" * 40] = NodeClass.INITIAL_MEMBER
    xml = written(write_graph, g, "graphml")
    assert xml == written(write_graph, g, "graphml")
    assert 'attr.name="node_class"' in xml and "initial_member" in xml
    dot = written(write_graph, g, "dot")
    assert '"0x' + "a" * 40 + '" -> "0x' + "b" * 40 + '"' in dot
    assert 'weight="5"' in dot


@settings(max_examples=200, derandomize=True, deadline=None)
@given(u=st.text(), v=st.text())
def test_graphml_escapes_ids_as_saxutils(u, v):
    def quoted(text):
        return escape(text, {'"': "&quot;"})

    xml = written(write_graph, digraph([(u, v)]), "graphml")
    assert f'<node id="{quoted(u)}">' in xml
    assert f'<edge source="{quoted(u)}" target="{quoted(v)}">' in xml


def test_graphml_of_an_id_holding_markup_reads_back_in_networkx(tmp_path):
    odd, plain = 'a"b&<c>', "0x" + "a" * 40
    path = tmp_path / "g.graphml"
    write_graph(digraph([(odd, plain)]), path, "graphml")
    G = nx.read_graphml(path)
    assert set(G.nodes) == {odd, plain} and list(G.edges) == [(odd, plain)]


def dot_edge_ids(dot: str) -> list[tuple[str, str]]:
    """The (source, target) ids of each edge line of a written dot file,
    read as Graphviz's lexer reads quoted ids."""
    pairs, pos = [], 0
    while (pos := dot.find('\n  "', pos)) >= 0:
        u, pos = read_dot_id(dot, pos + 3)
        if not dot.startswith(" -> ", pos):
            continue  # a node line
        v, pos = read_dot_id(dot, pos + 4)
        assert dot.startswith(" [weight=", pos)
        pairs.append((u, v))
    return pairs


@pytest.mark.parametrize("odd, read_back", [
    ("a\\b", "a\\b"),  # a lone backslash stands for itself
    ('a"b', 'a"b'),
    ('a\\\\"b', 'a\\\\"b'),  # an even run before a quote
    ("c\\\\", "c\\\\"),  # and at the end
    ("a\\\\\nb", "a\\\\\nb"),  # and before a newline
    ('a\\"b', 'a\\\\"b'),  # an odd run there reads back one longer
    ("c\\", "c\\\\"),
    ("a\\\nb", "a\\\\\nb"),
])
def test_dot_ids_read_back_as_graphviz_reads_them(odd, read_back):
    plain = "0x" + "a" * 40
    dot = written(write_graph, digraph([(odd, plain), (plain, odd)]), "dot", "g")
    assert dot_edge_ids(dot) == sorted([(read_back, plain), (plain, read_back)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ids=st.lists(st.text(alphabet='ab\\"\n', max_size=8), min_size=1, max_size=4,
                    unique=True))
def test_dot_ids_read_back_whole(ids):
    """Every written id closes where it should, and reads back as itself
    but for one backslash added to each odd run before a quote, a newline
    or the end."""
    def read_back(text):
        return re.sub(r'(\\*)(?=["\n]|\Z)', lambda m: m[1] + "\\" * (len(m[1]) % 2), text)

    edges = [(u, v) for u in ids for v in ids]
    dot = written(write_graph, digraph(edges), "dot", "g")
    assert dot_edge_ids(dot) == [(read_back(u), read_back(v)) for u, v in sorted(edges)]


# Differential tests of the batched writers: node and edge counts on both
# sides of a batch boundary, against the whole-text exports in oracles.py.
SIZES = [0, 1, _BATCH - 1, _BATCH, _BATCH + 1]


@st.composite
def export_graphs(draw, stems=st.text(max_size=3)):
    """A graph of SIZES[i] nodes, named `stem` + a number, and of SIZES[j]
    edges (as many as fit), with random classes and edge stats."""
    n = draw(st.sampled_from(SIZES))
    m = min(draw(st.sampled_from(SIZES)), n * n)
    stem = draw(stems)
    rng = draw(st.randoms(use_true_random=False))
    nodes = [f"{stem}{i}" for i in range(n)]
    classes = {addr: rng.choice(list(NodeClass)) for addr in nodes}
    rows = []
    for k in rng.sample(range(n * n), m):
        first = rng.randrange(2**31)
        rows.append((nodes[k // n], nodes[k % n], rng.randrange(10**30), rng.randint(1, 10**4),
                     first, first + rng.randrange(10**6)))
    return _from_rows(classes, rows)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(g=export_graphs())
def test_batched_writers_equal_whole_text_exports(g):
    assert written(write_graph_json, g) == compact_json(graph_to_json(g))
    assert written(write_graph, g, "graphml") == to_graphml(g)
    assert written(write_graph, g, "dot", "g") == to_dot(g, "g")


@settings(max_examples=20, derandomize=True, deadline=None)
@given(g=export_graphs(st.text("ab&<>'\u00e9", max_size=3)))
def test_written_graphml_reads_back_in_networkx(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.graphml"
        write_graph(g, path, "graphml")
        G = nx.read_graphml(path)
    assert G.is_directed()
    assert dict(G.nodes(data="node_class")) == {a: cls.value for a, cls in g.nodes.items()}
    assert {(u, v): (data["weight"], data["tx_count"]) for u, v, data in G.edges(data=True)} \
        == {e: (float(format_token_amount(s.total_value)), s.tx_count) for e, s in g.edges.items()}


def _wide_graph(n_nodes=2_000, n_edges=20_000):
    rng = random.Random(41)
    nodes = [f"0x{rng.getrandbits(160):040x}" for _ in range(n_nodes)]
    rows = [(nodes[k // n_nodes], nodes[k % n_nodes], rng.randrange(10**24), 1, WINDOW_START,
             WINDOW_START) for k in rng.sample(range(n_nodes * n_nodes), n_edges)]
    return _from_rows(dict.fromkeys(nodes, NodeClass.LATER_MEMBER), rows)


@pytest.mark.parametrize("write, args", [
    (write_graph_json, ()), (write_graph, ("graphml",)), (write_graph, ("dot",)),
])
def test_writers_hold_a_batch_not_the_file(tmp_path, write, args):
    """Writing a graph of 20k edges peaks at under a quarter of the bytes
    written: the writer holds the sorted order and one batch's text."""
    g, path = _wide_graph(), tmp_path / "graph"
    tracemalloc.start()
    try:
        write(g, path, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_loaded_edge_endpoints_are_the_node_keys(tmp_path):
    """json makes a new string for every occurrence of an address; the
    loader keeps one per node."""
    path = tmp_path / "graph.json"
    write_graph_json(_wide_graph(n_nodes=300, n_edges=3_000), path)
    g = load_graph_json(path)
    key = {a: a for a in g.nodes}
    assert g.n_edges == 3_000
    assert all(u is key[u] and v is key[v] for u, v in g.edges)


def test_cli_import_loads_no_xml_or_network_module():
    """xml.sax.saxutils pulls in urllib.request, http.client and email,
    which no stage needs."""
    code = ("import sys, airdrop_forensics.cli; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request', 'email') if m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_graph_json_round_trip():
    g = digraph([("a" * 40, "b" * 40, 3), ("b" * 40, "a" * 40, 4)])
    clone = graph_from_json(graph_to_json(g))
    assert graph_to_json(clone) == graph_to_json(g)
    assert clone.out_neighbors("a" * 40) == {"b" * 40}


# The insertion loops against the one-event-at-a-time reference, networkx
# and each other.

_ENDPOINTS = [addr(i) for i in range(1, 7)]


@st.composite
def event_lists(draw):
    """The EventColumns of events among six addresses, so that edges
    repeat, loop and come in reverse pairs, at timestamps in no order. Also
    the claimants and the contracts (a claimant in both is a claimant), and
    where the events are cut into the batches the graph takes them in."""
    rows = []
    for u, v in draw(st.lists(st.tuples(st.sampled_from(_ENDPOINTS),
                                        st.sampled_from(_ENDPOINTS)), max_size=40)):
        value = draw(st.integers(0, 10**20))
        ts = WINDOW_START + draw(st.integers(0, 4)) * 86400 + draw(st.sampled_from([0, 1]))
        rows.append((u, v, value, ts))
    claims = draw(st.frozensets(st.sampled_from(_ENDPOINTS)))
    contracts = draw(st.frozensets(st.sampled_from(_ENDPOINTS)))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return EventColumns(*([row[i] for row in rows] for i in range(4))), claims, contracts, cuts


def _fields(g):
    """Every field of `g`, orders included."""
    return (list(g.nodes.items()), list(g.edges.items()), list(g._id.items()), g._out, g._in,
            g._src, g._dst, g._loops, g._mutual)


def _consistent(g):
    """Whether the ids, the adjacency, the endpoint columns and the
    counters of `g` are those its nodes and edges, in their order, give."""
    names = list(g.nodes)
    mutual = sum(u != v and (v, u) in g.edges for u, v in g.edges)
    return (g._id == {a: i for i, a in enumerate(names)}
            and [(names[i], names[j]) for i, j in zip(g._src, g._dst)] == list(g.edges)
            and g._out == {a: {v for u, v in g.edges if u == a} for a in names}
            and g._in == {a: {u for u, v in g.edges if v == a} for a in names}
            and (g._loops, g._mutual) == (sum(u == v for u, v in g.edges), mutual))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=event_lists(), default=st.sampled_from([NodeClass.LATER_MEMBER, NodeClass.PLAIN]),
       cut=st.floats(0, 1))
def test_insertion_loop_equals_the_event_by_event_build(case, default, cut):
    events, claims, contracts, cuts = case
    g = CommunityGraph()
    rows = zip(*events)
    for lo, hi in zip([0, *cuts], [*cuts, len(events.senders)]):
        _add_events(g, islice(rows, hi - lo), claims, contracts, default)
    assert _fields(g) == _fields(event_by_event_graph(zip(*events), claims, contracts, default))
    assert _consistent(g)

    G = nx.DiGraph(zip(events.senders, events.receivers))
    assert set(g.nodes) == set(G.nodes) and set(g.edges) == set(G.edges)
    G.remove_edges_from(list(nx.selfloop_edges(G)))
    if G.number_of_edges():
        assert reciprocity(g) == nx.reciprocity(G)

    copy = g.copy()
    assert _fields(copy) == _fields(g)
    assert not any(copy.edges[k] is s for k, s in g.edges.items())
    loaded = graph_from_json(graph_to_json(g))
    assert (loaded.nodes, loaded.edges) == (g.nodes, g.edges) and _consistent(loaded)
    nodes = sorted(g.nodes)
    parts = [nodes[:int(cut * len(nodes))], nodes[int(cut * len(nodes)):]]
    for part, sub in zip(parts, g.subgraphs(parts)):
        assert list(sub.nodes.items()) == [(a, g.nodes[a]) for a in part]
        assert list(sub.edges.items()) == [(k, s) for k, s in g.edges.items() if set(k) <= set(part)]
        assert _consistent(sub)


def _graphs_calls(build) -> Counter:
    """The calls of functions that graphs.py defines while `build` runs, by name."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == graphs.__file__:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(None)
    return calls


def test_building_calls_no_graph_function_per_event_or_edge():
    """The insertion loops run inline: building a graph from 10 events or
    from 2,000, or copying, loading or splitting it, calls the same graph
    functions the same number of times."""
    def calls(n):
        events = [(addr(i % 37), addr(i % 41 + 1), i, WINDOW_START + i % 5) for i in range(n)]
        g = CommunityGraph()
        made = [_graphs_calls(lambda: _add_events(g, events, {addr(3)}, {addr(4)},
                                                  NodeClass.PLAIN))]
        payload, nodes = graph_to_json(g), sorted(g.nodes)
        made += [_graphs_calls(g.copy), _graphs_calls(lambda: graph_from_json(payload)),
                 _graphs_calls(lambda: g.subgraphs([nodes[::2], nodes[1::2]]))]
        return g.n_edges, made

    (small, few), (large, many) = calls(10), calls(2_000)
    assert small < 20 < 1_000 < large
    assert few == many
    assert few[0] == {"_add_events": 1}


# Differential tests: the incremental slicer against from-scratch builds,
# and the metrics against networkx on random loop-free digraphs.


def _random_store(rng, self_transfers=False):
    day = 86400
    n = rng.randint(4, 30)
    token, external = [], []
    for _ in range(rng.randint(1, 150)):
        if self_transfers:
            u, v = rng.randint(1, n), rng.randint(1, n)
        else:
            u, v = rng.sample(range(1, n + 1), 2)
        kind = rng.choice([EventKind.TOKEN_TRANSFER, EventKind.EXTERNAL_TX])
        # whole days put many events exactly on a cutoff
        ts = WINDOW_START + rng.randint(0, 40) * day + rng.choice([0, 0, 1, day // 2])
        event = ev(addr(u), addr(v), rng.randint(1, 9), ts=ts, kind=kind)
        (token if kind == EventKind.TOKEN_TRANSFER else external).append(event)
    claims = [claim(addr(i)) for i in range(1, n + 1) if rng.random() < 0.3]
    contracts = [
        contract(addr(i), f"c{i}", ContractCategory.TRADING_SWAP)
        for i in range(1, n + 1)
        if rng.random() < 0.1 and addr(i) not in {c.address for c in claims}
    ]
    return make_store(token, external, contracts, claims)


def _same_graph(got, want):
    assert list(got.nodes.items()) == list(want.nodes.items())
    assert list(got.edges.items()) == list(want.edges.items())
    assert got._out == want._out and got._in == want._in
    assert got._src == want._src and got._dst == want._dst


def test_slices_equal_from_scratch_builds():
    rng = random.Random(29)
    day = 86400
    for _ in range(40):
        store = _random_store(rng)
        kind = rng.choice([EventKind.TOKEN_TRANSFER, EventKind.EXTERNAL_TX])
        default = NodeClass.LATER_MEMBER if kind == EventKind.TOKEN_TRANSFER else NodeClass.PLAIN
        start = WINDOW_START + rng.randint(0, 5) * day
        end = start + rng.randint(1, 45) * day - rng.choice([0, 1])
        interval = rng.choice([1, 3, 7, 60])
        events = list(zip(*store.columns_of(kind)))
        if not any(start <= ts <= end for *_, ts in events):
            with pytest.raises(WindowEmptyError):
                weekly_slices(store, kind, start, end, interval)
            continue

        def scratch(cutoff):
            chunk = [e for e in events if start <= e[3] <= cutoff]
            return _build_graph(chunk, store, default)

        live = []
        for sl in iter_slices(store, kind, start, end, interval):
            _same_graph(sl.graph, scratch(sl.cutoff))
            live.append(sl)
        assert len({id(sl.graph) for sl in live}) == 1  # one graph grows in place
        snapshots = weekly_slices(store, kind, start, end, interval)
        assert [sl.cutoff for sl in snapshots] == [sl.cutoff for sl in live]
        for sl in snapshots:  # checked after all are built: no state is shared
            _same_graph(sl.graph, scratch(sl.cutoff))


def _reciprocity_or_none(g):
    try:
        return reciprocity(g)
    except UndefinedOnEmptyError:
        return None


def _assortativity_or_none(g):
    try:
        return degree_assortativity(g)
    except UndefinedOnDegenerateError:
        return None


def test_slice_metrics_equal_scans_bit_for_bit():
    # the counters and the folds against today's formulas on from-scratch
    # builds, compared with ==: the float sums must keep their order
    rng = random.Random(43)
    checked = 0
    for _ in range(40):
        store = _random_store(rng, self_transfers=True)
        kind = rng.choice([EventKind.TOKEN_TRANSFER, EventKind.EXTERNAL_TX])
        default = NodeClass.LATER_MEMBER if kind == EventKind.TOKEN_TRANSFER else NodeClass.PLAIN
        events = list(zip(*store.columns_of(kind)))
        if not events:
            continue
        interval = rng.choice([1, 3, 7])
        series = metric_series(iter_slices(store, kind, interval_days=interval))
        for i, cutoff in enumerate(series.cutoffs):
            g = _build_graph([e for e in events if e[3] <= cutoff], store, default)
            assert series.reciprocity[i] == scan_reciprocity(g)
            assert series.assortativity[i] == scan_assortativity(g)
            checked += series.assortativity[i] is not None
        g = _build_graph(events, store, default)
        nodes = sorted(g.nodes)
        cut = rng.randint(0, len(nodes))
        for h in (g.copy(), graph_from_json(graph_to_json(g)),
                  *g.subgraphs([nodes[:cut], nodes[cut:]])):
            assert _reciprocity_or_none(h) == scan_reciprocity(h)
            assert _assortativity_or_none(h) == scan_assortativity(h)
    assert checked > 100


def _nx_digraph(nodes, edges):
    G = nx.DiGraph()
    G.add_nodes_from(nodes)
    G.add_edges_from(edges)
    return G


def test_metrics_match_networkx():
    rng = random.Random(31)
    defined = 0
    for _ in range(60):
        nodes, edges = random_digraph(rng, max_n=40)
        g, G = digraph(edges, nodes), _nx_digraph(nodes, edges)
        if edges:
            assert reciprocity(g) == nx.reciprocity(G)
        try:
            value = degree_assortativity(g)
        except UndefinedOnDegenerateError:
            pass
        else:
            expected = nx.degree_pearson_correlation_coefficient(G, x="out", y="in")
            assert abs(value - expected) <= 1e-9
            defined += 1
        assert attracting_components(g) == nx.number_attracting_components(G)
        sccs = strongly_connected_components(g)
        assert {frozenset(c) for c in sccs} == {
            frozenset(c) for c in nx.strongly_connected_components(G)
        }
        assert all(c == sorted(c) for c in sccs)
        assert [c[0] for c in sccs] == sorted(c[0] for c in sccs)
    assert defined > 20


def test_p2p_components_match_networkx():
    rng = random.Random(37)
    for _ in range(30):
        nodes, edges = random_digraph(rng, max_n=40, p=rng.choice([0.02, 0.05, 0.1]))
        g = digraph(edges, nodes)
        for a in nodes:
            g.nodes[a] = rng.choice(list(NodeClass))
        wallets = {a for a, cls in g.nodes.items() if cls != NodeClass.CONTRACT}
        p2p = g.subgraphs([sorted(wallets)])[0]
        W = _nx_digraph(sorted(wallets), [(u, v) for u, v in edges if {u, v} <= wallets])
        expected = {frozenset(c) for c in nx.weakly_connected_components(W) if len(c) >= 2}
        profiles = p2p_components(g)
        assert {frozenset(p.graph.nodes) for p in profiles} == expected
        for p in profiles:  # what an induced subgraph of p2p holds, in p2p's order
            comp = set(p.graph.nodes)
            assert list(p.graph.nodes) == sorted(comp)
            assert p.graph.edges == {k: s for k, s in p2p.edges.items() if set(k) <= comp}
            assert list(p.graph.edges) == [k for k in p2p.edges if set(k) <= comp]


@st.composite
def _shaped_digraphs(draw):
    """Random edges (self-loops allowed) among a base set, plus cycles the
    base may enter but only a chain can leave, chains ending in a sink that
    hang off any earlier node, and isolated nodes."""
    nodes, edges = [], []

    def fresh(k):
        new = [addr(len(nodes) + i + 1) for i in range(k)]
        nodes.extend(new)
        return new

    base = fresh(draw(st.integers(1, 12)))
    pairs = st.tuples(st.sampled_from(base), st.sampled_from(base))
    edges += draw(st.lists(pairs, max_size=30))
    for size in draw(st.lists(st.integers(1, 6), max_size=4)):  # size 1: a lone self-loop
        cycle = fresh(size)
        edges += zip(cycle, cycle[1:] + cycle[:1])
        edges += [(draw(st.sampled_from(base)), cycle[0])] * draw(st.booleans())
    for length in draw(st.lists(st.integers(1, 30), max_size=3)):
        feeder = draw(st.sampled_from(nodes))
        chain = fresh(length)
        edges += zip([feeder] + chain, chain)
    fresh(draw(st.integers(0, 3)))
    return nodes, edges


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_shaped_digraphs())
def test_attracting_components_match_networkx_on_shaped_digraphs(graph):
    nodes, edges = graph
    assert attracting_components(digraph(edges, nodes)) == nx.number_attracting_components(
        _nx_digraph(nodes, edges)
    )


def _nx_prefix_counts(g, prefixes):
    """networkx's attracting components of each prefix (nodes, edges) of `g`."""
    nodes, edges = list(g.nodes), list(g.edges)
    return [nx.number_attracting_components(_nx_digraph(nodes[:n], edges[:e]))
            for n, e in prefixes]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_shaped_digraphs(), st.data())
def test_attracting_counts_match_networkx_at_every_edge_prefix(graph, data):
    nodes, edges = graph
    g = digraph(edges, nodes)
    order = {a: i for i, a in enumerate(g.nodes)}
    need = [0]  # the fewest nodes that hold the first k edges
    for u, v in g.edges:
        need.append(max(need[-1], order[u] + 1, order[v] + 1))
    every = list(range(g.n_edges + 1))
    expected = _nx_prefix_counts(g, zip(need, every))
    assert attracting_counts(g, need, every) == expected
    twice = sorted(every * 2)
    assert attracting_counts(g, [need[k] for k in twice], twice) == [expected[k] for k in twice]
    # the last prefix stops one edge short of the graph
    assert attracting_counts(g, need[:-1], every[:-1]) == expected[:-1]
    assert attracting_counts(g, [], []) == []
    # drawn prefixes, each with any node count its edges allow
    picks = sorted(data.draw(st.lists(st.sampled_from(every), max_size=8)))
    counts = []
    for k in picks:
        counts.append(max(counts[-1:] + [data.draw(st.integers(need[k], g.n_nodes))]))
    assert attracting_counts(g, counts, picks) == _nx_prefix_counts(g, zip(counts, picks))


@pytest.mark.parametrize("edges, expected", [
    # two closed pairs beside a lone s; a1 -> b1 opens {a1, a2}; the late
    # b1 -> a1 merges the pairs into one closed component; it leaks to s
    ([("a1", "a2"), ("a2", "a1"), ("b1", "b2"), ("b2", "b1"),
      ("a1", "b1"), ("b1", "a1"), ("b2", "s")], [3, 2, 2, 1]),
    # the chord a -> c lands after a -> b -> c -> a closed, and c -> d leaks
    ([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("c", "d")], [2, 2, 2, 1]),
])
def test_attracting_counts_follow_merges_and_leaks(edges, expected):
    g = digraph(edges, nodes=sorted({x for edge in edges for x in edge}))
    prefixes = list(range(g.n_edges - len(expected) + 1, g.n_edges + 1))
    full = [g.n_nodes] * len(prefixes)
    assert _nx_prefix_counts(g, zip(full, prefixes)) == expected
    assert attracting_counts(g, full, prefixes) == expected


def test_attracting_counts_pass_over_a_growing_cycle_o_log_s_times(monkeypatch):
    """A 200-node cycle gains one chord in each of 2,000 prefixes while a
    5,000-node chain feeds it, then leaks to a sink. Tarjan's passes over
    the cycle grow with log S, not S, and trimming stops at the chain
    instead of peeling one edge of it per pass."""
    rng = random.Random(47)
    cycle = [f"c{i}" for i in range(200)]
    chain = [f"h{i}" for i in range(5_000)]
    base = list(zip(chain, chain[1:] + cycle[:1])) + list(zip(cycle, cycle[1:] + cycle[:1]))
    chords = dict.fromkeys(base)
    while len(chords) < len(base) + 2_000:
        chords[tuple(rng.sample(cycle, 2))] = None
    g = digraph(list(chords) + [(cycle[7], "sink")])
    edges = list(range(len(base) + 1, g.n_edges + 1))
    core, n_prefixes = 200 + 2_000, len(edges)

    visited, bincounts = [], []
    tarjan, bincount = graphs._tarjan, np.bincount

    def counted_tarjan(successors, roots):
        comps = list(tarjan(successors, roots))
        visited.append(sum(len(successors.get(x, ())) for comp in comps for x in comp))
        return iter(comps)

    def counted_bincount(*args, **kwargs):
        bincounts.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(graphs, "_tarjan", counted_tarjan)
    monkeypatch.setattr(np, "bincount", counted_bincount)
    counts = attracting_counts(g, [g.n_nodes] * n_prefixes, edges)
    assert counts == [2] * (n_prefixes - 1) + [1]  # the closed cycle and the lone sink
    assert len(bincounts) <= 2 * 3  # trimming: three passes at most, two bincounts each
    assert visited[0] <= g.n_edges  # the one pass over the trimmed graph
    # then O(log S) passes over the cycle's edges, not one per prefix
    assert sum(visited[1:]) <= core * math.log2(n_prefixes)
    assert len(visited) <= 4 * math.log2(n_prefixes)


def test_attracting_components_per_slice_match_networkx():
    day = 86400
    a, c, s, d, e, f = (addr(i) for i in range(1, 7))
    script = [  # (day, sender, receiver)
        (1, a, s), (1, c, s),  # s starts as a sink fed by two nodes
        (3, s, d), (3, d, e),  # s gains an out-edge; e is the new sink
        (5, e, s),  # s -> d -> e -> s closes with no way out
        (8, e, f),  # the cycle leaks to a new sink
    ]
    rng = random.Random(41)
    for trial in range(20):
        events = [ev(u, v, 1, ts=WINDOW_START + t * day) for t, u, v in script]
        for _ in range(trial * 3):  # more and more noise among fresh nodes
            u, v = rng.sample(range(7, 20), 2)
            events.append(ev(addr(u), addr(v), 1, ts=WINDOW_START + rng.randint(0, 10) * day))
        store = make_store(sorted(events, key=lambda x: x.timestamp))
        sink_at = []
        for sl in iter_slices(store, start=WINDOW_START, end=WINDOW_START + 10 * day,
                              interval_days=1):
            g = sl.graph
            expected = nx.number_attracting_components(_nx_digraph(g.nodes, g.edges))
            assert attracting_components(g) == expected, (trial, sl.cutoff)
            sink_at.append(s in g.nodes and g.out_degree(s) == 0)
        assert sink_at[:3] == [True, True, False] and not any(sink_at[3:])


@st.composite
def _growing_stores(draw):
    """Token transfers over 12 days: random ones among a base set
    (self-loops allowed), a node whose only edge is a self-loop, a cycle
    whose closing edge comes late, and a cycle that is terminal for a while
    and then leaks to a new sink. Returns the store and the last day."""
    days = 12
    when = st.integers(0, days)
    base = [addr(i) for i in range(1, draw(st.integers(1, 10)) + 1)]
    pair = st.tuples(when, st.sampled_from(base), st.sampled_from(base))
    script = draw(st.lists(pair, max_size=40))
    loner, sink = addr(90), addr(91)
    script.append((draw(when), loner, loner))
    late = [addr(100 + i) for i in range(draw(st.integers(2, 5)))]
    opened = draw(st.integers(0, days - 1))
    script += [(opened, u, v) for u, v in zip(late, late[1:])]
    script.append((draw(st.integers(opened, days)), late[-1], late[0]))
    leaky = [addr(200 + i) for i in range(draw(st.integers(2, 4)))]
    closed = draw(st.integers(0, days - 1))
    script += [(closed, u, v) for u, v in zip(leaky, leaky[1:] + leaky[:1])]
    script.append((draw(st.integers(closed + 1, days)), leaky[0], sink))
    script += [(draw(when), draw(st.sampled_from(base)), x) for x in (late[0], leaky[0])]
    events = [ev(u, v, 1, ts=WINDOW_START + t * 86400) for t, u, v in script]
    store = make_store(sorted(events, key=lambda e: e.timestamp))
    return store, WINDOW_START + days * 86400


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_growing_stores(), st.sampled_from([1, 2, 5]))
def test_attracting_series_match_networkx_on_every_slice(grown, interval):
    store, end = grown
    expected = []

    def measured(slices):
        for sl in slices:
            g = sl.graph
            expected.append(nx.number_attracting_components(_nx_digraph(g.nodes, g.edges)))
            yield sl

    slices = iter_slices(store, start=WINDOW_START, end=end, interval_days=interval)
    assert metric_series(measured(slices)).attracting == expected
    snapshots = weekly_slices(store, start=WINDOW_START, end=end, interval_days=interval)
    assert metric_series(snapshots).attracting == expected
