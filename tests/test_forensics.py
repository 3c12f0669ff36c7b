import gc
import logging
import tempfile
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from airdrop_forensics import artifacts
from airdrop_forensics.eligibility import EligibilityHistory, clique_sizes
from airdrop_forensics.forensics import (
    DetectorConfig,
    PatternKind,
    _maximal_cliques,
    claimant_clique_graph,
    contract_users,
    detect_blatant,
    detect_cautious,
    detect_chain,
    detect_sponsorship,
    detect_sunflower,
    external_density,
    p2p_components,
    run_detectors,
    voting_power_report,
)
from airdrop_forensics.graphs import (
    CommunityGraph,
    NodeClass,
    WindowEmptyError,
    _add_events,
    build_external_graph,
    build_token_graph,
    iter_slices,
    load_graph_json,
    write_graph_json,
)
from airdrop_forensics.ingest import ContractCategory, EventKind, IngestConfig, Tier

from conftest import WINDOW_START, addr, claim, columns, contract, digraph, ev, make_store
from oracles import contract_user_set, oracle_external_density

CFG = DetectorConfig()
T0 = WINDOW_START + 86400
TOKEN = 10**18


def profile_of(edges, classes=None, nodes=()):
    """Single-component profile straight from weighted edges."""
    g = digraph(edges, nodes=nodes)
    for a, cls in (classes or {}).items():
        g.nodes[a] = cls
    profiles = p2p_components(g)
    assert len(profiles) == 1
    return profiles[0]


class TestComponents:
    def test_two_triangles_census(self):
        tri1 = [("a1", "a2", 5), ("a2", "a3", 5), ("a3", "a1", 5)]
        tri2 = [("b1", "b2", 7), ("b2", "b3", 7), ("b3", "b1", 7)]
        g = digraph(tri1 + tri2)
        g.nodes["a1"] = NodeClass.INITIAL_MEMBER
        profiles = p2p_components(g)
        assert len(profiles) == 2
        assert [p.size for p in profiles] == [3, 3]
        first = profiles[0]
        assert first.nodes == ["a1", "a2", "a3"]  # tie broken by smallest address
        assert first.n_initial == 1 and first.n_later == 2
        assert first.total_value == 15
        assert profiles[0].id == 1 and profiles[1].id == 2

    def test_contract_edges_removed(self):
        g = digraph([("a", "c", 5), ("b", "c", 5)])
        g.nodes["c"] = NodeClass.CONTRACT
        assert p2p_components(g) == []

    def test_contract_does_not_join_wallet_groups(self):
        """The walk crosses only wallet-to-wallet edges, so two groups that
        meet only at a contract stay apart and neither holds it."""
        g = digraph([("a1", "a2", 3), ("a2", "c", 4), ("c", "b1", 5),
                     ("b1", "b2", 6), ("b2", "c", 7), ("c", "a1", 8)])
        g.nodes["c"] = NodeClass.CONTRACT
        profiles = p2p_components(g)
        assert [p.nodes for p in profiles] == [["a1", "a2"], ["b1", "b2"]]
        assert [list(p.graph.edges) for p in profiles] == [[("a1", "a2")], [("b1", "b2")]]
        assert [p.total_value for p in profiles] == [3, 6]

    def test_partition_covers_every_p2p_node(self):
        g = digraph([("a", "b", 1), ("c", "d", 1), ("d", "e", 1), ("f", "c", 1)])
        profiles = p2p_components(g)
        seen = [n for p in profiles for n in p.nodes]
        assert sorted(seen) == ["a", "b", "c", "d", "e", "f"]
        assert sum(p.size for p in profiles) == 6


class TestChain:
    def test_accumulating_path_detected(self):
        p = profile_of([("a", "b", 5000), ("b", "c", 10000), ("c", "d", 15000)])
        finding = detect_chain(p, CFG)
        assert finding is not None and finding.pattern == PatternKind.CHAIN
        assert finding.members == {"a": "source", "b": "relay", "c": "relay", "d": "sink"}
        assert finding.aggregate_value == 15000
        assert finding.evidence

    def test_weight_decrease_blocks(self):
        p = profile_of([("a", "b", 10000), ("b", "c", 2000), ("c", "d", 2500)])
        assert detect_chain(p, CFG) is None

    def test_mutual_pair_is_not_a_chain(self):
        p = profile_of([("a", "b", 10), ("b", "a", 10)])
        assert detect_chain(p, CFG) is None

    def test_short_path_below_min_len(self):
        p = profile_of([("a", "b", 5), ("b", "c", 10)])
        assert detect_chain(p, CFG) is None

    def test_merge_variant_single_finding(self):
        edges = [
            ("a", "c", 5), ("b", "c", 6), ("c", "d", 11), ("d", "e", 20),
        ]
        p = profile_of(edges)
        finding = detect_chain(p, CFG)
        assert finding is not None
        assert finding.members["e"] == "sink"
        assert finding.members["a"] == "source" and finding.members["b"] == "source"
        assert len(finding.evidence) >= 2

    def test_threshold_monotonicity(self):
        p = profile_of([("a", "b", 5), ("b", "c", 10), ("c", "d", 15)])
        assert detect_chain(p, CFG) is not None
        stricter = DetectorConfig(min_chain_len=4)
        assert detect_chain(p, stricter) is None

    def test_slack_allows_small_decreases(self):
        p = profile_of([("a", "b", 1000), ("b", "c", 990), ("c", "d", 985)])
        assert detect_chain(p, CFG) is None
        assert detect_chain(p, DetectorConfig(accumulation_slack=20)) is not None


def sunflower_profile(n_spokes=8, center="zz", center_class=NodeClass.INITIAL_MEMBER,
                      forward_to=None, forward_value=0):
    edges = [(f"s{i:02d}", center, 650 * TOKEN) for i in range(n_spokes)]
    classes = {f"s{i:02d}": NodeClass.INITIAL_MEMBER for i in range(n_spokes)}
    classes[center] = center_class
    if forward_to:
        edges.append((center, forward_to, forward_value))
        classes[forward_to] = NodeClass.LATER_MEMBER
    return profile_of(edges, classes)


class TestSunflower:
    def test_plain_sunflower(self):
        p = sunflower_profile()
        finding = detect_sunflower(p, CFG, contract_users=frozenset({"zz"}))
        assert finding is not None and finding.pattern == PatternKind.SUNFLOWER
        assert finding.members["zz"] == "sink"
        assert sum(1 for r in finding.members.values() if r == "source") == 8
        assert finding.aggregate_value == 8 * 650 * TOKEN

    def test_relay_variant_full_forward(self):
        received = 8 * 650 * TOKEN
        p = sunflower_profile(forward_to="qq", forward_value=received)
        finding = detect_sunflower(p, CFG, contract_users=frozenset({"zz"}))
        assert finding is not None and finding.pattern == PatternKind.SUNFLOWER_RELAY
        assert finding.members["zz"] == "relay" and finding.members["qq"] == "sink"

    def test_partial_forward_below_fraction_is_plain(self):
        received = 8 * 650 * TOKEN
        p = sunflower_profile(forward_to="qq", forward_value=received // 2)
        finding = detect_sunflower(p, CFG, contract_users=frozenset({"zz"}))
        assert finding is not None and finding.pattern == PatternKind.SUNFLOWER

    def test_staging_center_takes_priority(self):
        p = sunflower_profile(center_class=NodeClass.LATER_MEMBER)
        finding = detect_sunflower(p, CFG, contract_users=frozenset())
        assert finding is not None
        assert finding.pattern == PatternKind.STAGING_AGGREGATION

    def test_later_center_with_contract_history_is_not_staging(self):
        p = sunflower_profile(center_class=NodeClass.LATER_MEMBER)
        finding = detect_sunflower(p, CFG, contract_users=frozenset({"zz"}))
        assert finding is not None
        assert finding.pattern == PatternKind.SUNFLOWER

    def test_too_few_spokes(self):
        p = sunflower_profile(n_spokes=4)
        assert detect_sunflower(p, CFG, frozenset()) is None

    def test_spoke_with_second_outlet_not_counted(self):
        edges = [(f"s{i}", "zz", 10) for i in range(5)]
        edges.append(("s0", "elsewhere", 1))  # s0 now has out-degree 2
        p = profile_of(edges)
        assert detect_sunflower(p, CFG, frozenset()) is None

    def test_monotone_in_min_spokes(self):
        p = sunflower_profile(n_spokes=6)
        assert detect_sunflower(p, CFG, frozenset({"zz"})) is not None
        assert detect_sunflower(p, DetectorConfig(min_spokes=7), frozenset({"zz"})) is None


def sponsorship_setup(n_benes=6, n_sponsors=2, return_flow=True, funder_class=NodeClass.PLAIN):
    benes = [f"b{i:02d}" for i in range(n_benes)]
    sponsors = [f"p{i:02d}" for i in range(n_sponsors)]
    token_edges = []
    ext_edges = []
    for i, b in enumerate(benes):
        for s in sponsors:
            ext_edges.append((s, b, 1))
        if return_flow:
            for s in sponsors:  # rewards split back across the sponsors
                token_edges.append((b, s, 650 * TOKEN // n_sponsors))
        else:
            token_edges.append((b, "hold", 650 * TOKEN))
    token_classes = {b: NodeClass.INITIAL_MEMBER for b in benes}
    profile = profile_of(token_edges, token_classes)
    ext = digraph(ext_edges, node_class=funder_class)
    for b in benes:
        ext.nodes[b] = NodeClass.INITIAL_MEMBER
    return profile, ext


class TestSponsorship:
    def test_planted_clique_detected(self):
        profile, ext = sponsorship_setup()
        finding = detect_sponsorship(profile, ext, T0 + 10**6, CFG)
        assert finding is not None and finding.pattern == PatternKind.SPONSORSHIP_CLIQUE
        sponsors = [a for a, r in finding.members.items() if r == "sponsor"]
        assert sorted(sponsors) == ["p00", "p01"]
        assert finding.aggregate_value == 6 * 2 * (650 * TOKEN // 2)

    def test_cex_only_funding_is_clean(self):
        profile, ext = sponsorship_setup(funder_class=NodeClass.CONTRACT)
        assert detect_sponsorship(profile, ext, T0 + 10**6, CFG) is None

    def test_no_return_flow_is_weak_signal_only(self, caplog):
        profile, ext = sponsorship_setup(return_flow=False)
        with caplog.at_level(logging.INFO):
            finding = detect_sponsorship(profile, ext, T0 + 10**6, CFG)
        assert finding is None
        assert any("weak sponsorship" in r.message for r in caplog.records)

    def test_single_sponsor_not_enough(self):
        profile, ext = sponsorship_setup(n_sponsors=1)
        assert detect_sponsorship(profile, ext, T0 + 10**6, CFG) is None

    @staticmethod
    def link(ext, sink, sponsor="p00"):
        """`ext` with an edge from `sink` to `sponsor`."""
        _add_events(ext, [(sink, sponsor, 1, T0)], (), (), NodeClass.LATER_MEMBER)
        return ext

    def test_rewards_aggregating_to_a_sponsor_linked_sink(self):
        profile, ext = sponsorship_setup(return_flow=False)
        finding = detect_sponsorship(profile, self.link(ext, "hold"), T0 + 10**6, CFG)
        assert finding is not None and finding.pattern == PatternKind.SPONSORSHIP_CLIQUE
        assert finding.members["hold"] == "sink"
        assert finding.aggregate_value == 6 * 650 * TOKEN
        assert finding.evidence[-1] == "rewards aggregate to sponsor-linked sink hold (3900)"

    def test_a_linked_sink_with_one_feeder_is_no_sink(self):
        """One beneficiary feeds the linked sink; the other five feed an
        address that no sponsor is linked to."""
        benes = [f"b{i:02d}" for i in range(6)]
        profile = profile_of(
            [("b00", "hold", 650 * TOKEN), ("hold", "pool", TOKEN)]
            + [(b, "pool", 650 * TOKEN) for b in benes[1:]],
            {b: NodeClass.INITIAL_MEMBER for b in benes})
        _, ext = sponsorship_setup()
        assert detect_sponsorship(profile, self.link(ext, "hold"), T0 + 10**6, CFG) is None

    def test_a_sponsor_is_no_sink(self):
        """Every beneficiary sends p00, a sponsor linked to the other one,
        a transfer of no value: no reward returns to it, and as a sponsor
        it is not taken for the shared sink. (A transfer of value would be
        a direct return.)"""
        benes = [f"b{i:02d}" for i in range(6)]
        profile = profile_of([(b, "p00", 0) for b in benes],
                             {b: NodeClass.INITIAL_MEMBER for b in benes})
        _, ext = sponsorship_setup()
        assert detect_sponsorship(profile, self.link(ext, "p00", "p01"), T0 + 10**6, CFG) is None


class TestCautious:
    def make(self, n=19, external_pairs=6):
        center = "zz"
        spokes = [f"s{i:02d}" for i in range(n - 1)]
        profile = profile_of(
            [(s, center, 650 * TOKEN) for s in spokes],
            {a: NodeClass.INITIAL_MEMBER for a in spokes + [center]},
        )
        ext_edges = [
            (spokes[i], center, 1) for i in range(min(external_pairs, len(spokes)))
        ]
        return profile, digraph(ext_edges)

    def test_sparse_external_linkage_fires(self):
        profile, ext = self.make()
        finding = detect_cautious(profile, ext, CFG)
        assert finding is not None and finding.pattern == PatternKind.CAUTIOUS_CLIQUE
        assert finding.members["zz"] == "sink"

    def test_dense_external_linkage_is_clean(self):
        profile, _ = self.make(n=6)
        nodes = profile.nodes
        ext = digraph([(u, v, 1) for u in nodes for v in nodes if u < v])
        assert detect_cautious(profile, ext, CFG) is None

    def test_density_exactly_at_threshold_is_clean(self):
        profile, _ = self.make(n=6)
        nodes = profile.nodes
        pairs = [(u, v) for u in nodes for v in nodes if u < v]
        linked = pairs[: len(pairs) // 5]  # 3 of 15: exactly 0.2
        ext = digraph(linked)
        assert external_density(profile, ext) == CFG.max_cautious_density
        assert detect_cautious(profile, ext, CFG) is None

    def test_small_component_ignored(self):
        profile, ext = self.make(n=5, external_pairs=0)
        assert detect_cautious(profile, ext, CFG) is None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(edges=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
       members=st.sets(st.integers(0, 11), max_size=10))
def test_external_density_matches_the_pair_loop(edges, members):
    """Self-loops, edges both ways and members outside the graph; the
    density is the pair loop's float exactly."""
    ext = digraph([(addr(u), addr(v)) for u, v in edges])
    nodes = sorted(map(addr, members))
    assert (external_density(SimpleNamespace(nodes=nodes), ext)
            == oracle_external_density(nodes, set(ext.edges)))


class TestBlatant:
    def make(self, size=5, aggregate=True, extra_member=False):
        wallets = [f"w{i:02d}" for i in range(size)]
        ext = digraph([(u, v, 1) for u in wallets for v in wallets if u < v])
        claims = {w: claim(w, ts=T0) for w in wallets}
        token_edges = []
        for w in wallets[1:]:
            token_edges.append((w, wallets[0] if aggregate else f"x_{w}", 650 * TOKEN))
        token = digraph(token_edges)
        return ext, claims, token

    def test_planted_five_clique(self):
        ext, claims, token = self.make()
        findings = detect_blatant(ext, claims, token, CFG)
        assert len(findings) == 1
        assert findings[0].pattern == PatternKind.BLATANT_CLIQUE
        assert findings[0].members["w00"] == "sink"
        assert len(findings[0].members) == 5

    def test_six_clique_outside_range(self):
        ext, claims, token = self.make(size=6)
        assert detect_blatant(ext, claims, token, CFG) == []

    def test_no_aggregation_no_finding(self):
        ext, claims, token = self.make(aggregate=False)
        assert detect_blatant(ext, claims, token, CFG) == []

    def test_non_claimants_excluded_from_clique_graph(self):
        ext, claims, token = self.make()
        del claims["w01"]
        adj = claimant_clique_graph(ext, claims)
        assert "w01" not in adj
        # remaining 4-clique still aggregates to w00
        findings = detect_blatant(ext, claims, token, CFG)
        assert len(findings) == 1 and len(findings[0].members) == 4


class TestVotingPower:
    def test_ratio_against_mean_claim(self):
        p = sunflower_profile()
        finding = detect_sunflower(p, CFG, frozenset({"zz"}))
        # mean claim 6,500 tokens; sink holds 130,000: ratio 20x
        claims = {addr(i): claim(addr(i), Tier.T5200) for i in range(10)}
        claims[addr(11)] = claim(addr(11), Tier.T10400)
        mean = sum(c.amount for c in claims.values()) / len(claims)
        finding.aggregate_value = 130_000 * TOKEN
        rows = voting_power_report([finding], claims)
        assert rows[0].ratio_to_mean == 130_000 * TOKEN / mean
        assert rows[0].ratio_to_mean > 20

    def test_single_claim_member_ratio_one(self):
        p = profile_of([("a", "b", Tier.T5200.amount)])
        claims = {"a": claim("a")}
        finding = detect_chain(p, DetectorConfig(min_chain_len=1))
        rows = voting_power_report([finding], claims)
        assert rows[0].ratio_to_mean == pytest.approx(1.0)

    def test_empty_findings_empty_report(self):
        assert voting_power_report([], {"a": claim("a")}) == []


def test_run_detectors_end_to_end(airdrop_contract):
    # one sunflower planted inside a small community
    center = addr(50)
    spokes = [addr(i) for i in range(51, 59)]
    claims = [claim(a, ts=T0) for a in spokes + [center]]
    token_events = [
        ev(airdrop_contract.address, c.address, c.amount, ts=c.claim_timestamp)
        for c in claims
    ]
    token_events += [
        ev(s, center, Tier.T5200.amount, ts=T0 + 3600 + i) for i, s in enumerate(spokes)
    ]
    external_events = [
        ev(spokes[i], spokes[(i + 1) % len(spokes)], 1, ts=T0 - 3600,
           kind=EventKind.EXTERNAL_TX)
        for i in range(len(spokes))
    ]
    store = make_store(token_events, external_events, [airdrop_contract], claims)
    result = run_detectors(build_token_graph(store), build_external_graph(store),
                           store.claims, store.contracts)
    assert len(result.profiles) == 1
    patterns = {f.pattern for f in result.findings}
    assert patterns == {PatternKind.SUNFLOWER}
    # evidence replay: the cited center really has >= 5 single-outlet spokes
    finding = result.findings[0]
    g = result.profiles[0].graph
    sink = finding.sinks()[0]
    replay_spokes = [p for p in g.in_neighbors(sink) if g.out_degree(p) == 1]
    assert len(replay_spokes) >= DetectorConfig().min_spokes
    assert {a for a, r in finding.members.items() if r == "source"} == set(replay_spokes)


@pytest.mark.parametrize("pre_airdrop", [True, False])
def test_run_detectors_skips_sponsorship_without_pre_airdrop_edges(
    airdrop_contract, caplog, pre_airdrop
):
    """Six claimants funded by two sponsors send their rewards back. With
    the funding after the airdrop, the external graph has no pre-airdrop
    edge: the pass is skipped, with a warning, and nothing is found."""
    airdrop_ts = T0 + 10**6
    funded_at = airdrop_ts - 3600 if pre_airdrop else airdrop_ts + 3600
    benes = [addr(i) for i in range(60, 66)]
    sponsors = [addr(70), addr(71)]
    claims = [claim(b, ts=airdrop_ts) for b in benes]
    token_events = [
        ev(airdrop_contract.address, c.address, c.amount, ts=airdrop_ts) for c in claims
    ]
    token_events += [
        ev(b, s, Tier.T5200.amount // 2, ts=airdrop_ts + 7200) for b in benes for s in sponsors
    ]
    external_events = [
        ev(s, b, 1, ts=funded_at, kind=EventKind.EXTERNAL_TX) for b in benes for s in sponsors
    ]
    store = make_store(token_events, external_events, [airdrop_contract], claims)
    with caplog.at_level(logging.WARNING):
        result = run_detectors(build_token_graph(store), build_external_graph(store),
                               store.claims, store.contracts)
    skipped = any("sponsorship pass skipped" in r.message for r in caplog.records)
    patterns = [f.pattern for f in result.findings]
    assert skipped == (not pre_airdrop)
    assert patterns == ([PatternKind.SPONSORSHIP_CLIQUE] if pre_airdrop else [])


def _contract_store(events, contracts, claims):
    """A store of (sender, receiver, kind) events among addr(0)..addr(5),
    five days apart, with the addresses numbered in `contracts` and
    `claims` as contracts and claimants; self-transfers are kept."""
    return make_store(
        [ev(addr(u), addr(v), 1, ts=WINDOW_START + 86400 * (1 + 5 * i), kind=kind)
         for i, (u, v, kind) in enumerate(events)], [],
        [contract(addr(a), f"c{a}", ContractCategory.TRADING_SWAP) for a in contracts],
        [claim(addr(a)) for a in claims], IngestConfig(allow_self_transfers=True))


_ADDRESS_NUMBERS = st.integers(0, 5)


def _detect_graphs(store):
    """The token and the external graph as detect reads them: the graph
    stage's last token slice (an empty graph when there is none) and the
    external graph, each written as JSON and loaded back."""
    token_graph = CommunityGraph()
    try:
        for sl in iter_slices(store):
            token_graph = sl.graph
    except WindowEmptyError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        written = {"token": token_graph, "external": build_external_graph(store)}
        with artifacts.recording(tmp):
            for name, graph in written.items():
                write_graph_json(graph, Path(tmp) / f"{name}.json")
        loaded = [load_graph_json(Path(tmp) / f"{name}.json") for name in written]
    return tuple(loaded)


@settings(max_examples=300, derandomize=True, deadline=None)
@example(store=_contract_store(  # a contract's self-transfer, contract to contract,
    [(0, 0, EventKind.TOKEN_TRANSFER), (0, 1, EventKind.EXTERNAL_TX),  # a claimant contract,
     (2, 1, EventKind.TOKEN_TRANSFER), (3, 4, EventKind.EXTERNAL_TX),
     (5, 0, EventKind.INTERNAL_TX)], [0, 1], [1, 2]))  # a user by an internal event alone
@given(store=st.builds(
    _contract_store,
    st.lists(st.tuples(_ADDRESS_NUMBERS, _ADDRESS_NUMBERS, st.sampled_from(EventKind)),
             max_size=15),
    st.sets(_ADDRESS_NUMBERS, max_size=4), st.sets(_ADDRESS_NUMBERS, max_size=4)))
def test_contract_users_of_the_graphs_are_the_event_scans(store):
    """The contract users read off the graphs detect loads, plus the
    internal events, which no graph holds, are the ones a scan of the
    store's events finds."""
    internal = store.columns_of(EventKind.INTERNAL_TX)
    assert contract_users(_detect_graphs(store), store.contracts, internal) == (
        contract_user_set(store))


PROTOCOL = addr(999)


@st.composite
def _undirected_graphs(draw):
    """Up to 12 nodes with random edges, some isolated nodes, and sometimes
    two triangles sharing an edge; self-loops are dropped."""
    nodes = [addr(i) for i in range(1, draw(st.integers(1, 12)) + 1)]
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges = draw(st.lists(pair, max_size=30))
    if len(nodes) >= 4 and draw(st.booleans()):
        a, b, c, d = draw(st.permutations(nodes))[:4]
        edges += [(a, b), (b, c), (c, a), (a, d), (b, d)]
    return nodes, [(u, v) for u, v in edges if u != v]


def _nx_graph(nodes, edges):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_undirected_graphs())
def test_maximal_cliques_match_networkx(graph):
    nodes, edges = graph
    adj = {n: set() for n in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    want = sorted(sorted(c) for c in nx.find_cliques(_nx_graph(nodes, edges)))
    assert _maximal_cliques(adj) == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_undirected_graphs(), st.data())
def test_clique_sizes_match_networkx(graph, data):
    """Largest clique per address over external transfers, ignoring
    self-transfers and every edge that touches a protocol address."""
    nodes, edges = graph
    spokes = data.draw(st.lists(st.sampled_from(nodes), max_size=6))
    transfers = edges + [(n, PROTOCOL) for n in spokes] + [(nodes[0], nodes[0])]
    history = EligibilityHistory(
        events=columns([ev(u, v, 1, kind=EventKind.EXTERNAL_TX, ts=T0) for u, v in transfers]),
        balances={},
        protocol_addresses=frozenset({PROTOCOL}),
        coverage_start=T0,
    )
    g = _nx_graph((), edges)
    want = {n: max(len(c) for c in nx.find_cliques(g) if n in c) for n in g}
    assert clique_sizes(history) == want


def test_maximal_cliques_leave_no_cyclic_garbage():
    """The recursion holds no reference back to itself, so the cliques and
    the adjacency are freed by reference counting alone."""
    nodes = [addr(i) for i in range(1, 9)]
    adj = {n: {m for m in nodes if m != n and (int(m, 16) + int(n, 16)) % 3} for n in nodes}
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert _maximal_cliques(adj)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
