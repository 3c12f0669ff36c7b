"""Component decomposition and hunter-pattern detection.

Works on the p2p projection of the token graph: contract and CEX nodes
(and their incident edges) are cut away, leaving pure wallet-to-wallet
transfers. Weakly connected components of size >= 2 are profiled, then
matched against the aggregation motifs (chain, sunflower and variants)
and cross-referenced with the external graph for sponsorship, cautious,
and blatant clique structures.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field

from . import artifacts
from .config import DetectorConfig, PatternKind
from .graphs import CommunityGraph, NodeClass, reciprocity
from .ingest import Address, ClaimRecord, ContractInfo, EventColumns, format_token_amount

log = logging.getLogger(__name__)


@dataclass
class ComponentProfile:
    id: int
    graph: CommunityGraph
    nodes: list[Address]  # sorted
    n_initial: int
    n_later: int
    reciprocity: float
    total_value: int

    @property
    def size(self) -> int:
        return self.graph.n_nodes


@dataclass
class PatternFinding:
    component_id: int
    pattern: PatternKind
    members: dict[Address, str]  # address -> role in pattern
    evidence: list[str]
    aggregate_value: int

    def sinks(self) -> list[Address]:
        return sorted(a for a, r in self.members.items() if r == "sink")

    def to_json(self) -> dict:
        return {
            "component_id": self.component_id,
            "pattern": self.pattern.value,
            "members": {a: self.members[a] for a in sorted(self.members)},
            "evidence": self.evidence,
            "aggregate_value": self.aggregate_value,
            "aggregate_display": format_token_amount(self.aggregate_value),
        }


WALLET_CLASSES = {NodeClass.INITIAL_MEMBER, NodeClass.LATER_MEMBER, NodeClass.PLAIN}


def p2p_components(token_graph: CommunityGraph) -> list[ComponentProfile]:
    """Profile the weakly connected wallet-only components.

    Contract and CEX nodes (anything from the dictionary) drop out with
    their incident edges; isolates are removed. Ids are stable: descending
    node count, ties by smallest member address.
    """
    wallets = {a for a, cls in token_graph.nodes.items() if cls in WALLET_CLASSES}
    # The walk stays on wallets, so each component's subgraph induced in
    # token_graph is the one induced in the wallet-only graph, which is
    # never built.
    seen: set[Address] = set()
    comps: list[list[Address]] = []
    for start in sorted(wallets):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            node = stack.pop()
            comp.append(node)
            nbrs = token_graph.out_neighbors(node) | token_graph.in_neighbors(node)
            for nbr in sorted(nbrs & wallets):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        if len(comp) >= 2:
            comps.append(sorted(comp))

    comps.sort(key=lambda c: (-len(c), c[0]))
    profiles = []
    for i, (comp, sub) in enumerate(zip(comps, token_graph.subgraphs(comps)), start=1):
        n_initial = sum(1 for a in comp if sub.nodes[a] == NodeClass.INITIAL_MEMBER)
        profiles.append(
            ComponentProfile(
                id=i,
                graph=sub,
                nodes=comp,
                n_initial=n_initial,
                n_later=len(comp) - n_initial,
                reciprocity=reciprocity(sub),
                total_value=sum(s.total_value for s in sub.edges.values()),
            )
        )
    return profiles


def _merge_role(members: dict[Address, str], addr: Address, role: str) -> None:
    order = {"sink": 3, "sponsor": 3, "relay": 2, "source": 1}
    if order.get(role, 0) >= order.get(members.get(addr, ""), 0):
        members[addr] = role


def detect_chain(profile: ComponentProfile, cfg: DetectorConfig) -> PatternFinding | None:
    """Sequential accumulating transfer: a directed path of at least
    min_chain_len edges whose interior nodes forward everything onward
    (out-degree 1, bounded in-degree) with non-decreasing edge weight.
    Branches that re-converge show up as multiple paths in one finding."""
    g = profile.graph

    def interior_ok(node: Address) -> bool:
        return g.out_degree(node) == 1 and 1 <= g.in_degree(node) <= cfg.max_chain_in

    def weight(u: Address, v: Address) -> int:
        return g.edges[(u, v)].total_value

    paths = []
    for (u, v) in sorted(g.edges):
        if u == v:
            continue
        # Head edge: no valid monotone predecessor extension through u.
        if interior_ok(u) and any(
            p != v and weight(p, u) <= weight(u, v) + cfg.accumulation_slack
            for p in g.in_neighbors(u)
        ):
            continue
        path = [u, v]
        last_w = weight(u, v)
        tip = v
        while interior_ok(tip):
            nxt = next(iter(g.out_neighbors(tip)))
            w = weight(tip, nxt)
            if w < last_w - cfg.accumulation_slack or nxt in path:
                break
            path.append(nxt)
            last_w = w
            tip = nxt
        if len(path) - 1 >= cfg.min_chain_len:
            paths.append(path)

    if not paths:
        return None
    members: dict[Address, str] = {}
    evidence = []
    sinks = set()
    for path in paths:
        members_roles = [("source", path[0])] + [("relay", p) for p in path[1:-1]] + [
            ("sink", path[-1])
        ]
        for role, addr in members_roles:
            _merge_role(members, addr, role)
        sinks.add(path[-1])
        weights = [format_token_amount(weight(a, b)) for a, b in zip(path, path[1:])]
        evidence.append(
            f"accumulating path {' -> '.join(path)} with weights {', '.join(weights)}"
        )
    aggregate = sum(
        g.edges[(p, s)].total_value for s in sorted(sinks) for p in sorted(g.in_neighbors(s))
    )
    evidence.append(
        f"{len(paths)} path(s) of length >= {cfg.min_chain_len} converging on "
        f"{len(sinks)} sink(s)"
    )
    return PatternFinding(profile.id, PatternKind.CHAIN, members, evidence, aggregate)


def detect_sunflower(
    profile: ComponentProfile,
    cfg: DetectorConfig,
    contract_users: frozenset[Address] = frozenset(),
) -> PatternFinding | None:
    """Star-shaped aggregation into one center.

    Spokes are in-neighbors that send to nothing else (out-degree 1). The
    variant depends on the center: a later member that never touched any
    contract is a staging area; a center forwarding at least forward_frac
    of what it received to one successor is a relay; otherwise a plain
    sunflower."""
    g = profile.graph
    best = None
    for center in profile.nodes:
        spokes = sorted(p for p in g.in_neighbors(center) if g.out_degree(p) == 1)
        if len(spokes) >= cfg.min_spokes:
            key = (-len(spokes), center)
            if best is None or key < best[0]:
                best = (key, center, spokes)
    if best is None:
        return None
    _, center, spokes = best
    received = sum(g.edges[(p, center)].total_value for p in sorted(g.in_neighbors(center)))

    successor = None
    forwarded = 0
    for nxt in sorted(g.out_neighbors(center)):
        v = g.edges[(center, nxt)].total_value
        if v > forwarded:
            forwarded, successor = v, nxt

    members: dict[Address, str] = {s: "source" for s in spokes}
    evidence = [
        f"center {center} receives from {len(spokes)} single-outlet spokes "
        f"(>= {cfg.min_spokes}), total {format_token_amount(received)}"
    ]
    if (
        g.nodes[center] == NodeClass.LATER_MEMBER
        and center not in contract_users
    ):
        pattern = PatternKind.STAGING_AGGREGATION
        evidence.append(
            f"center {center} is a later member with no contract interaction on record: "
            "staging area"
        )
        members[center] = "relay"
        if successor is not None:
            members[successor] = "sink"
            evidence.append(f"staged value moves on to {successor}")
        else:
            _merge_role(members, center, "sink")
    elif received > 0 and successor is not None and forwarded / received >= cfg.forward_frac:
        pattern = PatternKind.SUNFLOWER_RELAY
        members[center] = "relay"
        members[successor] = "sink"
        evidence.append(
            f"center forwards {format_token_amount(forwarded)} "
            f"({forwarded / received:.2%} of received, >= {cfg.forward_frac:.0%}) to {successor}"
        )
    else:
        pattern = PatternKind.SUNFLOWER
        members[center] = "sink"
    return PatternFinding(profile.id, pattern, members, evidence, received)


def detect_sponsorship(
    profile: ComponentProfile,
    external_graph: CommunityGraph,
    airdrop_ts: int,
    cfg: DetectorConfig,
) -> PatternFinding | None:
    """Sponsor-funded claim farming: enough of the component's initial
    members share pre-airdrop funding from a common set of non-claimant
    plain addresses, and the claimed tokens flow back toward those
    sponsors (directly or through one linked sink). `run_detectors` calls
    it only when the external graph has an edge from before `airdrop_ts`."""
    g = profile.graph
    initial = [a for a in profile.nodes if g.nodes[a] == NodeClass.INITIAL_MEMBER]
    funders: dict[Address, set[Address]] = {}
    for b in initial:
        fs = set()
        for p in external_graph.in_neighbors(b):
            if external_graph.nodes.get(p) != NodeClass.PLAIN:
                continue  # claimants and dictionary addresses (incl. CEX) are not sponsors
            if external_graph.edges[(p, b)].first_ts < airdrop_ts:
                fs.add(p)
        if fs:
            funders[b] = fs

    backing: dict[Address, int] = defaultdict(int)
    for fs in funders.values():
        for s in fs:
            backing[s] += 1
    sponsors = sorted(s for s, count in backing.items() if count >= 2)
    beneficiaries = sorted(b for b, fs in funders.items() if fs & set(sponsors))
    if len(sponsors) < cfg.min_sponsors or len(beneficiaries) < cfg.min_beneficiaries:
        return None

    sponsor_set = set(sponsors)
    returned = 0
    route = []
    for b in beneficiaries:
        for s in sorted(g.out_neighbors(b) & sponsor_set):
            returned += g.edges[(b, s)].total_value
            route.append((b, s))

    sink = None
    if returned == 0:
        # One hop: a shared sink that collects from the beneficiaries and
        # is linked to a sponsor in either graph.
        for x in profile.nodes:
            feeders = [b for b in beneficiaries if x in g.out_neighbors(b)]
            if len(feeders) < 2 or x in sponsor_set:
                continue
            linked = any(
                (x, s) in g.edges or (s, x) in g.edges
                or (x, s) in external_graph.edges or (s, x) in external_graph.edges
                for s in sponsors
            )
            if linked:
                sink = x
                returned = sum(g.edges[(b, x)].total_value for b in feeders)
                break
        if sink is None:
            log.info(
                "component %d: %d members share %d sponsors but no return flow "
                "(weak sponsorship signal)",
                profile.id, len(beneficiaries), len(sponsors),
            )
            return None

    members: dict[Address, str] = {b: "source" for b in beneficiaries}
    for s in sponsors:
        members[s] = "sponsor"
    evidence = [
        f"{len(beneficiaries)} initial members (>= {cfg.min_beneficiaries}) funded "
        f"pre-airdrop by {len(sponsors)} common non-claimant sponsors (>= {cfg.min_sponsors}): "
        + ", ".join(sponsors)
    ]
    if sink is not None:
        members[sink] = "sink"
        evidence.append(
            f"rewards aggregate to sponsor-linked sink {sink} "
            f"({format_token_amount(returned)})"
        )
    else:
        evidence.append(
            f"rewards return directly along the sponsorship route "
            f"({len(route)} transfers, {format_token_amount(returned)})"
        )
    return PatternFinding(
        profile.id, PatternKind.SPONSORSHIP_CLIQUE, members, evidence, returned
    )


def external_density(profile: ComponentProfile, external_graph: CommunityGraph) -> float:
    """Fraction of member pairs linked (either direction) in the external
    graph, counted from each member's out-neighbours among the members."""
    members = set(profile.nodes)
    n = len(members)
    pairs = n * (n - 1) // 2
    linked = {(u, v) if u < v else (v, u)
              for u in profile.nodes for v in external_graph.out_neighbors(u) & members if u != v}
    return len(linked) / pairs if pairs else 0.0


def detect_cautious(
    profile: ComponentProfile,
    external_graph: CommunityGraph,
    cfg: DetectorConfig,
) -> PatternFinding | None:
    """Strong post-airdrop linkage with weak pre-airdrop linkage: a big
    token aggregation component whose members barely touch each other in
    the external graph (density strictly below the threshold)."""
    if profile.size < cfg.min_cautious_size:
        return None
    density = external_density(profile, external_graph)
    if not density < cfg.max_cautious_density:
        return None
    g = profile.graph
    members: dict[Address, str] = {a: "source" for a in profile.nodes}
    center = max(
        profile.nodes,
        key=lambda a: (sum(g.edges[(p, a)].total_value for p in g.in_neighbors(a)), a),
    )
    members[center] = "sink"
    received = sum(g.edges[(p, center)].total_value for p in sorted(g.in_neighbors(center)))
    evidence = [
        f"component of {profile.size} members (>= {cfg.min_cautious_size}) with external "
        f"edge density {density:.3f} < {cfg.max_cautious_density}",
        f"heaviest aggregation point {center} received {format_token_amount(received)}",
    ]
    return PatternFinding(
        profile.id, PatternKind.CAUTIOUS_CLIQUE, members, evidence, received
    )


def _maximal_cliques(adj: dict[Address, set[Address]]) -> list[list[Address]]:
    """Bron-Kerbosch with pivoting; deterministic via sorted iteration."""
    cliques: list[list[Address]] = []
    _expand(adj, set(), set(adj), set(), cliques)
    return sorted(cliques)


def _expand(adj: dict[Address, set[Address]], r: set, p: set, x: set, cliques: list) -> None:
    """Report every maximal clique that extends `r` with members of `p` and
    none of `x`. Each call owns its `p` and `x`; the pivot is unique because
    its key ends with the address."""
    if not p and not x:
        cliques.append(sorted(r))
        return
    pivot = max(p | x, key=lambda u: (len(adj[u] & p), u))
    for v in sorted(p - adj[pivot]):
        _expand(adj, r | {v}, p & adj[v], x & adj[v], cliques)
        p.discard(v)
        x.add(v)


def claimant_clique_graph(
    external_graph: CommunityGraph, claims: dict
) -> dict[Address, set[Address]]:
    """Undirected projection of the external graph induced on claimants."""
    adj: dict[Address, set[Address]] = defaultdict(set)
    for (u, v) in external_graph.edges:
        if u != v and u in claims and v in claims:
            adj[u].add(v)
            adj[v].add(u)
    return dict(adj)


def detect_blatant(
    external_graph: CommunityGraph,
    claims: dict,
    token_graph: CommunityGraph,
    cfg: DetectorConfig,
    component_of: dict[Address, int] | None = None,
) -> list[PatternFinding]:
    """Fully interconnected claimant groups sized to duck the screening
    bound, whose rewards aggregate post-airdrop to one member."""
    adj = claimant_clique_graph(external_graph, claims)
    findings = []
    for clique in _maximal_cliques(adj):
        if not cfg.min_clique <= len(clique) <= cfg.max_clique:
            continue
        sink = None
        aggregate = 0
        for candidate in clique:
            inflows = [
                token_graph.edges[(m, candidate)].total_value
                for m in clique
                if m != candidate and (m, candidate) in token_graph.edges
            ]
            if len(inflows) == len(clique) - 1:
                sink = candidate
                aggregate = sum(inflows)
                break
        if sink is None:
            continue
        members = {a: "source" for a in clique}
        members[sink] = "sink"
        comp_id = (component_of or {}).get(sink, -1)
        findings.append(
            PatternFinding(
                comp_id,
                PatternKind.BLATANT_CLIQUE,
                members,
                [
                    f"external clique of {len(clique)} claimants "
                    f"(within [{cfg.min_clique}, {cfg.max_clique}]): {', '.join(clique)}",
                    f"all rewards aggregate to {sink} "
                    f"({format_token_amount(aggregate)})",
                ],
                aggregate,
            )
        )
    return findings


@dataclass
class DetectionResult:
    profiles: list[ComponentProfile]
    findings: list[PatternFinding] = field(default_factory=list)


def contract_users(graphs, contracts, events: EventColumns | None) -> frozenset[Address]:
    """Addresses that share an edge in any of `graphs`, or an event of
    `events` if given, with an address in `contracts`; a contract with a
    self-loop is one. Given the token and the external graph, which hold
    every event of those two kinds, and the internal events, which no graph
    holds, these are the addresses with an interaction with a contract on
    record."""
    users = set().union(*(g.out_neighbors(c) | g.in_neighbors(c)
                          for g in graphs for c in contracts))
    if events is not None:
        for sender, receiver in zip(events.senders, events.receivers):
            if sender in contracts:
                users.add(receiver)
            if receiver in contracts:
                users.add(sender)
    return frozenset(users)


def run_detectors(
    token_graph: CommunityGraph,
    external_graph: CommunityGraph,
    claims: dict[Address, ClaimRecord],
    contracts: dict[Address, ContractInfo],
    cfg: DetectorConfig | None = None,
    internal_events: EventColumns | None = None,
) -> DetectionResult:
    """End-to-end detection pass over all p2p components plus the
    cross-graph clique detectors. `internal_events` are the store's
    internal_tx events, if it holds any: no graph holds them, but an
    address they join to a contract is a contract user."""
    cfg = cfg or DetectorConfig()
    profiles = p2p_components(token_graph)
    users = contract_users((token_graph, external_graph), contracts, internal_events)
    airdrop_ts = min((c.claim_timestamp for c in claims.values()), default=None)
    has_pre_window = airdrop_ts is not None and any(
        s.first_ts < airdrop_ts for s in external_graph.edges.values()
    )
    if airdrop_ts is not None and not has_pre_window:
        log.warning("external history has no pre-airdrop coverage; sponsorship pass skipped")

    findings: list[PatternFinding] = []
    for profile in profiles:
        for f in (
            detect_chain(profile, cfg),
            detect_sunflower(profile, cfg, users),
            detect_cautious(profile, external_graph, cfg),
        ):
            if f is not None:
                findings.append(f)
        if has_pre_window:
            f = detect_sponsorship(profile, external_graph, airdrop_ts, cfg)
            if f is not None:
                findings.append(f)

    component_of = {
        a: profile.id for profile in profiles for a in profile.nodes
    }
    findings.extend(
        detect_blatant(external_graph, claims, token_graph, cfg, component_of)
    )
    findings.sort(key=lambda f: (f.component_id, f.pattern.value, min(f.members)))
    return DetectionResult(profiles, findings)


@dataclass
class VotingPowerRow:
    component_id: int
    pattern: str
    sink: Address | None
    aggregate_value: int
    ratio_to_mean: float


def voting_power_report(findings: list[PatternFinding], claims: dict) -> list[VotingPowerRow]:
    """Token weight controlled by each pattern's sink, relative to the
    mean claim."""
    if not claims:
        mean_claim = 0
    else:
        mean_claim = sum(c.amount for c in claims.values()) / len(claims)
    rows = []
    for f in findings:
        sinks = f.sinks()
        ratio = f.aggregate_value / mean_claim if mean_claim else 0.0
        rows.append(
            VotingPowerRow(
                f.component_id,
                f.pattern.value,
                sinks[0] if sinks else None,
                f.aggregate_value,
                ratio,
            )
        )
    return rows


def write_components_csv(profiles: list[ComponentProfile], path) -> None:
    artifacts.write_csv(
        ["id", "nodes", "edges", "n_initial", "n_later", "reciprocity", "total_value"],
        ([str(p.id), str(p.size), str(p.graph.n_edges), str(p.n_initial), str(p.n_later),
          repr(p.reciprocity), str(p.total_value)] for p in profiles), path)


def write_voting_power_json(rows: list[VotingPowerRow], path) -> None:
    artifacts.write_json([
        {
            "component_id": r.component_id,
            "pattern": r.pattern,
            "sink": r.sink,
            "aggregate_value": r.aggregate_value,
            "aggregate_display": format_token_amount(r.aggregate_value),
            "ratio_to_mean": r.ratio_to_mean,
        }
        for r in rows
    ], path)
