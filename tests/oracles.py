"""Independent brute-force reference implementations.

These recompute every metric from first principles with different
algorithms and different float arrangements than the library code, so an
agreement is meaningful. Big-O does not matter here; clarity does.
"""

import csv
import json
import math
from types import SimpleNamespace
from xml.sax.saxutils import escape

from airdrop_forensics.flows import UNIFORM_WEIGHTS, OperationKind, weighted_cosine_distance
from airdrop_forensics.graphs import CommunityGraph, EdgeStats, NodeClass, _tarjan
from airdrop_forensics.ingest import (
    TRANSFER_COLUMNS,
    ClaimRecord,
    ContractCategory,
    ContractInfo,
    EventKind,
    IngestError,
    MalformedRow,
    Tier,
    TransferEvent,
    format_token_amount,
)


def oracle_reciprocity(edges) -> float:
    es = {(u, v) for (u, v) in edges if u != v}
    mutual = sum(1 for (u, v) in es if (v, u) in es)
    return mutual / len(es)


def oracle_assortativity(nodes, edges, mode="out_in"):
    """Pearson via the raw-moment formula; None when degenerate."""
    out_nb = {n: set() for n in nodes}
    in_nb = {n: set() for n in nodes}
    for u, v in edges:
        out_nb[u].add(v)
        in_nb[v].add(u)
    if mode == "out_in":
        pairs = [(len(out_nb[u]), len(in_nb[v])) for (u, v) in edges]
    else:
        pairs = [
            (len(out_nb[u]) + len(in_nb[u]), len(out_nb[v]) + len(in_nb[v]))
            for (u, v) in edges
        ]
    if len(pairs) < 2:
        return None
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        return None
    n = len(pairs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    sxy = sum(x * y for x, y in pairs)
    num = n * sxy - sx * sy
    den = math.sqrt(n * sxx - sx * sx) * math.sqrt(n * syy - sy * sy)
    return num / den


def scan_reciprocity(graph):
    """Reciprocity by a scan over every edge; None when undefined."""
    edges = [(u, v) for (u, v) in graph.edges if u != v]
    if not edges:
        return None
    mutual = sum(1 for (u, v) in edges if (v, u) in graph.edges)
    return mutual / len(edges)


def scan_assortativity(graph, mode="out_in"):
    """Degree assortativity with per-edge degree lookups and the float sums
    as plain left-to-right loops in edge order, whose bits do not depend on
    the interpreter's builtin `sum`. None when undefined."""
    if graph.n_edges < 2:
        return None
    if mode == "out_in":
        xs = [graph.out_degree(u) for (u, v) in graph.edges]
        ys = [graph.in_degree(v) for (u, v) in graph.edges]
    else:
        xs = [graph.out_degree(u) + graph.in_degree(u) for (u, v) in graph.edges]
        ys = [graph.out_degree(v) + graph.in_degree(v) for (u, v) in graph.edges]
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        return None
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = vx = vy = 0.0
    for x, y in zip(xs, ys):
        cov += (x - mx) * (y - my)
    for x in xs:
        vx += (x - mx) ** 2
    for y in ys:
        vy += (y - my) ** 2
    return cov / math.sqrt(vx * vy)


def oracle_attracting(nodes, edges) -> int:
    """SCCs from a full reachability closure, then an exhaustive check
    that no edge leaves the component."""
    order = sorted(nodes)
    idx = {n: i for i, n in enumerate(order)}
    n = len(order)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for u, v in edges:
        reach[idx[u]][idx[v]] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    comps: list[list[int]] = []
    for i in range(n):
        for comp in comps:
            j = comp[0]
            if reach[i][j] and reach[j][i]:
                comp.append(i)
                break
        else:
            comps.append([i])
    count = 0
    for comp in comps:
        members = set(comp)
        leaving = any(
            idx[u] in members and idx[v] not in members for (u, v) in edges
        )
        if not leaving:
            count += 1
    return count


def event_by_event_graph(events, claims, contracts, default) -> CommunityGraph:
    """The graph of `events`, (sender, receiver, value, timestamp) tuples
    as zip(*columns) gives them, built one event at a time, a node and an edge
    by the rules graphs' insertion loop keeps inline: a new address gets the
    next id and the class of the first event naming it (claimant, then
    contract, then `default`); a new edge appends its endpoints' ids and
    bumps `_loops` or, when its reverse is present, `_mutual` by 2; a
    repeated one adds value and count and takes the min and max
    timestamps."""
    g = CommunityGraph()

    def add_node(addr):
        if addr in g.nodes:
            return
        g._id[addr] = len(g.nodes)
        g.nodes[addr] = (NodeClass.INITIAL_MEMBER if addr in claims
                         else NodeClass.CONTRACT if addr in contracts else default)
        g._out[addr] = set()
        g._in[addr] = set()

    for u, v, value, ts in events:
        add_node(u)
        add_node(v)
        stats = g.edges.get((u, v))
        if stats is not None:
            stats.total_value += value
            stats.tx_count += 1
            stats.first_ts = min(stats.first_ts, ts)
            stats.last_ts = max(stats.last_ts, ts)
            continue
        if u == v:
            g._loops += 1
        elif (v, u) in g.edges:
            g._mutual += 2
        g.edges[(u, v)] = EdgeStats(value, 1, ts, ts)
        g._out[u].add(v)
        g._in[v].add(u)
        g._src.append(g._id[u])
        g._dst.append(g._id[v])
    return g


def strongly_connected_components(graph):
    """The library's `_tarjan` over every node, each component sorted and
    the list ordered by first member, whatever the set iteration order;
    tests/test_graphs.py checks it against networkx."""
    comps = _tarjan(graph._out, graph.nodes)
    return sorted((sorted(comp) for comp in comps), key=lambda comp: comp[0])


def naive_ahc_heights(vectors, linkage="single"):
    """O(n^3) agglomeration recomputing cluster distances from the point
    matrix at every step, with the same tie-break rule (smallest pair of
    representative bit patterns, then member indices)."""
    n = len(vectors)
    d = [[weighted_cosine_distance(a, b) for b in vectors] for a in vectors]
    clusters = [[i] for i in range(n)]
    heights = []
    while len(clusters) > 1:
        best = None
        best_pair = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                pts = [d[p][q] for p in clusters[i] for q in clusters[j]]
                if linkage == "single":
                    dist = min(pts)
                elif linkage == "complete":
                    dist = max(pts)
                else:
                    dist = sum(pts) / len(pts)
                bits_i = min(vectors[p].bits for p in clusters[i])
                bits_j = min(vectors[p].bits for p in clusters[j])
                key = (
                    dist,
                    *sorted((bits_i, bits_j)),
                    *sorted((min(clusters[i]), min(clusters[j]))),
                )
                if best is None or key < best:
                    best = key
                    best_pair = (i, j)
        i, j = best_pair
        heights.append(best[0])
        merged = clusters[i] + clusters[j]
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
    return heights


def naive_cut(dendrogram_merges, n, k):
    """Leaf labels (1..k) after replaying the first n-k leaf-level merges
    over explicit member lists; clusters are numbered by smallest leaf."""
    members = {i: [i] for i in range(n)}
    for pos, m in enumerate(dendrogram_merges[: n - k]):
        members[n + pos] = members.pop(m.a) + members.pop(m.b)
    labels = [0] * n
    for label, cluster in enumerate(sorted(members.values(), key=min), start=1):
        for leaf in cluster:
            labels[leaf] = label
    return labels


def naive_silhouette(vectors, labels, weights=UNIFORM_WEIGHTS) -> float:
    n = len(vectors)
    total = 0.0
    for i in range(n):
        mine = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not mine:
            continue  # singleton: contributes 0
        a = sum(weighted_cosine_distance(vectors[i], vectors[j], weights) for j in mine) / len(mine)
        b = math.inf
        for lab in set(labels) - {labels[i]}:
            others = [j for j in range(n) if labels[j] == lab]
            mean = sum(
                weighted_cosine_distance(vectors[i], vectors[j], weights) for j in others
            ) / len(others)
            b = min(b, mean)
        denom = max(a, b)
        total += 0.0 if denom == 0.0 else (b - a) / denom
    return total / n


def cluster_purity(truth, assignment) -> tuple[float, dict[int, float]]:
    """Fraction of members whose cluster's dominant planted signature is
    their own, overall and per cluster."""
    clusters: dict[int, dict[str, int]] = {}
    for addr, cluster in assignment.labels.items():
        sig = truth.signature_of.get(addr, "?")
        clusters.setdefault(cluster, {}).setdefault(sig, 0)
        clusters[cluster][sig] += 1
    per_cluster = {}
    agreeing = 0
    total = 0
    for cluster, counts in sorted(clusters.items()):
        size = sum(counts.values())
        top = max(counts.values())
        per_cluster[cluster] = top / size
        agreeing += top
        total += size
    return (agreeing / total if total else 1.0), per_cluster


def kernel_sum_density(x: float, samples, h: float) -> float:
    """Direct Gaussian kernel summation at one point."""
    acc = 0.0
    for s in samples:
        z = (x - s) / h
        acc += math.exp(-0.5 * z * z)
    return acc / (len(samples) * h * math.sqrt(2.0 * math.pi))


# Whole-text graph exports, each built as one list of lines and joined: the
# references the batched writers in graphs.py must match byte for byte.

DOT_COLORS = {"initial_member": "orange", "later_member": "skyblue",
              "contract": "gray", "plain": "white"}


def _attribute(text: str) -> str:
    """`text` escaped for a double-quoted XML attribute value."""
    return escape(text, {'"': "&quot;"})


def _dot_id(text: str) -> str:
    """`text` as a double-quoted DOT id: each quote escaped, and a run of
    an odd number of backslashes before a quote, a newline or the end made
    even."""
    out, run = [], 0
    for ch in text + '"':
        if ch == "\\":
            run += 1
            continue
        out.append("\\" * (run + run % 2 if ch in '"\n' else run))
        out.append(ch if ch != '"' else '\\"')
        run = 0
    return '"' + "".join(out)[:-2] + '"'


def read_dot_id(text: str, start: int = 0) -> tuple[str, int]:
    """The double-quoted DOT id that opens at text[start], and the index
    after its closing quote, as Graphviz's lexer reads it: '\\"' is a
    quote, a pair of backslashes stands for itself, a backslash before a
    newline is dropped with it, and any other character is itself.
    ValueError when the quotes never close."""
    if text[start:start + 1] != '"':
        raise ValueError(f"no quoted id at {start}")
    out, i = [], start + 1
    while i < len(text):
        ch, nxt = text[i], text[i + 1:i + 2]
        if ch == '"':
            return "".join(out), i + 1
        if ch == "\\" and nxt in ('"', "\\", "\n"):
            out.append({'"': '"', "\\": "\\\\", "\n": ""}[nxt])
            i += 2
        else:
            out.append(ch)
            i += 1
    raise ValueError("unterminated quoted id")


def to_graphml(graph) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d0" for="node" attr.name="node_class" attr.type="string"/>',
        '  <key id="d1" for="edge" attr.name="weight" attr.type="double"/>',
        '  <key id="d2" for="edge" attr.name="tx_count" attr.type="int"/>',
        '  <graph edgedefault="directed">',
    ]
    for addr in sorted(graph.nodes):
        lines.append(f'    <node id="{_attribute(addr)}">')
        lines.append(f'      <data key="d0">{graph.nodes[addr].value}</data>')
        lines.append("    </node>")
    for (u, v) in sorted(graph.edges):
        stats = graph.edges[(u, v)]
        lines.append(f'    <edge source="{_attribute(u)}" target="{_attribute(v)}">')
        lines.append(f'      <data key="d1">{format_token_amount(stats.total_value)}</data>')
        lines.append(f'      <data key="d2">{stats.tx_count}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def to_dot(graph, name="community") -> str:
    lines = [f"digraph {name} {{", "  node [style=filled];"]
    for addr in sorted(graph.nodes):
        cls = graph.nodes[addr].value
        lines.append(f'  {_dot_id(addr)} [node_class="{cls}", fillcolor="{DOT_COLORS[cls]}"];')
    for (u, v) in sorted(graph.edges):
        stats = graph.edges[(u, v)]
        lines.append(f'  {_dot_id(u)} -> {_dot_id(v)} '
                     f'[weight="{format_token_amount(stats.total_value)}", '
                     f'tx_count="{stats.tx_count}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph) -> dict:
    """The payload of a graph JSON file; `compact_json` gives its text."""
    return {
        "nodes": [[a, graph.nodes[a].value] for a in sorted(graph.nodes)],
        "edges": [[u, v, s.total_value, s.tx_count, s.first_ts, s.last_ts]
                  for (u, v), s in sorted(graph.edges.items())],
    }


def compact_json(payload) -> str:
    """The text of a compact JSON file: sorted keys, no whitespace, and a
    final newline."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def random_digraph(rng, max_n=50, p=None):
    """A random directed graph as (nodes, edges) with addresses as ids."""
    n = rng.randint(2, max_n)
    p = p if p is not None else rng.choice([0.05, 0.1, 0.2, 0.4])
    nodes = [f"0x{i:040x}" for i in range(n)]
    edges = []
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < p:
                edges.append((u, v))
    return nodes, edges


def oracle_external_density(nodes, edges) -> float:
    """Fraction of the pairs of `nodes` linked (either direction) by one of
    `edges`, a set of (u, v): every pair looked up."""
    n = len(nodes)
    pairs = n * (n - 1) // 2
    linked = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (nodes[i], nodes[j]) in edges or (nodes[j], nodes[i]) in edges:
                linked += 1
    return linked / pairs if pairs else 0.0


def naive_apply(flow, op, amount: int, ts: int) -> bool:
    """One branch per operation over `flow.balance`, `.staked`, `.lp` and
    `.excluded`; False (and an exclusion reason) when a position would go
    negative."""
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


def naive_timeline(applied, start_ts: int, end_ts: int):
    """End-of-day (balance, staked, lp) lists replayed from zero over the
    applied (op, amount, timestamp) events in order."""
    days = (end_ts - start_ts) // 86400 + 1
    state = SimpleNamespace(balance=0, staked=0, lp=0, excluded=[])
    series = ([], [], [])
    pending = list(applied)
    for day in range(days):
        day_end = start_ts + (day + 1) * 86400 - 1
        while pending and pending[0][2] <= day_end:
            assert naive_apply(state, *pending.pop(0))
        for values, value in zip(series, (state.balance, state.staked, state.lp)):
            values.append(value)
    return series


def period_days(series) -> int:
    """Days with a nonzero end-of-day position: how long the activity was
    actually carried."""
    return sum(1 for v in series if v > 0)


def quantity(series) -> float:
    """Mean position over the active days, display units."""
    active = [v for v in series if v > 0]
    if not active:
        return 0.0
    return sum(active) / len(active) / 10**18


# The raw-export parsers as they read rows through csv.DictReader: the
# reference for ingest's positional reader. Same results and the same
# malformed-row text, line numbers and order.

def _dict_rows(path, columns=()):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None:
            raise IngestError(f"{path}: empty file, missing header")
        rows = list(enumerate(reader, start=2))
        missing = [c for c in columns if c not in reader.fieldnames]
        if rows and missing:
            raise IngestError(f"{path}: header missing columns {missing}")
        return rows


def _hex(raw: str, digits: int, what: str) -> str:
    s = raw.strip().lower()
    if s.startswith("0x"):
        s = s[2:]
    if len(s) != digits or not set(s) <= set("0123456789abcdef"):
        raise ValueError(f"not a {what}: {raw!r}")
    return "0x" + s


def _address(raw: str) -> str:
    return _hex(raw, 40, "20-byte hex address")


def dictreader_parse_transfers(path, kind=EventKind.TOKEN_TRANSFER, allow_self_transfers=False):
    events, errors = [], []
    for line_no, row in _dict_rows(path, TRANSFER_COLUMNS):
        try:
            missing = [c for c in TRANSFER_COLUMNS if not row.get(c)]
            if missing:
                raise ValueError(f"missing fields {missing}")
            tx_hash = _hex(row["tx_hash"], 64, "32-byte tx hash")
            sender = _address(row["from"])
            receiver = _address(row["to"])
            value = int(row["value"].strip())
            if value < 0:
                raise ValueError(f"negative value {value}")
            timestamp = int(row["timestamp"].strip())
            block = int(row["block"].strip())
            if block < 0:
                raise ValueError(f"negative block {block}")
            if sender == receiver and not allow_self_transfers:
                raise ValueError("self-transfer not allowed by config")
            log_index = int((row.get("log_index") or "0").strip())
            row_kind = EventKind(row["kind"].strip()) if row.get("kind") else kind
            events.append(TransferEvent(tx_hash, sender, receiver, value, timestamp, block,
                                        row_kind, log_index))
        except (ValueError, KeyError) as exc:
            errors.append(MalformedRow(line_no, str(exc)))
    events.sort(key=lambda e: (e.timestamp, e.block, e.tx_hash, e.log_index))
    return events, sorted(errors)


def dictreader_parse_contracts(path):
    contracts, errors, seen = [], [], {}
    categories = {c.value.lower(): c for c in ContractCategory}
    for line_no, row in _dict_rows(path):
        try:
            address = _address(row["address"])
            name = row["name"].strip()
            if "\r" in name:
                raise ValueError(f"contract name {name!r} holds a carriage return")
            category = categories.get(row["category"].strip().lower())
            if category is None:
                raise ValueError(f"unknown category {row['category']!r}")
            info = ContractInfo(address, name, category)
            if address in seen and seen[address] != info:  # an exact repeat is kept
                raise ValueError(f"duplicate contract entry for {address}")
            seen.setdefault(address, info)
            contracts.append(info)
        except (ValueError, KeyError) as exc:
            errors.append(MalformedRow(line_no, str(exc)))
    contracts.sort(key=lambda c: c.address)
    return contracts, sorted(errors)


def dictreader_parse_claims(path):
    claims, errors = [], []
    for line_no, row in _dict_rows(path):
        try:
            address = _address(row["address"])
            tier = Tier(int(row["tier"].strip()))
            amount = int(row["amount"].strip())
            if amount != tier.amount:
                raise ValueError(f"amount {amount} does not match tier face value {tier.amount}")
            timestamp = int(row["timestamp"].strip())
            claims.append(ClaimRecord(address, tier, amount, timestamp))
        except (ValueError, KeyError) as exc:
            errors.append(MalformedRow(line_no, str(exc)))
    claims.sort(key=lambda c: c.address)
    return claims, sorted(errors)


def contract_user_set(store) -> frozenset:
    """Addresses with any on-record interaction with a dictionary
    contract, in either the token or the external history: a scan of the
    store's events, where forensics.contract_users reads the graphs."""
    users = set()
    for ev in store.events:
        if ev.sender in store.contracts:
            users.add(ev.receiver)
        if ev.receiver in store.contracts:
            users.add(ev.sender)
    return frozenset(users)
