"""Independent brute-force reference implementations.

These recompute every metric from first principles with different
algorithms and different float arrangements than the library code, so an
agreement is meaningful. Big-O does not matter here; clarity does.
"""

import math

from airdrop_forensics.flows import weighted_cosine_distance


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


def naive_silhouette(vectors, labels) -> float:
    n = len(vectors)
    total = 0.0
    for i in range(n):
        mine = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not mine:
            continue  # singleton: contributes 0
        a = sum(weighted_cosine_distance(vectors[i], vectors[j]) for j in mine) / len(mine)
        b = math.inf
        for lab in set(labels) - {labels[i]}:
            others = [j for j in range(n) if labels[j] == lab]
            mean = sum(
                weighted_cosine_distance(vectors[i], vectors[j]) for j in others
            ) / len(others)
            b = min(b, mean)
        denom = max(a, b)
        total += 0.0 if denom == 0.0 else (b - a) / denom
    return total / n


def kernel_sum_density(x: float, samples, h: float) -> float:
    """Direct Gaussian kernel summation at one point."""
    acc = 0.0
    for s in samples:
        z = (x - s) / h
        acc += math.exp(-0.5 * z * z)
    return acc / (len(samples) * h * math.sqrt(2.0 * math.pi))


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
