"""Agglomerative hierarchical clustering of behavior vectors and roles.

AHC runs on the weighted cosine distance. Because the feature space is
8 binary slots, identical vectors are exactly the zero-distance pairs, so
the clustering works on the multiset of distinct patterns: one distance
table between them, and each pattern's leaves in index order. The
leaf-level tree -- each pattern's leaves chained at height 0 in index
order, patterns in bit order, then the linkage between patterns -- is
expanded only to be written or to list its heights; it is exactly the
naive point-by-point algorithm's tree.

Ties are broken by the smallest lexicographic pair of cluster
representative patterns (minimum member bit tuple). Pattern-first
ordering makes the produced partitions stable under shuffling of the
input, not just deterministic.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum

from . import artifacts
from .config import ClusterConfig, Linkage
from .flows import (
    SPENDING_OPS,
    UNIFORM_WEIGHTS,
    FeatureVector,
    OperationKind,
    weighted_cosine_distance,
)

log = logging.getLogger(__name__)


class TooFewPointsError(artifacts.UserError, ValueError):
    pass


class KOutOfRangeError(ValueError):
    pass


class DegenerateClusteringError(ValueError):
    pass


@dataclass(frozen=True)
class Merge:
    """One agglomeration step. With s starting clusters (leaves or
    patterns) numbered 0..s-1, the i-th merge creates cluster id s+i."""

    a: int
    b: int
    height: float
    size: int


# leaves[pattern][lo:hi] of a Dendrogram: one pattern's share of a cluster.
Piece = tuple[int, int, int]


@dataclass
class Dendrogram:
    """The merge tree on the g distinct patterns, in bit order.

    `leaves[p]` holds the input indices of pattern p in index order,
    `dist` the g x g weighted cosine distances between patterns, and
    `pattern_merges` the g-1 merges between them (pattern p is cluster p).
    """

    n_leaves: int
    leaves: list[list[int]]
    dist: list[list[float]]
    pattern_merges: list[Merge]

    @property
    def merges(self) -> list[Merge]:
        """The n-1 leaf-level merges: leaves are 0..n-1, each pattern's
        leaves chain at height 0, then the pattern merges follow."""
        n = self.n_leaves
        out: list[Merge] = []
        top: list[int] = []  # leaf-level id of each pattern-level cluster
        for members in self.leaves:
            cur = members[0]
            for count, m in enumerate(members[1:], start=2):
                out.append(Merge(cur, m, 0.0, count))
                cur = n + len(out) - 1
            top.append(cur)
        for m in self.pattern_merges:
            out.append(Merge(top[m.a], top[m.b], m.height, m.size))
            top.append(n + len(out) - 1)
        return out

    def to_json(self) -> dict:
        return {
            "n_leaves": self.n_leaves,
            "merges": [[m.a, m.b, m.height, m.size] for m in self.merges],
        }

    def labels(self, clusters: list[list[Piece]]) -> list[int]:
        """Cluster label (1..k) of every leaf."""
        out = [0] * self.n_leaves
        for label, cluster in enumerate(clusters, start=1):
            for p, lo, hi in cluster:
                for leaf in self.leaves[p][lo:hi]:
                    out[leaf] = label
        return out


def ahc(
    features: list[FeatureVector],
    config: ClusterConfig | None = None,
    weights: tuple[float, ...] = UNIFORM_WEIGHTS,
) -> Dendrogram:
    """Full merge tree under the configured linkage, on the weighted cosine
    distance with the slot weights `weights`.

    Exactly equivalent to the naive algorithm that recomputes all
    cluster-pair distances from the point matrix at every step, including
    the tie-breaking order.
    """
    config = config or ClusterConfig()
    n = len(features)
    if n < 2:
        raise TooFewPointsError("clustering needs at least two vectors")

    groups: dict[tuple, list[int]] = {}
    for i, f in enumerate(features):
        groups.setdefault(f.bits, []).append(i)
    leaves = [groups[bits] for bits in sorted(groups)]
    reps = [features[members[0]] for members in leaves]
    dist = [[weighted_cosine_distance(a, b, weights) for b in reps] for a in reps]

    # A cluster is named by its smallest pattern index, which is also its
    # smallest bit tuple; d is the Lance-Williams table between clusters.
    d = [row[:] for row in dist]
    cluster_id = list(range(len(leaves)))
    size = [len(members) for members in leaves]
    active = list(range(len(leaves)))
    merges: list[Merge] = []
    while len(active) > 1:
        h, p, q = min((d[p][q], p, q) for i, p in enumerate(active) for q in active[i + 1:])
        merges.append(Merge(cluster_id[p], cluster_id[q], h, size[p] + size[q]))
        active.remove(q)
        for c in active:
            if c == p:
                continue
            if config.linkage == Linkage.SINGLE:
                d[p][c] = d[c][p] = min(d[p][c], d[q][c])
            elif config.linkage == Linkage.COMPLETE:
                d[p][c] = d[c][p] = max(d[p][c], d[q][c])
            else:
                d[p][c] = d[c][p] = (size[p] * d[p][c] + size[q] * d[q][c]) / (size[p] + size[q])
        cluster_id[p] = len(leaves) + len(merges) - 1
        size[p] += size[q]
    return Dendrogram(n, leaves, dist, merges)


def cut(dendrogram: Dendrogram, k: int) -> list[list[Piece]]:
    """The k clusters left after undoing the last k-1 leaf-level merges,
    ordered by smallest leaf; cluster i has label i+1.

    Up to k = g (distinct patterns) that undoes k-1 pattern merges. Beyond
    it, it undoes the last k-g zero-height chain merges, from the end of
    the sorted pattern order: each splits the last remaining leaf of its
    pattern into a singleton.
    """
    n, leaves = dendrogram.n_leaves, dendrogram.leaves
    g = len(leaves)
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k} outside [1, {n}]")
    clusters = {p: [(p, 0, len(members))] for p, members in enumerate(leaves)}
    for i, m in enumerate(dendrogram.pattern_merges[: max(g - k, 0)]):
        clusters[g + i] = clusters.pop(m.a) + clusters.pop(m.b)
    out = list(clusters.values())
    split = k - len(out)  # > 0 only when no pattern merge was replayed
    for p in reversed(range(g)):
        if split == 0:
            break
        hi = len(leaves[p])
        lo = max(hi - split, 1)
        out[p] = [(p, 0, lo)]
        out += [[(p, j, j + 1)] for j in range(lo, hi)]
        split -= hi - lo
    return sorted(out, key=lambda c: min(leaves[p][lo] for p, lo, _ in c))


def silhouette_score(dendrogram: Dendrogram, clusters: list[list[Piece]]) -> float:
    """Mean silhouette of a cut with the standard degenerate conventions:
    singleton clusters contribute 0, and 0/0 is treated as 0.

    Leaves of one piece behave identically, so each piece is scored once
    and weighted by its size, pieces in order of their smallest leaf.
    """
    if len(clusters) < 2:
        raise DegenerateClusteringError("silhouette needs at least two clusters")
    leaves, dist = dendrogram.leaves, dendrogram.dist
    sizes = [sum(hi - lo for _, lo, hi in cluster) for cluster in clusters]
    pieces = sorted(
        (leaves[p][lo], p, hi - lo, label)
        for label, cluster in enumerate(clusters)
        for p, lo, hi in cluster
    )
    total = 0.0
    for i, (_, p, count, label) in enumerate(pieces):
        nc = sizes[label]
        if nc == 1:
            continue  # singleton contributes 0
        sums = [0.0] * len(clusters)
        for j, (_, q, count_q, label_q) in enumerate(pieces):
            if i != j:
                sums[label_q] += count_q * dist[p][q]
        a = sums[label] / (nc - 1)
        b = min(sums[c] / sizes[c] for c in range(len(clusters)) if c != label)
        denom = max(a, b)
        s = 0.0 if denom == 0.0 else (b - a) / denom
        total += count * s
    return total / dendrogram.n_leaves


@dataclass
class ClusterAssignment:
    labels: dict[str, int]  # address -> cluster id in 1..k
    k: int
    silhouette_by_k: dict[int, float]
    dendrogram: Dendrogram | None = None  # the tree select_k cut


def select_k(
    features: list[FeatureVector],
    config: ClusterConfig | None = None,
    addresses: list[str] | None = None,
    weights: tuple[float, ...] = UNIFORM_WEIGHTS,
) -> ClusterAssignment:
    """Silhouette sweep over the configured K range of the tree `ahc` builds
    under `weights`; argmax wins, ties go to the larger K (richer taxonomy).
    A corpus of all-identical vectors short-circuits to a single cluster.
    The assignment carries the tree it was cut from."""
    config = config or ClusterConfig()
    n = len(features)
    if n < 2:
        raise TooFewPointsError("clustering needs at least two vectors")
    if addresses is None:
        addresses = [str(i) for i in range(n)]
    if len({f.bits for f in features}) == 1:
        return ClusterAssignment({a: 1 for a in addresses}, 1, {}, ahc(features, config, weights))

    k_lo = max(2, config.k_min)
    k_hi = min(config.k_max, n - 1)
    if k_lo > k_hi:
        raise TooFewPointsError(
            f"k range [{config.k_min},{config.k_max}] infeasible for n={n}"
        )
    dendro = ahc(features, config, weights)
    scores = {k: silhouette_score(dendro, cut(dendro, k)) for k in range(k_lo, k_hi + 1)}
    best_k = max(scores, key=lambda k: (scores[k], k))
    if list(scores.values()).count(scores[best_k]) > 1:
        log.info("silhouette tie at %.6f; keeping larger K=%d", scores[best_k], best_k)
    final = dendro.labels(cut(dendro, best_k))
    return ClusterAssignment(dict(zip(addresses, final)), best_k, scores, dendro)


class RoleLabel(str, Enum):
    SPECULATOR = "speculator"
    DIAMOND_HOLDER_RISK_AVERSE = "diamond_holder_risk_averse"
    DIAMOND_HOLDER_RISK_SEEKING = "diamond_holder_risk_seeking"
    AIRDROP_HUNTER_SUSPECT = "airdrop_hunter_suspect"
    DIVERSIFIED_MEMBER = "diversified_member"
    BUYER = "buyer"


_ROLE_RULES: dict[frozenset, RoleLabel] = {
    frozenset({OperationKind.SELL}): RoleLabel.SPECULATOR,
    frozenset({OperationKind.SELL, OperationKind.SEND}): RoleLabel.SPECULATOR,
    frozenset(): RoleLabel.DIAMOND_HOLDER_RISK_AVERSE,
    frozenset({OperationKind.STAKE}): RoleLabel.DIAMOND_HOLDER_RISK_SEEKING,
    frozenset({OperationKind.LP_ADD, OperationKind.STAKE}): RoleLabel.DIAMOND_HOLDER_RISK_SEEKING,
    frozenset({OperationKind.LP_ADD}): RoleLabel.DIAMOND_HOLDER_RISK_SEEKING,
    frozenset({OperationKind.SEND}): RoleLabel.AIRDROP_HUNTER_SUSPECT,
    frozenset({OperationKind.STAKE, OperationKind.SELL}): RoleLabel.DIVERSIFIED_MEMBER,
    frozenset({OperationKind.STAKE, OperationKind.SEND}): RoleLabel.DIVERSIFIED_MEMBER,
    frozenset({OperationKind.LP_ADD, OperationKind.SELL}): RoleLabel.DIVERSIFIED_MEMBER,
    frozenset({OperationKind.LP_ADD, OperationKind.SEND}): RoleLabel.DIVERSIFIED_MEMBER,
}


def role_for_ops(ops) -> RoleLabel | None:
    """Role implied by an operation set; None when no rule matches.

    Any set containing a buy is a buyer; otherwise the subset of ops that
    spend the liquid balance (sell/send/stake/LP add) looks up the fixed
    rule table.
    """
    ops = {OperationKind(o) for o in ops}
    if OperationKind.BUY in ops:
        return RoleLabel.BUYER
    return _ROLE_RULES.get(frozenset(ops & SPENDING_OPS))


@dataclass
class RoleMapping:
    role_of: dict[str, RoleLabel]
    cluster_roles: dict[int, RoleLabel]
    unmapped: list[int]


def map_roles(
    assignment: ClusterAssignment, features: dict[str, FeatureVector]
) -> RoleMapping:
    """Fold clusters into the five-role taxonomy via each cluster's
    characteristic operation set. Clusters matching no rule are reported
    for manual triage, not guessed."""
    cluster_ops: dict[int, set] = defaultdict(set)
    for cluster, pattern in {(c, features[a]) for a, c in assignment.labels.items()}:
        cluster_ops[cluster] |= pattern.op_set() & (SPENDING_OPS | {OperationKind.BUY})

    cluster_roles: dict[int, RoleLabel] = {}
    unmapped: list[int] = []
    for cluster in sorted(cluster_ops):
        role = role_for_ops(cluster_ops[cluster])
        if role is None:
            unmapped.append(cluster)
            log.warning(
                "cluster %d has operation set %s matching no role rule",
                cluster,
                sorted(o.value for o in cluster_ops[cluster]),
            )
        else:
            cluster_roles[cluster] = role
    role_of = {
        addr: cluster_roles[c]
        for addr, c in assignment.labels.items()
        if c in cluster_roles
    }
    return RoleMapping(role_of, cluster_roles, unmapped)


def cluster_shares(assignment: ClusterAssignment) -> dict[int, float]:
    counts = Counter(assignment.labels.values())
    total = len(assignment.labels)
    return {c: counts[c] / total for c in sorted(counts)}


def role_shares(assignment: ClusterAssignment, mapping: RoleMapping) -> dict[RoleLabel, float]:
    """Role percentages as plain sums of their clusters' shares, so the
    additivity identity holds exactly."""
    shares = cluster_shares(assignment)
    out: dict[RoleLabel, float] = {}
    for cluster in sorted(shares):
        role = mapping.cluster_roles.get(cluster)
        if role is None:
            continue
        out[role] = out.get(role, 0.0) + shares[cluster]
    return out


def write_assignment_csv(assignment: ClusterAssignment, mapping: RoleMapping, path) -> None:
    roles = {c: r.value for c, r in mapping.cluster_roles.items()}
    artifacts.write_csv(["address", "cluster", "role"], (
        [addr, str(c), roles.get(c, "unmapped")] for addr, c in sorted(assignment.labels.items())
    ), path)


def read_assignment(path, claimants) -> list[dict[str, str]]:
    """The rows of an assignment.csv that holds one row for each address of
    `claimants`, the ingested claimants, and no other row; any other file
    is unreadable."""
    rows = artifacts.read(path)
    addresses = {row["address"] for row in rows}
    if len(addresses) != len(rows) or addresses != claimants:
        raise artifacts.unreadable(path, f"{len(rows)} rows for {len(addresses)} addresses, "
                                   f"not one for each of {len(claimants)} ingested claimants")
    return rows


def write_silhouette_json(assignment: ClusterAssignment, path) -> None:
    artifacts.write_json({
        "chosen_k": assignment.k,
        "silhouette_by_k": {str(k): v for k, v in sorted(assignment.silhouette_by_k.items())},
    }, path)
