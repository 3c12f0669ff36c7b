"""Agglomerative hierarchical clustering of behavior vectors and roles.

AHC runs on the weighted cosine distance. Because the feature space is
8 binary slots, identical vectors are exactly the zero-distance pairs;
the implementation merges those first (in index order) and then runs the
linkage on the distinct patterns, which reproduces the naive
point-by-point algorithm exactly while staying fast at corpus scale.

Ties are broken by the smallest lexicographic pair of cluster
representative patterns (minimum member bit tuple), with member indices
as the final fallback. Pattern-first ordering makes the produced
partitions stable under shuffling of the input, not just deterministic.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum

from . import artifacts
from .flows import (
    FeatureVector,
    OperationKind,
    WeightMismatchError,
    weighted_cosine_distance,
)

log = logging.getLogger(__name__)


class TooFewPointsError(ValueError):
    pass


class KOutOfRangeError(ValueError):
    pass


class DegenerateClusteringError(ValueError):
    pass


class Linkage(str, Enum):
    SINGLE = "single"
    COMPLETE = "complete"
    AVERAGE = "average"


@dataclass(frozen=True)
class ClusterConfig:
    """Linkage and the K range select_k searches; the distance weights
    travel with the feature vectors."""

    linkage: Linkage = Linkage.SINGLE
    k_min: int = 2
    k_max: int = 20

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise ValueError(f"k_min {self.k_min} > k_max {self.k_max}")


@dataclass(frozen=True)
class Merge:
    """One agglomeration step. Leaves are 0..n-1; the i-th merge creates
    cluster id n+i."""

    a: int
    b: int
    height: float
    size: int


@dataclass
class Dendrogram:
    n_leaves: int
    merges: list[Merge]

    def heights(self) -> list[float]:
        return [m.height for m in self.merges]

    def to_json(self) -> dict:
        return {
            "n_leaves": self.n_leaves,
            "merges": [[m.a, m.b, m.height, m.size] for m in self.merges],
        }


def ahc(features: list[FeatureVector], config: ClusterConfig | None = None) -> Dendrogram:
    """Full merge tree under the configured linkage.

    Exactly equivalent to the naive algorithm that recomputes all
    cluster-pair distances from the point matrix at every step, including
    the tie-breaking order.
    """
    config = config or ClusterConfig()
    n = len(features)
    if n < 2:
        raise TooFewPointsError("clustering needs at least two vectors")
    w = features[0].weights
    for f in features[1:]:
        if f.weights != w:
            raise WeightMismatchError("all feature vectors must share one weight vector")

    # Identical bit patterns are exactly the zero-distance pairs.
    groups: dict[tuple, list[int]] = {}
    for i, f in enumerate(features):
        groups.setdefault(f.bits, []).append(i)

    merges: list[Merge] = []
    next_id = n
    # (cluster_id, min_index, size, representative vector, min bit tuple)
    active: list[list] = []
    for bits, members in sorted(groups.items()):
        cur = members[0]
        for count, m in enumerate(members[1:], start=2):
            merges.append(Merge(cur, m, 0.0, count))
            cur = next_id
            next_id += 1
        active.append([cur, members[0], len(members), features[members[0]], bits])

    dist: dict[frozenset, float] = {}
    for i in range(len(active)):
        for j in range(i + 1, len(active)):
            dist[frozenset((active[i][0], active[j][0]))] = weighted_cosine_distance(
                active[i][3], active[j][3]
            )

    while len(active) > 1:
        best = None
        best_pair = None
        for i in range(len(active)):
            for j in range(i + 1, len(active)):
                a, b = active[i], active[j]
                d = dist[frozenset((a[0], b[0]))]
                key = (d, *sorted((a[4], b[4])), *sorted((a[1], b[1])))
                if best is None or key < best:
                    best = key
                    best_pair = (i, j)
        i, j = best_pair
        a, b = active[i], active[j]
        first, second = (a, b) if a[4] < b[4] else (b, a)
        merges.append(Merge(first[0], second[0], best[0], a[2] + b[2]))
        merged = [next_id, min(a[1], b[1]), a[2] + b[2], a[3], min(a[4], b[4])]
        next_id += 1
        for k in range(len(active)):
            if k in (i, j):
                continue
            c = active[k]
            dac = dist.pop(frozenset((a[0], c[0])))
            dbc = dist.pop(frozenset((b[0], c[0])))
            if config.linkage == Linkage.SINGLE:
                d = min(dac, dbc)
            elif config.linkage == Linkage.COMPLETE:
                d = max(dac, dbc)
            else:
                d = (a[2] * dac + b[2] * dbc) / (a[2] + b[2])
            dist[frozenset((merged[0], c[0]))] = d
        dist.pop(frozenset((a[0], b[0])))
        active = [c for k, c in enumerate(active) if k not in (i, j)]
        active.append(merged)

    return Dendrogram(n, merges)


def cut(dendrogram: Dendrogram, k: int) -> dict[int, int]:
    """Labels (leaf index -> cluster id in 1..k) after undoing the last
    k-1 merges. Cluster ids are ordered by smallest member index."""
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k} outside [1, {n}]")
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    alive = set(range(n))
    for pos, m in enumerate(dendrogram.merges[: n - k]):
        new_id = n + pos
        members[new_id] = members.pop(m.a) + members.pop(m.b)
        alive.discard(m.a)
        alive.discard(m.b)
        alive.add(new_id)
    ordered = sorted(alive, key=lambda c: min(members[c]))
    labels: dict[int, int] = {}
    for label, cid in enumerate(ordered, start=1):
        for leaf in members[cid]:
            labels[leaf] = label
    return labels


def silhouette_score(features: list[FeatureVector], labels: list[int]) -> float:
    """Mean silhouette with the standard degenerate conventions: singleton
    clusters contribute 0, and 0/0 is treated as 0."""
    n = len(features)
    if n != len(labels):
        raise ValueError("features and labels must align")
    distinct = sorted(set(labels))
    if len(distinct) < 2:
        raise DegenerateClusteringError("silhouette needs at least two clusters")
    cluster_sizes = Counter(labels)

    # Points with the same vector and label behave identically; score one
    # representative per group and weight by multiplicity.
    group_index: dict[tuple, int] = {}
    groups: list[list] = []  # [vector, label, count]
    for f, lab in zip(features, labels):
        key = (f.bits, lab)
        gi = group_index.get(key)
        if gi is None:
            group_index[key] = len(groups)
            groups.append([f, lab, 0])
            gi = group_index[key]
        groups[gi][2] += 1

    g = len(groups)
    dist = [[0.0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i + 1, g):
            d = weighted_cosine_distance(groups[i][0], groups[j][0])
            dist[i][j] = dist[j][i] = d

    total = 0.0
    for i, (_, lab, count) in enumerate(groups):
        nc = cluster_sizes[lab]
        if nc == 1:
            continue  # singleton contributes 0
        sums: dict[int, float] = defaultdict(float)
        for j, (_, lab_j, count_j) in enumerate(groups):
            if i != j:
                sums[lab_j] += count_j * dist[i][j]
        a = sums.get(lab, 0.0) / (nc - 1)
        b = min(sums.get(c, 0.0) / cluster_sizes[c] for c in distinct if c != lab)
        denom = max(a, b)
        s = 0.0 if denom == 0.0 else (b - a) / denom
        total += count * s
    return total / n


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
) -> ClusterAssignment:
    """Silhouette sweep over the configured K range; argmax wins, ties go
    to the larger K (richer taxonomy). A corpus of all-identical vectors
    short-circuits to a single cluster. The assignment carries the tree it
    was cut from."""
    config = config or ClusterConfig()
    n = len(features)
    if n < 2:
        raise TooFewPointsError("clustering needs at least two vectors")
    if addresses is None:
        addresses = [str(i) for i in range(n)]
    if len({f.bits for f in features}) == 1:
        return ClusterAssignment({a: 1 for a in addresses}, 1, {}, ahc(features, config))

    k_lo = max(2, config.k_min)
    k_hi = min(config.k_max, n - 1)
    if k_lo > k_hi:
        raise TooFewPointsError(
            f"k range [{config.k_min},{config.k_max}] infeasible for n={n}"
        )
    dendro = ahc(features, config)
    scores: dict[int, float] = {}
    best_k = None
    best_score = None
    for k in range(k_lo, k_hi + 1):
        labels = cut(dendro, k)
        score = silhouette_score(features, [labels[i] for i in range(n)])
        scores[k] = score
        if best_score is None or score >= best_score:
            best_k, best_score = k, score
    if best_score is not None and any(
        v == best_score and k != best_k for k, v in scores.items()
    ):
        log.info("silhouette tie at %.6f; keeping larger K=%d", best_score, best_k)
    final = cut(dendro, best_k)
    return ClusterAssignment({addresses[i]: final[i] for i in range(n)}, best_k, scores, dendro)


class RoleLabel(str, Enum):
    SPECULATOR = "speculator"
    DIAMOND_HOLDER_RISK_AVERSE = "diamond_holder_risk_averse"
    DIAMOND_HOLDER_RISK_SEEKING = "diamond_holder_risk_seeking"
    AIRDROP_HUNTER_SUSPECT = "airdrop_hunter_suspect"
    DIVERSIFIED_MEMBER = "diversified_member"
    BUYER = "buyer"


CONSUMPTION_OPS = {
    OperationKind.SELL,
    OperationKind.SEND,
    OperationKind.STAKE,
    OperationKind.LP_ADD,
}

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

    Any set containing a buy is a buyer; otherwise the consumption-op
    subset (sell/send/stake/LP) looks up the fixed rule table.
    """
    ops = {OperationKind(o) for o in ops}
    if OperationKind.BUY in ops:
        return RoleLabel.BUYER
    return _ROLE_RULES.get(frozenset(ops & CONSUMPTION_OPS))


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
    for addr, cluster in assignment.labels.items():
        ops = features[addr].op_set()
        cluster_ops[cluster] |= ops & (CONSUMPTION_OPS | {OperationKind.BUY})

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
    artifacts.write_csv(
        ["address", "cluster", "role"],
        ([addr, c, roles.get(c, "unmapped")] for addr, c in sorted(assignment.labels.items())),
        path,
    )


def write_silhouette_json(assignment: ClusterAssignment, path) -> None:
    artifacts.write_json({
        "chosen_k": assignment.k,
        "silhouette_by_k": {str(k): v for k, v in sorted(assignment.silhouette_by_k.items())},
    }, path)
