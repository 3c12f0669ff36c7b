import random

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.cluster import hierarchy

from airdrop_forensics.clustering import (
    ClusterAssignment,
    ClusterConfig,
    DegenerateClusteringError,
    KOutOfRangeError,
    Linkage,
    RoleLabel,
    TooFewPointsError,
    ahc,
    cluster_shares,
    cut,
    map_roles,
    role_for_ops,
    role_shares,
    select_k,
    silhouette_score,
)
from airdrop_forensics.flows import FeatureVector, OperationKind as Op, weighted_cosine_distance

from conftest import from_ops, merge_heights
from oracles import naive_ahc_heights, naive_cut, naive_silhouette


def cut_labels(vectors, k):
    """Leaf index -> label of the k-cut of the vectors' tree."""
    dendro = ahc(vectors)
    return dict(enumerate(dendro.labels(cut(dendro, k))))


def rand_vectors(rng, n, nonzero=False):
    out = []
    while len(out) < n:
        bits = tuple(rng.randint(0, 1) for _ in range(8))
        if nonzero and not any(bits):
            continue
        out.append(FeatureVector(bits))
    return out


def by_ops(*op_sets):
    return [from_ops(ops) for ops in op_sets]


class TestAhc:
    def test_three_identical_vectors_merge_at_zero(self):
        vectors = by_ops({Op.SELL}, {Op.SELL}, {Op.SELL})
        dendro = ahc(vectors)
        assert merge_heights(dendro) == [0.0, 0.0]

    def test_duplicated_archetypes_merge_within_group_first(self):
        vectors = by_ops({Op.SELL}, {Op.STAKE}, {Op.SELL}, {Op.STAKE})
        dendro = ahc(vectors)
        heights = merge_heights(dendro)
        assert heights[0] == heights[1] == 0.0
        assert heights[2] > 0.0
        # the zero merges pair the duplicates, not cross-archetype points
        zero_pairs = {frozenset((m.a, m.b)) for m in dendro.merges[:2]}
        assert zero_pairs == {frozenset((0, 2)), frozenset((1, 3))}

    @pytest.mark.parametrize("linkage", [Linkage.SINGLE, Linkage.COMPLETE])
    def test_matches_naive_oracle_exactly(self, linkage):
        rng = random.Random(41)
        for _ in range(20):
            vectors = rand_vectors(rng, 10)
            got = merge_heights(ahc(vectors, ClusterConfig(linkage=linkage)))
            want = naive_ahc_heights(vectors, linkage.value)
            assert got == want

    def test_average_linkage_close_to_naive(self):
        rng = random.Random(43)
        for _ in range(10):
            vectors = rand_vectors(rng, 12)
            got = merge_heights(ahc(vectors, ClusterConfig(linkage=Linkage.AVERAGE)))
            want = naive_ahc_heights(vectors, "average")
            assert len(got) == len(want)
            assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))

    def test_single_linkage_heights_non_decreasing(self):
        rng = random.Random(47)
        for _ in range(10):
            vectors = rand_vectors(rng, 15)
            heights = merge_heights(ahc(vectors))
            assert heights == sorted(heights)

    def test_permutation_invariant_partitions(self):
        rng = random.Random(53)
        vectors = rand_vectors(rng, 12)
        base = cut_labels(vectors, 3)
        base_parts = {}
        for i, lab in base.items():
            base_parts.setdefault(lab, set()).add(vectors[i].bits)
        for _ in range(5):
            order = list(range(len(vectors)))
            rng.shuffle(order)
            shuffled = [vectors[i] for i in order]
            labels = cut_labels(shuffled, 3)
            parts = {}
            for i, lab in labels.items():
                parts.setdefault(lab, set()).add(shuffled[i].bits)
            assert sorted(map(sorted, parts.values())) == sorted(
                map(sorted, base_parts.values())
            )

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            ahc(by_ops({Op.SELL}))


class TestCut:
    def test_k_equals_n_all_singletons(self):
        vectors = by_ops({Op.SELL}, {Op.STAKE}, {Op.SEND})
        labels = cut_labels(vectors, 3)
        assert sorted(labels.values()) == [1, 2, 3]

    def test_k_one_single_cluster(self):
        vectors = by_ops({Op.SELL}, {Op.STAKE}, {Op.SEND})
        labels = cut_labels(vectors, 1)
        assert set(labels.values()) == {1}

    def test_two_planted_groups_split_perfectly(self):
        vectors = by_ops(*([{Op.SELL}] * 5 + [{Op.STAKE, Op.LP_ADD}] * 5))
        labels = cut_labels(vectors, 2)
        assert len({labels[i] for i in range(5)}) == 1
        assert len({labels[i] for i in range(5, 10)}) == 1
        assert labels[0] != labels[5]

    def test_out_of_range(self):
        dendro = ahc(by_ops({Op.SELL}, {Op.STAKE}))
        with pytest.raises(KOutOfRangeError):
            cut(dendro, 0)
        with pytest.raises(KOutOfRangeError):
            cut(dendro, 3)


class TestSilhouette:
    def test_two_separated_duplicate_groups_score_one(self):
        vectors = by_ops(*([{Op.SELL}] * 4 + [{Op.STAKE}] * 4))
        dendro = ahc(vectors)
        clusters = cut(dendro, 2)
        assert dendro.labels(clusters) == [1] * 4 + [2] * 4
        assert silhouette_score(dendro, clusters) == 1.0

    def test_identical_points_split_scores_zero(self):
        vectors = by_ops(*([{Op.SELL}] * 6))
        dendro = ahc(vectors)
        for k in range(2, 7):
            assert silhouette_score(dendro, cut(dendro, k)) == 0.0

    def test_matches_direct_oracle(self):
        rng = random.Random(59)
        for _ in range(15):
            vectors = rand_vectors(rng, 12)
            dendro = ahc(vectors)
            for k in range(2, 13):
                clusters = cut(dendro, k)
                got = silhouette_score(dendro, clusters)
                want = naive_silhouette(vectors, dendro.labels(clusters))
                assert abs(got - want) <= 1e-9

    def test_single_cluster_degenerate(self):
        vectors = by_ops({Op.SELL}, {Op.STAKE})
        dendro = ahc(vectors)
        with pytest.raises(DegenerateClusteringError):
            silhouette_score(dendro, cut(dendro, 1))


class TestSelectK:
    def test_fourteen_archetypes_recovered(self):
        from airdrop_forensics.synth import SIGNATURES

        rng = random.Random(61)
        vectors = []
        for ops in SIGNATURES.values():
            vectors += [from_ops(ops)] * rng.randint(15, 25)
        assignment = select_k(vectors)
        assert assignment.k == 14
        assert assignment.silhouette_by_k[14] == 1.0

    def test_two_archetypes(self):
        vectors = by_ops(*([{Op.SELL}] * 30 + [{Op.STAKE}] * 30))
        assignment = select_k(vectors)
        assert assignment.k == 2

    def test_all_identical_is_single_cluster(self):
        vectors = by_ops(*([{Op.SELL}] * 40))
        assignment = select_k(vectors)
        assert assignment.k == 1
        assert set(assignment.labels.values()) == {1}

    def test_ties_break_toward_larger_k(self):
        scores = {}
        vectors = by_ops(*([{Op.SELL}] * 6 + [{Op.STAKE}] * 6 + [{Op.SEND}] * 6))
        assignment = select_k(vectors, ClusterConfig(k_min=2, k_max=3))
        # three exact-duplicate groups: k=3 scores 1.0, k=2 lower
        assert assignment.k == 3
        assert assignment.silhouette_by_k[3] == 1.0

    @pytest.mark.parametrize("ops", [[{Op.SELL}] * 5 + [{Op.STAKE}, {Op.SEND}] * 4,
                                     [{Op.SELL}] * 7])
    def test_carries_the_tree_it_cut(self, ops, monkeypatch):
        import airdrop_forensics.clustering as clustering

        vectors = by_ops(*ops)
        calls = []
        monkeypatch.setattr(clustering, "ahc", lambda *a: calls.append(a) or ahc(*a))
        assignment = select_k(vectors)
        assert len(calls) == 1
        assert assignment.dendrogram == ahc(vectors)


class TestRoles:
    def test_rule_table(self):
        assert role_for_ops({Op.SELL}) == RoleLabel.SPECULATOR
        assert role_for_ops({Op.SELL, Op.SEND}) == RoleLabel.SPECULATOR
        assert role_for_ops(set()) == RoleLabel.DIAMOND_HOLDER_RISK_AVERSE
        assert role_for_ops({Op.STAKE}) == RoleLabel.DIAMOND_HOLDER_RISK_SEEKING
        assert role_for_ops({Op.LP_ADD, Op.STAKE}) == RoleLabel.DIAMOND_HOLDER_RISK_SEEKING
        assert role_for_ops({Op.LP_ADD}) == RoleLabel.DIAMOND_HOLDER_RISK_SEEKING
        assert role_for_ops({Op.SEND}) == RoleLabel.AIRDROP_HUNTER_SUSPECT
        assert role_for_ops({Op.STAKE, Op.SEND}) == RoleLabel.DIVERSIFIED_MEMBER
        assert role_for_ops({Op.BUY, Op.STAKE, Op.SELL}) == RoleLabel.BUYER
        assert role_for_ops({Op.STAKE, Op.SELL, Op.SEND}) is None

    def test_map_roles_reports_unmapped(self):
        features = {
            "a": from_ops({Op.SELL}),
            "b": from_ops({Op.SELL}),
            "c": from_ops({Op.STAKE, Op.SELL, Op.SEND}),
            "d": from_ops({Op.STAKE, Op.SELL, Op.SEND}),
        }
        assignment = ClusterAssignment({"a": 1, "b": 1, "c": 2, "d": 2}, 2, {})
        mapping = map_roles(assignment, features)
        assert mapping.cluster_roles[1] == RoleLabel.SPECULATOR
        assert mapping.unmapped == [2]
        assert "c" not in mapping.role_of

    def test_role_shares_are_exact_sums(self):
        labels = {}
        features = {}
        for i in range(40):
            labels[f"s{i}"] = 1
            features[f"s{i}"] = from_ops({Op.SELL})
        for i in range(10):
            labels[f"t{i}"] = 2
            features[f"t{i}"] = from_ops({Op.SELL, Op.SEND})
        for i in range(50):
            labels[f"h{i}"] = 3
            features[f"h{i}"] = from_ops(set())
        assignment = ClusterAssignment(labels, 3, {})
        mapping = map_roles(assignment, features)
        shares = cluster_shares(assignment)
        roles = role_shares(assignment, mapping)
        assert roles[RoleLabel.SPECULATOR] == shares[1] + shares[2]
        assert roles[RoleLabel.DIAMOND_HOLDER_RISK_AVERSE] == shares[3]


@st.composite
def _few_pattern_vectors(draw):
    """2-30 vectors over at most four distinct patterns, so cuts reach past
    the number of patterns; half the draws use non-uniform weights."""
    bits = st.tuples(*[st.integers(0, 1)] * 8)
    patterns = draw(st.lists(bits, min_size=1, max_size=4, unique=True))
    weights = draw(st.sampled_from([(1.0,) * 8, (0.5, 2.0, 1.0, 3.7, 1.0, 0.25, 1.5, 1.0)]))
    picks = draw(st.lists(st.sampled_from(patterns), min_size=2, max_size=30))
    return [FeatureVector(b, weights) for b in picks]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_few_pattern_vectors(), st.sampled_from(list(Linkage)))
def test_cut_and_silhouette_match_leaf_level_replay(vectors, linkage):
    n = len(vectors)
    dendro = ahc(vectors, ClusterConfig(linkage=linkage))
    for k in range(1, n + 1):
        clusters = cut(dendro, k)
        labels = dendro.labels(clusters)
        assert labels == naive_cut(dendro.merges, n, k)
        if k >= 2:
            want = naive_silhouette(vectors, labels)
            assert abs(silhouette_score(dendro, clusters) - want) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_few_pattern_vectors())
def test_single_linkage_heights_match_scipy(vectors):
    """scipy's single linkage on the condensed distance matrix of the
    distinct patterns merges at exactly the pattern-level heights."""
    patterns = sorted({v.bits for v in vectors})
    assume(len(patterns) >= 2)
    reps = [FeatureVector(b, vectors[0].weights) for b in patterns]
    condensed = [
        weighted_cosine_distance(reps[i], reps[j])
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
    ]
    want = hierarchy.linkage(condensed, method="single")[:, 2].tolist()
    assert [m.height for m in ahc(vectors).pattern_merges] == want
