import itertools
import random

import pytest

from crosscut.errors import InputError
from crosscut.structures import Graph
from crosscut.trees import (
    LeafNeighborVertex,
    PendantEdge,
    all_crosscut_pairs,
    analyze_tree,
    covering_number,
    critical_edges,
    crosscut_number,
    crosscut_value,
    cycle_graph,
    decomposition_witness,
    enumerate_trees,
    independent_covering_number,
    path_graph,
    pendant_critical_edge,
    star_graph,
    tree_canonical,
)

from oracles import (
    ahu_code_naive,
    canonical_key_naive,
    sigma_naive,
    tau_ind_naive,
    tau_naive,
    trees_by_prufer,
)

DOUBLE_STAR = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


class TestCrosscut:
    def test_examples(self):
        assert crosscut_number(Graph(2, [(0, 1)]))[0] == 1
        assert crosscut_number(path_graph(5))[0] == 3
        assert crosscut_number(cycle_graph(6))[0] == 3

    def test_cycle_formula(self):
        for k in range(3, 13):
            assert crosscut_number(cycle_graph(k))[0] == (k + 1) // 2

    def test_rejects_multi_cycle_components(self):
        with pytest.raises(InputError):
            crosscut_number(Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)]))

    def test_matches_naive_on_small_trees(self):
        for n in range(2, 8):
            for tree in enumerate_trees(n):
                assert crosscut_value(tree) == sigma_naive(tree)

    def test_double_star_value(self):
        assert crosscut_value(DOUBLE_STAR) == 3
        assert covering_number(DOUBLE_STAR) == 2

    def test_canonical_pair_is_optimal_max_then_lex(self):
        for n in range(2, 8):
            for tree in enumerate_trees(n):
                sigma, pair = crosscut_number(tree)
                pairs, _ = all_crosscut_pairs(tree)
                assert sigma == sigma_naive(tree)
                best = max(len(p.independent) for p in pairs)
                lex = min(
                    p.independent for p in pairs if len(p.independent) == best
                )
                assert pair.independent == lex

    def test_all_pairs_are_exactly_the_optima(self):
        tree = path_graph(4)
        pairs, truncated = all_crosscut_pairs(tree)
        assert not truncated
        sigma = crosscut_value(tree)
        seen = {p.independent for p in pairs}
        for r in range(tree.n + 1):
            for sub in itertools.combinations(range(tree.n), r):
                s = set(sub)
                if any(u in s and v in s for u, v in tree.edges):
                    continue
                cost = r + sum(
                    1 for u, v in tree.edges if u not in s and v not in s
                )
                assert (cost == sigma) == (tuple(sub) in seen)

    def test_pair_cap(self):
        pairs, truncated = all_crosscut_pairs(path_graph(7), cap=2)
        assert truncated and len(pairs) == 2


class TestCoveringNumbers:
    def test_tau_examples(self):
        assert covering_number(path_graph(4)) == 2
        assert covering_number(star_graph(5)) == 1
        assert covering_number(cycle_graph(5)) == 3

    def test_tau_ind_examples(self):
        assert independent_covering_number(Graph(2, [(0, 1)])) == 1
        assert independent_covering_number(path_graph(3)) == 2
        assert independent_covering_number(cycle_graph(3)) is None

    def test_against_naive(self):
        for n in range(2, 9):
            for tree in enumerate_trees(n):
                assert covering_number(tree) == tau_naive(tree)
                assert independent_covering_number(tree) == tau_ind_naive(tree)
        assert covering_number(cycle_graph(7)) == tau_naive(cycle_graph(7))
        assert independent_covering_number(cycle_graph(6)) == tau_ind_naive(
            cycle_graph(6)
        )

    def test_tau_ind_on_several_components(self):
        # disjoint trees, even and odd cycles and isolated vertices
        rng = random.Random(17)
        for _ in range(300):
            edges, v = [], rng.randint(0, 1)
            while v < 8 and (not edges or rng.random() < 0.8):
                size = rng.randint(1, 5)
                if rng.random() < 0.5:
                    edges += [(v + rng.randrange(j), v + j) for j in range(1, size)]
                else:
                    size = max(size, 3)
                    edges += [(v + j, v + (j + 1) % size) for j in range(size)]
                v += size + rng.randint(0, 1)
            graph = Graph(v, edges)
            assert independent_covering_number(graph) == tau_ind_naive(graph)

    def test_invariant_chain_small_trees(self):
        for n in range(2, 10):
            for tree in enumerate_trees(n):
                profile = analyze_tree(tree)
                assert profile.tau <= profile.sigma <= profile.tau_ind


class TestCriticalEdges:
    def test_examples(self):
        assert critical_edges(path_graph(3)) == frozenset({(0, 1), (2, 3)})
        assert critical_edges(path_graph(4)) == frozenset()
        assert critical_edges(star_graph(3)) == frozenset()

    def test_deletion_never_increases_sigma(self):
        for n in range(2, 10):
            for tree in enumerate_trees(n):
                sigma = crosscut_value(tree)
                for e in tree.edge_list():
                    after = crosscut_value(tree.delete_edge(*e))
                    assert after <= sigma

    def test_deletion_can_drop_sigma_by_two(self):
        # both centers of the balanced double star become jointly
        # independent once the central edge goes, so the drop exceeds one
        double_star = Graph(
            8, [(0, 1), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4)]
        )
        assert crosscut_value(double_star) == sigma_naive(double_star) == 4
        cut = double_star.delete_edge(0, 1)
        assert crosscut_value(cut) == sigma_naive(cut) == 2

    def test_odd_and_even_paths(self):
        for t in range(1, 5):
            profile = analyze_tree(path_graph(2 * t + 1))
            assert profile.sigma == t + 1
            assert profile.strongly_edge_critical
        for t in range(2, 5):
            profile = analyze_tree(path_graph(2 * t))
            assert not profile.critical_edges


class TestProfiles:
    def test_p3_profile(self):
        p = analyze_tree(path_graph(3))
        assert (p.sigma, p.tau, p.tau_ind) == (2, 2, 2)
        assert p.strongly_edge_critical

    def test_p4_profile(self):
        p = analyze_tree(path_graph(4))
        assert (p.sigma, p.tau, p.tau_ind) == (2, 2, 2)
        assert not p.strongly_edge_critical

    def test_single_edge_profile(self):
        p = analyze_tree(Graph(2, [(0, 1)]))
        assert (p.sigma, p.tau, p.tau_ind) == (1, 1, 1)
        assert p.strongly_edge_critical

    def test_double_star_not_cover_tight(self):
        p = analyze_tree(DOUBLE_STAR)
        assert p.tau == 2 and p.sigma == 3
        assert not p.strongly_edge_critical

    def test_rejects_non_tree(self):
        with pytest.raises(InputError):
            analyze_tree(cycle_graph(4))


class TestDecompositionWitness:
    def test_examples(self):
        p3 = path_graph(3)
        _, pair = crosscut_number(p3)
        w = decomposition_witness(p3, pair)
        assert isinstance(w.case, LeafNeighborVertex)
        star = star_graph(4)
        _, pair = crosscut_number(star)
        w = decomposition_witness(star, pair)
        assert w.case == LeafNeighborVertex(0)

    def test_rejects_invalid_pair(self):
        from crosscut.trees import CrosscutPair

        p3 = path_graph(3)
        with pytest.raises(InputError):
            decomposition_witness(p3, CrosscutPair((0, 1), ()))

    def test_every_pair_of_every_small_tree(self):
        for n in range(2, 10):
            for tree in enumerate_trees(n):
                pairs, _ = all_crosscut_pairs(tree)
                max_i = max(len(p.independent) for p in pairs)
                for pair in pairs:
                    w = decomposition_witness(tree, pair)
                    if isinstance(w.case, LeafNeighborVertex):
                        v = w.case.vertex
                        assert v in pair.independent
                        non_leaf = [
                            x for x in tree.neighbors(v) if tree.degree(x) > 1
                        ]
                        assert len(non_leaf) <= 1
                    else:
                        assert isinstance(w.case, PendantEdge)
                        e = w.case.edge
                        assert e in pair.leftover
                        assert min(tree.degree(e[0]), tree.degree(e[1])) == 1
                    if len(pair.independent) == max_i:
                        assert isinstance(w.case, LeafNeighborVertex)


class TestPendantCriticalEdge:
    def test_examples(self):
        e, cover = pendant_critical_edge(path_graph(3))
        assert e in critical_edges(path_graph(3))
        assert pendant_critical_edge(path_graph(4)) is None
        e, cover = pendant_critical_edge(path_graph(5))
        assert crosscut_value(path_graph(5).delete_edge(*e)) == 2

    def test_all_small_trees_with_hypotheses(self):
        for n in range(2, 10):
            for tree in enumerate_trees(n):
                profile = analyze_tree(tree)
                has_hyp = (
                    profile.sigma_equals_tau_ind and bool(profile.critical_edges)
                )
                got = pendant_critical_edge(tree)
                if not has_hyp:
                    assert got is None
                    continue
                assert got is not None
                edge, cover = got
                assert edge in profile.critical_edges
                assert min(tree.degree(edge[0]), tree.degree(edge[1])) == 1
                leaf = edge[0] if tree.degree(edge[0]) == 1 else edge[1]
                assert leaf in cover
                # the cover is a minimum independent exact cover
                assert len(cover) == profile.tau_ind
                assert all(
                    len(set(cover) & set(e)) == 1 for e in tree.edge_list()
                )


class TestEnumeration:
    def test_class_counts(self):
        assert [len(enumerate_trees(n)) for n in range(1, 11)] == [
            1, 1, 1, 2, 3, 6, 11, 23, 47, 106,
        ]

    def test_against_prufer_oracle(self):
        for n in range(1, 8):
            ours = {ahu_code_naive(t) for t in enumerate_trees(n)}
            assert ours == trees_by_prufer(n)

    def test_ahu_oracle_agrees_with_permutation_canonical(self):
        # the oracle's code separates classes exactly like brute relabeling
        for n in range(1, 7):
            trees = enumerate_trees(n)
            for a in trees:
                for b in trees:
                    assert (ahu_code_naive(a) == ahu_code_naive(b)) == (
                        canonical_key_naive(a) == canonical_key_naive(b)
                    )

    def test_outputs_are_canonically_labeled_trees(self):
        for n in range(1, 9):
            for tree in enumerate_trees(n):
                assert tree.is_tree()
                code, relabeled = tree_canonical(tree)
                assert relabeled.edges == tree.edges

    def test_range_check(self):
        with pytest.raises(InputError):
            enumerate_trees(0)
        with pytest.raises(InputError):
            enumerate_trees(11)
