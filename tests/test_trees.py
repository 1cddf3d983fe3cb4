import hashlib
import itertools
import json
import random

import pytest

from crosscut import trees
from crosscut.errors import InputError
from crosscut.structures import Graph, sorted_pair
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
    all_crosscut_pairs_reference,
    canonical_key_naive,
    crosscut_reference,
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

    def test_pair_cap(self, monkeypatch):
        monkeypatch.setattr(trees, "PAIR_CAP", 2)
        pairs, truncated = all_crosscut_pairs(path_graph(7))
        assert truncated and len(pairs) == 2


def _random_component(rng: random.Random, size: int) -> set:
    """A random tree on 0..size-1, a cycle through all of it, or a tree with
    one or two chords (unicyclic, or mostly two cycles)."""
    shape = rng.random()
    if shape < 0.15 and size >= 3:
        return {sorted_pair(j, (j + 1) % size) for j in range(size)}
    edges = {sorted_pair(rng.randrange(j), j) for j in range(1, size)}
    chords = 0 if shape < 0.5 else 1 if shape < 0.85 else 2
    non_edges = [
        e for e in itertools.combinations(range(size), 2) if e not in edges
    ]
    return edges | set(rng.sample(non_edges, min(chords, len(non_edges))))


def _crosscut_corpus(rng: random.Random, count: int):
    """Relabelled random graphs on at most 13 vertices whose components come
    from `_random_component`, with isolated vertices in between."""
    for _ in range(count):
        edges, n = [], 0
        target = rng.randint(1, 12)
        while n < target:
            size = rng.randint(1, min(8, target - n + 1))
            edges += [(n + a, n + b) for a, b in _random_component(rng, size)]
            n += size + (rng.random() < 0.2)
        perm = list(range(n))
        rng.shuffle(perm)
        yield Graph(n, [(perm[a], perm[b]) for a, b in edges])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return "InputError", str(exc)


def _pairs_digest(pairs) -> str:
    rows = [[list(p.independent), [list(e) for e in p.leftover]] for p in pairs]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


class TestCrosscutAgainstReference:
    """The forced-set DP against the earlier searches kept in
    tests/oracles.py: subtree DP plus cyclic enumeration, and the walk
    pruned only by partial cost."""

    CAPS = (300, 20, 5, 3, 2, 1)

    def test_random_graphs_every_cap(self, monkeypatch):
        rng = random.Random(9)
        shapes = {"ok": 0, "error": 0, "cyclic": 0, "truncated": 0}
        for graph in _crosscut_corpus(rng, 3000):
            full = _outcome(crosscut_reference, graph, 300)
            if full[0] == "InputError":
                shapes["error"] += 1
                assert _outcome(crosscut_value, graph) == full
                assert _outcome(crosscut_number, graph) == full
                monkeypatch.setattr(trees, "PAIR_CAP", 1)
                assert _outcome(all_crosscut_pairs, graph) == full
                continue
            shapes["ok"] += 1
            shapes["cyclic"] += len(graph.edges) > graph.n - len(graph.components())
            if graph.n <= 12:
                assert full[0] == sigma_naive(graph)
            assert crosscut_value(graph) == full[0]
            assert crosscut_number(graph) == full[:2]
            for cap in self.CAPS:
                # a reference run that met at most `cap` optima is the same
                # at this cap, so only the others are rerun
                if full[3] or len(full[2]) > cap:
                    expected = all_crosscut_pairs_reference(graph, cap)
                    shapes["truncated"] += expected[1]
                else:
                    expected = full[2], full[3]
                monkeypatch.setattr(trees, "PAIR_CAP", cap)
                got = all_crosscut_pairs(graph)
                assert got == expected, (graph.n, sorted(graph.edges), cap)
        # the corpus reaches every case it is meant to
        assert min(shapes.values()) >= 100, shapes

    def test_values_beyond_the_old_enumeration_limit(self):
        assert crosscut_value(cycle_graph(40)) == 20
        # the sun on C_15: every pendant edge costs at least 1, and all 15 at
        # exactly 1 would need an independent cover of the odd cycle, so
        # sigma >= 16; alternate cycle vertices plus the other leaves give 16
        sun = Graph(30, list(cycle_graph(15).edges) + [(i, 15 + i) for i in range(15)])
        assert crosscut_value(sun) == 16
        sigma, pair = crosscut_number(sun)
        assert sigma == len(pair.independent) + len(pair.leftover) == 16

    def test_walk_deeper_than_the_recursion_limit(self):
        # one edge among 1,500 vertices: {0}, {1} and the empty set cost 1
        pairs, truncated = all_crosscut_pairs(Graph(1500, [(0, 1)]))
        assert [p.independent for p in pairs] == [(0,), (1,), ()]
        assert not truncated

    def test_fifty_vertex_tree_pairs(self):
        # pinned from the reference walk, too slow to rerun in the suite
        rng = random.Random(1)
        tree = Graph(50, [(rng.randrange(j), j) for j in range(1, 50)])
        pairs, truncated = all_crosscut_pairs(tree)
        assert not truncated and len(pairs) == 128
        assert _pairs_digest(pairs) == "001ca06a59e4bbc6"
        assert all(len(p.independent) + len(p.leftover) == 20 for p in pairs)


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

    def test_against_naive_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(400):
            n = rng.randint(0, 11)
            p = rng.choice([0.15, 0.3, 0.5, 0.8])
            graph = Graph(
                n,
                [e for e in itertools.combinations(range(n), 2) if rng.random() < p],
            )
            assert covering_number(graph) == tau_naive(graph)

    def test_long_path(self):
        # a leaf's neighbour is taken outright, so paths need no branching
        assert covering_number(path_graph(200)) == 100

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

    @pytest.mark.parametrize("ids", [(7,), (-1,)])
    def test_rejects_out_of_range_ids(self, ids):
        from crosscut.trees import CrosscutPair

        with pytest.raises(InputError, match="vertex -?[0-9]+ out of range for n=4"):
            decomposition_witness(path_graph(3), CrosscutPair(ids, ()))

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

    def test_pinned_labelled_edge_lists(self):
        # the labels, not only the classes: trees reach reports and
        # certificates through these edge lists
        rows = [[t.edge_list() for t in enumerate_trees(n)] for n in range(1, 11)]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        assert digest == "6e22629481b28183"

    def test_range_check(self):
        with pytest.raises(InputError):
            enumerate_trees(0)
        with pytest.raises(InputError):
            enumerate_trees(11)
