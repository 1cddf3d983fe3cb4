import itertools
import math
import random

import pytest

from crosscut.builders import (
    balanced_bipartite,
    constant_coloring,
    expansion,
    join,
    lower_bound_coloring,
    s_construction,
    s_graph,
    s_size,
    sbi_construction,
    sbi_size,
    triangle_blowup,
    triangle_system,
)
from crosscut.errors import InputError
from crosscut.structures import Graph, TripleSystem
from crosscut.trees import complete_graph, cycle_graph, path_graph

from oracles import contains_subgraph_naive, count_triangles_naive


class TestExpansion:
    def test_examples(self):
        assert expansion(Graph(2, [(0, 1)])).edges == frozenset({(0, 1, 2)})
        cherry = expansion(path_graph(2))
        assert cherry.n == 5
        assert cherry.edges == frozenset({(0, 1, 3), (1, 2, 4)})
        c6 = expansion(cycle_graph(6))
        assert c6.n == 12 and len(c6.edges) == 6

    def test_rejects_edgeless(self):
        with pytest.raises(InputError):
            expansion(Graph(3, []))

    def test_vertex_and_edge_counts(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 7)
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5
            ]
            if not edges:
                continue
            g = Graph(n, edges)
            h = expansion(g)
            assert h.n == g.n + len(g.edges)
            assert len(h.edges) == len(g.edges)


class TestBlowup:
    def test_examples(self):
        assert triangle_blowup(Graph(2, [(0, 1)])).count_triangles() == 1
        two = triangle_blowup(path_graph(2))
        assert two.n == 5 and len(two.edges) == 6
        assert two.count_triangles() == 2

    def test_edge_count_and_triangle_floor(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 7)
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4
            ]
            if not edges:
                continue
            g = Graph(n, edges)
            b = triangle_blowup(g)
            assert len(b.edges) == 3 * len(g.edges)
            assert b.count_triangles() >= len(g.edges)
            if g.count_triangles() == 0:
                assert b.count_triangles() == len(g.edges)

    def test_blowup_triangles_contain_expansion(self):
        for g in (path_graph(3), cycle_graph(4), complete_graph(4)):
            assert expansion(g).edges <= triangle_system(triangle_blowup(g)).edges


class TestTriangleSystem:
    def test_examples(self):
        assert len(triangle_system(complete_graph(4)).edges) == 4
        assert triangle_system(balanced_bipartite(7)).edges == frozenset()
        assert len(triangle_system(s_graph(8, 1)).edges) == 12

    def test_size_is_triangle_count(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(3, 8)
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            assert len(triangle_system(g).edges) == count_triangles_naive(g)


class TestApexSystem:
    def test_examples(self):
        assert len(s_construction(6, 1).edges) == 10
        assert s_construction(9, 0).edges == frozenset()
        assert len(s_construction(5, 5).edges) == 10

    def test_size_identity_up_to_40(self):
        for t in range(0, 6):
            for n in range(t, 41):
                assert s_size(n, t) == math.comb(n, 3) - math.comb(n - t, 3)
                if n <= 14:
                    assert len(s_construction(n, t).edges) == s_size(n, t)

    def test_rejects_bad_t(self):
        with pytest.raises(InputError):
            s_construction(4, 5)

    def test_apex_triples_match_the_filtered_enumeration(self):
        # the builder lists the apex triples without walking all C(n, 3)
        for n in range(13):
            for t in range(n + 1):
                triples = [e for e in itertools.combinations(range(n), 3) if e[0] < t]
                assert s_construction(n, t).edges == frozenset(triples)


class TestJoinAndBipartite:
    def test_examples(self):
        assert join(complete_graph(1), complete_graph(1)).edges == frozenset(
            {(0, 1)}
        )
        j = join(complete_graph(2), Graph(3, []))
        assert len(j.edges) == 1 + 6
        t7 = balanced_bipartite(7)
        assert len(t7.edges) == 12
        t7p = balanced_bipartite(7, plus=True)
        assert len(t7p.edges) == 13
        assert t7p.count_triangles() == 4

    def test_join_edge_count_formula(self):
        for t in range(1, 4):
            for m in range(0, 9):
                g = join(complete_graph(t), balanced_bipartite(m))
                expected = math.comb(t, 2) + t * m + (m // 2) * ((m + 1) // 2)
                assert len(g.edges) == expected

    def test_plus_needs_room(self):
        with pytest.raises(InputError):
            balanced_bipartite(3, plus=True)
        with pytest.raises(InputError):
            sbi_construction(6, 3, plus=True)


class TestJoinedTriangleSystem:
    def test_examples(self):
        assert len(sbi_construction(8, 1).edges) == 12
        assert len(sbi_construction(8, 1, plus=True).edges) == 17
        assert sbi_construction(9, 0).edges == frozenset()

    def test_closed_forms_against_triangle_oracle(self):
        for t in range(0, 4):
            for n in range(t, 31):
                assert len(sbi_construction(n, t).edges) == sbi_size(n, t)
                if (n - t) // 2 >= 2:
                    assert len(
                        sbi_construction(n, t, plus=True).edges
                    ) == sbi_size(n, t, plus=True)

    def test_graph_freeness_examples(self):
        # the joined graph has no blowup of the odd path one step longer
        blow = triangle_blowup(path_graph(3))
        assert not contains_subgraph_naive(s_graph(9, 1), blow)


class TestColoring:
    def test_lower_bound_coloring_counts(self):
        base = s_construction(6, 1)
        chi = lower_bound_coloring(base)
        assert chi.color_count == 11
        assert set(chi.color_of.values()) == set(range(chi.color_count))
        tiny = lower_bound_coloring(TripleSystem(4, [(0, 1, 2)]))
        assert tiny.color_count == 2

    def test_edge_colors_are_distinct_and_surplus_shared(self):
        base = s_construction(7, 2)
        chi = lower_bound_coloring(base)
        edge_colors = {chi.color(*e) for e in base.edges}
        assert len(edge_colors) == len(base.edges)
        surplus = {
            chi.color(*t)
            for t in itertools.combinations(range(7), 3)
            if t not in base.edges
        }
        assert len(surplus) == 1
        assert not surplus & edge_colors

    def test_rejects_empty_base(self):
        with pytest.raises(InputError):
            lower_bound_coloring(TripleSystem(5, []))

    def test_constant_coloring(self):
        chi = constant_coloring(5)
        assert chi.color_count == 1

    def test_partial_map_rejected(self):
        with pytest.raises(InputError):
            from crosscut.builders import Coloring

            Coloring(5, {(0, 1, 2): 0})

    @pytest.mark.parametrize(
        "n, color_of",
        [
            (3, {(0, 0, 1): 0}),
            (3, {(0, 1, 2.0): 0}),
            (3, {(False, 1, 2): 0}),
            (3, {(0, 1, "2"): 0}),
            (3, {(1, 0, 2): 0}),
            (4, {(0, 1, 2): 0, (0, 1, 3): 0, (0, 2, 3): 0, (1, 2, 4): 0}),
            (3, {(0, 1, 2): 1.5}),
            (3, {(0, 1, 2): True}),
            (2.5, {}),
            (-1, {}),
            ("3", {}),
        ],
        ids=[
            "repeated-vertex", "float-id", "bool-id", "string-id", "unsorted-key",
            "out-of-range-id", "float-color", "bool-color", "float-n", "negative-n",
            "string-n",
        ],
    )
    def test_malformed_colorings_rejected(self, n, color_of):
        from crosscut.builders import Coloring

        with pytest.raises(InputError):
            Coloring(n, color_of)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: s_construction(n, 1),
        lambda n: s_graph(n, 1),
        lambda n: sbi_construction(n, 1),
        balanced_bipartite,
        constant_coloring,
    ],
    ids=["s", "s-graph", "sbi", "bipartite", "constant-coloring"],
)
@pytest.mark.parametrize("n", [-1, 10**6 + 1, 2**70])
def test_builders_check_the_vertex_count_before_enumerating(build, n):
    with pytest.raises(InputError, match=r"^vertex count "):
        build(n)


def test_closed_forms_take_any_vertex_count():
    n = 2**70
    assert s_size(n, 1) == math.comb(n - 1, 2)
    assert sbi_size(n, 1) == (n - 1) // 2 * (n // 2)
