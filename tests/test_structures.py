import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from crosscut.builders import Coloring, s_construction
from crosscut.cleaning import cleaning_algorithm, extract_d_full
from crosscut.embed import expansion_through, find_expansion
from crosscut.errors import InputError
from crosscut.structures import (
    CommonPair,
    EmptyClass,
    Graph,
    MatchingAtLeastTwo,
    NotTwoIntersecting,
    SmallSystem,
    StarClass,
    TriangleClass,
    TripleSystem,
    _mask_vertices,
    edge_codegree_profile,
    is_d_full,
    is_superfull,
    matching_le1_structure,
    two_intersecting_structure,
)
from crosscut.trees import complete_graph, cycle_graph, path_graph, star_graph

from conftest import planted_host, random_triple_system
from oracles import count_triangles_naive


def triple_systems(max_n=7):
    return st.integers(3, max_n).flatmap(
        lambda n: st.builds(
            TripleSystem,
            st.just(n),
            st.lists(
                st.sampled_from(list(itertools.combinations(range(n), 3))),
                max_size=20,
                unique=True,
            ),
        )
    )


def test_mask_vertices_matches_a_bit_scan():
    rng = random.Random(11)
    masks = [0, 1, 1 << 1999, (1 << 2000) - 1]
    for _ in range(300):
        width = rng.randint(1, 2000)
        density = rng.choice([0.001, 0.01, 0.1, 0.5, 0.9])
        masks.append(sum(1 << v for v in range(width) if rng.random() < density))
    for mask in masks:
        assert _mask_vertices(mask) == [
            v for v in range(mask.bit_length()) if mask >> v & 1
        ]


# malformed edges: the expected message, an edge of a graph on 5 vertices,
# and a triple of a triple system on 5 vertices
MALFORMED = [
    ("must have", (0,), (0, 1)),
    ("must have", (0, 1, 2), (0, 1, 2, 3)),
    ("not a sequence", 3, 3),
    ("not an integer", (0, True), (0, 1, True)),
    ("not an integer", (0, 2.0), (0, 1, 2.0)),
    ("not an integer", (0, "2"), (0, 1, "2")),
    ("not an integer", ("0", "2"), ("a", "b", "c")),
    ("not an integer", (0, None), (0, 1, None)),
    ("loop at vertex 2|repeated vertices", (2, 2), (2, 1, 2)),
    ("out of range", (0, 5), (0, 1, 5)),
    ("out of range", (-1, 2), (-1, 1, 2)),
]


@pytest.mark.parametrize("message, edge, triple", MALFORMED)
def test_malformed_edges_raise_input_error(message, edge, triple):
    with pytest.raises(InputError, match=message):
        Graph(5, [(1, 2), edge])
    with pytest.raises(InputError, match=message):
        TripleSystem(5, [(1, 2, 3), triple])


@pytest.mark.parametrize("n", [-1, 2.0, "5", True, None, 10**6 + 1, 2**70])
def test_bad_vertex_counts_raise_input_error(n):
    with pytest.raises(InputError, match="vertex count"):
        Graph(n)
    with pytest.raises(InputError, match="vertex count"):
        TripleSystem(n)
    with pytest.raises(InputError, match="vertex count"):
        Coloring(n, {})


@pytest.mark.parametrize(
    "n, message",
    [
        ("5", "vertex count must be an integer, got '5'"),
        (-1, "vertex count must be nonnegative"),
        (10**6 + 1, "vertex count 1000001 exceeds the limit 1000000"),
    ],
)
def test_vertex_count_messages(n, message):
    with pytest.raises(InputError) as info:
        Graph(n)
    assert str(info.value) == message


def test_repeated_vertex_is_reported_before_out_of_range():
    with pytest.raises(InputError, match=r"^triple \(7, 7, 1\) has repeated vertices$"):
        TripleSystem(4, [(7, 7, 1)])
    with pytest.raises(InputError, match=r"^loop at vertex 7$"):
        Graph(4, [(7, 7)])
    with pytest.raises(InputError, match=r"^triple \(2, 0, 4\) out of range for n=4$"):
        TripleSystem(4, [(2, 0, 4)])
    with pytest.raises(InputError, match=r"^edge \(4, 0\) out of range for n=4$"):
        Graph(4, [(4, 0)])


class TestGraph:
    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 0)])
        with pytest.raises(InputError):
            Graph(3, [(0, 3)])

    def test_adjacency_agrees_with_edge_list(self):
        g = Graph(5, [(0, 1), (3, 1), (2, 4)])
        for u in range(5):
            for v in range(5):
                assert bool(g.adj[u] >> v & 1) == g.has_edge(u, v)

    def test_triangle_counts(self):
        assert complete_graph(4).count_triangles() == 4
        assert Graph(6, [(0, 3), (0, 4), (1, 3), (2, 5)]).count_triangles() == 0
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(3, 8)
            edges = [
                e
                for e in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            assert g.count_triangles() == count_triangles_naive(g)

    def test_join_graph_triangles(self):
        from crosscut.builders import balanced_bipartite, join

        s8 = join(complete_graph(1), balanced_bipartite(7))
        assert s8.count_triangles() == 12


class TestTripleSystem:
    def test_rejects_degenerate_triples(self):
        with pytest.raises(InputError):
            TripleSystem(4, [(0, 1, 1)])
        with pytest.raises(InputError):
            TripleSystem(4, [(0, 1, 4)])

    def test_shadow_examples(self):
        assert sorted(
            TripleSystem(4, [(1, 2, 3)]).shadow().edges
        ) == [(1, 2), (1, 3), (2, 3)]
        assert TripleSystem(4, []).shadow().edges == frozenset()
        assert sorted(TripleSystem(5, [(1, 2, 3), (1, 2, 4)]).shadow().edges) == [
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
        ]

    def test_link_examples(self):
        h = TripleSystem(5, [(1, 2, 3), (1, 2, 4)])
        assert sorted(h.link(1).edges) == [(2, 3), (2, 4)]
        assert TripleSystem(5, [(1, 2, 3)]).link(4).edges == frozenset()
        apex_link = s_construction(6, 1).link(0)
        assert len(apex_link.edges) == 10
        with pytest.raises(InputError):
            h.link(9)

    def test_codegree_examples(self):
        h = TripleSystem(5, [(1, 2, 3), (1, 2, 4)])
        assert h.codegree(1, 2) == 2
        assert h.codegree_neighborhood(1, 2) == [3, 4]
        assert TripleSystem(5, [(1, 2, 3)]).codegree(1, 4) == 0
        assert s_construction(10, 1).codegree(0, 5) == 8
        with pytest.raises(InputError):
            h.codegree(1, 1)

    def test_codegree_profile_examples(self):
        h = TripleSystem(5, [(1, 2, 3), (1, 2, 4)])
        p = edge_codegree_profile(h, (1, 2, 3))
        assert (p.min_codegree, p.max_codegree) == (1, 2)
        k4 = TripleSystem(5, itertools.combinations(range(1, 5), 3))
        p = edge_codegree_profile(k4, (1, 2, 3))
        assert (p.min_codegree, p.max_codegree) == (2, 2)
        p = edge_codegree_profile(s_construction(10, 1), (0, 3, 4))
        assert (p.min_codegree, p.max_codegree) == (1, 8)
        with pytest.raises(InputError):
            edge_codegree_profile(h, (1, 3, 4))

    def test_fullness_examples(self):
        empty = TripleSystem(6, [])
        assert is_d_full(empty, 5)
        h = TripleSystem(5, [(1, 2, 3), (1, 2, 4)])
        assert is_d_full(h, 1) and not is_d_full(h, 2)
        k5 = TripleSystem(5, itertools.combinations(range(5), 3))
        assert is_d_full(k5, 3)

    def test_superfull_examples(self):
        assert is_superfull(TripleSystem(6, []), 1, 9)
        assert is_superfull(s_construction(12, 1), 1, 9)
        assert not is_superfull(TripleSystem(4, [(1, 2, 3)]), 1, 9)
        with pytest.raises(InputError):
            is_superfull(TripleSystem(4, []), 3, 2)

    @settings(max_examples=60, deadline=None)
    @given(triple_systems())
    def test_incidence_identities(self, h):
        pair_sum = sum(h.codegree(u, v) for u, v in h.shadow_pairs())
        assert pair_sum == 3 * len(h.edges)
        degree_sum = sum(h.degree(v) for v in range(h.n))
        assert degree_sum == 3 * len(h.edges)
        for v in range(h.n):
            assert len(h.link(v).edges) == h.degree(v)

    @settings(max_examples=40, deadline=None)
    @given(triple_systems(6), st.integers(0, 3))
    def test_superfull_implies_full(self, h, d):
        if is_superfull(h, d, d + 2):
            assert is_d_full(h, d)


class TestCodegreeIndex:
    """`rows` is the one codegree index: it agrees with the triples, every
    reader answers from it, and no search or cleaning step edits it."""

    def test_rows_and_readers_agree_with_a_brute_force(self):
        rng = random.Random(29)
        empty_rows = set()
        for _ in range(80):
            n = rng.randint(0, 11)
            h = random_triple_system(rng, n, rng.uniform(0.0, 0.6))
            third = {
                (u, v): sum(
                    1 << w for w in range(n) if tuple(sorted((u, v, w))) in h.edges
                )
                for u in range(n) for v in range(n) if u != v
            }
            for (u, v), mask in third.items():
                assert h.rows[u].get(v, 0) == h.codegree_mask(u, v) == mask
                assert (v in h.rows[u]) == (mask != 0)
            for u in range(n):
                assert u not in h.rows[u] and h.codegree_mask(u, u) == 0
            assert h.shadow_pairs() == sorted(p for p, m in third.items() if m and p[0] < p[1])
            codegrees = [m.bit_count() for p, m in third.items() if m]
            for d in range(5):
                assert is_d_full(h, d) == all(c >= d for c in codegrees)
                k = d + 2
                low = [
                    sum(third[p].bit_count() < k for p in itertools.combinations(e, 2))
                    for e in h.edges
                ]
                assert is_superfull(h, d, k) == (is_d_full(h, d) and all(x <= 1 for x in low))
            for v in range(n):
                assert h.degree(v) == sum(v in e for e in h.edges)
                if not h.degree(v):
                    empty_rows.add(id(h.rows[v]))
        # every vertex in no triple, in every system, has the same row
        assert len(empty_rows) == 1

    def test_the_empty_row_is_read_only(self):
        row = TripleSystem(3).rows[0]
        assert row is TripleSystem(5, [(0, 1, 2)]).rows[4] and not row
        with pytest.raises(TypeError):
            row[0] = 1

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (-1, -2), (5, 0), (0, 5), (10**9, 1), (2, 10**9)])
    def test_codegree_mask_is_total(self, u, v):
        # rows[-1] would read vertex 4's row, which is not empty here
        h = TripleSystem(5, [(0, 1, 4), (1, 2, 4), (0, 2, 3)])
        assert h.codegree_mask(u, v) == 0

    def test_no_search_or_cleaning_edits_the_rows(self):
        rng = random.Random(3)
        hosts = [s_construction(9, 1), planted_host(rng, 20, 2)]
        hosts += [random_triple_system(rng, 10, 0.3) for _ in range(4)]
        for host in hosts:
            before = [dict(row) for row in host.rows]
            ids = [id(row) for row in host.rows]
            for pattern in (path_graph(3), star_graph(3), cycle_graph(4)):
                find_expansion(host, pattern)
                for triple in host.edge_list()[:5]:
                    expansion_through(host, pattern, [triple])
            for k, t in ((3, 2), (1, 1)):
                cleaning_algorithm(host, k, t)
            for d in range(3):
                extract_d_full(host, d)
            assert [dict(row) for row in host.rows] == before
            assert [id(row) for row in host.rows] == ids


class TestTwoIntersecting:
    def test_examples(self):
        h = TripleSystem(6, [(1, 2, 3), (1, 2, 4), (1, 2, 5)])
        assert two_intersecting_structure(h) == CommonPair(1, 2)
        k4 = TripleSystem(4, itertools.combinations(range(4), 3))
        assert isinstance(two_intersecting_structure(k4), SmallSystem)
        h = TripleSystem(6, [(0, 1, 2), (3, 4, 5)])
        assert isinstance(two_intersecting_structure(h), NotTwoIntersecting)

    def test_never_rejects_true_two_intersecting(self):
        # exhaustive over families of triples on [5] that pairwise share 2
        triples = list(itertools.combinations(range(5), 3))

        def extend(chosen, start):
            yield list(chosen)
            for i in range(start, len(triples)):
                if all(len(set(triples[i]) & set(c)) == 2 for c in chosen):
                    chosen.append(triples[i])
                    yield from extend(chosen, i + 1)
                    chosen.pop()

        for family in extend([], 0):
            result = two_intersecting_structure(TripleSystem(5, family))
            assert not isinstance(result, NotTwoIntersecting)


class TestMatchingClassification:
    def test_examples(self):
        assert matching_le1_structure(cycle_graph(3)) == TriangleClass((0, 1, 2))
        assert matching_le1_structure(star_graph(3)) == StarClass(0)
        assert isinstance(
            matching_le1_structure(Graph(4, [(0, 1), (2, 3)])), MatchingAtLeastTwo
        )
        assert matching_le1_structure(Graph(3, [])) == EmptyClass()

    def test_single_edge_is_a_star(self):
        assert matching_le1_structure(Graph(4, [(1, 3)])) == StarClass(1)

    def test_path_has_matching_two(self):
        assert isinstance(
            matching_le1_structure(path_graph(3)), MatchingAtLeastTwo
        )
