import hashlib
import importlib.util
import inspect
import itertools
import json
import math
import random
import re
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from crosscut import embed, lab, symmetry
from crosscut.builders import (
    balanced_bipartite,
    constant_coloring,
    lower_bound_coloring,
    s_construction,
    s_contains,
    s_graph,
    sbi_contains,
    s_size,
)
from crosscut.config import SearchBudget
from crosscut.errors import BudgetExceededError, InputError
from crosscut.lab import (
    anti_ramsey_bounds,
    bipartization_distance,
    canonical_edge_key,
    canonical_graph_key,
    cached_turan,
    exact_generalized_turan,
    exact_turan_hypergraph,
    graph_closeness,
    hypergraph_closeness,
    is_augmentation_of,
    verify_theorem_suite,
)
from crosscut.structures import Graph, TripleSystem
from crosscut.symmetry import decode_key, key_and_twins
from crosscut.trees import (
    complete_graph,
    covering_number,
    crosscut_value,
    cycle_graph,
    enumerate_trees,
    path_graph,
    star_graph,
)

from conftest import random_graph, random_triple_system
from oracles import (
    _refined_classes_reference,
    canonical_edge_key_reference,
    canonical_key_naive,
    closeness_reference,
    generalized_turan_naive,
    levelwise_max_reference,
    maxcut_naive,
    turan_hypergraph_naive,
    twin_ids_reference,
)

EXPECTED_FILE = Path(__file__).resolve().parent.parent / "bench" / "expected.json"


class TestCanonicalForms:
    def test_isomorphic_graphs_collide(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(3, 7)
            g = random_graph(rng, n, 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_graph_key(g) == canonical_graph_key(h)

    def test_distinct_classes_separate(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(3, 6)
            a = random_graph(rng, n, 0.5)
            b = random_graph(rng, n, 0.5)
            same_naive = canonical_key_naive(a) == canonical_key_naive(b)
            same_ours = canonical_graph_key(a) == canonical_graph_key(b)
            assert same_naive == same_ours

    def test_triple_system_keys(self):
        a = TripleSystem(5, [(0, 1, 2), (2, 3, 4)])
        b = TripleSystem(5, [(4, 3, 2), (2, 1, 0)])
        assert canonical_edge_key(a.n, a.edges) == canonical_edge_key(b.n, b.edges)
        c = TripleSystem(5, [(0, 1, 2), (0, 1, 3)])
        assert canonical_edge_key(a.n, a.edges) != canonical_edge_key(c.n, c.edges)


class TestCanonicalKeyMatchesReference:
    """The refined, twin-collapsed key is byte-identical to the plain
    enumeration over every permutation of every refinement class."""

    def test_random_graphs_and_3_graphs(self):
        rng = random.Random(2718)
        for i in range(2400):
            n = rng.randint(1, 7)
            arity = 2 if i % 2 else 3
            density = rng.uniform(0.1, 0.95)
            edges = frozenset(
                e for e in itertools.combinations(range(n), arity) if rng.random() < density
            )
            assert canonical_edge_key(n, edges) == canonical_edge_key_reference(n, edges)

    def test_structured_inputs(self):
        systems = [Graph(n, []) for n in range(5)]
        systems += [complete_graph(n) for n in range(2, 8)]
        systems += [TripleSystem(n, itertools.combinations(range(n), 3)) for n in range(3, 8)]
        systems += [star_graph(k) for k in range(1, 7)]
        systems += [cycle_graph(k) for k in range(3, 8)]
        systems += [path_graph(k) for k in range(1, 7)]
        for n in range(1, 8):
            for t in range(min(n, 3) + 1):
                systems.append(s_construction(n, t))
                systems.append(s_graph(n, t))
                if (n - t) // 2 >= 2:
                    systems.append(s_graph(n, t, plus=True))
        for system in systems:
            assert canonical_edge_key(system.n, system.edges) == canonical_edge_key_reference(
                system.n, system.edges
            )

    def test_families_where_pruning_matters(self):
        """These families keep large refinement classes with several twin
        groups, whose many arrangements give equal keys: the bounded search
        prunes least where its bound meets ties."""
        c7 = cycle_graph(7)
        pairs7 = itertools.combinations(range(7), 2)
        fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
        triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        systems = [
            cycle_graph(6),
            c7,
            Graph(6, [(a, b) for a in range(3) for b in range(3, 6)]),  # K3,3
            Graph(6, triangles + [(0, 3), (1, 4), (2, 5)]),  # the prism
            Graph(6, triangles),  # 2K3
            Graph(6, [(0, 1), (2, 3), (4, 5)]),  # 3K2
            Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),  # C5 plus an isolated vertex
            Graph(7, [e for e in pairs7 if e not in c7.edges]),  # the complement of C7
            TripleSystem(7, fano),
        ]
        for system in systems:
            assert canonical_edge_key(system.n, system.edges) == canonical_edge_key_reference(
                system.n, system.edges
            )

    def test_every_labelled_graph_on_at_most_5_vertices(self):
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = frozenset(e for i, e in enumerate(pairs) if mask >> i & 1)
                assert canonical_edge_key(n, edges) == canonical_edge_key_reference(n, edges)

    def test_star_keys_have_closed_form(self):
        # every leaf is a twin of every other, so one arrangement is tried
        for k in range(1, 11):
            assert canonical_graph_key(star_graph(k)) == (k + 1, tuple((i, k) for i in range(k)))


def test_key_and_twin_ids_match_the_oracles():
    # one refinement gives both the twin partition of the transposition
    # oracle and the key of the plain enumeration
    rng = random.Random(1618)
    systems = [(n, []) for n in range(9)]
    systems += [(g.n, g.edges) for g in (star_graph(5), complete_graph(6), cycle_graph(6))]
    systems += [(s.n, s.edges) for s in (s_construction(8, 2), s_graph(8, 3))]
    for i in range(1200):
        n = rng.randint(1, 8)
        arity = 2 if i % 2 else 3
        density = rng.choice([0.05, 0.2, 0.5, 0.8, 0.95])
        # every third system leaves up to two top vertices isolated
        span = n - rng.randint(0, 2) if i % 3 == 0 else n
        edges = [e for e in itertools.combinations(range(span), arity) if rng.random() < density]
        systems.append((n, edges))
    for n, edges in systems:
        codes, ids = key_and_twins(n, edges)
        key = decode_key(n, codes, len(next(iter(edges)))) if edges else codes
        least = [min(u for u in range(n) if ids[u] == ids[v]) for v in range(n)]
        assert least == twin_ids_reference(n, edges), (n, sorted(edges))
        assert key == canonical_edge_key(n, edges)
        if n <= 6:  # the plain enumeration takes seconds on the larger classes of n = 7, 8
            assert key == canonical_edge_key_reference(n, frozenset(edges)), (n, sorted(edges))


def test_twin_signature_codes_are_exact():
    """The orderly generation's signature of an item, the sum of 4**id over
    its vertices' twin ids, splits the items into the classes of the
    sorted-id signature: checked over every item of 2 and 3 vertices with
    ids below 9."""
    for arity in (2, 3):
        classes: dict[int, set] = {}
        for ids in itertools.product(range(9), repeat=arity):
            classes.setdefault(sum(4**i for i in ids), set()).add(tuple(sorted(ids)))
        assert all(len(sorted_ids) == 1 for sorted_ids in classes.values())
        assert len(classes) == math.comb(9 + arity - 1, arity)


def test_code_keys_decode_to_the_reference_keys_in_the_same_order():
    """On random graphs and 3-graphs with n <= 8, the empty family of
    each n included, the code key decodes to the plain enumeration's key,
    and code tuples sort as their decoded keys do.  The enumeration is
    skipped where it would try over 5,040 labellings (some seconds)."""
    rng = random.Random(2718)
    systems = [(n, arity, []) for n in range(9) for arity in (2, 3)]
    for i in range(1200):
        n = rng.randint(1, 8)
        systems.append((n, 2 + i % 2, _random_family(rng, n, 2 + i % 2)))
    keys: dict[tuple, list] = {}
    compared = 0
    for n, arity, edges in systems:
        codes = key_and_twins(n, edges)[0]
        key = decode_key(n, codes, arity)
        assert key == canonical_edge_key(n, edges)
        touched = {v for e in edges for v in e}
        classes = _refined_classes_reference(n, edges)
        if math.prod(math.factorial(len(c)) for c in classes if touched & set(c)) <= 5040:
            assert key == canonical_edge_key_reference(n, frozenset(edges)), (n, edges)
            compared += 1
        keys.setdefault((n, arity), []).append((codes, key))
    assert compared >= len(systems) - 5, compared
    for pairs in keys.values():
        assert [key for _, key in sorted(pairs)] == sorted(key for _, key in pairs)


TURAN_WORKLOAD = [
    (exact_turan_hypergraph, 6, path_graph(2)),
    (exact_turan_hypergraph, 7, path_graph(2)),
    (exact_turan_hypergraph, 6, cycle_graph(3)),
    (exact_generalized_turan, 6, path_graph(2)),
    (exact_generalized_turan, 6, cycle_graph(3)),
]


def test_turan_work_counts_are_pinned(monkeypatch):
    """Freeness searches and canonical keys per problem: each family keys
    the first child of every twin orbit, pruned families too, a labelled
    child reached from several parents is keyed once, and one search per
    isomorphism class per level answers all children with that key; both
    constructions are decided without a search.  A graph child whose new
    edge closes no triangle needs no search."""
    counts = {"searches": 0, "keys": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in [("searches", "find_expansion"), ("searches", "expansion_through"),
                     ("keys", "canonical_edge_key"), ("keys", "key_and_twins")]:
        monkeypatch.setattr(lab, fn, counted(name, getattr(lab, fn)))
    per_problem = []
    for solve, n, pattern in TURAN_WORKLOAD:
        before = dict(counts)
        solve(n, pattern)
        per_problem.append((counts["searches"] - before["searches"], counts["keys"] - before["keys"]))
    assert per_problem == [(11, 12), (16, 19), (189, 381), (42, 368), (58, 521)]
    assert (counts["searches"], counts["keys"]) == (316, 1301)


def test_arrangement_search_work_is_pinned(monkeypatch):
    """Edge-code evaluations and arrangement-search calls per problem, a
    count of the keys' work that does not depend on the machine.  A family
    with one arrangement is coded once, without a search call; each leaf
    of a search and each bound test at a choice codes every edge."""
    counts = {"codes": 0, "calls": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name, fn in [("codes", "_edge_codes"), ("calls", "_least_codes")]:
        monkeypatch.setattr(symmetry, fn, counted(name, getattr(symmetry, fn)))
    embed._edge_orbits.cache_clear()  # so that the patterns' own keys count too
    per_problem = []
    for solve, n, pattern in TURAN_WORKLOAD:
        before = dict(counts)
        solve(n, pattern)
        per_problem.append((counts["codes"] - before["codes"], counts["calls"] - before["calls"]))
    assert per_problem == [(27, 27), (33, 27), (941, 936), (1535, 1845), (2078, 2548)]
    assert (counts["codes"], counts["calls"]) == (4614, 5383)


def test_turan_workload_keys_match_the_reference(monkeypatch):
    """Every family the orderly generation keys gets the plain
    enumeration's key."""
    families = []

    def recorded(fn):
        def wrapper(n, edges):
            families.append((n, frozenset(edges)))
            return fn(n, edges)

        return wrapper

    monkeypatch.setattr(lab, "canonical_edge_key", recorded(canonical_edge_key))
    monkeypatch.setattr(lab, "key_and_twins", recorded(key_and_twins))
    for solve, n, pattern in TURAN_WORKLOAD:
        solve(n, pattern)
    assert len(families) == 1301
    for n, edges in families:
        assert canonical_edge_key(n, edges) == canonical_edge_key_reference(n, edges), (n, edges)


def _random_family(rng: random.Random, n: int, arity: int) -> list[tuple[int, ...]]:
    """Edges of a random graph or 3-graph on range(n); a third of them
    leave up to two top vertices outside every edge."""
    density = rng.choice([0.05, 0.2, 0.5, 0.8, 0.95])
    span = n - rng.randint(0, 2) if rng.random() < 1 / 3 else n
    return [e for e in itertools.combinations(range(span), arity) if rng.random() < density]


def test_refined_classes_match_the_reference():
    """Class by class refinement gives the classes of ranking every vertex
    by (color, sorted partner colors) until nothing changes, in order."""
    rng = random.Random(4242)
    for i in range(1500):
        n = rng.randint(1, 8)
        items = _random_family(rng, n, 2 + i % 2)
        triples, partners = symmetry._partners(n, items)
        assert symmetry._refined_classes(n, partners, triples) == _refined_classes_reference(
            n, items
        ), (n, items)


def test_relabelling_keeps_the_key_and_carries_the_twins():
    """On 7 and 8 vertices, where the plain enumeration is slow, a random
    relabelling sigma keeps the key, and u, w are twins iff sigma(u),
    sigma(w) are."""
    rng = random.Random(777)
    for i in range(1000):
        n = 7 + i % 2
        edges = _random_family(rng, n, 2 + i // 2 % 2)
        sigma = list(range(n))
        rng.shuffle(sigma)
        moved = sorted(tuple(sorted(sigma[v] for v in e)) for e in edges)
        key, ids = key_and_twins(n, edges)
        moved_key, moved_ids = key_and_twins(n, moved)
        assert moved_key == key, (n, edges, sigma)
        for u, w in itertools.combinations(range(n), 2):
            assert (ids[u] == ids[w]) == (moved_ids[sigma[u]] == moved_ids[sigma[w]])


def test_turan_reports_are_pinned():
    """Turán reports of both modes for n = 2..6 and seven patterns, plus
    (7, P2), byte for byte: their witnesses are canonical keys."""
    patterns = [path_graph(1), path_graph(2), path_graph(3), star_graph(3), cycle_graph(3),
                cycle_graph(4), Graph(4, [(0, 1), (2, 3)])]
    problems = [(solve, n, pattern) for solve in (exact_turan_hypergraph, exact_generalized_turan)
                for n in range(2, 7) for pattern in patterns]
    problems += [(exact_turan_hypergraph, 7, path_graph(2)), (exact_generalized_turan, 7, path_graph(2))]
    lines = [json.dumps(solve(n, pattern).to_json(), sort_keys=True) for solve, n, pattern in problems]
    assert len(lines) == 72
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "fa42dd0e6df25254"


def test_no_labelled_family_is_keyed_twice_in_one_level(monkeypatch):
    """Each canonical key call of one orderly generation gets a labelled
    family not keyed before in its level; the families of one level are
    exactly those of one size."""
    runs = []
    fast = lab._levelwise_max

    def recording(n, all_items, is_free, objective, seed_value, budget):
        runs.append({})
        return fast(n, all_items, is_free, objective, seed_value, budget)

    def keyed(fn):
        def wrapper(n, edges):
            runs[-1].setdefault(len(edges), []).append(frozenset(edges))
            return fn(n, edges)

        return wrapper

    monkeypatch.setattr(lab, "_levelwise_max", recording)
    monkeypatch.setattr(lab, "canonical_edge_key", keyed(canonical_edge_key))
    monkeypatch.setattr(lab, "key_and_twins", keyed(key_and_twins))
    for solve, n, pattern in TURAN_WORKLOAD:
        solve(n, pattern)
    assert len(runs) == len(TURAN_WORKLOAD)
    for levels in runs:
        assert len(levels) > 1
        for families in levels.values():
            assert len(set(families)) == len(families)


def test_no_class_is_searched_twice_in_one_level(monkeypatch):
    """Every is_free call of one orderly generation gets a family of a new
    isomorphism class; families of different levels differ in size, so
    one set of keys per run covers every level."""
    fast = lab._levelwise_max
    runs = []

    def recording(n, all_items, is_free, objective, seed_value, budget):
        keys = []

        def free(family, it):
            keys.append(canonical_edge_key(n, family))
            return is_free(family, it)

        runs.append(keys)
        return fast(n, all_items, free, objective, seed_value, budget)

    monkeypatch.setattr(lab, "_levelwise_max", recording)
    for solve, n, pattern in TURAN_WORKLOAD + [(exact_generalized_turan, 7, path_graph(2))]:
        solve(n, pattern)
    assert len(runs) == 6
    for keys in runs:
        assert keys and len(set(keys)) == len(keys)


@pytest.mark.parametrize("solve", [exact_turan_hypergraph, exact_generalized_turan])
@pytest.mark.parametrize(
    "pattern, top",
    [
        (path_graph(1), 6),
        (path_graph(2), 6),
        (path_graph(3), 6),
        (cycle_graph(3), 6),
        (star_graph(3), 5),
        (Graph(5, [(0, 1), (1, 2), (3, 4)]), 5),
    ],
    ids=["P1", "P2", "P3", "C3", "K13", "P2+K2"],
)
def test_levelwise_max_matches_reference(monkeypatch, solve, pattern, top):
    """Inherited addable sets, twin-orbit tests, searches through the new
    item and verdicts shared by canonical key leave (best, witnesses,
    nodes) unchanged, also for patterns with non-trivial automorphisms and
    a disconnected one.  The drivers' orderly generation runs here for
    every n, also where they skip it because the pattern cannot fit; the
    reference tests each whole family with an unrooted search of its own.
    The seed is the one the real driver takes from its lower-only report."""
    runs = []
    real = lab._exact_turan

    def both(n, pattern, exhaustive, budget, construction, arity, is_free, objective):
        items = list(itertools.combinations(range(n), arity))
        lower = real(n, pattern, False, None, construction, arity, is_free, objective)
        seed = (lower.lower_bound_construction_value or 0) if lower.construction_free else 0

        def unrooted(family):
            if arity == 3:
                return embed.find_expansion(TripleSystem(n, family), pattern) is None
            return embed.find_blowup(Graph(n, family), pattern) is None

        want = levelwise_max_reference(
            n, items, unrooted, objective, seed, SearchBudget(), canonical_edge_key
        )
        runs.append((lab._levelwise_max(n, items, is_free, objective, seed, SearchBudget()), want))

    monkeypatch.setattr(lab, "_exact_turan", both)
    for n in range(3, top + 1):
        solve(n, pattern)
    assert len(runs) == top - 2
    for got, want in runs:
        assert got == want


@pytest.mark.parametrize(
    "solve, pattern, n, value, free",
    [
        (exact_turan_hypergraph, path_graph(3), 16, 105, True),
        (exact_turan_hypergraph, path_graph(3), 17, 120, True),
        (exact_turan_hypergraph, path_graph(3), 2**70, s_size(2**70, 1), True),
        (exact_generalized_turan, path_graph(3), 16, 56, True),
        (exact_generalized_turan, path_graph(3), 17, 64, True),
        (exact_turan_hypergraph, cycle_graph(4), 16, None, None),
        (exact_generalized_turan, cycle_graph(4), 16, 65, True),
    ],
)
def test_construction_is_checked_up_to_its_limit(solve, pattern, n, value, free):
    """Both constructions are decided at every n, also above 16; C4 has
    the joined construction but no apex system."""
    result = solve(n, pattern, exhaustive=False)
    assert (result.lower_bound_construction_value, result.construction_free) == (value, free)
    assert result.value == (value or 0) and result.matches_construction is None


def test_turan_caps_in_the_docs_match_the_code():
    formats = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    [section] = re.findall(r"^### turan results\n(.*?)(?=^### )", formats, re.S | re.M)
    assert re.findall(r"capped at (\d+)", section) == [str(lab.WITNESS_CAP)]
    assert set(re.findall(r"n (?:=|<=) (\d+)", section)) == {str(lab.EXHAUSTIVE_LIMIT)}


class TestPinnedTuranAnswers:
    """Turán witnesses are canonical keys, so a changed key changes them."""

    @pytest.mark.parametrize(
        "key",
        [
            "hypergraph 6 path2",
            "hypergraph 7 path2",
            "hypergraph 6 cycle3",
            "triangles 6 path2",
            "triangles 6 cycle3",
        ],
    )
    def test_benchmark_answers(self, key):
        answer = json.loads(EXPECTED_FILE.read_text())["turan"][key]
        mode, n, name = key.split()
        pattern = path_graph(int(name[-1])) if name.startswith("path") else cycle_graph(int(name[-1]))
        solve = exact_turan_hypergraph if mode == "hypergraph" else exact_generalized_turan
        result = solve(int(n), pattern)
        witnesses = [[list(e) for e in w] for w in result.extremal_witnesses]
        digest = hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()[:16]
        assert (result.value, digest) == (answer["value"], answer["witnesses"])

    def test_hypergraph_6_p3(self):
        # every 3-graph on 6 vertices avoids the 7-vertex expansion of P3,
        # so the complete one is returned without a search
        assert exact_turan_hypergraph(6, path_graph(3)).to_json() == {
            "n": 6,
            "pattern": [[0, 1], [1, 2], [2, 3]],
            "value": 20,
            "exhaustive": True,
            "extremal_witnesses": [[list(t) for t in itertools.combinations(range(6), 3)]],
            "lower_bound_construction_value": 10,
            "construction_free": True,
            "matches_construction": False,
            "nodes": 0,
        }

    def test_triangles_7_p2(self):
        triangle = [[0, 1], [0, 2], [1, 2]]
        k4 = [[3, 4], [3, 5], [3, 6], [4, 5], [4, 6], [5, 6]]
        assert exact_generalized_turan(7, path_graph(2)).to_json() == {
            "n": 7,
            "pattern": [[0, 1], [1, 2]],
            "value": 5,
            "exhaustive": True,
            "extremal_witnesses": [
                [[0, 1], [0, 2], [0, 4], [1, 2], [1, 5], [2, 6]] + k4,
                triangle + [[1, 5], [2, 6]] + k4,
                triangle + [[2, 6]] + k4,
                triangle + k4,
                [[u, v] for u in range(5) for v in (5, 6)] + [[5, 6]],
            ],
            "lower_bound_construction_value": 4,
            "construction_free": True,
            "matches_construction": False,
            "nodes": 400,
        }


@pytest.mark.parametrize("solve", [exact_turan_hypergraph, exact_generalized_turan])
def test_trivial_instances_return_the_complete_family(solve):
    """A tree whose expansion (or blowup) has more than n vertices is in no
    family on n vertices.  From n = 3 on the complete family is the one
    family of the top value, C(n, 3), and is reported without a search."""
    arity = 3 if solve is exact_turan_hypergraph else 2
    naive = turan_hypergraph_naive if arity == 3 else generalized_turan_naive
    count = 0
    for k in range(2, 6):
        for tree in enumerate_trees(k):
            for n in range(3, min(k + len(tree.edges), 8)):
                count += 1
                lower = solve(n, tree, exhaustive=False).to_json()
                value = math.comb(n, 3)
                assert solve(n, tree).to_json() == {
                    **lower,
                    "value": value,
                    "exhaustive": True,
                    "extremal_witnesses": [
                        [list(e) for e in itertools.combinations(range(n), arity)]
                    ],
                    "matches_construction": None
                    if lower["lower_bound_construction_value"] is None
                    else value == lower["lower_bound_construction_value"],
                    "nodes": 0,
                }
                if n <= 4:
                    assert value == naive(n, tree)
    assert count == 25


@pytest.mark.parametrize("solve", [exact_turan_hypergraph, exact_generalized_turan])
def test_c4_on_7_vertices_needs_no_search(solve):
    # C4's expansion and blowup have 8 vertices; the search never ended
    result = solve(7, cycle_graph(4), budget=SearchBudget(max_nodes=1))
    assert (result.value, result.nodes) == (35, 0)


def test_benchmark_tracer_patch_points_stay():
    """The benchmark's tracer (bench/spans.py) replaces package functions by
    name, among them find_expansion and find_blowup on lab and embed and
    canonical_edge_key on lab, and calls find_expansion(host, pattern,
    deterministic, budget) positionally: a rename or a new signature breaks
    traced runs."""
    for module, name in [(lab, "find_expansion"), (lab, "find_blowup"),
                         (lab, "canonical_edge_key"), (embed, "find_expansion"),
                         (embed, "find_blowup")]:
        assert callable(getattr(module, name, None)), (module.__name__, name)
    params = inspect.signature(embed.find_expansion).parameters
    assert list(params) == ["host", "pattern", "deterministic", "budget"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    spec = importlib.util.spec_from_file_location("spans", EXPECTED_FILE.parent / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = ("builders", "cleaning", "cli", "config", "embed", "lab", "structures", "trees")
    cc = SimpleNamespace(**{m: importlib.import_module(f"crosscut.{m}") for m in modules})
    tracer = spans.Tracer()
    try:
        tracer.install(cc)  # every attribute it replaces must exist
        result = exact_generalized_turan(6, path_graph(2))
        turan_calls = tracer.counts["embed.calls"]  # no construction search
        found = lab.find_expansion(s_construction(5, 1), path_graph(2))
    finally:
        tracer.uninstall()
    assert lab.find_expansion is embed.find_expansion
    assert (result.value, turan_calls, tracer.counts["lab.canon_calls"]) == (4, 0, 1)
    assert found is not None and tracer.counts["embed.calls"] == 1


class TestExactTuranHypergraph:
    def test_tiny_values(self):
        assert exact_turan_hypergraph(4, path_graph(2)).value == 4
        assert exact_turan_hypergraph(5, path_graph(2)).value == 4
        assert exact_turan_hypergraph(5, path_graph(1)).value == 0

    def test_cherry_free_witness(self):
        result = exact_turan_hypergraph(5, path_graph(2))
        assert result.extremal_witnesses
        witness = TripleSystem(5, result.extremal_witnesses[0])
        from crosscut.embed import find_expansion

        assert find_expansion(witness, path_graph(2)) is None
        assert len(witness.edges) == 4

    def test_matches_naive_for_small_patterns(self):
        for n in range(3, 6):
            for pat in (path_graph(1), path_graph(2), path_graph(3), star_graph(2)):
                ours = exact_turan_hypergraph(n, pat).value
                assert ours == turan_hypergraph_naive(n, pat)

    def test_lower_only_mode(self):
        result = exact_turan_hypergraph(14, path_graph(3), exhaustive=False)
        assert result.value == s_size(14, 1)
        assert result.construction_free is True
        assert not result.exhaustive
        big = exact_turan_hypergraph(30, path_graph(3), exhaustive=False)
        assert big.value == s_size(30, 1)
        assert big.construction_free is True  # decided by the covering number

    def test_budget_gate(self, monkeypatch):
        """Above the cap both entry points stop before any search."""

        def searched(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(lab, "find_expansion", searched)
        monkeypatch.setattr(lab, "expansion_through", searched)
        for solve in (exact_turan_hypergraph, exact_generalized_turan):
            with pytest.raises(BudgetExceededError, match=r"^exhaustive search supports n <= 7$"):
                solve(8, path_graph(2))


@pytest.mark.parametrize("solve", [exact_turan_hypergraph, exact_generalized_turan])
def test_turan_honours_the_caller_budget(solve):
    with pytest.raises(BudgetExceededError):
        solve(5, path_graph(2), budget=SearchBudget(max_nodes=1))
    # `nodes` counts the orderly search, the one search on the budget:
    # neither side searches its construction
    budget = SearchBudget()
    nodes = solve(5, path_graph(2), budget=budget).nodes
    assert nodes == solve(5, path_graph(2)).nodes > 0
    assert budget.nodes == nodes


@pytest.mark.parametrize(
    "limits",
    [{"max_nodes": -1}, {"max_nodes": 0}, {"wall_clock_s": 0}, {"wall_clock_s": -2.5}],
    ids=["nodes-negative", "nodes-zero", "clock-zero", "clock-negative"],
)
def test_non_positive_budget_is_an_input_error(limits):
    with pytest.raises(InputError, match="must be positive"):
        SearchBudget(**limits)


def test_positive_and_unlimited_budgets_are_accepted():
    assert SearchBudget(max_nodes=1, wall_clock_s=0.5).max_nodes == 1
    assert SearchBudget(None, None).deadline is None


class TestExactGeneralizedTuran:
    def test_single_edge_pattern(self):
        assert exact_generalized_turan(5, path_graph(1)).value == 0

    def test_small_host_where_pattern_cannot_fit(self):
        result = exact_generalized_turan(6, path_graph(3))
        assert result.value == 20  # the complete graph survives
        assert result.lower_bound_construction_value == 6
        assert result.construction_free is True

    def test_matches_naive(self):
        for n in range(3, 7):
            for pat in (path_graph(1), path_graph(2), cycle_graph(3)):
                ours = exact_generalized_turan(n, pat).value
                assert ours == generalized_turan_naive(n, pat)
        # frozen from the all-subsets oracle above
        assert exact_generalized_turan(6, cycle_graph(3)).value == 10
        assert exact_generalized_turan(6, path_graph(2)).value == 4

    def test_lower_only_even_path_uses_extra_edge(self):
        from crosscut.builders import sbi_size

        result = exact_generalized_turan(14, path_graph(4), exhaustive=False)
        assert result.value == sbi_size(14, 1, plus=True)
        assert result.construction_free is True


class TestCache:
    def test_cache_round_trip(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return exact_turan_hypergraph(5, path_graph(2))

        first = cached_turan("hypergraph", 5, path_graph(2), tmp_path, compute)
        second = cached_turan("hypergraph", 5, path_graph(2), tmp_path, compute)
        assert first == second
        assert len(calls) == 1

    def test_cache_key_uses_isomorphism_class(self, tmp_path):
        """Relabellings of one pattern share one cache file per mode, and
        every report equals the uncached one, the requested pattern
        included."""
        calls = []
        for mode, solve in [("hypergraph", exact_turan_hypergraph),
                            ("triangles", exact_generalized_turan)]:
            for pattern in [path_graph(2), Graph(3, [(0, 2), (1, 2)]), Graph(3, [(0, 1), (0, 2)])]:

                def compute(solve=solve, pattern=pattern):
                    calls.append(1)
                    return solve(5, pattern)

                report = cached_turan(mode, 5, pattern, tmp_path, compute)
                assert report == solve(5, pattern).to_json()
        assert len(calls) == 2
        assert len(list(tmp_path.glob("turan-*.json"))) == 2

    def test_stale_lower_only_files_are_not_served(self, tmp_path):
        """A lower-only file under a key used while construction_free was
        null for n > 16, on the hypergraph side up to one tag and on the
        triangle side up to the next, is never read."""
        pattern = path_graph(3)
        stale_keys = [
            ("hypergraph", exact_turan_hypergraph, ["lower-only"]),
            ("triangles", exact_generalized_turan, ["lower-only", "covering-number"]),
        ]
        for mode, solve, tags in stale_keys:
            stale = solve(17, pattern, exhaustive=False).to_json()
            stale["construction_free"] = None
            old_key = [mode, 17, lab.canonical_graph_key(pattern)] + tags
            digest = hashlib.sha256(json.dumps(old_key).encode()).hexdigest()
            (tmp_path / f"turan-{digest}.json").write_text(json.dumps(stale))
            report = cached_turan(
                mode, 17, pattern, tmp_path,
                lambda: solve(17, pattern, exhaustive=False), exhaustive=False,
            )
            assert report["construction_free"] is True, mode
        assert len(list(tmp_path.glob("turan-*.json"))) == 4


class TestCloseness:
    def test_apex_system_is_close_to_itself(self):
        report = hypergraph_closeness(s_construction(20, 2), 2, 0.1)
        assert report is not None
        assert report.removed == (0, 1)
        assert report.conditions["edges_outside"]["value"] == 0

    def test_empty_system_is_not_close(self):
        assert hypergraph_closeness(TripleSystem(12, []), 1, 0.1) is None

    def test_apex_system_minus_noise_still_close(self):
        rng = random.Random(2)
        base = sorted(s_construction(20, 2).edges)
        apex_edges = [e for e in base if e[0] < 2]
        removed = set(rng.sample(apex_edges, 5))
        noisy = TripleSystem(20, [e for e in base if e not in removed])
        report = hypergraph_closeness(noisy, 2, 0.1)
        assert report is not None

    def test_graph_closeness_of_joined_construction(self):
        report = graph_closeness(s_graph(20, 2), 2, 0.1)
        assert report is not None
        assert report.removed == (0, 1)
        assert report.exact_bipartization is True

    def test_complete_graph_fails_triangle_condition(self):
        assert graph_closeness(complete_graph(12), 0, 0.05) is None

    def test_noisy_joined_graph_still_close(self):
        g = s_graph(20, 2)
        part1 = list(range(2, 11))
        extra = [(part1[0], part1[1]), (part1[2], part1[3]), (part1[4], part1[5])]
        noisy = Graph(20, list(g.edges) + extra)
        report = graph_closeness(noisy, 2, 0.1)
        assert report is not None

    def test_delta_validation(self):
        with pytest.raises(InputError):
            hypergraph_closeness(TripleSystem(5, []), 1, 0.7)

    def test_subnormal_delta_pools_every_vertex(self):
        # 1 / 5e-324 overflows to inf; like 1 / 1e-9 it exceeds n, so every
        # vertex is in the pool
        g = balanced_bipartite(8)
        tiny, small = (graph_closeness(g, 0, d) for d in (5e-324, 1e-9))
        assert tiny is not None and small is not None
        assert tiny.removed == small.removed == ()
        h = s_graph(12, 2)
        assert lab._candidate_sets(12, 2, 5e-324, h.degree, 0) == lab._candidate_sets(
            12, 2, 1e-9, h.degree, 0
        )

    @staticmethod
    def _near_extremal(rng, host, arity):
        """host with up to a fifth of its edges dropped and up to n others added."""
        edges = sorted(host.edges)
        kept = rng.sample(edges, len(edges) - rng.randint(0, len(edges) // 5))
        others = [e for e in itertools.combinations(range(host.n), arity) if e not in host.edges]
        noise = rng.sample(others, min(len(others), rng.randint(0, host.n)))
        return (TripleSystem if arity == 3 else Graph)(host.n, kept + noise)

    def test_reports_match_the_full_scan(self):
        # 700 3-graphs and 500 graphs on at most 14 vertices, random or near
        # S(n, t) / s_graph(n, t); the reference sorts every t-set and tests
        # every condition on each
        rng = random.Random(28)
        reports = 0
        for i in range(1200):
            arity = 3 if i < 700 else 2
            n = rng.randint(3, 14)
            t = rng.randint(0, min(3, n))
            delta = rng.choice([0.1, 0.2, 0.25, 0.4, rng.uniform(0.02, 0.49)])  # bounds met with equality too
            if i % 2:
                apex = rng.randint(0, min(3, n))
                build = s_construction if arity == 3 else s_graph
                host = self._near_extremal(rng, build(n, apex), arity)
            else:
                sample = random_triple_system if arity == 3 else random_graph
                host = sample(rng, n, rng.uniform(0.1, 0.95))
            report = (hypergraph_closeness if arity == 3 else graph_closeness)(host, t, delta)
            expected = closeness_reference(host, t, delta)
            assert (report and report.to_json()) == (expected and expected.to_json()), i
            reports += expected is not None
        assert reports == 377

    def test_sparse_hosts_return_none_quickly(self):
        # no vertex meets the degree bound, so no set is scanned
        start = time.perf_counter()
        assert hypergraph_closeness(TripleSystem(200, [(0, 1, 2), (3, 4, 5)]), 3, 0.1) is None
        assert time.perf_counter() - start < 1

    def test_complete_graph_skips_the_max_cut(self):
        # every 2-set fails the triangle bound before its bipartization
        start = time.perf_counter()
        assert graph_closeness(complete_graph(24), 2, 0.1) is None
        assert time.perf_counter() - start < 1


class TestBipartization:
    def test_examples(self):
        assert bipartization_distance(cycle_graph(3)) == (1, True)
        assert bipartization_distance(complete_graph(4)) == (2, True)
        from crosscut.builders import balanced_bipartite

        assert bipartization_distance(balanced_bipartite(9)) == (0, True)

    def test_matches_naive_maxcut(self):
        rng = random.Random(77)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 10), rng.uniform(0.2, 0.9))
            value, exact = bipartization_distance(g)
            assert exact
            assert value == len(g.edges) - maxcut_naive(g)

    def test_zero_iff_bipartite(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.8))
            value, _ = bipartization_distance(g)
            assert (value == 0) == g.is_bipartite()

    def test_heuristic_mode_is_flagged_and_upper(self, monkeypatch):
        rng = random.Random(5)
        g = random_graph(rng, 18, 0.4)
        monkeypatch.setattr(lab, "EXACT_CUT_LIMIT", 10)
        value, exact = bipartization_distance(g)
        assert not exact
        monkeypatch.setattr(lab, "EXACT_CUT_LIMIT", 18)
        true_value, really_exact = bipartization_distance(g)
        assert really_exact
        assert true_value <= value


class TestAntiRamsey:
    def test_cycle_augmentation_certificate(self):
        p3 = path_graph(3)
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        result = anti_ramsey_bounds(8, p3, c4)
        assert result.lower == 23
        assert result.upper_formula == 23
        assert result.base_free_verified
        assert result.rainbow_free is True
        assert result.lower <= result.upper_formula

    def test_single_edge_tree(self):
        result = anti_ramsey_bounds(8, Graph(2, [(0, 1)]), path_graph(2))
        assert result.lower == 2
        assert result.base_size == 0

    def test_augmentation_validation(self):
        p3 = path_graph(3)
        with pytest.raises(InputError):
            anti_ramsey_bounds(8, p3, path_graph(5))
        with pytest.raises(InputError):
            anti_ramsey_bounds(8, cycle_graph(4), cycle_graph(4))

    def test_disjoint_edge_augmentation_accepted(self):
        p2 = path_graph(2)  # crosscut number 1, so the base is empty
        aug = Graph(5, [(0, 1), (1, 2), (3, 4)])
        result = anti_ramsey_bounds(9, p2, aug)
        assert result.lower == 2
        p3 = path_graph(3)
        aug3 = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        result3 = anti_ramsey_bounds(9, p3, aug3)
        assert result3.lower == s_size(9, 1) + 2

    def test_sandwich_consistency_on_shapes(self):
        p3 = path_graph(3)
        for aug_edges in ([(0, 2)], [(0, 3)], [(1, 3)]):
            aug = Graph(4, list(p3.edges) + aug_edges)
            result = anti_ramsey_bounds(8, p3, aug)
            assert result.lower <= result.upper_formula


def _augmentation_candidates(tree: Graph) -> list[Graph]:
    """Every chord and every pendant edge added to the tree, and one
    disjoint edge."""
    k, edges = tree.n, tree.edge_list()
    chords = [e for e in itertools.combinations(range(k), 2) if e not in tree.edges]
    return (
        [Graph(k, edges + [e]) for e in chords]
        + [Graph(k + 1, edges + [(v, k)]) for v in range(k)]
        + [Graph(k + 2, edges + [(k, k + 1)])]
    )


class TestApexContainment:
    """s_contains (n >= |V| + |E| and covering number <= t) against the
    exhaustive search it replaces."""

    def test_trees_around_both_thresholds(self):
        cases = 0
        for k in range(2, 7):  # a 7-vertex negative alone takes seconds
            for tree in enumerate_trees(k):
                tau, need = covering_number(tree), tree.n + len(tree.edges)
                for t, n in itertools.product((tau - 1, tau), (need - 1, need, need + 1)):
                    searched = embed.find_expansion(s_construction(n, t), tree) is not None
                    assert s_contains(n, t, tree) == searched, (tree.edge_list(), t, n)
                    cases += 1
        assert cases == 78

    def test_random_graphs(self):
        """Isolated vertices, cycles and several components included; at
        most 8 edges, since denser negatives take seconds each."""
        rng = random.Random(21)
        shapes = {"isolated": 0, "cycle": 0, "components": 0, "contained": 0, "free": 0}
        for _ in range(150):
            graph = Graph(0, [])
            while not 1 <= len(graph.edges) <= 8:
                graph = random_graph(rng, rng.randint(2, 6), rng.choice([0.25, 0.4, 0.55]))
            components = len(graph.components())
            shapes["isolated"] += 0 in graph.degrees()
            shapes["cycle"] += len(graph.edges) > graph.n - components
            shapes["components"] += components > 1
            need = graph.n + len(graph.edges)
            for n in (need - 1, need):
                for t in range(min(3, n) + 1):
                    searched = embed.find_expansion(s_construction(n, t), graph) is not None
                    assert s_contains(n, t, graph) == searched, (graph.edge_list(), t, n)
                    shapes["contained" if searched else "free"] += 1
        assert all(shapes.values()), shapes

    def test_anti_ramsey_fields_match_the_search(self):
        """deletion_free is the search's answer on the base, colors is the
        color count of the lower-bound coloring, and rainbow_free is the
        rainbow search's answer on that coloring: at every n <= 8, and at
        n = 9, 10 where a rainbow copy exists (a rainbow-free search there
        takes up to seconds)."""
        rainbow_above_8 = 0
        for k in range(2, 6):
            for tree in enumerate_trees(k):
                t = crosscut_value(tree) - 1
                for aug in _augmentation_candidates(tree):
                    if not is_augmentation_of(aug, tree):
                        continue
                    for n in range(3, 11):
                        result = anti_ramsey_bounds(n, tree, aug)
                        base = s_construction(n, t)
                        want = [
                            (e, embed.find_expansion(base, aug.delete_edge(*e)) is None)
                            for e in aug.edge_list()
                        ]
                        assert list(result.deletion_free) == want, (aug.edge_list(), n)
                        coloring = lower_bound_coloring(base) if base.edges else constant_coloring(n)
                        assert result.to_json()["colors"] == coloring.color_count
                        if n <= 8 or not result.rainbow_free:
                            rainbow_above_8 += n > 8
                            found = embed.find_rainbow_expansion(coloring, aug)
                            assert result.rainbow_free == (found is None), (aug.edge_list(), n)
        assert rainbow_above_8 == 9
        p3, c4 = path_graph(3), cycle_graph(4)
        assert anti_ramsey_bounds(9, p3, c4).rainbow_free
        assert embed.find_rainbow_expansion(lower_bound_coloring(s_construction(9, 1)), c4) is None

    def test_apex_containment_runs_no_search(self, monkeypatch):
        def searched(*args):
            raise AssertionError("apex system or its coloring built or searched")

        monkeypatch.setattr(lab, "find_expansion", searched)
        monkeypatch.setattr(lab, "s_construction", searched)
        monkeypatch.setattr(embed, "find_rainbow_expansion", searched)
        result = exact_turan_hypergraph(16, path_graph(6), exhaustive=False)
        assert (result.value, result.construction_free) == (s_size(16, 2), True)
        for n in (8, 10):
            result = anti_ramsey_bounds(n, path_graph(3), cycle_graph(4))
            assert (result.base_free_verified, result.rainbow_free) == (True, True)


class TestConstructionFreenessInvariant:
    def test_joined_graphs_avoid_matching_blowups_up_to_40(self):
        # find_blowup searches at n = 13, 14 check the template rule, which
        # decides the larger n
        from crosscut.embed import find_blowup

        cases = []
        for t in (1, 2, 3):
            cases.append((path_graph(2 * t + 1), t, False))
            cases.append((path_graph(2 * t + 2), t, True))
            if t >= 2:
                cases.append((cycle_graph(2 * t + 2), t, True))
        for pattern, t, plus in cases:
            case = (pattern.edge_list(), t, plus)
            for n in (13, 14):
                assert find_blowup(s_graph(n, t, plus=plus), pattern) is None, (case, n)
            for n in range(15, 41):
                assert not sbi_contains(n, t, pattern, plus), (case, n)


class TestVerifySuites:
    def test_facts_suite_passes(self):
        report = verify_theorem_suite("facts", 6)
        assert report["all_pass"]

    def test_odd_paths_suite(self):
        report = verify_theorem_suite("odd-paths", 7)
        assert report["all_pass"]

    def test_even_paths_suite(self):
        report = verify_theorem_suite("even-paths", 8)
        assert report["all_pass"]

    def test_cycles_suite(self):
        report = verify_theorem_suite("cycles", 12)
        assert report["all_pass"]

    @pytest.mark.parametrize(
        "suite, cap, digest",
        [
            ("cycles", 12, "0b53da69d7fc4882"),
            ("even-paths", 10, "aedf3aa5ac3f1eeb"),
            ("facts", 6, "3a189b927dd846f5"),
            ("odd-paths", 9, "71fc1734999137b5"),
            ("trees", 9, "520c8716721726d6"),
        ],
    )
    def test_reports_at_the_cap_are_pinned(self, suite, cap, digest):
        # the first 16 hex digits of the sha256 of the sorted-key JSON report
        assert lab._SUITES[suite][1] == cap
        report = verify_theorem_suite(suite, cap)
        assert report["all_pass"]
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_budget_and_name_validation(self):
        with pytest.raises(BudgetExceededError):
            verify_theorem_suite("cycles", 40)
        with pytest.raises(InputError):
            verify_theorem_suite("nope", 4)


class TestAugmentationPredicate:
    def test_shapes(self):
        p3 = path_graph(3)
        assert is_augmentation_of(Graph(4, list(p3.edges) + [(0, 2)]), p3)
        assert is_augmentation_of(Graph(4, list(p3.edges) + [(0, 3)]), p3)
        assert is_augmentation_of(Graph(5, list(p3.edges) + [(1, 4)]), p3)
        assert is_augmentation_of(Graph(6, list(p3.edges) + [(4, 5)]), p3)
        assert not is_augmentation_of(path_graph(3), p3)
        assert not is_augmentation_of(complete_graph(4), p3)
