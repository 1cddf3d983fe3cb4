import gc
import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from crosscut import embed
from crosscut.builders import (
    constant_coloring,
    expansion,
    lower_bound_coloring,
    s_construction,
    s_graph,
    triangle_blowup,
    triangle_system,
)
from crosscut.config import SearchBudget
from crosscut.embed import (
    AlternatingWitness,
    _absorbable,
    _augment,
    _grouped,
    _lex_least,
    _lex_least_sdr,
    _plan,
    complete_partial_expansion,
    embed_tree_two_sets,
    expansion_through,
    find_blowup,
    find_expansion,
    find_rainbow_expansion,
    vary_cycle_length,
)
from crosscut.errors import BudgetExceededError, HypothesisError, InputError
from crosscut.lab import (
    enumerate_intersecting_edge_families,
    enumerate_two_intersecting_systems,
    exact_generalized_turan,
)
from crosscut.structures import Graph, TripleSystem, sorted_pair
from crosscut.trees import (
    analyze_tree,
    complete_graph,
    crosscut_number,
    crosscut_value,
    cycle_graph,
    enumerate_trees,
    path_graph,
    star_graph,
)

from conftest import random_graph, random_triple_system
from oracles import (
    contains_expansion_naive,
    contains_subgraph_naive,
    expansion_through_naive,
    find_expansion_reference,
    lex_least_sdr_naive,
    rainbow_naive,
)


def complete_3graph(n):
    return TripleSystem(n, itertools.combinations(range(n), 3))


PATTERNS = [
    path_graph(1),
    path_graph(2),
    path_graph(3),
    path_graph(4),
    path_graph(5),
    cycle_graph(3),
    cycle_graph(4),
    cycle_graph(5),
    star_graph(3),
    Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]),  # double star
]

# the 8 trees on at most 7 vertices with crosscut number 2
SIGMA_TWO_TREES = [t for n in range(2, 8) for t in enumerate_trees(n) if crosscut_value(t) == 2]


def _completion_of(emb):
    """The completion vertex of each sorted host pair of a certificate."""
    return {
        sorted_pair(emb.core_map[a], emb.core_map[b]): w for (a, b), w in emb.expansion_map
    }


def _least_completion(host, pairs, pre):
    """The pre-assigned vertices, plus the lexicographically least distinct
    fresh vertices for the other pairs in sorted order (brute force; None
    when there are none)."""
    taken = sum(1 << x for x in {x for p in pairs for x in p} | set(pre.values()))
    rest = sorted(p for p in pairs if p not in pre)
    least = lex_least_sdr_naive([host.codegree_mask(*p) & ~taken for p in rest])
    return None if least is None else {**pre, **dict(zip(rest, least))}


class TestFindExpansion:
    def test_pattern_in_its_own_expansion(self):
        for pat in (path_graph(3), cycle_graph(5), star_graph(4)):
            host = expansion(pat)
            emb = find_expansion(host, pat)
            assert emb is not None and emb.validate(host)

    def test_known_small_instances(self):
        assert find_expansion(s_construction(10, 2), path_graph(5)) is None
        assert find_expansion(complete_3graph(6), cycle_graph(4)) is None
        emb = find_expansion(complete_3graph(8), cycle_graph(4))
        assert emb is not None and emb.validate(complete_3graph(8))

    @pytest.mark.parametrize(
        "search, message",
        [
            (lambda: find_expansion(Graph(6, [(0, 1)]), path_graph(2)), "host must be a TripleSystem"),
            (lambda: find_expansion(complete_3graph(6), complete_3graph(3)), "pattern must be a Graph"),
            (lambda: find_expansion(complete_3graph(6), [(0, 1)]), "pattern must be a Graph"),
            (lambda: find_blowup(complete_3graph(6), path_graph(2)), "host must be a Graph"),
            (lambda: find_blowup(complete_graph(6), None), "pattern must be a Graph"),
        ],
        ids=["graph-host", "3graph-pattern", "list-pattern", "blowup-3graph-host", "blowup-no-pattern"],
    )
    def test_host_and_pattern_kinds_are_input_errors(self, search, message):
        with pytest.raises(InputError, match=f"^{message}, got "):
            search()

    def test_rejects_edgeless_pattern(self):
        with pytest.raises(InputError):
            find_expansion(complete_3graph(5), Graph(3, []))

    def test_isolated_pattern_vertices_need_room(self):
        pattern = Graph(3, [(0, 1)])  # vertex 2 is isolated but must embed
        tight = expansion(Graph(2, [(0, 1)]))  # only 3 vertices
        assert find_expansion(tight, pattern) is None
        roomy = TripleSystem(4, [(0, 1, 2)])
        emb = find_expansion(roomy, pattern)
        assert emb is not None and emb.validate(roomy)

    def test_agreement_with_naive_on_corpus(self):
        rng = random.Random(97)
        hosts = [
            s_construction(7, 1),
            s_construction(7, 2),
            s_construction(8, 1),
            complete_3graph(7),
            expansion(path_graph(3)),
            TripleSystem(6, []),
            TripleSystem(7, [(0, 1, 2)]),
        ]
        hosts += [
            random_triple_system(rng, rng.randint(5, 8), rng.uniform(0.1, 0.7))
            for _ in range(10)
        ]
        for host in hosts:
            for pat in PATTERNS:
                got = find_expansion(host, pat)
                expect = contains_expansion_naive(host, pat)
                assert (got is not None) == expect, (host, pat.edge_list())
                if got is not None:
                    assert got.validate(host)

    def test_decision_independent_of_deterministic_flag(self):
        rng = random.Random(5)
        for _ in range(15):
            host = random_triple_system(rng, rng.randint(5, 8), rng.uniform(0.1, 0.6))
            for pat in (path_graph(2), cycle_graph(3), star_graph(3)):
                a = find_expansion(host, pat, deterministic=True)
                b = find_expansion(host, pat, deterministic=False)
                assert (a is None) == (b is None)
                if b is not None:
                    assert b.validate(host)

    def test_deterministic_certificate_is_reproducible(self):
        host = complete_3graph(8)
        a = find_expansion(host, cycle_graph(4))
        b = find_expansion(host, cycle_graph(4))
        assert a == b

    def test_node_counts_are_pinned(self):
        # the candidate order and one budget tick per node are part of the
        # search's contract, so these counts change only with the search
        double_star = Graph(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3)])
        searches = [
            (s_construction(9, 1), path_graph(3)),
            (s_construction(11, 2), path_graph(5)),
            (s_construction(11, 2), double_star),
            (s_construction(9, 2), cycle_graph(4)),
        ]
        rng = random.Random(2024)
        for _ in range(6):
            host = random_triple_system(rng, 12, 0.06)
            searches += [
                (host, pat)
                for pat in (path_graph(4), cycle_graph(4), star_graph(3), double_star)
            ]
        nodes, missing = [], []
        for k, (host, pat) in enumerate(searches):
            budget = SearchBudget()
            if find_expansion(host, pat, True, budget) is None:
                missing.append(k)
            nodes.append(budget.nodes)
        assert nodes == [
            138, 4568, 7, 13,
            10, 6, 47, 206, 37, 41, 12, 110, 17, 5, 41, 577,
            31, 26, 9, 824, 6, 6, 5, 2167, 20, 66, 8, 369,
        ]
        assert missing == [0, 1, 15, 23, 27]

    def test_heavy_apex_negatives_are_pinned(self):
        # exhaustive negatives behind the lower bound's freeness checks, the
        # heaviest searches of the apex sweep
        spider = Graph(6, [(0, 1), (0, 5), (1, 2), (1, 3), (1, 4)])
        searches = [
            (s_construction(11, 1), spider),
            (s_construction(12, 1), spider),
            (s_construction(12, 2), path_graph(5)),
        ]
        nodes = []
        for host, pat in searches:
            budget = SearchBudget()
            assert find_expansion(host, pat, True, budget) is None
            nodes.append(budget.nodes)
        assert nodes == [5972, 9165, 6325]

    def test_grouped_rows_give_the_direct_link(self):
        # z is in the link of u's row over avail exactly when rows[u][z]
        # meets avail, so one AND per codegree class gives the OR of
        # rows[u][w] over w in avail
        rng = random.Random(32)
        apex = [(s_construction(n, t), t) for n in (7, 10, 13) for t in (1, 2, 3)]
        hosts = [host for host, _ in apex]
        hosts += [
            random_triple_system(rng, rng.randint(5, 14), rng.uniform(0.05, 0.6))
            for _ in range(30)
        ]
        for host in hosts:
            for _ in range(25):
                u = rng.randrange(host.n)
                avail = rng.getrandbits(host.n)
                row = host.rows[u]
                groups = _grouped(row)
                assert sum(zs.bit_count() for _, zs in groups) == len(row)
                direct = grouped = 0
                for w, mask in row.items():
                    if avail >> w & 1:
                        direct |= mask
                for mask, zs in groups:
                    if mask & avail:
                        grouped |= zs
                assert grouped == direct
        # a non-apex row of S(n, t) has t + 1 classes: the apexes' masks
        # differ, and every other vertex's mask is the apex set
        for host, t in apex:
            assert {len(_grouped(host.rows[u])) for u in range(t, host.n)} == {t + 1}

    def test_sparse_negative_node_count_is_pinned(self):
        # depth 0 tries every host vertex, also those in no triple, and each
        # of the 12 triple vertices has 2 shadow neighbours at depth 1; a
        # depth entry saves only the slot list, so this stays fast
        host = TripleSystem(6000, [(4 * k, 4 * k + 1, 4 * k + 2) for k in range(4)])
        budget = SearchBudget()
        assert find_expansion(host, path_graph(2), budget=budget) is None
        assert budget.nodes == 6025

    def test_certificates_and_node_counts_match_the_reference_search(self):
        # the held-vertex fast path changes which matching the DFS holds,
        # never whether one exists, so every decision, node count and
        # canonical certificate is the reference search's; without
        # deterministic certificates only the decisions must agree
        rng = random.Random(1973)
        patterns = [t for v in range(2, 7) for t in enumerate_trees(v)]
        patterns += [cycle_graph(k) for k in range(3, 7)]
        searches = []
        for _ in range(36):
            host = random_triple_system(rng, rng.randint(6, 14), rng.uniform(0.05, 0.4))
            searches += [(host, pat) for pat in patterns]
        for pat in patterns:
            for n in range(pat.n + len(pat.edges), 2 * pat.n + 2):
                searches += [(s_construction(n, t), pat) for t in (0, 1, 2)]
        for _ in range(20):
            graph = random_graph(rng, rng.randint(5, 9), rng.uniform(0.3, 0.7))
            for pat in (path_graph(2), path_graph(3), cycle_graph(3), star_graph(3)):
                budget, ref_budget = SearchBudget(), SearchBudget()
                got = find_blowup(graph, pat, budget)
                ref = find_expansion_reference(triangle_system(graph), pat, True, ref_budget)
                assert got == (None if ref is None else replace(ref, host_kind="graph"))
                assert budget.nodes == ref_budget.nodes
        found = 0
        for host, pat in searches:
            budget, ref_budget = SearchBudget(), SearchBudget()
            got = find_expansion(host, pat, True, budget)
            assert got == find_expansion_reference(host, pat, True, ref_budget)
            assert budget.nodes == ref_budget.nodes
            loose = find_expansion(host, pat, False)
            assert (loose is None) == (got is None)
            if loose is not None:
                assert loose.validate(host)
                found += 1
        assert (len(searches), found) == (753, 385)

    def test_look_ahead_keeps_the_reference_search_where_it_prunes_most(self):
        # apex hosts, complete hosts and triangle systems hold many vertices
        # that slots could use, and patterns with cycles complete several
        # pairs per vertex: the look-ahead removes the most candidates here,
        # and each decision, node count and certificate is still the
        # reference search's, rooted searches the brute force's
        paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        k4_minus_e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        cyclic = [cycle_graph(k) for k in range(3, 7)] + [complete_graph(4), paw, k4_minus_e]
        trees = [t for v in range(3, 7) for t in enumerate_trees(v)]
        hosts = [s_construction(n, t) for t in (1, 2, 3) for n in (8, 10, 12)]
        hosts += [complete_3graph(n) for n in (6, 8, 10)]
        hosts += [triangle_system(s_graph(n, t)) for t in (1, 2, 3) for n in (7, 9)]
        found = 0
        for host in hosts:
            for pat in cyclic + trees:
                budget, ref_budget = SearchBudget(), SearchBudget()
                got = find_expansion(host, pat, True, budget)
                assert got == find_expansion_reference(host, pat, True, ref_budget)
                assert budget.nodes == ref_budget.nodes
                found += got is not None
        assert found == 129
        rng = random.Random(7)
        small = [s_construction(n, t) for t in (1, 2) for n in (7, 9)]
        small += [complete_3graph(7), complete_3graph(9)]
        small += [triangle_system(s_graph(8, t)) for t in (1, 2)]
        answers = []
        for host in small:
            for pat in cyclic[:2] + cyclic[4:] + trees[:3]:
                if pat.n + len(pat.edges) > host.n:
                    continue
                triples = [rng.choice(host.edge_list())]
                triples.append(rng.choice(list(itertools.combinations(range(host.n), 3))))
                want = expansion_through_naive(host, pat, triples)
                assert expansion_through(host, pat, triples) == want, (host, pat, triples)
                answers.append(want)
        assert 10 <= sum(answers) <= len(answers) - 10

    def test_tables_stay_sparse_and_trivial_instances_build_none(self):
        # the codegree rows take O(n + shadow pairs): a 3,000-vertex host
        # with 4 triples needs far less than one n x n table
        host = TripleSystem(3000, [(0, 1, 2), (0, 1, 3), (1, 2, 4), (2990, 2995, 2999)])
        tracemalloc.start()
        try:
            emb = find_expansion(host, path_graph(2))
            through = expansion_through(host, path_graph(2), [(0, 1, 3), (2990, 2995, 2999)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb is not None and emb.validate(host) and through
        assert peak < 2 << 20
        # an instance too large for the host is answered before any search
        assert find_expansion(host, path_graph(3000)) is None
        assert expansion_through(host, path_graph(3000), [(0, 1, 2)]) is False
        with pytest.raises(InputError):  # the edgeless check still comes first
            find_expansion(host, Graph(3001, []))

    def test_a_search_on_a_million_vertices_builds_no_table(self):
        # the host's codegree rows are built once, O(n) pointers plus the
        # shadow pairs, and a search reads them without a per-vertex table
        tracemalloc.start()
        try:
            host = TripleSystem(10**6, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            emb = find_expansion(host, path_graph(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb is not None and emb.validate(host)
        assert built < 20 << 20
        assert peak - built < 8 << 20

    def test_a_rooted_search_copies_no_row_list(self):
        # the root's completion is given to its slot, so a search through a
        # triple allocates a few n-bit masks, not a copy of the n rows
        host = TripleSystem(10**6, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        tracemalloc.start()
        try:
            through = expansion_through(host, path_graph(2), [(2, 3, 4)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert through
        assert peak < 1 << 20

    def test_cached_plans_give_the_certificates_of_fresh_ones(self):
        # plans are cached by pattern value: an equal pattern built apart
        # reuses one, a relabelled pattern gets its own
        rng = random.Random(41)
        hosts = [s_construction(9, 2), complete_3graph(8)]
        hosts += [
            random_triple_system(rng, rng.randint(7, 11), rng.uniform(0.1, 0.5))
            for _ in range(6)
        ]
        patterns = []
        for pat in PATTERNS:
            perm = list(range(pat.n))
            rng.shuffle(perm)
            patterns.append(pat)
            patterns.append(Graph(pat.n, pat.edge_list()))
            patterns.append(Graph(pat.n, [(perm[a], perm[b]) for a, b in pat.edges]))

        def search(host, pat):
            budget = SearchBudget()
            emb = find_expansion(host, pat, True, budget)
            return None if emb is None else emb.to_json(), budget.nodes

        _plan.cache_clear()
        warm = [search(host, pat) for host in hosts for pat in patterns]
        assert _plan.cache_info().hits > 0
        cold = []
        for host in hosts:
            for pat in patterns:
                _plan.cache_clear()
                cold.append(search(host, pat))
        assert warm == cold


ANCHOR_PATTERNS = {
    "P1": path_graph(1),
    "P3": path_graph(3),
    "K13": star_graph(3),
    "C3": cycle_graph(3),
    "C4": cycle_graph(4),
    "P2+K2": Graph(5, [(0, 1), (1, 2), (3, 4)]),
}


@pytest.mark.parametrize("mode", ["hypergraph", "triangles"])
@pytest.mark.parametrize("name", list(ANCHOR_PATTERNS))
def test_search_through_an_item_matches_the_oracle(mode, name):
    """On a free family F, a copy in F | {it} completes some pattern edge
    by it (hypergraphs) or by a triangle through it (graphs), so the
    search rooted there decides F | {it} as the unrooted oracle does."""
    pattern = ANCHOR_PATTERNS[name]
    arity = 3 if mode == "hypergraph" else 2
    rng = random.Random(f"{mode} {name}")
    need = pattern.n + len(pattern.edges)
    seen = []
    for _ in range(6):
        n = rng.randint(need - 1, need + 1 if arity == 2 else min(need, 8))
        items = list(itertools.combinations(range(n), arity))
        rng.shuffle(items)
        keep = rng.uniform(0.3, 1)
        family: set = set()
        for it in items[:36]:
            grown = family | {it}
            host = TripleSystem(n, grown) if arity == 3 else triangle_system(Graph(n, grown))
            if rng.random() < keep and find_expansion(host, pattern) is None:
                family = grown
        rest = [it for it in items if it not in family]
        for it in rng.sample(rest, min(6, len(rest))):
            if arity == 3:
                host, through = TripleSystem(n, family | {it}), [it]
            else:
                graph = Graph(n, family | {it})
                host = triangle_system(graph)
                through = [e for e in host.edges if it[0] in e and it[1] in e]
            want = find_expansion_reference(host, pattern) is not None
            assert expansion_through(host, pattern, through) == want, (n, sorted(family), it)
            seen.append(want)
    assert set(seen) == ({True} if (mode, name) == ("hypergraph", "P1") else {True, False})


def test_search_through_given_triples_matches_brute_force():
    """On any host, free or not, the rooted search finds exactly the copies
    that complete some pattern edge by one of the given triples; a triple
    that is not a host edge completes none."""
    rng = random.Random(404)
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # three edge orbits, one of twins
    patterns = [path_graph(3), star_graph(3), cycle_graph(3), ANCHOR_PATTERNS["P2+K2"], paw]
    answers = []
    for i in range(60):
        pattern = patterns[i % len(patterns)]
        host = random_triple_system(rng, pattern.n + len(pattern.edges), rng.uniform(0.1, 0.45))
        if not host.edges:
            continue
        # every other draw may take triples that are not host edges
        pool = list(itertools.combinations(range(host.n), 3)) if i % 2 else host.edge_list()
        triples = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
        want = expansion_through_naive(host, pattern, triples)
        assert expansion_through(host, pattern, triples) == want, (host.edge_list(), triples)
        answers.append(want)
    assert 10 <= sum(answers) <= len(answers) - 10
    for pattern in patterns:  # each triple of a lone copy completes its own edge
        host = expansion(pattern)
        assert all(expansion_through(host, pattern, [t]) for t in host.edges)


class TestCompletionMatcher:
    masks = st.lists(st.integers(0, (1 << 10) - 1), min_size=1, max_size=6)

    @settings(max_examples=300, deadline=None)
    @given(masks)
    def test_lex_least_sdr_matches_brute_force(self, masks):
        assert _lex_least_sdr(masks) == lex_least_sdr_naive(masks)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("slot"), st.integers(0, (1 << 10) - 1)),
                st.tuples(st.just("block"), st.integers(0, 9)),
            ),
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    def test_incremental_matching_matches_brute_force(self, ops, rng):
        # the expansion search's use: slots are added one augmentation at a
        # time, a blocked vertex re-augments only the slot that held it, and
        # the least assignment is derived from the matching held at the end;
        # a success returns the bit of the one vertex it newly holds, and
        # the caller's `held` stays the mask of the matched vertices
        masks: list[int] = []
        match: list[int] = []
        held = blocked = 0

        def matched():
            return sum(1 << v for v in match if v >= 0)

        for kind, x in ops:
            got = None  # what _augment returned, when it was called
            if kind == "slot":
                if len(masks) == 6:
                    continue
                masks.append(x)
                match.append(-1)
                got = _augment(len(masks) - 1, masks, blocked, match, held)
            else:
                if (blocked >> x) & 1:
                    continue
                blocked |= 1 << x
                if held >> x & 1:
                    holder = match.index(x)
                    match[holder] = -1
                    held ^= 1 << x
                    got = _augment(holder, masks, blocked, match, held)
            ok = got is None or got != 0
            effective = [mask & ~blocked for mask in masks]
            assert ok == (lex_least_sdr_naive(effective) is not None)
            if not ok:
                return
            if got is not None:
                assert got & (got - 1) == 0 and got & held == 0
                held |= got
            assert matched() == held
            assert len(set(match)) == len(match)
            assert all((effective[s] >> v) & 1 for s, v in enumerate(match))
        order = list(range(len(masks)))
        rng.shuffle(order)
        expect = lex_least_sdr_naive([masks[s] & ~blocked for s in order])
        assert _lex_least(masks, blocked, match, held, order) == expect
        # the matching left behind is the least assignment itself, so the
        # caller's new `held` is the OR of the assignment's bits
        assert [match[s] for s in order] == expect

    @settings(max_examples=300, deadline=None)
    @given(
        masks,
        st.integers(0, 6),
        st.sets(st.integers(0, 9), max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_absorbable_vertices_match_brute_force(self, masks, k, core, rng):
        # whatever matching of the first k slots is held, a vertex outside
        # the core is absorbable exactly when those slots have a full
        # matching without it
        k = min(k, len(masks))
        blocked = sum(1 << v for v in core)
        match, held = [-1] * len(masks), 0
        order = list(range(k))
        rng.shuffle(order)
        for s in order:
            took = _augment(s, masks, blocked, match, held)
            if not took:
                return
            held |= took
        assert held == sum(1 << match[s] for s in range(k))
        got = _absorbable(masks, match, k, (1 << 10) - 1 & ~blocked & ~held)
        for v in range(10):
            rest = [mask & ~blocked & ~(1 << v) for mask in masks[:k]]
            want = v not in core and lex_least_sdr_naive(rest) is not None
            assert (got >> v & 1) == want, (v, match)

    def test_certificates_use_the_least_completion(self):
        # brute force over every SDR of the canonical shadow images
        rng = random.Random(61)
        for _ in range(40):
            host = random_triple_system(rng, rng.randint(7, 11), rng.uniform(0.15, 0.6))
            for pat in (path_graph(3), cycle_graph(4), star_graph(3)):
                emb = find_expansion(host, pat)
                if emb is None:
                    continue
                core = set(emb.core_map)
                masks = [
                    host.codegree_mask(emb.core_map[u], emb.core_map[v])
                    & ~sum(1 << x for x in core)
                    for u, v in pat.edge_list()
                ]
                assert [w for _, w in emb.expansion_map] == lex_least_sdr_naive(masks)


class TestNoCyclicGarbage:
    """The searches, tree invariants and enumerators are written without
    self-referential closures, so a call leaves nothing for the cycle
    collector."""

    @pytest.mark.parametrize(
        "search",
        [
            lambda: find_expansion(s_construction(9, 2), path_graph(3)),
            lambda: find_expansion(s_construction(9, 1), path_graph(3)),
            lambda: find_blowup(s_graph(9, 1), path_graph(2)),
            lambda: complete_partial_expansion(s_construction(9, 2), [(0, 2), (2, 3)]),
            lambda: find_rainbow_expansion(lower_bound_coloring(s_construction(7, 1)), path_graph(2)),
            lambda: find_rainbow_expansion(constant_coloring(7), path_graph(2)),
            lambda: [analyze_tree(t) for t in enumerate_trees(6)],
            lambda: exact_generalized_turan(6, cycle_graph(3)),
            lambda: list(enumerate_two_intersecting_systems(5)),
            lambda: list(enumerate_intersecting_edge_families(5)),
        ],
        ids=[
            "expansion-found",
            "expansion-none",
            "blowup",
            "partial",
            "rainbow-found",
            "rainbow-none",
            "analyze-tree",
            "generalized-turan",
            "two-intersecting",
            "intersecting-families",
        ],
    )
    def test_search_leaves_no_cycles(self, search):
        gc.collect()
        gc.disable()
        try:
            search()
        finally:
            gc.enable()
        assert gc.collect() == 0


class TestFindBlowup:
    def test_blowup_in_itself(self):
        for pat in (path_graph(2), cycle_graph(4)):
            host = triangle_blowup(pat)
            emb = find_blowup(host, pat)
            assert emb is not None and emb.validate(host)

    def test_bipartite_host_is_always_free(self):
        from crosscut.builders import balanced_bipartite

        assert find_blowup(balanced_bipartite(8), path_graph(2)) is None

    def test_joined_graph_examples(self):
        host = s_graph(9, 1)
        assert find_blowup(host, path_graph(3)) is None
        emb = find_blowup(host, path_graph(2))
        assert emb is not None and emb.validate(host)

    def test_agreement_with_direct_subgraph_search(self):
        rng = random.Random(41)
        hosts = [s_graph(8, 1), complete_graph(8), triangle_blowup(cycle_graph(3))]
        hosts += [
            random_graph(rng, rng.randint(5, 8), rng.uniform(0.2, 0.8))
            for _ in range(12)
        ]
        for host in hosts:
            for pat in PATTERNS[:8]:
                got = find_blowup(host, pat)
                expect = contains_subgraph_naive(host, triangle_blowup(pat))
                assert (got is not None) == expect
                if got is not None:
                    assert got.validate(host)

    def test_blowup_equivalence_with_triangle_system(self):
        rng = random.Random(13)
        for _ in range(15):
            host = random_graph(rng, rng.randint(5, 8), rng.uniform(0.3, 0.8))
            for pat in (path_graph(2), cycle_graph(3), path_graph(3)):
                via_triangles = find_expansion(triangle_system(host), pat)
                direct = contains_subgraph_naive(host, triangle_blowup(pat))
                assert (via_triangles is not None) == direct


class TestCompletePartial:
    def test_high_codegree_always_completes(self):
        host = complete_3graph(12)
        pairs = [(0, 1), (1, 2), (2, 3)]
        emb = complete_partial_expansion(host, pairs)
        assert emb is not None and emb.validate(host)

    def test_zero_codegree_pair_rejected(self):
        host = TripleSystem(6, [(0, 1, 2)])
        with pytest.raises(InputError):
            complete_partial_expansion(host, [(0, 1), (3, 4)])

    def test_hall_violation_returns_none(self):
        # two pairs whose only completion is the same third vertex
        host = TripleSystem(5, [(0, 1, 4), (2, 3, 4)])
        assert complete_partial_expansion(host, [(0, 1), (2, 3)]) is None

    def test_preassignment_validation(self):
        host = complete_3graph(8)
        with pytest.raises(InputError):
            complete_partial_expansion(host, [(0, 1)], {(0, 1): 1})  # inside core
        with pytest.raises(InputError):
            complete_partial_expansion(host, [(0, 1)], {(2, 3): 5})  # not in copy
        emb = complete_partial_expansion(host, [(0, 1), (1, 2)], {(0, 1): 7})
        assert emb is not None and dict(emb.expansion_map)[(0, 1)] == 7

    @pytest.mark.parametrize("vertex", [-1, 8, "3", 3.0, True, None])
    def test_preassigned_vertex_outside_the_host_is_an_input_error(self, vertex):
        with pytest.raises(InputError, match="not a host vertex"):
            complete_partial_expansion(complete_3graph(8), [(0, 1)], {(0, 1): vertex})

    @pytest.mark.parametrize(
        "copy, pre",
        [
            ([(0,)], None),
            ([(0, 1, 2)], None),
            ([(1, 2.0)], None),
            ([(0, "1")], None),
            ([(True, 2)], None),
            ([5], None),
            ([(0, 1)], {(0,): 5}),
            ([(0, 1)], {(0, 1.0): 5}),
            ([(0, 1)], {(False, 1): 5}),
        ],
    )
    def test_malformed_pairs_are_input_errors(self, copy, pre):
        with pytest.raises(InputError, match="vertex ids"):
            complete_partial_expansion(complete_3graph(8), copy, pre)

    @pytest.mark.parametrize("pair", [(-1, 2), (2, -1), (0, 8), (0, 10**9)])
    def test_pairs_outside_the_host_are_outside_its_shadow(self, pair):
        with pytest.raises(InputError, match="not in the host shadow"):
            complete_partial_expansion(complete_3graph(8), [pair])

    def test_completion_is_the_least_one(self):
        rng = random.Random(67)
        seen = {"none": 0, "plain": 0, "pre": 0}
        for _ in range(300):
            host = random_triple_system(rng, rng.randint(6, 10), rng.uniform(0.1, 0.6))
            pairs = host.shadow_pairs()
            if not pairs:
                continue
            copy = rng.sample(pairs, rng.randint(1, min(5, len(pairs))))
            core = {x for p in copy for x in p}
            pre = {}
            for p in rng.sample(copy, rng.randint(0, len(copy))):
                options = [
                    w for w in range(host.n)
                    if host.has_triple(*p, w) and w not in core and w not in pre.values()
                ]
                if options:
                    pre[p] = rng.choice(options)
            emb = complete_partial_expansion(host, copy, pre)
            want = _least_completion(host, copy, pre)
            if want is None:
                assert emb is None
            else:
                assert _completion_of(emb) == want, (host.edge_list(), copy, pre)
            seen["none" if want is None else "pre" if pre else "plain"] += 1
        assert min(seen.values()) >= 30, seen

    def test_guarantee_threshold(self):
        # every unassigned pair with codegree >= |F| + |V(F)| must complete
        rng = random.Random(7)
        for _ in range(20):
            host = random_triple_system(rng, 9, 0.8)
            pat = path_graph(3)
            shadow = host.shadow()
            copy = None
            for phi in itertools.permutations(range(9), 4):
                if all(shadow.has_edge(phi[u], phi[v]) for u, v in pat.edges):
                    copy = [tuple(sorted((phi[u], phi[v]))) for u, v in pat.edges]
                    break
            if copy is None:
                continue
            threshold = len(pat.edges) + pat.n
            if all(host.codegree(*p) >= threshold for p in copy):
                assert complete_partial_expansion(host, copy) is not None


class TestEmbedTreeTwoSets:
    def _host(self):
        v1 = list(range(2, 16))
        v2 = list(range(9, 23))
        g1 = Graph(23, itertools.combinations(v1, 2))
        g2 = Graph(23, itertools.combinations(v2, 2))
        triples = [(0, a, b) for a, b in g1.edges] + [(1, c, d) for c, d in g2.edges]
        return TripleSystem(23, triples), v1, v2, g1, g2

    def test_full_hypotheses_succeed(self):
        host, v1, v2, g1, g2 = self._host()
        emb = embed_tree_two_sets(host, path_graph(3), {0}, {1}, v1, v2, g1, g2)
        assert emb is not None and emb.validate(host)

    @pytest.mark.parametrize("tree", SIGMA_TWO_TREES, ids=lambda t: str(t.edge_list()))
    def test_star_and_spider_patterns(self, monkeypatch, tree):
        # the recipe builds every one: the fallback search is switched off
        def no_fallback(*args, **kwargs):
            raise AssertionError("the recipe fell back to the exact search")

        monkeypatch.setattr(embed, "find_expansion", no_fallback)
        host, v1, v2, g1, g2 = self._host()
        emb = embed_tree_two_sets(host, tree, {0}, {1}, v1, v2, g1, g2)
        assert emb.validate(host)
        # the apex 0 completes only the pre-assigned leftover edges: the
        # others' candidates exclude the core and the pre-assigned vertices
        got = _completion_of(emb)
        pre = {p: w for p, w in got.items() if w == 0}
        assert got == _least_completion(host, list(got), pre)

    # the only trees on at most 9 vertices whose crosscut pair has a leftover
    # edge: I = {2, 5} (resp. {2, 6}) and R = {01}, so sigma = 3
    LEFTOVER_TREES = [
        Graph(8, [(0, 1), (0, 5), (1, 2), (2, 3), (2, 4), (5, 6), (5, 7)]),
        Graph(9, [(0, 1), (0, 6), (1, 2), (2, 3), (2, 4), (2, 5), (6, 7), (6, 8)]),
    ]

    @pytest.mark.parametrize("s2", [{0, 2}, {2, 3}], ids=["shared-apex", "disjoint-apexes"])
    @pytest.mark.parametrize("tree", LEFTOVER_TREES, ids=lambda t: f"{t.n}-vertices")
    def test_leftover_edges_are_grown_in_g1(self, monkeypatch, tree, s2):
        # the recipe grows the leftover forest in G1 and completes it by the
        # apex of S1 that no vertex of I uses; the fallback is switched off
        def no_fallback(*args, **kwargs):
            raise AssertionError("the recipe fell back to the exact search")

        monkeypatch.setattr(embed, "find_expansion", no_fallback)
        s1, v1, v2 = {0, 1}, range(4, 26), range(15, 37)
        g1, g2 = Graph(40, itertools.combinations(v1, 2)), Graph(40, itertools.combinations(v2, 2))
        triples = {(x, a, b) for x in s1 for a, b in g1.edges}
        triples |= {tuple(sorted((x, c, d))) for x in s2 for c, d in g2.edges}
        host = TripleSystem(40, triples)
        assert crosscut_number(tree)[1].leftover == ((0, 1),)
        emb = embed_tree_two_sets(host, tree, s1, s2, v1, v2, g1, g2)
        assert emb.validate(host)
        core = emb.core_map
        assert core[2] == 2  # v* = 2 goes to min(S2 - S1)
        assert {core[0], core[1]} <= set(v1)  # the leftover edge 01 lies in G1
        assert dict(emb.expansion_map)[(0, 1)] == 1  # completed by the leftover apex

    def test_empty_overlap_is_a_hypothesis_error(self):
        host, v1, v2, g1, g2 = self._host()
        with pytest.raises(HypothesisError) as err:
            embed_tree_two_sets(
                host,
                path_graph(3),
                {0},
                {1},
                list(range(2, 9)),
                list(range(16, 23)),
                Graph(23, itertools.combinations(range(2, 9), 2)),
                Graph(23, itertools.combinations(range(16, 23), 2)),
            )
        assert err.value.hypothesis == "overlap"

    def test_degree_one_with_exact_cover_tree_still_succeeds(self):
        g1 = Graph(8, [(2, 3), (4, 5)])
        g2 = Graph(8, [(3, 4), (6, 7)])
        host = TripleSystem(8, [(0, 2, 3), (0, 4, 5), (1, 3, 4), (1, 6, 7)])
        emb = embed_tree_two_sets(
            host, path_graph(3), {0}, {1}, {2, 3, 4, 5}, {3, 4, 6, 7}, g1, g2
        )
        assert emb is not None and emb.validate(host)
        assert contains_expansion_naive(host, path_graph(3))

    def test_link_hypothesis_checked(self):
        host = TripleSystem(8, [(0, 2, 3)])
        with pytest.raises(HypothesisError) as err:
            embed_tree_two_sets(
                host,
                path_graph(3),
                {0},
                {1},
                {2, 3, 4, 5},
                {3, 4, 6, 7},
                Graph(8, [(2, 3), (4, 5)]),
                Graph(8, [(3, 4)]),
            )
        assert err.value.hypothesis in ("link", "carrier")


class TestVaryCycleLength:
    @staticmethod
    def _assert_least_completions(host, witness, out):
        """The gaps w[j] w[j + 1], j >= ell - t, the length ell leaves
        unsplit keep their interleaved vertex x[j]; the other pairs get the
        least completion."""
        w, x = witness.hubs, witness.interleaved
        t = len(x)
        for ell, emb in out.items():
            pre = {sorted_pair(w[j], w[(j + 1) % len(w)]): x[j] for j in range(ell - t, t)}
            got = _completion_of(emb)
            assert got == _least_completion(host, list(got), pre), ell

    def test_dense_host_witness(self):
        host = complete_3graph(32)
        witness = AlternatingWitness((0, 1, 2, 3), (4, 5, 6, 7), closed=True)
        out = vary_cycle_length(host, witness)
        assert sorted(out) == [4, 5, 6, 7, 8]
        for ell, emb in out.items():
            assert emb.validate(host)
            assert len(emb.pattern.edges) == ell
        self._assert_least_completions(host, witness, out)

    def test_short_cycle_range_is_clipped(self):
        host = complete_3graph(22)
        with pytest.warns(UserWarning):
            out = vary_cycle_length(
                host, AlternatingWitness((0, 1), (2, 3), closed=True)
            )
        assert sorted(out) == [3, 4]

    def test_path_variant(self):
        host = complete_3graph(22)
        witness = AlternatingWitness((0, 1, 2), (3, 4), closed=False)
        out = vary_cycle_length(host, witness)
        assert sorted(out) == [2, 3, 4]
        for emb in out.values():
            assert emb.validate(host)
        self._assert_least_completions(host, witness, out)

    def test_codegree_validation(self):
        host = TripleSystem(8, [(0, 2, 1), (1, 3, 0)])
        with pytest.raises(HypothesisError) as err:
            vary_cycle_length(host, AlternatingWitness((0, 1), (2, 3), closed=True))
        assert err.value.hypothesis == "codegree"

    def test_structured_nonuniform_host(self):
        # dense apex-free zone plus the wheel structure, not fully complete
        # 32 vertices leave every pair through an interleaved vertex the
        # codegree 6t + 6 = 24 the witness needs
        rng = random.Random(31)
        base = [
            t
            for t in itertools.combinations(range(32), 3)
            if rng.random() < 0.9
        ]
        witness = AlternatingWitness((0, 1, 2), (3, 4, 5), closed=True)
        needed = [(0, 3, 1), (1, 4, 2), (2, 5, 0)]
        host = TripleSystem(32, base + [tuple(sorted(t)) for t in needed])
        out = vary_cycle_length(host, witness)
        assert sorted(out) == [3, 4, 5, 6]
        for emb in out.values():
            assert emb.validate(host)
        self._assert_least_completions(host, witness, out)


class TestRainbow:
    def test_all_distinct_coloring_contains_pattern(self):
        triples = list(itertools.combinations(range(7), 3))
        from crosscut.builders import Coloring

        chi = Coloring(7, {t: i for i, t in enumerate(triples)})
        cert = find_rainbow_expansion(chi, path_graph(2))
        assert cert is not None
        assert len(set(cert.colors)) == 2

    def test_constant_coloring_has_no_rainbow(self):
        chi = constant_coloring(8)
        assert find_rainbow_expansion(chi, path_graph(2)) is None

    def test_agreement_with_naive(self):
        rng = random.Random(3)
        triples = list(itertools.combinations(range(6), 3))
        from crosscut.builders import Coloring

        for _ in range(10):
            chi = Coloring(
                6, {t: rng.randint(0, 4) for t in triples}
            )
            for pat in (path_graph(1), path_graph(2), cycle_graph(3)):
                got = find_rainbow_expansion(chi, pat)
                assert (got is not None) == rainbow_naive(chi, pat)
                if got is not None:
                    assert len(set(got.colors)) == len(pat.edges)

    def test_lower_bound_certificate_blocks_cycle_augmentation(self):
        chi = lower_bound_coloring(s_construction(8, 1))
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert find_rainbow_expansion(chi, c4) is None

    # per coloring, then per pattern P2, P3, C3: (core map, completion vertex
    # of each pattern edge, colors) of the first certificate in lexicographic
    # order of core maps, or None when the coloring has no rainbow copy
    PINNED = [
        (7, 2, [((1, 0, 2), (5, 3), (1, 0)), None, None]),
        (7, 3, [((1, 0, 2), (3, 4), (2, 0)), ((4, 0, 1, 2), (5, 3, 6), (0, 2, 1)),
                ((0, 1, 2), (3, 4, 6), (2, 0, 1))]),
        (7, 4, [((1, 0, 2), (3, 4), (2, 0)), ((1, 0, 2, 5), (3, 4, 6), (2, 0, 1)),
                ((1, 2, 5), (3, 0, 6), (2, 0, 1))]),
        (8, 2, [((1, 0, 2), (3, 4), (0, 1)), None, None]),
        (8, 3, [((0, 1, 2), (4, 3), (0, 2)), ((2, 1, 4, 5), (3, 0, 7), (2, 0, 1)),
                ((1, 4, 5), (0, 3, 7), (0, 2, 1))]),
        (8, 4, [((1, 0, 2), (3, 4), (2, 0)), ((2, 0, 1, 4), (5, 3, 6), (0, 2, 1)),
                ((0, 1, 4), (3, 2, 6), (2, 0, 1))]),
    ]

    def test_pinned_certificates(self):
        from crosscut.builders import Coloring

        rng = random.Random(2026)
        for n, k, expected in self.PINNED:
            # mostly color 0, so the search backtracks before it succeeds
            chi = Coloring(
                n,
                {
                    t: 0 if rng.random() < 0.85 else rng.randrange(1, k)
                    for t in itertools.combinations(range(n), 3)
                },
            )
            for pat, want in zip((path_graph(2), path_graph(3), cycle_graph(3)), expected):
                cert = find_rainbow_expansion(chi, pat)
                if want is None:
                    assert cert is None
                    continue
                core, completion, colors = want
                assert cert.embedding.to_json() == {
                    "host_kind": "3graph",
                    "pattern": {"n": pat.n, "edges": [list(e) for e in pat.edge_list()]},
                    "core_map": list(core),
                    "expansion_map": [
                        {"edge": list(e), "vertex": w}
                        for e, w in zip(pat.edge_list(), completion)
                    ],
                }
                assert cert.colors == colors

    def test_budget_stops_a_rainbow_free_search(self):
        with pytest.raises(BudgetExceededError):
            find_rainbow_expansion(constant_coloring(8), path_graph(2), SearchBudget(max_nodes=10))
