"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line.  Criteria are asserted exactly as stated; failures carry
explicit witnesses.
"""

import itertools
import json
import math
import random

from crosscut.builders import (
    lower_bound_coloring,
    s_construction,
    s_graph,
    s_size,
    sbi_construction,
    sbi_size,
    triangle_blowup,
    triangle_system,
)
from crosscut.cleaning import cleaning_algorithm, extract_d_full, extract_linear_subgraph, max_i_degree
from crosscut.embed import find_blowup, find_expansion, find_rainbow_expansion
from crosscut.lab import (
    anti_ramsey_bounds,
    enumerate_intersecting_edge_families,
    enumerate_two_intersecting_systems,
    exact_turan_hypergraph,
)
from crosscut.structures import (
    Graph,
    MatchingAtLeastTwo,
    NotTwoIntersecting,
    TripleSystem,
    is_d_full,
    matching_le1_structure,
    two_intersecting_structure,
)
from crosscut.trees import (
    LeafNeighborVertex,
    all_crosscut_pairs,
    analyze_tree,
    crosscut_number,
    crosscut_value,
    cycle_graph,
    decomposition_witness,
    enumerate_trees,
    path_graph,
    pendant_critical_edge,
    star_graph,
)

from conftest import random_graph, random_triple_system
from oracles import contains_expansion_naive, contains_subgraph_naive


def report(number: int, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} [{status}] {description}"
    if detail:
        line += f" :: {detail}"
    print(line)
    return ok


def test_criterion_01_apex_size_identity():
    bad = [
        (n, t)
        for t in range(0, 6)
        for n in range(t, 41)
        if s_size(n, t) != math.comb(n, 3) - math.comb(n - t, 3)
        or (n <= 12 and len(s_construction(n, t).edges) != s_size(n, t))
    ]
    assert report(1, "apex system size identity, t <= 5, n <= 40", not bad, str(bad))


def test_criterion_02_construction_freeness_every_tree():
    failures = []
    for nv in range(2, 9):
        for tree in enumerate_trees(nv):
            t = crosscut_value(tree) - 1
            for n in range(3, 15):
                if t > n:
                    continue
                if find_expansion(s_construction(n, t), tree) is not None:
                    failures.append((nv, tuple(tree.edge_list()), n))
    ok = report(
        2,
        "apex construction avoids every tree expansion (trees <= 8 vertices, n <= 14)",
        not failures,
        f"{len(failures)} embeddings found, e.g. {failures[:2]}" if failures else "",
    )
    assert ok, (
        "the apex construction on sigma-1 apexes admits expansions of trees "
        f"whose covering number is below their crosscut number: {failures}"
    )


def test_criterion_02_counterexamples_are_pinned():
    # the six (tree, n) embeddings criterion 02 reports, with their canonical
    # certificates; each double star embeds from n = |V| + |E| on, its two
    # centres on the apexes
    double_star_6 = Graph(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3)])
    double_star_7 = Graph(7, [(0, 1), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4)])
    expected = {
        (6, 11): ((0, 1, 2, 3, 4, 5), [6, 7, 8, 9, 10]),
        (6, 12): ((0, 1, 2, 3, 4, 5), [6, 7, 8, 9, 10]),
        (6, 13): ((0, 1, 2, 3, 4, 5), [6, 7, 8, 9, 10]),
        (6, 14): ((0, 1, 2, 3, 4, 5), [6, 7, 8, 9, 10]),
        (7, 13): ((1, 0, 2, 3, 4, 5, 6), [7, 8, 9, 10, 11, 12]),
        (7, 14): ((1, 0, 2, 3, 4, 5, 6), [7, 8, 9, 10, 11, 12]),
    }
    got = {}
    for tree in (double_star_6, double_star_7):
        assert crosscut_value(tree) - 1 == 2
        assert find_expansion(s_construction(tree.n + len(tree.edges) - 1, 2), tree) is None
        for n in range(tree.n + len(tree.edges), 15):
            emb = find_expansion(s_construction(n, 2), tree)
            assert emb is not None and emb.validate(s_construction(n, 2))
            got[(tree.n, n)] = (emb.core_map, [w for _, w in emb.expansion_map])
    assert got == expected


def test_criterion_13_chord_triangle_witness_is_pinned():
    # the rainbow copy criterion 13 reports for the chord-triangle shape
    chord = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    assert anti_ramsey_bounds(8, path_graph(3), chord).rainbow_free is False
    coloring = lower_bound_coloring(s_construction(8, 1))
    cert = find_rainbow_expansion(coloring, chord)
    assert cert is not None
    assert cert.embedding.core_map == (1, 2, 0, 3)
    assert cert.embedding.expansion_map == (((0, 1), 4), ((0, 2), 5), ((1, 2), 6), ((2, 3), 7))
    assert cert.colors == (21, 3, 9, 14)
    assert cert.embedding.validate(TripleSystem(8, itertools.combinations(range(8), 3)))
    images = cert.embedding.core_map
    assert cert.colors == tuple(
        coloring.color(images[u], images[v], w)
        for (u, v), w in cert.embedding.expansion_map
    )


def test_criterion_03_cycle_crosscut_formula():
    bad = [
        k
        for k in range(3, 13)
        if crosscut_number(cycle_graph(k))[0] != (k + 1) // 2
    ]
    assert report(3, "cycle crosscut floor((k+1)/2), 3 <= k <= 12", not bad, str(bad))


def test_criterion_04_path_criticality():
    ok = True
    for length in (3, 5, 7):
        ok &= analyze_tree(path_graph(length)).strongly_edge_critical
    for length in (4, 6):
        ok &= not analyze_tree(path_graph(length)).critical_edges
    assert report(4, "odd paths strongly edge-critical; even paths have no critical edge", ok)


def test_criterion_05_pendant_critical_edges():
    bad = []
    for n in range(2, 10):
        for tree in enumerate_trees(n):
            profile = analyze_tree(tree)
            if not (profile.sigma_equals_tau_ind and profile.critical_edges):
                continue
            got = pendant_critical_edge(tree)
            if got is None:
                bad.append((n, tree.edge_list(), "no witness"))
                continue
            edge, cover = got
            leaf_end = edge[0] if tree.degree(edge[0]) == 1 else edge[1]
            valid = (
                min(tree.degree(edge[0]), tree.degree(edge[1])) == 1
                and edge in profile.critical_edges
                and leaf_end in cover
                and len(cover) == profile.tau_ind
                and all(len(set(cover) & set(e)) == 1 for e in tree.edge_list())
            )
            if not valid:
                bad.append((n, tree.edge_list(), edge))
    assert report(5, "pendant critical edge witness on all trees <= 9 vertices", not bad, str(bad))


def test_criterion_06_decomposition_witnesses():
    bad = []
    for n in range(2, 10):
        for tree in enumerate_trees(n):
            pairs, truncated = all_crosscut_pairs(tree)
            assert not truncated
            max_i = max(len(p.independent) for p in pairs)
            for pair in pairs:
                try:
                    witness = decomposition_witness(tree, pair)
                except Exception as exc:  # no witness would be a hard failure
                    bad.append((n, tree.edge_list(), pair, repr(exc)))
                    continue
                if len(pair.independent) == max_i and not isinstance(
                    witness.case, LeafNeighborVertex
                ):
                    bad.append((n, tree.edge_list(), pair, "vertex case required"))
    assert report(6, "decomposition witness on every optimal pair, trees <= 9 vertices", not bad, str(bad[:3]))


def test_criterion_07_structure_facts_exhaustive():
    bad = 0
    systems = 0
    for family in enumerate_two_intersecting_systems(6):
        systems += 1
        result = two_intersecting_structure(TripleSystem(6, family))
        if isinstance(result, NotTwoIntersecting):
            bad += 1
    families = 0
    for family in enumerate_intersecting_edge_families(7):
        families += 1
        if isinstance(matching_le1_structure(Graph(7, family)), MatchingAtLeastTwo):
            bad += 1
    assert report(
        7,
        "pairwise-two-intersecting systems (<=6 vtx) and matching<=1 graphs (<=7 vtx) classify",
        bad == 0,
        f"{systems} systems, {families} graphs",
    )


def test_criterion_08_cleaning_certification(cleaning_corpus):
    bad = []
    fixtures = [(s_construction(12, 1), 3, 1)]
    noisy = TripleSystem(
        12, list(s_construction(12, 1).edges) + [(1, 2, 3)]
    )
    fixtures.append((noisy, 3, 1))
    for system, k, t in list(cleaning_corpus) + fixtures:
        trace = cleaning_algorithm(system, k, t)
        if trace.superfull_certificate() is not True:
            bad.append(("certificate", system.n, k, t))
            continue
        replay = cleaning_algorithm(system, k, t)
        a = json.dumps(trace.to_json(), sort_keys=True)
        b = json.dumps(replay.to_json(), sort_keys=True)
        if a != b:
            bad.append(("replay", system.n, k, t))
        for i in range(trace.q + 1):
            if trace.snapshot(i).edge_list() != replay.snapshot(i).edge_list():
                bad.append(("snapshot", system.n, k, t, i))
    assert report(8, "202 cleaning runs certified superfull with identical replays", not bad, str(bad[:3]))


def test_criterion_09_extraction_bounds(cleaning_corpus):
    bad = []
    for system, _, _ in cleaning_corpus:
        for d in (1, 2):
            out = extract_d_full(system, d)
            if not is_d_full(out, d + 1):
                bad.append(("full", system.n, d))
            if len(out.edges) < len(system.edges) - d * len(system.shadow_pairs()):
                bad.append(("full-size", system.n, d))
        if system.edges:
            for i in (1, 2):
                out = extract_linear_subgraph(system, i)
                if max_i_degree(out, i) > 1:
                    bad.append(("linear-degree", system.n, i))
                if len(out.edges) < len(system.edges) / (3 * max_i_degree(system, i)):
                    bad.append(("linear-size", system.n, i))
    assert report(9, "kernel extraction bounds on the 200-instance corpus", not bad, str(bad[:3]))


def _oracle_patterns():
    return [
        path_graph(1),
        path_graph(2),
        path_graph(3),
        path_graph(4),
        path_graph(5),
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(5),
        star_graph(3),
        Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]),
    ]


def test_criterion_10_oracle_equivalence():
    rng = random.Random(424242)
    tri_hosts = [
        s_construction(7, 1),
        s_construction(7, 2),
        TripleSystem(7, itertools.combinations(range(7), 3)),
        TripleSystem(7, []),
        TripleSystem(7, [(0, 1, 2)]),
        triangle_system(s_graph(7, 1)),
    ] + [
        random_triple_system(rng, rng.randint(5, 7), rng.uniform(0.1, 0.7))
        for _ in range(8)
    ]
    graph_hosts = [
        s_graph(8, 1),
        s_graph(8, 2),
        Graph(8, itertools.combinations(range(8), 2)),
        triangle_blowup(cycle_graph(3)),
        Graph(8, []),
    ] + [
        random_graph(rng, rng.randint(5, 8), rng.uniform(0.2, 0.8)) for _ in range(8)
    ]
    patterns = _oracle_patterns()
    mismatches = []
    for host in tri_hosts:
        for pat in patterns:
            fast = find_expansion(host, pat) is not None
            slow = contains_expansion_naive(host, pat)
            if fast != slow:
                mismatches.append(("3graph", host.n, pat.edge_list()))
    for host in graph_hosts:
        for pat in patterns:
            fast = find_blowup(host, pat) is not None
            slow = contains_subgraph_naive(host, triangle_blowup(pat))
            if fast != slow:
                mismatches.append(("graph", host.n, pat.edge_list()))
    assert report(10, "search agrees with naive oracles over the fixed corpus", not mismatches, str(mismatches[:3]))


def test_criterion_11_exhaustive_turan_values():
    r4 = exact_turan_hypergraph(4, path_graph(2))
    r5 = exact_turan_hypergraph(5, path_graph(2))
    naive5 = 4  # frozen from the all-subsets oracle (see test_lab agreement)
    ok = r4.value == 4 and r5.value == 4 == naive5
    assert report(11, "ex(4, cherry) = ex(5, cherry) = 4", ok, f"got {r4.value}, {r5.value}")


def test_criterion_12_triangle_construction_sizes_and_freeness():
    size_bad = []
    for t in range(0, 4):
        for n in range(t, 31):
            if len(sbi_construction(n, t).edges) != sbi_size(n, t):
                size_bad.append((n, t, "plain"))
            if (n - t) // 2 >= 2 and len(
                sbi_construction(n, t, plus=True).edges
            ) != sbi_size(n, t, plus=True):
                size_bad.append((n, t, "plus"))
    free_bad = []
    cases = []
    for t in (1, 2, 3):
        cases.append((path_graph(2 * t + 1), t, False))
        cases.append((path_graph(2 * t + 2), t, True))
    cases.append((cycle_graph(5), 2, False))
    cases.append((cycle_graph(7), 3, False))
    cases.append((cycle_graph(6), 2, True))
    cases.append((cycle_graph(8), 3, True))
    for pattern, t, plus in cases:
        for n in range(t + (4 if plus else 2), 13):
            host = s_graph(n, t, plus=plus)
            if find_blowup(host, pattern) is not None:
                free_bad.append((pattern.edge_list(), n, t, plus))
    ok = not size_bad and not free_bad
    assert report(
        12,
        "joined-construction sizes (t<=3, n<=30) and blowup-freeness (n<=12)",
        ok,
        f"sizes {size_bad[:2]} freeness {free_bad[:2]}",
    )


def test_criterion_13_anti_ramsey_certificates():
    tree = path_graph(3)
    shapes = {
        "chord-triangle": Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)]),
        "four-cycle": Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    }
    failures = []
    for name, aug in shapes.items():
        result = anti_ramsey_bounds(8, tree, aug)
        if result.lower != 23 or result.upper_formula != 23:
            failures.append((name, "bounds", result.lower, result.upper_formula))
        if result.rainbow_free is not True:
            failures.append((name, "rainbow copy exists"))
    ok = report(
        13,
        "rainbow-free lower certificates for both 8-vertex augmentations of the 3-edge path",
        not failures,
        str(failures),
    )
    assert ok, (
        "the edge-distinct coloring of the one-apex base admits a rainbow copy "
        f"for some augmentation shape: {failures}"
    )


def test_criterion_14_headline_equalities_reported_not_asserted():
    # brute force at n = 5 exceeds the construction for the cherry (its
    # crosscut number is 1, so the construction is empty); the harness must
    # record the gap informationally instead of failing
    result = exact_turan_hypergraph(5, path_graph(2))
    gap_reported = (
        result.lower_bound_construction_value == 0
        and result.value == 4
        and result.matches_construction is False
    )
    from crosscut.lab import verify_theorem_suite

    suite = verify_theorem_suite("even-paths", 8)
    has_info = any(c["status"] == "info" for c in suite["checks"])
    assert report(
        14,
        "asymptotic equalities are reported informationally at desk scale",
        gap_reported and has_info,
    )
