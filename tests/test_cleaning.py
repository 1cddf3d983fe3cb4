import heapq
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from crosscut import cleaning
from crosscut.builders import s_construction
from crosscut.cleaning import (
    TYPE_COUPLED,
    TYPE_DEFICIENT,
    TYPE_INTERMEDIATE,
    cleaning_algorithm,
    extract_d_full,
    extract_linear_subgraph,
    fullness_embedding_check,
    max_i_degree,
    quantitative_report,
)
from crosscut.errors import InputError
from crosscut.structures import TripleSystem, is_d_full

from conftest import planted_host, random_triple_system
from oracles import cleaning_naive, linear_subgraph_naive


def complete_3graph(n):
    return TripleSystem(n, itertools.combinations(range(n), 3))


class TestCleaningFixtures:
    def test_single_triple_all_sparse(self):
        trace = cleaning_algorithm(TripleSystem(3, [(0, 1, 2)]), 3, 1)
        assert len(trace.sparse_part.edges) == 1
        assert trace.q == 0
        assert trace.final_system.edges == frozenset()
        assert trace.superfull_certificate() is True

    def test_apex_system_is_already_clean(self):
        trace = cleaning_algorithm(s_construction(12, 1), 3, 1)
        assert trace.sparse_part.edges == frozenset()
        assert trace.q == 0
        assert trace.final_system.edges == s_construction(12, 1).edges
        assert trace.superfull_certificate() is True

    def test_apex_system_plus_noise_edge(self):
        base = s_construction(12, 1)
        noisy = TripleSystem(12, list(base.edges) + [(1, 2, 3)])
        trace = cleaning_algorithm(noisy, 3, 1)
        assert (1, 2, 3) in trace.sparse_part.edges
        assert trace.superfull_certificate() is True
        assert trace.final_system.edges == base.edges

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            cleaning_algorithm(TripleSystem(4, []), 1, 2)

    @pytest.mark.parametrize("value", ["1", 1.5, 1.0, True, None])
    def test_parameters_must_be_ints(self, value):
        h = TripleSystem(5, [(0, 1, 2), (0, 1, 3)])
        calls = [
            lambda: cleaning_algorithm(h, value, 1),
            lambda: extract_d_full(h, value),
            lambda: extract_linear_subgraph(h, value),
            lambda: max_i_degree(h, value),
            lambda: fullness_embedding_check(h, value),
        ]
        for call in calls:
            with pytest.raises(InputError):
                call()


class TestCleaningSemantics:
    def test_each_step_removes_exactly_the_pair_edges(self, cleaning_corpus):
        for system, k, t in cleaning_corpus[:30]:
            trace = cleaning_algorithm(system, k, t)
            for i, (pair, tag) in enumerate(trace.removed_pairs):
                before = trace.snapshot(i)
                after = trace.snapshot(i + 1)
                gone = before.edges - after.edges
                assert gone == {
                    e for e in before.edges if pair[0] in e and pair[1] in e
                }
                assert gone
                assert tag in (TYPE_DEFICIENT, TYPE_COUPLED, TYPE_INTERMEDIATE)

    @pytest.mark.parametrize("index", [0.5, "1", True, False, None, 1.0, -1, 147])
    def test_snapshot_index_must_be_an_int_in_range(self, index):
        trace = cleaning_algorithm(planted_host(random.Random(1), 28, 2), 3, 2)
        assert trace.q == 146
        with pytest.raises(InputError, match=r"is not an integer in \[0, 146\]"):
            trace.snapshot(index)
        assert trace.snapshot(146) == trace.final_system

    def test_tags_match_types_at_removal_time(self, cleaning_corpus):
        for system, k, t in cleaning_corpus[:30]:
            trace = cleaning_algorithm(system, k, t)
            for i, (pair, tag) in enumerate(trace.removed_pairs):
                before = trace.snapshot(i)
                d = before.codegree(*pair)
                if tag == TYPE_DEFICIENT:
                    assert d <= t - 1
                elif tag == TYPE_COUPLED:
                    assert d == t
                else:
                    assert t + 1 <= d <= 3 * k - 1

    def test_termination_bound(self, cleaning_corpus):
        for system, k, t in cleaning_corpus[:50]:
            trace = cleaning_algorithm(system, k, t)
            assert trace.q <= len(system.shadow_pairs())

    def test_whole_corpus_certified_superfull(self, cleaning_corpus):
        for system, k, t in cleaning_corpus:
            trace = cleaning_algorithm(system, k, t)
            assert trace.superfull_certificate() is True

    def test_replay_is_byte_identical(self, cleaning_corpus):
        for system, k, t in cleaning_corpus[:40]:
            first = cleaning_algorithm(system, k, t)
            second = cleaning_algorithm(system, k, t)
            assert json.dumps(first.to_json(), sort_keys=True) == json.dumps(
                second.to_json(), sort_keys=True
            )
            snaps_a = [first.snapshot(i).edge_list() for i in range(first.q + 1)]
            snaps_b = [second.snapshot(i).edge_list() for i in range(second.q + 1)]
            assert snaps_a == snaps_b


class TestQuantitativeReport:
    def test_reports_both_sides_without_asserting(self, cleaning_corpus):
        trace = cleaning_algorithm(s_construction(12, 1), 3, 1)
        rep = quantitative_report(trace, 0.1)
        assert rep["hypothesis_holds"] is True
        assert rep["steps"]["value"] <= rep["steps"]["bound"]
        assert rep["final_size"]["value"] >= rep["final_size"]["bound"]
        assert rep["final_shadow"]["value"] >= rep["final_shadow"]["bound"]
        # sparse hypothesis-violating inputs still produce a report
        for system, k, t in cleaning_corpus[:20]:
            rep = quantitative_report(cleaning_algorithm(system, k, t), 0.01)
            assert set(rep) == {
                "epsilon",
                "hypothesis_holds",
                "steps",
                "final_size",
                "final_shadow",
            }

    def test_bounds_are_the_stated_formulas(self):
        trace = cleaning_algorithm(s_construction(12, 1), 3, 1)
        rep = quantitative_report(trace, 0.1)
        assert rep["steps"]["bound"] == 12 * 3 * 0.1 * 12 * 12
        assert rep["final_size"]["bound"] == 55 - 48 * 3 * 3 * 0.1 * 12 * 12
        assert rep["final_shadow"]["bound"] == 66 - 50 * 3 * 3 * 0.1 * 12 * 12

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.5, 1e308, 10**400])
    def test_rejects_epsilon_outside_its_domain(self, eps):
        trace = cleaning_algorithm(s_construction(12, 1), 3, 1)
        with pytest.raises(InputError, match="epsilon"):
            quantitative_report(trace, eps)

    def test_rejects_a_k_beyond_float_range(self):
        trace = cleaning_algorithm(s_construction(6, 1), 10**400, 1)
        with pytest.raises(InputError, match="overflow"):
            quantitative_report(trace, 0.1)

    def test_bounds_hold_whenever_hypothesis_does(self, cleaning_corpus):
        for system, k, t in cleaning_corpus:
            trace = cleaning_algorithm(system, k, t)
            for eps in (0.02, 0.1):
                rep = quantitative_report(trace, eps)
                if rep["hypothesis_holds"]:
                    assert rep["steps"]["value"] <= rep["steps"]["bound"]
                    assert (
                        rep["final_size"]["value"] >= rep["final_size"]["bound"]
                    )


class TestExtractFull:
    def test_already_full_is_fixed_point(self):
        k7 = complete_3graph(7)
        assert extract_d_full(k7, 3).edges == k7.edges
        assert extract_d_full(k7, 4).edges == k7.edges

    def test_apex_system_collapses(self):
        assert extract_d_full(s_construction(12, 1), 1).edges == frozenset()

    def test_output_contract(self, cleaning_corpus):
        for system, _, _ in cleaning_corpus:
            for d in (1, 2):
                out = extract_d_full(system, d)
                assert is_d_full(out, d + 1)
                assert out.edges <= system.edges
                assert len(out.edges) >= len(system.edges) - d * len(
                    system.shadow_pairs()
                )
                assert extract_d_full(out, d).edges == out.edges


class TestExtractLinear:
    def test_already_linear_unchanged(self):
        h = TripleSystem(9, [(0, 1, 2), (2, 3, 4), (5, 6, 7)])
        assert extract_linear_subgraph(h, 2).edges == h.edges

    def test_complete_host_example(self):
        out = extract_linear_subgraph(complete_3graph(5), 2)
        assert len(out.edges) >= 2
        assert max_i_degree(out, 2) <= 1

    def test_common_pair_bundle(self):
        h = TripleSystem(6, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        assert len(extract_linear_subgraph(h, 2).edges) == 1

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            extract_linear_subgraph(TripleSystem(5, []), 2)

    def test_bounds_on_corpus(self, cleaning_corpus):
        for system, _, _ in cleaning_corpus:
            if not system.edges:
                continue
            for i in (1, 2):
                out = extract_linear_subgraph(system, i)
                assert max_i_degree(out, i) <= 1
                bound = len(system.edges) / (3 * max_i_degree(system, i))
                assert len(out.edges) >= bound


class TestFullnessCheck:
    def test_dense_host_contains_everything(self):
        report = fullness_embedding_check(complete_3graph(11), 3)
        assert report["all_found"]
        kinds = [r["kind"] for r in report["patterns"]]
        assert kinds.count("tree") == 2 and kinds.count("cycle") == 1

    def test_validation_errors(self):
        with pytest.raises(InputError):
            fullness_embedding_check(TripleSystem(5, []), 3)
        with pytest.raises(InputError):
            fullness_embedding_check(TripleSystem(5, [(0, 1, 2)]), 3)


def _assert_matches_naive(system, k, t):
    trace = cleaning_algorithm(system, k, t)
    sparse, removed, final = cleaning_naive(system, k, t)
    assert trace.sparse_part.edges == sparse
    assert list(trace.removed_pairs) == removed
    assert trace.final_system.edges == final


def _assert_linear_matches_naive(system):
    for i in (1, 2):
        out = extract_linear_subgraph(system, i)
        assert out.edges == set(linear_subgraph_naive(system, i))


class TestAgainstNaive:
    """The heap-driven loops pick exactly what the full rescans pick."""

    def test_cleaning_on_corpus(self, cleaning_corpus):
        # k = 1, 2 make coupled removals common, where a too-narrow set of
        # reclassified pairs shows
        settings = [(k, t) for k in (1, 2, 3, 4) for t in (0, 1, 2) if t <= k]
        for system, _, _ in cleaning_corpus:
            for k, t in settings:
                _assert_matches_naive(system, k, t)

    def test_partner_of_a_touched_pair_is_classified_again(self):
        # removing (3, 7) leaves (5, 7) and (6, 7) at codegree t = 1, which
        # makes the untouched pair (5, 6) coupled and the least pair left
        h = TripleSystem(
            8,
            [(0, 3, 7), (0, 6, 7), (1, 6, 7), (3, 4, 7), (3, 5, 7), (3, 6, 7), (5, 6, 7)],
        )
        trace = cleaning_algorithm(h, 1, 1)
        assert trace.removed_pairs[-1] == ((5, 6), TYPE_COUPLED)
        _assert_matches_naive(h, 1, 1)

    def test_linear_on_corpus(self, cleaning_corpus):
        for system, _, _ in cleaning_corpus:
            if system.edges:
                _assert_linear_matches_naive(system)

    def test_linear_on_planted_hosts(self):
        # the clean-cli sizes: about 600-1,000 edges, where one pick kills
        # many edges and most heap entries go stale
        rng = random.Random(1)
        for n in (28, 32, 36):
            _assert_linear_matches_naive(planted_host(rng, n, 2))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 14),
        density=st.floats(0.02, 0.7),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 5),
        t=st.integers(0, 3),
    )
    def test_random_systems(self, n, density, seed, k, t):
        system = random_triple_system(random.Random(seed), n, density)
        _assert_matches_naive(system, k, min(t, k))
        if system.edges:
            _assert_linear_matches_naive(system)

    def test_classification_counts_are_pinned(self, monkeypatch):
        # the work count of the removal loop: calls of _classify_pair
        calls = []
        classify = cleaning._classify_pair
        monkeypatch.setattr(
            cleaning, "_classify_pair", lambda *a: calls.append(a) or classify(*a)
        )
        rng = random.Random(1)
        counts = []
        for n in (28, 32, 36):
            calls.clear()
            cleaning_algorithm(planted_host(rng, n, 2), 3, 2)
            counts.append(len(calls))
        assert counts == [689, 848, 1044]

    def test_linear_heap_pops_are_pinned(self, monkeypatch):
        # the work count of linear extraction: the loop stops at the last
        # live edge, so few stale entries are popped
        rng = random.Random(1)
        hosts = [planted_host(rng, n, 2) for n in (28, 32, 36)]
        pops = []
        heappop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop", lambda h: pops.append(1) or heappop(h))

        def popped(host, i):
            pops.clear()
            extract_linear_subgraph(host, i)
            return len(pops)

        counts = [[popped(host, i) for host in hosts] for i in (1, 2)]
        assert counts == [[9, 10, 12], [279, 506, 529]]

    def test_planted_hosts_are_pinned(self):
        # (n, edges, q, removed pairs listed, sparse, final, linear i=2, i=1)
        expected = [
            (28, 571, 146, 146, 98, 313, 77, 9),
            (32, 779, 193, 193, 149, 437, 94, 10),
            (36, 1023, 233, 233, 214, 576, 127, 12),
        ]
        rng = random.Random(1)
        for n, *values in expected:
            host = planted_host(rng, n, 2)
            trace = cleaning_algorithm(host, 3, 2)
            assert [
                len(host.edges),
                trace.q,
                len(trace.to_json()["removed_pairs"]),
                len(trace.sparse_part.edges),
                len(trace.final_system.edges),
                len(extract_linear_subgraph(host, 2).edges),
                len(extract_linear_subgraph(host, 1).edges),
            ] == values
