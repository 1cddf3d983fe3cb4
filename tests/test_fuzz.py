"""Malformed input never ends in a traceback: the loaders return a result
or raise InputError, and `crosscut check` exits 0, 3 or 5 on any
certificate file.

Ids are drawn from a small range; vertex counts also reach the limit of
10^6 that the constructors enforce and go past it, in files and in
certificates alike, where they must be rejected before any per-vertex table
is allocated.  Text files also get literals longer than int() converts.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crosscut.builders import expansion, lower_bound_coloring, s_construction
from crosscut.cleaning import cleaning_algorithm
from crosscut.cli import main
from crosscut.embed import find_expansion, find_rainbow_expansion
from crosscut.errors import InputError
from crosscut.fileio import (
    dumps_coloring,
    loads_coloring,
    loads_edge_json,
    loads_edge_text,
    save_structure,
)
from crosscut.trees import path_graph

FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

small_ints = st.integers(-3, 40)
counts = small_ints | st.integers(10**6 - 2, 10**6 + 2) | st.integers(10**6, 2**80)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000) | counts,
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
tokens = st.one_of(
    small_ints.map(str),
    st.sampled_from(["x", "-", "1.5", "#", "=", "n=", "0x1", "1" * 5000]),
)
token_lines = st.lists(
    st.lists(tokens, max_size=5).map(" ".join), max_size=8
).map("\n".join)


def _loads_or_input_error(loader, text):
    try:
        loader(text)
    except InputError:
        pass


@FUZZ
@given(
    st.one_of(
        st.text(max_size=80),
        st.tuples(
            st.sampled_from(["graph", "3graph", "4graph", ""]),
            st.one_of(counts.map(str), st.text(max_size=3)),
            token_lines,
        ).map(lambda p: f"kind={p[0]} n={p[1]}\n{p[2]}"),
    )
)
def test_loads_edge_text(text):
    _loads_or_input_error(loads_edge_text, text)


@FUZZ
@given(
    st.one_of(
        st.text(max_size=80),
        json_values.map(json.dumps),
        st.fixed_dictionaries(
            {
                "kind": st.sampled_from(["graph", "3graph"]) | json_values,
                "n": counts | json_values.filter(lambda v: not isinstance(v, int)),
                "edges": st.lists(st.lists(small_ints | json_scalars, max_size=4), max_size=6)
                | json_values,
            }
        ).map(json.dumps),
    )
)
def test_loads_edge_json(text):
    _loads_or_input_error(loads_edge_json, text)


@FUZZ
@given(
    st.one_of(
        st.text(max_size=80),
        st.tuples(st.integers(-2, 6) | counts, token_lines).map(lambda p: f"n={p[0]}\n{p[1]}"),
        st.integers(0, 2).map(
            lambda drop: "\n".join(
                dumps_coloring(lower_bound_coloring(s_construction(5, 1))).splitlines()[drop:]
            )
        ),
    )
)
def test_loads_coloring(text):
    _loads_or_input_error(loads_coloring, text)


# -- crosscut check on mutated certificates ---------------------------------

P3 = path_graph(3)


def _certificates() -> dict:
    host = expansion(P3)
    coloring = lower_bound_coloring(s_construction(8, 1))
    rainbow = find_rainbow_expansion(coloring, path_graph(2))
    trace = cleaning_algorithm(s_construction(8, 1), 3, 1)
    return {
        "embedding": {"kind": "embedding", "embedding": find_expansion(host, P3).to_json()},
        "rainbow": {
            "kind": "rainbow",
            "embedding": rainbow.embedding.to_json(),
            "colors": list(rainbow.colors),
        },
        "cleaning-trace": {"kind": "cleaning-trace", **trace.to_json()},
    }


CERTIFICATES = _certificates()


@pytest.fixture(scope="module")
def hosts(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    save_structure(expansion(P3), d / "embedding.edges")
    save_structure(s_construction(8, 1), d / "cleaning-trace.edges")
    (d / "rainbow.txt").write_text(
        dumps_coloring(lower_bound_coloring(s_construction(8, 1)))
    )
    return d


def _mutate(data, draw):
    """Replace, delete or add one field somewhere inside `data`."""
    data = copy.deepcopy(data)
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = draw(json_values)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.text(max_size=5))] = draw(json_values)
        else:
            node.append(draw(json_values))
        break
    return data


@pytest.mark.parametrize("kind", sorted(CERTIFICATES))
@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_check_mutated_certificates(hosts, capsys, kind, data):
    cert = _mutate(CERTIFICATES[kind], data.draw)
    path = hosts / "cert.json"
    path.write_text(json.dumps(cert))
    host = hosts / ("rainbow.txt" if kind == "rainbow" else f"{kind}.edges")
    assert main(["check", "--certificate", str(path), "--host", str(host)]) in (0, 3, 5)
    capsys.readouterr()


@pytest.mark.parametrize("kind", sorted(CERTIFICATES))
def test_check_unmutated_certificates(hosts, capsys, kind):
    path = hosts / "cert.json"
    path.write_text(json.dumps(CERTIFICATES[kind]))
    host = hosts / ("rainbow.txt" if kind == "rainbow" else f"{kind}.edges")
    assert main(["check", "--certificate", str(path), "--host", str(host)]) == 0
