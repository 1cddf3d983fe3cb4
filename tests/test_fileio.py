import re
import time
from pathlib import Path

import pytest

from crosscut.builders import lower_bound_coloring, s_construction
from crosscut.errors import InputError
from crosscut.fileio import (
    dumps_coloring,
    dumps_edge_json,
    dumps_edge_text,
    load_structure,
    loads_coloring,
    loads_edge_json,
    loads_edge_text,
)
from crosscut.structures import Graph, TripleSystem
from crosscut.trees import path_graph


class TestEdgeText:
    def test_graph_round_trip(self):
        g = path_graph(4)
        assert loads_edge_text(dumps_edge_text(g)) == g

    def test_triple_round_trip(self):
        h = s_construction(7, 2)
        assert loads_edge_text(dumps_edge_text(h)) == h

    def test_header_required(self):
        with pytest.raises(InputError):
            loads_edge_text("0 1\n")

    def test_rejects_bad_rows(self):
        with pytest.raises(InputError):
            loads_edge_text("kind=graph n=3\n0 0\n")
        with pytest.raises(InputError):
            loads_edge_text("kind=graph n=3\n0 3\n")
        with pytest.raises(InputError):
            loads_edge_text("kind=graph n=3\n0 1\n1 0\n")
        with pytest.raises(InputError):
            loads_edge_text("kind=3graph n=4\n0 1\n")

    def test_comments_and_blank_lines(self):
        text = "# a graph\nkind=graph n=3\n\n0 1\n# trailing\n"
        assert loads_edge_text(text) == Graph(3, [(0, 1)])

    def test_inline_comments_run_to_the_end_of_the_line(self):
        assert loads_edge_text("kind=graph n=3  # a path\n0 1  # edge\n1 2#\n") == path_graph(2)

    def test_docs_example_loads(self):
        formats = (Path(__file__).parent.parent / "docs" / "formats.md").read_text()
        [block] = re.findall(r"## Edge lists \(text\)\n\n```\n(.*?)```", formats, re.S)
        assert loads_edge_text(block) == Graph(5, [(0, 1), (1, 2)])

    def test_messages_give_physical_line_numbers(self):
        text = "kind=graph n=3\n# comment\n\n0 1\n0 0\n"
        with pytest.raises(InputError, match=r"^<text>:5: loop at vertex 0$"):
            loads_edge_text(text)
        with pytest.raises(InputError, match=r"^<text>:4: non-integer vertex id 'x'$"):
            loads_edge_text("# head\nkind=3graph n=4\n\n0 1 x\n")
        with pytest.raises(InputError, match=r"^g.edges:6: duplicate edge \(0, 1\)$"):
            loads_edge_text("kind=graph n=3\n0 1\n\n\n# c\n1 0\n", "g.edges")

    def test_out_of_range_ids_give_file_and_line(self):
        with pytest.raises(InputError, match=r"^g.edges:4: edge \(0, 3\) out of range for n=3$"):
            loads_edge_text("kind=graph n=3\n\n# c\n0 3\n", "g.edges")
        with pytest.raises(
            InputError, match=r"^h.edges:3: triple \(-1, 1, 2\) out of range for n=4$"
        ):
            loads_edge_text("kind=3graph n=4\n0 1 2\n-1 1 2\n", "h.edges")

    def test_negative_vertex_count_gives_file(self):
        with pytest.raises(InputError, match=r"^g.edges: vertex count must be nonnegative$"):
            loads_edge_text("kind=graph n=-2\n", "g.edges")

    @pytest.mark.parametrize("vid", ["1_2", "١", "+1", "0x1", "1.0", "½"])
    def test_ids_are_ascii_decimal(self, vid):
        with pytest.raises(InputError, match=rf"^g.edges:3: non-integer vertex id '{re.escape(vid)}'$"):
            loads_edge_text(f"kind=graph n=20\n0 1\n0 {vid}\n", "g.edges")
        with pytest.raises(InputError, match=r"^g.edges: bad vertex count"):
            loads_edge_text(f"kind=graph n={vid}\n", "g.edges")

    def test_decimal_ids_with_leading_zeros_and_tabs(self):
        assert loads_edge_text("kind=3graph n=012\n0\t1  011\n") == TripleSystem(
            12, [(0, 1, 11)]
        )


class TestEdgeJson:
    def test_round_trip(self):
        h = TripleSystem(5, [(0, 1, 2), (2, 3, 4)])
        assert loads_edge_json(dumps_edge_json(h)) == h
        g = path_graph(3)
        assert loads_edge_json(dumps_edge_json(g)) == g

    def test_rejects_duplicates_and_loops(self):
        with pytest.raises(InputError):
            loads_edge_json('{"kind":"graph","n":3,"edges":[[0,1],[1,0]]}')
        with pytest.raises(InputError):
            loads_edge_json('{"kind":"3graph","n":4,"edges":[[0,1,1]]}')
        with pytest.raises(InputError):
            loads_edge_json('{"kind":"graph","n":3}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind":"3graph","n":5,"edges":[[0,1,"2"]]}',
            '{"kind":"3graph","n":"5","edges":[[0,1,2]]}',
            '{"kind":"3graph","n":5,"edges":5}',
            '{"kind":"3graph","n":5,"edges":[[0,1,2.0]]}',
            '{"kind":"3graph","n":true,"edges":[]}',
            '{"kind":"graph","n":3,"edges":[[false,true]]}',
            '{"kind":"graph","n":3,"edges":["01"]}',
            '{"kind":"graph","n":3,"edges":[{"0":1}]}',
            '{"kind":"graph","n":3.0,"edges":[]}',
            '[["kind","graph"]]',
            '"kind"',
            '{"kind":"graph","n":1' + "0" * 5000 + ',"edges":[]}',
            "[" * 100_000,
        ],
    )
    def test_rejects_mistyped_documents(self, text):
        with pytest.raises(InputError):
            loads_edge_json(text)

    def test_undecodable_file_is_an_input_error(self, tmp_path):
        p = tmp_path / "bin.edges"
        p.write_bytes(b"kind=graph n=3\n\xff\xfe\n")
        with pytest.raises(InputError):
            load_structure(p)

    @pytest.mark.parametrize("n", [10**6 + 1, 2**70])
    def test_vertex_count_limit(self, n):
        with pytest.raises(InputError):
            loads_edge_json(f'{{"kind":"3graph","n":{n},"edges":[]}}')
        with pytest.raises(InputError):
            loads_edge_text(f"kind=graph n={n}\n0 1\n")
        with pytest.raises(InputError):
            loads_coloring(f"n={n}\n0 1 2 0\n")
        assert loads_edge_text("kind=graph n=1000000\n0 1\n").n == 10**6

    def test_out_of_range_ids_and_negative_counts_give_file(self):
        with pytest.raises(
            InputError, match=r"^g.json: edges\[1\]: edge \(0, -1\) out of range for n=3$"
        ):
            loads_edge_json('{"kind":"graph","n":3,"edges":[[0,1],[0,-1]]}', "g.json")
        with pytest.raises(
            InputError, match=r"^g.json: edges\[0\]: triple \(0, 1, 5\) out of range for n=5$"
        ):
            loads_edge_json('{"kind":"3graph","n":5,"edges":[[0,1,5]]}', "g.json")
        with pytest.raises(InputError, match=r"^g.json: vertex count must be nonnegative$"):
            loads_edge_json('{"kind":"graph","n":-2,"edges":[]}', "g.json")

    def test_load_structure_sniffs_format(self, tmp_path):
        p1 = tmp_path / "a.edges"
        p1.write_text(dumps_edge_text(path_graph(2)))
        p2 = tmp_path / "b.json"
        p2.write_text(dumps_edge_json(path_graph(2)))
        assert load_structure(p1) == load_structure(p2)


class TestColoringFormat:
    def test_round_trip(self):
        chi = lower_bound_coloring(s_construction(6, 1))
        back = loads_coloring(dumps_coloring(chi))
        assert back.color_of == chi.color_of

    def test_rejects_partial_cover(self):
        with pytest.raises(InputError):
            loads_coloring("n=5\n0 1 2 0\n")

    def test_rejects_duplicate_triples(self):
        text = "n=4\n" + "\n".join(
            f"{a} {b} {c} 0" for a, b, c in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        )
        assert loads_coloring(text).color_count == 1
        with pytest.raises(InputError):
            loads_coloring(text + "\n0 1 2 1\n")

    def test_negative_vertex_count_gives_file(self):
        with pytest.raises(InputError, match=r"^c.txt: vertex count must be nonnegative$"):
            loads_coloring("n=-1\n", "c.txt")

    @pytest.mark.parametrize("field", ["1_2", "١", "+1"])
    def test_fields_are_ascii_decimal(self, field):
        rows = ["0 1 2 0", "0 1 3 0", "0 2 3 0", "1 2 3 0"]
        assert loads_coloring("n=4\n" + "\n".join(rows)).n == 4
        for i in range(4):
            bad = rows[:]
            bad[0] = " ".join(field if j == i else x for j, x in enumerate(bad[0].split()))
            with pytest.raises(InputError, match=r"^c.txt:2: non-integer field$"):
                loads_coloring("n=4\n" + "\n".join(bad), "c.txt")
        with pytest.raises(InputError, match=r"^c.txt: bad n$"):
            loads_coloring(f"n={field}\n", "c.txt")

    def test_inline_comments(self):
        rows = ["0 1 2 0  # apex", "0 1 3 0", "0 2 3 0", "1 2 3 1#"]
        chi = loads_coloring("n=4 # four vertices\n" + "\n".join(rows))
        assert chi.color_of[(0, 1, 2)] == 0 and chi.color_of[(1, 2, 3)] == 1

    def test_messages_give_physical_line_numbers(self):
        text = "# a coloring\nn=4\n\n0 1 2 0\n# next\n0 2 1 1\n"
        with pytest.raises(InputError, match=r"^<coloring>:6: duplicate triple"):
            loads_coloring(text)
        with pytest.raises(InputError, match=r"^<coloring>:4: expected 'u v w c'"):
            loads_coloring("n=4\n\n# c\n0 1 2\n")


LONG = "1" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize(
    "loader, text, where",
    [
        (loads_edge_text, f"kind=graph n={LONG}\n", "f"),
        (loads_edge_text, f"kind=graph n=3\n0 1\n# c\n0 {LONG}\n", "f:4"),
        (loads_coloring, f"n={LONG}\n", "f"),
        (loads_coloring, f"n=4\n0 1 2 0\n\n0 1 3 {LONG}\n", "f:4"),
    ],
    ids=["text-count", "text-id", "coloring-count", "coloring-field"],
)
def test_over_long_integers_are_input_errors(loader, text, where):
    with pytest.raises(InputError) as info:
        loader(text, "f")
    assert str(info.value) == f"{where}: integer with too many digits"


@pytest.mark.parametrize(
    "loader, text, message",
    [
        (loads_edge_text, "kind=3graph n=4\n0 1 2\n\n0 1\n", "f:4: triple (0, 1) must have 3 vertices"),
        (loads_edge_text, "kind=graph n=4\n0 1\n2 2\n", "f:3: loop at vertex 2"),
        (
            loads_edge_json,
            '{"kind":"graph","n":3,"edges":[[0,1],["0",2]]}',
            "f: edges[1]: edge ('0', 2) has a vertex id that is not an integer",
        ),
        (
            loads_edge_json,
            '{"kind":"3graph","n":4,"edges":[[0,1,2],7]}',
            "f: edges[1]: triple 7 is not a sequence of vertex ids",
        ),
        (
            loads_edge_json,
            '{"kind":"3graph","n":4,"edges":[[0,1,3],[0,1,2],[2,1,0]]}',
            "f: edges[2]: duplicate edge (0, 1, 2)",
        ),
        (loads_coloring, "n=4\n0 1 2 0\n# c\n3 1 3 0\n", "f:4: triple (1, 3, 3) has repeated vertices"),
        (loads_coloring, "n=4\n0 1 2 0\n0 1 4 0\n", "f:3: triple (0, 1, 4) out of range for n=4"),
        (loads_coloring, "n=4\n0 1 2 0\n", "f: 3 triples missing (first (0, 1, 3))"),
    ],
    ids=[
        "text-arity", "text-loop", "json-string-id", "json-not-a-list", "json-duplicate",
        "coloring-repeated-vertex", "coloring-out-of-range", "coloring-missing",
    ],
)
def test_rejected_rows_are_located(loader, text, message):
    # the constructors decide what a bad edge is; the loaders say where it is
    with pytest.raises(InputError) as info:
        loader(text, "f")
    assert str(info.value) == message


@pytest.fixture
def builds(monkeypatch):
    """The Graph and TripleSystem constructions made, by class name."""
    made = []
    for cls in (Graph, TripleSystem):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            made.append(_name)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return made


@pytest.mark.parametrize(
    "loader, valid, rejected, message, kind",
    [
        (
            loads_edge_text,
            "kind=graph n=5\n0 1\n1 2\n2 3\n",
            "kind=graph n=5\n0 1\n1 2\n2 3\n3 3\n",
            "f:5: loop at vertex 3",
            "Graph",
        ),
        (
            loads_edge_text,
            "kind=3graph n=5\n0 1 2\n0 1 3\n",
            "kind=3graph n=5\n0 1 2\n0 1 3\n0 1 5\n",
            "f:4: triple (0, 1, 5) out of range for n=5",
            "TripleSystem",
        ),
        (
            loads_edge_json,
            '{"kind":"3graph","n":5,"edges":[[0,1,2],[0,1,3],[0,1,4]]}',
            '{"kind":"3graph","n":5,"edges":[[0,1,2],[0,1,3],[0,1,4],[1,1,2]]}',
            "f: edges[3]: triple (1, 1, 2) has repeated vertices",
            "TripleSystem",
        ),
        (
            loads_coloring,
            "n=4\n0 1 2 0\n0 1 3 0\n0 2 3 0\n1 2 3 0\n",
            "n=4\n0 1 2 0\n0 1 3 0\n0 2 3 0\n1 2 4 0\n",
            "f:5: triple (1, 2, 4) out of range for n=4",
            "TripleSystem",
        ),
    ],
    ids=["text-graph", "text-3graph", "json", "coloring"],
)
def test_a_load_constructs_one_structure(builds, loader, valid, rejected, message, kind):
    # the constructor names the row it rejects: no structure is rebuilt per row
    with pytest.raises(InputError) as info:
        loader(rejected, "f")
    assert str(info.value) == message
    assert builds == [kind]
    builds.clear()
    loader(valid, "f")
    assert builds == [kind]


@pytest.mark.parametrize(
    "loader, where",
    [(loads_edge_text, "h:8002"), (loads_edge_json, "h: edges[8000]")],
    ids=["text", "json"],
)
def test_a_late_bad_row_in_a_large_system_is_located_fast(loader, where):
    triples = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(8000)] + [(5, 5, 6)]
    if loader is loads_edge_text:
        text = "kind=3graph n=1000000\n" + "".join(f"{a} {b} {c}\n" for a, b, c in triples)
    else:
        text = f'{{"kind":"3graph","n":1000000,"edges":{[list(t) for t in triples]}}}'
    start = time.perf_counter()
    with pytest.raises(InputError) as info:
        loader(text, "h")
    assert time.perf_counter() - start < 1
    assert str(info.value) == f"{where}: triple (5, 5, 6) has repeated vertices"
