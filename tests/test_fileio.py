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
