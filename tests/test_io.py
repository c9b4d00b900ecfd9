"""Tests for the transaction-format graph database reader/writer."""

from __future__ import annotations

import pytest

from repro.errors import GraphError, ParseError
from repro.graphs import io as gio
from repro.graphs.model import Graph


SAMPLE = """\
t # g1
v 0 a
v 1 b
e 0 1
t # g2
v 0 c
"""


class TestLoads:
    def test_basic_parse(self):
        pairs = gio.loads(SAMPLE)
        assert [gid for gid, _ in pairs] == ["g1", "g2"]
        g1 = pairs[0][1]
        assert g1.order == 2
        assert g1.has_edge(0, 1)
        assert g1.label(1) == "b"

    def test_header_without_hash(self):
        pairs = gio.loads("t 42\nv 0 a\n")
        assert pairs[0][0] == "42"

    def test_blank_lines_and_comments_skipped(self):
        pairs = gio.loads("\n# comment\nt # g\nv 0 a\n\n")
        assert len(pairs) == 1

    def test_vertex_before_header_rejected(self):
        with pytest.raises(ParseError):
            gio.loads("v 0 a\n")

    def test_edge_before_header_rejected(self):
        with pytest.raises(ParseError):
            gio.loads("e 0 1\n")

    def test_missing_graph_id_rejected(self):
        with pytest.raises(ParseError):
            gio.loads("t #\n")

    def test_malformed_vertex_rejected(self):
        with pytest.raises(ParseError):
            gio.loads("t # g\nv 0\n")

    def test_non_integer_vertex_id_rejected(self):
        with pytest.raises(ParseError) as exc:
            gio.loads("t # g\nv x a\n")
        assert exc.value.line_number == 2

    def test_non_integer_edge_rejected(self):
        with pytest.raises(ParseError):
            gio.loads("t # g\nv 0 a\nv 1 b\ne 0 b\n")

    def test_unknown_record_strict(self):
        with pytest.raises(ParseError):
            gio.loads("t # g\nz 1 2\n")

    def test_unknown_record_lenient(self):
        pairs = gio.loads("t # g\nv 0 a\nz 1 2\n", strict=False)
        assert len(pairs) == 1

    def test_edge_label_token_strict_vs_lenient(self):
        text = "t # g\nv 0 a\nv 1 b\ne 0 1 single\n"
        with pytest.raises(ParseError):
            gio.loads(text)
        pairs = gio.loads(text, strict=False)
        assert pairs[0][1].has_edge(0, 1)


class TestParseErrors:
    """Every parse error keeps its message and the line it names."""

    @pytest.mark.parametrize(
        "text, strict, message",
        [
            ("t #\n", True, "graph header missing id (line 1)"),
            ("\n# c\nt\n", True, "graph header missing id (line 3)"),
            ("v 0 a\n", True, "vertex record before any graph header (line 1)"),
            ("e 0 1\n", True, "edge record before any graph header (line 1)"),
            ("t # g\n  v 0  \n", True, "malformed vertex record 'v 0' (line 2)"),
            ("t # g\nv x a\n", True, "non-integer vertex id 'x' (line 2)"),
            ("t # g\nv 0 a\ne 0\n", True, "malformed edge record 'e 0' (line 3)"),
            ("t # g\nv 0 a\ne 0\n", False, "malformed edge record 'e 0' (line 3)"),
            ("t # g\nv 0 a\ne 0 1 x\n", True, "malformed edge record 'e 0 1 x' (line 3)"),
            (
                "t # g\nv 0 a\nv 1 b\n\te 0 b \n",
                True,
                "non-integer edge endpoint in 'e 0 b' (line 4)",
            ),
            (
                "t # g\nv 0 a\nv 1 b\ne 0 1 x\ne 0 y\n",
                False,
                "non-integer edge endpoint in 'e 0 y' (line 5)",
            ),
            ("t # g\nz 1 2\n", True, "unknown record type 'z' (line 2)"),
        ],
    )
    def test_message_and_line(self, text, strict, message):
        with pytest.raises(ParseError) as exc:
            gio.loads(text, strict=strict)
        assert str(exc.value) == message
        assert exc.value.line_number == int(message.rsplit(" ", 1)[1][:-1])

    def test_graph_errors_raise_at_their_line(self):
        """A bad edge fails on its own line, before a later parse error."""
        with pytest.raises(GraphError):
            gio.loads("t # g\nv 0 a\ne 0 0\nz\n")
        with pytest.raises(GraphError):
            gio.loads("t # g\nv 0 a\ne 0 1\nv 1 b\n")
        with pytest.raises(GraphError):
            gio.loads("t # g\nv 0 a\nv 0 b\nz\n")


class TestRoundTrip:
    def test_dumps_loads_round_trip(self, small_aids):
        items = list(small_aids.graphs.items())[:10]
        text = gio.dumps(items)
        parsed = gio.loads(text)
        assert len(parsed) == 10
        for (gid_in, g_in), (gid_out, g_out) in zip(items, parsed):
            assert gid_out == str(gid_in)
            # Writer renumbers to 0..n-1; compare by isomorphism-invariant
            # statistics (ids differ but structure must match).
            assert g_out.order == g_in.order
            assert g_out.size == g_in.size
            assert g_out.label_multiset() == g_in.label_multiset()

    def test_save_load_file(self, tmp_path, paper_g1):
        path = tmp_path / "db.txt"
        gio.save(path, [("g1", paper_g1)])
        pairs = gio.load(path)
        assert pairs[0][0] == "g1"
        assert pairs[0][1] == paper_g1

    def test_iter_graphs_streams(self, tmp_path, paper_g1, paper_g2):
        path = tmp_path / "db.txt"
        gio.save(path, [("a", paper_g1), ("b", paper_g2)])
        with open(path) as handle:
            gids = [gid for gid, _ in gio.iter_graphs(handle)]
        assert gids == ["a", "b"]

    def test_empty_text(self):
        assert gio.loads("") == []
