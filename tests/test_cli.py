"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graphs import io as gio
from repro.graphs.model import Graph


@pytest.fixture
def corpus_file(tmp_path, paper_g1, paper_g2):
    path = tmp_path / "corpus.txt"
    gio.save(path, [("g1", paper_g1), ("g2", paper_g2)])
    return path


@pytest.fixture
def db_file(tmp_path, corpus_file):
    path = tmp_path / "db.segos"
    assert main(["build", str(corpus_file), str(path)]) == 0
    return path


@pytest.fixture
def query_file(tmp_path, paper_g1):
    path = tmp_path / "query.txt"
    gio.save(path, [("q", paper_g1)])
    return path


class TestBuildAndStats:
    def test_build(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "db.segos"
        assert main(["build", str(corpus_file), str(out)]) == 0
        assert out.exists()
        assert "indexed 2 graphs" in capsys.readouterr().out

    def test_stats(self, db_file, capsys):
        assert main(["stats", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "graphs:         2" in out
        assert "distinct stars: 7" in out

    def test_build_missing_file(self, tmp_path, capsys):
        assert main(["build", str(tmp_path / "missing.txt"), "x"]) == 1
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_range_query(self, db_file, query_file, capsys):
        assert main(["query", str(db_file), str(query_file), "--tau", "3"]) == 0
        out = capsys.readouterr().out
        assert "candidates (tau=3.0): 2" in out

    def test_range_query_verified(self, db_file, query_file, capsys):
        assert main(
            ["query", str(db_file), str(query_file), "--tau", "3", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "matches (tau=3.0): 2" in out
        assert "g1" in out and "g2" in out

    def test_empty_query_file(self, db_file, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["query", str(db_file), str(empty), "--tau", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestObservability:
    def test_query_trace_flag_prints_span_tree(self, db_file, query_file, capsys):
        assert main(
            ["query", str(db_file), str(query_file), "--tau", "3", "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "query" in out and "ta" in out and "ca" in out

    def test_query_metrics_flag_prints_prometheus(self, db_file, query_file, capsys):
        assert main(
            ["query", str(db_file), str(query_file), "--tau", "3", "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out
        assert "repro_ta_accesses_total" in out

    def test_trace_subcommand_exports_jsonl(self, db_file, query_file, tmp_path, capsys):
        from repro.obs import read_spans_jsonl

        out_path = tmp_path / "spans.jsonl"
        assert main(
            [
                "trace", str(db_file), str(query_file),
                "--tau", "3", "-o", str(out_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "jsonl" in out
        spans = read_spans_jsonl(str(out_path))
        assert {"query", "ta", "ca"} <= {s.name for s in spans}

    def test_trace_subcommand_exports_chrome(self, db_file, query_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert main(
            [
                "trace", str(db_file), str(query_file),
                "--tau", "3", "--verify", "--format", "chrome",
                "-o", str(out_path),
            ]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]
        assert any(e["name"] == "verify" for e in payload["traceEvents"])


class TestKnn:
    def test_knn(self, db_file, query_file, capsys):
        assert main(["knn", str(db_file), str(query_file), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "g1  ged=0" in out
        assert "g2  ged=3" in out


class TestGenerate:
    @pytest.mark.parametrize("kind", ["aids", "pdg"])
    def test_generate(self, kind, tmp_path, capsys):
        out = tmp_path / "corpus.txt"
        assert main(["generate", kind, str(out), "-n", "5", "--seed", "3"]) == 0
        pairs = gio.load(out)
        assert len(pairs) == 5

    def test_generated_corpus_is_buildable(self, tmp_path):
        corpus = tmp_path / "c.txt"
        db = tmp_path / "c.segos"
        assert main(["generate", "aids", str(corpus), "-n", "4"]) == 0
        assert main(["build", str(corpus), str(db)]) == 0


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestJoin:
    def test_join_finds_close_pair(self, db_file, capsys):
        # g1 and g2 are 3 edits apart: tau=3 joins them.
        assert main(["join", str(db_file), "--tau", "3", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "matched pairs (tau=3.0): 1" in out
        assert "g1 -- g2" in out

    def test_join_tau_zero_empty(self, db_file, capsys):
        assert main(["join", str(db_file), "--tau", "0", "--verify"]) == 0
        assert "matched pairs (tau=0.0): 0" in capsys.readouterr().out

    def test_join_candidates_mode(self, db_file, capsys):
        assert main(["join", str(db_file), "--tau", "3"]) == 0
        assert "candidate pairs" in capsys.readouterr().out


class TestIndexSidecar:
    def test_build_writes_sidecar(self, db_file, capsys):
        assert main(["index", "build", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "wrote sidecar for 2 graphs" in out
        assert (db_file.parent / "db.segos.segosx").exists()

    def test_inspect_reports_header(self, db_file, capsys):
        assert main(["index", "inspect", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "format version: 1" in out
        assert "graphs:         2" in out
        assert "fresh" in out

    def test_inspect_reports_embedding_sections(self, db_file, capsys):
        assert main(["index", "inspect", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "embeddings:     present (" in out

    def test_inspect_flags_pre_embedding_layout(self, db_file, capsys):
        import dataclasses
        import hashlib

        from repro.core.persistence import load_index
        from repro.perf import diskcat

        engine = load_index(db_file)
        data = db_file.read_bytes()
        diskcat.write_sidecar(
            db_file.parent / "db.segos.segosx",
            list(engine._graphs.items()),
            config=dataclasses.asdict(engine.config),
            generation=0,
            source_size=len(data),
            source_sha=hashlib.sha256(data).digest(),
            embeddings=False,
        )
        assert main(["index", "inspect", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "embeddings:     MISSING" in out

    def test_inspect_verify_clean(self, db_file, capsys):
        assert main(["index", "inspect", str(db_file), "--verify"]) == 0
        assert "all sections + delta journal OK" in capsys.readouterr().out

    def test_inspect_flags_stale_sidecar(self, db_file, query_file, capsys):
        # Appending a graph to the text invalidates the sidecar.
        db_file.write_bytes(db_file.read_bytes() + query_file.read_bytes())
        assert main(["index", "inspect", str(db_file)]) == 0
        assert "STALE" in capsys.readouterr().out

    def test_inspect_missing_sidecar_errors(self, corpus_file, capsys):
        assert main(["index", "inspect", str(corpus_file)]) == 1
        assert "error:" in capsys.readouterr().err


class TestIndexScrub:
    def test_scrub_clean(self, db_file, capsys):
        assert main(["index", "scrub", str(db_file)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_scrub_detects_torn_tail_without_touching(self, db_file, capsys):
        sidecar = db_file.parent / "db.segos.segosx"
        clean = sidecar.read_bytes()
        sidecar.write_bytes(clean + b"\x00garbage\x00")
        assert main(["index", "scrub", str(db_file)]) == 1
        out = capsys.readouterr().out
        assert "torn byte" in out and "--repair" in out
        assert sidecar.read_bytes() != clean  # audit-only: file untouched

    def test_scrub_repair_truncates_and_reloads(self, db_file, capsys):
        sidecar = db_file.parent / "db.segos.segosx"
        clean = sidecar.read_bytes()
        sidecar.write_bytes(clean + b"\x00garbage\x00")
        assert main(["index", "scrub", str(db_file), "--repair"]) == 0
        assert "repaired in place" in capsys.readouterr().out
        assert sidecar.read_bytes() == clean
        assert main(["index", "scrub", str(db_file)]) == 0

    def test_scrub_fatal_damage_points_at_rebuild(self, db_file, capsys):
        sidecar = db_file.parent / "db.segos.segosx"
        raw = bytearray(sidecar.read_bytes())
        raw[8] ^= 0xFF  # inside the header CRC field
        sidecar.write_bytes(bytes(raw))
        assert main(["index", "scrub", str(db_file), "--repair"]) == 1
        assert "rebuild" in capsys.readouterr().out

    def test_scrub_missing_sidecar_errors(self, corpus_file, capsys):
        assert main(["index", "scrub", str(corpus_file)]) == 1


class TestIndexPathFromHeader:
    """inspect and scrub find the sidecar the database header records,
    as ``load_index`` and ``save_index`` do."""

    @pytest.fixture
    def relocated(self, tmp_path, paper_g1, paper_g2):
        from repro.core.engine import SegosIndex
        from repro.core.persistence import save_index

        sidecar = tmp_path / "elsewhere" / "idx.segosx"
        sidecar.parent.mkdir()
        engine = SegosIndex(
            {"g1": paper_g1, "g2": paper_g2}, index_path=str(sidecar)
        )
        path = tmp_path / "db.segos"
        save_index(engine, path)
        assert sidecar.exists()
        assert not (tmp_path / "db.segos.segosx").exists()
        return path, sidecar

    def test_inspect_reads_header_index_path(self, relocated, capsys):
        path, sidecar = relocated
        assert main(["index", "inspect", str(path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert f"sidecar:        {sidecar}" in out
        assert "fresh" in out

    def test_scrub_reads_header_index_path(self, relocated, capsys):
        path, sidecar = relocated
        assert main(["index", "scrub", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(sidecar) in out and "clean" in out
