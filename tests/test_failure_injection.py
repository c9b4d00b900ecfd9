"""Failure injection: corrupted internal state must be *detected*, not
silently tolerated.

These tests reach past the public API on purpose — they simulate the bugs
and bit-rot scenarios `check_consistency` exists to catch.
"""

from __future__ import annotations

import pytest

from repro.errors import IndexCorruptionError
from repro.core.index import TwoLevelIndex, UpperEntry
from repro.core.sqlite_index import SqliteTwoLevelIndex
from repro.graphs.star import Star, decompose


@pytest.fixture
def live_index(paper_g1, paper_g2):
    index = TwoLevelIndex()
    index.add_graph("g1", paper_g1, decompose(paper_g1))
    index.add_graph("g2", paper_g2, decompose(paper_g2))
    return index


class TestMemoryIndexCorruption:
    def test_clean_index_passes(self, live_index):
        live_index.check_consistency()

    def test_missing_upper_posting_detected(self, live_index):
        sid = live_index.catalog.sid(Star("c", "ab"))
        live_index.upper.remove(sid, "g1")
        with pytest.raises(IndexCorruptionError):
            live_index.check_consistency()

    def test_wrong_frequency_detected(self, live_index):
        sid = live_index.catalog.sid(Star("c", "ab"))
        live_index.upper.remove(sid, "g1")
        live_index.upper.add(sid, "g1", 99, 5)
        with pytest.raises(IndexCorruptionError):
            live_index.check_consistency()

    def test_stale_order_detected(self, live_index):
        sid = live_index.catalog.sid(Star("c", "ab"))
        live_index.upper.remove(sid, "g1")
        live_index.upper.add(sid, "g1", 2, 999)  # wrong graph size key
        with pytest.raises(IndexCorruptionError):
            live_index.check_consistency()

    def test_duplicate_upper_posting_rejected_on_insert(self, live_index):
        sid = live_index.catalog.sid(Star("c", "ab"))
        with pytest.raises(IndexCorruptionError):
            live_index.upper.add(sid, "g1", 1, 5)

    def test_remove_unknown_posting_rejected(self, live_index):
        sid = live_index.catalog.sid(Star("c", "ab"))
        with pytest.raises(IndexCorruptionError):
            live_index.upper.remove(sid, "ghost")


class TestSqliteIndexCorruption:
    def test_clean_index_passes(self, paper_g1):
        index = SqliteTwoLevelIndex()
        index.add_graph("g", paper_g1, decompose(paper_g1))
        index.check_consistency()

    def test_tampered_posting_detected(self, paper_g1):
        index = SqliteTwoLevelIndex()
        index.add_graph("g", paper_g1, decompose(paper_g1))
        index._conn.execute("UPDATE upper_postings SET freq = freq + 7")
        with pytest.raises(IndexCorruptionError):
            index.check_consistency()

    def test_tampered_lower_level_detected(self, paper_g1):
        index = SqliteTwoLevelIndex()
        index.add_graph("g", paper_g1, decompose(paper_g1))
        index._conn.execute("DELETE FROM star_leaves")
        with pytest.raises(IndexCorruptionError):
            index.check_consistency()
