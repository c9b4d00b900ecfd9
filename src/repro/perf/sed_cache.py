"""Zero-valued remnants of the retired SED memo cache.

The star edit distance is computed directly (Lemma 1, Θ(|L|) per pair);
no process-global memo sits in front of it.  :func:`sed_cache_info` and
:func:`sed_cache_clear` remain only because the ``perfbench`` harness still
imports them for its ``sed_cache.*`` counters; both will be deleted by the
benchmark change that drops those counters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheInfo:
    """``functools.lru_cache``-style counter snapshot (always all zero)."""

    hits: int = 0
    misses: int = 0
    maxsize: int = 0
    currsize: int = 0


def sed_cache_info() -> CacheInfo:
    """All-zero counters: there is no SED memo cache.

    Kept for ``perfbench``; deleted by the benchmark change that drops the
    ``sed_cache.*`` counters.
    """
    return CacheInfo()


def sed_cache_clear() -> None:
    """Do nothing: there is no SED memo cache.

    Kept for ``perfbench``; deleted by the benchmark change that drops the
    ``sed_cache.*`` counters.
    """
