#!/usr/bin/env python
"""Filter-tier chain benchmark: legacy ``ta -> ca -> verify`` vs the full chain.

Standalone like the other benches so CI can smoke it without the test
harness::

    PYTHONPATH=src python benchmarks/bench_filter_tiers.py [--smoke]

Writes ``BENCH_filter_tiers.json`` at the repository root with:

1. **chain comparison** — verified batch range-query latency under the
   legacy paper chain and the full five-tier chain
   (``embed -> ta -> ca -> anchor -> verify``) over the same corpus and
   query set.  The exact match sets are asserted identical (the tiers are
   sound lower bounds — zero false dismissals, every run), the embed tier
   must prune at least one graph, and the anchor tier must settle at
   least one candidate as a match without running A*;
2. **per-tier accounting** — bounds evaluated, prune counts, anchor
   settles, and per-stage wall-clock for the full-chain run, so the
   report shows *where* the chain spends its time and what each tier
   buys.

``--mode legacy`` / ``--mode full`` run only the gate cell (the same
batch under one chain) under the identical ``time_batch_s`` key, so two
runs feed ``check_bench_regression.py`` directly: the full chain must
not be slower than the legacy chain beyond tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import FULL_TIER_CHAIN, PAPER_FILTER_TIERS  # noqa: E402
from repro.core.engine import SegosIndex  # noqa: E402
from repro.graphs.model import Graph  # noqa: E402
from repro.perf.columnar import numpy_available  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_filter_tiers.json"

CHAINS = {
    "legacy": ",".join(PAPER_FILTER_TIERS),
    "full": ",".join(FULL_TIER_CHAIN),
}


def _best_of(repeats, fn):
    best, value = None, None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, value


def _random_graph(rng: random.Random, order: int, labels: str) -> Graph:
    graph = Graph([rng.choice(labels) for _ in range(order)])
    for u in range(order - 1):  # connected path backbone
        graph.add_edge(u, u + 1)
    for _ in range(order // 2):
        u, v = rng.randrange(order), rng.randrange(order)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def tier_corpus(n: int, seed: int):
    """Label/size-diverse corpus so every tier has something to do.

    Two label worlds (chemistry-ish ``cnos`` vs a disjoint ``xyzw``) and
    orders 5..10: the embed sweep kills the cross-world graphs outright
    (label intersection near zero pushes the bound past any small τ),
    while same-world near-misses survive to CA and the anchor tier.
    """
    rng = random.Random(seed)
    graphs = {}
    for i in range(n):
        labels = "cnos" if i % 3 else "xyzw"
        graphs[f"g{i}"] = _random_graph(rng, 5 + (i % 6), labels)
    return graphs


def sample_queries(graphs, count: int, seed: int):
    """Perturbed copies of in-world corpus graphs (GED 1 from the source)."""
    rng = random.Random(seed)
    pool = sorted(gid for gid in graphs if int(gid[1:]) % 3)
    picked = rng.sample(pool, min(count, len(pool)))
    queries = []
    for gid in picked:
        graph = graphs[gid].copy()
        graph.relabel_vertex(rng.randrange(graph.order), "o")
        queries.append(graph)
    return queries


def _timed_batch(engine, queries, tau, repeats):
    def run():
        return engine.batch_range_query(queries, tau=tau, verify="exact")

    return _best_of(repeats, run)


def _tier_accounting(results):
    """Fold per-query stats into one per-tier summary table."""
    tiers: dict = {}
    settled = 0
    stage_seconds: dict = {}
    for result in results:
        stats = result.stats
        settled += stats.anchor_settled
        for name, entry in stats.tier_bounds.items():
            row = tiers.setdefault(
                name, {"evaluated": 0, "pruned": 0, "bound_max": 0.0}
            )
            row["evaluated"] += int(entry["evaluated"])
            row["bound_max"] = max(row["bound_max"], entry["bound_max"])
            row["pruned"] += stats.pruned_by.get(name, 0)
        for stage, seconds in stats.stage_seconds.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    return tiers, settled, stage_seconds


def bench_chains(n: int, q: int, tau, repeats, seed: int):
    """Legacy vs full chain on identical inputs, answers cross-checked."""
    graphs = tier_corpus(n, seed)
    queries = sample_queries(graphs, q, seed + 1)
    cells = {}
    match_sets = {}
    full_results = None
    for mode, chain in CHAINS.items():
        engine = SegosIndex(graphs, filter_tiers=chain)
        elapsed, results = _timed_batch(engine, queries, tau, repeats)
        match_sets[mode] = [sorted(map(str, r.matches)) for r in results]
        latencies = sorted(r.elapsed for r in results)
        cells[mode] = {
            "chain": chain,
            "time_batch_s": elapsed,
            "throughput_qps": len(queries) / elapsed if elapsed else None,
            "p50_latency_s": statistics.median(latencies),
            "candidates": sum(len(r.candidates) for r in results),
            "matches": sum(len(r.matches) for r in results),
        }
        if mode == "full":
            full_results = results

    assert match_sets["full"] == match_sets["legacy"], (
        "tier chain changed the verified answer set (false dismissal!)"
    )
    tiers, settled, stage_seconds = _tier_accounting(full_results)
    assert tiers.get("embed", {}).get("pruned", 0) > 0, (
        "embed tier pruned nothing on the cross-world corpus"
    )
    assert settled >= 1, "anchor tier settled no candidate without A*"
    legacy_t = cells["legacy"]["time_batch_s"]
    full_t = cells["full"]["time_batch_s"]
    return {
        "graphs": n,
        "queries": q,
        "tau": tau,
        "cells": cells,
        "false_dismissals": 0,
        "anchor_settled": settled,
        "tiers": tiers,
        "stage_seconds": stage_seconds,
        "speedup_full_vs_legacy": legacy_t / full_t if full_t else None,
    }


def bench_gate(n: int, q: int, tau, repeats, seed: int, mode: str):
    """One cell under the mode-independent ``time_batch_s`` key.

    Identical keys let ``check_bench_regression.py`` compare a ``legacy``
    JSON (baseline) against a ``full`` JSON (candidate) directly.
    """
    graphs = tier_corpus(n, seed)
    queries = sample_queries(graphs, q, seed + 1)
    engine = SegosIndex(graphs, filter_tiers=CHAINS[mode])
    elapsed, results = _timed_batch(engine, queries, tau, repeats)
    return {
        "mode": mode,
        "chain": CHAINS[mode],
        "graphs": n,
        "queries": q,
        "time_batch_s": elapsed,
        "throughput_qps": len(queries) / elapsed if elapsed else None,
        "candidates": sum(len(r.candidates) for r in results),
        "matches": sum(len(r.matches) for r in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, CI import/sanity check"
    )
    parser.add_argument(
        "--mode",
        choices=("full-report", "legacy", "full"),
        default="full-report",
        help="'legacy'/'full' run only the gate cell under identical "
        "time_* keys, for check_bench_regression.py",
    )
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)

    n, q = (36, 4) if args.smoke else (180, 12)
    tau = 2.0
    repeats = max(1, args.repeats)

    report = {
        "meta": {
            "bench": "filter_tiers",
            "smoke": args.smoke,
            "mode": args.mode,
            "seed": args.seed,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "numpy": numpy_available(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
    }
    if args.mode == "full-report":
        report["chains"] = bench_chains(n, q, tau, repeats, args.seed)
    else:
        report["gate"] = bench_gate(n, q, tau, repeats, args.seed, args.mode)

    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
