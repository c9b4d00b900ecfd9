#!/usr/bin/env python
"""Perf-kernel benchmark: SED memoization, assignment backends, batch parallelism.

Unlike the figure-reproduction benches (which are pytest files), this is a
standalone script so CI can smoke-test the perf layer without the test
harness::

    PYTHONPATH=src python benchmarks/bench_perf_kernels.py [--smoke]

It measures the three accelerators of :mod:`repro.perf` on the bundled
synthetic corpus and writes a machine-readable ``BENCH_perf_kernels.json``
at the repository root, so the perf trajectory is trackable across PRs:

1. **SED memoization** — a repeated-query workload, counting actual
   Lemma 1 evaluations with the cache on vs off (a cache miss is exactly
   one evaluation; a request under the uncached path would be one too);
2. **assignment backends** — ``pure`` vs ``scipy`` wall-time on real star
   cost matrices, asserting bit-identical totals;
3. **batch parallelism** — serial vs process-parallel
   ``batch_range_query`` wall-time on a saved and reloaded copy of the
   corpus, since pool workers attach the on-disk index (honest numbers:
   on a single-core container the parallel path cannot win, so
   ``cpu_count`` is recorded alongside the speedup).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.engine import SegosIndex  # noqa: E402
from repro.core.persistence import load_index, save_index  # noqa: E402
from repro.core.stats import QueryStats  # noqa: E402
from repro.datasets import aids_like, sample_queries  # noqa: E402
from repro.graphs.generators import mutate  # noqa: E402
from repro.matching.mapping import star_cost_matrix  # noqa: E402
from repro.graphs.star import decompose  # noqa: E402
from repro.perf.assignment import scipy_available, solve_assignment  # noqa: E402
from repro.perf.sed_cache import DEFAULT_CAPACITY, GLOBAL_SED_CACHE  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_perf_kernels.json"


def _build_workload(smoke: bool, seed: int):
    """Synthetic corpus + a repeated-query workload with shared vocabulary."""
    import random

    db_size = 40 if smoke else 120
    base_queries = 3 if smoke else 6
    verbatim = 2 if smoke else 8  # times each base query recurs unchanged
    mutants = 1 if smoke else 2  # near-duplicate variants per base query
    data = aids_like(db_size, seed=seed, mean_order=8, stddev=2)
    engine = SegosIndex(data.graphs, k=15, h=50)
    rng = random.Random(seed + 1)
    sources = sample_queries(data, base_queries, seed=seed + 2)
    # Each source recurs verbatim (a dashboard refreshing the same query)
    # and as light mutations (near-duplicate queries that still share most
    # star signatures with the original).
    workload = []
    for source in sources:
        workload.extend(source.copy() for _ in range(verbatim))
        for _ in range(mutants):
            workload.append(mutate(rng, source, 1, data.labels))
    rng.shuffle(workload)
    return data, engine, workload


def bench_sed_memoization(engine, workload, tau: float, repeats: int) -> dict:
    """Cached vs uncached SED over the repeated-query workload."""
    # Uncached: capacity 0 turns the cache into a pass-through, so every
    # lookup is one star_edit_distance invocation.
    time_uncached = None
    for _ in range(repeats):
        GLOBAL_SED_CACHE.clear()
        GLOBAL_SED_CACHE.resize(0)
        started = time.perf_counter()
        uncached_results = [engine.range_query(q, tau=tau) for q in workload]
        elapsed = time.perf_counter() - started
        time_uncached = elapsed if time_uncached is None else min(time_uncached, elapsed)

    # Cached: a miss is one invocation, a hit is zero; hits + misses equals
    # the invocation count the uncached path just paid (same call sites).
    # Each repeat starts from a cleared cache, so the counters are
    # deterministic per pass.
    time_cached = None
    for _ in range(repeats):
        GLOBAL_SED_CACHE.resize(DEFAULT_CAPACITY)
        GLOBAL_SED_CACHE.clear()
        started = time.perf_counter()
        cached_results = [engine.range_query(q, tau=tau) for q in workload]
        elapsed = time.perf_counter() - started
        time_cached = elapsed if time_cached is None else min(time_cached, elapsed)
    info = GLOBAL_SED_CACHE.info()

    for a, b in zip(uncached_results, cached_results):
        assert set(a.candidates) == set(b.candidates), "cache changed answers"
    merged = QueryStats.merged(r.stats for r in cached_results)
    return {
        "queries": len(workload),
        "sed_requests": info.requests,
        "invocations_uncached": info.requests,
        "invocations_cached": info.misses,
        "invocation_reduction": (
            info.requests / info.misses if info.misses else float("inf")
        ),
        "hit_rate": info.hit_rate,
        "per_query_hit_rate": merged.sed_cache_hit_rate,
        "time_uncached_s": time_uncached,
        "time_cached_s": time_cached,
        "time_speedup": time_uncached / time_cached if time_cached else None,
    }


def bench_assignment_backends(data, smoke: bool, seed: int) -> dict:
    """pure vs scipy on the star cost matrices of real graph pairs."""
    import random

    rng = random.Random(seed + 3)
    gids = list(data.graphs)
    pairs = 40 if smoke else 150
    matrices = []
    for _ in range(pairs):
        g1 = data.graphs[rng.choice(gids)]
        g2 = data.graphs[rng.choice(gids)]
        matrices.append(star_cost_matrix(decompose(g1), decompose(g2)))

    timings = {}
    totals = {}
    for backend in ("pure", "scipy"):
        started = time.perf_counter()
        totals[backend] = [solve_assignment(m, backend)[0] for m in matrices]
        timings[backend] = time.perf_counter() - started
    agree = totals["pure"] == totals["scipy"]
    assert agree, "assignment backends disagreed on mapping distances"
    return {
        "matrices": len(matrices),
        "mean_matrix_size": sum(len(m) for m in matrices) / len(matrices),
        "time_pure_s": timings["pure"],
        "time_scipy_s": timings["scipy"],
        "scipy_native": scipy_available(),
        "speedup_scipy_over_pure": (
            timings["pure"] / timings["scipy"] if timings["scipy"] else None
        ),
        "totals_identical": agree,
    }


def bench_batch_parallel(
    engine, workload, tau: float, workers: int, repeats: int
) -> dict:
    """Serial vs process-parallel batch_range_query, equal (cold) footing.

    Both modes run on a saved and reloaded copy of *engine*: pool workers
    attach the on-disk index, and an in-memory engine would run serially.
    Best-of-*repeats* per mode: min wall time is the least-noisy estimator
    on a shared box, and it is applied to both sides symmetrically.
    """
    with tempfile.TemporaryDirectory(prefix="bench-kernels-") as tmp:
        path = Path(tmp) / "db.segos"
        graphs = {gid: engine.graph(gid) for gid in engine.gids()}
        save_index(SegosIndex(graphs, k=engine.k, h=engine.h), path)
        loaded = load_index(path)
        assert loaded.disk_handle() is not None, "sidecar did not attach"

        def timed(n_workers: int):
            best, results = None, None
            for _ in range(repeats):
                GLOBAL_SED_CACHE.clear()
                started = time.perf_counter()
                results = loaded.batch_range_query(
                    workload, tau=tau, workers=n_workers
                )
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
            return best, results

        time_serial, serial = timed(1)
        time_parallel, parallel = timed(workers)
    degraded = [e for r in parallel for e in r.stats.degradations]
    assert not degraded, f"batch pool degraded: {degraded}"
    for a, b in zip(serial, parallel):
        assert set(a.candidates) == set(b.candidates), "parallel changed answers"
    speedup = time_serial / time_parallel if time_parallel else None
    return {
        "queries": len(workload),
        "workers": workers,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "time_serial_s": time_serial,
        "time_parallel_s": time_parallel,
        "speedup": speedup,
        "parallel_beats_serial": bool(speedup and speedup > 1.0),
    }


def main(argv=None) -> int:
    # allow_abbrev off: a typo'd --flag silently matching --smoke (or not)
    # flips which BENCH json gets overwritten.
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, CI import/sanity check"
    )
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--tau", type=float, default=2.0)
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)

    data, engine, workload = _build_workload(args.smoke, args.seed)
    report = {
        "meta": {
            "bench": "perf_kernels",
            "smoke": args.smoke,
            "seed": args.seed,
            "tau": args.tau,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "db_size": len(engine),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "sed_memoization": bench_sed_memoization(
            engine, workload, args.tau, max(1, args.repeats)
        ),
        "assignment_backends": bench_assignment_backends(data, args.smoke, args.seed),
        "batch_parallel": bench_batch_parallel(
            engine, workload, args.tau, args.workers, max(1, args.repeats)
        ),
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
