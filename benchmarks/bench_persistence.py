#!/usr/bin/env python
"""Persistence benchmark: mmap cold start vs full rebuild, deltas, transport.

Standalone like the other benches so CI can smoke it without the test
harness::

    PYTHONPATH=src python benchmarks/bench_persistence.py [--smoke]

Writes ``BENCH_persistence.json`` at the repository root with:

1. **cold start curve** — best-of-N wall time of ``load_index`` over a
   corpus-size sweep, once as a full streaming rebuild (``mmap=False``)
   and once attaching the ``.segosx`` sidecar zero-copy, plus the first
   range query on each (the mapped engine defers real work, so the first
   query is where laziness would hide a regression).  The acceptance bar:
   mmap cold start ≥ 10× faster than rebuild at the largest corpus;
2. **delta appends** — save cost after a single mutation with the delta
   journal (append) vs ``delta_compact=0`` (full rewrite), and the reload
   cost with a delta tail to replay;
3. **worker transport** — serial vs pooled batch range queries with the
   ``DiskHandle`` transport (honest numbers: on a single-core container
   the pool cannot win, so ``cpu_count`` is recorded alongside the
   speedup and the ≥ 1× expectation only binds with ≥ 2 cores).

``--mode rebuild`` / ``--mode mmap`` restrict the cold-start section to
one loader while keeping identical ``time_*`` keys, so two runs feed
``check_bench_regression.py`` directly: the mmap run must never be slower
than the rebuild baseline.  ``--check-speedup`` exits non-zero when the
largest corpus misses the 10× bar (CI smoke sizes are exempt — tiny
corpora measure interpreter overhead, not the format).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.engine import SegosIndex  # noqa: E402
from repro.core.persistence import load_index, save_index  # noqa: E402
from repro.datasets import aids_like, sample_queries  # noqa: E402
from repro.perf.columnar import numpy_available  # noqa: E402
from repro.perf.diskcat import default_sidecar_path  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_persistence.json"
SPEEDUP_BAR = 10.0


def _best_of(repeats, fn):
    best, value = None, None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, value


def bench_cold_start(workdir: Path, sizes, repeats: int, mode: str, seed: int):
    """Rebuild-vs-mmap load sweep; identical ``time_*`` keys in every mode.

    Returns a dict keyed ``graphs_<n>`` (not a list) so every cell is
    visible to ``check_bench_regression.py``'s ``time_*`` leaf walk.
    """
    curve = {}
    for n in sizes:
        data = aids_like(n, seed=seed, mean_order=9, stddev=2)
        engine = SegosIndex(data.graphs)
        path = workdir / f"db-{n}.segos"
        time_save, _ = _best_of(1, lambda: save_index(engine, path))
        query = sample_queries(data, 1, seed=seed + 1)[0]
        entry = {
            "graphs": n,
            "text_bytes": path.stat().st_size,
            "sidecar_bytes": os.path.getsize(default_sidecar_path(path)),
            # Save cost is setup, not the compared metric, in single-mode
            # runs — a time_ key there would race two identical full saves
            # against a zero-tolerance gate.
            ("time_save_s" if mode == "both" else "save_s"): time_save,
        }

        def cold_query(loaded):
            return sorted(map(str, loaded.range_query(query, tau=2).candidates))

        answers = {}
        if mode in ("both", "rebuild"):
            t, loaded = _best_of(repeats, lambda: load_index(path, mmap=False))
            entry["time_cold_load_s" if mode == "rebuild" else "time_rebuild_s"] = t
            tq, answers["rebuild"] = _best_of(1, lambda: cold_query(loaded))
            entry["time_first_query_rebuilt_s"] = tq
        if mode in ("both", "mmap"):
            t, loaded = _best_of(repeats, lambda: load_index(path, mmap=True))
            assert loaded.disk_handle() is not None, "sidecar did not attach"
            entry["time_cold_load_s" if mode == "mmap" else "time_mmap_s"] = t
            tq, answers["mmap"] = _best_of(1, lambda: cold_query(loaded))
            entry["time_first_query_mapped_s"] = tq
        if mode == "both":
            assert answers["rebuild"] == answers["mmap"], "loaders disagreed"
            entry["speedup"] = entry["time_rebuild_s"] / entry["time_mmap_s"]
            entry["mmap_10x"] = entry["speedup"] >= SPEEDUP_BAR
        curve[f"graphs_{n}"] = entry
    return curve


def bench_delta(workdir: Path, n: int, repeats: int, seed: int) -> dict:
    """Append-one-delta save vs compacted full rewrite, and replay cost."""
    data = aids_like(n, seed=seed + 7, mean_order=9, stddev=2)
    path = workdir / "delta.segos"

    def mutated_engine(delta_compact):
        engine = SegosIndex(data.graphs, delta_compact=delta_compact)
        save_index(engine, path)
        engine.remove(sorted(engine.gids())[0])
        return engine

    def timed_save(delta_compact):
        best = None
        for _ in range(repeats):
            engine = mutated_engine(delta_compact)  # setup outside the clock
            started = time.perf_counter()
            save_index(engine, path)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best

    time_append = timed_save(0.25)
    time_rewrite = timed_save(0.0)
    engine = mutated_engine(0.25)
    save_index(engine, path)  # leave a one-segment tail on disk
    time_replay_load, loaded = _best_of(repeats, lambda: load_index(path))
    assert loaded.disk_handle() is not None, "delta tail broke the sidecar"
    return {
        "graphs": n,
        "time_delta_append_save_s": time_append,
        "time_full_rewrite_save_s": time_rewrite,
        "time_mmap_load_with_delta_s": time_replay_load,
    }


def bench_transport(workdir: Path, n: int, workers: int, repeats: int, seed: int):
    """Serial vs DiskHandle-pooled batch queries on an mmap-loaded engine."""
    data = aids_like(n, seed=seed + 13, mean_order=9, stddev=2)
    path = workdir / "transport.segos"
    save_index(SegosIndex(data.graphs), path)
    engine = load_index(path)
    assert engine.disk_handle() is not None
    queries = sample_queries(data, 6, seed=seed + 14)

    time_serial, serial = _best_of(
        repeats, lambda: engine._serial_batch_range_query(queries, 2)
    )

    def pooled():
        results = engine.batch_range_query(queries, tau=2, workers=workers)
        events = [e for r in results for e in r.stats.degradations]
        assert not events, f"disk transport degraded: {events}"
        return results

    time_parallel, parallel = _best_of(repeats, pooled)
    assert [sorted(map(str, r.candidates)) for r in serial] == [
        sorted(map(str, r.candidates)) for r in parallel
    ], "pooled transport changed answers"
    cores = os.cpu_count() or 1
    speedup = time_serial / time_parallel if time_parallel else None
    return {
        "graphs": n,
        "queries": len(queries),
        "workers": workers,
        "cpu_count": cores,
        "time_serial_s": time_serial,
        "time_parallel_s": time_parallel,
        "speedup": speedup,
        # Pool wins only bind when the hardware can deliver them.
        "multicore": cores >= 2,
        "parallel_not_slower": bool(speedup and speedup >= 1.0),
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
        choices=("both", "rebuild", "mmap"),
        default="both",
        help="restrict the cold-start section to one loader (identical "
        "time_* keys, for check_bench_regression.py)",
    )
    parser.add_argument(
        "--check-speedup",
        action="store_true",
        help="exit 1 when the largest corpus misses the 10x mmap bar "
        "(ignored with --smoke)",
    )
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)

    import tempfile

    sizes = [20] if args.smoke else [100, 300, 1000]
    repeats = max(1, args.repeats)
    with tempfile.TemporaryDirectory(prefix="bench-persist-") as tmp:
        workdir = Path(tmp)
        report = {
            "meta": {
                "bench": "persistence",
                "smoke": args.smoke,
                "mode": args.mode,
                "seed": args.seed,
                "sizes": sizes,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpu_count": os.cpu_count(),
                "numpy": numpy_available(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            },
            "cold_start": bench_cold_start(
                workdir, sizes, repeats, args.mode, args.seed
            ),
        }
        if args.mode == "both":
            report["delta"] = bench_delta(
                workdir, sizes[-1], repeats, args.seed
            )
            report["transport"] = bench_transport(
                workdir, sizes[-1], args.workers, repeats, args.seed
            )

    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}", file=sys.stderr)

    if args.check_speedup and not args.smoke and args.mode == "both":
        largest = report["cold_start"][f"graphs_{sizes[-1]}"]
        if not largest["mmap_10x"]:
            print(
                f"FAIL: mmap cold start only {largest['speedup']:.1f}x faster "
                f"than rebuild at {largest['graphs']} graphs (bar: {SPEEDUP_BAR}x)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
