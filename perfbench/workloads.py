"""Workloads of the SEGOS benchmark: seeded inputs, timed phases, checks.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one returned.  The corpus is fixed
(:data:`CORPUS_SEED`); queries and mutations come from the run seed alone.
Every timed answer is checked against the exact-GED linear scan after the
clock stops.

A run has three phases:

1. **set-up**, repeated :data:`SETUP_REPEATS` times (median reported):
   build the index, or build + save + first attach for on-disk workloads;
2. **queries** for ``--seconds``: single range queries, or churn cycles
   (reopen → mutate → query → save) in whole epochs.  Between query
   windows of the read-only workload, the clock pauses for rounds of the
   **write probe** (every run reports every end-to-end metric): a batch
   of mutations, a full save to a fresh file and clean reopens, on an
   engine of its own;
3. **exact-answer gate** against ``LinearScan``, outside the timed region.

Time figures are medians over windows spread across the run (query
windows, probe rounds, or churn epochs): the host has slow phases of
several seconds, and a figure sampled in one stretch reads fast or slow
as a whole.  Slower states last minutes; each time sample is corrected
for the host speed measured next to it (see :meth:`Run.recalibrate`).

With ``trace`` on, phase 2 becomes one untraced pass and one traced pass
over the same queries (see :mod:`layers`), followed by probe rounds, and
the persistence calls are timed one by one.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import SegosIndex, sed_cache_clear, sed_cache_info
from repro.baselines.linear import LinearScan
from repro.core.persistence import load_index, save_index, sidecar_path_for
from repro.datasets.corpora import aids_like, pdg_like
from repro.graphs.generators import mutate
from repro.graphs.star import decompose
from repro.perf.columnar import columnar_snapshot

from layers import CA_BOUNDS, LAYERS, GraphView, SpanRecorder, composed_range_query

#: Set-up is repeated this many times per run; the median is reported.
#: The first three or four builds in a process run up to twice as slow.
SETUP_REPEATS = 11
#: Mutations applied per churn cycle: with ``delta_compact`` 0.25 on 1000
#: graphs, every fourth save compacts, so an epoch is four cycles.
MUTATIONS_PER_ROUND = 80
#: Consecutive single queries per ``queries_per_s`` window.
QUERY_WINDOW = 32
#: Write probe of the read-only workload: a round of PROBE_BATCH mutations,
#: one full save and PROBE_REOPENS clean reopens after every PROBE_EVERY
#: query windows (PROBE_ROUNDS rounds in a trace run).
PROBE_EVERY = 2
PROBE_ROUNDS = 11
PROBE_BATCH = 40
PROBE_REOPENS = 5
#: The pool pass of the churn trace run: one exact batch on this many
#: worker processes.
POOL_BATCH = 64
POOL_WORKERS = 2
#: Size-sorted corpus graphs a query source is drawn from (see draw_queries).
SOURCE_BAND = 5
#: Graphs compared field by field after every reopen.
REOPEN_SPOT_CHECKS = 10
MUTATION_KINDS = ("remove", "add", "relabel_vertex", "add_edge")
#: Pool queries the trace run answers untraced and traced.
TRACE_QUERIES = 64
#: Seconds :func:`reference_work` takes on a 2-CPU VM in its fast state.
#: It only fixes the unit: the same constant divides every run.
REFERENCE_SECONDS = 0.012
#: The engine's times move as this power of the reference time when the
#: host changes speed: over 10 runs that spanned a 2.3x range of host
#: speed, the figures' exponents were 0.53 (p95 latency) to 0.99 (set-up).
HOST_SENSITIVITY = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str
    graphs: int
    tau: int
    mode: str  # "single" or "churn"
    #: distinct queries drawn per run; the timed loop cycles through them
    pool: int
    #: percentile reported as query_tail_ms (fixed, so runs compare)
    tail_pct: int
    #: range queries per churn cycle
    cycle_queries: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "aids-tight",
            "AIDS-like, tau=1: top-k and graph-list building dominate and the SED memo fits",
            corpus="aids", graphs=1000, tau=1, mode="single", pool=320, tail_pct=95,
        ),
        Workload(
            "pdg-churn",
            "PDG-like index on disk, cycles of reopen, mutations, queries and delta saves in whole compaction epochs",
            corpus="pdg", graphs=1000, tau=2, mode="churn", pool=0, tail_pct=97,
            cycle_queries=20,
        ),
    )
}


#: The database is fixed, like the paper's AIDS and Linux datasets; the run
#: seed draws the queries and updates.  Drawing the corpus from the run
#: seed too added seed-to-seed spread without exercising other code.
CORPUS_SEED = 2012


def make_corpus(spec: Workload):
    make = aids_like if spec.corpus == "aids" else pdg_like
    return make(spec.graphs, seed=CORPUS_SEED)


def van_der_corput(n: int) -> float:
    """The *n*-th point of the base-2 van der Corput sequence in [0, 1)."""
    point, scale = 0.0, 0.5
    while n:
        n, bit = divmod(n, 2)
        point += bit * scale
        scale /= 2
    return point


def draw_queries(
    graphs, labels, count: int, edits: int, rng, first: int = 0
) -> List[Tuple[str, object]]:
    """*count* ``(source gid, query)`` pairs, sources spread by size.

    The i-th source is drawn from :data:`SOURCE_BAND` neighbours in the
    size-sorted corpus, at point ``first + i`` of the van der Corput
    sequence.  Any run of consecutive points covers the size range
    evenly, so every seed, and every churn run whatever its number of
    cycles, gets the same mix of query sizes; the heavy largest graphs
    otherwise set the throughput and tail of a run.  Each query is its
    source after *edits* random edit operations, so the source is always
    within ``tau = edits`` of it.
    """
    ordered = sorted(graphs, key=lambda gid: (graphs[gid].order, gid))
    band = min(SOURCE_BAND, len(ordered))
    picks = []
    for i in range(count):
        lo = min(int(van_der_corput(first + i) * len(ordered)), len(ordered) - band)
        gid = ordered[rng.randrange(lo, lo + band)]
        picks.append((gid, mutate(rng, graphs[gid], edits, labels)))
    rng.shuffle(picks)
    return picks


def exact_answer(graphs, query, tau: int) -> Set[object]:
    """The exact range answer from ``LinearScan`` (A* GED on every graph).

    Graphs whose vertex count differs from the query's by more than *tau*
    are left out of the scan: each edit operation changes the vertex count
    by at most one, so they cannot be answers.
    """
    band = {
        gid: g for gid, g in graphs.items() if abs(g.order - query.order) <= tau
    }
    return set(LinearScan(band).range_query(query, tau=tau).candidates)


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    It runs no engine code, so no change to the engine moves it; only the
    host's speed does (see :meth:`Run.recalibrate`).  The cyclic collector
    is off while it runs: a collection would walk the engine's young
    objects and make the timing depend on the engine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = random.Random(CORPUS_SEED)
        table: Dict[Tuple[int, int], int] = {}
        for i in range(10000):
            key = (rng.randrange(300), rng.randrange(300))
            table[key] = table.get(key, 0) + i
        sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def percentile(values: Sequence[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values: Sequence[float], default: float = 0.0) -> float:
    return statistics.median(values) if values else default


class Run:
    """One benchmark run: drives the engine, keeps timings, counts failures."""

    def __init__(self, spec: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
        self.spec = spec
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.rng = random.Random(f"{spec.name}:{seed}")
        self.labels: List[str] = []
        #: the generated corpus graphs by gid, templates of added graphs
        self.corpus: List[object] = []
        self.added = 0
        #: query sources drawn so far (the next van der Corput point)
        self.drawn = 0
        # outcome accounting
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        # end-to-end timings
        self.setup_s: List[float] = []
        self.latencies: List[float] = []
        #: queries per second of each query window
        self.qps_windows: List[float] = []
        #: mutations per second of each probe round
        self.mutation_rates: List[float] = []
        self.saves: List[dict] = []
        self.reopens: List[dict] = []
        #: one record per churn cycle (see churn)
        self.cycles: List[dict] = []
        #: host slowdowns measured over the run, and the divisor in use
        #: (see recalibrate)
        self.slowdowns: List[float] = []
        self.slow = 1.0
        # the write probe's engine, shadow and last saved file
        self.writer = None
        self.writer_shadow: Dict[object, object] = {}
        self.writer_path: Optional[Path] = None
        self.probe_rounds = 0
        self.disk_bytes_per_graph = 0.0
        # per-layer
        self.recorder = SpanRecorder()
        self.counters: Counter = Counter()
        self.mutate_us: Dict[str, List[float]] = defaultdict(list)
        self.columnar_ms: List[float] = []
        self.untraced: List[float] = []
        self.sed_hits = 0
        self.sed_misses = 0
        self.sed_fill = 0.0
        self.ta_searches = 0
        self.topk_lookups = 0
        self.pool_busy: List[float] = []
        self.pool_degradations = 0
        self.disk_transport: List[bool] = []
        self.fsyncs = 0
        self.full_writes = 0
        #: base graphs mutated since the last full sidecar write (see mutate_db)
        self.touched: Set[object] = set()
        self.phases: Dict[str, float] = defaultdict(float)

    @contextmanager
    def phase(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] += time.perf_counter() - started

    def recalibrate(self) -> None:
        """Measure the host's speed now: :func:`reference_work` over
        :data:`REFERENCE_SECONDS`.

        The host has slow states, lasting seconds to minutes, in which
        everything runs up to twice as slow.  Each end-to-end time sample
        is divided by the slowdown measured just before it, raised to
        :data:`HOST_SENSITIVITY` (rates are multiplied), so the figures
        read as in the host's fast state.  Traced runs are not normalized.
        """
        if not self.trace:
            slowdown = reference_work() / REFERENCE_SECONDS
            self.slowdowns.append(slowdown)
            self.slow = slowdown ** HOST_SENSITIVITY

    def host_slowdown(self) -> dict:
        """The slowdowns :meth:`recalibrate` measured, for the provenance."""
        if not self.slowdowns:
            return {"samples": 0}
        return {
            "samples": len(self.slowdowns),
            "median": median(self.slowdowns),
            "min": min(self.slowdowns),
            "max": max(self.slowdowns),
        }

    # -- accounting ------------------------------------------------------
    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def _raised(self, what: str, count: int = 1) -> None:
        traceback.print_exc(file=sys.stderr)
        self.fail(f"{what} raised {sys.exc_info()[1]!r}", count)

    # -- set-up ----------------------------------------------------------
    def setup(self, graphs) -> Tuple[object, Path]:
        """Build (and for on-disk workloads save + attach) the index."""
        engine = path = None
        for rep in range(SETUP_REPEATS):
            engine = None
            path = self.workdir / f"setup-{rep}" / "db.segos"
            path.parent.mkdir(parents=True)
            self.recalibrate()
            gc.collect()
            started = time.perf_counter()
            engine = SegosIndex(graphs)
            if self.spec.mode != "single":
                save_index(engine, path)
                engine = load_index(path)
            self.setup_s.append((time.perf_counter() - started) / self.slow)
        return engine, path

    # -- queries ---------------------------------------------------------
    def draw(self, shadow, count: int) -> List[Tuple[str, object]]:
        items = draw_queries(shadow, self.labels, count, self.spec.tau, self.rng, self.drawn)
        self.drawn += count
        return items

    def warm_up(self, engine, graphs) -> None:
        """One untimed query, so lazy one-off set-up is not timed."""
        gid = self.rng.choice(sorted(graphs))
        query = mutate(self.rng, graphs[gid], self.spec.tau, self.labels)
        engine.range_query(query, tau=self.spec.tau, verify="exact")

    def timed_loop(self, engine, pool) -> List[Tuple[int, Optional[frozenset], bool]]:
        """Cycle through *pool* for ``seconds`` of query time.

        Each :data:`QUERY_WINDOW` queries are one ``queries_per_s`` window;
        after every :data:`PROBE_EVERY` windows, one write probe round.
        """
        tau = self.spec.tau
        answers: List[Tuple[int, Optional[frozenset], bool]] = []
        self.recalibrate()
        gc.collect()
        window_start = time.perf_counter()
        query_time = 0.0
        position = 0
        while True:
            idx = position % len(pool)
            position += 1
            t0 = time.perf_counter()
            try:
                result = engine.range_query(pool[idx][1], tau=tau, verify="exact")
                answers.append((idx, frozenset(result.matches), result.verified))
            except Exception:
                self._raised("query")
                answers.append((idx, None, False))
            t1 = time.perf_counter()
            self.latencies.append((t1 - t0) / self.slow)
            query_time += t1 - t0
            if position % QUERY_WINDOW == 0:
                self.qps_windows.append(QUERY_WINDOW / (t1 - window_start) * self.slow)
                self.recalibrate()
                if len(self.qps_windows) % PROBE_EVERY == 0:
                    self.probe_round()
                    gc.collect()
                window_start = time.perf_counter()
            if query_time >= self.seconds:
                break
        return answers

    def untraced_pass(self, engine, items):
        """Each query once through the public API; returns the answers."""
        answers = []
        for _, query in items:
            t0 = time.perf_counter()
            result = engine.range_query(query, tau=self.spec.tau, verify="exact")
            self.untraced.append(time.perf_counter() - t0)
            answers.append((frozenset(result.matches), result.verified))
        return answers

    def traced_pass(self, engine, items, untraced_answers) -> None:
        """The same queries composed layer by layer (see :mod:`layers`)."""
        graphs = GraphView(engine)
        before = sed_cache_info()
        for n, (_, query) in enumerate(items):
            matches = composed_range_query(
                engine, graphs, query, self.spec.tau,
                recorder=self.recorder, counters=self.counters,
                trace_id=f"q{len(self.recorder.spans)}",
            )
            if matches != set(untraced_answers[n][0]):
                self.fail("composed layers disagree with range_query")
        after = sed_cache_info()
        self.sed_hits += after.hits - before.hits
        self.sed_misses += after.misses - before.misses
        self.sed_fill = max(self.sed_fill, after.currsize / max(1, after.maxsize))

    def gate(self, answers, pool, shadow) -> None:
        """Check every answer against the exact linear scan."""
        distinct = sorted({idx for idx, _, _ in answers})
        refs = {i: exact_answer(shadow, pool[i][1], self.spec.tau) for i in distinct}
        for idx, matches, verified in answers:
            self.attempted += 1
            source = pool[idx][0]
            if matches is None:
                continue  # already counted as failed when it raised
            if not verified or matches != refs[idx] or source not in matches:
                self.fail(
                    f"query {idx}: got {len(matches)} matches, exact answer has "
                    f"{len(refs[idx])} (verified={verified})"
                )

    def query_items(self, engine, items, shadow) -> float:
        """Answer *items* (churn queries): untraced, plus traced in trace mode.

        Returns the engine time of the untraced pass.
        """
        try:
            if self.trace:
                self.untraced_pass(engine, items)  # warm-up, as in _trace_queries
                del self.untraced[-len(items):]
                sed_cache_clear()
            answers = self.untraced_pass(engine, items)
        except Exception:
            self._raised("query", count=len(items))
            self.attempted += len(items)
            return 0.0
        seconds = sum(self.untraced[-len(items):])
        if self.trace:
            sed_cache_clear()
            self.traced_pass(engine, items, answers)
        else:
            self.latencies.extend(x / self.slow for x in self.untraced[-len(items):])
        self.gate([(i, m, v) for i, (m, v) in enumerate(answers)], items, shadow)
        return seconds

    # -- writes ----------------------------------------------------------
    def mutate_db(self, engine, shadow, count: int) -> Tuple[int, float]:
        """*count* seeded updates of the four kinds, mirrored in *shadow*.

        Returns the updates that succeeded and the seconds spent in them.
        Each graph is changed at most once between full sidecar writes:
        replaying a delta journal in which one base graph is updated in
        two segments fails at this commit (the lazy graph store lets the
        base copy reappear when the re-added copy is removed).
        """
        rng = self.rng
        done, spent = 0, 0.0
        gc.collect()
        for _ in range(count):
            kind = rng.choice(MUTATION_KINDS)
            target = rng.choice([g for g in shadow if g not in self.touched])
            self.touched.add(target)
            graph = shadow[target]
            free = [
                (u, v) for u in graph.vertices() for v in graph.vertices()
                if u < v and not graph.has_edge(u, v)
            ]
            if kind == "add_edge" and not free:
                kind = "relabel_vertex"
            args: tuple = ()
            if kind == "add":
                self.added += 1
                # A corpus graph, not a live one: copies of copies would
                # grow clusters of near-duplicates, and with them the
                # candidates per query, by a different amount per seed.
                # Compact vertex ids, as a save/reload would renumber them.
                template = rng.choice(self.corpus)
                new, _ = mutate(rng, template, 1, self.labels).relabelled_compact()
                target, args = f"added-{self.added:05d}", (new,)
            elif kind == "relabel_vertex":
                args = (rng.choice(list(graph.vertices())), rng.choice(self.labels))
            elif kind == "add_edge":
                args = rng.choice(free)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                getattr(engine, kind)(target, *args)
            except Exception:
                self._raised(f"mutation {kind}")
                continue
            seconds = time.perf_counter() - t0
            # Mirror the update: Graph has relabel_vertex/add_edge too.  The
            # copy keeps it out of any other shadow sharing the graph.
            if kind == "remove":
                del shadow[target]
            elif kind == "add":
                shadow[target] = args[0]
            else:
                shadow[target] = graph = graph.copy()
                getattr(graph, kind)(*args)
            done += 1
            spent += seconds
            self.mutate_us[kind].append(seconds * 1e6)
        if self.trace:
            # First columnar snapshot after the mutations: the rebuild the
            # next query would otherwise pay inside its top-k layer.
            t0 = time.perf_counter()
            columnar_snapshot(engine.index)
            self.columnar_ms.append((time.perf_counter() - t0) * 1e3)
        return done, spent

    def save(self, engine, path: Path, shadow) -> Optional[bool]:
        """``save_index``; returns whether it was a full write (None: raised)."""
        sidecar = Path(sidecar_path_for(path, engine.config))
        before = sidecar.stat().st_size if sidecar.exists() else 0
        fsyncs = self.fsyncs
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            save_index(engine, path)
        except Exception:
            self._raised("save_index")
            return None
        seconds = time.perf_counter() - t0
        handle = engine.disk_handle()
        full = handle is None or handle.delta_count == 0
        text, after = path.stat().st_size, sidecar.stat().st_size
        self.disk_bytes_per_graph = (text + after) / max(1, len(shadow))
        if full:
            self.touched.clear()
        self.full_writes += full
        self.saves.append({
            "ms": seconds * 1e3 / self.slow,
            "bytes": text + (after if full else after - before),
            "fsyncs": self.fsyncs - fsyncs,
        })
        return full

    def reopen(self, path: Path, shadow):
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            engine = load_index(path)
        except Exception:
            self._raised("load_index")
            return None
        seconds = time.perf_counter() - t0
        handle = engine.disk_handle()
        self.reopens.append({
            "ms": seconds * 1e3 / self.slow,
            "replay_ops": handle.delta_ops if handle is not None else 0,
            "promoted": bool(getattr(engine.index, "promoted", False)),
        })
        if set(engine.gids()) != set(shadow):
            self.fail("reopened index holds a different set of graphs")
        else:
            for gid in self.rng.sample(sorted(shadow), min(REOPEN_SPOT_CHECKS, len(shadow))):
                if engine.graph(gid) != shadow[gid]:
                    self.fail(f"reopened graph {gid} differs from the saved one")
        return engine

    def start_writer(self, shadow) -> None:
        """The write probe's engine, built from its own copy of *shadow*."""
        self.writer_shadow = dict(shadow)
        self.writer = SegosIndex(self.writer_shadow)

    def probe_round(self) -> None:
        """Mutations, a full save and clean reopens on the probe's engine.

        Each save goes to a fresh file, so it is a full write, and each
        reopen is a clean attach of it.  Delta saves and replaying reopens
        are what pdg-churn measures.
        """
        shadow = self.writer_shadow
        done, seconds = self.mutate_db(self.writer, shadow, PROBE_BATCH)
        if seconds:
            self.mutation_rates.append(done / seconds * self.slow)
        previous, self.probe_rounds = self.writer_path, self.probe_rounds + 1
        self.writer_path = self.workdir / f"probe-{self.probe_rounds}" / "db.segos"
        self.writer_path.parent.mkdir()
        if self.save(self.writer, self.writer_path, shadow) is None:
            return
        if previous is not None:
            shutil.rmtree(previous.parent)
        for _ in range(PROBE_REOPENS):
            if self.reopen(self.writer_path, shadow) is None:
                return

    def pool_pass(self, engine, shadow) -> None:
        """One exact batch on :data:`POOL_WORKERS` processes (churn trace run).

        The engine is a clean attach, so workers receive ``DiskHandle``s.
        The pass gives the pool's busy share, degradations and transport
        and the session top-k reuse; no end-to-end figure comes from it.
        """
        items = self.draw(shadow, POOL_BATCH)
        queries = [q for _, q in items]
        transport = engine.disk_handle() is not None
        t0 = time.perf_counter()
        try:
            results = engine.batch_range_query(
                queries, tau=self.spec.tau, verify="exact", workers=POOL_WORKERS
            )
        except Exception:
            self._raised("batch query", count=len(items))
            self.attempted += len(items)
            return
        wall = time.perf_counter() - t0
        self.disk_transport.append(transport)
        self.pool_busy.append(sum(r.elapsed for r in results) / (POOL_WORKERS * wall))
        self.pool_degradations += sum(len(r.stats.degradations) for r in results)
        self.ta_searches += sum(r.stats.ta_searches for r in results)
        self.topk_lookups += sum(len({s.signature for s in decompose(q)}) for q in queries)
        self.gate(
            [(i, frozenset(r.matches), r.verified) for i, r in enumerate(results)],
            items, shadow,
        )

    def churn(self, shadow, path: Path) -> None:
        """Reopen → mutate → query → save cycles, in whole epochs.

        An epoch runs from a clean attach to the save that compacts the
        delta journal again.  The run stops at an epoch boundary once
        ``seconds`` of engine time are spent, so every run has the same mix
        of clean and replaying reopens, delta and full saves.
        """
        timed = 0.0
        epoch = 0
        while True:
            engine = None  # drop the previous cycle's engine before reopening
            self.recalibrate()
            engine = self.reopen(path, shadow)
            if engine is None:
                return
            done, mutation_s = self.mutate_db(engine, shadow, MUTATIONS_PER_ROUND)
            items = self.draw(shadow, self.spec.cycle_queries)
            query_s = self.query_items(engine, items, shadow)
            full = self.save(engine, path, shadow)
            if full is None:
                return
            cycle = {
                "epoch": epoch,
                "reopen_s": self.reopens[-1]["ms"] / 1e3,
                "save_s": self.saves[-1]["ms"] / 1e3,
                "mutations": done,
                "mutation_s": mutation_s / self.slow,
                "queries": len(items),
                "query_s": query_s / self.slow,
            }
            self.cycles.append(cycle)
            # Engine time as it ran, so a slow host makes no run longer.
            timed += self.slow * (
                cycle["reopen_s"] + cycle["mutation_s"] + cycle["query_s"] + cycle["save_s"]
            )
            if full:
                epoch += 1
                if timed >= self.seconds:
                    return
            if len(self.cycles) > 500:
                self.fail("churn never compacted the delta journal")
                return

    # -- the whole run ---------------------------------------------------
    def execute(self) -> None:
        spec = self.spec
        data = make_corpus(spec)
        self.labels = data.labels
        self.corpus = [g for _, g in sorted(data.graphs.items())]
        shadow = data.graphs
        with self.phase("setup"):
            engine, path = self.setup(shadow)
        if self.trace:
            self._count_fsyncs()
        if spec.mode == "churn":
            if self.trace:
                with self.phase("pool"):
                    self.pool_pass(engine, shadow)
            engine = None
            with self.phase("churn"):
                self.churn(shadow, path)
            return
        pool = self.draw(shadow, spec.pool)
        self.start_writer(shadow)
        with self.phase("queries"):
            self.warm_up(engine, shadow)
            if self.trace:
                self._trace_queries(engine, pool, shadow)
            else:
                answers = self.timed_loop(engine, pool)
                if not self.probe_rounds:  # a run too short for one
                    self.probe_round()
        if self.trace:
            with self.phase("write_probe"):
                for _ in range(PROBE_ROUNDS):
                    self.probe_round()
        else:
            with self.phase("gate"):
                self.gate(answers, pool, shadow)

    def _trace_queries(self, engine, pool, shadow) -> None:
        pool = pool[:TRACE_QUERIES]
        # A first untraced pass warms what both timed passes would
        # otherwise pay only once (lazily parsed graphs, snapshots).
        self.untraced_pass(engine, pool)
        self.untraced.clear()
        sed_cache_clear()
        answers = self.untraced_pass(engine, pool)
        sed_cache_clear()
        self.traced_pass(engine, pool, answers)
        self.gate([(i, m, v) for i, (m, v) in enumerate(answers)], pool, shadow)

    def _count_fsyncs(self) -> None:
        real = os.fsync

        def counting_fsync(fd):
            self.fsyncs += 1
            return real(fd)

        os.fsync = counting_fsync

    # -- metrics ---------------------------------------------------------
    def churn_epochs(self) -> List[Dict[str, float]]:
        """Per epoch: mean reopen and save, and mutation throughput."""
        grouped: Dict[int, List[dict]] = defaultdict(list)
        for cycle in self.cycles:
            grouped[cycle["epoch"]].append(cycle)

        return [
            {
                "reopen_ms": statistics.mean(c["reopen_s"] for c in cycles) * 1e3,
                "save_ms": statistics.mean(c["save_s"] for c in cycles) * 1e3,
                "mutations_per_s": sum(c["mutations"] for c in cycles)
                / max(1e-9, sum(c["mutation_s"] for c in cycles)),
            }
            for cycles in grouped.values()
        ]

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        tail = percentile(self.latencies, self.spec.tail_pct) if self.latencies else 0.0
        if self.spec.mode == "churn":
            epochs = self.churn_epochs()
            reopen, save, mutations = (
                median([e[key] for e in epochs])
                for key in ("reopen_ms", "save_ms", "mutations_per_s")
            )
            # Over the whole run: about one query in twelve takes ten times
            # the median, and a 40-query epoch holds too few of them.
            query_s = sum(c["query_s"] for c in self.cycles)
            qps = sum(c["queries"] for c in self.cycles) / query_s if query_s else 0.0
        else:
            qps = median(self.qps_windows)
            reopen = median([r["ms"] for r in self.reopens])
            save = median([s["ms"] for s in self.saves])
            mutations = median(self.mutation_rates)
        return {
            "setup_s": (median(self.setup_s), "s"),
            "queries_per_s": (qps, "1/s"),
            "query_p50_ms": (median(self.latencies) * 1e3, "ms"),
            "query_tail_ms": (tail * 1e3, "ms"),
            "reopen_ms": (reopen, "ms"),
            "save_ms": (save, "ms"),
            "mutations_per_s": (mutations, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "disk_bytes_per_graph": (self.disk_bytes_per_graph, "B"),
        }

    def samples(self) -> Dict[str, int]:
        """How many values each end-to-end median rests on."""
        counts = {
            "setup_s": len(self.setup_s),
            "query_latencies": len(self.latencies),
        }
        if self.spec.mode == "churn":
            counts["churn_epochs"] = len({c["epoch"] for c in self.cycles})
            counts["churn_cycles"] = len(self.cycles)
        else:
            counts["query_windows"] = len(self.qps_windows)
            counts["probe_rounds"] = self.probe_rounds
            counts["reopens"] = len(self.reopens)
        return counts

    def tail_provenance(self) -> dict:
        if not self.latencies:
            return {"percentile": self.spec.tail_pct, "samples": 0, "beyond": 0}
        cut = percentile(self.latencies, self.spec.tail_pct)
        return {
            "percentile": self.spec.tail_pct,
            "samples": len(self.latencies),
            "beyond": sum(1 for x in self.latencies if x > cut),
        }

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        rec, c = self.recorder, self.counters
        queries = [s for s in rec.spans if s.name == "query"]
        traced = [s.end - s.start for s in queries]
        layer_total = sum(rec.busy(name) for name in LAYERS)
        n = len(self.untraced)
        metrics: Dict[str, Tuple[float, str]] = {}
        for name in ("topk", "lists", "decompose", "ca", "verify", "embed", "anchor"):
            metrics[f"{name}.busy_s"] = (rec.busy(name), "s")
        for key in ("topk.searches", "topk.sorted_accesses", "topk.scan_rows", "lists.entries",
                    "ca.graphs_accessed", "ca.full_mu", "ca.entries_scanned", "ca.candidates",
                    "verify.astar_runs", "verify.astar_expansions", "verify.settled_by_bounds",
                    "embed.pruned", "anchor.pruned", "anchor.settled"):
            metrics[key] = (float(c[key]), "count")
        for bound in CA_BOUNDS:
            metrics[f"ca.pruned.{bound}"] = (float(c[f"ca.pruned.{bound}"]), "count")
        metrics["ca.precision"] = (c["ca.matches"] / c["ca.candidates"] if c["ca.candidates"] else 0.0, "frac")
        metrics["verify.astar_match_frac"] = (
            c["verify.astar_matches"] / c["verify.astar_runs"] if c["verify.astar_runs"] else 0.0, "frac")
        metrics["session.topk_reuse_frac"] = (
            1 - self.ta_searches / self.topk_lookups if self.topk_lookups else 0.0, "frac")
        lookups = self.sed_hits + self.sed_misses
        metrics["sed_cache.hit_frac"] = (self.sed_hits / lookups if lookups else 0.0, "frac")
        metrics["sed_cache.misses"] = (float(self.sed_misses), "count")
        metrics["sed_cache.fill_frac"] = (self.sed_fill, "frac")
        metrics["pool.busy_frac"] = (median(self.pool_busy), "frac")
        metrics["pool.degradations"] = (float(self.pool_degradations), "count")
        metrics["pool.disk_transport"] = (
            sum(self.disk_transport) / len(self.disk_transport) if self.disk_transport else 0.0, "frac")
        clean = [r["ms"] for r in self.reopens if not r["replay_ops"]]
        replayed = [r["ms"] for r in self.reopens if r["replay_ops"]]
        metrics["persist.attach_ms"] = (median(clean), "ms")
        metrics["persist.delta_reopen_ms"] = (median(replayed), "ms")
        metrics["persist.replay_ops"] = (
            statistics.mean(r["replay_ops"] for r in self.reopens) if self.reopens else 0.0, "count")
        metrics["persist.promoted"] = (
            statistics.mean(r["promoted"] for r in self.reopens) if self.reopens else 0.0, "frac")
        metrics["persist.save_bytes"] = (median([s["bytes"] for s in self.saves]), "B")
        metrics["persist.fsyncs"] = (
            statistics.mean(s["fsyncs"] for s in self.saves) if self.saves else 0.0, "count")
        metrics["persist.full_writes"] = (float(self.full_writes), "count")
        metrics["columnar.rebuild_ms"] = (median(self.columnar_ms), "ms")
        for kind in MUTATION_KINDS:
            metrics[f"index.mutate_us.{kind}"] = (median(self.mutate_us[kind]), "us")
        metrics["plan.overhead_ms"] = (
            (sum(self.untraced) - layer_total) / n * 1e3 if n else 0.0, "ms")
        metrics["trace.untraced_qps"] = (n / sum(self.untraced) if n else 0.0, "1/s")
        metrics["trace.traced_qps"] = (len(traced) / sum(traced) if traced else 0.0, "1/s")
        metrics["trace.untraced_p50_ms"] = (median(self.untraced) * 1e3, "ms")
        metrics["trace.traced_p50_ms"] = (median(traced) * 1e3, "ms")
        return metrics

    def contrasts(self, layers: Dict[str, Tuple[float, str]]) -> Dict[str, bool]:
        """The layer contrast each workload was designed to show."""
        value = {k: v for k, (v, _) in layers.items()}
        name = self.spec.name
        if name == "aids-tight":
            return {
                "lists outweigh topk": value["lists.busy_s"] > value["topk.busy_s"],
                "SED memo fits": value["sed_cache.fill_frac"] < 1.0,
            }
        busy = {k: value[f"{k}.busy_s"] for k in ("topk", "lists", "ca", "verify")}
        return {
            "CA dominates": busy["ca"] > 0.5 * sum(busy.values()),
            "pool workers attach by DiskHandle": value["pool.disk_transport"] == 1.0,
            "reopen after a delta is slower than a clean attach":
                value["persist.delta_reopen_ms"] > value["persist.attach_ms"] > 0,
            "at least one compaction": value["persist.full_writes"] >= 1,
        }
