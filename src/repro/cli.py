"""Command-line interface: build, inspect and query SEGOS databases.

Installed as ``python -m repro`` (see ``__main__.py``).  Subcommands::

    build   <graphs.txt> <db.segos>        build + persist a database
    stats   <db.segos>                     index statistics
    query   <db.segos> <query.txt> --tau N range query (first graph of file)
    knn     <db.segos> <query.txt> -k N    k nearest neighbours
    trace   <db.segos> <query.txt> --tau N traced query + span-tree export
    generate {aids,pdg} <out.txt> -n N     write a synthetic corpus
    index build   <db.segos>               (re)write the .segosx mmap sidecar
    index inspect <db.segos> [--verify]    describe / checksum-audit a sidecar
    index scrub   <db.segos> [--repair]    audit / repair torn delta tails

The query file is the usual transaction format; its first graph is the
query.  Everything prints plain text and exits non-zero on bad input.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .core.engine import SegosIndex
from .core.explain import explain_range_query
from .core.join import similarity_self_join
from .core.knn import knn_query
from .core.persistence import (
    database_config,
    load_index,
    save_index,
    sidecar_path_for,
)
from .datasets import aids_like, pdg_like
from .errors import ReproError
from .graphs import io as gio
from .obs import (
    GLOBAL_METRICS,
    prometheus_text,
    write_chrome_trace,
    write_spans_jsonl,
)


def _load_query(path: str):
    pairs = gio.load(path)
    if not pairs:
        raise ReproError(f"no graphs in query file {path!r}")
    return pairs[0][1]


def _cmd_build(args: argparse.Namespace) -> int:
    pairs = gio.load(args.graphs)
    engine = SegosIndex(k=args.k, h=args.h)
    for gid, graph in pairs:
        engine.add(gid, graph)
    save_index(engine, args.output)
    print(
        f"indexed {len(engine)} graphs "
        f"({engine.distinct_star_count()} distinct stars, "
        f"{engine.index_size()} index entries) -> {args.output}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    engine = load_index(args.database)
    orders = [engine.graph(gid).order for gid in engine.gids()]
    print(f"graphs:         {len(engine)}")
    print(f"distinct stars: {engine.distinct_star_count()}")
    print(f"index entries:  {engine.index_size()}")
    if orders:
        print(f"order range:    {min(orders)}..{max(orders)}")
        print(f"avg order:      {sum(orders) / len(orders):.2f}")
    print(f"max degree:     {engine.index.database_max_degree()}")
    print(f"parameters:     k={engine.k} h={engine.h}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    engine = load_index(args.database)
    query = _load_query(args.query)
    if args.explain:
        print(explain_range_query(engine, query, tau=args.tau).render())
        return 0
    if args.metrics:
        # EngineConfig is frozen; swap in a metered copy for this run.
        engine.config = engine.config.override(metrics=True)
    result = engine.range_query(
        query,
        tau=args.tau,
        verify="exact" if args.verify else "none",
        trace=True if args.trace else None,
    )
    kind = "matches" if args.verify else "candidates"
    hits = sorted(result.matches) if args.verify else sorted(map(str, result.candidates))
    print(f"{kind} (tau={args.tau}): {len(hits)}")
    for gid in hits:
        print(f"  {gid}")
    print(
        f"accessed {result.stats.graphs_accessed} graphs, "
        f"pruned {dict(result.stats.pruned_by)}, "
        f"{result.elapsed * 1000:.1f} ms"
    )
    # Degraded execution (worker lost, task timed out, serial fallback) must
    # be visible to the operator, not only in programmatic stats.
    for event in result.stats.degradations:
        print(f"degraded: {event.summary()}")
    if args.trace and result.trace is not None:
        print("trace:")
        print(result.trace.render())
    if args.metrics:
        print(prometheus_text(GLOBAL_METRICS), end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    engine = load_index(args.database)
    query = _load_query(args.query)
    result = engine.range_query(
        query,
        tau=args.tau,
        verify="exact" if args.verify else "none",
        trace=True,
    )
    trace = result.trace
    assert trace is not None  # trace=True guarantees a handle
    print(trace.render())
    spans = trace.spans
    if args.output:
        if args.format == "chrome":
            write_chrome_trace(spans, args.output)
        else:
            write_spans_jsonl(spans, args.output, append=False)
        print(f"wrote {len(spans)} spans ({args.format}) -> {args.output}")
    return 0


def _cmd_knn(args: argparse.Namespace) -> int:
    engine = load_index(args.database)
    query = _load_query(args.query)
    result = knn_query(engine, query, k=args.k)
    print(f"{args.k}-nearest neighbours ({result.rings} rings):")
    for gid, distance in result.neighbours:
        print(f"  {gid}  ged={distance}")
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    engine = load_index(args.database)
    result = similarity_self_join(
        engine, tau=args.tau, verify="exact" if args.verify else "none"
    )
    pairs = sorted(result.matches) if args.verify else sorted(
        (str(a), str(b)) for a, b in result.pairs
    )
    kind = "matched pairs" if args.verify else "candidate pairs"
    print(f"{kind} (tau={args.tau}): {len(pairs)}")
    for a, b in pairs:
        print(f"  {a} -- {b}")
    print(
        f"accessed {result.stats.graphs_accessed} graphs for mapping "
        f"distances, {result.elapsed * 1000:.1f} ms"
    )
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    import dataclasses
    import os

    from .perf import diskcat

    # Rebuild in memory from the text (never trust an existing sidecar
    # here — this command is how you *replace* one), then columnarise.
    engine = load_index(args.database, mmap=False)
    sidecar = args.output or sidecar_path_for(args.database, engine.config)
    pairs = [(gid, engine.graph(gid)) for gid in engine.gids()]
    diskcat.write_sidecar(
        sidecar,
        pairs,
        config=dataclasses.asdict(engine.config),
        generation=0,
        source_size=os.path.getsize(args.database),
        source_sha=diskcat.file_sha256(args.database),
    )
    size = os.path.getsize(sidecar)
    print(
        f"wrote sidecar for {len(pairs)} graphs "
        f"({engine.distinct_star_count()} stars, {size} bytes) -> {sidecar}"
    )
    return 0


def _sidecar_arg(args: argparse.Namespace) -> str:
    """The sidecar ``index inspect``/``scrub`` open: ``--index``, a
    ``.segosx`` path given directly, or the one ``load_index`` would attach
    (the header's ``index_path``, else ``<db>.segosx``)."""
    if args.index:
        return args.index
    if args.database.endswith(".segosx"):
        return args.database
    return sidecar_path_for(args.database, database_config(args.database))


def _cmd_index_inspect(args: argparse.Namespace) -> int:
    import os

    from .perf import diskcat

    sidecar = _sidecar_arg(args)
    database = args.database if sidecar != args.database else None
    disk = diskcat.DiskCatalog(sidecar)
    try:
        header = disk.header
        print(f"sidecar:        {sidecar} ({os.path.getsize(sidecar)} bytes)")
        print(f"format version: {header.version}")
        print(
            f"generation:     {header.generation} "
            f"(base {header.base_generation})"
        )
        print(f"graphs:         {disk.n_graphs}")
        print(f"distinct stars: {disk.n_stars}")
        print(f"labels:         {disk.n_labels}")
        print(f"source:         {header.source_size} bytes, "
              f"sha256 {header.source_sha.hex()[:16]}…")
        segments = disk.delta_segments()
        ops = sum(len(s.ops) for s in segments)
        print(f"delta segments: {len(segments)} ({ops} ops, "
              f"{header.delta_bytes} bytes)")
        if disk.has_embeddings():
            print(f"embeddings:     present ({disk.embedding_bytes()} bytes; "
                  f"embed tier reads them zero-copy)")
        else:
            print("embeddings:     MISSING (pre-embedding layout; the embed "
                  "tier degrades to an on-the-fly build)")
        config = disk.config()
        if config:
            print(f"built with:     k={config.get('k')} h={config.get('h')} "
                  f"delta_compact={config.get('delta_compact')}")
        if database is not None and os.path.exists(database):
            fresh = disk.is_fresh(database)
            print(f"freshness:      {'fresh' if fresh else 'STALE'} "
                  f"against {database}")
        if args.verify:
            problems = disk.verify_checksums()
            if problems:
                for problem in problems:
                    print(f"corrupt: {problem}")
                return 1
            print("checksums:      all sections + delta journal OK")
    finally:
        disk.close()
    return 0


def _cmd_index_scrub(args: argparse.Namespace) -> int:
    from .perf import diskcat

    sidecar = _sidecar_arg(args)
    report = diskcat.scrub_sidecar(sidecar, repair=args.repair)
    print(f"sidecar:  {report.path}")
    if report.clean:
        print("scrub:    clean (header, sections and delta journal OK)")
        return 0
    for problem in report.problems:
        print(f"problem:  {problem}")
    verb = "repaired" if report.repaired else "would repair"
    for action in report.actions:
        print(f"{verb}: {action}")
    if report.fatal:
        print("scrub:    NOT repairable in place -- rebuild with "
              "'repro index build'")
        return 1
    if report.repaired:
        print("scrub:    repaired in place; the sidecar loads again")
        return 0
    print("scrub:    problems found (re-run with --repair to fix in place)")
    return 1


def _cmd_generate(args: argparse.Namespace) -> int:
    maker = aids_like if args.kind == "aids" else pdg_like
    data = maker(args.count, seed=args.seed)
    gio.save(args.output, data.graphs.items())
    print(
        f"wrote {len(data)} {data.name} graphs "
        f"(avg order {data.average_order():.1f}) -> {args.output}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEGOS graph similarity search (ICDE 2012 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build and persist a database")
    build.add_argument("graphs", help="transaction-format graph file")
    build.add_argument("output", help="output .segos database file")
    build.add_argument("-k", type=int, default=100, help="TA top-k (default 100)")
    build.add_argument("--h", type=int, default=1000, help="CA checkpoint period")
    build.set_defaults(func=_cmd_build)

    stats = sub.add_parser("stats", help="print database statistics")
    stats.add_argument("database")
    stats.set_defaults(func=_cmd_stats)

    query = sub.add_parser("query", help="GED range query")
    query.add_argument("database")
    query.add_argument("query", help="file whose first graph is the query")
    query.add_argument("--tau", type=float, required=True, help="GED threshold")
    query.add_argument(
        "--verify", action="store_true", help="verify candidates with exact GED"
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the per-stage EXPLAIN ANALYZE report instead of results",
    )
    query.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree for the query and print it after the results",
    )
    query.add_argument(
        "--metrics",
        action="store_true",
        help="print Prometheus-format query metrics after the results",
    )
    query.set_defaults(func=_cmd_query)

    trace = sub.add_parser(
        "trace", help="run a traced range query and export its span tree"
    )
    trace.add_argument("database")
    trace.add_argument("query", help="file whose first graph is the query")
    trace.add_argument("--tau", type=float, required=True, help="GED threshold")
    trace.add_argument(
        "--verify", action="store_true", help="verify candidates with exact GED"
    )
    trace.add_argument(
        "-o", "--output", help="write the span tree to this file"
    )
    trace.add_argument(
        "--format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="export format: JSONL spans or Chrome trace_event (default jsonl)",
    )
    trace.set_defaults(func=_cmd_trace)

    knn = sub.add_parser("knn", help="k nearest neighbours by exact GED")
    knn.add_argument("database")
    knn.add_argument("query")
    knn.add_argument("-k", type=int, default=5)
    knn.set_defaults(func=_cmd_knn)

    join = sub.add_parser("join", help="similarity self-join of the database")
    join.add_argument("database")
    join.add_argument("--tau", type=float, required=True, help="GED threshold")
    join.add_argument(
        "--verify", action="store_true", help="verify pairs with exact GED"
    )
    join.set_defaults(func=_cmd_join)

    index = sub.add_parser("index", help="manage the .segosx mmap sidecar")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build", help="(re)write the sidecar for an existing database file"
    )
    index_build.add_argument("database", help=".segos database file")
    index_build.add_argument(
        "-o", "--output", help="sidecar path (default <database>.segosx)"
    )
    index_build.set_defaults(func=_cmd_index_build)
    index_inspect = index_sub.add_parser(
        "inspect", help="describe a sidecar (header, sections, deltas)"
    )
    index_inspect.add_argument(
        "database", help=".segos database file (or the .segosx itself)"
    )
    index_inspect.add_argument(
        "--index",
        help="explicit sidecar path (default: the database header's "
        "index_path, else <database>.segosx)",
    )
    index_inspect.add_argument(
        "--verify",
        action="store_true",
        help="CRC-audit every section and delta segment",
    )
    index_inspect.set_defaults(func=_cmd_index_inspect)
    index_scrub = index_sub.add_parser(
        "scrub",
        help="audit a sidecar's CRCs; --repair truncates torn delta tails "
        "in place",
    )
    index_scrub.add_argument(
        "database", help=".segos database file (or the .segosx sidecar itself)"
    )
    index_scrub.add_argument(
        "--index",
        help="explicit sidecar path (default: the database header's "
        "index_path, else <database>.segosx)",
    )
    index_scrub.add_argument(
        "--repair",
        action="store_true",
        help="fix repairable damage in place (adopt orphan delta records, "
        "truncate torn bytes, revert the header to the last intact state)",
    )
    index_scrub.set_defaults(func=_cmd_index_scrub)

    generate = sub.add_parser("generate", help="write a synthetic corpus")
    generate.add_argument("kind", choices=["aids", "pdg"])
    generate.add_argument("output")
    generate.add_argument("-n", "--count", type=int, default=100)
    generate.add_argument("--seed", type=int, default=2012)
    generate.set_defaults(func=_cmd_generate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
