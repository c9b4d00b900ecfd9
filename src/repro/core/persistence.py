"""Saving and loading a SEGOS database: text + mmap sidecar.

The durable artifact is unchanged from the first version of this module:
a normal transaction-format graph file whose first line is a ``#segos
{...}`` JSON comment header.  It stays portable, diff-able, and readable
by plain :func:`repro.graphs.io.load`.  Version 2 of the header persists
the engine's *complete* resolved :class:`~repro.config.EngineConfig`
(version-1 files, which recorded only ``k``/``h``/``partial_fraction``,
still load).

What changed is the cold-start path.  Rebuilding the two-level index is a
linear scan (the paper's own construction argument, Figure 14), but linear
in *Python decompose-and-insert* work — the dominant cost of opening a
large database, paid again by every worker process.  ``save_index`` now
also writes a derived, disposable **index sidecar** (``<db>.segosx``, see
:mod:`repro.perf.diskcat`) holding the index as memory-mappable columnar
arrays.  ``load_index`` memory-maps a *fresh* sidecar — freshness is
``(size, SHA-256)`` of the graph file recorded in the sidecar header —
attaches lazily-parsed graph storage over the text file, and replays any
delta segments; a missing, stale, or corrupt sidecar silently falls back
to the streaming rebuild.  Either way the caller gets the same engine,
answering byte-identically.

Small mutations between saves append a delta segment to the sidecar
instead of rewriting it; once the journal outgrows ``delta_compact`` ×
base-graph-count the next save compacts.  The ``(text, sidecar)`` pair is
kept crash-consistent by ordering: the text is replaced atomically first,
and the sidecar's recorded source hash is updated last, so any crash in
between leaves a stale sidecar (→ rebuild), never a wrong index.  Every
write flows through :mod:`repro.perf.durability`'s guarded primitives,
which enforce the fsync discipline ``EngineConfig.fsync_policy`` selects
(and host the deterministic crash points the kill-torture harness uses).
A crash *inside* ``append_delta`` — record durably on disk, header not
yet rewritten — is cheaper than stale: ``_try_mmap_load`` salvages the
orphan tail records (each carries the post-append source ``(size, sha)``)
and attaches without a rebuild; ``repro index scrub --repair`` performs
the equivalent fix in place.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..config import EngineConfig
from ..errors import ParseError, SidecarError, StaleSidecarError
from ..graphs import io as gio
from ..perf import diskcat
from ..perf.diskcat import DiskHandle, default_sidecar_path, file_sha256
from ..perf.durability import (
    fsync_dir,
    guarded_fsync,
    guarded_replace,
    resolve_fsync_policy,
    resolve_io_plan,
)
from .engine import SegosIndex

PathLike = Union[str, Path]

_HEADER_PREFIX = "#segos "
#: Current text-header version.  v1 recorded only k/h/partial_fraction;
#: v2 records the full resolved EngineConfig.  Both load.
_FORMAT_VERSION = 2
#: Config keys of retired knobs that older v2 headers still carry: catalog
#: sharding's three, the SED memo's capacity, the ``mmap`` switch and the
#: pool's two retry knobs.  They are dropped on load; any other unknown key
#: is an error.
_RETIRED_CONFIG_KEYS = (
    "shards", "shard_by", "shard_pivots", "sed_cache_size", "mmap",
    "max_pool_retries", "retry_backoff",
)

__all__ = [
    "DiskHandle", "database_config", "load_index", "save_index", "sidecar_path_for",
]


def sidecar_path_for(path: PathLike, config: EngineConfig, override: Optional[PathLike] = None) -> str:
    """Resolve the sidecar path: explicit arg > config knob > ``<db>.segosx``."""
    if override is not None:
        return os.fspath(override)
    if config.index_path:
        return config.index_path
    return default_sidecar_path(path)


# ---------------------------------------------------------------------------
# Text header
# ---------------------------------------------------------------------------

def _parse_header(first_line: str) -> Tuple[Optional[EngineConfig], bool]:
    """Parse the ``#segos`` header line; returns ``(config, had_header)``.

    Plain transaction files (no header) yield ``(None, False)``; the
    caller then uses environment defaults, matching a bare ``SegosIndex()``.
    """
    if not first_line.startswith(_HEADER_PREFIX):
        return None, False
    try:
        header = json.loads(first_line[len(_HEADER_PREFIX):])
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed #segos header: {exc}", 1) from exc
    version = header.get("version")
    if version == 1:
        # Legacy header: only the three paper knobs; everything else comes
        # from the loading process's environment, as v1 always behaved.
        try:
            return (
                EngineConfig.from_env(
                    k=int(header["k"]),
                    h=int(header["h"]),
                    partial_fraction=float(header["partial_fraction"]),
                ),
                True,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"invalid v1 #segos header: {exc}", 1) from exc
    if version == _FORMAT_VERSION:
        try:
            knobs = dict(header["config"])
            for key in _RETIRED_CONFIG_KEYS:
                knobs.pop(key, None)
            if knobs.get("topk_backend") == "auto":  # the retired planner
                knobs["topk_backend"] = None
            return EngineConfig(**knobs), True
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"invalid v2 #segos header: {exc}", 1) from exc
    raise ParseError(f"unsupported segos file version {version!r}", 1)


def database_config(path: PathLike) -> EngineConfig:
    """The config :func:`load_index` would open *path* with: its header's,
    or the environment defaults for a plain graph file."""
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        config, _ = _parse_header(handle.readline())
    return config if config is not None else EngineConfig.from_env()


def _header_line(engine: SegosIndex) -> str:
    header = {
        "version": _FORMAT_VERSION,
        "graphs": len(engine),
        "config": dataclasses.asdict(engine.config),
    }
    return _HEADER_PREFIX + json.dumps(header, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_index(
    path: PathLike,
    *,
    mmap: bool = True,
    index_path: Optional[PathLike] = None,
) -> SegosIndex:
    """Open a database written by :func:`save_index` (or a plain graph file).

    When a fresh sidecar sits at the resolved sidecar path, the index is
    memory-mapped instead of rebuilt: graphs parse lazily on first access,
    the columnar kernels run directly over the mapped pages, and the
    returned engine carries the :class:`~repro.perf.diskcat.DiskHandle`
    that pool workers attach it by.  Any sidecar
    problem — absent, stale, corrupt, truncated — falls back to the
    streaming rebuild; the two paths return byte-identical engines.
    ``mmap=False`` skips the sidecar and rebuilds from the text — the
    reference the mapped path is checked against.
    """
    path_str = os.fspath(path)
    with open(path_str, "r", encoding="utf-8") as handle:
        first = handle.readline()
        config, had_header = _parse_header(first)
        if config is None:
            config = EngineConfig.from_env()

        sidecar = sidecar_path_for(path_str, config, index_path)
        if mmap and os.path.exists(sidecar):
            engine = _try_mmap_load(path_str, sidecar, config)
            if engine is not None:
                return engine

        # Streaming rebuild: graphs feed the engine one at a time straight
        # off the parser — no intermediate list of the whole database.
        if not had_header:
            handle.seek(0)
        engine = SegosIndex(config=config)
        for gid, graph in gio.iter_graphs(handle):
            engine.add(gid, graph)
        engine._persist_journal = []
    return engine


def _try_mmap_load(
    path: str, sidecar: str, config: EngineConfig
) -> Optional[SegosIndex]:
    """Attach a mapped engine from *sidecar*, or ``None`` to rebuild.

    A stale pairing (the text is newer than the sidecar header claims)
    gets one salvage attempt before falling back: a writer SIGKILLed
    between the delta-record barrier and the header rewrite leaves the
    new record durably on disk *beyond* the header — adopting it
    reattaches without a rebuild.
    """
    try:
        disk = diskcat.DiskCatalog(sidecar)
    except (SidecarError, OSError):
        return None
    try:
        header = disk.header
        try:
            return _attach_mapped(
                path,
                sidecar,
                disk,
                config,
                segments=disk.delta_segments(),
                generation=header.generation,
                source_size=header.source_size,
                source_sha=header.source_sha,
                delta_count=header.delta_count,
            )
        except StaleSidecarError:
            engine = _salvage_mmap_load(path, sidecar, disk, config)
            if engine is None:
                raise
            return engine
    except (SidecarError, ParseError, OSError):
        disk.close()
        return None


def _salvage_mmap_load(
    path: str, sidecar: str, disk: "diskcat.DiskCatalog", config: EngineConfig
) -> Optional[SegosIndex]:
    """Adopt orphan delta records a crashed append left past the header.

    Only an *exact* match salvages: the covered journal prefix must be
    intact and the last complete tail record's salvage token must equal
    the current text's ``(size, sha)`` — then replaying through the tail
    deterministically reproduces the state the dead writer was committing.
    (Workers reopening the same pair rerun the same salvage and reach the
    same generation, so the DiskHandle equality checks still hold.)
    Anything less returns ``None`` and the caller rebuilds.
    """
    try:
        scan = disk.salvage_scan()
    except (SidecarError, OSError):
        return None
    adopted = diskcat.adoptable_tail(scan)
    if not scan.covered_ok or not adopted:
        return None
    last = adopted[-1]
    try:
        if os.path.getsize(path) != last.source_size:
            return None
    except OSError:
        return None
    try:
        return _attach_mapped(
            path,
            sidecar,
            disk,
            config,
            segments=scan.covered + adopted,
            generation=last.generation,
            source_size=last.source_size,
            source_sha=last.source_sha,
            delta_count=disk.header.delta_count + len(adopted),
        )
    except (StaleSidecarError, SidecarError, ParseError, OSError):
        return None


def _attach_mapped(
    path: str,
    sidecar: str,
    disk: "diskcat.DiskCatalog",
    config: EngineConfig,
    *,
    segments: List["diskcat.DeltaSegment"],
    generation: int,
    source_size: int,
    source_sha: bytes,
    delta_count: int,
) -> SegosIndex:
    """Attach + replay one candidate ``(segments, source)`` state."""
    if os.path.getsize(path) != source_size:
        raise StaleSidecarError(
            f"graph file {path!r} changed size",
            path=os.fspath(sidecar),
            expected_sha=source_sha,
        )
    # LazyGraphStore reads + hashes the text once; passing the expected
    # digest makes that single pass double as the freshness check.
    store = diskcat.LazyGraphStore(
        path, base_gids=disk.gid_list(), expected_sha=source_sha
    )
    wrapper = diskcat.MappedTwoLevelIndex(disk)
    # Seed the kernel snapshot with the zero-copy mapped columns.  It is
    # keyed to the *base* generation: delta replay below bumps the
    # counter, and the first query after it patches the snapshot with
    # the stars the replay created or retired.
    wrapper._columnar_snapshot = disk.columnar(wrapper.generation)
    engine = SegosIndex(config=config)
    engine._attach_mapped_storage(wrapper, store, None)
    for segment in segments:
        _replay_segment(engine, segment)
    if engine.index.generation != generation:
        raise StaleSidecarError(
            "delta replay did not reach the expected generation",
            path=os.fspath(sidecar),
            expected_generation=generation,
            found_generation=engine.index.generation,
        )
    engine._sync_disk_source(
        DiskHandle(
            graph_path=os.path.abspath(path),
            index_path=os.path.abspath(sidecar),
            local_generation=engine.index.generation,
            disk_generation=generation,
            source_sha=source_sha.hex(),
            source_size=source_size,
            delta_count=delta_count,
            base_graphs=disk.n_graphs,
            delta_ops=sum(len(segment.ops) for segment in segments),
        )
    )
    return engine


def _replay_segment(engine: SegosIndex, segment: "diskcat.DeltaSegment") -> None:
    """Strictly replay one delta segment through the engine mutators.

    Strict means: an ``add`` of a present gid, or a ``remove``/``update``
    of an absent one, raises :class:`StaleSidecarError` — tolerating them
    would make the generation arithmetic nondeterministic across
    processes, which is what the pool paths' freshness checks hang on.
    """
    for kind, gid, payload in segment.ops:
        present = gid in engine
        if kind == "add":
            if present:
                raise StaleSidecarError(f"delta adds already-present graph {gid!r}")
            engine.add(gid, _parse_delta_graph(gid, payload))
        elif kind == "remove":
            if not present:
                raise StaleSidecarError(f"delta removes absent graph {gid!r}")
            engine.remove(gid)
        elif kind == "update":
            if not present:
                raise StaleSidecarError(f"delta updates absent graph {gid!r}")
            engine.remove(gid)
            engine.add(gid, _parse_delta_graph(gid, payload))
        else:
            raise StaleSidecarError(f"unknown delta op {kind!r}")


def _parse_delta_graph(gid: str, payload: Optional[str]):
    if not payload:
        raise StaleSidecarError(f"delta op for graph {gid!r} carries no payload")
    try:
        parsed = gio.loads(payload)
    except ParseError as exc:
        raise StaleSidecarError(f"unparsable delta payload for {gid!r}: {exc}") from exc
    if len(parsed) != 1 or parsed[0][0] != gid:
        raise StaleSidecarError(f"delta payload does not describe graph {gid!r}")
    return parsed[0][1]


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------

def save_index(
    engine: SegosIndex,
    path: PathLike,
    *,
    index_path: Optional[PathLike] = None,
) -> None:
    """Write *engine*'s database (text) and index sidecar to *path*.

    The text file is replaced atomically.  The sidecar is written in full
    on a first save, *appended to* (one delta segment holding the net
    per-graph changes since the last sync) when the engine was loaded
    from / last saved to the same pair of files, and compacted back to a
    full rewrite once the accumulated delta ops exceed ``delta_compact`` ×
    base graph count.
    """
    path_str = os.fspath(path)
    config = engine.config
    sidecar = sidecar_path_for(path_str, config, index_path)

    str_gids = all(isinstance(gid, str) for gid in engine.gids())
    net_ops = _plan_delta(engine, path_str, sidecar) if str_gids else None

    if net_ops is not None and not net_ops:
        # Nothing changed since the sync and the files still match the
        # handle: both writes would be byte-for-byte no-ops.  The engine may
        # still have mutated (an add undone by a remove), so the handle
        # moves to its current generation; otherwise it would read stale
        # and pools would run serially until the next real save.
        engine._sync_disk_source(
            dataclasses.replace(
                engine._disk_source, local_generation=engine.index.generation
            )
        )
        return

    delta = None
    if net_ops is not None:
        prev = engine._disk_source
        total = prev.delta_ops + len(net_ops)
        if total <= config.delta_compact * max(1, prev.base_graphs):
            delta = (prev, net_ops, total)

    # One policy + one stateful fault plan for the whole save, so a
    # times=N countdown spans every barrier the operation crosses.
    policy = resolve_fsync_policy(config.fsync_policy)
    plan = resolve_io_plan(config.fault_plan or None)

    # Text first (atomic), sidecar second: a crash in between leaves the
    # sidecar pointing at the old hash — stale, so load falls back.
    store = engine._graphs
    unparsed = isinstance(store, diskcat.LazyGraphStore)
    tmp = f"{path_str}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(_header_line(engine))
            for gid in engine.gids():
                # A mapped graph no query or mutation has parsed is copied
                # as text, unparsed.
                text = store.unparsed_text(gid) if unparsed else None
                if text is None:
                    gio.write_graphs(handle, [(gid, engine.graph(gid))])
                else:
                    handle.write(text)
            # The temp file must be durable *before* the rename publishes
            # it — otherwise a power cut can expose a zero-length text.
            guarded_fsync(
                handle, stage="text.tmp", plan=plan, policy=policy, critical=True
            )
        source_sha = file_sha256(tmp)
        source_size = os.path.getsize(tmp)
        guarded_replace(tmp, path_str, stage="text.replace", plan=plan)
        fsync_dir(path_str, stage="text.dir", plan=plan, policy=policy)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)

    if delta is not None:
        prev, ops, total = delta
        generation = prev.disk_generation + diskcat.replay_generation_bumps(ops)
        diskcat.append_delta(
            sidecar,
            ops,
            generation=generation,
            source_size=source_size,
            source_sha=source_sha,
            fsync_policy=policy,
            fault_plan=plan,
        )
        handle_after = DiskHandle(
            graph_path=os.path.abspath(path_str),
            index_path=os.path.abspath(sidecar),
            local_generation=engine.index.generation,
            disk_generation=generation,
            source_sha=source_sha.hex(),
            source_size=source_size,
            delta_count=prev.delta_count + 1,
            base_graphs=prev.base_graphs,
            delta_ops=total,
        )
    else:
        pairs = [(gid, engine.graph(gid)) for gid in engine.gids()]
        diskcat.write_sidecar(
            sidecar,
            pairs,
            config=dataclasses.asdict(config),
            generation=0,
            source_size=source_size,
            source_sha=source_sha,
            fsync_policy=policy,
            fault_plan=plan,
        )
        handle_after = DiskHandle(
            graph_path=os.path.abspath(path_str),
            index_path=os.path.abspath(sidecar),
            local_generation=engine.index.generation,
            disk_generation=0,
            source_sha=source_sha.hex(),
            source_size=source_size,
            delta_count=0,
            base_graphs=len(pairs),
            delta_ops=0,
        )
    engine._sync_disk_source(handle_after if str_gids else None)


def _plan_delta(
    engine: SegosIndex, path: str, sidecar: str
) -> Optional[List[Tuple[str, str, Optional[str]]]]:
    """The net per-graph ops since the last sync, or ``None`` for full save.

    ``None`` means "no usable delta baseline" (never synced, journal
    overflowed, different target files, or the on-disk pair was modified
    behind our back).  An empty list means "verified byte-identical on
    disk already" — the caller skips both writes.
    """
    prev = engine._disk_source
    if (
        prev is None
        or engine._journal_overflow
        or os.path.abspath(path) != prev.graph_path
        or os.path.abspath(sidecar) != prev.index_path
    ):
        return None
    # The sidecar on disk must still be the one the handle describes —
    # generation, segment count and source hash all agree — otherwise an
    # external writer got there first and appending would corrupt history.
    try:
        header = diskcat.read_header(sidecar)
    except (SidecarError, OSError):
        return None
    if (
        header.generation != prev.disk_generation
        or header.delta_count != prev.delta_count
        or header.source_sha != bytes.fromhex(prev.source_sha)
    ):
        return None

    first_op: dict = {}
    for op, gid in engine._persist_journal:
        first_op.setdefault(gid, op)
    ops: List[Tuple[str, str, Optional[str]]] = []
    for gid in sorted(first_op):
        was_present = first_op[gid] != "add"
        is_present = gid in engine
        if was_present and is_present:
            kind = "update"
        elif was_present:
            kind = "remove"
        elif is_present:
            kind = "add"
        else:
            continue  # added then removed: net no-op
        payload = (
            gio.dumps([(gid, engine.graph(gid))]) if kind != "remove" else None
        )
        ops.append((kind, gid, payload))

    if not ops:
        # Journal nets out to nothing; confirm the text really is the one
        # we synced against before declaring the save a no-op.
        try:
            if (
                os.path.getsize(path) != prev.source_size
                or file_sha256(path) != bytes.fromhex(prev.source_sha)
            ):
                return None
        except OSError:
            return None
    return ops
