"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish the common failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Raised for invalid graph construction or mutation requests."""


class VertexNotFound(GraphError, KeyError):
    """Raised when an operation references a vertex id that does not exist."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex!r} does not exist")
        self.vertex = vertex


class EdgeNotFound(GraphError, KeyError):
    """Raised when an operation references an edge that does not exist."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) does not exist")
        self.edge = (u, v)


class DuplicateVertex(GraphError, ValueError):
    """Raised when adding a vertex id that is already present."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex!r} already exists")
        self.vertex = vertex


class DuplicateEdge(GraphError, ValueError):
    """Raised when adding an edge that is already present."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) already exists")
        self.edge = (u, v)


class IndexCorruptionError(ReproError):
    """Raised when an internal index invariant is violated.

    This is a defensive error: user code should never be able to trigger it
    through the public API.  Seeing it means a bug inside :mod:`repro.core`.
    """


class GraphNotIndexed(ReproError, KeyError):
    """Raised when querying or removing a graph id unknown to an index."""

    def __init__(self, gid: object) -> None:
        super().__init__(f"graph {gid!r} is not present in the index")
        self.gid = gid


class GraphAlreadyIndexed(ReproError, ValueError):
    """Raised when inserting a graph id that an index already holds."""

    def __init__(self, gid: object) -> None:
        super().__init__(f"graph {gid!r} is already present in the index")
        self.gid = gid


class ParseError(ReproError, ValueError):
    """Raised when parsing a graph database file fails."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        location = f" (line {line_number})" if line_number is not None else ""
        super().__init__(f"{message}{location}")
        self.line_number = line_number


class SidecarError(ReproError, ValueError):
    """Raised when an on-disk ``.segosx`` index sidecar cannot be used.

    Covers a bad magic number, an unknown format version, checksum
    mismatches, and truncated sections.  ``load_index`` treats a sidecar
    that raises this as absent and falls back to rebuilding the index
    from the transaction text, so a corrupt sidecar can never take a
    database down — it only costs the rebuild it was meant to avoid.
    """


def _sha_prefix(sha: object) -> str:
    """Render a SHA-256 (bytes or hex string) as a short readable prefix."""
    if sha is None:
        return "?"
    if isinstance(sha, (bytes, bytearray)):
        sha = bytes(sha).hex()
    return f"{str(sha)[:12]}…"


class StaleSidecarError(SidecarError):
    """Raised when a sidecar is well-formed but out of date.

    Staleness is detected by comparing the graph file's size and content
    hash against the values recorded in the sidecar header, and — for
    worker processes attaching via a :class:`~repro.core.persistence.DiskHandle`
    — by comparing generation counters with the parent engine.

    The structured keywords (all optional) are appended to the message so
    degraded-worker telemetry is debuggable straight from the CLI's
    ``degraded:`` lines: which sidecar file, which generation the attacher
    expected vs found, and the source-hash prefixes that disagreed.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        expected_generation: int | None = None,
        found_generation: int | None = None,
        expected_sha: object = None,
        found_sha: object = None,
    ) -> None:
        details = []
        if path is not None:
            details.append(f"sidecar={path!r}")
        if expected_generation is not None or found_generation is not None:
            details.append(
                f"generation expected={expected_generation} "
                f"found={found_generation}"
            )
        if expected_sha is not None or found_sha is not None:
            details.append(
                f"sha expected={_sha_prefix(expected_sha)} "
                f"found={_sha_prefix(found_sha)}"
            )
        if details:
            message = f"{message} [{', '.join(details)}]"
        super().__init__(message)
        self.path = path
        self.expected_generation = expected_generation
        self.found_generation = found_generation
        self.expected_sha = expected_sha
        self.found_sha = found_sha


class PoolBrokenError(ReproError):
    """Recorded when a worker process pool dies mid-flight.

    The supervised executor (:mod:`repro.resilience.pool`) converts a
    ``BrokenProcessPool`` into this library error, kills the remains of the
    pool, and hands the unfinished tasks back to the caller to run
    in-process; callers see it in the ``cause`` of a
    :class:`~repro.resilience.telemetry.DegradationEvent` rather than as a
    raised exception.
    """


class WorkerTimeout(ReproError):
    """Recorded when a supervised worker task exceeds its ``task_timeout``.

    A running task cannot be cancelled (``future.cancel()`` is a no-op once
    execution starts), so the supervisor terminates the worker processes
    and hands the unfinished remainder back to the caller to run
    in-process.
    """

    def __init__(self, task_id: object, timeout: float | None) -> None:
        super().__init__(
            f"worker task {task_id!r} exceeded its timeout of {timeout} s"
        )
        self.task_id = task_id
        self.timeout = timeout


class SearchBudgetExceeded(ReproError):
    """Raised when an exact computation exceeds its configured budget.

    Exact graph edit distance is NP-hard; :func:`repro.graphs.edit_distance`
    refuses to expand more than a configurable number of search states so a
    single pathological pair cannot hang a whole experiment.
    """

    def __init__(self, expanded: int, budget: int) -> None:
        super().__init__(
            f"A* search expanded {expanded} states, exceeding the budget of {budget}"
        )
        self.expanded = expanded
        self.budget = budget
