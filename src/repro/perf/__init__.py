"""Performance subsystem: assignment backends, parallelism, the columnar
star-catalog mirror and the on-disk index.

Independent accelerators for the filtering hot path, each opt-out /
configurable via environment variables (see the README's performance table):

* :mod:`repro.perf.assignment` — pluggable assignment-problem backends
  (pure Hungarian vs SciPy) behind :func:`solve_assignment`
  (``REPRO_ASSIGNMENT_BACKEND``);
* :mod:`repro.perf.parallel` — the one process fan-out: batch chunks and
  verification A* runs go to supervised workers that attach the on-disk
  index by :class:`DiskHandle`; an engine without one runs serially
  (``REPRO_BATCH_WORKERS`` / ``REPRO_VERIFY_WORKERS``);
* :mod:`repro.perf.columnar` — a generation-coherent columnar snapshot of
  the star catalog with vectorized batch-SED kernels, backing the ``scan``
  top-k backend.  ``scan`` is the default; ``REPRO_TOPK_BACKEND`` pins
  either it or TA;
* :mod:`repro.perf.diskcat` — the zero-copy on-disk index: the ``.segosx``
  mmap sidecar format, lazily-materialising mapped index views, delta
  segments, and the :class:`DiskHandle` that pool workers attach by
  (``REPRO_INDEX_PATH`` / ``REPRO_DELTA_COMPACT``).
"""

from .assignment import (
    available_backends,
    register_backend,
    resolve_backend,
    scipy_available,
    solve_assignment,
)
from .columnar import ColumnarCatalog, columnar_snapshot
from .diskcat import (
    DiskCatalog,
    DiskHandle,
    LazyGraphStore,
    MappedTwoLevelIndex,
    default_sidecar_path,
)
from .parallel import chunk_evenly, effective_workers

__all__ = [
    "ColumnarCatalog",
    "DiskCatalog",
    "DiskHandle",
    "LazyGraphStore",
    "MappedTwoLevelIndex",
    "available_backends",
    "chunk_evenly",
    "columnar_snapshot",
    "default_sidecar_path",
    "effective_workers",
    "register_backend",
    "resolve_backend",
    "scipy_available",
    "solve_assignment",
]
