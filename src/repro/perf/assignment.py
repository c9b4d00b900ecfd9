"""Pluggable assignment-problem backends behind one ``solve_assignment()``.

The mapping distance µ (Definition 1) is an assignment problem over the SED
cost matrix.  The reproduction ships its own O(n³) shortest-augmenting-path
solver (:mod:`repro.matching.hungarian`) so the package stays dependency
free, but when SciPy is installed its C implementation of
``linear_sum_assignment`` solves the same matrices several times faster.

This module is a tiny registry mapping backend names to solver callables
with the :func:`repro.matching.hungarian.hungarian` contract —
``matrix -> (total_cost, row_to_col)`` with ``-1`` for unassigned rows:

* ``pure``  — the in-tree Hungarian solver (always available);
* ``scipy`` — ``scipy.optimize.linear_sum_assignment``, falling back to
  ``pure`` gracefully when SciPy is absent;
* ``auto``  — ``scipy`` when importable, else ``pure`` (the default).

Selection precedence: explicit ``backend=`` argument, then the
``REPRO_ASSIGNMENT_BACKEND`` environment variable, then ``auto``.  All
backends return bit-identical totals on the integer-valued SED matrices the
engine produces (a property test asserts it), so switching backends never
changes filtering decisions.

Incremental column updates (the dynamic Hungarian of Theorem 1) stay on the
stateful pure solver — SciPy has no incremental mode — but every one-shot
solve (full µ, the C-Star linear fallback, and the one-shot partial mapping
distance) routes through here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import ENV_ASSIGNMENT_BACKEND, env_raw

Matrix = Sequence[Sequence[float]]
AssignmentFn = Callable[[Matrix], Tuple[float, List[int]]]

_REGISTRY: Dict[str, AssignmentFn] = {}


def register_backend(name: str) -> Callable[[AssignmentFn], AssignmentFn]:
    """Decorator registering *name* in the backend registry."""

    def decorator(fn: AssignmentFn) -> AssignmentFn:
        _REGISTRY[name] = fn
        return fn

    return decorator


@register_backend("pure")
def _pure_backend(matrix: Matrix) -> Tuple[float, List[int]]:
    # Imported lazily: matching.mapping imports this module, so a top-level
    # import back into repro.matching would be circular.
    from ..matching.hungarian import hungarian

    return hungarian(matrix)


_scipy_lsa: Optional[Callable] = None
_scipy_checked = False


def _load_scipy() -> Optional[Callable]:
    """Return ``linear_sum_assignment`` or None when SciPy is unavailable."""
    global _scipy_lsa, _scipy_checked
    if not _scipy_checked:
        _scipy_checked = True
        try:
            from scipy.optimize import linear_sum_assignment

            _scipy_lsa = linear_sum_assignment
        except Exception:  # pragma: no cover - depends on the environment
            _scipy_lsa = None
    return _scipy_lsa


@register_backend("scipy")
def _scipy_backend(matrix: Matrix) -> Tuple[float, List[int]]:
    lsa = _load_scipy()
    if lsa is None:
        return _pure_backend(matrix)  # graceful degradation, same contract
    n = len(matrix)
    if n == 0:
        return 0.0, []
    if len(matrix[0]) == 0:
        raise ValueError("cost matrix has zero columns")
    row_ind, col_ind = lsa(matrix)
    total = 0.0
    row_to_col = [-1] * n
    for i, j in zip(row_ind, col_ind):
        row_to_col[int(i)] = int(j)
        total += matrix[int(i)][int(j)]
    return float(total), row_to_col


def scipy_available() -> bool:
    """True when the ``scipy`` backend would actually use SciPy."""
    return _load_scipy() is not None


def available_backends() -> Dict[str, bool]:
    """Registered backend names → whether they run natively (no fallback)."""
    return {
        name: (name != "scipy" or scipy_available()) for name in sorted(_REGISTRY)
    }


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend name from argument / environment / ``auto``.

    Raises ``ValueError`` for names absent from the registry, so engines can
    fail fast at construction time instead of mid-query.
    """
    name = backend or env_raw(ENV_ASSIGNMENT_BACKEND) or "auto"
    if name == "auto":
        return "scipy" if scipy_available() else "pure"
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown assignment backend {name!r} "
            f"(registered: {', '.join(sorted(_REGISTRY))}, or 'auto')"
        )
    return name


def solve_assignment(
    matrix: Matrix, backend: Optional[str] = None
) -> Tuple[float, List[int]]:
    """Solve an assignment problem with the selected backend.

    Accepts any rectangular matrix; returns ``(total_cost, row_to_col)``
    with unassigned rows marked ``-1`` — exactly the
    :func:`repro.matching.hungarian.hungarian` contract.
    """
    return _REGISTRY[resolve_backend(backend)](matrix)
