#!/usr/bin/env python
"""Compare two bench-report JSONs and fail on timing regressions.

Used by the CI crash-torture job as the fsync overhead gate: an ingest
smoke bench with ``fsync`` always on must land within a generous envelope
of the run with ``fsync`` off::

    python benchmarks/check_bench_regression.py bench_ingest_never.json \
        bench_ingest_always.json --tolerance 3.0 --abs-floor 0.5

Every numeric leaf whose key starts with ``time_`` is compared; the
candidate fails when it exceeds ``baseline * (1 + tolerance) + abs_floor``.
The absolute floor keeps sub-100ms smoke timings from flagging scheduler
noise as a regression.  Exits 0 (all within tolerance) or 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, Tuple


def _time_leaves(obj, prefix: str = "") -> Iterator[Tuple[str, float]]:
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, dict):
                yield from _time_leaves(value, path)
            elif str(key).startswith("time_") and isinstance(value, (int, float)):
                yield path, float(value)


def compare(
    baseline: Dict, candidate: Dict, tolerance: float, abs_floor: float
) -> Tuple[list, list]:
    """Return ``(rows, regressions)`` over the shared ``time_*`` metrics."""
    base = dict(_time_leaves(baseline))
    cand = dict(_time_leaves(candidate))
    rows, regressions = [], []
    for path in sorted(base.keys() & cand.keys()):
        limit = base[path] * (1.0 + tolerance) + abs_floor
        ok = cand[path] <= limit
        rows.append((path, base[path], cand[path], ok))
        if not ok:
            regressions.append(path)
    return rows, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline", help="reference bench JSON")
    parser.add_argument("candidate", help="bench JSON to validate")
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed relative slowdown (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--abs-floor", type=float, default=0.05,
        help="absolute seconds of slack added on top (default 0.05)",
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.candidate) as fh:
        candidate = json.load(fh)

    rows, regressions = compare(baseline, candidate, args.tolerance, args.abs_floor)
    if not rows:
        print("error: no shared time_* metrics between the two reports")
        return 1
    width = max(len(path) for path, *_ in rows)
    for path, base, cand, ok in rows:
        delta = (cand / base - 1.0) * 100 if base else float("inf")
        flag = "ok" if ok else "REGRESSION"
        print(f"{path:<{width}}  {base:9.4f}s -> {cand:9.4f}s  {delta:+7.1f}%  {flag}")
    if regressions:
        print(
            f"{len(regressions)} metric(s) regressed beyond "
            f"{args.tolerance:.0%} + {args.abs_floor}s: {', '.join(regressions)}"
        )
        return 1
    print(f"all {len(rows)} time_* metrics within {args.tolerance:.0%} (+{args.abs_floor}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
