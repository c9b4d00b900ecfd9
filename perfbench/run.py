"""Seeded end-to-end benchmark of the SEGOS engine (see NOTES.md).

Run from the repository root::

    python3 perfbench/run.py --workload aids-tight --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the separate traced pass and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's provenance.  Spans and the full report are written under
``.perfbench_out/`` in the current directory.  The exit code is 0 only when
every answer matched the exact-GED reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over the engine sources: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def version_of(module: str):
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def stop_children() -> None:
    """Wait for every process the run started to end.

    The traced pdg-churn run starts pool workers through the engine; the
    multiprocessing helper processes (resource tracker, fork server) are
    stopped too, so nothing outlives the run.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        try:
            helper._stop()
        except Exception:  # never started, or already gone
            pass


def main(argv=None) -> int:
    try:
        return bench(argv)
    finally:
        stop_children()


def bench(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    # Every workload runs the default EngineConfig: no REPRO_* knob from
    # the calling shell may leak in.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))

    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(one of {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{stem}-work-{os.getpid()}"
    workdir.mkdir()
    run = workloads.Run(spec, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from repro import EngineConfig

    if args.trace:
        measured = run.per_layer()
        contrasts = run.contrasts(measured)
        run.recorder.write_jsonl(OUT / f"{stem}-spans.jsonl")
    else:
        measured = run.end_to_end()
        contrasts = {}
    correct = run.failed == 0 and run.attempted > 0
    provenance = {
        "workload": spec.name,
        "why": spec.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version_of("numpy"),
        "scipy": version_of("scipy"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "engine_config": {k: repr(v) for k, v in EngineConfig.from_env().knobs().items()},
        "fsync_policy": EngineConfig.from_env().fsync_policy,
        "graphs": spec.graphs,
        "tau": spec.tau,
        "query_tail": run.tail_provenance(),
        "samples": run.samples(),
        "failed_frac": run.failed / max(1, run.attempted),
        "full_sidecar_writes": run.full_writes,
        "phase_seconds": dict(run.phases),
        "host_slowdown": run.host_slowdown(),
        "contrasts": contrasts,
        "problems": run.problems,
    }
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in measured.items()
        },
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({"provenance": provenance, "result": result}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
