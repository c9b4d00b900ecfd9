"""EngineConfig: precedence (env < constructor < per-call), validation, and
the structural guard that only the config layer touches ``os.environ``."""

from __future__ import annotations

import dataclasses
import pathlib
import subprocess
import sys

import pytest

from repro.config import (
    DEFAULT_VERIFY_BUDGET,
    ENV_ASSIGNMENT_BACKEND,
    ENV_BATCH_WORKERS,
    ENV_KNOBS,
    ENV_TOPK_BACKEND,
    ENV_VERIFY_BUDGET,
    ENV_VERIFY_DEADLINE,
    ENV_VERIFY_WORKERS,
    EngineConfig,
)
from repro.core.engine import SegosIndex
from repro.graphs.model import Graph

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def build_engine(items, **kwargs):
    engine = SegosIndex(**kwargs)
    for gid, graph in items:
        engine.add(gid, graph)
    return engine


class TestPrecedence:
    """env < constructor kwarg < per-call override, for every knob."""

    def test_builtin_defaults(self, monkeypatch):
        for _, env in ENV_KNOBS:
            monkeypatch.delenv(env, raising=False)
        config = EngineConfig.from_env()
        assert config.k == 100
        assert config.h == 1000
        assert config.partial_fraction == 0.5
        assert config.assignment_backend is None
        assert config.topk_backend is None
        assert config.batch_workers == 1
        assert config.verify_workers == 1
        assert config.verify_budget == DEFAULT_VERIFY_BUDGET
        assert config.verify_deadline is None
        assert config.trace is False
        assert config.trace_path is None
        assert config.metrics is False
        assert config.index_path is None
        assert config.delta_compact == 0.25

    def test_env_provides_defaults(self, monkeypatch):
        monkeypatch.setenv(ENV_ASSIGNMENT_BACKEND, "pure")
        monkeypatch.setenv(ENV_TOPK_BACKEND, "scan")
        monkeypatch.setenv(ENV_BATCH_WORKERS, "3")
        monkeypatch.setenv(ENV_VERIFY_WORKERS, "2")
        monkeypatch.setenv(ENV_VERIFY_BUDGET, "12345")
        monkeypatch.setenv(ENV_VERIFY_DEADLINE, "1.5")
        config = EngineConfig.from_env()
        assert config.assignment_backend == "pure"
        assert config.topk_backend == "scan"
        assert config.batch_workers == 3
        assert config.verify_workers == 2
        assert config.verify_budget == 12345
        assert config.verify_deadline == 1.5

    def test_constructor_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_TOPK_BACKEND, "scan")
        monkeypatch.setenv(ENV_VERIFY_WORKERS, "4")
        monkeypatch.setenv(ENV_VERIFY_BUDGET, "77")
        config = EngineConfig.from_env(
            topk_backend="ta", verify_workers=2, verify_budget=99, k=7
        )
        assert config.topk_backend == "ta"
        assert config.verify_workers == 2
        assert config.verify_budget == 99
        assert config.k == 7

    def test_none_override_means_unspecified(self, monkeypatch):
        monkeypatch.setenv(ENV_BATCH_WORKERS, "5")
        config = EngineConfig.from_env(batch_workers=None)
        assert config.batch_workers == 5

    def test_per_call_beats_constructor(self):
        config = EngineConfig.from_env(k=50, h=200)
        derived = config.override(k=5, verify_budget=10)
        assert (derived.k, derived.h, derived.verify_budget) == (5, 200, 10)
        # the base config is untouched (frozen, replace-based)
        assert (config.k, config.verify_budget) == (50, DEFAULT_VERIFY_BUDGET)

    def test_engine_resolves_env_once_at_construction(self, monkeypatch):
        monkeypatch.setenv(ENV_VERIFY_BUDGET, "4242")
        engine = SegosIndex()
        assert engine.config.verify_budget == 4242
        # later environment changes do not affect a constructed engine
        monkeypatch.setenv(ENV_VERIFY_BUDGET, "1")
        assert engine.config.verify_budget == 4242

    def test_engine_kwargs_beat_env(self, monkeypatch):
        monkeypatch.setenv(ENV_TOPK_BACKEND, "scan")
        engine = SegosIndex(topk_backend="ta", k=9)
        assert engine.topk_backend == "ta"
        assert engine.k == 9

    def test_per_call_override_through_real_query(self, small_aids):
        items = list(small_aids.graphs.items())
        engine = build_engine(items[:20], k=100)
        query = items[0][1]
        wide = engine.range_query(query, tau=2)
        narrow = engine.range_query(query, tau=2, k=1)
        # k=1 must actually reach the TA stage: fewer/equal sorted accesses
        assert narrow.stats.ta_accesses <= wide.stats.ta_accesses
        assert engine.config.k == 100  # engine config untouched

    def test_explicit_engine_config_object(self):
        config = EngineConfig.from_env(k=11, h=22)
        engine = SegosIndex(config=config, h=33)
        assert engine.k == 11
        assert engine.h == 33  # kwargs still override an explicit config


class TestValidation:
    def test_frozen(self):
        config = EngineConfig.from_env()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.k = 1

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="unknown EngineConfig field"):
            EngineConfig.from_env(kk=3)
        with pytest.raises(TypeError, match="unknown EngineConfig field"):
            EngineConfig.from_env().override(verify="exact")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"h": 0},
            {"partial_fraction": -0.1},
            {"batch_workers": 0},
            {"verify_workers": 0},
            {"verify_budget": 0},
            {"verify_deadline": 0.0},
            {"delta_compact": -0.1},
            {"task_timeout": 0.0},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig.from_env(**kwargs)

    def test_unknown_assignment_backend_fails_fast(self, monkeypatch):
        with pytest.raises(ValueError):
            EngineConfig.from_env(assignment_backend="nope")
        monkeypatch.setenv(ENV_ASSIGNMENT_BACKEND, "nope")
        with pytest.raises(ValueError):
            EngineConfig.from_env()

    def test_unknown_topk_env_degrades_to_auto(self, monkeypatch):
        monkeypatch.setenv(ENV_TOPK_BACKEND, "warp-drive")
        assert EngineConfig.from_env().topk_backend is None
        with pytest.raises(ValueError):
            EngineConfig.from_env(topk_backend="warp-drive")

    def test_retired_auto_topk_env_degrades_to_default(self, monkeypatch):
        monkeypatch.setenv(ENV_TOPK_BACKEND, "auto")
        assert EngineConfig.from_env().topk_backend is None

    def test_retired_auto_topk_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown top-k backend"):
            EngineConfig.from_env(topk_backend="auto")

    def test_knobs_mapping_covers_every_field(self):
        config = EngineConfig.from_env()
        assert set(config.knobs()) == {
            f.name for f in dataclasses.fields(EngineConfig)
        }


class TestEnvIsolation:
    """No module outside the config layer may read os.environ."""

    def test_only_config_layer_touches_environ(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "config.py" and path.parent == SRC:
                continue
            text = path.read_text()
            if "os.environ" in text or "getenv" in text:
                offenders.append(str(path.relative_to(SRC)))
        assert offenders == []

    def test_config_travels_to_subprocess(self):
        # A resolved config must be self-contained: pickling it into a
        # fresh interpreter with a clean environment keeps its values.
        code = (
            "import pickle, sys; "
            "c = pickle.loads(sys.stdin.buffer.read()); "
            "print(c.k, c.verify_budget, c.topk_backend)"
        )
        import pickle

        config = EngineConfig.from_env(k=17, verify_budget=55, topk_backend="ta")
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps(config),
            capture_output=True,
            env={"PYTHONPATH": str(SRC.parent)},
            check=True,
        )
        assert out.stdout.decode().split() == ["17", "55", "ta"]


class TestRetiredKnobs:
    @pytest.mark.parametrize("name", ["max_pool_retries", "retry_backoff"])
    def test_retired_pool_knobs_are_unknown_fields(self, name):
        """The pool runs one round, so its retry knobs are gone: naming one
        is a ``TypeError`` like any other unknown field."""
        with pytest.raises(TypeError):
            SegosIndex(**{name: 1})
        with pytest.raises(TypeError, match="unknown EngineConfig field"):
            EngineConfig.from_env(**{name: 1})
        with pytest.raises(TypeError, match="unknown EngineConfig field"):
            EngineConfig().override(**{name: 1})

    def test_retired_env_knobs_are_ignored(self, monkeypatch, tmp_path):
        """``REPRO_SED_CACHE_SIZE``, ``REPRO_MMAP`` and the pool's
        ``REPRO_MAX_POOL_RETRIES``/``REPRO_RETRY_BACKOFF`` name no knob any
        more: exporting them changes no config field and cannot turn off
        the sidecar attach."""
        from repro.core.persistence import load_index, save_index

        for _, env in ENV_KNOBS:
            monkeypatch.delenv(env, raising=False)
        baseline = EngineConfig.from_env().knobs()
        assert len(baseline) == 18
        assert len(ENV_KNOBS) == 15
        monkeypatch.setenv("REPRO_SED_CACHE_SIZE", "0")
        monkeypatch.setenv("REPRO_MMAP", "0")
        monkeypatch.setenv("REPRO_MAX_POOL_RETRIES", "7")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "3.5")
        assert EngineConfig.from_env().knobs() == baseline

        path = tmp_path / "db.segos"
        save_index(build_engine([("g", Graph(["a", "b"], [(0, 1)]))]), path)
        assert load_index(path).disk_handle() is not None
