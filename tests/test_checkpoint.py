"""Tests of the versioned checkpoint format (``repro.checkpoint``).

The contract under test is *byte-identical continuation*: a driver saved
after N batches and restored — into this process or a freshly spawned one —
must replay the remaining stream to exactly the state an uninterrupted run
reaches: same sparsifier edge dict (set, weights, insertion order), same
graph, same κ, same history fingerprint, same version counter.  The property
is checked in both hierarchy modes.  Committed fixtures saved by the retired
sharded engine pin that its version-1 checkpoints still restore and continue.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    describe_checkpoint,
    is_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.core import InGrassConfig, LRDConfig
from repro.core.incremental import InGrassSparsifier
from repro.graphs.generators import grid_circuit_2d
from repro.service import SparsifierService
from repro.streams.scenarios import DynamicScenarioConfig, build_dynamic_scenario

DENSE_LIMIT = 600

#: Mid-stream checkpoints (after 3 of the scenario's 6 batches) saved by the
#: retired sharded engine, one directory per ``<num_shards>-<executor>-<mode>``
#: configuration it ran.
LEGACY_CHECKPOINTS = Path(__file__).parent / "fixtures" / "legacy_sharded_checkpoints"
LEGACY_CONFIGS = ["1-serial-rebuild", "1-serial-maintain", "2-threads-maintain",
                  "2-processes-rebuild", "4-processes-maintain"]
LEGACY_SHARDED_CHECKPOINT = LEGACY_CHECKPOINTS / "2-serial-maintain"

#: One deterministic churn scenario shared by every round-trip test (and
#: rebuilt bit-identically inside the spawned-process test's child).
SCENARIO_SIDE = 11
SCENARIO_SEED = 4
SCENARIO_KWARGS = dict(
    initial_offtree_density=0.10, final_offtree_density=0.40,
    num_iterations=6, deletion_fraction=0.3,
    condition_dense_limit=DENSE_LIMIT, seed=0,
)


def make_config(hierarchy_mode="rebuild"):
    return InGrassConfig(
        lrd=LRDConfig(seed=0),
        kappa_guard_dense_limit=DENSE_LIMIT,
        kappa_guard_factor=1.8,
        hierarchy_mode=hierarchy_mode,
        seed=0,
    )


@pytest.fixture(scope="module")
def scenario():
    graph = grid_circuit_2d(SCENARIO_SIDE, seed=SCENARIO_SEED)
    return build_dynamic_scenario(graph, DynamicScenarioConfig(**SCENARIO_KWARGS))


def start_driver(scenario, config):
    driver = InGrassSparsifier(config)
    driver.setup(scenario.graph, scenario.initial_sparsifier,
                 target_condition_number=scenario.initial_condition_number)
    return driver


def history_fingerprint(driver):
    return [
        (r.streamed_edges, r.added_edges, r.merged_edges, r.redistributed_edges,
         r.dropped_edges, r.removed_edges, r.repair_edges, r.reweighted_edges,
         r.filtering_level, r.sparsifier_edges)
        for r in driver.history
    ]


def fingerprint(driver, ordered=True):
    """Everything the byte-identical-continuation contract promises.

    ``ordered=False`` compares edge dicts content-wise (set + weights) instead
    of by insertion order: the sharded engine that saved the legacy fixtures
    built its edge dicts in its own order, which a restored unsharded driver
    keeps.
    """
    arrange = (lambda d: list(d.items())) if ordered else (lambda d: sorted(d.items()))
    return {
        "sparsifier": arrange(driver.sparsifier._edges),
        "graph": arrange(driver.graph._edges),
        "version": driver.latest_version,
        "history": history_fingerprint(driver),
        "kappa": driver.condition_number(dense_limit=DENSE_LIMIT),
    }


# --------------------------------------------------------------------------- #
# The round-trip property, across hierarchy modes
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize("saved_by", ["rebuild", "maintain", *LEGACY_CONFIGS])
    def test_mid_stream_save_restore_continues_byte_identically(
            self, scenario, tmp_path, saved_by):
        """``saved_by`` is the hierarchy mode of a checkpoint saved here, or
        the configuration of a legacy fixture saved by the sharded engine."""
        hierarchy_mode = saved_by.rsplit("-", 1)[-1]
        legacy = saved_by != hierarchy_mode
        config = make_config(hierarchy_mode)
        batches = scenario.batches
        half = len(batches) // 2

        uninterrupted = start_driver(scenario, config)
        for batch in batches:
            uninterrupted.update(batch)

        if legacy:
            path = LEGACY_CHECKPOINTS / saved_by
        else:
            interrupted = start_driver(scenario, config)
            for batch in batches[:half]:
                interrupted.update(batch)
            path = tmp_path / "ckpt"
            interrupted.save_checkpoint(path)
        restored = InGrassSparsifier.load_checkpoint(path)
        assert type(restored) is InGrassSparsifier
        assert restored.config == config
        assert len(restored.history) == half
        for batch in batches[half:]:
            restored.update(batch)

        assert fingerprint(restored, ordered=not legacy) == \
            fingerprint(uninterrupted, ordered=not legacy)

    def test_restore_into_fresh_process(self, scenario, tmp_path):
        """The ISSUE's literal clause: restore in a *spawned* interpreter.

        The child rebuilds the (deterministic) scenario, loads the
        checkpoint, replays the second half of the stream and prints its
        fingerprint; the parent holds it to the uninterrupted run's.
        """
        config = make_config(hierarchy_mode="maintain")
        batches = scenario.batches
        half = len(batches) // 2

        uninterrupted = start_driver(scenario, config)
        for batch in batches:
            uninterrupted.update(batch)

        interrupted = start_driver(scenario, config)
        for batch in batches[:half]:
            interrupted.update(batch)
        path = tmp_path / "ckpt"
        interrupted.save_checkpoint(path)

        child_script = f"""
import json, sys
from repro.checkpoint import load_checkpoint
from repro.graphs.generators import grid_circuit_2d
from repro.streams.scenarios import DynamicScenarioConfig, build_dynamic_scenario

graph = grid_circuit_2d({SCENARIO_SIDE}, seed={SCENARIO_SEED})
scenario = build_dynamic_scenario(
    graph, DynamicScenarioConfig(**{SCENARIO_KWARGS!r}))
driver = load_checkpoint({str(path)!r})
for batch in scenario.batches[{half}:]:
    driver.update(batch)
print(json.dumps({{
    "sparsifier": sorted((list(k), v) for k, v in driver.sparsifier._edges.items()),
    "version": driver.latest_version,
    "kappa": driver.condition_number(dense_limit={DENSE_LIMIT}),
}}))
"""
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", child_script],
                              capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        expected = json.loads(json.dumps(sorted(
            (list(k), v) for k, v in uninterrupted.sparsifier._edges.items())))
        assert child["sparsifier"] == expected
        assert child["version"] == uninterrupted.latest_version
        assert child["kappa"] == uninterrupted.condition_number(dense_limit=DENSE_LIMIT)


# --------------------------------------------------------------------------- #
# Format and manifest behaviour
# --------------------------------------------------------------------------- #
class TestFormat:
    @pytest.fixture()
    def saved(self, scenario, tmp_path):
        driver = start_driver(scenario, make_config())
        for batch in scenario.batches[:2]:
            driver.update(batch)
        path = tmp_path / "ckpt"
        save_checkpoint(driver, path)
        return driver, path

    def test_is_checkpoint_and_describe(self, saved, tmp_path):
        driver, path = saved
        assert is_checkpoint(path)
        assert not is_checkpoint(tmp_path / "nothing-here")
        info = describe_checkpoint(path)
        assert info["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert info["driver_class"] == "InGrassSparsifier"
        assert info["version"] == driver.latest_version
        assert info["hierarchy_mode"] == "rebuild"

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent")

    def test_future_format_version_rejected(self, saved):
        _, path = saved
        manifest_path = Path(path) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)

    def test_manifest_is_deterministic(self, scenario, tmp_path):
        """Same state → byte-identical manifest (no timestamps, sorted keys)."""
        driver = start_driver(scenario, make_config())
        driver.update(scenario.batches[0])
        texts = []
        for name in ("a", "b"):
            path = tmp_path / name
            save_checkpoint(driver, path)
            texts.append((Path(path) / "manifest.json").read_text())
        assert texts[0] == texts[1]

    def test_config_survives_without_deprecation_warning(self, saved, recwarn):
        driver, path = saved
        recwarn.clear()
        restored = load_checkpoint(path)
        deprecations = [w for w in recwarn if issubclass(w.category, DeprecationWarning)]
        assert not deprecations
        assert restored.config == driver.config


# --------------------------------------------------------------------------- #
# Service-level restore
# --------------------------------------------------------------------------- #
class TestServiceRestore:
    def test_service_resumes_at_last_epoch(self, scenario, tmp_path):
        service = SparsifierService(make_config())
        service.setup(scenario.graph, scenario.initial_sparsifier,
                      target_condition_number=scenario.initial_condition_number)
        for batch in scenario.batches[:3]:
            service.apply(batch)
        saved_version = service.latest_version
        path = tmp_path / "svc"
        service.save_checkpoint(path)

        restored = SparsifierService.restore(path)
        assert restored.latest_version == saved_version
        assert dict(restored.driver.sparsifier._edges) == \
            dict(service.driver.sparsifier._edges)
        # The restored service keeps serving: apply the next batch and the
        # version moves on from the saved epoch.
        restored.apply(scenario.batches[3])
        assert restored.latest_version > saved_version


# --------------------------------------------------------------------------- #
# Version-1 checkpoints saved by the retired sharded engine
# --------------------------------------------------------------------------- #
class TestLegacyShardedCheckpoint:
    def test_restores_unsharded_and_finishes_bit_exact(self, scenario):
        manifest = json.loads((LEGACY_SHARDED_CHECKPOINT / "manifest.json").read_text())
        assert manifest["driver_class"] == "ShardedSparsifier"
        assert manifest["config"]["num_shards"] == 2
        assert "sharding" in manifest["extra"]

        info = describe_checkpoint(LEGACY_SHARDED_CHECKPOINT)
        assert info["format_version"] == CHECKPOINT_FORMAT_VERSION == 1
        for key in ("executor", "num_shards", "plan_shards", "replans"):
            assert key not in info

        restored = load_checkpoint(LEGACY_SHARDED_CHECKPOINT)
        assert type(restored) is InGrassSparsifier
        assert restored.config == make_config(hierarchy_mode="maintain")
        saved_stats = manifest["extra"]["maintainer_stats"]
        assert restored.maintenance_stats.splices == saved_stats["splices"]
        done = len(restored.history)
        assert done == 3
        for batch in scenario.batches[done:]:
            restored.update(batch)

        uninterrupted = start_driver(scenario, make_config(hierarchy_mode="maintain"))
        for batch in scenario.batches:
            uninterrupted.update(batch)
        assert dict(restored.sparsifier._edges) == dict(uninterrupted.sparsifier._edges)
        assert dict(restored.graph._edges) == dict(uninterrupted.graph._edges)
        assert restored.latest_version == uninterrupted.latest_version
