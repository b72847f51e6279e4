"""Driver regression tests on churn streams: filtering-level pinning, the
cluster→members index, the maintenance-aware κ guard pool, the relative
distortion cut, insertion-only batches and the removal drop stage's weight
re-homing.

These tests were first written against the sharded update engine, whose
every run was bit-exact with the unsharded :class:`InGrassSparsifier`.  That
engine is gone; the tests keep their ids and pin the same behaviour on the
one remaining driver (the parity statements now compare the batched engine
with the scalar reference and the inlined drop stage with the per-edge
:class:`SimilarityFilter` methods).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InGrassConfig, LRDConfig
from repro.core.distortion import score_edges
from repro.core.filtering import FilterAction, SimilarityFilter
from repro.core.incremental import InGrassSparsifier
from repro.core.setup import run_setup
from repro.core.update import run_kappa_guard, run_removal
from repro.graphs import is_connected
from repro.graphs.generators import grid_circuit_2d
from repro.sparsify.grass import GrassConfig, GrassSparsifier
from repro.streams.edge_stream import MixedBatch
from repro.streams.scenarios import DynamicScenarioConfig, build_dynamic_scenario

DENSE_LIMIT = 600


def make_config(hierarchy_mode="maintain", **kwargs):
    return InGrassConfig(
        lrd=LRDConfig(seed=0),
        kappa_guard_dense_limit=DENSE_LIMIT,
        hierarchy_mode=hierarchy_mode,
        seed=0,
        **kwargs,
    )


@pytest.fixture(scope="module")
def churn_scenario():
    graph = grid_circuit_2d(13, seed=3)
    return build_dynamic_scenario(
        graph,
        DynamicScenarioConfig(
            initial_offtree_density=0.10, final_offtree_density=0.40,
            num_iterations=5, deletion_fraction=0.3,
            condition_dense_limit=DENSE_LIMIT, seed=0,
        ),
    )


@pytest.fixture(scope="module")
def deletion_heavy_scenario():
    """A stream where most events delete edges — exercising the drop stage,
    weight re-homing and (in maintain mode) cluster splices."""
    graph = grid_circuit_2d(13, seed=3)
    return build_dynamic_scenario(
        graph,
        DynamicScenarioConfig(
            initial_offtree_density=0.10, final_offtree_density=0.45,
            num_iterations=6, deletion_fraction=0.6,
            condition_dense_limit=DENSE_LIMIT, seed=2,
        ),
    )


class TestFilteringLevelPinning:
    """The filtering level is a setup-time choice, frozen per setup epoch.

    Maintain-mode splices change cluster sizes, which would drift the
    level-for-target selection mid-stream; a drifted level silently orphans
    every level-keyed structure (the filter map), so the driver pins the
    first resolution (regression test for the divergence the soak found at
    seed 244).
    """

    def test_level_stays_pinned_under_splices(self, deletion_heavy_scenario):
        driver = InGrassSparsifier(make_config(hierarchy_mode="maintain"))
        driver.setup(deletion_heavy_scenario.graph,
                     deletion_heavy_scenario.initial_sparsifier,
                     target_condition_number=deletion_heavy_scenario.initial_condition_number)
        pinned = driver._resolved_config().filtering_level
        assert pinned is not None
        filter_object = driver._ensure_filter()
        for batch in deletion_heavy_scenario.batches:
            driver.update(batch)
        assert driver.maintenance_stats.splices > 0
        assert driver._resolved_config().filtering_level == pinned
        # The persistent filter was never silently replaced by a throwaway
        # rebuilt at a drifted level.
        assert driver._ensure_filter() is filter_object
        assert all(record.filtering_level == pinned for record in driver.history)

    def test_refresh_setup_repins(self, deletion_heavy_scenario):
        driver = InGrassSparsifier(make_config(hierarchy_mode="maintain"))
        driver.setup(deletion_heavy_scenario.graph,
                     deletion_heavy_scenario.initial_sparsifier,
                     target_condition_number=deletion_heavy_scenario.initial_condition_number)
        first = driver._resolved_config()
        driver.refresh_setup()
        # A fresh hierarchy gets a fresh resolution (possibly the same level,
        # but never the stale pinned config object).
        assert driver._pinned_config is None
        assert driver._resolved_config().filtering_level is not None
        assert first.filtering_level is not None

    def test_maintained_filter_matches_fresh_reference_after_churn(
            self, deletion_heavy_scenario):
        """After a full churn stream the maintained filter's buckets must
        equal a fresh scan of the final sparsifier (content-wise) — the
        invariant that makes a maintained filter interchangeable with one
        rebuilt after a checkpoint restore."""
        driver = InGrassSparsifier(make_config(hierarchy_mode="maintain"))
        driver.setup(deletion_heavy_scenario.graph,
                     deletion_heavy_scenario.initial_sparsifier,
                     target_condition_number=deletion_heavy_scenario.initial_condition_number)
        for batch in deletion_heavy_scenario.batches:
            driver.update(batch)
        maintained = driver._ensure_filter()
        reference = SimilarityFilter(driver.sparsifier, driver.setup_result.hierarchy,
                                     maintained.filtering_level)
        for attribute in ("_connectivity", "_intra_cluster_edges"):
            got = {key: set(bucket) for key, bucket
                   in getattr(maintained, attribute).items() if bucket}
            expected = {key: set(bucket) for key, bucket
                        in getattr(reference, attribute).items() if bucket}
            assert got == expected, attribute


class TestClusterMembersIndex:
    def test_matches_label_scan_after_churn(self, churn_scenario):
        """After splices and merges the index equals a fresh label scan."""
        driver = InGrassSparsifier(make_config(hierarchy_mode="maintain"))
        driver.setup(churn_scenario.graph, churn_scenario.initial_sparsifier,
                     target_condition_number=churn_scenario.initial_condition_number)
        hierarchy = driver.setup_result.hierarchy
        # Touch the index before the stream so it is maintained (not lazily
        # rebuilt) through every relabel/append of the maintenance layer.
        for level_index in range(hierarchy.num_levels):
            hierarchy.cluster_members(level_index, 0)
        for batch in churn_scenario.batches:
            driver.update(batch)
        assert driver.maintenance_stats.splices + driver.maintenance_stats.merges > 0
        for level_index in range(hierarchy.num_levels):
            labels = hierarchy.level(level_index).labels
            for cluster in range(hierarchy.level(level_index).num_clusters):
                expected = np.flatnonzero(labels == cluster)
                got = hierarchy.cluster_members(level_index, cluster)
                assert np.array_equal(got, expected), (level_index, cluster)

    def test_relabel_and_append_maintain_index(self):
        graph = grid_circuit_2d(8, seed=7)
        sparsifier = GrassSparsifier(GrassConfig(target_offtree_density=0.2, seed=1)).sparsify(
            graph, evaluate_condition=False).sparsifier
        hierarchy = run_setup(sparsifier, InGrassConfig(lrd=LRDConfig(seed=0))).hierarchy
        level_index = 0
        members_before = hierarchy.cluster_members(level_index, 0).copy()
        if members_before.size < 2:
            pytest.skip("level 0 cluster 0 too small to split")
        fresh = hierarchy.append_cluster(level_index, 0.5)
        moved = members_before[: members_before.size // 2]
        hierarchy.relabel_nodes(level_index, moved, fresh)
        labels = hierarchy.level(level_index).labels
        assert np.array_equal(hierarchy.cluster_members(level_index, fresh),
                              np.flatnonzero(labels == fresh))
        assert np.array_equal(hierarchy.cluster_members(level_index, 0),
                              np.flatnonzero(labels == 0))


# --------------------------------------------------------------------------- #
# Maintenance-aware κ guard
# --------------------------------------------------------------------------- #
class TestMaintenanceAwareGuard:
    def test_drain_splice_neighbourhood(self, churn_scenario):
        driver = InGrassSparsifier(make_config(hierarchy_mode="maintain"))
        driver.setup(churn_scenario.graph, churn_scenario.initial_sparsifier,
                     target_condition_number=churn_scenario.initial_condition_number)
        maintainer = driver.maintainer or driver._ensure_maintainer()
        deletions = churn_scenario.batches[0].deletions
        if not deletions:
            pytest.skip("scenario batch carries no deletions")
        driver.remove(deletions)
        if driver.maintenance_stats.splices == 0:
            pytest.skip("no cluster was spliced by this deletion batch")
        nodes = maintainer.drain_splice_neighbourhood()
        assert nodes.size > 0
        assert np.array_equal(nodes, np.unique(nodes))
        # Drained exactly once.
        assert maintainer.drain_splice_neighbourhood().size == 0

    def test_guard_prefers_split_neighbourhood(self, churn_scenario):
        """With splice reports pending, round 0 candidates touch them."""
        config = make_config(hierarchy_mode="maintain", kappa_guard_factor=1.0)
        driver = InGrassSparsifier(config)
        driver.setup(churn_scenario.graph, churn_scenario.initial_sparsifier,
                     target_condition_number=churn_scenario.initial_condition_number)
        graph, sparsifier = driver.graph, driver.sparsifier
        maintainer = driver._ensure_maintainer()
        similarity_filter = driver._ensure_filter()
        deletions = churn_scenario.batches[0].deletions
        pairs = [pair for pair in deletions if graph.has_edge(*pair)]
        removed = graph.remove_edges(pairs)
        run_removal(sparsifier, driver.setup_result, removed, graph=graph,
                    config=config, target_condition_number=driver.target_condition_number,
                    similarity_filter=similarity_filter, maintainer=maintainer)
        splice_nodes = set(maintainer.drain_splice_neighbourhood().tolist())
        if not splice_nodes:
            pytest.skip("no cluster was spliced by this deletion batch")
        # Re-arm the pool (drain above consumed it) by re-noting the nodes.
        for node in splice_nodes:
            maintainer._splice_neighbourhood[node] = None
        from repro.core.update import _offtree_candidates

        local_pool = {(u, v) for u, v, _ in
                      _offtree_candidates(graph, sparsifier, sorted(splice_nodes))}
        report = run_kappa_guard(sparsifier, driver.setup_result, graph=graph,
                                 config=config,
                                 target_condition_number=driver.target_condition_number,
                                 similarity_filter=similarity_filter, maintainer=maintainer)
        # The pool was drained by the guard pass...
        assert maintainer.drain_splice_neighbourhood().size == 0
        # ...and whenever the guard admitted anything in a first round backed
        # by a non-empty local pool, every first-round edge came from it.
        if report.rounds >= 1 and report.added_edges and local_pool:
            first_round = report.added_edges[: config.kappa_guard_batch]
            for u, v, _ in first_round:
                key = (u, v) if u <= v else (v, u)
                assert key in local_pool, "guard ignored the splice-neighbourhood pool"


# --------------------------------------------------------------------------- #
# Insertion-only batches and the relative distortion cut
# --------------------------------------------------------------------------- #
def _setup_driver(scenario, config):
    driver = InGrassSparsifier(config)
    driver.setup(scenario.graph, scenario.initial_sparsifier,
                 target_condition_number=scenario.initial_condition_number)
    return driver


class TestShardParity:
    def test_insertion_only_batches_match(self, churn_scenario):
        """Plain insertion lists (the paper's protocol) give the same
        sparsifier as the same insertions wrapped in a :class:`MixedBatch`,
        under both the batched engine and the scalar reference."""
        insertions = [edge for batch in churn_scenario.batches for edge in batch.insertions]
        outcomes = {}
        for batch_mode in ("vectorized", "scalar"):
            for wrapped in (False, True):
                driver = _setup_driver(churn_scenario, make_config(
                    hierarchy_mode="rebuild", batch_mode=batch_mode))
                driver.update(MixedBatch(insertions=list(insertions)) if wrapped
                              else insertions)
                outcomes[batch_mode, wrapped] = dict(driver.sparsifier._edges)
        reference = outcomes["vectorized", False]
        assert len(reference) > churn_scenario.initial_sparsifier.num_edges
        for key, edges in outcomes.items():
            assert edges == reference, key

    def test_distortion_threshold_uses_global_median(self, churn_scenario):
        """The relative threshold cut is taken against the median distortion
        of the whole batch, in both engines."""
        insertions = [edge for batch in churn_scenario.batches for edge in batch.insertions]
        dropped_sets = []
        for batch_mode in ("vectorized", "scalar"):
            driver = _setup_driver(churn_scenario, make_config(
                hierarchy_mode="rebuild", batch_mode=batch_mode, distortion_threshold=0.8))
            scores = score_edges(driver.setup_result.embedding, insertions)
            cutoff = 0.8 * float(np.median(scores.distortions))
            expected = {(u, v) for u, v, distortion
                        in zip(scores.us.tolist(), scores.vs.tolist(),
                               scores.distortions.tolist())
                        if distortion < cutoff}
            result = driver.update(insertions)
            dropped = {decision.edge[:2] for decision in result.decisions
                       if decision.action is FilterAction.DROPPED_LOW_DISTORTION}
            assert result.dropped_low_distortion == len(expected) > 0
            assert dropped == expected
            dropped_sets.append(dropped)
        assert dropped_sets[0] == dropped_sets[1]


# --------------------------------------------------------------------------- #
# Removal drop stage
# --------------------------------------------------------------------------- #
def _reference_drop_stage(driver, requested):
    """The drop stage spelled out with the per-edge filter methods.

    For every requested pair the sparsifier carries, in request order:
    remove it, unregister it from the filter, stretch the cached diameters
    (rebuild mode) and re-home any excess weight through
    :meth:`SimilarityFilter.reassign_weight`.
    """
    sparsifier, graph = driver.sparsifier, driver.graph
    similarity_filter = driver._ensure_filter()
    hierarchy = driver.setup_result.hierarchy
    inflation = driver.config.removal_diameter_inflation
    removed, reassigned, discarded, inflated = [], 0.0, 0.0, 0
    for u, v in requested:
        physical = graph.weight(u, v, default=None)
        if not sparsifier.has_edge(u, v):
            continue
        weight = sparsifier.remove_edge(u, v)
        similarity_filter.notify_edge_removed(u, v)
        inflated += hierarchy.note_edge_removed(u, v, inflation_factor=inflation)
        removed.append((u, v, weight))
        if physical is not None and weight > physical:
            if similarity_filter.reassign_weight(u, v, weight - physical):
                reassigned += weight - physical
            else:
                discarded += weight - physical
    return removed, reassigned, discarded, inflated


class TestShardedRemoval:
    def test_removal_weight_rehoming_matches_oracle(self, deletion_heavy_scenario):
        """Reassigned/discarded weight sums are accumulated in request order:
        the inlined drop stage matches the per-edge reference float for float."""
        scenario = deletion_heavy_scenario
        drivers = []
        for _ in range(2):
            driver = _setup_driver(scenario, make_config(hierarchy_mode="rebuild"))
            # Build up merge-absorbed weight first, then delete.
            driver.update([edge for batch in scenario.batches for edge in batch.insertions])
            drivers.append(driver)
        # The batch's deletions plus every sparsifier edge carrying absorbed
        # weight, so the excess re-homing path runs several times.
        sparsifier, graph = drivers[0].sparsifier, drivers[0].graph
        deletions = list(scenario.batches[0].deletions)
        deletions += [(u, v) for u, v, weight in sparsifier.weighted_edges()
                      if weight > graph.weight(u, v) and (u, v) not in deletions]
        remaining = graph.copy()
        requested = []
        for u, v in deletions:
            weight = remaining.remove_edge(u, v)
            if is_connected(remaining):
                requested.append((u, v))
            else:
                remaining.add_edge(u, v, weight)
        result = drivers[0].remove(requested)
        removed, reassigned, discarded, inflated = _reference_drop_stage(
            drivers[1], result.requested)
        assert len(removed) > 2 and reassigned + discarded > 0
        assert result.removed_from_sparsifier == removed
        assert result.reassigned_weight == reassigned
        assert result.discarded_weight == discarded
        assert result.inflated_levels == inflated
