"""Executor runtime: persistent pool, artifact cache.

The contracts under test: the persistent executor is reused across
dispatches and discarded whenever it may be wedged; Monte-Carlo results
are bit-identical for any worker count and pool mode, also when one warm
pool serves distinct testbenches in turn; and the cross-run artifact
cache serves bit-identical results (warm and cold fingerprints equal)
while self-healing corrupt entries.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.montecarlo import run_monte_carlo
from repro.core.batch import BatchTask, run_batch
from repro.perf import two_stage_testbench
from repro.runtime import artifacts
from repro.runtime import pool as runtime_pool
from repro.sizing.specs import ParasiticMode


def _case_tasks(specs, modes=(ParasiticMode.NONE, ParasiticMode.SINGLE_FOLD)):
    return [
        BatchTask(kind="case", technology="0.6um", specs=specs,
                  mode=mode.name)
        for mode in modes
    ]


# ---------------------------------------------------------------------------
# Persistent pool lifecycle
# ---------------------------------------------------------------------------


class TestPersistentPool:
    def test_release_keeps_pool_warm_across_acquires(self):
        with runtime_pool.persistent(True):
            runtime_pool.shutdown()
            first = runtime_pool.acquire(2)
            generation = first.generation
            assert generation == runtime_pool.pool_generation() > 0
            first.release()
            second = runtime_pool.acquire(2)
            assert second.generation == generation
            assert second.executor is first.executor
            second.release()
            runtime_pool.shutdown()

    def test_bigger_request_replaces_pool(self):
        with runtime_pool.persistent(True):
            runtime_pool.shutdown()
            small = runtime_pool.acquire(1)
            small.release()
            grown = runtime_pool.acquire(3)
            assert grown.generation == small.generation + 1
            # A smaller follow-up request fits the grown pool.
            again = runtime_pool.acquire(2)
            assert again.generation == grown.generation
            again.release()
            runtime_pool.shutdown()

    def test_discard_forces_fresh_generation(self):
        with runtime_pool.persistent(True):
            runtime_pool.shutdown()
            lease = runtime_pool.acquire(1)
            lease.discard(wait=True)
            assert runtime_pool.pool_generation() == 0
            fresh = runtime_pool.acquire(1)
            assert fresh.generation == lease.generation + 1
            fresh.release()
            runtime_pool.shutdown()

    def test_disabled_mode_gives_dedicated_pool(self):
        with runtime_pool.persistent(False):
            lease = runtime_pool.acquire(1)
            assert not lease.persistent
            assert lease.state is None
            lease.release()
            # release() in dedicated mode shuts the executor down.
            with pytest.raises(RuntimeError):
                lease.executor.submit(int)

    def test_mc_runs_reuse_one_pool(self, hand_testbench):
        with runtime_pool.persistent(True):
            runtime_pool.shutdown()
            first = run_monte_carlo(hand_testbench, runs=8, seed=7,
                                    workers=2)
            generation = runtime_pool.pool_generation()
            assert generation > 0
            second = run_monte_carlo(hand_testbench, runs=8, seed=7,
                                     workers=2)
            assert runtime_pool.pool_generation() == generation
            assert first.samples == second.samples
            assert all(s.status == "ok" for s in second.shards)
            runtime_pool.shutdown()


class TestMcDeterminism:
    @pytest.fixture(scope="class")
    def baseline(self, hand_testbench):
        return run_monte_carlo(hand_testbench, runs=8, seed=7, workers=1)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_for_any_worker_count(
        self, hand_testbench, baseline, workers
    ):
        result = run_monte_carlo(hand_testbench, runs=8, seed=7,
                                 workers=workers)
        assert result.samples == baseline.samples  # bit-identical
        assert result.mean("offset_voltage") == \
            baseline.mean("offset_voltage")
        assert result.std("offset_voltage") == baseline.std("offset_voltage")

    @pytest.mark.parametrize("pool_on", [True, False])
    def test_bit_identical_for_any_pool_mode(
        self, hand_testbench, baseline, pool_on
    ):
        with runtime_pool.persistent(pool_on):
            result = run_monte_carlo(hand_testbench, runs=8, seed=7,
                                     workers=2)
        assert result.samples == baseline.samples

    def test_warm_pool_serves_alternating_testbenches(self, hand_testbench):
        """The ``yield`` traffic shape: one warm pool runs two distinct
        testbenches in the order A, B, A; every result matches its
        serial run bit for bit and no shard needs recovery."""
        benches = {"a": hand_testbench, "b": two_stage_testbench()}
        serial = {
            name: run_monte_carlo(tb, runs=8, seed=7, workers=1).samples
            for name, tb in benches.items()
        }
        assert serial["a"] != serial["b"]
        with runtime_pool.persistent(True):
            runtime_pool.shutdown()
            generations = set()
            for name in ("a", "b", "a"):
                result = run_monte_carlo(benches[name], runs=8, seed=7,
                                         workers=2)
                generations.add(runtime_pool.pool_generation())
                assert result.samples == serial[name]
                assert [s.status for s in result.shards] == ["ok", "ok"]
            assert len(generations) == 1  # one warm pool served all three
            runtime_pool.shutdown()


# ---------------------------------------------------------------------------
# Cross-run artifact cache
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = artifacts.ArtifactCache(tmp_path)
        key = artifacts.content_key("unit", {"x": 1.5}, ParasiticMode.NONE)
        assert cache.get("unit", key) is None
        assert cache.put("unit", key, {"value": 42})
        assert cache.get("unit", key) == {"value": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_content_key_is_stable_and_discriminating(self):
        a = artifacts.content_key("kind", {"w": 1.0, "l": 2.0})
        b = artifacts.content_key("kind", {"l": 2.0, "w": 1.0})
        c = artifacts.content_key("kind", {"w": 1.0, "l": 2.0000000001})
        assert a == b  # mapping order canonicalized away
        assert a != c  # full float precision discriminates

    def test_corrupt_entry_self_heals(self, tmp_path):
        cache = artifacts.ArtifactCache(tmp_path)
        key = artifacts.content_key("unit", "payload")
        cache.put("unit", key, [1, 2, 3])
        path = cache._path("unit", key)
        path.write_bytes(b"not a pickle")
        assert cache.get("unit", key) is None  # miss, not an error
        assert not path.exists()  # deleted so it cannot shadow the slot

    def test_unpicklable_value_is_skipped(self, tmp_path):
        cache = artifacts.ArtifactCache(tmp_path)
        assert not cache.put("unit", "0" * 64, lambda: None)

    def test_disabled_by_default(self):
        if os.environ.get(artifacts.CACHE_DIR_ENV):
            pytest.skip("cache armed via environment")
        with artifacts.using(None):
            assert artifacts.active() is None


class TestBatchWarmRuns:
    def test_warm_serial_batch_is_served_cached_and_bit_identical(
        self, specs, tmp_path
    ):
        tasks = _case_tasks(specs)
        with artifacts.using(tmp_path):
            cold = run_batch(tasks, jobs=1)
            assert [s.status for s in cold.statuses] == ["serial", "serial"]
            warm = run_batch(tasks, jobs=1)
        assert [s.status for s in warm.statuses] == ["cached", "cached"]
        assert all(s.attempts == 0 for s in warm.statuses)
        assert [r.fingerprint() for r in warm.results] == \
            [r.fingerprint() for r in cold.results]

    def test_warm_pooled_batch_is_served_cached(self, specs, tmp_path):
        tasks = _case_tasks(specs)
        with artifacts.using(tmp_path):
            cold = run_batch(tasks, jobs=2)
            warm = run_batch(tasks, jobs=2)
        assert [s.status for s in cold.statuses] == ["ok", "ok"]
        assert [s.status for s in warm.statuses] == ["cached", "cached"]
        assert [r.fingerprint() for r in warm.results] == \
            [r.fingerprint() for r in cold.results]

    def test_cold_and_warm_fingerprints_match_uncached_run(
        self, specs, tmp_path
    ):
        tasks = _case_tasks(specs)
        with artifacts.using(None):
            plain = run_batch(tasks, jobs=1)
        with artifacts.using(tmp_path):
            cold = run_batch(tasks, jobs=1)
            warm = run_batch(tasks, jobs=1)
        fingerprints = [r.fingerprint() for r in plain.results]
        assert [r.fingerprint() for r in cold.results] == fingerprints
        assert [r.fingerprint() for r in warm.results] == fingerprints
