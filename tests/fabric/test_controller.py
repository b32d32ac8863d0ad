"""FabricController: routing, execution, rebalancing, lifecycle."""

import os
import signal

import pytest

from repro.comms.communication import Communication, CommunicationSet
from repro.core.config import SchedulerConfig
from repro.exceptions import SchedulingError
from repro.fabric import FabricController
from repro.io import cset_to_dict, schedule_from_dict
from repro.obs import Instrumentation, MetricsRegistry
from repro.service.cache import canonical_signature
from repro.service.pipeline import pin_dispatch
from repro.service.workloads import mixed_workloads


def cs(*pairs):
    return CommunicationSet(Communication(s, d) for s, d in pairs)


def work(cset, n_leaves, tid=0):
    return (tid, cset_to_dict(cset), n_leaves)


class TestConstruction:
    def test_rejects_bad_geometry(self):
        with pytest.raises(SchedulingError, match="tree_count"):
            FabricController(0, 8)
        with pytest.raises(SchedulingError, match="power of two"):
            FabricController(2, 6)
        with pytest.raises(SchedulingError, match="power of two"):
            FabricController(2, 1)

    def test_single_tree_is_legal(self):
        assert FabricController(1, 8, parallel=False).tree_count == 1


class TestRouting:
    def test_route_is_deterministic_and_in_range(self):
        fab = FabricController(4, 64, parallel=False)
        keys = [
            canonical_signature(c, 64)
            for c in mixed_workloads(64, 12, seed=3)
        ]
        shards = [fab.route(k) for k in keys]
        assert shards == [fab.route(k) for k in keys]
        assert all(0 <= s < 4 for s in shards)

    def test_equal_signatures_share_a_shard(self):
        # the cache-coherence property: same placed workload, same tree.
        fab = FabricController(8, 16, parallel=False)
        a = canonical_signature(cs((0, 3), (1, 2)), 16)
        b = canonical_signature(cs((0, 3), (1, 2)), 16)
        assert fab.route(a) == fab.route(b)

    def test_route_tenant_spreads_and_is_stable(self):
        fab = FabricController(4, 16, parallel=False)
        tenants = [f"tenant-{i}" for i in range(32)]
        shards = [fab.route_tenant(t) for t in tenants]
        assert shards == [fab.route_tenant(t) for t in tenants]
        assert len(set(shards)) > 1  # 32 tenants cannot all collide

    def test_crc_not_builtin_hash(self):
        # routing must not depend on the per-process hash salt; the salted
        # builtin hash() would break cross-process agreement.  Pin one
        # routing output so any change to the function is an explicit act.
        fab = FabricController(4, 16, parallel=False)
        assert fab.route_tenant("tenant-0") == fab.route_tenant("tenant-0")
        import zlib

        expected = zlib.crc32(b"0:tenant:tenant-0") % 4
        assert fab.route_tenant("tenant-0") == expected


class TestExecute:
    def test_inline_execution_settles_every_request(self):
        fab = FabricController(2, 8, parallel=False)
        reqs = [work(cs((0, 3)), 8, 1), work(cs((0, 1)), 8, 2)]
        out = fab.execute(reqs, [0, 1])
        assert sorted(r[0] for r in out) == [1, 2]
        assert all(status == "ok" for _, status, _ in out)

    def test_inline_and_pooled_agree_bitwise(self):
        csets = mixed_workloads(16, 6, seed=1)
        reqs = [work(c, 16, i) for i, c in enumerate(csets)]
        shards = [i % 2 for i in range(len(reqs))]
        inline = FabricController(2, 16, parallel=False)
        a = {tid: payload for tid, _, payload in inline.execute(reqs, shards)}
        with FabricController(2, 16) as pooled:
            pin_dispatch(pooled, True)
            b = {
                tid: payload for tid, _, payload in pooled.execute(reqs, shards)
            }
        assert a == b  # serialized schedules, byte-for-byte equal dicts

    def test_mismatched_lengths_rejected(self):
        fab = FabricController(2, 8, parallel=False)
        with pytest.raises(SchedulingError, match="shard ids"):
            fab.execute([work(cs((0, 1)), 8)], [0, 1])

    def test_out_of_range_shard_rejected(self):
        fab = FabricController(2, 8, parallel=False)
        with pytest.raises(SchedulingError, match="out of range"):
            fab.execute([work(cs((0, 1)), 8)], [2])

    def test_load_accounting_per_shard(self):
        fab = FabricController(2, 8, parallel=False)
        fab.execute([work(cs((0, 1)), 8, i) for i in range(3)], [0, 0, 1])
        assert fab.shard_load == [2, 1]

    def test_results_decode_to_real_schedules(self):
        fab = FabricController(2, 8, parallel=False)
        (resp,) = fab.execute([work(cs((0, 3), (1, 2)), 8, 7)], [1])
        tid, status, payload = resp
        assert (tid, status) == (7, "ok")
        assert schedule_from_dict(payload).n_rounds >= 1

    def test_dead_shard_worker_reports_transient_and_recovers(self):
        # SIGKILL the one worker behind shard 0, mid-fabric: its requests
        # come back transient, the pool is discarded, and the next wave
        # runs on a fresh worker.
        with FabricController(2, 8, shard_timeout=5.0) as fab:
            pin_dispatch(fab, True)
            fab.execute([work(cs((0, 1)), 8, 0)], [0])  # spawn the pool
            victim = next(iter(fab._executors[0]._pool._processes))
            os.kill(victim, signal.SIGKILL)
            out = fab.execute([work(cs((0, 1)), 8, 1)], [0])
            assert out == [(1, "transient", out[0][2])]
            assert "failure" in out[0][2]
            assert fab._executors[0]._pool is None
            retry = fab.execute([work(cs((0, 1)), 8, 1)], [0])
            assert retry[0][1] == "ok"


class TestRebalance:
    def build(self, skew=2.0, window=8):
        return FabricController(
            2, 8, parallel=False, rebalance_skew=skew, rebalance_window=window
        )

    def test_skewed_window_rotates_salt(self):
        fab = self.build()
        tenants = [f"t{i}" for i in range(64)]
        before = {t: fab.route_tenant(t) for t in tenants}
        fab.execute([work(cs((0, 1)), 8, i) for i in range(8)], [0] * 8)
        assert fab.maybe_rebalance() is True
        assert fab.rebalances == 1
        assert fab.rebalance_events[0][1] == (8, 0)
        after = {t: fab.route_tenant(t) for t in tenants}
        assert before != after  # the salt moved the mapping

    def test_balanced_window_does_not_rotate(self):
        fab = self.build()
        fab.execute(
            [work(cs((0, 1)), 8, i) for i in range(8)], [0, 1, 0, 1, 0, 1, 0, 1]
        )
        assert fab.maybe_rebalance() is False
        assert fab.rebalances == 0

    def test_under_window_volume_never_judged(self):
        fab = self.build(window=64)
        fab.execute([work(cs((0, 1)), 8, i) for i in range(8)], [0] * 8)
        assert fab.maybe_rebalance() is False

    def test_zero_skew_disables(self):
        fab = self.build(skew=0.0)
        fab.execute([work(cs((0, 1)), 8, i) for i in range(8)], [0] * 8)
        assert fab.maybe_rebalance() is False

    def test_single_tree_never_rebalances(self):
        fab = FabricController(
            1, 8, parallel=False, rebalance_skew=1.0, rebalance_window=1
        )
        fab.execute([work(cs((0, 1)), 8)], [0])
        assert fab.maybe_rebalance() is False


class TestMetricsAndLifecycle:
    def test_fabric_metrics_emitted(self):
        obs = Instrumentation(MetricsRegistry(), run="t")
        fab = FabricController(2, 8, parallel=False, obs=obs)
        fab.execute([work(cs((0, 1)), 8, 0)], [0])
        fab.schedule_global(cs((0, 15), (1, 2)))
        snap = obs.metrics.snapshot()
        names = set(snap["counters"]) | set(snap["gauges"])
        for wanted in (
            "fabric.requests",
            "fabric.shard.load",
            "fabric.cross_shard.pairs",
            "fabric.cross_shard.ratio",
        ):
            assert any(wanted in name for name in names), wanted

    def test_close_is_idempotent_and_context_manager(self):
        with FabricController(2, 8) as fab:
            pin_dispatch(fab, True)
            fab.execute([work(cs((0, 1)), 8)], [0])
        fab.close()
        fab.terminate()
        assert all(e._pool is None for e in fab._executors)

    def test_stats_snapshot(self):
        fab = FabricController(2, 8, parallel=False)
        fab.execute([work(cs((0, 1)), 8)], [1])
        stats = fab.stats()
        assert stats["tree_count"] == 2
        assert stats["shard_load"] == [0, 1]
        assert stats["requests"] == 1
