"""SchedulerService: parity, caching, admission, deadlines, retry."""

from __future__ import annotations

import signal

import pytest

import repro.service.service as service_mod
import repro.service.worker as worker_mod
from repro.comms.communication import Communication, CommunicationSet
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.exceptions import SchedulingError
from repro.io import schedule_to_dict
from repro.obs import Instrumentation, MetricsRegistry
from repro.service import (
    RequestStatus,
    SchedulerService,
    ServiceParityError,
    mixed_workloads,
)
from repro.service.pipeline import pin_dispatch


def cs(*pairs):
    return CommunicationSet([Communication(s, d) for s, d in pairs])


@pytest.fixture
def batch():
    return mixed_workloads(32, 10, seed=3)


class TestParity:
    def test_service_results_bit_identical_to_direct(self, batch):
        with SchedulerService(workers=1) as svc:
            report = svc(batch, n_leaves=32)
        direct = PADRScheduler()
        expected = [schedule_to_dict(direct.schedule(c, n_leaves=32)) for c in batch]
        got = [report.results[t].payload for t in sorted(report.schedules())]
        assert got == expected

    def test_cache_hits_also_bit_identical(self, batch):
        with SchedulerService(workers=1, parity_check=True) as svc:
            svc(batch, n_leaves=32)
            report = svc(batch, n_leaves=32)  # all hits, parity asserted live
        assert report.n_done == len(batch)
        assert report.n_cached == len(batch)

    def test_parity_violation_raises(self, batch, monkeypatch):
        svc = SchedulerService(workers=1, parity_check=True)
        real = worker_mod.schedule_request

        def corrupting(request):
            ticket_id, status, payload = real(request)
            if status == "ok":
                payload = dict(payload, n_leaves=payload["n_leaves"] * 2)
            return (ticket_id, status, payload)

        monkeypatch.setattr(worker_mod, "schedule_request", corrupting)
        svc.submit(batch[0], n_leaves=32)
        with pytest.raises(ServiceParityError):
            svc.drain()


class TestCaching:
    def test_resubmission_hits(self, batch):
        with SchedulerService(workers=1) as svc:
            svc(batch, n_leaves=32)
            report = svc(batch, n_leaves=32)
        assert report.hit_rate == 1.0

    def test_intra_batch_duplicates_computed_once(self, monkeypatch):
        workload = cs((0, 3), (1, 2))
        real = worker_mod.schedule_request
        calls = []

        def counting(request):
            calls.append(request[0])
            return real(request)

        monkeypatch.setattr(worker_mod, "schedule_request", counting)
        with SchedulerService(workers=1) as svc:
            report = svc([workload, workload, workload], n_leaves=8)
        assert report.n_done == 3
        assert report.n_cached == 2  # one leader, two followers
        assert len(calls) == 1  # the leader is the only execution

    def test_config_isolation(self):
        """Schedules computed under one config never serve another."""
        workload = cs((0, 3), (1, 2))
        svc = SchedulerService(workers=1)
        svc([workload], n_leaves=8)
        other = SchedulerService(
            workers=1, config=SchedulerConfig(engine="reference")
        )
        # fresh service, fresh cache — but also fresh *keys*: same workload
        # under a different config signature cannot collide
        from repro.service.cache import canonical_signature

        k1 = canonical_signature(workload, 8, config=svc.config)
        k2 = canonical_signature(workload, 8, config=other.config)
        assert k1.cache_key != k2.cache_key


class TestAdmission:
    def test_queue_bound_rejects_gracefully(self, batch):
        svc = SchedulerService(workers=1, max_queue=3)
        tickets = svc.submit_many(batch[:6], n_leaves=32)
        assert [t.accepted for t in tickets] == [True] * 3 + [False] * 3
        report = svc.drain()
        assert report.n_done == 3
        assert report.n_rejected == 3
        # every ticket settles exactly once
        assert {t.id for t in tickets} == set(report.results)

    def test_invalid_workload_rejected_at_the_door(self):
        svc = SchedulerService(workers=1)
        ticket = svc.submit(cs((5, 2)))  # left-oriented
        assert not ticket.accepted
        assert "right-oriented" in ticket.reason
        report = svc.drain()
        assert report.results[ticket.id].status is RequestStatus.REJECTED

    def test_width_not_a_power_of_two_rejected_at_the_door(self):
        # a tree of 300 leaves cannot be built: the door refuses it with
        # the topology's error instead of a worker failing the request
        svc = SchedulerService(workers=1)
        ticket = svc.submit(cs((0, 3), (1, 2)), n_leaves=300)
        assert not ticket.accepted
        assert ticket.reason == "n_leaves must be a power of two >= 2, got 300"
        report = svc.drain()
        assert report.results[ticket.id].status is RequestStatus.REJECTED
        assert len(svc.cache) == 0 and svc.cache.misses == 0

    def test_constructor_validation(self):
        with pytest.raises(SchedulingError):
            SchedulerService(max_queue=0)
        with pytest.raises(SchedulingError):
            SchedulerService(default_deadline=0)


class TestRetryAndDeadlines:
    def _flaky(self, monkeypatch, fail_times: int):
        """Make the worker fail transiently ``fail_times`` times per ticket."""
        real = worker_mod.schedule_request
        failures: dict[int, int] = {}

        def flaky(request):
            ticket_id = request[0]
            failures.setdefault(ticket_id, 0)
            if failures[ticket_id] < fail_times:
                failures[ticket_id] += 1
                return (ticket_id, "transient", "injected fault")
            return real(request)

        monkeypatch.setattr(worker_mod, "schedule_request", flaky)

    def test_transient_failures_retry_with_backoff(self, monkeypatch):
        self._flaky(monkeypatch, fail_times=2)
        svc = SchedulerService(workers=1, max_retries=3)
        svc.submit(cs((0, 3), (1, 2)), n_leaves=8)
        report = svc.drain()
        result = next(iter(report.results.values()))
        assert result.status is RequestStatus.DONE
        assert result.attempts == 3
        # backoff 2^0 then 2^1 idle ticks: settles at tick 1+1+(1)+1+(2)... >= 4
        assert report.ticks >= 4

    def test_retry_budget_exhausts_to_failed(self, monkeypatch):
        self._flaky(monkeypatch, fail_times=99)
        svc = SchedulerService(workers=1, max_retries=2, default_deadline=100)
        svc.submit(cs((0, 3)), n_leaves=8)
        report = svc.drain()
        result = next(iter(report.results.values()))
        assert result.status is RequestStatus.FAILED
        assert result.attempts == 3  # initial + 2 retries
        assert "injected fault" in result.error

    def test_deadline_expires_backlogged_request(self, monkeypatch):
        self._flaky(monkeypatch, fail_times=99)
        svc = SchedulerService(workers=1, max_retries=10, default_deadline=3)
        svc.submit(cs((0, 3)), n_leaves=8)
        report = svc.drain()
        result = next(iter(report.results.values()))
        assert result.status is RequestStatus.EXPIRED
        assert result.wait_ticks > 3

    def test_permanent_failure_not_retried(self, monkeypatch):
        real = worker_mod.schedule_request
        calls = []

        def permanent(request):
            calls.append(request[0])
            return (request[0], "permanent", "bad request")

        monkeypatch.setattr(worker_mod, "schedule_request", permanent)
        svc = SchedulerService(workers=1, max_retries=5)
        svc.submit(cs((0, 3)), n_leaves=8)
        report = svc.drain()
        result = next(iter(report.results.values()))
        assert result.status is RequestStatus.FAILED
        assert len(calls) == 1


class TestPool:
    def test_pooled_results_match_inline(self, batch):
        with SchedulerService(workers=2) as pooled, SchedulerService(
            workers=1
        ) as inline:
            pin_dispatch(pooled, True)
            pr = pooled(batch, n_leaves=32)
            ir = inline(batch, n_leaves=32)
        pooled_payloads = [pr.results[t].payload for t in sorted(pr.schedules())]
        inline_payloads = [ir.results[t].payload for t in sorted(ir.schedules())]
        assert pooled_payloads == inline_payloads

    def test_close_is_idempotent(self):
        svc = SchedulerService(workers=2)
        pin_dispatch(svc, True)
        svc([cs((0, 1))], n_leaves=8)
        svc.close()
        svc.close()


class TestObservability:
    def test_service_metrics_emitted(self, batch):
        obs = Instrumentation(MetricsRegistry(), run="svc")
        with SchedulerService(workers=1, obs=obs) as svc:
            svc(batch, n_leaves=32)
            svc(batch, n_leaves=32)
        snap = obs.metrics.snapshot()
        counters = snap["counters"]
        assert counters["service.submitted{run=svc}"] == 2 * len(batch)
        assert counters["service.done{run=svc}"] == 2 * len(batch)
        assert counters["service.cache.hits{run=svc}"] >= len(batch)
        assert "service.drain{run=svc}" in snap["spans"]

    def test_report_summary_mentions_everything(self, batch):
        with SchedulerService(workers=1) as svc:
            report = svc(batch, n_leaves=32)
        text = report.summary()
        for word in ("done", "cached", "rejected", "expired", "failed"):
            assert word in text


class TestScheduleRoundTrip:
    def test_results_rebuild_verifiable_schedules(self, batch):
        from repro.analysis.verifier import verify_schedule

        with SchedulerService(workers=1) as svc:
            report = svc(batch, n_leaves=32)
        for cset, tid in zip(batch, sorted(report.schedules())):
            schedule = report.results[tid].schedule
            assert verify_schedule(schedule, cset).ok


class TestSameShapeBatching:
    """Same-shape groups go through the columnar batch kernel — inline
    and pooled — without changing a single bit of any result."""

    @staticmethod
    def _same_shape_batch(n_leaves=32, copies=6):
        # shifted relabellings of one base set: same Dyck word, different
        # leaf geometry, hence one shape group but distinct cache keys.
        base = [(0, 3), (1, 2)]
        return [
            cs(*[(s + off, d + off) for s, d in base]) for off in range(copies)
        ]

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
    def test_columnar_batches_same_shape_groups(self, workers):
        batch = self._same_shape_batch()
        cfg = SchedulerConfig(engine="auto")
        obs = Instrumentation(MetricsRegistry(), run="shp")
        with SchedulerService(
            workers=workers, config=cfg, obs=obs, parity_check=True
        ) as svc:
            pin_dispatch(svc, workers > 1)
            report = svc(batch, n_leaves=32)
        assert report.n_done == len(batch)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["service.shape_batches{run=shp}"] == 1
        assert counters["service.shape_batched{run=shp}"] == len(batch)
        direct = PADRScheduler(config=cfg)
        expected = [schedule_to_dict(direct.schedule(c, n_leaves=32)) for c in batch]
        got = [report.results[t].payload for t in sorted(report.schedules())]
        assert got == expected

    def test_scalar_engine_never_shape_batches(self, batch):
        obs = Instrumentation(MetricsRegistry(), run="shp")
        cfg = SchedulerConfig(engine="fast")
        with SchedulerService(workers=1, config=cfg, obs=obs) as svc:
            svc(batch, n_leaves=32)
        counters = obs.metrics.snapshot()["counters"]
        assert "service.shape_batches{run=shp}" not in counters

    def test_pooled_workers_honour_columnar_config(self):
        """The config the pool initialiser receives round-trips engine
        selection: worker results equal direct columnar scheduling."""
        batch = self._same_shape_batch(copies=4)
        cfg = SchedulerConfig(engine="auto")
        with SchedulerService(workers=2, config=cfg, parity_check=True) as svc:
            pin_dispatch(svc, True)
            report = svc(batch, n_leaves=32)
        direct = PADRScheduler(config=cfg)
        expected = [schedule_to_dict(direct.schedule(c, n_leaves=32)) for c in batch]
        got = [report.results[t].payload for t in sorted(report.schedules())]
        assert got == expected


_real_schedule_request = worker_mod.schedule_request


def _crash_worker_once(request):
    """Worker-side crash injector for the pool-lifecycle regression.

    The first worker to run exits the interpreter abruptly (after dropping
    a marker so the retry wave behaves); the executor sees the dead worker
    and converts the wave into the transient path.
    """
    import os

    marker = os.environ["CST_PADR_CRASH_MARKER"]
    if os.path.exists(marker):
        return _real_schedule_request(request)
    open(marker, "w").close()
    os._exit(1)


class TestPoolLifecycle:
    """Satellite regression: a drain that raises, or a pool call that blows
    up, must never leave live worker processes (or a poisoned pool) behind."""

    def test_failed_drain_leaves_no_live_workers(self, batch, monkeypatch):
        svc = SchedulerService(workers=2, parity_check=True)
        pin_dispatch(svc, True)
        svc([cs((0, 1))], n_leaves=32)  # forks the pool
        svc.submit_many(batch, n_leaves=32)
        procs = list(svc._executor._pool._processes.values())
        assert all(p.is_alive() for p in procs)

        def blown_parity(p, payload):
            raise service_mod.ServiceParityError("injected mismatch")

        monkeypatch.setattr(svc, "_assert_parity", blown_parity)
        with pytest.raises(service_mod.ServiceParityError):
            svc.drain()
        assert svc._executor._pool is None
        for p in procs:
            p.join(timeout=10)
            assert not p.is_alive()

    def test_failed_drain_has_reaped_every_worker(self, batch, monkeypatch):
        """abort() returns only once its killed workers are reaped, so every
        worker reads SIGKILL's exit code the moment drain() raises."""
        svc = SchedulerService(workers=2, parity_check=True)
        pin_dispatch(svc, True)
        svc([cs((0, 1))], n_leaves=32)  # forks the pool
        svc.submit_many(batch, n_leaves=32)
        procs = list(svc._executor._pool._processes.values())

        def blown_parity(p, payload):
            raise service_mod.ServiceParityError("injected mismatch")

        monkeypatch.setattr(svc, "_assert_parity", blown_parity)
        with pytest.raises(service_mod.ServiceParityError):
            svc.drain()
        assert [p.exitcode for p in procs] == [-signal.SIGKILL] * len(procs)

    def test_worker_crash_settles_transient_then_recovers(
        self, batch, monkeypatch, tmp_path
    ):
        marker = tmp_path / "crashed"
        monkeypatch.setenv("CST_PADR_CRASH_MARKER", str(marker))
        monkeypatch.setattr(worker_mod, "schedule_request", _crash_worker_once)
        reg = MetricsRegistry()
        svc = SchedulerService(
            workers=2,
            pool_timeout=5.0,
            obs=Instrumentation(reg, run="t"),
        )
        pin_dispatch(svc, True)
        with svc:
            report = svc(batch, n_leaves=32)
        assert marker.exists()
        assert report.n_done == len(batch)  # retried onto a fresh pool
        assert max(r.attempts for r in report.results.values()) > 1
        from repro.obs.registry import metric_key

        snap = reg.snapshot()
        assert snap["counters"][metric_key("service.pool.broken", {"run": "t"})] == 1
        assert svc._executor._pool is None  # close() ran; nothing left behind

    def test_close_after_crash_is_clean(self, monkeypatch, tmp_path):
        # the abort path must leave the service reusable *and* closeable.
        marker = tmp_path / "crashed"
        marker.touch()  # behave normally from the start
        monkeypatch.setenv("CST_PADR_CRASH_MARKER", str(marker))
        svc = SchedulerService(workers=2, pool_timeout=5.0)
        pin_dispatch(svc, True)
        svc.submit(cs((0, 1)), n_leaves=4)
        svc.drain()
        svc._executor.abort()
        assert svc._executor._pool is None
        svc.close()  # idempotent after an abort
