"""The shared request pipeline and worker executor, through every door.

* inline executors never share a scheduler across configs;
* an aborted pool leaves no live worker, and a hung one cannot hang exit;
* one settlement ladder: both services settle a scripted worker the same.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.service.worker as worker_mod
from repro.comms.communication import Communication, CommunicationSet
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.fabric import FabricController
from repro.io import cset_to_dict, schedule_to_dict
from repro.obs import Instrumentation, MetricsRegistry
from repro.service import (
    Priority,
    RequestStatus,
    SchedulerService,
    StreamRequest,
    StreamingSchedulerService,
    StreamStatus,
    TenantQuota,
)
from repro.service.pipeline import WorkerExecutor, WorkerPoolError


def cs(*pairs):
    return CommunicationSet([Communication(s, d) for s, d in pairs])


AUTO = SchedulerConfig(decompose="auto")
WELL = cs((0, 3), (1, 2))
CROSSING = cs((0, 2), (1, 3))
ROOMY = TenantQuota(rate=50.0, burst=100.0)


def stream_one(svc: StreamingSchedulerService, cset, n_leaves=16):
    ticket = svc.submit(StreamRequest(cset=cset, n_leaves=n_leaves, deadline=50))
    return svc.run().results[ticket.id]


class TestInlineConfigIsolation:
    """Inline executors share the process's one worker scheduler, so each
    must reinstall it under its own config: a second service with another
    config must not change what the first computes."""

    def test_batch_service_keeps_its_own_config(self):
        auto = SchedulerService(config=AUTO)
        assert auto([WELL], n_leaves=16).n_done == 1
        assert SchedulerService()([WELL], n_leaves=16).n_done == 1
        report = auto([CROSSING], n_leaves=16)
        assert report.n_done == 1, report.summary()

    def test_streaming_service_keeps_its_own_config(self):
        auto = StreamingSchedulerService(config=AUTO, default_quota=ROOMY)
        assert stream_one(auto, WELL).status is StreamStatus.DONE
        plain = StreamingSchedulerService(default_quota=ROOMY)
        assert stream_one(plain, WELL).status is StreamStatus.DONE
        result = stream_one(auto, CROSSING)
        assert result.status is StreamStatus.DONE, result.error

    def test_inline_fabric_keeps_its_own_config(self):
        auto = FabricController(2, 16, parallel=False, config=AUTO)
        assert auto.execute([(0, cset_to_dict(WELL), 16)], [0])[0][1] == "ok"
        plain = FabricController(2, 16, parallel=False)
        assert plain.execute([(0, cset_to_dict(WELL), 16)], [0])[0][1] == "ok"
        ((_, status, payload),) = auto.execute([(1, cset_to_dict(CROSSING), 16)], [0])
        assert status == "ok", payload

    def test_doors_interleave_without_crosstalk(self):
        auto = SchedulerService(config=AUTO)
        fabric = FabricController(2, 16, parallel=False, config=AUTO)
        stream = StreamingSchedulerService(default_quota=ROOMY)  # strict
        for _ in range(2):
            assert auto([CROSSING], n_leaves=16).n_done == 1
            assert fabric.execute([(0, cset_to_dict(CROSSING), 16)], [1])[0][1] == "ok"
            assert stream_one(stream, WELL).status is StreamStatus.DONE
            auto.cache.clear()
            stream.cache.clear()


# -- worker lifecycle ---------------------------------------------------------

POISON = cs((0, 7), (1, 6), (2, 5))  # the one set the hanging worker stalls on
_real_schedule_request = worker_mod.schedule_request


def _hang_on_poison(request):
    """Worker-side stall: a hung (not dead) worker, as only a timeout sees it."""
    if request[1] == cset_to_dict(POISON):
        time.sleep(120)
    return _real_schedule_request(request)


def _all_dead(processes, within: float = 5.0) -> bool:
    deadline = time.monotonic() + within
    while any(p.is_alive() for p in processes) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(p.is_alive() for p in processes)


class TestAbortKillsWorkers:
    """Regression: a timed-out wave kills the pool's workers — for the batch
    service's pool and for a fabric shard alike."""

    def test_batch_pool_worker_dies_after_timeout(self, monkeypatch):
        monkeypatch.setattr(worker_mod, "schedule_request", _hang_on_poison)
        svc = SchedulerService(workers=2, pool_timeout=2.0, max_retries=0)
        with svc:
            assert svc([cs((0, 1))], n_leaves=8).n_done == 1  # forks the pool
            processes = list(svc._executor._pool._processes.values())
            report = svc([POISON], n_leaves=8)
            (result,) = report.results.values()
            assert result.status is RequestStatus.FAILED
            assert "worker pool failure" in result.error
            assert svc._executor._pool is None
            assert _all_dead(processes)

    def test_fabric_shard_worker_dies_after_timeout(self, monkeypatch):
        monkeypatch.setattr(worker_mod, "schedule_request", _hang_on_poison)
        with FabricController(2, 8, shard_timeout=2.0) as fab:
            ok = cset_to_dict(cs((0, 1)))
            fab.execute([(0, ok, 8), (1, ok, 8)], [0, 1])  # forks both shards
            processes = list(fab._executors[0]._pool._processes.values())
            out = dict(
                (tid, status)
                for tid, status, _ in fab.execute(
                    [(2, cset_to_dict(POISON), 8), (3, ok, 8)], [0, 1]
                )
            )
            assert out == {2: "transient", 3: "ok"}
            assert fab._executors[0]._pool is None
            assert fab._executors[1]._pool is not None  # the healthy shard stays
            assert _all_dead(processes)

    def test_hung_fabric_worker_does_not_hang_interpreter_exit(self, tmp_path):
        script = textwrap.dedent(
            """
            import time

            import repro.service.worker as worker
            from repro.comms.communication import Communication, CommunicationSet
            from repro.fabric import FabricController
            from repro.io import cset_to_dict

            real = worker.schedule_request

            def hang(request):
                if request[0] == 0:
                    time.sleep(120)
                return real(request)

            worker.schedule_request = hang
            payload = cset_to_dict(CommunicationSet([Communication(0, 1)]))
            fab = FabricController(2, 16, shard_timeout=2.0)
            out = fab.execute([(0, payload, 16), (1, payload, 16)], [0, 1])
            statuses = {tid: status for tid, status, _ in out}
            assert statuses == {0: "transient", 1: "ok"}, statuses
            print("settled")
            """
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        log = tmp_path / "out.txt"
        with open(log, "w") as fh:  # a file: a surviving worker cannot block it
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src},
                stdout=fh,
                stderr=subprocess.STDOUT,
                timeout=30,
            )
        assert proc.returncode == 0, log.read_text()
        assert "settled" in log.read_text()


class TestWorkerExecutor:
    def test_pooled_wave_ships_one_call_per_worker_plus_one_per_group(self):
        ok = cset_to_dict(cs((0, 1)))
        singles = [(i, ok, 8) for i in range(5)]
        groups = [[(5, ok, 8), (6, ok, 8)], [(7, ok, 8), (8, ok, 8)]]
        executor = WorkerExecutor(SchedulerConfig(), processes=2, timeout=60.0)
        try:
            futures, _ = wave = executor.start(singles, groups)
            assert len(futures) == 2 + len(groups)
            out = executor.finish(wave)
        finally:
            executor.close()
        assert [tid for tid, _, _ in out] == list(range(9))  # request order
        assert {status for _, status, _ in out} == {"ok"}

    def test_idle_worker_death_fails_only_the_next_wave(self):
        executor = WorkerExecutor(SchedulerConfig(), processes=1, timeout=30.0)
        request = (0, cset_to_dict(cs((0, 1))), 8)
        try:
            executor.run([request])
            pool = executor._pool
            (victim,) = pool._processes.values()
            victim.kill()
            deadline = time.monotonic() + 10
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(WorkerPoolError):
                executor.run([request])  # submit itself refuses: the pool broke
            assert executor.run([request])[0][1] == "ok"  # on a fresh pool
        finally:
            executor.close()


# -- one settlement ladder ----------------------------------------------------

MAX_RETRIES = 2

#: (set, copies in one wave, the worker's answer per execution of that set;
#: the last answer repeats)
LADDER = [
    (cs((0, 1)), 3, ["ok"]),
    (cs((2, 3)), 3, ["permanent"]),
    (cs((4, 5)), 3, ["transient"]),  # until every copy's budget runs out
    (cs((6, 7)), 1, ["transient", "transient", "ok"]),
    (cs((8, 9)), 3, ["transient", "ok"]),  # the leader retries ahead of its followers
]


def _scripted_worker():
    scripts = {repr(cset_to_dict(c)): answers for c, _, answers in LADDER}
    runs: Counter = Counter()

    def scripted(request):
        key = repr(request[1])
        answers = scripts[key]
        answer = answers[min(runs[key], len(answers) - 1)]
        runs[key] += 1
        if answer == "ok":
            return _real_schedule_request(request)
        return (request[0], answer, f"scripted {answer}")

    return scripted


def _submissions():
    return [c for c, copies, _ in LADDER for _ in range(copies)]


#: the scripted worker replaces ``schedule_request``, which same-shape
#: columnar groups bypass — the ladder's sets all share one shape.
PER_REQUEST = SchedulerConfig(engine="fast")


def _through_batch():
    obs = Instrumentation(MetricsRegistry(), run="b")
    svc = SchedulerService(
        max_retries=MAX_RETRIES, default_deadline=200, obs=obs, config=PER_REQUEST
    )
    tickets = [svc.submit(c, n_leaves=16) for c in _submissions()]
    report = svc.drain()
    counters = obs.metrics.snapshot()["counters"]
    settled = sum(
        counters.get(f"service.{name}{{run=b}}", 0)
        for name in ("done", "failed", "expired")
    )
    assert settled == len(tickets) == len(report.results)
    return [report.results[t.id] for t in tickets]


def _through_stream():
    svc = StreamingSchedulerService(
        max_retries=MAX_RETRIES, default_quota=ROOMY, config=PER_REQUEST
    )
    tickets = [
        svc.submit(
            StreamRequest(cset=c, n_leaves=16, deadline=200, priority=Priority.HIGH)
        )
        for c in _submissions()
    ]
    settled: Counter = Counter()
    for _ in range(200):
        settled.update(r.request_id for r in svc.step())
        if svc.backlog == 0:
            break
    assert settled == Counter(t.id for t in tickets)  # each exactly once
    return [svc.results[t.id] for t in tickets]


class TestOneSettlementLadder:
    @pytest.fixture
    def outcomes(self, monkeypatch):
        results = {}
        for door, run in (("batch", _through_batch), ("stream", _through_stream)):
            monkeypatch.setattr(worker_mod, "schedule_request", _scripted_worker())
            results[door] = [(r.status.value, r.attempts, r.payload) for r in run()]
        return results

    def test_both_doors_settle_alike(self, outcomes):
        assert outcomes["batch"] == outcomes["stream"]

    def test_each_rung(self, outcomes):
        rows = iter(outcomes["stream"])
        direct = PADRScheduler()
        ok, permanent, exhausted, flaky, retried = (
            [next(rows) for _ in range(copies)] for _, copies, _ in LADDER
        )
        payload = schedule_to_dict(direct.schedule(LADDER[0][0], n_leaves=16))
        # the leader executes once, its followers are served from the cache
        assert ok == [("done", 1, payload)] + [("done", 0, payload)] * 2
        # a permanent error fails the leader and every follower at once
        assert permanent == [("failed", 1, None)] + [("failed", 0, None)] * 2
        # an exhausted leader fails alone; its followers retry on their own
        # budget, so every copy fails after MAX_RETRIES + 1 attempts
        assert exhausted == [("failed", MAX_RETRIES + 1, None)] * 3
        assert flaky == [
            ("done", 3, schedule_to_dict(direct.schedule(LADDER[3][0], n_leaves=16)))
        ]
        # a retrying leader keeps its followers behind it: it settles on its
        # second attempt and they are served from the cache it fills
        payload = schedule_to_dict(direct.schedule(LADDER[4][0], n_leaves=16))
        assert retried == [("done", 2, payload)] + [("done", 0, payload)] * 2

    def test_held_leader_stays_ahead_of_its_followers(self):
        svc = StreamingSchedulerService(batch_window=4, default_quota=ROOMY)
        tickets = [
            svc.submit(StreamRequest(cset=WELL, n_leaves=16, deadline=50))
            for _ in range(3)
        ]
        assert svc.step() == []  # a lone shape: the leader waits for peers
        queue = svc.tenants.get("default").queue
        assert [live.request_id for live in queue] == [t.id for t in tickets]
