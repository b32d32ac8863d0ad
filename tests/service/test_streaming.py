"""StreamingSchedulerService: overload drill, fairness, accountability.

The three ISSUE-mandated suites — the admission burst drill (reaches
SOFT_RED/RED, sheds only LOW, recovers GREEN), the hypothesis
no-silent-drop property (every submit settles in exactly one terminal
status), and two-tenant fairness under a hog — plus coverage for every
door rejection, expiry, the retry ladder, dedup/cache settlement, the
columnar batch window, parity, asyncio equivalence and persistence.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.worker as worker_mod
from repro.comms.communication import Communication, CommunicationSet
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.exceptions import SchedulingError
from repro.io import (
    schedule_to_dict,
    stream_request_from_dict,
    stream_request_to_dict,
)
from repro.obs import Instrumentation, MetricsRegistry
from repro.obs.registry import metric_key
from repro.service import (
    AdmissionState,
    Priority,
    ServiceParityError,
    StreamRequest,
    StreamStatus,
    StreamingSchedulerService,
    TenantQuota,
    mixed_workloads,
)

TERMINAL = frozenset(StreamStatus)


def cs(*pairs):
    return CommunicationSet([Communication(s, d) for s, d in pairs])


def roomy_quota() -> TenantQuota:
    """A bucket wide enough that quota never interferes with the test."""
    return TenantQuota(rate=50.0, burst=100.0)


# ---------------------------------------------------------------------------
# the overload drill (the ISSUE's acceptance scenario, at unit scale)
# ---------------------------------------------------------------------------


class TestOverloadBurst:
    @pytest.fixture(scope="class")
    def report(self):
        csets = mixed_workloads(8, 5, seed=2)
        arrivals = [
            StreamRequest(
                cset=csets[i % len(csets)],
                n_leaves=8,
                release_time=i // 4,
                deadline=200,
                priority=(Priority.LOW, Priority.NORMAL, Priority.HIGH)[i % 3],
                tenant=("acme", "globex")[i % 2],
            )
            for i in range(48)
        ]
        svc = StreamingSchedulerService(
            max_queue=22,
            max_inflight=2,
            default_quota=roomy_quota(),
            parity_check=True,
        )
        return svc.run(arrivals)

    def test_burst_reaches_red(self, report):
        states = {s for _, s in report.trajectory}
        assert "SOFT_RED" in states
        assert "RED" in states

    def test_only_low_is_dropped(self, report):
        for status in (StreamStatus.SHED, StreamStatus.EXPIRED,
                       StreamStatus.REJECTED):
            dropped = report.by_priority(status)
            assert set(dropped) <= {"LOW"}, f"{status}: {dropped}"

    def test_something_was_actually_shed(self, report):
        # guard against a vacuous drill: the burst must exercise shedding
        assert report.n_shed > 0

    def test_normal_and_high_all_delivered(self, report):
        done = report.by_priority(StreamStatus.DONE)
        assert done.get("NORMAL", 0) == 16
        assert done.get("HIGH", 0) == 16

    def test_recovers_to_green(self, report):
        assert report.final_state == "GREEN"
        assert report.trajectory[-1][1] == "GREEN"

    def test_every_submit_is_accounted(self, report):
        assert sorted(report.results) == list(range(48))
        assert (
            report.n_done + report.n_shed + report.n_rejected
            + report.n_expired + report.n_failed
        ) == 48

    def test_latency_percentiles_are_ordered(self, report):
        assert 0 < report.p50_ticks <= report.p99_ticks <= report.ticks

    def test_parity_with_direct_scheduler(self, report):
        # parity_check=True already live-asserted every settlement; spot
        # check the serialized payloads once more from the outside.
        direct = PADRScheduler()
        for result in list(report.results.values())[:6]:
            if result.status is StreamStatus.DONE:
                cset = result.schedule  # round-trips the payload
                assert cset is not None

    def test_summary_mentions_final_state(self, report):
        assert "final state GREEN" in report.summary()


# ---------------------------------------------------------------------------
# no silent drops (property)
# ---------------------------------------------------------------------------


POOL = mixed_workloads(8, 5, seed=7)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(POOL) - 1),
            st.sampled_from(list(Priority)),
            st.integers(min_value=0, max_value=6),   # release_time
            st.integers(min_value=1, max_value=40),  # deadline
            st.sampled_from(["a", "b"]),
        ),
        min_size=1,
        max_size=24,
    )
)
def test_no_submit_is_ever_silently_dropped(spec):
    arrivals = [
        StreamRequest(
            cset=POOL[idx],
            n_leaves=8,
            release_time=release,
            deadline=deadline,
            priority=priority,
            tenant=tenant,
        )
        for idx, priority, release, deadline, tenant in spec
    ]
    svc = StreamingSchedulerService(
        max_queue=8, max_inflight=2, default_quota=TenantQuota(rate=4.0, burst=8.0)
    )
    report = svc.run(arrivals, max_ticks=500)
    # exactly one terminal result per submit, no extras, no holes
    assert sorted(report.results) == list(range(len(arrivals)))
    assert all(r.status in TERMINAL for r in report.results.values())
    # and the counts tile the total exactly
    assert (
        report.n_done + report.n_shed + report.n_rejected
        + report.n_expired + report.n_failed
    ) == len(arrivals)
    # the drain contract: the machine always hands back a calm service
    assert report.final_state == "GREEN"
    assert svc.backlog == 0


# ---------------------------------------------------------------------------
# two-tenant fairness
# ---------------------------------------------------------------------------


class TestTenantFairness:
    def test_starved_tenant_still_progresses_under_hog_load(self):
        csets = mixed_workloads(8, 5, seed=4)
        hog = [
            StreamRequest(cset=csets[i % len(csets)], n_leaves=8,
                          deadline=200, tenant="hog")
            for i in range(20)
        ]
        meek = [
            StreamRequest(cset=csets[i % len(csets)], n_leaves=8,
                          deadline=200, tenant="meek")
            for i in range(4)
        ]
        svc = StreamingSchedulerService(
            max_queue=64, max_inflight=2, default_quota=roomy_quota()
        )
        report = svc.run([*hog, *meek])

        results = list(report.results.values())
        meek_done = [r for r in results if r.tenant == "meek"]
        assert all(r.status is StreamStatus.DONE for r in meek_done)
        # DRR deals the per-tick budget across tenants, so the meek
        # tenant's 4 requests finish in the first few ticks instead of
        # waiting behind the hog's 20.
        assert max(r.latency_ticks for r in meek_done) <= 6
        hog_done = [r for r in results if r.tenant == "hog"]
        assert max(r.latency_ticks for r in hog_done) > max(
            r.latency_ticks for r in meek_done
        )

    def test_weight_tilts_the_split(self):
        csets = mixed_workloads(8, 3, seed=5)
        svc = StreamingSchedulerService(
            max_queue=64,
            max_inflight=2,
            quotas={
                "heavy": TenantQuota(rate=50.0, burst=100.0, weight=3.0),
                "light": TenantQuota(rate=50.0, burst=100.0, weight=1.0),
            },
        )
        arrivals = [
            StreamRequest(cset=csets[i % len(csets)], n_leaves=8,
                          deadline=200, tenant=tenant)
            for tenant in ("heavy", "light")
            for i in range(8)
        ]
        report = svc.run(arrivals)
        heavy = [r for r in report.results.values() if r.tenant == "heavy"]
        light = [r for r in report.results.values() if r.tenant == "light"]
        assert all(r.status is StreamStatus.DONE for r in [*heavy, *light])
        # 3:1 weighting: the heavy tenant clears its queue strictly sooner
        assert max(r.latency_ticks for r in heavy) < max(
            r.latency_ticks for r in light
        )


# ---------------------------------------------------------------------------
# the doors: every rejection path is a terminal result, not an exception
# ---------------------------------------------------------------------------


class TestDoors:
    def test_invalid_cset_is_rejected_with_reason(self):
        svc = StreamingSchedulerService()
        ticket = svc.submit(
            StreamRequest(cset=cs((5, 2)), n_leaves=8)  # left-oriented
        )
        assert not ticket.accepted
        assert "right-oriented" in (ticket.reason or "")
        result = svc.results[ticket.id]
        assert result.status is StreamStatus.REJECTED
        assert result.error

    def test_width_not_a_power_of_two_is_rejected(self):
        svc = StreamingSchedulerService()
        ticket = svc.submit(StreamRequest(cset=cs((0, 3), (1, 2)), n_leaves=300))
        assert not ticket.accepted
        assert ticket.reason == "n_leaves must be a power of two >= 2, got 300"
        assert svc.results[ticket.id].status is StreamStatus.REJECTED
        assert svc.backlog == 0

    def test_nonpositive_deadline_is_rejected(self):
        svc = StreamingSchedulerService()
        ticket = svc.submit(StreamRequest(cset=cs((0, 1)), n_leaves=8, deadline=0))
        assert not ticket.accepted
        assert svc.results[ticket.id].status is StreamStatus.REJECTED

    def test_backlog_bound_rejects_overflow(self):
        svc = StreamingSchedulerService(max_queue=1, default_quota=roomy_quota())
        first = svc.submit(StreamRequest(cset=cs((0, 1)), n_leaves=8))
        second = svc.submit(StreamRequest(cset=cs((2, 3)), n_leaves=8))
        assert first.accepted
        assert not second.accepted
        assert "backlog full" in (second.reason or "")

    def test_quota_throttles_a_burst(self):
        svc = StreamingSchedulerService(
            default_quota=TenantQuota(rate=1.0, burst=1.0)
        )
        tickets = [
            svc.submit(StreamRequest(cset=cs((0, 1)), n_leaves=8))
            for _ in range(3)
        ]
        assert tickets[0].accepted
        assert not tickets[1].accepted and not tickets[2].accepted
        assert "over quota" in (tickets[1].reason or "")

    def test_constructor_validates_bounds(self):
        for kwargs in (
            {"max_queue": 0},
            {"max_inflight": 0},
            {"batch_window": -1},
            {"max_retries": -1},
        ):
            with pytest.raises(SchedulingError):
                StreamingSchedulerService(**kwargs)


# ---------------------------------------------------------------------------
# deadlines, retries, failures
# ---------------------------------------------------------------------------


class TestDeadlinesAndRetries:
    def test_queued_past_deadline_expires(self):
        svc = StreamingSchedulerService(
            max_inflight=1, default_quota=roomy_quota()
        )
        csets = mixed_workloads(8, 5, seed=6)
        arrivals = [
            StreamRequest(cset=csets[i], n_leaves=8, deadline=2)
            for i in range(5)
        ]
        report = svc.run(arrivals)
        assert report.n_expired > 0
        assert report.n_done + report.n_expired == 5
        expired = [
            r for r in report.results.values()
            if r.status is StreamStatus.EXPIRED
        ]
        assert all(r.latency_ticks > 2 for r in expired)

    def test_transient_failure_retries_with_backoff_then_succeeds(
        self, monkeypatch
    ):
        real = worker_mod.schedule_request
        calls = {"n": 0}

        def flaky(request):
            calls["n"] += 1
            if calls["n"] <= 2:
                return (request[0], "transient", "induced")
            return real(request)

        monkeypatch.setattr(worker_mod, "schedule_request", flaky)
        svc = StreamingSchedulerService(default_quota=roomy_quota())
        svc.submit(StreamRequest(cset=cs((0, 1)), n_leaves=8, deadline=50))
        report = svc.run()
        (result,) = report.results.values()
        assert result.status is StreamStatus.DONE
        assert result.attempts == 3

    def test_retry_budget_exhaustion_fails(self, monkeypatch):
        monkeypatch.setattr(
            worker_mod,
            "schedule_request",
            lambda request: (request[0], "transient", "always down"),
        )
        svc = StreamingSchedulerService(
            max_retries=1, default_quota=roomy_quota()
        )
        svc.submit(StreamRequest(cset=cs((0, 1)), n_leaves=8, deadline=50))
        report = svc.run()
        (result,) = report.results.values()
        assert result.status is StreamStatus.FAILED
        assert result.attempts == 2
        assert "always down" in (result.error or "")

    def test_permanent_failure_does_not_retry(self, monkeypatch):
        monkeypatch.setattr(
            worker_mod,
            "schedule_request",
            lambda request: (request[0], "permanent", "unschedulable"),
        )
        svc = StreamingSchedulerService(default_quota=roomy_quota())
        svc.submit(StreamRequest(cset=cs((0, 1)), n_leaves=8, deadline=50))
        report = svc.run()
        (result,) = report.results.values()
        assert result.status is StreamStatus.FAILED
        assert result.attempts == 1


# ---------------------------------------------------------------------------
# the drain path: cache, dedup, columnar grouping, parity
# ---------------------------------------------------------------------------


class TestDrainPath:
    def test_duplicate_submissions_settle_from_cache(self):
        svc = StreamingSchedulerService(
            max_inflight=4, default_quota=roomy_quota()
        )
        workload = cs((0, 3), (1, 2))
        for _ in range(3):
            svc.submit(StreamRequest(cset=workload, n_leaves=8, deadline=50))
        report = svc.run()
        assert report.n_done == 3
        assert report.n_cached == 2  # one leader executed, two from cache
        payloads = [r.payload for r in report.results.values()]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_resubmission_across_windows_hits_the_cache(self):
        svc = StreamingSchedulerService(default_quota=roomy_quota())
        workload = cs((0, 1))
        svc.submit(StreamRequest(cset=workload, n_leaves=8, deadline=50))
        svc.run()
        svc.submit(StreamRequest(cset=workload, n_leaves=8, deadline=50))
        report = svc.run()
        twin = report.results[1]
        assert twin.status is StreamStatus.DONE
        assert twin.from_cache  # same canonical key, later window
        assert twin.payload == report.results[0].payload

    def test_same_shape_requests_take_the_batch_kernel(self):
        reg = MetricsRegistry()
        obs = Instrumentation(reg, run="t")
        svc = StreamingSchedulerService(
            config=SchedulerConfig(engine="auto"),
            max_inflight=4,
            default_quota=roomy_quota(),
            obs=obs,
        )
        # same dyck shape, disjoint placements: one columnar batch of two
        svc.submit(StreamRequest(cset=cs((0, 1)), n_leaves=8, deadline=50))
        svc.submit(StreamRequest(cset=cs((4, 5)), n_leaves=8, deadline=50))
        report = svc.run()
        assert report.n_done == 2
        snap = reg.snapshot()
        assert snap["counters"][metric_key("stream.shape_batches", {"run": "t"})] == 1
        assert snap["counters"][metric_key("stream.shape_batched", {"run": "t"})] == 2

    def test_batch_window_holds_a_lone_leader_for_peers(self):
        reg = MetricsRegistry()
        obs = Instrumentation(reg, run="t")
        svc = StreamingSchedulerService(
            config=SchedulerConfig(engine="auto"),
            batch_window=2,
            default_quota=roomy_quota(),
            obs=obs,
        )
        svc.submit(StreamRequest(cset=cs((0, 1)), n_leaves=8, deadline=50))
        # the shape peer only becomes eligible at tick 2, so the first
        # request is a lone leader at tick 1 and must wait for it.
        svc.submit(
            StreamRequest(
                cset=cs((4, 5)), n_leaves=8, deadline=50, release_time=2
            )
        )
        report = svc.run()
        assert report.n_done == 2
        snap = reg.snapshot()
        assert snap["counters"][metric_key("stream.batch_held", {"run": "t"})] >= 1
        assert snap["counters"][metric_key("stream.shape_batches", {"run": "t"})] == 1

    def test_results_bit_identical_to_direct_scheduler(self):
        csets = mixed_workloads(16, 6, seed=8)
        svc = StreamingSchedulerService(default_quota=roomy_quota())
        for c in csets:
            svc.submit(StreamRequest(cset=c, n_leaves=16, deadline=100))
        report = svc.run()
        direct = PADRScheduler()
        for rid, c in enumerate(csets):
            expected = schedule_to_dict(direct.schedule(c, n_leaves=16))
            assert report.results[rid].payload == expected

    def test_parity_violation_raises(self, monkeypatch):
        real = worker_mod.schedule_request

        def corrupting(request):
            rid, status, payload = real(request)
            if status == "ok":
                payload = dict(payload, n_leaves=payload["n_leaves"] * 2)
            return (rid, status, payload)

        monkeypatch.setattr(worker_mod, "schedule_request", corrupting)
        svc = StreamingSchedulerService(
            parity_check=True, default_quota=roomy_quota()
        )
        svc.submit(StreamRequest(cset=cs((0, 1)), n_leaves=8, deadline=50))
        with pytest.raises(ServiceParityError):
            svc.run()


# ---------------------------------------------------------------------------
# asyncio, metrics, persistence
# ---------------------------------------------------------------------------


class TestAsyncAndPlumbing:
    def arrivals(self):
        csets = mixed_workloads(8, 4, seed=9)
        return [
            StreamRequest(
                cset=csets[i % len(csets)],
                n_leaves=8,
                release_time=i // 2,
                deadline=100,
                priority=(Priority.LOW, Priority.NORMAL)[i % 2],
            )
            for i in range(8)
        ]

    def test_aserve_matches_run(self):
        sync = StreamingSchedulerService(default_quota=roomy_quota())
        sync_report = sync.run(self.arrivals())
        awaited = StreamingSchedulerService(default_quota=roomy_quota())
        async_report = asyncio.run(awaited.aserve(self.arrivals()))
        assert {
            rid: r.status for rid, r in sync_report.results.items()
        } == {rid: r.status for rid, r in async_report.results.items()}
        assert sync_report.ticks == async_report.ticks

    def test_runaway_bound_raises_instead_of_truncating(self):
        svc = StreamingSchedulerService(
            max_inflight=1, default_quota=roomy_quota()
        )
        csets = mixed_workloads(8, 5, seed=10)
        for c in csets:
            svc.submit(StreamRequest(cset=c, n_leaves=8, deadline=100))
        with pytest.raises(SchedulingError):
            svc.run(max_ticks=1)

    def test_stream_metrics_are_emitted(self):
        reg = MetricsRegistry()
        obs = Instrumentation(reg, run="t")
        svc = StreamingSchedulerService(default_quota=roomy_quota(), obs=obs)
        svc.submit(StreamRequest(cset=cs((0, 1)), n_leaves=8, deadline=50))
        svc.run()
        snap = reg.snapshot()
        assert snap["counters"][metric_key("stream.submitted", {"run": "t"})] == 1
        assert snap["counters"][metric_key("stream.done", {"run": "t"})] == 1
        key = metric_key("stream.latency", {"priority": "normal", "run": "t"})
        assert snap["histograms"][key]["count"] == 1

    def test_stream_request_round_trips_through_json(self):
        request = StreamRequest(
            cset=cs((0, 3), (1, 2)),
            n_leaves=8,
            release_time=3,
            deadline=17,
            priority=Priority.HIGH,
            tenant="acme",
        )
        back = stream_request_from_dict(stream_request_to_dict(request))
        assert back.cset == request.cset
        assert back.n_leaves == request.n_leaves
        assert back.release_time == request.release_time
        assert back.deadline == request.deadline
        assert back.priority is Priority.HIGH
        assert back.tenant == "acme"


# ---------------------------------------------------------------------------
# the deadline boundary contract
# ---------------------------------------------------------------------------


class TestDeadlineBoundary:
    """A request is alive *at* ``deadline_tick`` — served exactly then it
    settles DONE with ``latency_ticks == deadline``; it expires at
    ``deadline_tick + 1``.  The batch-window holdback counts slack with
    the same convention, so holding never expires a lone leader."""

    def _settle_fourth(self, victim_deadline: int):
        svc = StreamingSchedulerService(
            max_inflight=1, default_quota=roomy_quota()
        )
        # three fillers ahead of the victim: with one execution slot the
        # victim is reached exactly at tick 4.
        for pair in ((0, 1), (2, 3), (4, 5)):
            assert svc.submit(
                StreamRequest(cset=cs(pair), n_leaves=8, deadline=50)
            ).accepted
        ticket = svc.submit(
            StreamRequest(cset=cs((6, 7)), n_leaves=8, deadline=victim_deadline)
        )
        assert ticket.accepted
        for _ in range(6):
            svc.step()
        return svc.results[ticket.id]

    def test_served_exactly_at_deadline_tick_is_done(self):
        result = self._settle_fourth(victim_deadline=4)
        assert result.status is StreamStatus.DONE
        assert result.latency_ticks == 4  # the full budget, not a tick less

    def test_one_tick_past_deadline_is_expired(self):
        result = self._settle_fourth(victim_deadline=3)
        assert result.status is StreamStatus.EXPIRED
        assert result.attempts == 0  # expired in queue, never executed
        assert result.latency_ticks == 4

    def _lone_columnar(self, deadline: int):
        svc = StreamingSchedulerService(
            config=SchedulerConfig(engine="auto"),
            batch_window=3,
            max_inflight=4,
            default_quota=roomy_quota(),
        )
        ticket = svc.submit(
            StreamRequest(cset=cs((0, 1)), n_leaves=8, deadline=deadline)
        )
        assert ticket.accepted
        for _ in range(8):
            svc.step()
        return svc.results[ticket.id]

    def test_holdback_releases_when_slack_reaches_the_window(self):
        # slack == batch_window at tick 1 → not held (holding any longer
        # could push the request into its deadline).
        result = self._lone_columnar(deadline=4)
        assert result.status is StreamStatus.DONE
        assert result.latency_ticks == 1

    def test_holdback_waits_while_slack_exceeds_the_window(self):
        # slack 4 > 3 at tick 1 → hold once; slack 3 at tick 2 → release.
        result = self._lone_columnar(deadline=5)
        assert result.status is StreamStatus.DONE
        assert result.latency_ticks == 2

    def test_holdback_is_capped_at_batch_window(self):
        result = self._lone_columnar(deadline=50)
        assert result.status is StreamStatus.DONE
        assert result.latency_ticks == 3  # == batch_window, never more

    def test_holdback_never_expires_a_lone_leader(self):
        for deadline in range(4, 12):
            result = self._lone_columnar(deadline=deadline)
            assert result.status is StreamStatus.DONE
            assert result.latency_ticks <= min(3, deadline)
