"""API-conformance suite: every exported scheduler, one calling convention.

Parametrised over every :class:`~repro.core.base.Scheduler` subclass the
top-level package exports.  Each must:

* share the base class's ``schedule`` signature exactly (the template
  method — no subclass may override or extend the public surface);
* produce a :class:`~repro.core.schedule.Schedule` satisfying the shared
  invariants on a workload it accepts;
* accept ``obs=`` and populate the metrics registry;
* honour ``network=`` when it claims to (``supports_network``) and reject
  it clearly when it does not;
* reject the removed positional-``n_leaves`` form with ``TypeError``
  (deprecated in the PR-4 release, removed now).
"""

from __future__ import annotations

import inspect

import pytest

import repro
from repro.comms.communication import Communication, CommunicationSet
from repro.core.base import Scheduler
from repro.core.schedule import Schedule
from repro.cst.network import CSTNetwork
from repro.exceptions import SchedulingError
from repro.obs import Instrumentation, MetricsRegistry

#: name → (factory, a workload that scheduler accepts).  Right-oriented
#: well-nested by default; orientation-specific schedulers get their own.
RIGHT = CommunicationSet(
    [Communication(0, 7), Communication(1, 2), Communication(3, 6)]
)
LEFT = CommunicationSet(
    [Communication(7, 0), Communication(2, 1), Communication(6, 3)]
)

CASES = {
    "PADRScheduler": (repro.PADRScheduler, RIGHT),
    "LeftPADRScheduler": (repro.LeftPADRScheduler, LEFT),
    "SequentialScheduler": (repro.SequentialScheduler, RIGHT),
    "GreedyScheduler": (repro.GreedyScheduler, RIGHT),
    "RandomOrderScheduler": (repro.RandomOrderScheduler, RIGHT),
    "RoyIDScheduler": (repro.RoyIDScheduler, RIGHT),
    "MirroredScheduler": (repro.MirroredScheduler, LEFT),
}


def exported_scheduler_classes() -> list[type]:
    """Every Scheduler subclass reachable from ``repro.__all__``."""
    classes = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if (
            inspect.isclass(obj)
            and issubclass(obj, Scheduler)
            and obj is not Scheduler
        ):
            classes.append(obj)
    return classes


def test_case_table_is_exhaustive():
    """Every exported scheduler class has a conformance case."""
    exported = {cls.__name__ for cls in exported_scheduler_classes()}
    assert exported == set(CASES), (
        "conformance table out of sync with repro.__all__: "
        f"missing {exported - set(CASES)}, stale {set(CASES) - exported}"
    )


@pytest.fixture(params=sorted(CASES), ids=sorted(CASES))
def case(request):
    factory, workload = CASES[request.param]
    return factory(), workload


class TestSignature:
    def test_schedule_is_the_template_method(self, case):
        scheduler, _ = case
        # no subclass overrides the public entry point
        assert type(scheduler).schedule is Scheduler.schedule

    def test_subclass_implements_the_hook(self, case):
        scheduler, _ = case
        assert type(scheduler)._schedule is not Scheduler._schedule

    def test_signature_is_uniform(self, case):
        scheduler, _ = case
        sig = inspect.signature(type(scheduler).schedule)
        assert list(sig.parameters) == [
            "self", "cset", "n_leaves", "policy", "network", "obs", "decompose",
        ]

    def test_options_are_keyword_only(self, case):
        scheduler, _ = case
        sig = inspect.signature(type(scheduler).schedule)
        for name in ("n_leaves", "policy", "network", "obs", "decompose"):
            assert sig.parameters[name].kind is inspect.Parameter.KEYWORD_ONLY


class TestScheduleInvariants:
    def test_returns_schedule_performing_the_set(self, case):
        scheduler, workload = case
        schedule = scheduler.schedule(workload, n_leaves=8)
        assert isinstance(schedule, Schedule)
        performed = sorted(c for r in schedule.rounds for c in r.performed)
        assert performed == sorted(workload.comms)
        assert schedule.n_leaves == 8
        assert schedule.scheduler_name == scheduler.name
        assert schedule.power.rounds >= schedule.n_rounds

    def test_default_n_leaves_is_min_leaves(self, case):
        scheduler, workload = case
        schedule = scheduler.schedule(workload)
        assert schedule.n_leaves == workload.min_leaves()


class TestObs:
    def test_obs_accepted_and_populated(self, case):
        scheduler, workload = case
        obs = Instrumentation(MetricsRegistry(), run="conformance")
        schedule = scheduler.schedule(workload, n_leaves=8, obs=obs)
        assert isinstance(schedule, Schedule)
        snapshot = obs.metrics.snapshot()
        keys = list(snapshot["counters"]) + list(snapshot["gauges"])
        assert any(
            "power" in k or "config" in k or "csa" in k or "rounds" in k
            for k in keys
        ), f"no scheduling metrics emitted: {sorted(keys)}"


class TestNetwork:
    def test_network_honoured_or_rejected(self, case):
        scheduler, workload = case
        network = CSTNetwork.of_size(8)
        if type(scheduler).supports_network:
            schedule = scheduler.schedule(workload, network=network)
            assert schedule.n_leaves == 8
        else:
            with pytest.raises(SchedulingError, match="network"):
                scheduler.schedule(workload, network=network)

    def test_conflicting_n_leaves_rejected(self, case):
        scheduler, workload = case
        if not type(scheduler).supports_network:
            pytest.skip("scheduler rejects networks entirely")
        network = CSTNetwork.of_size(8)
        with pytest.raises(SchedulingError, match="conflicts"):
            scheduler.schedule(workload, n_leaves=16, network=network)


class TestPositionalRemoved:
    """The PR-4 positional-``n_leaves`` deprecation shim is gone: the
    options are keyword-only and the old call form fails loudly."""

    def test_positional_n_leaves_raises_type_error(self, case):
        scheduler, workload = case
        with pytest.raises(TypeError):
            scheduler.schedule(workload, 8)

    def test_keyword_form_unaffected(self, case):
        scheduler, workload = case
        assert scheduler.schedule(workload, n_leaves=8).n_leaves == 8
