"""Counting tests: nothing on the network path is sized by the tree.

Theorem 5 gives each switch O(1) state and O(1) time per round, so a run
on a million-leaf network should make objects and hold state only for the
switches and PEs it touches.  These tests count the ``Switch`` /
``ProcessingElement`` / ``SwitchConfiguration`` objects made and the
entries the network's dicts hold, at n = 2^20, against a small multiple of
pairs × log2 n — counts, not timings, so they hold on any host.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.comms.generators import random_well_nested
from repro.core.base import execute_round_plan
from repro.core.columnar import ColumnarRun
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.cst.network import CSTNetwork
from repro.cst.pe import ProcessingElement
from repro.cst.switch import Switch, SwitchConfiguration

N = 1 << 20
PAIRS = 24
#: pairs × (2·log2 n): the most switches the set's circuits can touch.
TOUCHED = PAIRS * 2 * 20


@pytest.fixture
def made(monkeypatch):
    """Counts of the state objects made while the test runs: standalone
    constructions and the views a network makes on access."""
    counts: Counter[str] = Counter()
    for owner in (Switch, ProcessingElement, SwitchConfiguration):
        init = owner.__init__

        def counted_init(obj, *args, _f=init, _key=owner.__name__, **kwargs):
            counts[_key] += 1
            return _f(obj, *args, **kwargs)

        monkeypatch.setattr(owner, "__init__", counted_init)
        if hasattr(owner, "of_store"):
            view = owner.of_store

            def counted_view(cls, *args, _f=view, _key=owner.__name__, **kwargs):
                counts[_key] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(owner, "of_store", classmethod(counted_view))
    return counts


@pytest.fixture
def cset():
    return random_well_nested(PAIRS, N, np.random.default_rng(20))


def entries(net: CSTNetwork) -> int:
    """Entries the network's largest state dict holds, meter included."""
    sw, pe, meter = net.switch_state, net.pe_state, net.meter
    held = (
        sw.cfg, sw.staged, sw.changes, sw.commits, sw.faults,
        pe.roles, pe.payloads, pe.sent, pe.latched, pe.received,
        meter._units, meter._changes,
    )
    return max(len(d) for d in held)


def test_of_size_makes_no_switch_or_pe(made):
    net = CSTNetwork.of_size(N)
    assert len(net.switches) == N - 1 and len(net.pes) == N
    assert sum(made.values()) == 0
    assert entries(net) == 0


def test_kernel_run_with_write_back_reset_and_reports(made, cset, monkeypatch):
    write_backs = []
    original = ColumnarRun.write_back

    def counted(run, network):
        write_backs.append(network)
        return original(run, network)

    monkeypatch.setattr(ColumnarRun, "write_back", counted)
    net = CSTNetwork.of_size(N)
    schedule = PADRScheduler().schedule(cset, network=net)
    assert write_backs == [net]
    report = net.power_report()
    assert report.total_units == schedule.power.total_units
    assert net.fault_signature() == ()
    assert net.all_done
    assert 0 < entries(net) <= TOUCHED
    net.reset()
    assert net.rounds_run == 0 and net.meter.total_units == 0
    assert entries(net) <= 2 * PAIRS  # only the roles stay
    assert sum(made.values()) <= 2 * TOUCHED, made


def test_fast_engine_run(made, cset):
    net = CSTNetwork.of_size(N)
    PADRScheduler(config=SchedulerConfig(engine="fast")).schedule(cset, network=net)
    assert net.all_done
    assert 0 < entries(net) <= TOUCHED
    assert sum(made.values()) <= 2 * TOUCHED, made


def test_round_plan_on_a_supplied_network(made, cset):
    plan = [list(r.performed) for r in PADRScheduler().schedule(cset, n_leaves=N).rounds]
    net = CSTNetwork.of_size(N)
    schedule = execute_round_plan(cset, N, plan, "plan", network=net)
    assert schedule.n_rounds == len(plan)
    assert net.all_done
    assert 0 < entries(net) <= TOUCHED
    assert sum(made.values()) <= 2 * TOUCHED, made
