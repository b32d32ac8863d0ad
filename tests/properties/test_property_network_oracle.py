"""The dict-backed network against the object-per-switch oracle.

:class:`~repro.cst.network.CSTNetwork` keeps its state in dicts over the
switches and PEs it touched and commits through one crossbar rule;
``tests/util/oracle_network.py`` keeps the model it replaced, one object
per switch and PE, a fault as a wrapper object and every full-sweep round
as a visit to every switch.  Random operation sequences drive both —
roles, staging, commits with and without ``staged_ids``, single-switch
commits and resets, transfers, traces, faults, payloads and ``reset()``,
with and without an event log — under every power policy.  After every
step the two must agree on every switch's configuration, staging,
change and commit counts, the meter report (in order), every PE, the
trace results and the event log; an operation that raises must raise
the same exception type on both sides.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cst.events import EventLog
from repro.cst.faults import (
    DeadSwitchFault,
    MisrouteFault,
    StuckSwitchFault,
    clear_faults,
    inject,
)
from repro.cst.network import CSTNetwork
from repro.cst.power import PowerPolicy
from repro.types import LEGAL_CONNECTIONS, Role
from tests.util.oracle_network import (
    OracleNetwork,
    oracle_clear_faults,
    oracle_inject,
)

POLICIES = {
    "paper": PowerPolicy.paper(),
    "eager": PowerPolicy.eager(),
    "rebuild": PowerPolicy.rebuild(),
    "htree": PowerPolicy.htree(),
    "unit2": PowerPolicy(unit_cost=2),
}
FAULTS = (StuckSwitchFault(), DeadSwitchFault(), MisrouteFault())
ROLES = (Role.SOURCE, Role.DESTINATION, Role.NEITHER)


@st.composite
def operations(draw, n: int):
    """One operation on an ``n``-leaf network, as a tagged tuple."""
    switch = st.integers(min_value=1, max_value=n - 1)
    pe = st.integers(min_value=0, max_value=n - 1)
    conn = st.integers(min_value=0, max_value=len(LEGAL_CONNECTIONS) - 1)
    kind = draw(
        st.sampled_from(
            [
                "roles", "stage", "path", "path", "commit", "commit_ids",
                "commit_some", "switch_commit", "switch_reset", "transfer",
                "trace", "inject", "clear", "payload", "reset",
            ]
        )
    )
    if kind == "roles":
        return kind, draw(st.dictionaries(pe, st.sampled_from(ROLES), max_size=4))
    if kind == "stage":
        return kind, draw(
            st.dictionaries(switch, st.lists(conn, min_size=1, max_size=2), max_size=3)
        )
    if kind == "path":
        src, dst = draw(st.lists(pe, min_size=2, max_size=2, unique=True))
        return kind, (src, dst)
    if kind in ("commit_some", "switch_commit", "switch_reset"):
        return kind, draw(st.lists(switch, max_size=3))
    if kind == "transfer":  # usually only the sources that have not sent
        return kind, (draw(st.lists(pe, max_size=3)), draw(st.integers(0, 3)) > 0)
    if kind == "trace":
        return kind, draw(pe)
    if kind == "inject":
        return kind, (draw(switch), draw(st.sampled_from(range(len(FAULTS)))))
    if kind == "payload":
        return kind, (draw(pe), draw(st.integers(0, 9)))
    return kind, None


@st.composite
def scenario(draw):
    n = 1 << draw(st.integers(min_value=1, max_value=4))
    logged = draw(st.booleans())
    ops = draw(st.lists(operations(n), min_size=2, max_size=24))
    return n, logged, ops


def _apply(net, kind, arg, *, inject_fn, clear_fn):
    """Run one operation; returns what it observably returned."""
    if kind == "roles":
        net.assign_roles(arg)
    elif kind == "stage":
        net.stage({v: [LEGAL_CONNECTIONS[k] for k in ks] for v, ks in arg.items()})
    elif kind == "path":
        net.stage({v: (c,) for v, c in net.topology.path_connections(*arg).items()})
    elif kind == "commit":
        net.commit_round()
    elif kind == "commit_ids":
        net.commit_round(sorted({v for v, sw in net.switches.items() if sw.staged}))
    elif kind == "commit_some":
        net.commit_round(arg)
    elif kind == "switch_commit":
        return [net.switches[v].commit_round() for v in arg]
    elif kind == "switch_reset":
        for v in arg:
            net.switches[v].reset()
    elif kind == "transfer":
        writers, ready_only = arg
        if ready_only:
            writers = [
                i for i in dict.fromkeys(writers)
                if net.pes[i].role is Role.SOURCE and net.pes[i].sent_round is None
            ]
        return net.transfer(writers, net.rounds_run)
    elif kind == "trace":
        return net.trace_from(arg)
    elif kind == "inject":
        inject_fn(net, arg[0], FAULTS[arg[1]])
    elif kind == "clear":
        return clear_fn(net)
    elif kind == "payload":
        net.pes[arg[0]].payload = ("datum", arg[1])
    elif kind == "reset":
        net.reset()
    return None


def _state(net):
    report = net.power_report()
    return {
        "switches": [
            (v, sw.configuration, sw.staged, sw.config_changes, sw.rounds_committed)
            for v, sw in net.switches.items()
        ],
        "units": list(report.per_switch_units.items()),
        "changes": list(report.per_switch_changes.items()),
        "report": (report.total_units, report.rounds),
        "pes": [
            (pe.index, pe.role, pe.payload, list(pe.received), pe.sent_round,
             pe.received_round, pe.done)
            for pe in net.pes
        ],
        "roled": net.roled_pes,
        "all_done": net.all_done,
        "rounds_run": net.rounds_run,
        "faults": (net.fault_injected, net.fault_signature()),
        "config_changes": net.config_changes(),
    }


def _run(net, kind, arg, **fns):
    try:
        return _apply(net, kind, arg, **fns), None
    except Exception as exc:  # the exception type is part of the contract
        return None, type(exc)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=scenario())
def test_network_matches_object_oracle(policy, case):
    n, logged, ops = case
    pol = POLICIES[policy]
    new_log = EventLog() if logged else None
    old_log = EventLog() if logged else None
    new = CSTNetwork.of_size(n, policy=pol, event_log=new_log)
    old = OracleNetwork.of_size(n, policy=pol, event_log=old_log)
    for kind, arg in ops:
        got = _run(new, kind, arg, inject_fn=inject, clear_fn=clear_faults)
        want = _run(old, kind, arg, inject_fn=oracle_inject, clear_fn=oracle_clear_faults)
        assert got == want, (kind, arg)
        if want[1] is not None:
            return  # a failed operation may stop half done; the run ends here
        assert _state(new) == _state(old), (kind, arg)
        if logged:
            assert new_log.events == old_log.events
