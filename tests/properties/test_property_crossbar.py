"""The dict crossbar replay against the network replay.

``execute_round_plan`` replays a plan on dict crossbar state
(:mod:`repro.cst.crossbar`) when no network is supplied, and drives a
real :class:`~repro.cst.network.CSTNetwork` — ``Switch.commit_round`` and
a hop-by-hop payload trace — when one is.  On every plan, realisable or
not, and under every power policy the two must agree: the same rounds
(``staged``, ``performed``, ``writers``), the same power report with the
same per-switch order, or the same :class:`SchedulingError`.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms.communication import Communication, CommunicationSet
from repro.core.base import execute_round_plan
from repro.cst.crossbar import route
from repro.cst.network import CSTNetwork
from repro.cst.power import PowerPolicy
from repro.cst.topology import CSTTopology
from repro.exceptions import SchedulingError
from repro.io import schedule_to_dict
from repro.types import LEGAL_CONNECTIONS

POLICIES = {
    "paper": PowerPolicy.paper(),
    "eager": PowerPolicy.eager(),
    "rebuild": PowerPolicy.rebuild(),
    "htree": PowerPolicy.htree(),
    "unit2": PowerPolicy(unit_cost=2),
}


@st.composite
def plan_case(draw):
    """A tree size, an arbitrary set on it and a plan for it.

    The plan is either first-fit over ``path_edges`` in a random order
    (realisable), a random round assignment (often conflicting), or a
    random assignment that drops or repeats one pair.
    """
    n = 1 << draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=1, max_value=min(24, n // 2)))
    ends = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=2 * m,
            max_size=2 * m,
            unique=True,
        )
    )
    comms = [Communication(ends[2 * i], ends[2 * i + 1]) for i in range(m)]
    kind = draw(st.sampled_from(["realisable", "random", "miscovered"]))
    if kind == "realisable":
        topo = CSTTopology.of(n)
        rounds: list[list[Communication]] = []
        used: list[set] = []
        for c in draw(st.permutations(comms)):
            edges = set(topo.path_edges(c.src, c.dst))
            for rnd, taken in zip(rounds, used):
                if taken.isdisjoint(edges):
                    rnd.append(c)
                    taken |= edges
                    break
            else:
                rounds.append([c])
                used.append(edges)
    else:
        k = draw(st.integers(min_value=1, max_value=m))
        slots = draw(
            st.lists(st.integers(min_value=0, max_value=k - 1), min_size=m, max_size=m)
        )
        rounds = [[c for c, s in zip(comms, slots) if s == r] for r in range(k)]
        if kind == "miscovered":
            victim = draw(st.sampled_from(comms))
            if draw(st.booleans()):
                rounds = [[c for c in rnd if c != victim] for rnd in rounds]
            else:
                rounds.append([victim])
    if draw(st.booleans()):  # an idle round: eager teardown clears on it
        rounds.insert(draw(st.integers(0, len(rounds))), [])
    return n, CommunicationSet(comms), rounds


def _outcome(run):
    try:
        return run(), None
    except SchedulingError as exc:
        phrase = "not realisable" if "not realisable" in str(exc) else "plan performs"
        assert phrase in str(exc)
        return None, (type(exc), phrase)


@settings(max_examples=250, deadline=None)
@given(case=plan_case(), policy=st.sampled_from(sorted(POLICIES)))
def test_dict_replay_matches_network_replay(case, policy):
    n, cset, plan = case
    pol = POLICIES[policy]
    on_dicts, dict_error = _outcome(
        lambda: execute_round_plan(cset, n, plan, "p", policy=pol)
    )
    network = CSTNetwork.of_size(n, policy=pol)
    on_network, net_error = _outcome(
        lambda: execute_round_plan(cset, n, plan, "p", network=network)
    )
    assert dict_error == net_error
    if dict_error is not None:
        return
    assert on_dicts.rounds == on_network.rounds
    assert on_dicts.power == on_network.power
    assert json.dumps(schedule_to_dict(on_dicts)) == json.dumps(
        schedule_to_dict(on_network)
    )
    for record in on_dicts.rounds:
        for conns in record.staged.values():
            assert all(any(c is legal for legal in LEGAL_CONNECTIONS) for c in conns)


def test_routes_are_the_topology_paths():
    for n in (2, 8, 64, 1024):
        topo = CSTTopology.of(n)
        for src in range(0, n, max(1, n // 16)):
            for dst in range(n - 1, -1, -max(1, n // 8)):
                if src == dst:
                    continue
                edges, steps = route(n, src, dst)
                assert edges == tuple(
                    e.child << 1 | (e.direction.value == "down")
                    for e in topo.path_edges(src, dst)
                )
                assert [(v, LEGAL_CONNECTIONS[k]) for v, k in steps] == list(
                    topo.path_connections(src, dst).items()
                )

