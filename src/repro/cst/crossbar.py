"""The crossbar as an integer code: one transition table for every dict-state path.

A switch's crossbar (paper Figure 3a) is a partial one-to-one map from
its inputs ``l_i, r_i, p_i`` to outputs of other sides.  Here it is the
code ``l + 4r + 16p``, each digit the out-code its input drives
(0 unconnected, 1 ``l_o``, 2 ``r_o``, 3 ``p_o``).  A connection is its
index in :data:`~repro.types.LEGAL_CONNECTIONS`.

:data:`CONNECT` applies one connection to one code.  Displacement is
lazy, as in ``SwitchConfiguration.with_connection``: an input already
driving the requested output loses it.  The connection is charged when
its input did not already drive its output.  For the port-disjoint
connections of one realisable round that is exactly the connections
the new configuration holds and the old one did not.  The network's commits
(:class:`~repro.cst.switch.SwitchStore`), the CSA kernel's staging table
(:func:`stage`), the general planner's reconfiguration estimate and the
plan replay (:class:`Crossbars`) all read this one table, and a
:class:`~repro.cst.network.CSTNetwork` stores its crossbars as these
codes.  The property tests hold every path equal to the object-per-switch
oracle in ``tests/util/oracle_network.py``.

Every structure here is a dict over the switches a run touched, so no
step is sized by the tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.cst.power import PowerPolicy, PowerReport
from repro.types import LEGAL_CONNECTIONS, Connection, InPort, OutPort

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cst.switch import SwitchConfiguration

__all__ = [
    "CONNECT",
    "CONN_INDEX",
    "Crossbars",
    "Route",
    "code_of",
    "config_of",
    "edge_str",
    "route",
    "stage",
]

#: a circuit: its directed-edge ids (``child << 1`` up, ``child << 1 | 1``
#: down) and its ``(switch, connection index)`` steps in travel order.
Route = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]

#: connection index -> input index (l_i, r_i, p_i) and out-code.
_IN_OF = (0, 1, 0, 1, 2, 2)
_OUT_OF = (2, 1, 3, 3, 1, 2)
#: first index of the up (``child_i -> p_o``) and down (``p_i -> child_o``)
#: connection pairs; the child's side bit selects within a pair.
_UP, _DOWN = 2, 4

#: connection -> its index in :data:`~repro.types.LEGAL_CONNECTIONS`.
CONN_INDEX = {conn: k for k, conn in enumerate(LEGAL_CONNECTIONS)}
_IN_PORTS = (InPort.L, InPort.R, InPort.P)
_OUT_PORTS = (None, OutPort.L, OutPort.R, OutPort.P)
_IN_DIGIT = {port: i for i, port in enumerate(_IN_PORTS)}
_OUT_CODE = {port: out for out, port in enumerate(_OUT_PORTS) if port is not None}


def _row(code: int) -> list[int]:
    """Unpack a crossbar code into its out-code per input (l_i, r_i, p_i)."""
    return [code & 3, (code >> 2) & 3, code >> 4]


def _connect(code: int, conn: int) -> int:
    out_of = _row(code)
    i, out = _IN_OF[conn], _OUT_OF[conn]
    charged = out_of[i] != out
    for j in range(3):
        if j != i and out_of[j] == out:
            out_of[j] = 0
    out_of[i] = out
    return (out_of[0] + 4 * out_of[1] + 16 * out_of[2]) << 1 | charged


#: every single-connection transition, indexed by ``code << 3 | conn``:
#: ``new_code << 1 | charged``.
CONNECT = tuple(
    _connect(code, conn) if conn < len(LEGAL_CONNECTIONS) else 0
    for code in range(64)
    for conn in range(8)
)


def stage(code: int, conns: Iterable[Connection]) -> int:
    """Apply ``conns`` in order to crossbar ``code``: ``new_code << 2 | charged``."""
    charged = 0
    for conn in conns:
        step = CONNECT[code << 3 | CONN_INDEX[conn]]
        code = step >> 1
        charged += step & 1
    return code << 2 | charged


#: decoded configuration per code.  Configurations are immutable value
#: objects, so one instance per distinct code can be shared.
_CONFIGS: dict[int, SwitchConfiguration] = {}


def config_of(code: int) -> "SwitchConfiguration":
    """The :class:`~repro.cst.switch.SwitchConfiguration` a code stands for."""
    conf = _CONFIGS.get(code)
    if conf is None:
        from repro.cst.switch import SwitchConfiguration

        conns = [
            Connection(_IN_PORTS[i], _OUT_PORTS[out])
            for i, out in enumerate(_row(code))
            if out
        ]
        conf = _CONFIGS.setdefault(code, SwitchConfiguration(conns))
    return conf


def code_of(conf: Iterable[Connection]) -> int:
    """The code of a configuration (or of port-disjoint connections)."""
    code = 0
    for conn in conf:
        code |= _OUT_CODE[conn.out_port] << 2 * _IN_DIGIT[conn.in_port]
    return code


def route(n_leaves: int, src: int, dst: int) -> Route:
    """The circuit from PE ``src`` to PE ``dst`` on an ``n_leaves`` tree.

    The same route as ``CSTTopology.path_edges`` and ``path_connections``,
    as integers: up from the source leaf to the LCA, which turns the
    signal from the source arm to the destination arm, then down.
    """
    s = n_leaves + src
    d = n_leaves + dst
    h = (s ^ d).bit_length()  # levels from the leaves up to the LCA
    edges = [(s >> k) << 1 for k in range(h)]
    edges += [(d >> k) << 1 | 1 for k in range(h - 1, -1, -1)]
    steps = [(s >> k, _UP | ((s >> (k - 1)) & 1)) for k in range(1, h)]
    steps.append((s >> h, (s >> (h - 1)) & 1))  # l_i->r_o or r_i->l_o
    steps += [(d >> k, _DOWN | ((d >> (k - 1)) & 1)) for k in range(h - 1, 0, -1)]
    return tuple(edges), tuple(steps)


def edge_str(edge: int) -> str:
    """A directed-edge id as :class:`~repro.cst.topology.DirectedEdge` prints it."""
    return f"e({edge >> 1}){'v' if edge & 1 else '^'}"


class Crossbars:
    """Crossbar codes, power units and change counts of the touched switches.

    :meth:`commit` charges a round as a full-sweep ``commit_round`` of a
    :class:`~repro.cst.network.CSTNetwork` does:

    * a connection costs ``unit_cost * wire_weight_base ** (height - level)``;
    * lazy (paper): staged connections displace, the rest persist for free,
      and a connection is charged when it was not already held;
    * eager teardown: the crossbar becomes exactly the staged connections,
      so a configured switch left unstaged is cleared (one change, no
      charge);
    * rebuild: as eager, but every staged connection is charged.

    A switch whose crossbar differs from the last round's counts one
    change.  Switches are committed in ascending heap id, so ``units`` and
    ``changes`` fill in the order a full sweep would fill the meter.
    """

    __slots__ = ("cfg", "units", "changes", "_level_cost", "_eager", "_recharge", "_held")

    def __init__(self, n_leaves: int, policy: PowerPolicy) -> None:
        height = n_leaves.bit_length() - 1
        base = policy.wire_weight_base
        self._level_cost = [
            policy.unit_cost * base ** (height - lvl) for lvl in range(height)
        ]
        self._eager = policy.eager_teardown
        self._recharge = policy.recharge
        #: switches the last round configured (eager teardown clears them).
        self._held: tuple[int, ...] = ()
        self.cfg: dict[int, int] = {}
        self.units: dict[int, int] = {}
        self.changes: dict[int, int] = {}

    def commit(self, staged: Mapping[int, Sequence[int]]) -> None:
        """Commit one round of staged connection indices per switch."""
        cfg, units, changes = self.cfg, self.units, self.changes
        level_cost = self._level_cost
        eager = self._eager
        ids = staged.keys() | self._held if eager else staged
        for v in sorted(ids):
            old = code = cfg.get(v, 0)
            conns = staged.get(v, ())
            charged = 0
            for k in conns:
                step = CONNECT[code << 3 | k]
                code = step >> 1
                charged += step & 1
            if eager:
                code = 0
                for k in conns:
                    code = CONNECT[code << 3 | k] >> 1
                if self._recharge:
                    charged = len(conns)
            if charged:
                units[v] = units.get(v, 0) + charged * level_cost[v.bit_length() - 1]
            if code != old:
                changes[v] = changes.get(v, 0) + 1
                cfg[v] = code
        if eager:
            self._held = tuple(staged)

    def report(self, rounds: int) -> PowerReport:
        units = self.units
        return PowerReport(
            total_units=sum(units.values()),
            per_switch_units=units,
            per_switch_changes=self.changes,
            rounds=rounds,
        )
