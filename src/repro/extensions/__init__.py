"""Extensions sketched in the paper's concluding remarks (§6).

``oriented`` — left-oriented sets by mirroring (paper §2.1).  Mixed and
               crossing sets are not an extension: they lower through
               :func:`repro.core.plan.schedule_general`.
``stream``   — PADR across a sequence of communication sets on one
               persistent network: cross-set configuration reuse.
``algorithms`` — computational algorithms under PADR (tree reduction).
``collectives`` — gather / scatter / shift / reverse as CST programs.
``grid_routing`` — XY point-to-point routing across the SRGA grid.
``srga``     — the Self-Reconfigurable Gate Array substrate (Sidhu et al.
               2000): a PE grid whose every row and every column is a CST,
               with row/column scheduling built on the core algorithm.
"""

from repro.extensions.oriented import MirroredScheduler
from repro.extensions.stream import StreamResult, StreamScheduler, StreamStep
from repro.extensions.algorithms import ReductionResult, srga_row_reduce, tree_reduce
from repro.extensions.collectives import (
    CollectiveResult,
    gather,
    reverse,
    scatter,
    shift,
)
from repro.extensions.srga import SRGA, SRGAScheduleResult
from repro.extensions.grid_routing import GridMessage, GridRoutingResult, route_xy

__all__ = [
    "MirroredScheduler",
    "StreamResult",
    "StreamScheduler",
    "StreamStep",
    "ReductionResult",
    "srga_row_reduce",
    "tree_reduce",
    "CollectiveResult",
    "gather",
    "reverse",
    "scatter",
    "shift",
    "SRGA",
    "SRGAScheduleResult",
    "GridMessage",
    "GridRoutingResult",
    "route_xy",
]
