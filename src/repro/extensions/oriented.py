"""Left-oriented sets by reflection.

The paper treats right-oriented sets and notes (§2.1) that left-oriented
sets are symmetric and that any set decomposes into one set of each
orientation.  :class:`MirroredScheduler` schedules a *left-oriented*
well-nested set by reflecting PE indices through the centre of the tree,
running any right-oriented scheduler, and reflecting the resulting
schedule back.  Reflection swaps the roles of left/right children
everywhere, so a schedule valid on the mirror image is valid on the
original.  Mixed and crossing sets go through
:func:`repro.core.plan.schedule_general`, which splits them by
orientation (:func:`repro.comms.decompose.decompose`).
"""

from __future__ import annotations

from repro.comms.communication import Communication, CommunicationSet
from repro.core.base import ScheduleContext, Scheduler
from repro.core.csa import PADRScheduler
from repro.core.schedule import RoundRecord, Schedule
from repro.exceptions import OrientationError

__all__ = ["MirroredScheduler"]


def _mirror_schedule(schedule: Schedule, cset: CommunicationSet, n: int) -> Schedule:
    """Reflect a schedule produced on the mirrored set back to the original."""
    rounds = []
    for r in schedule.rounds:
        performed = tuple(
            Communication(n - 1 - c.src, n - 1 - c.dst) for c in r.performed
        )
        writers = tuple(sorted(n - 1 - pe for pe in r.writers))
        # staged connections live on mirrored switch ids; keep them keyed by
        # the mirrored network's ids but note the mirroring in the name.
        rounds.append(
            RoundRecord(index=r.index, performed=performed, writers=writers, staged=r.staged)
        )
    return Schedule(
        cset=cset,
        n_leaves=n,
        scheduler_name=f"mirrored({schedule.scheduler_name})",
        rounds=tuple(rounds),
        power=schedule.power,
        control_messages=schedule.control_messages,
        control_words=schedule.control_words,
    )


class MirroredScheduler(Scheduler):
    """Schedule a left-oriented well-nested set via reflection."""

    supports_network = False

    def __init__(self, inner: Scheduler | None = None) -> None:
        self.inner = inner if inner is not None else PADRScheduler()
        self.name = f"mirrored({self.inner.name})"

    def _schedule(self, cset: CommunicationSet, ctx: ScheduleContext) -> Schedule:
        if not cset.is_left_oriented:
            raise OrientationError("MirroredScheduler expects a left-oriented set")
        n = ctx.n_leaves
        mirrored = cset.mirrored(n)
        inner_schedule = self.inner.schedule(mirrored, n_leaves=n, policy=ctx.policy)
        return _mirror_schedule(inner_schedule, cset, n)
