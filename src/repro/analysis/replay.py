"""Replay: re-execute a recorded schedule's round plan independently.

A :class:`~repro.core.schedule.Schedule` records *what happened*; replay
re-derives every switch setting from the tree geometry alone (the unique
circuit of each performed communication), re-runs the rounds on fresh
dict crossbar state (:func:`repro.core.base.execute_round_plan` without a
network), and checks the outcome matches.  This closes two loops:

* **cross-validation of the CSA** — the distributed algorithm's rank-and-
  counter machinery must produce exactly realisable compatible rounds;
  replay re-realises them from first principles;
* **archive integrity** — a schedule serialized with :mod:`repro.io` can
  be restored and replayed on another machine; a tampered record fails.

Replay also yields an independent power measurement under any policy,
which is how recorded CSA runs can be re-costed under e.g. the rebuild
discipline without re-running the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comms.communication import CommunicationSet
from repro.core.base import execute_round_plan
from repro.core.schedule import Schedule
from repro.cst.power import PowerPolicy
from repro.exceptions import VerificationError

__all__ = ["ReplayReport", "replay_schedule"]


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """Outcome of replaying one schedule."""

    original: Schedule
    replayed: Schedule

    @property
    def deliveries_match(self) -> bool:
        orig = [tuple(sorted(r.performed)) for r in self.original.rounds]
        repl = [tuple(sorted(r.performed)) for r in self.replayed.rounds]
        return orig == repl

    @property
    def power_delta(self) -> int:
        """Replayed minus original total units (0 when policies match and
        the original staged nothing beyond the circuits)."""
        return self.replayed.power.total_units - self.original.power.total_units

    def raise_if_mismatched(self) -> "ReplayReport":
        if not self.deliveries_match:
            raise VerificationError(
                f"replay of {self.original.scheduler_name!r} diverged: "
                "per-round deliveries differ from the record"
            )
        return self


def replay_schedule(
    schedule: Schedule,
    cset: CommunicationSet,
    *,
    policy: PowerPolicy | None = None,
) -> ReplayReport:
    """Re-execute ``schedule``'s rounds on fresh crossbar state.

    The plan is taken from the recorded per-round deliveries; each round
    is re-routed from the tree geometry, checked edge-disjoint and
    re-charged.  Raises
    :class:`~repro.exceptions.SchedulingError` if a recorded round is not
    realisable (incompatible), which for honestly-produced schedules can
    only mean the record was corrupted.
    """
    plan = [list(r.performed) for r in schedule.rounds]
    replayed = execute_round_plan(
        cset,
        schedule.n_leaves,
        plan,
        f"replay({schedule.scheduler_name})",
        policy=policy,
    )
    return ReplayReport(original=schedule, replayed=replayed)
