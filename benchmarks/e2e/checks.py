"""Output checks and schedule-quality accounting for the end-to-end benchmark.

Every DONE payload the program returns is rebuilt with
:func:`repro.io.result_from_dict` and checked against the paper's own
guarantees rather than against another run of the same code:

* exactly-once delivery of the *requested* set
  (:func:`repro.analysis.verifier.verify_schedule`, Theorem 4);
* well-nested results: rounds equal the width (Theorem 5);
* general results: the delivered set equals the input, and the batch count
  lies within [crossing-clique lower bound, greedy bound], both recomputed
  here from the input.

The same pass accumulates the quality metrics (rounds per width, power
units per delivered communication, the largest per-switch configuration
change count — Theorem 8).  Checks run after a sample's timer stops.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Hashable, Mapping

from repro.analysis.verifier import verify_schedule
from repro.comms.communication import CommunicationSet
from repro.comms.decompose import crossing_lower_bound, max_crossing_degree
from repro.comms.width import width_fast
from repro.cst.topology import CSTTopology
from repro.exceptions import ReproError
from repro.io import result_from_dict


@dataclass(frozen=True, slots=True)
class Summary:
    """What one verified result contributes to the quality metrics."""

    rounds: int
    optimum: int  # the width: Theorem 5's w-round optimum
    power_units: int
    delivered: int
    max_changes: int
    general: bool = False
    batches: int = 1
    lower_bound: int = 1
    merged_rounds: int = 0


def greedy_batch_bound(cset: CommunicationSet) -> int:
    """First-fit layering's upper bound: max crossing degree + 1 per orientation."""
    return sum(
        max_crossing_degree(part.comms) + 1
        for part in (cset.right_oriented_subset(), cset.left_oriented_subset())
        if len(part)
    )


def clique_batch_bound(cset: CommunicationSet) -> int:
    """Certified lower bound: largest crossing clique per orientation, summed."""
    return sum(
        crossing_lower_bound(part.comms)
        for part in (cset.right_oriented_subset(), cset.left_oriented_subset())
        if len(part)
    )


def verify_payload(payload: Mapping[str, Any], cset: CommunicationSet) -> Summary:
    """Check one payload against its request; raise ``AssertionError`` on failure."""
    try:
        result = result_from_dict(payload)
    except ReproError as exc:
        raise AssertionError(f"payload does not deserialise: {exc}") from exc
    schedule = getattr(result, "combined", result)
    if schedule.n_leaves < cset.min_leaves():
        raise AssertionError(f"schedule on {schedule.n_leaves} leaves cannot host the set")
    report = verify_schedule(schedule, cset)
    if not report.ok:
        raise AssertionError(f"delivery check failed: {report.failures[0]}")
    topo = CSTTopology.of(schedule.n_leaves)
    w = width_fast(cset, topo)
    power = schedule.power
    if hasattr(result, "combined"):
        if set(result.delivered) != set(cset.comms):
            raise AssertionError("general result: delivered set differs from the input")
        lo, hi = clique_batch_bound(cset), greedy_batch_bound(cset)
        if not lo <= result.n_batches <= hi:
            raise AssertionError(
                f"general result: {result.n_batches} batches outside [{lo}, {hi}]"
            )
        return Summary(
            rounds=schedule.n_rounds,
            optimum=w,
            power_units=power.total_units,
            delivered=len(result.delivered),
            max_changes=power.max_switch_changes,
            general=True,
            batches=result.n_batches,
            lower_bound=lo,
            merged_rounds=result.merged_rounds,
        )
    if schedule.n_rounds != w:
        raise AssertionError(f"{schedule.n_rounds} rounds for width {w} (Theorem 5)")
    return Summary(
        rounds=schedule.n_rounds,
        optimum=w,
        power_units=power.total_units,
        delivered=len(cset),
        max_changes=power.max_switch_changes,
    )


class Checker:
    """Verifies outputs and accumulates one workload's quality metrics.

    ``key`` names the request's input.  Inputs that repeat (a catalogue)
    are verified once per distinct payload: a repeat whose payload equals
    a copy of the verified one reuses its summary, anything else is
    verified again.  The copy keeps a cached payload changed in place from
    passing as the one that was verified.
    """

    def __init__(self, *, mean_ratio: bool = False) -> None:
        #: general workloads report the mean per-request overhead ratio;
        #: well-nested ones the pooled ``sum(rounds) / sum(width)``.
        self.mean_ratio = mean_ratio
        self.failed = 0
        self.first_failure: str | None = None
        #: the first request that did not settle DONE (not an output failure)
        self.first_error: str | None = None
        self._memo: dict[Hashable, tuple[Mapping[str, Any], Summary]] = {}
        self._summaries: list[Summary] = []

    def note_failure(self, key: Hashable, message: str) -> None:
        """Record a request the program did not complete (counted by the caller)."""
        if self.first_error is None:
            self.first_error = f"request {key!r}: {message}"

    def check(
        self,
        payload: Mapping[str, Any] | None,
        cset: CommunicationSet,
        key: Hashable,
        *,
        repeatable: bool = False,
    ) -> bool:
        try:
            if payload is None:
                raise AssertionError("no DONE payload")
            if payload["cset"]["comms"] != [[c.src, c.dst] for c in cset]:
                raise AssertionError("payload answers a different communication set")
            memo = self._memo.get(key) if repeatable else None
            if memo is not None and memo[0] == payload:
                summary = memo[1]
            else:
                summary = verify_payload(payload, cset)
                if repeatable:
                    self._memo[key] = (copy.deepcopy(payload), summary)
        except (AssertionError, KeyError, TypeError) as exc:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"request {key!r}: {exc}"
            return False
        self._summaries.append(summary)
        return True

    # -- quality metrics -----------------------------------------------------

    def quality(self) -> dict[str, float]:
        s = self._summaries
        if not s:
            return {}
        if self.mean_ratio:
            rpw = sum(x.rounds / x.optimum for x in s) / len(s)
        else:
            rpw = sum(x.rounds for x in s) / sum(x.optimum for x in s)
        rounds = sum(x.rounds for x in s)
        general = [x for x in s if x.general]
        return {
            "rounds_per_width": rpw,
            "power_units_per_comm": sum(x.power_units for x in s)
            / sum(x.delivered for x in s),
            "max_switch_changes": float(max(x.max_changes for x in s)),
            "comms.decompose.batches_per_request": sum(x.batches for x in s) / len(s),
            "comms.decompose.batch_gap": (
                sum((x.batches - x.lower_bound) / x.lower_bound for x in general)
                / len(general)
                if general
                else 0.0
            ),
            "core.rounds_per_request": rounds / len(s),
            "core.plan.merged_rounds_share": (
                sum(x.merged_rounds for x in general)
                / sum(x.rounds + x.merged_rounds for x in general)
                if general
                else 0.0
            ),
        }
