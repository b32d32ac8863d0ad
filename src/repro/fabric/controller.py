""":class:`FabricController` — one controller, a forest of CSTs.

The controller owns ``tree_count`` shards, each a full CST of
``leaf_width`` leaves with its own single-process executor, and does
three jobs:

* **route** — deterministic request placement.  The shard key is the
  PR-4 relabelling-invariant canonical signature
  (:func:`repro.service.cache.canonical_signature`): hashing
  ``(placed profile, config signature)`` with CRC-32 means repeats of
  the same placed workload land on the same tree *and* produce the same
  cache key, so the shared :class:`~repro.service.cache.ScheduleCache`
  keeps working across the whole fabric.  Streaming tenants route by
  tenant id instead (:meth:`route_tenant`) — one tenant's stream stays
  on one tree.  CRC-32, not :func:`hash`: the builtin is salted per
  process and would route the same key differently in every worker.
* **execute** — fan a wave of requests out to their shards, one pickled
  :func:`~repro.service.worker.schedule_many` call per shard per wave.
  Each shard runs on its own single-process
  :class:`~repro.service.pipeline.WorkerExecutor`, forked lazily from the
  one :class:`~repro.core.config.SchedulerConfig`; ``parallel=False`` runs
  every shard in-process (the executor's inline mode — the unit-test and
  single-core story).  A shard whose worker dies or hangs mid-call is
  killed and its requests reported transient, the same broken-pool
  recovery the batch service's pool gets.
* **rebalance** — watch per-shard load over a sliding window and, when
  the max/mean skew exceeds ``rebalance_skew``, rotate the routing salt
  so future waves spread differently.  Rebalancing never touches the
  cache (keys are signatures, not shards) and never moves in-flight
  work; it is recorded as a ``fabric.rebalances`` event.

Single-cset runs wider than one tree go through
:meth:`schedule_global`, which splits the set over the forest and packs
the spanning pairs onto the aggregation spine
(:mod:`repro.fabric.aggregation`).
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.comms.communication import CommunicationSet
from repro.comms.wellnested import is_well_nested
from repro.core.base import DECOMPOSE_MODES
from repro.core.config import SchedulerConfig
from repro.exceptions import NotWellNestedError, SchedulingError
from repro.fabric.aggregation import (
    FabricSchedule,
    GeneralFabricSchedule,
    pack_cross_rounds,
    split,
)
from repro.obs.instrument import Instrumentation
from repro.service.cache import CanonicalKey
from repro.service.pipeline import WorkerExecutor, WorkerPoolError
from repro.service.worker import WorkRequest, WorkResponse
from repro.util.bitmath import is_power_of_two

__all__ = ["FabricController"]


class FabricController:
    """Partition scheduling work across a forest of ``tree_count`` CSTs.

    Parameters
    ----------
    tree_count:
        number of shards (CSTs).  ``1`` is a legitimate fabric — it must
        behave bit-identically to the unsharded service path.
    leaf_width:
        leaves per tree; a power of two ``>= 2``.  Requests needing more
        leaves than this cannot be placed on a single shard (services
        reject them at the door; :meth:`schedule_global` is the
        spanning-set path).
    config:
        the one :class:`~repro.core.config.SchedulerConfig` every shard
        executor is initialised from.
    parallel:
        ``True`` gives each shard its own single-process fork pool;
        ``False`` executes every shard inline in this process (identical
        results — the executor runs the same worker functions either way).
    rebalance_skew:
        max/mean per-shard load ratio above which the routing salt
        rotates.  ``0`` disables rebalancing.
    shard_timeout:
        seconds to wait for one shard's wave result before declaring the
        shard broken.  A dead worker surfaces at once (the executor's
        ``BrokenProcessPool``); the timeout is the backstop for a *hung*
        one.  Either way the shard's worker is killed and a fresh one
        forked for the next wave.  ``None`` waits forever.
    obs:
        optional :class:`~repro.obs.Instrumentation`; the controller
        emits ``fabric.*`` counters and gauges.
    """

    def __init__(
        self,
        tree_count: int,
        leaf_width: int,
        *,
        config: SchedulerConfig | None = None,
        parallel: bool = True,
        rebalance_skew: float = 4.0,
        rebalance_window: int = 64,
        shard_timeout: float | None = 60.0,
        obs: "Instrumentation | None" = None,
    ) -> None:
        if tree_count < 1:
            raise SchedulingError(f"tree_count must be >= 1, got {tree_count}")
        if not is_power_of_two(leaf_width) or leaf_width < 2:
            raise SchedulingError(
                f"leaf_width must be a power of two >= 2, got {leaf_width}"
            )
        if rebalance_skew < 0:
            raise SchedulingError(
                f"rebalance_skew must be >= 0, got {rebalance_skew}"
            )
        if rebalance_window < 1:
            raise SchedulingError(
                f"rebalance_window must be >= 1, got {rebalance_window}"
            )
        self.tree_count = tree_count
        self.leaf_width = leaf_width
        self.config = config if config is not None else SchedulerConfig()
        self.parallel = parallel
        self.rebalance_skew = rebalance_skew
        self.rebalance_window = rebalance_window
        self.shard_timeout = shard_timeout
        self.obs = obs
        self._salt = 0
        processes = 1 if parallel and tree_count > 1 else 0
        self._executors = [
            WorkerExecutor(self.config, processes, shard_timeout)
            for _ in range(tree_count)
        ]
        self._direct = None  # lazy scheduler for schedule_global local legs
        #: lifetime requests executed per shard (metrics / bench surface)
        self.shard_load: list[int] = [0] * tree_count
        #: requests per shard since the last rebalance check
        self._window_load: list[int] = [0] * tree_count
        self._window_total = 0
        self.rebalances = 0
        #: (salt, per-shard window loads) at each rebalance, oldest first
        self.rebalance_events: list[tuple[int, tuple[int, ...]]] = []
        self.cross_pairs = 0
        self.local_pairs = 0

    # -- routing -------------------------------------------------------------

    def _bucket(self, token: str) -> int:
        digest = zlib.crc32(f"{self._salt}:{token}".encode())
        return digest % self.tree_count

    def route(self, key: CanonicalKey) -> int:
        """The shard a canonical signature lives on (deterministic)."""
        return self._bucket(f"sig:{key.n_leaves}:{key.placed}:{key.config}")

    def route_tenant(self, tenant: str) -> int:
        """The shard a streaming tenant's traffic pins to."""
        return self._bucket(f"tenant:{tenant}")

    # -- execution -----------------------------------------------------------

    def execute(
        self, requests: list[WorkRequest], shards: list[int]
    ) -> list[WorkResponse]:
        """Run one wave: ``requests[i]`` executes on ``shards[i]``.

        One ``schedule_many`` call per involved shard; shards run
        concurrently when ``parallel``.  Response order is unspecified
        (the services settle by ticket id).
        """
        if len(requests) != len(shards):
            raise SchedulingError(
                f"{len(requests)} requests but {len(shards)} shard ids"
            )
        by_shard: dict[int, list[WorkRequest]] = {}
        for request, shard in zip(requests, shards):
            if not 0 <= shard < self.tree_count:
                raise SchedulingError(
                    f"shard {shard} out of range 0..{self.tree_count - 1}"
                )
            by_shard.setdefault(shard, []).append(request)

        for shard, reqs in by_shard.items():
            self.shard_load[shard] += len(reqs)
            self._window_load[shard] += len(reqs)
            self._window_total += len(reqs)
            self._gauge("fabric.shard.load", self.shard_load[shard], shard=shard)
        self._inc("fabric.requests", len(requests))

        waves = [
            (shard, reqs, self._executors[shard].start(reqs))
            for shard, reqs in by_shard.items()
        ]
        out: list[WorkResponse] = []
        for shard, reqs, wave in waves:
            try:
                out.extend(self._executors[shard].finish(wave))
            except WorkerPoolError as exc:
                # the executor already killed this shard's worker; the
                # service retries these requests on a fresh one.
                self._inc("fabric.shard.broken")
                err = f"shard {shard} worker failure: {exc}"
                out.extend((tid, "transient", err) for tid, _, _ in reqs)
        return out

    # -- rebalancing ---------------------------------------------------------

    def maybe_rebalance(self) -> bool:
        """Rotate the routing salt when the load window is badly skewed.

        Judged only after ``rebalance_window`` requests have accumulated
        (a handful of requests always looks skewed).  Returns whether a
        rebalance happened.
        """
        if (
            self.rebalance_skew <= 0
            or self.tree_count == 1
            or self._window_total < self.rebalance_window
        ):
            return False
        mean = self._window_total / self.tree_count
        skew = max(self._window_load) / mean if mean else 0.0
        window = tuple(self._window_load)
        self._window_load = [0] * self.tree_count
        self._window_total = 0
        if skew < self.rebalance_skew:
            return False
        self._salt += 1
        self.rebalances += 1
        self.rebalance_events.append((self._salt, window))
        self._inc("fabric.rebalances")
        return True

    # -- spanning sets -------------------------------------------------------

    def schedule_global(
        self,
        cset: CommunicationSet,
        *,
        n_leaves: int | None = None,
        decompose: str | None = None,
    ) -> FabricSchedule | GeneralFabricSchedule:
        """Schedule one set over the *whole* fabric's leaf line.

        Local legs run on their shards under the ordinary per-tree
        optimum; spanning pairs are packed onto the aggregation spine.
        The result's :meth:`~repro.fabric.aggregation.FabricSchedule.delivered`
        set equals the input pairs — the fabric's parity surface.

        ``decompose`` overrides ``config.decompose`` for this call.  A
        non-well-nested set under ``"auto"`` is decomposed *globally* into
        uniformly oriented well-nested batches, each run as its own fabric
        phase; the phases serialize into a
        :class:`~repro.fabric.aggregation.GeneralFabricSchedule`.  Under
        ``"never"`` such a set is rejected up front; ``"strict"`` keeps
        the historical behaviour (the local legs' scheduler raises).
        """
        del n_leaves  # the fabric's leaf line is fixed by its geometry
        mode = decompose if decompose is not None else self.config.decompose
        if mode not in DECOMPOSE_MODES:
            raise SchedulingError(
                f"decompose must be one of {DECOMPOSE_MODES}, got {mode!r}"
            )
        if mode != "strict" and not is_well_nested(cset):
            if mode == "never":
                raise NotWellNestedError(
                    "fabric schedule_global requires a well-nested set "
                    "under decompose='never'"
                )
            return self._schedule_global_general(cset)
        return self._schedule_global_phase(cset)

    def _schedule_global_phase(
        self, cset: CommunicationSet, *, left: bool = False
    ) -> FabricSchedule:
        """One fabric phase: split, schedule local legs, pack the spine.

        ``left`` selects the mirror lens for the local legs — a left
        batch's shard-local pairs are left-oriented, and the per-tree
        scheduler only speaks the right-oriented input class.
        """
        local_sets, cross = split(cset, self.tree_count, self.leaf_width)
        if self._direct is None:
            self._direct = self.config.build()
        if left:
            from repro.extensions.oriented import MirroredScheduler

            scheduler = MirroredScheduler(self._direct)
        else:
            scheduler = self._direct
        local = {
            shard: scheduler.schedule(subset, n_leaves=self.leaf_width)
            for shard, subset in sorted(local_sets.items())
        }
        hops = pack_cross_rounds(cross)
        self.local_pairs += sum(len(s) for s in local_sets.values())
        self.cross_pairs += len(hops)
        self._inc("fabric.cross_shard.pairs", len(hops))
        self._inc(
            "fabric.local.pairs", sum(len(s) for s in local_sets.values())
        )
        schedule = FabricSchedule(
            tree_count=self.tree_count,
            leaf_width=self.leaf_width,
            local=local,
            cross=tuple(hops),
        )
        self._gauge("fabric.cross_shard.ratio", schedule.cross_ratio)
        return schedule

    def _schedule_global_general(
        self, cset: CommunicationSet
    ) -> GeneralFabricSchedule:
        """Decompose an arbitrary global set and run one phase per batch."""
        from repro.comms.decompose import decompose as _decompose

        decomposition = _decompose(cset)
        phases = tuple(
            self._schedule_global_phase(
                batch.cset, left=batch.orientation == "left"
            )
            for batch in decomposition.batches
        )
        schedule = GeneralFabricSchedule(
            tree_count=self.tree_count,
            leaf_width=self.leaf_width,
            phases=phases,
            batch_orientations=tuple(
                b.orientation for b in decomposition.batches
            ),
            lower_bound=decomposition.lower_bound,
        )
        self._inc("decompose.requests")
        self._inc("decompose.batches", schedule.n_batches)
        return schedule

    # -- introspection / lifecycle -------------------------------------------

    @property
    def cross_ratio(self) -> float:
        """Lifetime fraction of globally-scheduled pairs that crossed."""
        total = self.local_pairs + self.cross_pairs
        return self.cross_pairs / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        """One snapshot for benches and the CLI."""
        return {
            "tree_count": self.tree_count,
            "leaf_width": self.leaf_width,
            "shard_load": list(self.shard_load),
            "requests": sum(self.shard_load),
            "rebalances": self.rebalances,
            "local_pairs": self.local_pairs,
            "cross_pairs": self.cross_pairs,
            "cross_ratio": self.cross_ratio,
        }

    def close(self) -> None:
        """Shut every shard executor down (idempotent)."""
        for executor in self._executors:
            executor.close()

    def terminate(self) -> None:
        """Hard teardown — kills every shard's worker (:meth:`close`'s
        abort-path counterpart)."""
        for executor in self._executors:
            executor.abort()

    def __enter__(self) -> "FabricController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- metrics helpers -----------------------------------------------------

    def _inc(self, name: str, amount: int = 1, **labels: Any) -> None:
        if self.obs is not None and amount:
            self.obs.metrics.inc(name, amount, run=self.obs.run, **labels)

    def _gauge(self, name: str, value: float, **labels: Any) -> None:
        if self.obs is not None:
            self.obs.metrics.set(name, value, run=self.obs.run, **labels)
