"""Canonical schedule signatures and the S3-FIFO schedule cache.

A well-nested communication set is, structurally, a Dyck word
(:mod:`repro.comms.wellnested`): erase the idle leaves from its
parenthesis profile and two sets that are relabellings of each other
collapse to the same word.  That Dyck word is the *canonical signature*
the service reports and groups by.

The *cache key* is stricter than the Dyck word on purpose.  Power and
round structure depend on where the communications actually sit in the
tree — relabelling a set moves its circuits onto different switches — so
serving a cached schedule across a relabelling would break the service's
bit-identical-parity guarantee.  The key therefore pins the exact pairing
(every communication's two endpoints, in source order), the tree size and
the :meth:`~repro.core.config.SchedulerConfig.cache_signature` it was
computed under.  For a well-nested set the pairing and the placed
parenthesis profile determine each other, so the key is as exact as the
profile, but it costs O(pairs) to build and hash where the profile is an
``n_leaves``-character string.  Repeats of the *same placed workload*
hit; everything else misses.

The cache stores serialized schedule payloads
(:func:`repro.io.schedule_to_dict`), the same representation that crosses
the worker-pool boundary — so a hit and a pool round-trip are literally
the same bytes, and parity checks compare one canonical form.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any

from repro.comms.communication import CommunicationSet
from repro.comms.wellnested import is_well_nested
from repro.core.config import SchedulerConfig
from repro.cst.topology import check_n_leaves
from repro.exceptions import OrientationError, SchedulingError
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

__all__ = ["CanonicalKey", "ScheduleCache", "canonical_signature"]

#: a cache key: ``(n_leaves, flat endpoint tuple, config signature)``
Key = tuple[int, tuple[int, ...], str]


@dataclass(frozen=True, slots=True)
class CanonicalKey:
    """A communication set canonicalised for caching and grouping.

    ``pairs`` is the set's pairing as one flat tuple of endpoints in source
    order, ``(src0, dst0, src1, dst1, ...)``; ``dyck`` is the
    relabelling-invariant Dyck word (structure only).  Cache lookups use
    :attr:`cache_key`, ``(n_leaves, pairs, config)``; ``dyck`` is the
    coarser equivalence class reported in metrics and batch summaries.

    ``general`` marks keys of sets outside the PADR input class
    (crossings or left-oriented pairs).  The service excludes them from
    columnar same-shape batch grouping.
    """

    n_leaves: int
    dyck: str
    pairs: tuple[int, ...]
    config: str
    general: bool = False

    @property
    def cache_key(self) -> Key:
        return (self.n_leaves, self.pairs, self.config)

    @property
    def placed(self) -> str:
        """The set written out with its geometry, rendered on every read.

        A well-nested key renders the full parenthesis profile over its
        ``n_leaves`` leaves (Dyck word *with* the idle-leaf gaps), an
        O(n) string.  A general key renders its exact pairing,
        ``"G:src>dst,..."``: a parenthesis word is ambiguous once
        crossings exist (the crossing ``(0,2),(1,3)`` and the nested
        ``(0,3),(1,2)`` share one profile).
        """
        ends = iter(self.pairs)
        if self.general:
            return "G:" + ",".join(f"{src}>{dst}" for src, dst in zip(ends, ends))
        chars = ["."] * self.n_leaves
        for src, dst in zip(ends, ends):
            chars[src] = "("
            chars[dst] = ")"
        return "".join(chars)


def canonical_signature(
    cset: CommunicationSet,
    n_leaves: int | None = None,
    *,
    config: SchedulerConfig | None = None,
) -> CanonicalKey:
    """Canonicalise ``cset`` into a :class:`CanonicalKey` in O(pairs).

    Requires a right-oriented set (the PADR input class); left-oriented or
    mixed sets raise :class:`~repro.exceptions.OrientationError` unless
    ``config.decompose == "auto"`` admits them — the service only caches
    what its scheduler accepts.

    An explicit ``n_leaves`` below :meth:`CommunicationSet.min_leaves` is
    rejected up front, and so is one that is not a power of two ``>= 2``
    (:class:`~repro.exceptions.TopologyError`): no scheduler builds such a
    tree, so no cache entry may be keyed on one.
    """
    min_leaves = cset.min_leaves()
    n = n_leaves if n_leaves is not None else min_leaves
    if n < min_leaves:
        raise SchedulingError(
            f"communication set does not fit on {n} leaves "
            f"(needs at least {min_leaves})"
        )
    check_n_leaves(n)
    cfg = config if config is not None else SchedulerConfig()
    if is_well_nested(cset):
        dyck, pairs = _dyck_and_pairs(cset)
        return CanonicalKey(n, dyck, pairs, cfg.cache_signature())
    if not cset.is_right_oriented and cfg.decompose != "auto":
        # preserve the historical door behaviour outside auto mode
        raise OrientationError(
            "canonical signature requires a right-oriented set "
            "(configure decompose='auto' to admit arbitrary sets)"
        )
    pairs = tuple(end for c in cset for end in (c.src, c.dst))
    return CanonicalKey(n, _general_dyck(cset), pairs, cfg.cache_signature(), general=True)


def _dyck_and_pairs(cset: CommunicationSet) -> tuple[str, tuple[int, ...]]:
    """``(Dyck word, flat endpoints)`` of a well-nested set.

    One pass over the source-sorted communications with a stack of the
    open intervals' destinations: an interval that ends before the next
    source closes (``)``), each source opens (``(``).  The set must already
    have passed :func:`~repro.comms.wellnested.is_well_nested`.
    """
    word: list[str] = []
    pairs: list[int] = []
    open_dsts: list[int] = []
    for c in cset.comms:
        src = c.src
        while open_dsts and open_dsts[-1] < src:
            open_dsts.pop()
            word.append(")")
        open_dsts.append(c.dst)
        word.append("(")
        pairs.append(src)
        pairs.append(c.dst)
    word.append(")" * len(open_dsts))
    return "".join(word), tuple(pairs)


def _general_dyck(cset: CommunicationSet) -> str:
    """The relabelling-invariant signature of a set outside the PADR input
    class: the left-to-right event sequence over occupied leaves, each
    event naming its pair's rank and its role."""
    rank = {c: i for i, c in enumerate(cset)}
    events = sorted(
        [(c.src, "s", rank[c]) for c in cset] + [(c.dst, "d", rank[c]) for c in cset]
    )
    return "G:" + "".join(f"{kind}{r}" for _, kind, r in events)


class ScheduleCache:
    """Bounded S3-FIFO map: canonical key → serialized schedule payload.

    S3-FIFO (Yang et al., "FIFO queues are all you need for cache
    eviction", SOSP 2023) keeps the resident keys in two FIFO queues and
    remembers recently dropped ones in a third:

    * *small* — every new key enters here.  It is the probation queue:
      eviction takes from it while it holds at least its share, about a
      tenth of ``capacity`` (at least one entry).  A key that was read
      again by then moves to *main*; an unread one is dropped.
    * *main* — keys that earned a second read.  Each carries a read count
      capped at 3 (two bits); at main's head a key with reads left goes
      back to the tail with one read fewer, a key with none is dropped.
    * *ghost* — the last ``capacity`` keys dropped from small, keys only.
      A ghost key that is put again enters main directly.

    A read is a :meth:`get` hit or a :meth:`put` that refreshes a resident
    key.  Every insertion at capacity drops exactly one payload, so a key
    just put is resident until at least the next insertion.  On a skewed
    stream one-hit keys leave through small without pushing hot keys out
    of main, which plain recency (LRU) cannot tell apart.

    Hit/miss/eviction counts are emitted into a
    :class:`~repro.obs.registry.MetricsRegistry` as ``service.cache.*``
    counters and the live size as a ``service.cache.size`` gauge; pass no
    registry and the interned null registry keeps the hot path free.
    """

    #: the read-count ceiling of a resident key (a 2-bit counter)
    MAX_READS = 3

    def __init__(
        self,
        capacity: int = 256,
        *,
        metrics: MetricsRegistry | None = None,
        run: str = "service",
    ) -> None:
        if capacity < 1:
            raise SchedulingError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.run = run
        self._small_share = max(1, capacity // 10)
        self._entries: dict[Key, dict[str, Any]] = {}
        self._reads: dict[Key, int] = {}
        self._small: deque[Key] = deque()
        self._main: deque[Key] = deque()
        self._ghost: OrderedDict[Key, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CanonicalKey) -> dict[str, Any] | None:
        """The cached payload for ``key``, or ``None`` (counted as a miss)."""
        ck = key.cache_key
        entry = self._entries.get(ck)
        if entry is None:
            self.misses += 1
            self.metrics.inc("service.cache.misses", run=self.run)
            return entry
        self._read(ck)
        self.hits += 1
        self.metrics.inc("service.cache.hits", run=self.run)
        return entry

    def put(self, key: CanonicalKey, payload: dict[str, Any]) -> None:
        """Insert ``key`` (dropping one payload when full) or refresh it."""
        ck = key.cache_key
        if ck in self._entries:
            self._read(ck)
        else:
            if len(self._entries) >= self.capacity:
                self._evict()
            if ck in self._ghost:
                del self._ghost[ck]
                self._main.append(ck)
            else:
                self._small.append(ck)
            self._reads[ck] = 0
        self._entries[ck] = payload
        self.metrics.set("service.cache.size", len(self._entries), run=self.run)

    def clear(self) -> None:
        """Drop every payload and forget the ghost keys and read counts;
        the hit/miss/eviction history is kept."""
        for store in (self._entries, self._reads, self._small, self._main, self._ghost):
            store.clear()
        self.metrics.set("service.cache.size", 0, run=self.run)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _read(self, ck: Key) -> None:
        if self._reads[ck] < self.MAX_READS:
            self._reads[ck] += 1

    def _evict(self) -> None:
        """Drop one payload: from small while it holds its share, else from
        main (see the class docstring)."""
        small, main, reads = self._small, self._main, self._reads
        while True:
            if len(small) >= self._small_share:
                ck = small.popleft()
                if reads[ck]:
                    main.append(ck)
                    continue
                self._ghost[ck] = None
                if len(self._ghost) > self.capacity:
                    self._ghost.popitem(last=False)
            else:
                ck = main.popleft()
                if reads[ck]:
                    reads[ck] -= 1
                    main.append(ck)
                    continue
            del self._entries[ck], reads[ck]
            self.evictions += 1
            self.metrics.inc("service.cache.evictions", run=self.run)
            return
