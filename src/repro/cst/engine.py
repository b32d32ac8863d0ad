"""Synchronous message waves over the CST.

The CSA is a distributed algorithm: control information flows strictly
between neighbours, up the tree in Phase 1 and down the tree in each
Phase-2 round.  :class:`CSTEngine` provides exactly those two primitives —
an *upward wave* (children before parents) and a *downward wave* (parents
before children) — plus message/word accounting so the Theorem-5 efficiency
claims ("a constant number of words is transferred between neighboring
switches") can be measured rather than asserted.

The engine is deliberately oblivious to what the words mean; switches'
behaviour is supplied as callables.  This keeps the locality discipline
honest: a combine/emit function receives only its own switch id and the
words on its own links.

Two accounting planes
---------------------

The paper's model charges one message per link per wave — every switch
speaks to every neighbour every round, whether or not it has anything to
say.  :class:`EngineTrace` keeps reporting that **logical** count
(``messages`` / ``words``), so Theorem-5 accounting is independent of how
the simulator is implemented.  Separately, ``physical_messages`` counts
the transmissions the simulator *actually* walked.  The two differ only
on the frontier-pruned fast path of :meth:`CSTEngine.downward_wave`: a
link whose word is dead (caller-defined, via ``prune``) carries nothing
physically, exactly as absence-of-signal means ``[null,null]`` on real
hardware.

:class:`ReferenceWaveEngine` retains the naive O(n)-per-wave walk (every
node, every wave, dict-accumulated).  It is the differential-testing
oracle: the fast path must produce bit-identical schedules and identical
*logical* traces, only cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Mapping, TypeVar

from repro.cst.events import ControlEvent
from repro.cst.network import CSTNetwork

__all__ = ["EngineTrace", "CSTEngine", "ReferenceWaveEngine", "ColumnarWaveEngine"]

W = TypeVar("W")


@dataclass
class EngineTrace:
    """Accounting of control traffic moved by the engine.

    ``messages`` counts individual neighbour-to-neighbour transmissions in
    the paper's model (one per link per wave); ``words`` counts machine
    words inside them (callers pass per-message word sizes).  ``waves``
    counts wave invocations.  ``physical_messages`` / ``physical_words``
    count what the simulator actually moved — equal to the logical counts
    except on the pruned fast path, where dead subtrees are skipped.

    ``per_wave_messages`` samples the logical per-wave message count for
    the first :data:`PER_WAVE_CAP` waves only; engines reused across long
    streams previously grew this list without bound.  Waves beyond the cap
    are still fully accounted in the totals and tallied in
    ``uncapped_waves``.

    ``on_wave`` is the observability layer's injectable hook
    (:meth:`repro.obs.Instrumentation.wave_hook`): called once per wave
    with ``(messages, words, physical_messages, physical_words)``.  It
    defaults to ``None`` and costs one identity check per wave — the
    no-op path stays on the fast engine's perf floor.
    """

    #: maximum number of per-wave samples retained (satellite fix for the
    #: unbounded growth when one engine is reused across a long stream).
    PER_WAVE_CAP: ClassVar[int] = 4096

    messages: int = 0
    words: int = 0
    waves: int = 0
    physical_messages: int = 0
    physical_words: int = 0
    per_wave_messages: list[int] = field(default_factory=list)
    #: waves whose sample was aggregated into the totals only (cap reached).
    uncapped_waves: int = 0
    #: optional per-wave metrics sink; see class docstring.
    on_wave: Callable[[int, int, int, int], None] | None = None

    def record_wave(
        self,
        messages: int,
        words: int,
        *,
        physical_messages: int | None = None,
        physical_words: int | None = None,
    ) -> None:
        self.messages += messages
        self.words += words
        self.waves += 1
        pm = messages if physical_messages is None else physical_messages
        pw = words if physical_words is None else physical_words
        self.physical_messages += pm
        self.physical_words += pw
        if len(self.per_wave_messages) < self.PER_WAVE_CAP:
            self.per_wave_messages.append(messages)
        else:
            self.uncapped_waves += 1
        if self.on_wave is not None:
            self.on_wave(messages, words, pm, pw)

    @property
    def mean_messages_per_wave(self) -> float:
        return self.messages / self.waves if self.waves else 0.0


class CSTEngine:
    """Runs synchronous control waves over a :class:`CSTNetwork`.

    This is the fast-path engine: waves run over preallocated flat buffers
    indexed by heap id instead of per-wave dicts, event-log recording is
    hoisted out of the hot loop (zero overhead when ``event_log is None``),
    and the downward wave optionally *prunes* dead subtrees (see
    :meth:`downward_wave`).
    """

    #: schedulers may replace the callable-driven Phase-1 wave with the
    #: numerically identical vectorised reduction when this engine runs it
    #: (see :func:`repro.core.phase1.run_phase1_vectorized`).
    prefers_vectorized_phase1 = True

    #: schedulers may replace the whole per-switch Phase-2 walk with the
    #: columnar kernel (:mod:`repro.core.columnar`) when this engine
    #: runs it.  Off for the per-switch engines; see
    #: :class:`ColumnarWaveEngine`.
    supports_columnar_phase2 = False

    def __init__(self, network: CSTNetwork) -> None:
        self.network = network
        self.topology = network.topology
        self.trace = EngineTrace()
        #: reusable word buffer indexed by heap id; avoids per-wave dict
        #: allocation/rehashing on the hot path.
        self._words: list[Any] = [None] * self.topology.heap_size

    # -- upward wave (Phase 1 shape) ------------------------------------------

    def upward_wave(
        self,
        leaf_word: Callable[[int], W],
        combine: Callable[[int, W, W], W],
        *,
        words_per_message: int = 1,
        collect: bool = True,
    ) -> Mapping[int, W]:
        """Children-to-parent wave.

        ``leaf_word(pe_index)`` produces each leaf's transmission;
        ``combine(switch_id, left_word, right_word)`` produces the word the
        switch sends to *its* parent.  Returns every node's transmitted word
        keyed by heap id (the root's word is simply computed, not sent).

        With ``collect=False`` the engine's internal flat buffer (a list
        indexed by heap id, valid until the next wave) is returned instead
        of a fresh dict — callers that only read a few entries (Phase 1
        reads just the root's) skip an O(n) copy.

        Every leaf must report in Phase 1, so the upward wave has no pruned
        variant: physical traffic always equals logical traffic here.
        """
        topo = self.topology
        n = topo.n_leaves
        log = self.network.event_log
        buf = self._words
        for pe in range(n):
            buf[n + pe] = leaf_word(pe)
        # switches in reverse BFS order ⇒ children always precede parents.
        if log is None:
            for v in range(n - 1, 0, -1):
                buf[v] = combine(v, buf[2 * v], buf[2 * v + 1])
        else:
            log.next_wave()
            for v in range(n - 1, 0, -1):
                w = buf[v] = combine(v, buf[2 * v], buf[2 * v + 1])
                log.control(v, "up", w)
        n_messages = 2 * n - 2  # every non-root node transmits once
        self.trace.record_wave(n_messages, n_messages * words_per_message)
        if not collect:
            return buf
        return {v: buf[v] for v in range(1, 2 * n)}

    # -- downward wave (Phase 2 round shape) ------------------------------------

    def downward_wave(
        self,
        root_word: W,
        emit: Callable[[int, W], tuple[W, W]],
        *,
        words_per_message: int = 1,
        prune: Callable[[int, W], bool] | None = None,
    ) -> dict[int, W]:
        """Parent-to-children wave.

        ``emit(switch_id, incoming_word)`` returns the words for the left
        and right child.  Returns the words delivered to the *leaves*, keyed
        by PE index.

        ``prune(node_heap_id, word)`` (optional) declares a word *dead* for
        the receiving node: the link carries nothing physically and the
        whole subtree below it is guaranteed to be a no-op, so the wave
        skips it entirely.  The caller is responsible for the pruning
        invariant — a pruned subtree must be one in which ``emit`` would
        have returned only dead words and staged nothing.  With pruning the
        returned mapping contains only the leaves actually reached; logical
        trace counts are unaffected (the paper's model still charges every
        link), while ``physical_messages`` records the savings.

        When an event log is attached the full (un-pruned) walk runs so the
        log keeps its every-node-every-wave semantics.
        """
        topo = self.topology
        n = topo.n_leaves
        log = self.network.event_log
        n_messages = 2 * n - 2
        n_words = n_messages * words_per_message

        if log is None and prune is not None:
            # frontier-pruned fast path: walk only the live frontier.
            leaf_words: dict[int, W] = {}
            physical = 0
            if prune(1, root_word):
                self.trace.record_wave(
                    n_messages, n_words, physical_messages=0, physical_words=0
                )
                return leaf_words
            stack: list[tuple[int, W]] = [(1, root_word)]
            pop = stack.pop
            push = stack.append
            while stack:
                v, w = pop()
                left_w, right_w = emit(v, w)
                left = 2 * v
                right = left + 1
                if left >= n:  # both children are leaves
                    if not prune(left, left_w):
                        leaf_words[left - n] = left_w
                        physical += 1
                    if not prune(right, right_w):
                        leaf_words[right - n] = right_w
                        physical += 1
                else:
                    if not prune(right, right_w):
                        push((right, right_w))
                        physical += 1
                    if not prune(left, left_w):
                        push((left, left_w))
                        physical += 1
            self.trace.record_wave(
                n_messages,
                n_words,
                physical_messages=physical,
                physical_words=physical * words_per_message,
            )
            return leaf_words

        # full walk (generic callers, or an attached event log): array-backed.
        buf = self._words
        buf[1] = root_word
        leaf_words = {}
        if log is not None:
            log.next_wave()
        for v in range(1, n):
            left_w, right_w = emit(v, buf[v])
            left = 2 * v
            right = left + 1
            if log is not None:
                log.control(left, "down", left_w)
                log.control(right, "down", right_w)
            if left >= n:
                leaf_words[left - n] = left_w
                leaf_words[right - n] = right_w
            else:
                buf[left] = left_w
                buf[right] = right_w
        self.trace.record_wave(n_messages, n_words)
        return leaf_words

    # -- convenience -----------------------------------------------------------

    def traffic_summary(self) -> Mapping[str, Any]:
        return {
            "waves": self.trace.waves,
            "messages": self.trace.messages,
            "words": self.trace.words,
            "physical_messages": self.trace.physical_messages,
            "physical_words": self.trace.physical_words,
            "mean_messages_per_wave": self.trace.mean_messages_per_wave,
        }


class ColumnarWaveEngine(CSTEngine):
    """Marker engine selecting the columnar Phase-2 kernel.

    When :class:`~repro.core.csa.PADRScheduler` sees this engine (directly,
    or resolved through ``SchedulerConfig(engine="columnar"/"auto")``) and
    the run fits the columnar guards — healthy network, pristine state,
    lazy teardown, no event log, no ``trace_compat`` — it executes the
    whole schedule through :mod:`repro.core.columnar` instead of walking
    per-switch objects wave by wave.  Schedules, power bills and logical
    traces are bit-identical (property-tested); only wall-clock time
    differs.

    Outside the guards the scheduler falls back to the inherited
    frontier-pruned waves, so this class is always safe to select: it is
    the fast path *plus* an optimisation, never a different algorithm.
    """

    supports_columnar_phase2 = True


class ReferenceWaveEngine(CSTEngine):
    """The naive wave implementation, retained as a differential oracle.

    Every wave touches every node and accumulates words in per-wave dicts —
    the seed implementation, O(n) per wave regardless of how much of the
    tree is live.  ``prune`` is accepted and ignored, so schedulers written
    against the fast path run unmodified; physical traffic always equals
    logical traffic.
    """

    prefers_vectorized_phase1 = False

    def upward_wave(
        self,
        leaf_word: Callable[[int], W],
        combine: Callable[[int, W, W], W],
        *,
        words_per_message: int = 1,
        collect: bool = True,
    ) -> Mapping[int, W]:
        topo = self.topology
        log = self.network.event_log
        if log is not None:
            log.next_wave()
        sent: dict[int, W] = {}
        for pe in range(topo.n_leaves):
            sent[topo.leaf_heap_id(pe)] = leaf_word(pe)
        for v in range(topo.n_switches, 0, -1):
            sent[v] = combine(v, sent[2 * v], sent[2 * v + 1])
            if log is not None:
                log.record(
                    lambda seq, wave, v=v, w=sent[v]: ControlEvent(
                        seq, wave, node=v, direction="up", word=w
                    )
                )
        n_messages = 2 * topo.n_leaves - 2
        self.trace.record_wave(n_messages, n_messages * words_per_message)
        return sent

    def downward_wave(
        self,
        root_word: W,
        emit: Callable[[int, W], tuple[W, W]],
        *,
        words_per_message: int = 1,
        prune: Callable[[int, W], bool] | None = None,
    ) -> dict[int, W]:
        topo = self.topology
        log = self.network.event_log
        if log is not None:
            log.next_wave()
        incoming: dict[int, W] = {1: root_word}
        leaf_words: dict[int, W] = {}
        for v in range(1, topo.n_switches + 1):
            left_w, right_w = emit(v, incoming[v])
            for child, w in ((2 * v, left_w), (2 * v + 1, right_w)):
                if log is not None:
                    log.record(
                        lambda seq, wave, child=child, w=w: ControlEvent(
                            seq, wave, node=child, direction="down", word=w
                        )
                    )
                if child >= topo.n_leaves:
                    leaf_words[topo.pe_index(child)] = w
                else:
                    incoming[child] = w
        n_messages = 2 * topo.n_leaves - 2
        self.trace.record_wave(n_messages, n_messages * words_per_message)
        return leaf_words
