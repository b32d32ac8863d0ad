"""Bench-side tracing for the ``--trace`` run.

The program itself is not modified: :class:`Tracer` wraps the public (and a
few phase-level private) functions of each ``src/repro`` layer from outside
and records one span per call — name, start, end, parent span and request
id.  Spans stay in memory and are written out when the run ends.

A function imported by name into another module (``from repro.io import
cset_to_dict``) is a second binding of the same object, so
:meth:`Tracer.install` patches every binding it finds in the loaded
``repro`` modules, not only the defining one.

Worker processes are invisible to the parent's spans.  Each wave a pool
or fabric shard executed is therefore *replayed* in-process after the
timed loop, through the same worker functions, with the tracer on; the
parent's wait for the wave minus the replay time is the IPC overhead.
Per-wave Phase-2 timing comes from :class:`WaveTimer`, an
:class:`~repro.obs.Instrumentation` whose wave hook stamps the clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.obs.instrument import Instrumentation

#: span name -> (module, attribute) of the wrapped functions.
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("comms.validate", "repro.comms.wellnested", "is_well_nested"),
    ("comms.validate", "repro.comms.wellnested", "require_well_nested"),
    ("comms.decompose", "repro.comms.decompose", "decompose"),
    ("service.signature", "repro.service.cache", "canonical_signature"),
    ("io.encode", "repro.io", "cset_to_dict"),
    ("io.encode", "repro.io", "result_to_dict"),
    ("io.encode", "repro.io", "schedule_to_dict"),
    ("io.decode", "repro.io", "cset_from_dict"),
    ("io.decode", "repro.io", "result_from_dict"),
    ("core.plan", "repro.core.plan", "schedule_general"),
    ("core.phase1", "repro.core.phase1", "run_phase1"),
    ("core.phase1", "repro.core.phase1", "run_phase1_vectorized"),
    ("core.batch_kernel", "repro.core.columnar", "schedule_batch"),
)

#: span name -> (module, class, method) of the wrapped methods.  Phase 2
#: has no public entry point, so its per-round methods are wrapped.
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("service.cache", "repro.service.cache", "ScheduleCache", "get"),
    ("service.cache", "repro.service.cache", "ScheduleCache", "put"),
    ("service.drain", "repro.service.service", "SchedulerService", "drain"),
    ("service.execute_wait", "repro.service.service", "SchedulerService", "_execute"),
    ("service.stream.step", "repro.service.streaming", "StreamingSchedulerService", "step"),
    ("core.schedule", "repro.core.base", "Scheduler", "schedule"),
    ("core.phase1", "repro.core.columnar", "ColumnarRun", "_phase1"),
    ("core.phase2", "repro.core.csa", "PADRScheduler", "_run_round"),
    ("core.phase2", "repro.core.columnar", "ColumnarRun", "run_round"),
    ("cst.write_back", "repro.core.columnar", "ColumnarRun", "write_back"),
    ("cst.network_build", "repro.cst.network", "CSTNetwork", "of_size"),
    ("fabric.execute", "repro.fabric.controller", "FabricController", "execute"),
)

LAYERS = ("comms", "service", "io", "core", "cst", "fabric")

#: Most waves one traced run replays in-process (evenly spaced).
REPLAYED_WAVES = 200

# span record fields
NAME, START, END, PARENT, REQUEST, WAVE = range(6)


@dataclass
class Wave:
    """One wave a worker process executed, captured for in-process replay."""

    kind: str  # "pool" | "fabric"
    span: int  # index of the parent's wait span
    requests: list
    responses: list
    groups: list = field(default_factory=list)  # pool: same-shape batches

    def all_requests(self) -> list:
        return [*self.requests, *(r for g in self.groups for r in g)]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``active`` is switched on only around timed regions and replays, so
    work the benchmark does between samples (building inputs, checking
    outputs) never lands in a span.  A span's ``wave`` field is ``-1`` for
    spans recorded live and the captured wave's index for replayed ones.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.active = False
        self.request: int | None = None
        self.waves: list[Wave] = []
        self.replayed = range(0)  # indices into ``waves``
        self.replay_scale = 1.0
        self.batched_elements = 0.0  # weighted, see :attr:`weight`
        self._wave = -1
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self.active = True

    def end(self) -> None:
        self.active = False

    def _wrap(self, name: str, fn: Callable, on_exit: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    tracer.request, tracer._wave]
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(args, result, index)
            return result

        return traced

    # -- wave capture (worker-side work is replayed later) -------------------

    def _on_service_execute(self, args, responses, span: int) -> None:
        service, pending = args[0], args[1]
        if self._wave >= 0 or service.fabric is not None or service.workers <= 1:
            return
        singles, groups = service._shape_groups(pending)
        self.waves.append(Wave("pool", span, singles, responses, groups))

    def _on_fabric_execute(self, args, responses, span: int) -> None:
        fabric, requests = args[0], args[1]
        if self._wave >= 0 or not fabric.parallel or fabric.tree_count == 1:
            return
        self.waves.append(Wave("fabric", span, list(requests), responses))

    def _on_batch_kernel(self, args, result, span: int) -> None:
        self.batched_elements += len(result) * self.weight

    @property
    def weight(self) -> float:
        """How many executions one recorded now stands for (replays are sampled)."""
        return self.replay_scale if self._wave >= 0 else 1.0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and method (undone by :meth:`uninstall`)."""
        if self._restore:
            return
        hooks = {
            "service.execute_wait": self._on_service_execute,
            "fabric.execute": self._on_fabric_execute,
            "core.batch_kernel": self._on_batch_kernel,
        }
        for _, module, *_ in (*FUNCTIONS, *METHODS):
            importlib.import_module(module)  # before listing the bindings
        modules = [
            m for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("repro")
        ]
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, hooks.get(name)))
            else:
                wrapped = self._wrap(name, raw, hooks.get(name))
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- replay ----------------------------------------------------------------

    def replay(self, config: Any, timer: "WaveTimer") -> dict[str, float]:
        """Re-run evenly spaced captured waves in-process; returns IPC accounting.

        The replay calls the same worker functions the pool and the fabric
        shards call, initialised from the same config, so worker-side spans
        (decode, schedule, encode) and waves are recorded as they ran
        remotely.  Pickling the wave's requests and responses both ways
        estimates the serialisation part of the boundary crossing.  At most
        :data:`REPLAYED_WAVES` waves are replayed, since a serial replay of
        every wave would take longer than the timed loop itself; the sums
        returned cover the replayed waves only, and ``scale`` is the ratio
        of all waves' requests to the replayed waves' requests.
        """
        from repro.service import worker

        out = {"wait_s": 0.0, "replay_s": 0.0, "pickle_s": 0.0, "bytes": 0, "requests": 0,
               "scale": 1.0}
        if not self.waves:
            return out
        every = -(-len(self.waves) // REPLAYED_WAVES)
        self.replayed = range(0, len(self.waves), every)
        self.replay_scale = sum(len(w.all_requests()) for w in self.waves) / sum(
            len(self.waves[i].all_requests()) for i in self.replayed
        )
        out["scale"] = self.replay_scale
        worker.init_worker(config.to_dict())
        worker._worker_scheduler.obs = timer
        self.active = True
        try:
            for i in self.replayed:
                wave = self.waves[i]
                self._wave = i
                self.request = self.spans[wave.span][REQUEST]
                start = perf_counter()
                if wave.kind == "pool":
                    for request in wave.requests:
                        worker.schedule_request(request)
                    for group in wave.groups:
                        worker.schedule_batch_request(group)
                else:
                    worker.schedule_many(wave.requests)
                replay_s = perf_counter() - start
                requests = wave.all_requests()
                start = perf_counter()
                blobs = (pickle.dumps(requests), pickle.dumps(wave.responses))
                for blob in blobs:
                    pickle.loads(blob)
                out["pickle_s"] += perf_counter() - start
                out["bytes"] += sum(len(b) for b in blobs)
                out["requests"] += len(requests)
                out["wait_s"] += self._duration(wave.span)
                out["replay_s"] += replay_s
        finally:
            self.active = False
            self._wave = -1
        return out

    # -- analysis --------------------------------------------------------------

    def _duration(self, index: int) -> float:
        span = self.spans[index]
        return span[END] - span[START]

    def _own_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def self_times(self) -> dict[str, float]:
        """Self time per span name, live and replayed together.

        A span's self time is its duration minus its direct children's.
        Replayed spans are scaled up to stand for every wave (see
        :meth:`replay`).
        """
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self._own_times()):
            out[span[NAME]] += own * (self.replay_scale if span[WAVE] >= 0 else 1.0)
        return dict(out)

    def layer_times(self, wall_s: float) -> dict[str, float]:
        """Seconds of the timed wall attributed to each layer.

        Live spans count their self time, except the parent's wait on a
        pooled wave: that wait is split into the replayed worker-side layer
        times (scaled down when the workers overlapped, i.e. the wait was
        shorter than the serial replay) plus the remainder, the process
        hand-off (``ipc``), which goes to ``io`` for the service's pool and
        to ``fabric`` for the fabric's shard executors.  The waits of waves
        that were not replayed are split in the replayed waves' proportions.
        What no span covers is ``untraced``: loop and bookkeeping code
        outside the wrapped layers.
        """
        own = self._own_times()
        waits = {wave.span: i for i, wave in enumerate(self.waves)}
        replayed: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        layers: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            layer = span[NAME].split(".")[0]
            if span[WAVE] >= 0:
                replayed[span[WAVE]][layer] += own[index]
            elif index not in waits:
                layers[layer] += own[index]
        in_waits: dict[str, float] = defaultdict(float)
        replayed_wait = other_wait = 0.0
        for span_index, wave_index in waits.items():
            wait = own[span_index]
            if wave_index not in self.replayed:
                other_wait += wait
                continue
            replayed_wait += wait
            worker = replayed.get(wave_index, {})
            total = sum(worker.values())
            scale = min(1.0, wait / total) if total > 0 else 0.0
            for layer, secs in worker.items():
                in_waits[layer] += secs * scale
            in_waits["ipc"] += max(0.0, wait - total)
        extend = 1.0 + other_wait / replayed_wait if replayed_wait > 0 else 0.0
        handoff_layer = "fabric" if self.waves and self.waves[0].kind == "fabric" else "io"
        for layer, secs in in_waits.items():
            layers[handoff_layer if layer == "ipc" else layer] += secs * extend
        traced = sum(layers[name] for name in LAYERS)
        out = {name: layers.get(name, 0.0) for name in LAYERS}
        out["untraced"] = max(0.0, wall_s - traced)
        out["ipc"] = in_waits["ipc"] * extend
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, wave in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "request": request, "replayed_wave": wave,
                }) + "\n")


class WaveTimer(Instrumentation):
    """Per-wave wall time for the Phase-2 cost model (Theorem 5).

    The engines call :meth:`wave_hook`'s sink once per finished wave; the
    sink stamps the clock, so each Phase-2 sample is the time since the
    previous wave ended (that round's commit and transfer included) against
    the wave's physical message count.  Meter hooks and the end-of-run
    fold are switched off to keep the traced run close to the untraced one.
    """

    def __init__(self, tracer: Tracer, config: Any) -> None:
        super().__init__(run="bench")
        self.tracer = tracer
        self.config = config
        #: path -> list of (physical messages, logical messages, seconds)
        self.waves: dict[str, list[tuple[int, int, float]]] = {"scalar": [], "columnar": []}
        self.runs: dict[str, float] = {"scalar": 0.0, "columnar": 0.0}  # weighted
        self._path = "scalar"
        self._index = 0
        self._last = 0.0

    def run_start(self, *, scheduler: str, n_leaves: int, n_comms: int) -> None:
        self._path = "columnar" if self.config.selects_columnar(n_leaves) else "scalar"
        if self.tracer.active:
            self.runs[self._path] += self.tracer.weight
        self._index = 0
        self._last = perf_counter()

    def wave_hook(self):
        def on_wave(messages: int, n_words: int, physical: int, physical_words: int) -> None:
            now = perf_counter()
            if self._index > 0 and self.tracer.active:  # wave 0 is Phase 1
                self.waves[self._path].append((physical, messages, now - self._last))
            self._index += 1
            self._last = now

        return on_wave

    def attach(self, network: Any) -> None:
        pass

    def run_end(self, schedule: Any) -> None:
        pass
