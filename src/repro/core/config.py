"""One config object for every scheduler knob that used to be scattered.

Constructor flags grew organically across PRs: the fast-path engine toggle
lives on :class:`~repro.core.csa.PADRScheduler` (``engine_factory``),
stream behaviour on :class:`~repro.extensions.stream.StreamScheduler`
(``fresh_network_per_step``, ``verify``), and the per-wave trace cap on
:class:`~repro.cst.engine.EngineTrace`.  :class:`SchedulerConfig`
consolidates them into a single frozen dataclass that

* both constructors accept (``PADRScheduler(config=...)``,
  ``StreamScheduler(config=...)``) — explicit keyword arguments still win,
  so existing call sites are untouched;
* round-trips through plain dicts (:meth:`to_dict` / :meth:`from_dict`),
  which is how the service layer ships it to multiprocessing workers;
* exposes a :meth:`cache_signature` that the service layer's schedule
  cache folds into its keys, so results computed under one configuration
  are never served to a request made under another.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Mapping

from repro.cst.engine import (
    ColumnarWaveEngine,
    CSTEngine,
    EngineTrace,
    ReferenceWaveEngine,
)
from repro.cst.network import CSTNetwork
from repro.exceptions import SchedulingError

__all__ = ["SchedulerConfig"]

_ENGINES = ("auto", "reference", "fast", "columnar")
_DECOMPOSE_MODES = ("auto", "strict", "never")


@dataclass(frozen=True, slots=True)
class SchedulerConfig:
    """Consolidated scheduler configuration.

    ``fast_path``
        run the frontier-pruned :class:`~repro.cst.engine.CSTEngine`
        (default) or the naive :class:`~repro.cst.engine.ReferenceWaveEngine`
        differential oracle.  Schedules are bit-identical either way
        (property-tested); only physical-plane traffic differs.
    ``validate_input`` / ``check_postconditions`` / ``strict``
        the CSA's safety rails (see :class:`~repro.core.csa.PADRScheduler`).
    ``reuse_phase1``
        skip Phase 1's upward wave when roles repeat on the same network.
    ``fresh_network_per_step`` / ``verify_steps``
        stream scheduling: the PADR-unaware control condition, and per-step
        end-to-end verification.
    ``trace_wave_cap``
        per-wave sample retention cap on
        :class:`~repro.cst.engine.EngineTrace` (bounds memory on long
        streams; totals are always exact).
    ``engine``
        explicit backend selection: ``"auto"`` (default) and
        ``"columnar"`` both take the columnar kernel at every tree size
        wherever its guards hold, the per-switch fast path elsewhere;
        ``"fast"`` always walks per-switch objects; ``"reference"`` is the
        naive oracle.  Schedules are bit-identical across all four
        (property-tested).
    ``trace_compat``
        force the per-switch slow path even where the columnar kernel
        would apply, preserving exact physical trace detail (event logs,
        per-switch object state, ``last_states`` introspection).
    ``decompose``
        what :meth:`~repro.core.base.Scheduler.schedule` does with inputs
        that are not right-oriented well-nested: ``"strict"`` (default —
        today's contract, engines validate their own inputs), ``"auto"``
        (lower arbitrary sets through
        :func:`repro.core.plan.schedule_general`; well-nested inputs stay
        bit-identical) or ``"never"`` (assert well-nestedness up front).
        The service doors admit arbitrary sets only under ``"auto"``.
    ``recfg_alpha``
        reconfiguration-cost weight of the decomposed-batch packing
        objective (``rounds + α·switch_changes``): ``0.0`` packs for
        minimum rounds, large values preserve crossbar persistence at the
        cost of extra rounds.  Only consulted on the decomposition path.
    """

    validate_input: bool = True
    check_postconditions: bool = True
    strict: bool = True
    fast_path: bool = True
    reuse_phase1: bool = False
    fresh_network_per_step: bool = False
    verify_steps: bool = True
    trace_wave_cap: int = EngineTrace.PER_WAVE_CAP
    engine: str = "auto"
    trace_compat: bool = False
    decompose: str = "strict"
    recfg_alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.trace_wave_cap < 0:
            raise SchedulingError(
                f"trace_wave_cap must be >= 0, got {self.trace_wave_cap}"
            )
        if self.engine not in _ENGINES:
            raise SchedulingError(
                f"unknown engine {self.engine!r}; expected one of {_ENGINES}"
            )
        if self.engine in ("fast", "columnar") and not self.fast_path:
            raise SchedulingError(
                f"engine={self.engine!r} contradicts fast_path=False"
            )
        if self.decompose not in _DECOMPOSE_MODES:
            raise SchedulingError(
                f"unknown decompose mode {self.decompose!r}; "
                f"expected one of {_DECOMPOSE_MODES}"
            )
        if self.recfg_alpha < 0:
            raise SchedulingError(
                f"recfg_alpha must be >= 0, got {self.recfg_alpha}"
            )

    # -- engine wiring -------------------------------------------------------

    def engine_cls(self) -> type[CSTEngine]:
        """The engine class this configuration selects.

        Resolvable without instantiating a network, which is what lets the
        scheduler skip building one entirely on the columnar path.
        """
        if not self.fast_path or self.engine == "reference":
            return ReferenceWaveEngine
        if self.engine == "fast":
            return CSTEngine
        return ColumnarWaveEngine  # "auto" and "columnar"

    def selects_columnar(self, n_leaves: int) -> bool:
        """Whether a schedule on ``n_leaves`` leaves takes the columnar kernel
        (guards the network cannot veto — policy/fault state still can).

        The kernel serves every tree size, so only the engine selection and
        ``trace_compat`` decide.  The service layer uses this to decide
        same-shape batch grouping, so it must agree with the scheduler's
        own dispatch.
        """
        return not self.trace_compat and self.engine_cls() is ColumnarWaveEngine

    def engine_factory(self) -> Callable[[CSTNetwork], CSTEngine]:
        """The engine constructor this configuration selects.

        With the default trace cap this is the bare engine class, so the
        hot path keeps no wrapper in between.  Otherwise it is a factory
        that applies the cap per instance and carries the class as
        ``engine_cls``, so the scheduler can still tell the columnar kernel
        apart before any network exists.
        """
        engine_cls = self.engine_cls()
        cap = self.trace_wave_cap
        if cap == EngineTrace.PER_WAVE_CAP:
            return engine_cls

        def capped(network: CSTNetwork) -> CSTEngine:
            engine = engine_cls(network)
            engine.trace.PER_WAVE_CAP = cap  # instance override
            return engine

        capped.engine_cls = engine_cls
        return capped

    # -- scheduler builders --------------------------------------------------

    def build(self, *, obs: Any = None) -> Any:
        """A :class:`~repro.core.csa.PADRScheduler` under this config."""
        from repro.core.csa import PADRScheduler

        return PADRScheduler(config=self, obs=obs)

    def build_stream(self, *, policy: Any = None, obs: Any = None) -> Any:
        """A :class:`~repro.extensions.stream.StreamScheduler` under this config."""
        from repro.extensions.stream import StreamScheduler

        return StreamScheduler(config=self, policy=policy, obs=obs)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (picklable, JSON-serialisable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SchedulerConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SchedulingError(
                f"unknown SchedulerConfig fields: {sorted(unknown)}"
            )
        return cls(**dict(data))

    def cache_signature(self) -> str:
        """Canonical string folded into schedule-cache keys."""
        return _cache_signature(self)


@functools.lru_cache(maxsize=64)
def _cache_signature(config: SchedulerConfig) -> str:
    # memoised: every service submission asks, and configs are frozen.
    return ",".join(f"{f.name}={getattr(config, f.name)}" for f in fields(config))
