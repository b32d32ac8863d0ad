"""repro — Power-Aware Routing for Well-Nested Communications on the CST.

A complete, executable reproduction of El-Boghdadi, *"Power-Aware Routing
for Well-Nested Communications On The Circuit Switched Tree"* (IPPS 2007):
the CST interconnect, the PADR Configuration & Scheduling Algorithm (CSA),
the baselines the paper compares against, and the verification/benchmark
machinery that regenerates every analytical claim as measured data.

Quickstart
----------
>>> import repro
>>> cs = repro.random_well_nested(8, 32, __import__("numpy").random.default_rng(0))
>>> schedule = repro.PADRScheduler().schedule(cs)
>>> schedule.n_rounds == repro.width(cs)
True
>>> repro.verify_schedule(schedule, cs).ok
True

Package map
-----------
``repro.cst``        the Circuit Switched Tree substrate (topology,
                     switches, power meter, network, message engine).
``repro.comms``      communication sets, well-nestedness, width, workload
                     generators.
``repro.core``       the paper's CSA (Phases 1 and 2) and schedule types.
``repro.baselines``  sequential, greedy, random-order and Roy-style
                     ID schedulers.
``repro.analysis``   verification (Theorem 4), optimality (Theorem 5) and
                     power reporting (Theorem 8).
``repro.extensions`` left-oriented sets by mirroring, streams, collectives
                     and the SRGA grid substrate.
``repro.obs``        observability: metrics registry, structured trace
                     export, scheduler instrumentation.
``repro.recovery``   fault detection (probe circuits), quarantine planning
                     and the resilient schedule/verify/retry loop.
``repro.service``    batch serving: submit/drain service, canonical
                     schedule cache, worker pool, admission control.
``repro.fabric``     horizontal scale-out: a sharded forest of CSTs with
                     aggregation accounting and capacity planning.
``repro.viz``        ASCII figures.
"""

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.decompose import Batch, Decomposition, crossing_lower_bound, decompose
from repro.comms.generators import (
    crossing_chain,
    disjoint_pairs,
    from_dyck_word,
    nested_chain,
    paper_figure2_set,
    random_arbitrary,
    random_well_nested,
    segmentable_bus,
    staircase,
)
from repro.comms.wellnested import is_well_nested, parenthesis_profile
from repro.comms.width import edge_loads, width
from repro.core.base import ScheduleContext, ScheduleResult, Scheduler
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.core.left import LeftPADRScheduler
from repro.core.plan import GeneralSchedule, schedule_general
from repro.core.schedule import Schedule
from repro.baselines import (
    GreedyScheduler,
    RandomOrderScheduler,
    RoyIDScheduler,
    SequentialScheduler,
)
from repro.analysis import (
    check_round_optimality,
    compare_schedulers,
    verify_schedule,
)
from repro.cst.network import CSTNetwork
from repro.cst.power import PowerPolicy
from repro.cst.topology import CSTTopology
from repro.extensions import (
    SRGA,
    MirroredScheduler,
    StreamScheduler,
)
from repro.io import (
    cset_from_dict,
    cset_to_dict,
    load_workloads,
    save_workloads,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    TraceExporter,
    observe_schedule,
)
from repro.recovery import (
    DegradedSchedule,
    FaultDetector,
    QuarantinePlan,
    ResilientScheduler,
    plan_quarantine,
    run_campaign,
)
from repro.service import (
    BatchReport,
    CanonicalKey,
    RequestResult,
    RequestStatus,
    ScheduleCache,
    SchedulerService,
    ServiceParityError,
    Ticket,
    canonical_signature,
    mixed_workloads,
)

__version__ = "1.0.0"

__all__ = [
    "Communication",
    "CommunicationSet",
    "Batch",
    "Decomposition",
    "crossing_lower_bound",
    "decompose",
    "crossing_chain",
    "disjoint_pairs",
    "from_dyck_word",
    "nested_chain",
    "paper_figure2_set",
    "random_arbitrary",
    "random_well_nested",
    "segmentable_bus",
    "staircase",
    "is_well_nested",
    "parenthesis_profile",
    "edge_loads",
    "width",
    "Scheduler",
    "ScheduleContext",
    "ScheduleResult",
    "SchedulerConfig",
    "PADRScheduler",
    "LeftPADRScheduler",
    "Schedule",
    "GeneralSchedule",
    "schedule_general",
    "GreedyScheduler",
    "RandomOrderScheduler",
    "RoyIDScheduler",
    "SequentialScheduler",
    "check_round_optimality",
    "compare_schedulers",
    "verify_schedule",
    "CSTNetwork",
    "PowerPolicy",
    "CSTTopology",
    "SRGA",
    "MirroredScheduler",
    "StreamScheduler",
    "cset_from_dict",
    "cset_to_dict",
    "load_workloads",
    "save_workloads",
    "schedule_from_dict",
    "schedule_to_dict",
    "Instrumentation",
    "MetricsRegistry",
    "TraceExporter",
    "observe_schedule",
    "DegradedSchedule",
    "FaultDetector",
    "QuarantinePlan",
    "ResilientScheduler",
    "plan_quarantine",
    "run_campaign",
    "BatchReport",
    "CanonicalKey",
    "RequestResult",
    "RequestStatus",
    "ScheduleCache",
    "SchedulerService",
    "ServiceParityError",
    "Ticket",
    "canonical_signature",
    "mixed_workloads",
    "__version__",
]
