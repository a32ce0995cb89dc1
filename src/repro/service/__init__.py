"""The matcher farm: a multi-tenant service over a pool of simulated chips.

Figure 1-1 pitches the pattern matcher as an attached device serving a
host; Section 5 imagines many cheap special-purpose chips deployed at
scale.  This package renders that deployment executable: concurrent
queries multiplexed onto a pool of simulated devices, with bounded
queues and backpressure, priority classes, tenant fairness, text
sharding, fault injection with retry, and graceful degradation to the
Section 3.3 software baselines.  The public surface is
:class:`MatcherService` (``submit``/``drain``) over a
:class:`DevicePool`, beat-accounted against the paper's 250 ns/char
timing model.

Layout
------
* :mod:`~repro.service.frontdoor` -- the one sans-I/O front door
  (jobs, units, admission, the reply rule, retries, degradation,
  completion, results) and the pool contract it drives; the farm's
  :class:`~repro.service.service.FarmPool` and the runtime's
  :class:`~repro.runtime.service.ProcessPool` keep it.
* :mod:`~repro.service.plan` -- the admission planner: one route per
  stream.
* :mod:`~repro.service.pool` -- workers wrapping chips, cascades, or
  wafer harvests (some degraded or dead).
* :mod:`~repro.service.scheduler` -- bounded queues, priority classes,
  tenant round-robin, the simulated beat clock, and the shared host bus.
* :mod:`~repro.service.sharding` -- long patterns via multipass, wide
  texts split across workers and merged back into one result stream.
* :mod:`~repro.service.reliability` -- fault injection and the
  software-baseline fallback path.
* :mod:`~repro.service.telemetry` -- per-job and per-worker counters.
* :mod:`~repro.service.cache` -- the cross-tenant :class:`ResultCache`
  consulted before dispatch (opt in with ``cache=ResultCache(...)``).
* :mod:`~repro.service.health` -- the fleet-health loop: gate-level BIST
  on idle workers, quarantine, re-provisioning from the wafer model.
"""

from __future__ import annotations

from .cache import ResultCache, result_cache_key
from .health import FleetHealth, HealthConfig, HealthEvent
from .pool import (
    DevicePool,
    PoolWorker,
    WorkerState,
    cascade_pool,
    pool_from_wafers,
    uniform_pool,
)
from .reliability import (
    CellDefect,
    CellDefectKind,
    Fault,
    FaultInjector,
    FaultKind,
    SoftwareFallback,
)
from .scheduler import (
    BeatClock,
    BoundedQueue,
    JobQueues,
    Priority,
    SchedulerConfig,
    SharedBus,
)
from .service import JobResult, MatchJob, MatcherService
from .sharding import (
    ShardMode,
    ShardPlan,
    TextShard,
    merge_shard_results,
    merge_shard_values,
    plan_shards,
)
from .telemetry import ServiceTelemetry, WorkerStats

__all__ = [
    "BeatClock",
    "BoundedQueue",
    "CellDefect",
    "CellDefectKind",
    "DevicePool",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FleetHealth",
    "HealthConfig",
    "HealthEvent",
    "JobQueues",
    "JobResult",
    "MatchJob",
    "MatcherService",
    "PoolWorker",
    "Priority",
    "ResultCache",
    "SchedulerConfig",
    "ServiceTelemetry",
    "ShardMode",
    "ShardPlan",
    "SharedBus",
    "SoftwareFallback",
    "TextShard",
    "WorkerState",
    "cascade_pool",
    "merge_shard_results",
    "merge_shard_values",
    "plan_shards",
    "pool_from_wafers",
    "result_cache_key",
    "uniform_pool",
]
