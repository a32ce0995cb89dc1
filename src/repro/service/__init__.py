"""The matcher farm: a multi-tenant service over a pool of simulated chips.

Figure 1-1 pitches the pattern matcher as an attached device serving a
host; Section 5 imagines many cheap special-purpose chips deployed at
scale.  This package is that deployment story rendered executable: many
concurrent match queries multiplexed onto a pool of simulated devices,
with bounded queues and backpressure (CSP-style channels between explicit
scheduler and worker processes), priority classes, tenant fairness,
pattern/text sharding, fault injection with retry-and-reassignment, and
graceful degradation to the Section 3.3 software baselines when the pool
is saturated or exhausted.

The public surface is :class:`MatcherService` (``submit``/``drain``) over
a :class:`DevicePool`; everything is beat-accounted against the paper's
250 ns/char timing model so throughput and latency numbers stay faithful
to the hardware story.

Layout
------
* :mod:`~repro.service.pool` -- workers wrapping chips, cascades, or
  wafer harvests (some degraded or dead).
* :mod:`~repro.service.scheduler` -- bounded queues, priority classes,
  tenant round-robin, the simulated beat clock, and the shared host bus.
* :mod:`~repro.service.sharding` -- long patterns via multipass, wide
  texts split across workers and merged back into one result stream.
* :mod:`~repro.service.reliability` -- fault injection, retry policy,
  and the software-baseline fallback path.
* :mod:`~repro.service.telemetry` -- per-job and per-worker counters
  rendered through :class:`repro.analysis.report.Table`.
* :mod:`~repro.service.plan` -- the admission planner both front doors
  (this farm and :mod:`repro.runtime`) execute: one route per stream.
* :mod:`~repro.service.cache` -- the cross-tenant :class:`ResultCache`
  the batch tier consults before dispatching (``submit``/``submit_many``
  with ``cache=ResultCache(...)``).
* :mod:`~repro.service.health` -- the fleet-health loop: background
  gate-level BIST on idle workers, quarantine of failing chips, and
  re-provisioning from the :mod:`repro.wafer` harvest model.
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
    RetryPolicy,
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
    "RetryPolicy",
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
