"""Concurrent service runtime: async front-end over real worker processes.

This package makes the paper's Figure 1-1 host/device concurrency
literal.  The synchronous :mod:`repro.service` farm *models* time on a
beat clock; here an asyncio host admits jobs through per-tenant rate
limits and a pending bound, a :class:`WorkerPool` of spawn-context
processes runs the workload kernels genuinely in parallel, and
CSP-style bounded :class:`Channel` objects carry the only two message
types (:class:`JobRequest` / :class:`JobReply`) between them.

Layering:

* :mod:`~repro.runtime.channels` -- the bus: bounded channels, wire
  messages, spawn-safety rules.
* :mod:`~repro.runtime.worker` -- the device: one process, one loop,
  the same :class:`~repro.workloads.registry.WorkloadSpec` engines as
  everywhere else (results byte-identical by construction).
* :mod:`~repro.runtime.pool` -- the mechanism: EDF dispatch, stale-reply
  dropping, worker lifecycle, and the fleet-health contract of
  :class:`~repro.service.health.FleetHealth` (BIST probes on idle
  workers, quarantine, respawns held out of dispatch until their
  incoming probe passes).
* :mod:`~repro.runtime.admission` -- per-tenant token buckets.
* :mod:`~repro.runtime.service` -- the async surface of the one front
  door (start/close, rate-limit waits, futures, ``stream_results``)
  and its :class:`ProcessPool`: the runtime's clock, per-job deadline
  timers, units to and from the wire, seeded faults, obs merge-back.
"""

from .admission import RateLimiter, TokenBucket
from .channels import Channel, ChannelClosed, JobReply, JobRequest
from .pool import WorkerPool
from .service import AsyncMatcherService, RuntimeConfig, RuntimeResult

__all__ = [
    "AsyncMatcherService",
    "Channel",
    "ChannelClosed",
    "JobReply",
    "JobRequest",
    "RateLimiter",
    "RuntimeConfig",
    "RuntimeResult",
    "TokenBucket",
    "WorkerPool",
]
