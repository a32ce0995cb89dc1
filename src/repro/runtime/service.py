"""`AsyncMatcherService`: the concurrent front door of the matcher farm.

Where :class:`~repro.service.service.MatcherService` *simulates* a busy
host on a beat clock, this service *is* one: an asyncio front-end admits
jobs (per-tenant rate limits, bounded pending set, per-job deadlines),
a :class:`~repro.runtime.pool.WorkerPool` of real processes executes the
workload kernels in parallel, and completed results stream back to
awaiting clients.  It is the Figure 1-1 host/device split made literal:
the event loop is the host, the pool processes are the attached
special-purpose devices, and the bounded channels between them are the
bus.

The reliability story is the synchronous farm's: both drive one
sans-I/O :class:`~repro.service.core.ServiceCore` (this module from the
event loop and the pool's collector callback).  A seeded
:class:`~repro.service.reliability.FaultInjector` decides per dispatch
whether the device dies mid-job or stalls;
:class:`~repro.service.reliability.RetryPolicy` bounds reassignment; and
exhausted retries, saturation, expired deadlines and a pool with no
live worker all degrade to
:class:`~repro.service.reliability.SoftwareFallback` -- slower, never
wrong.  Whatever the routing, results are byte-identical to the
synchronous service and to the workload oracle (property-tested in
``tests/test_runtime_async.py``).

Usage::

    async with AsyncMatcherService(4, Alphabet("ABCD")) as svc:
        jid = await svc.submit("AXC", "ABCAACACCAB", tenant="alice")
        result = await svc.result(jid)
        async for r in svc.stream_results():   # done first, then as they finish
            ...
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..alphabet import Alphabet
from ..errors import BackpressureError, ServiceError
from ..service.cache import ResultCache, result_cache_key
from ..service.core import Job, ServiceCore, Trace, Unit
from ..service.plan import BATCH, DEDUPED, SOLO, parse_request, plan
from ..service.reliability import (
    FaultInjector,
    FaultKind,
    RetryPolicy,
    SoftwareFallback,
)
from ..service.scheduler import Priority
from ..service.telemetry import JobCounters
from ..workloads.registry import to_list
from .admission import RateLimiter
from .channels import NO_LIVE_WORKER, JobReply, JobRequest, unpack_row
from .pool import WorkerPool


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the concurrent runtime.

    ``max_pending``: admitted-but-unfinished bound; beyond it submission
    raises :class:`~repro.errors.BackpressureError` or (default) runs on
    the host oracle, exactly like the farm's ``degrade_when_saturated``.
    ``max_retries``: failed executions per unit (a solo job or a batch
    plan) before its jobs degrade.
    ``default_timeout_s``: SLO applied to jobs submitted without an
    explicit ``timeout`` (None = no deadline).
    ``stuck_stall_s``: wall seconds per stuck *beat* when a seeded
    stuck-beats fault is injected (0 disables actual stalling; the
    fault is still counted).
    ``rate_limits``: tenant -> (jobs/s, burst) token-bucket specs;
    ``default_rate_limit`` applies to unlisted tenants.
    ``max_batch_jobs``: the most jobs :meth:`AsyncMatcherService.submit_many`
    coalesces into one wire crossing (one batched-kernel call per chunk).
    """

    max_pending: int = 256
    max_retries: int = 2
    default_timeout_s: Optional[float] = None
    degrade_when_saturated: bool = True
    stuck_stall_s: float = 0.0
    rate_limits: Mapping[str, Tuple[float, float]] = field(
        default_factory=dict
    )
    default_rate_limit: Optional[Tuple[float, float]] = None
    max_batch_jobs: int = 32

    def __post_init__(self):
        if self.max_pending <= 0:
            raise ServiceError("max_pending must be positive")
        if self.max_retries < 0:
            raise ServiceError("max_retries cannot be negative")
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ServiceError("default_timeout_s must be positive")
        if self.stuck_stall_s < 0:
            raise ServiceError("stuck_stall_s cannot be negative")
        if self.max_batch_jobs <= 0:
            raise ServiceError("max_batch_jobs must be positive")


@dataclass(frozen=True)
class RuntimeResult:
    """One completed job: oracle-identical results plus its wall-clock
    latency story (seconds, unlike the simulated farm's beats)."""

    job_id: int
    tenant: str
    priority: Priority
    workload: str
    results: list
    submitted_s: float
    started_s: float
    finished_s: float
    attempts: int
    via_fallback: bool
    timed_out: bool
    worker: Optional[str]
    mode: str

    @property
    def wait_s(self) -> float:
        return self.started_s - self.submitted_s

    @property
    def latency_s(self) -> float:
        return self.finished_s - self.submitted_s


_TRACE = Trace(
    "s", "runtime.job", "runtime.fallback", "runtime.job.timeout",
    ("mode", "worker", "attempts", "via_fallback", "timed_out"),
)


class AsyncMatcherService(JobCounters):
    """Concurrent submit/stream/drain over a pool of worker processes.

    Construct with a worker count and alphabet (a pool is built for
    you) or pass a prebuilt :class:`~repro.runtime.pool.WorkerPool`.
    The service must be started before submitting -- ``async with`` or
    an explicit ``await start()`` -- and closed when finished so the
    processes join.
    """

    def __init__(
        self,
        n_workers: int = 2,
        alphabet: Optional[Alphabet] = None,
        config: Optional[RuntimeConfig] = None,
        faults: Optional[FaultInjector] = None,
        obs=None,
        pool: Optional[WorkerPool] = None,
        cache: Optional[ResultCache] = None,
    ):
        self.config = config or RuntimeConfig()
        self.pool = pool if pool is not None else WorkerPool(
            n_workers, alphabet, obs=obs
        )
        self.alphabet = self.pool.alphabet
        self.faults = faults or FaultInjector()
        self.retry = RetryPolicy(self.config.max_retries)
        self.fallback = SoftwareFallback()
        self.obs = obs
        if obs is not None:
            self.faults.attach_obs(obs)
        from ..obs.metrics import MetricsRegistry

        self.registry = obs.registry if obs is not None else MetricsRegistry()
        super().__init__(self.registry, "runtime", "deaths")
        self._m_stale = self.registry.counter("runtime.stale_replies")
        self._h_latency = self.registry.histogram("runtime.job.latency_s")
        # Optional cross-tenant result cache (shared with the sync farm's
        # key scheme, so a farm-warmed cache serves runtime traffic and
        # vice versa).  Its ``now`` domain here is runtime seconds.
        self.cache = cache
        self.limiter = RateLimiter(
            self.config.rate_limits, self.config.default_rate_limit
        )
        self.core = ServiceCore(
            self, self.retry, self.fallback, cache, obs, _TRACE,
            self._publish, lambda plen, n, start: self._now() - start,
        )
        # Pending jobs' futures and deadline timers, by job id.
        self._futures: Dict[int, asyncio.Future] = {}
        self._timers: Dict[int, asyncio.TimerHandle] = {}
        # Units on the wire, by their pool-wide ids.
        self._units: Dict[int, Unit] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = time.perf_counter()
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "AsyncMatcherService":
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        await self._loop.run_in_executor(None, self.pool.start)
        self._started = True
        return self

    async def close(self, drain: bool = True) -> None:
        """Graceful shutdown: optionally drain, then join the workers."""
        if drain and self._started:
            await self.drain()
        if self._started:
            await self._loop.run_in_executor(None, self.pool.shutdown)
        self._started = False

    async def __aenter__(self) -> "AsyncMatcherService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(drain=exc_type is None)

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    # -- submission --------------------------------------------------------

    async def submit(
        self,
        params,
        stream: Sequence,
        tenant: str = "default",
        priority: Priority = Priority.BATCH,
        workload: str = "match",
        timeout: Optional[float] = None,
    ) -> int:
        """Admit one job; returns its id (await :meth:`result` for the
        value).

        ``submit(x)`` is ``submit_many([x])``: the same checks, the same
        route and the same errors.  The submitter is *suspended* while
        its tenant is over its rate limit (CSP backpressure).  When the pending set is at
        ``max_pending`` the job is shed: served immediately from the
        host-side oracle if ``degrade_when_saturated`` (never wrong,
        just slower), else :class:`~repro.errors.BackpressureError`.
        *timeout* (seconds) is the job's SLO: if it expires before a
        worker answers, the job is completed degraded and any late
        worker reply is dropped.
        """
        return (await self.submit_many(
            params, [stream], tenant=tenant, priority=priority,
            workload=workload, timeout=timeout,
        ))[0]

    async def submit_many(
        self,
        params,
        streams: Sequence[Sequence],
        tenant: str = "default",
        priority: Priority = Priority.BATCH,
        workload: str = "match",
        timeout: Optional[float] = None,
    ) -> List[int]:
        """Admit one job per stream, coalescing compatible work.

        The params are parsed **once** and every stream is validated
        before any job is admitted: bad input anywhere raises a
        :class:`~repro.errors.ReproError` and admits nothing.  The
        planner both front doors share (:func:`repro.service.plan.plan`)
        then routes each stream: empty streams complete immediately
        (``mode="empty"``); streams whose canonical answer sits in the
        :class:`~repro.service.cache.ResultCache` complete from it
        (``mode="cached"``); duplicate streams follow the first
        occurrence, share its execution and get a copy of its answer
        (``mode="deduped"``), even when that representative is shed to
        the oracle; a chunk of exactly one job is dispatched on its own
        (``mode="pool"``); the rest go in batch plans of 2 to
        ``config.max_batch_jobs`` jobs, each plan one wire crossing
        answered by the worker's batched kernel (``mode="batched"``).
        Rate limits apply per job and ``max_pending`` per job that
        needs a worker (a follower rides with its representative).
        Each member keeps its own SLO deadline: a member that times out
        is served degraded and its slice of any late batch reply is
        dropped.  Only admitted jobs count as submitted.
        """
        if not self._started:
            raise ServiceError(
                "service not started (use 'async with' or await start())"
            )
        req = parse_request(
            workload, params, streams, self.alphabet, priority, timeout
        )
        timeout_s = req.timeout if req.timeout is not None \
            else self.config.default_timeout_s
        routes, solos, batches = plan(
            req.spec, req.taps, req.streams, self.cache, self._now(),
            self.config.max_batch_jobs, result_cache_key, tenant=tenant,
        )
        jobs: List[Job] = []
        shed: List[Job] = []
        for prepared, route in zip(req.streams, routes):
            while True:
                delay = self.limiter.delay(tenant, self._loop.time())
                if delay <= 0.0:
                    break
                await asyncio.sleep(delay)
            saturated = route.kind in (SOLO, BATCH) and \
                len(self._futures) >= self.config.max_pending
            if saturated:
                self.backpressure_hits += 1
                if not self.config.degrade_when_saturated:
                    self.core.next_id += 1  # the rejected job's id stays unused
                    # Already-admitted work must still run.
                    self._execute(jobs, shed, solos, batches, req.priority)
                    raise BackpressureError(
                        f"runtime pending set full "
                        f"({self.config.max_pending})"
                    )
            deadline = None if timeout_s is None \
                else self._loop.time() + timeout_s
            job = self.core.admit(
                jobs, req, prepared, route, tenant, self._now(), deadline
            )
            if job.done:
                continue
            self._futures[job.job_id] = self._loop.create_future()
            if route.kind == DEDUPED:
                continue  # it shares its representative's fate and timer
            if deadline is not None:
                self._timers[job.job_id] = self._loop.call_later(
                    timeout_s, self._on_deadline, job
                )
            if saturated:
                shed.append(job)
        self._execute(jobs, shed, solos, batches, req.priority)
        return [job.job_id for job in jobs]

    # -- dispatch / completion --------------------------------------------

    def _execute(
        self, jobs: List[Job], shed: List[Job], solos: List[int],
        batches: List[List[int]], priority: Priority,
    ) -> None:
        """Run the admitted part of a plan: serve the jobs shed for
        saturation from the oracle (after their followers joined), then
        dispatch the solo jobs and the batch plans in plan order."""
        now = self._now()
        for job in shed:
            if not job.done:  # its deadline may have fired already
                self.core.degrade([job.whole()], now, reason="saturated")
        for unit in self.core.units(jobs, solos, batches, priority):
            unit.unit_id = next(self.pool.unit_ids)
            self.core.queued(unit)
            self._units[unit.unit_id] = unit
            self._dispatch(unit)

    def _dispatch(self, unit: Unit) -> None:
        """Send the unit's open pieces to the pool as one request under
        one seeded fault sample, or serve them from software when no
        worker is live."""
        unit.pieces = [p for p in unit.pieces if not p[0].done]
        now = self._now()
        if not unit.pieces or not self.pool.n_live:
            self._units.pop(unit.unit_id, None)
            self.core.degrade(unit.pieces, now, reason="no-live-worker")
            return
        fault = self.faults.sample()
        fault_kind = None
        stall_s = 0.0
        if fault is not None:
            if fault.kind is FaultKind.WORKER_DEATH:
                fault_kind = "death"
            else:
                stall_s = fault.extra_beats * self.config.stuck_stall_s
        jobs = [job for job, _ in unit.pieces]
        for job in jobs:
            job.mode = "batched" if unit.batched else "pool"
            if job.started is None:
                job.started = now
        deadlines = [j.deadline for j in jobs if j.deadline is not None]
        request = JobRequest(
            job_id=unit.unit_id,
            attempt=unit.attempts,
            workload=jobs[0].workload,
            taps=jobs[0].taps,
            # The typed arrays themselves: symbol codes or samples.
            streams=[np.asarray(job.text) for job in jobs],
            collect_obs=self.obs is not None,
            fault=fault_kind,
            stall_s=stall_s,
        )
        self.pool.submit(
            request,
            self._reply_from_thread,
            deadline=min(deadlines) if deadlines else None,
            priority=int(unit.priority),
        )

    def _reply_from_thread(self, reply: JobReply) -> None:
        # Collector-thread context: hop onto the event loop.
        self._loop.call_soon_threadsafe(self._handle_reply, reply)

    def _handle_reply(self, reply: JobReply) -> None:
        unit = self._units.get(reply.job_id)
        if unit is None or reply.attempt != unit.attempts:
            self._m_stale.inc()
            return
        if reply.error == NO_LIVE_WORKER:
            # It never ran: the dispatch rule serves it from software
            # (or resubmits it, if a heal came first), counting no attempt.
            self._dispatch(unit)
            return
        now = self._now()
        if reply.ok:
            self._units.pop(unit.unit_id, None)
            live = [job for job, _ in unit.pieces if not job.done]
            if live and self.obs is not None:
                # Fold the worker's metrics and spans in under a served job.
                if reply.metrics:
                    self.obs.registry.merge_snapshot(reply.metrics)
                if reply.spans:
                    self.obs.tracer.adopt(reply.spans, parent=live[0].span,
                                          offset=max(live[0].started, 0.0))
            for (job, shard), row in zip(unit.pieces, reply.results):
                if not job.done:  # else its deadline fired: served degraded
                    self.core.settle(job, shard, unpack_row(row), now, 0.0,
                                     reply.worker)
            return
        # Whole-unit failure (death or error): the core's retry rule.
        if reply.died:
            self.deaths += 1
        if self.core.failed(unit, self.pool.n_live, now,
                            reason="retries-exhausted"):
            self._dispatch(unit)
        else:
            self._units.pop(unit.unit_id, None)

    def _on_deadline(self, job: Job) -> None:
        """The job's SLO expired: shed it from the pool and serve it
        degraded.  A hung worker can no longer wedge this job."""
        if job.done:
            return
        now, unit = self._now(), job.unit  # completion clears job.unit
        self.core.time_out(job, now, attempts=job.attempts)
        self.core.degrade([job.whole()], now, reason="deadline")
        if unit is not None and all(j.done for j, _ in unit.pieces):
            # Every member has been served; drop the unit's reply.
            self.pool.cancel(unit.unit_id, unit.attempts)
            self._units.pop(unit.unit_id, None)

    def _publish(self, job: Job) -> RuntimeResult:
        """The finished job's result, its values converted to their
        public element types in one step; resolves its future and
        cancels its deadline timer."""
        timer = self._timers.pop(job.job_id, None)
        if timer is not None:
            timer.cancel()
        result = RuntimeResult(
            job_id=job.job_id,
            tenant=job.tenant,
            priority=job.priority,
            workload=job.workload,
            results=to_list(job.results),
            submitted_s=job.submitted,
            started_s=job.started,
            finished_s=job.finished,
            attempts=job.attempts,
            via_fallback=job.via_fallback,
            timed_out=job.timed_out,
            worker=job.workers_used[-1] if job.workers_used else None,
            mode=job.mode,
        )
        self._h_latency.observe(result.latency_s)
        future = self._futures.pop(job.job_id, None)
        if future is not None and not future.done():
            future.set_result(result)
        return result

    # -- results -----------------------------------------------------------

    async def result(self, job_id: int) -> RuntimeResult:
        """Await one job's completion."""
        future = self._futures.get(job_id)
        if future is not None:
            return await asyncio.shield(future)
        done = self.core.log.get(job_id)
        if done is None:
            raise ServiceError(f"unknown job id {job_id}")
        return done

    async def stream_results(
        self, job_ids: Optional[Sequence[int]] = None
    ) -> AsyncIterator[RuntimeResult]:
        """Yield results for *job_ids* or everything admitted: those
        already done first, in job-id order, then the rest in completion
        order."""
        wanted = None if job_ids is None else set(job_ids)
        pending = {
            future for jid, future in self._futures.items()
            if wanted is None or jid in wanted
        }
        for result in self.core.log.snapshot():
            if wanted is None or result.job_id in wanted:
                yield result
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for fut in done:
                yield fut.result()

    async def drain(self) -> List[RuntimeResult]:
        """Wait until every admitted job has completed; returns a fresh
        list of all results so far in job-id order (the sync service's
        contract).  Besides the waiting, the cost is work proportional
        to the completions since the last call plus one C-level list
        copy."""
        while self._futures:
            await asyncio.wait(list(self._futures.values()))
        return self.core.log.snapshot()

    def results(self) -> List[RuntimeResult]:
        """Completed results so far (no waiting), as a fresh list in
        job-id order; costs work proportional to the completions since
        the last call plus one C-level list copy."""
        return self.core.log.snapshot()

    def stats(self) -> Dict[str, float]:
        """A flat snapshot of the runtime's own counters."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "retries": self.retries,
            "deaths": self.deaths,
            "fallbacks": self.fallbacks,
            "timeouts": self.timeouts,
            "backpressure_hits": self.backpressure_hits,
            "batches": self.batches,
            "batched_jobs": self.batched_jobs,
            "deduped": self.deduped,
            "rate_limit_waits": self.limiter.waits,
            "pool_dispatched": self.pool.dispatched,
            "pool_replies": self.pool.replies,
            "pool_dropped_replies": self.pool.dropped_replies,
        }
