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

Admission, the reply rule and the results snapshot are the
:class:`~repro.service.frontdoor.FrontDoor`'s, shared with the
synchronous farm, and so is the reliability story: seeded faults per
dispatch, bounded whole-unit retries, and software service for
exhausted retries, saturation, expired deadlines and a pool with no
live worker -- slower, never wrong.  :class:`ProcessPool` is this
runtime's transport behind the pool contract, and keeps the clock and
the per-job deadline timers; the service keeps what must await:
start/close, rate-limit waits, futures and ``stream_results``.

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
from ..errors import ServiceError
from ..service.cache import ResultCache, result_cache_key
from ..service.frontdoor import FrontDoor, Job, Trace, Unit
from ..service.reliability import FaultInjector, FaultKind, SoftwareFallback
from ..service.scheduler import Priority
from ..service.telemetry import JobCounters
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
    ``stuck_stall_s``: wall seconds per stuck *beat* when a seeded
    stuck-beats fault is injected (0 disables actual stalling; the
    fault is still counted).
    ``rate_limits``: tenant -> (jobs/s, burst) token-bucket specs, both
    positive; unlisted tenants are unlimited.
    ``max_batch_jobs``: the most jobs :meth:`AsyncMatcherService.submit_many`
    coalesces into one wire crossing (one batched-kernel call per chunk).
    """

    max_pending: int = 256
    max_retries: int = 2
    degrade_when_saturated: bool = True
    stuck_stall_s: float = 0.0
    rate_limits: Mapping[str, Tuple[float, float]] = field(
        default_factory=dict
    )
    max_batch_jobs: int = 32

    def __post_init__(self):
        if self.max_pending <= 0:
            raise ServiceError("max_pending must be positive")
        if self.max_retries < 0:
            raise ServiceError("max_retries cannot be negative")
        if self.stuck_stall_s < 0:
            raise ServiceError("stuck_stall_s cannot be negative")
        if self.max_batch_jobs <= 0:
            raise ServiceError("max_batch_jobs must be positive")
        for tenant, spec in self.rate_limits.items():
            try:
                rate, burst = spec
                ok = rate > 0 and burst > 0
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ServiceError(
                    f"rate limit of {tenant!r} must be a positive "
                    f"(rate, burst) pair, not {spec!r}"
                )


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


class AsyncMatcherService(FrontDoor, JobCounters):
    """Concurrent submit/stream/drain over a pool of worker processes.

    Construct with a worker count and alphabet (a pool is built for
    you) or pass a prebuilt :class:`~repro.runtime.pool.WorkerPool`.
    The service must be started before submitting -- ``async with`` or
    an explicit ``await start()`` -- and closed when finished so the
    processes join.

    The health rule, the same in both front doors: neither heals by
    itself.  A worker that dies leaves dispatch until a
    :class:`~repro.service.health.FleetHealth` over ``svc.pool`` (the
    farm's loop) with a :class:`~repro.wafer.provision.WaferSupply`
    sweeps and respawns it; without one, seeded deaths drain the pool
    for good and the rest is served from the host-side oracle.  The
    sweep blocks, so run it off the event loop between bursts (``await
    asyncio.to_thread(health.sweep)``, as ``examples/runtime_async.py``
    does).
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
        self.fallback = SoftwareFallback()
        self.obs = obs
        if obs is not None:
            self.faults.attach_obs(obs)
        from ..obs.metrics import MetricsRegistry

        self.registry = obs.registry if obs is not None else MetricsRegistry()
        JobCounters.__init__(self, self.registry, "runtime", "deaths")
        self._h_latency = self.registry.histogram("runtime.job.latency_s")
        # Optional cross-tenant result cache (the farm's key scheme, so
        # a farm-warmed cache serves runtime traffic); TTL in seconds.
        self.cache = cache
        self.limiter = RateLimiter(self.config.rate_limits)
        procs = ProcessPool(self.pool, self.faults, self.config, obs,
                            self.registry)
        super().__init__(
            procs, self, _TRACE, lambda plen, n, start: procs.now() - start,
            # Looked up per call, so a wrapper on this module's name runs.
            lambda *args, **kw: result_cache_key(*args, **kw),
        )
        # Pending jobs' futures, by job id.
        self._futures: Dict[int, asyncio.Future] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "AsyncMatcherService":
        if self._started:
            return self
        self._loop = self.transport.loop = asyncio.get_running_loop()
        await self._loop.run_in_executor(None, self.pool.start)
        self._started = True
        return self

    async def close(self, drain: bool = True) -> None:
        """Graceful shutdown: optionally drain, then join the workers.  A
        call still waiting for its rate limit raises
        :class:`~repro.errors.ServiceError` and admits nothing."""
        if drain and self._started:
            await self.drain()
        if self._started:
            self._started = False  # a call still waiting admits nothing
            await self._loop.run_in_executor(None, self.pool.shutdown)

    async def __aenter__(self) -> "AsyncMatcherService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(drain=exc_type is None)

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
        value).  ``submit(x)`` is ``submit_many([x])``: the same checks,
        route and errors.  *timeout* (seconds) is the job's SLO: if it
        expires before a worker answers, the job is served from software
        and any late reply is dropped.
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
        """Admit one job per stream: the routes of
        :meth:`FrontDoor._admit`, with ``mode="pool"`` for a solo
        device run.  The whole call is checked first; then it suspends
        until the tenant's rate limit grants one token per stream (CSP
        backpressure) and admits every stream in one step, so each
        job's ``submitted_s`` is when the call's last token arrived.
        ``max_pending`` bounds the jobs that need a worker.  A batch
        member that times out is served from software and its slice of
        a late reply is dropped.
        """
        if not self._started:
            raise ServiceError(
                "service not started (use 'async with' or await start())"
            )
        req = self._request(params, streams, priority, workload, timeout)
        for _ in req.streams:
            while True:
                delay = self.limiter.delay(tenant, self.transport.now())
                if delay <= 0.0:
                    break
                await asyncio.sleep(delay)
        if not self._started:
            raise ServiceError("service closed while the call waited for "
                               "its rate limit")
        return self._admit(req, tenant)

    def _admitted(self, job: Job) -> None:
        self._futures[job.job_id] = self._loop.create_future()

    def _publish(self, jobs: List[Job]) -> List[RuntimeResult]:
        """The finished jobs' results; resolves their futures."""
        out = []
        for job in jobs:
            result = RuntimeResult(
                job.job_id, job.tenant, job.priority, job.workload,
                job.results, job.submitted, job.started, job.finished,
                job.attempts, job.via_fallback, job.timed_out,
                job.workers_used[-1] if job.workers_used else None, job.mode,
            )
            out.append(result)
            future = self._futures.pop(job.job_id, None)
            if future is not None and not future.done():
                future.set_result(result)
        self._h_latency.observe_many([r.latency_s for r in out])
        return out

    # -- results -----------------------------------------------------------

    async def result(self, job_id: int) -> RuntimeResult:
        """Await one job's completion."""
        future = self._futures.get(job_id)
        if future is not None:
            return await asyncio.shield(future)
        done = self.log.get(job_id)
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
        for result in self.results():
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
        return self.results()

    def stats(self) -> Dict[str, float]:
        """A flat snapshot of the runtime's own counters."""
        counters = {name: getattr(self, name) for name in (
            "submitted", "completed", "retries", "deaths", "fallbacks",
            "timeouts", "backpressure_hits", "batches", "batched_jobs",
            "deduped")}
        return dict(counters, rate_limit_waits=self.limiter.waits,
                    pool_dispatched=self.pool.dispatched,
                    pool_replies=self.pool.replies,
                    pool_dropped_replies=self.pool.dropped_replies)


class ProcessPool:
    """The runtime's transport behind the front door's pool contract.

    ``submit`` sends a unit's open pieces to the
    :class:`~repro.runtime.pool.WorkerPool` as one
    :class:`~repro.runtime.channels.JobRequest` under one seeded fault
    sample (named by a pool-wide unit id, kept across relaunches), or
    serves them from software when no worker is live.  The first time
    it takes a unit it arms one deadline timer per job with an SLO: a
    timer that fires serves its job from software and, once every piece
    is served, drops the unit's reply, so a hung worker cannot wedge a
    job.  Replies hop from the collector thread onto the event loop: a
    stale one (deadlines served every piece) is dropped, one that never
    ran is sent again, and the rest go to the front door's reply rule.
    Its gate is ``max_pending``; ``now`` is wall seconds since
    construction, the runtime's one clock.
    """

    wide_threshold = None  # the runtime ships each text whole

    def __init__(self, workers: WorkerPool, faults: FaultInjector,
                 config: RuntimeConfig, obs, registry):
        self.workers, self.faults, self.obs = workers, faults, obs
        self.max_pending = config.max_pending
        self.stuck_stall_s = config.stuck_stall_s
        self._m_stale = registry.counter("runtime.stale_replies")
        self._t0 = time.perf_counter()
        self._timers: Dict[int, asyncio.TimerHandle] = {}  # by job id
        self.door: Optional[FrontDoor] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    def now(self) -> float:
        return time.perf_counter() - self._t0

    @property
    def n_live(self) -> int:
        return self.workers.n_live

    def saturated(self, open_jobs: int) -> bool:
        return open_jobs >= self.max_pending

    def submit(self, unit: Unit) -> None:
        if not unit.attempts:  # a relaunch keeps its name and timers
            unit.unit_id = next(self.workers.unit_ids)
            now = self.now()
            for job, _ in unit.pieces:
                if job.deadline is not None:
                    self._timers[job.job_id] = self.loop.call_later(
                        job.deadline - now, self._expire, job, unit)
        self._send(unit)

    def _expire(self, job: Job, unit: Unit) -> None:
        del self._timers[job.job_id]
        self.door.expire(job.whole(), self.now(), attempts=job.attempts)
        if all(j.done for j, _ in unit.pieces):
            # Every piece has been served: drop the unit's reply.
            self.workers.cancel(unit.unit_id, unit.attempts)

    def _disarm(self, unit: Unit) -> None:
        """Cancel the deadline timers of the unit's served jobs."""
        for job, _ in unit.pieces:
            if job.done and job.job_id in self._timers:
                self._timers.pop(job.job_id).cancel()

    def _send(self, unit: Unit) -> None:
        unit.pieces = [p for p in unit.pieces if not p[0].done]
        now = self.now()
        if not unit.pieces or not self.workers.n_live:
            self.door.degrade(unit.pieces, now, reason="no-live-worker")
            self._disarm(unit)
            return
        fault = self.faults.sample()
        death = fault is not None and fault.kind is FaultKind.WORKER_DEATH
        stall_s = fault.extra_beats * self.stuck_stall_s \
            if fault is not None and not death else 0.0
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
            fault="death" if death else None,
            stall_s=stall_s,
        )
        self.workers.submit(
            request,
            # Collector-thread context: hop onto the event loop.
            lambda reply: self.loop.call_soon_threadsafe(
                self._on_reply, unit, reply),
            deadline=min(deadlines) if deadlines else None,
            priority=int(unit.priority),
        )

    def _on_reply(self, unit: Unit, reply: JobReply) -> None:
        if reply.attempt != unit.attempts or \
                all(job.done for job, _ in unit.pieces):  # deadlines served it
            self._m_stale.inc()
            return
        if reply.error == NO_LIVE_WORKER:
            # It never ran: send it again, which serves it from software
            # (or resubmits it, if a heal came first), counting no attempt.
            self._send(unit)
            return
        now = self.now()
        if not reply.ok:  # death or error: the whole unit failed
            self.door.reply(unit, now, died=reply.died)
            self._disarm(unit)
            return
        live = [job for job, _ in unit.pieces if not job.done]
        if live and self.obs is not None:
            # Fold the worker's metrics and spans in under a served job.
            if reply.metrics:
                self.obs.registry.merge_snapshot(reply.metrics)
            if reply.spans:
                self.obs.tracer.adopt(reply.spans, parent=live[0].span,
                                      offset=max(live[0].started, 0.0))
        self.door.reply(unit, now, [unpack_row(r) for r in reply.results],
                        reply.worker, [0.0] * len(unit.pieces))
        self._disarm(unit)
