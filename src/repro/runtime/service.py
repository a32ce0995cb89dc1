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

The reliability story is the synchronous farm's, threaded through
unchanged: a seeded :class:`~repro.service.reliability.FaultInjector`
decides per dispatch whether the device dies mid-job or stalls;
:class:`~repro.service.reliability.RetryPolicy` bounds reassignment; and
exhausted retries, saturation, and expired deadlines all degrade to
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

from ..alphabet import Alphabet
from ..errors import BackpressureError, ServiceError
from ..service.cache import ResultCache, result_cache_key
from ..service.plan import (
    BATCH, DEDUPED, INLINE, SOLO, Followers, Prepared, Request,
    parse_request, plan,
)
from ..service.completion import CompletionLog
from ..service.reliability import (
    FaultInjector,
    FaultKind,
    RetryPolicy,
    SoftwareFallback,
)
from ..service.scheduler import Priority
from ..service.telemetry import _Scalar
from ..workloads.registry import WorkloadSpec
from .admission import RateLimiter
from .channels import JobReply, JobRequest
from .pool import WorkerPool


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the concurrent runtime.

    ``max_pending``: admitted-but-unfinished bound; beyond it submission
    raises :class:`~repro.errors.BackpressureError` or (default) runs on
    the host oracle, exactly like the farm's ``degrade_when_saturated``.
    ``max_retries``: failed executions per job before degrading.
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


@dataclass(eq=False)
class _Job:
    """In-flight bookkeeping for one admitted job."""

    job_id: int
    tenant: str
    priority: Priority
    spec: WorkloadSpec
    taps: list
    stream: list
    orig_len: int
    submitted_s: float
    future: asyncio.Future
    cache_key: Optional[tuple] = None
    deadline: Optional[float] = None
    started_s: Optional[float] = None
    attempts: int = 0
    span: object = None
    done: bool = False
    timed_out: bool = False
    timer: Optional[asyncio.TimerHandle] = None
    unit: Optional["_Unit"] = None

    @property
    def workload(self) -> str:
        return self.spec.name


@dataclass(eq=False)
class _Unit:
    """One dispatch unit: a solo job (its id is the job's) or a batch
    plan of compatible jobs (its own id).  One wire request per attempt,
    one fault sample, whole-unit retry."""

    unit_id: int
    members: List[_Job]
    batched: bool
    attempts: int = 0
    dispatched: List[_Job] = field(default_factory=list)  # last attempt's


class AsyncMatcherService:
    """Concurrent submit/stream/drain over a pool of worker processes.

    Construct with a worker count and alphabet (a pool is built for
    you) or pass a prebuilt :class:`~repro.runtime.pool.WorkerPool`.
    The service must be started before submitting -- ``async with`` or
    an explicit ``await start()`` -- and closed when finished so the
    processes join.
    """

    # Counters, registry-backed like ServiceTelemetry.
    submitted = _Scalar("_m_submitted", int)
    completed = _Scalar("_m_completed", int)
    retries = _Scalar("_m_retries", int)
    deaths = _Scalar("_m_deaths", int)
    fallbacks = _Scalar("_m_fallbacks", int)
    timeouts = _Scalar("_m_timeouts", int)
    backpressure_hits = _Scalar("_m_backpressure", int)
    batches = _Scalar("_m_batches", int)
    batched_jobs = _Scalar("_m_batched_jobs", int)
    deduped = _Scalar("_m_deduped", int)

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
        r = self.registry
        self._m_submitted = r.counter("runtime.jobs.submitted")
        self._m_completed = r.counter("runtime.jobs.completed")
        self._m_retries = r.counter("runtime.retries")
        self._m_deaths = r.counter("runtime.deaths")
        self._m_fallbacks = r.counter("runtime.fallbacks")
        self._m_timeouts = r.counter("runtime.timeouts")
        self._m_backpressure = r.counter("runtime.backpressure_hits")
        self._m_stale = r.counter("runtime.stale_replies")
        self._m_batches = r.counter("runtime.batches")
        self._m_batched_jobs = r.counter("runtime.jobs.batched")
        self._m_deduped = r.counter("runtime.jobs.deduped")
        self._h_latency = r.histogram("runtime.job.latency_s")
        # Optional cross-tenant result cache (shared with the sync farm's
        # key scheme, so a farm-warmed cache serves runtime traffic and
        # vice versa).  Its ``now`` domain here is runtime seconds.
        self.cache = cache
        self.limiter = RateLimiter(
            self.config.rate_limits, self.config.default_rate_limit
        )
        self._jobs: Dict[int, _Job] = {}
        self._completed = CompletionLog()
        self._units: Dict[int, _Unit] = {}
        self._followers = Followers(cache)
        self._next_id = 0
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
        jobs: List[_Job] = []
        shed: List[_Job] = []
        for prepared, route in zip(req.streams, routes):
            while True:
                delay = self.limiter.delay(tenant, self._loop.time())
                if delay <= 0.0:
                    break
                await asyncio.sleep(delay)
            saturated = route.kind in (SOLO, BATCH) and \
                len(self._jobs) >= self.config.max_pending
            if saturated:
                self._m_backpressure.inc()
                if not self.config.degrade_when_saturated:
                    self._next_id += 1  # the rejected job's id stays unused
                    # Already-admitted work must still run.
                    self._execute(jobs, shed, solos, batches)
                    raise BackpressureError(
                        f"runtime pending set full "
                        f"({self.config.max_pending})"
                    )
            job = self._admit(req, prepared, route.key, tenant)
            jobs.append(job)
            if route.kind in INLINE:
                self._complete(job, route.hit or [], mode=route.kind,
                               worker=None, via_fallback=False)
                continue
            if timeout_s is not None:
                job.deadline = self._loop.time() + timeout_s
                job.timer = self._loop.call_later(
                    timeout_s, self._on_deadline, job
                )
            if route.kind == DEDUPED:
                self._m_deduped.inc()
                rep = jobs[route.rep]
                if not rep.done:
                    self._followers.follow(rep.job_id, job)
                else:  # its deadline fired while this call awaited
                    done = self._completed.get(rep.job_id)
                    self._complete(job, list(done.results), mode=DEDUPED,
                                   worker=done.worker,
                                   via_fallback=done.via_fallback)
            elif saturated:
                shed.append(job)
        self._execute(jobs, shed, solos, batches)
        return [job.job_id for job in jobs]

    def _admit(
        self, req: Request, prepared: Prepared, key: Optional[tuple],
        tenant: str,
    ) -> _Job:
        """Admit one planned job: give it an id, count it, open its
        span and add it to the pending set."""
        job = _Job(
            self._next_id, tenant, req.priority, req.spec, prepared.taps,
            prepared.feed, len(prepared.validated), self._now(),
            self._loop.create_future(), cache_key=key,
        )
        self._next_id += 1
        self._m_submitted.inc()
        self._jobs[job.job_id] = job
        if self.obs is not None:
            job.span = self.obs.tracer.open_span(
                "runtime.job", t0=job.submitted_s, unit="s",
                job_id=job.job_id, tenant=tenant,
                priority=job.priority.name, workload=job.workload,
            )
        return job

    # -- dispatch / completion --------------------------------------------

    def _execute(
        self, jobs: List[_Job], shed: List[_Job], solos: List[int],
        batches: List[List[int]],
    ) -> None:
        """Run the admitted part of a plan: serve the jobs shed for
        saturation from the oracle (after their followers joined), then
        dispatch the solo jobs and the batch plans in plan order."""
        for job in shed:
            if not job.done:  # its deadline may have fired already
                self._serve_fallback(job, reason="saturated")
        units = [([i], False) for i in solos] + [(c, True) for c in batches]
        for chunk, batched in units:
            members = [jobs[i] for i in chunk
                       if i < len(jobs) and not jobs[i].done]
            if not members:
                continue
            if batched:
                unit = _Unit(self._next_id, members, batched)
                self._next_id += 1
                self._m_batches.inc()
                self._m_batched_jobs.inc(len(members))
            else:
                unit = _Unit(members[0].job_id, members, batched)
            for member in members:
                member.unit = unit
            self._units[unit.unit_id] = unit
            self._dispatch(unit)

    def _dispatch(self, unit: _Unit) -> None:
        """Send the unit's not-yet-done members to the pool as one
        request under one seeded fault sample."""
        live = [j for j in unit.members if not j.done]
        if not live:
            self._units.pop(unit.unit_id, None)
            return
        unit.dispatched = live
        fault = self.faults.sample()
        fault_kind = None
        stall_s = 0.0
        if fault is not None:
            if fault.kind is FaultKind.WORKER_DEATH:
                fault_kind = "death"
            else:
                stall_s = fault.extra_beats * self.config.stuck_stall_s
        now = self._now()
        wire = []
        for job in live:
            if job.started_s is None:
                job.started_s = now
            # Character streams cross the process boundary as a compact
            # string (pickles/unpickles ~10x faster than a char list);
            # the fast engines iterate either form identically.
            stream = job.stream
            if not job.spec.numeric and stream and isinstance(stream[0], str):
                stream = "".join(stream)
            wire.append(stream)
        deadlines = [j.deadline for j in live if j.deadline is not None]
        request = JobRequest(
            job_id=unit.unit_id,
            attempt=unit.attempts,
            workload=live[0].workload,
            taps=live[0].taps,
            stream=None if unit.batched else wire[0],
            collect_obs=self.obs is not None,
            fault=fault_kind,
            stall_s=stall_s,
            streams=wire if unit.batched else None,
        )
        self.pool.submit(
            request,
            self._reply_from_thread,
            deadline=min(deadlines) if deadlines else None,
            priority=int(min(j.priority for j in live)),
        )

    def _reply_from_thread(self, reply: JobReply) -> None:
        # Collector-thread context: hop onto the event loop.
        self._loop.call_soon_threadsafe(self._handle_reply, reply)

    def _handle_reply(self, reply: JobReply) -> None:
        unit = self._units.get(reply.job_id)
        if unit is None or reply.attempt != unit.attempts:
            self._m_stale.inc()
            return
        live = [j for j in unit.dispatched if not j.done]
        if reply.ok:
            self._units.pop(unit.unit_id, None)
            if live:
                self._adopt(reply, live[0])
            rows_each = reply.results_many if unit.batched \
                else [reply.results]
            for job, rows in zip(unit.dispatched, rows_each):
                if job.done:
                    continue  # its deadline fired; already served degraded
                results = job.spec.finalize(job.taps, job.orig_len, rows)
                self._complete(
                    job, results, mode="batched" if unit.batched else "pool",
                    worker=reply.worker, via_fallback=False,
                )
            return
        # Whole-unit failure (death or error): bounded whole-unit retry.
        unit.attempts += 1
        if reply.died:
            self._m_deaths.inc()
        for job in live:
            job.attempts += 1
        if live and self.retry.should_retry(unit.attempts):
            self._m_retries.inc()
            self._dispatch(unit)
        else:
            self._units.pop(unit.unit_id, None)
            for job in live:
                self._serve_fallback(job, reason="retries-exhausted")

    def _adopt(self, reply: JobReply, job: _Job) -> None:
        """Fold a worker's metrics and spans (under *job*) into obs."""
        if self.obs is None:
            return
        if reply.metrics:
            self.obs.registry.merge_snapshot(reply.metrics)
        if reply.spans:
            self.obs.tracer.adopt(
                reply.spans, parent=job.span, offset=max(job.started_s, 0.0)
            )

    def _on_deadline(self, job: _Job) -> None:
        """The job's SLO expired: shed it from the pool and serve it
        degraded.  A hung worker can no longer wedge this job."""
        if job.done:
            return
        job.timed_out = True
        self._m_timeouts.inc()
        job.attempts += 1
        if self.obs is not None:
            self.obs.tracer.event(
                "runtime.job.timeout", t=self._now(), unit="s",
                job_id=job.job_id, attempts=job.attempts,
            )
        self._serve_fallback(job, reason="deadline")
        unit = job.unit
        if unit is not None and all(j.done for j in unit.members):
            # Every member has been served; drop the unit's reply.
            self.pool.cancel(unit.unit_id, unit.attempts)
            self._units.pop(unit.unit_id, None)

    def _serve_fallback(self, job: _Job, reason: str) -> None:
        """Host-side degraded service: the oracle answer, never wrong."""
        t0 = self._now()
        merged = self.fallback.kernel(job.spec, job.taps, job.stream)
        results = job.spec.finalize(job.taps, job.orig_len, merged)
        self._m_fallbacks.inc()
        if self.obs is not None:
            self.obs.tracer.record(
                "runtime.fallback", t0=t0, t1=self._now(), unit="s",
                parent=job.span, reason=reason, samples=len(job.stream),
            )
        self._complete(
            job, results, mode="software", worker=None, via_fallback=True
        )

    def _complete(
        self, job: _Job, results: list, mode: str,
        worker: Optional[str], via_fallback: bool,
    ) -> None:
        if job.done:
            return
        job.done = True
        if job.timer is not None:
            job.timer.cancel()
            job.timer = None
        finished = self._now()
        started = job.started_s if job.started_s is not None else finished
        result = RuntimeResult(
            job_id=job.job_id,
            tenant=job.tenant,
            priority=job.priority,
            workload=job.workload,
            results=results,
            submitted_s=job.submitted_s,
            started_s=started,
            finished_s=finished,
            attempts=job.attempts,
            via_fallback=via_fallback,
            timed_out=job.timed_out,
            worker=worker,
            mode=mode,
        )
        del self._jobs[job.job_id]
        self._completed.add(result)
        self._m_completed.inc()
        self._h_latency.observe(result.latency_s)
        if job.span is not None:
            self.obs.tracer.close(
                job.span, t1=finished, mode=mode, worker=worker,
                attempts=job.attempts, via_fallback=via_fallback,
                timed_out=job.timed_out,
            )
            job.span = None
        if not job.future.done():
            job.future.set_result(result)
        # Fan results out to deduplicated followers: they shared this
        # execution but keep their own identity and latency story.
        for follower in self._followers.settle(
            job.job_id, job.cache_key, results, mode, finished
        ):
            self._complete(
                follower, list(results), mode=DEDUPED, worker=worker,
                via_fallback=via_fallback,
            )

    # -- results -----------------------------------------------------------

    async def result(self, job_id: int) -> RuntimeResult:
        """Await one job's completion."""
        job = self._jobs.get(job_id)
        if job is not None:
            return await asyncio.shield(job.future)
        done = self._completed.get(job_id)
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
            job.future for jid, job in self._jobs.items()
            if wanted is None or jid in wanted
        }
        for result in self._completed.snapshot():
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
        while self._jobs:
            await asyncio.wait([job.future for job in self._jobs.values()])
        return self._completed.snapshot()

    def results(self) -> List[RuntimeResult]:
        """Completed results so far (no waiting), as a fresh list in
        job-id order; costs work proportional to the completions since
        the last call plus one C-level list copy."""
        return self._completed.snapshot()

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
