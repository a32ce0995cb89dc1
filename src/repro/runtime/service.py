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
from ..service.cache import ResultCache, canonical_params, result_cache_key
from ..service.completion import CompletionLog
from ..service.reliability import (
    FaultInjector,
    FaultKind,
    RetryPolicy,
    SoftwareFallback,
)
from ..service.scheduler import Priority
from ..workloads.registry import WorkloadSpec, get_workload
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


class _Job:
    """In-flight bookkeeping for one admitted job."""

    __slots__ = (
        "job_id", "tenant", "priority", "workload", "spec", "taps",
        "stream", "orig_len", "deadline", "submitted_s", "started_s",
        "attempts", "future", "span", "done", "timed_out", "timer",
        "cache_key", "batch",
    )

    def __init__(
        self, job_id, tenant, priority, workload, spec, taps, stream,
        orig_len, submitted_s, future,
    ):
        self.job_id = job_id
        self.tenant = tenant
        self.priority = priority
        self.workload = workload
        self.spec: WorkloadSpec = spec
        self.taps = taps
        self.stream = stream
        self.orig_len = orig_len
        self.deadline: Optional[float] = None
        self.submitted_s = submitted_s
        self.started_s: Optional[float] = None
        self.attempts = 0
        self.future: asyncio.Future = future
        self.span = None
        self.done = False
        self.timed_out = False
        self.timer: Optional[asyncio.TimerHandle] = None
        self.cache_key: Optional[tuple] = None
        self.batch: Optional["_Batch"] = None


class _Batch:
    """One coalesced dispatch unit from :meth:`submit_many`: several
    compatible jobs (same workload + taps), one wire request, one fault
    sample, whole-batch retry."""

    __slots__ = ("batch_id", "workload", "taps", "members", "dispatched",
                 "attempts")

    def __init__(self, batch_id: int, workload: str, taps, members):
        self.batch_id = batch_id
        self.workload = workload
        self.taps = taps
        self.members: List[_Job] = members
        self.dispatched: List[_Job] = members  # stream order, per attempt
        self.attempts = 0


class AsyncMatcherService:
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
        self._batches: Dict[int, _Batch] = {}
        self._followers: Dict[int, List[_Job]] = {}
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

        The submitter is *suspended* while its tenant is over its rate
        limit (CSP backpressure).  When the pending set is at
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

        The params are parsed **once**; each stream then takes the
        cheapest route that still yields an oracle-identical result:
        empty streams complete immediately; streams whose canonical
        answer sits in the :class:`~repro.service.cache.ResultCache`
        complete from it (``mode="cached"``); duplicate streams share
        one execution (the first occurrence is the representative,
        later ones complete as followers, ``mode="deduped"``); the rest
        are coalesced into batch plans of at most
        ``config.max_batch_jobs`` jobs, each plan one wire crossing
        answered by the worker's batched kernel (``mode="batched"``).
        Rate limits still apply per job, and each member keeps its own
        SLO deadline: a member that times out is served degraded and
        its slice of any late batch reply is dropped.
        """
        if not self._started:
            raise ServiceError(
                "service not started (use 'async with' or await start())"
            )
        if timeout is not None and timeout <= 0:
            raise ServiceError("timeout must be positive")
        spec = get_workload(workload)
        taps = spec.parse_params(params, self.alphabet)
        timeout_s = timeout if timeout is not None \
            else self.config.default_timeout_s
        job_ids: List[int] = []
        reps: Dict[tuple, _Job] = {}
        batchable: List[_Job] = []

        def flush() -> None:
            step = self.config.max_batch_jobs
            for i in range(0, len(batchable), step):
                chunk = batchable[i:i + step]
                if len(chunk) == 1:
                    self._dispatch(chunk[0])
                    continue
                batch = _Batch(
                    self._next_id, workload, chunk[0].taps, chunk
                )
                self._next_id += 1
                for member in chunk:
                    member.batch = batch
                self._batches[batch.batch_id] = batch
                self._m_batches.inc()
                self._m_batched_jobs.inc(len(chunk))
                self._dispatch_batch(batch)
            batchable.clear()

        params = canonical_params(taps)
        # Every stream is validated before any is admitted: a bad stream
        # later in the list must not strand the ones before it.
        inputs = []
        for stream in streams:
            validated = spec.validate_stream(stream, self.alphabet)
            ktaps, feed = spec.prepare(taps, validated)
            inputs.append((validated, ktaps, feed))
        for validated, ktaps, feed in inputs:
            while True:
                delay = self.limiter.delay(tenant, self._loop.time())
                if delay <= 0.0:
                    break
                await asyncio.sleep(delay)
            job_id = self._next_id
            self._next_id += 1
            self._m_submitted.inc()
            job = _Job(
                job_id, tenant, priority, workload, spec, ktaps, feed,
                len(validated), self._now(), self._loop.create_future(),
            )
            job_ids.append(job_id)
            if self.obs is not None:
                job.span = self.obs.tracer.open_span(
                    "runtime.job", t0=job.submitted_s, unit="s",
                    job_id=job_id, tenant=tenant, priority=priority.name,
                    workload=workload,
                )
            if not validated:
                job.started_s = job.submitted_s
                self._jobs[job_id] = job
                self._complete(job, [], mode="empty", worker=None,
                               via_fallback=False)
                continue
            job.cache_key = result_cache_key(
                workload, taps, validated, spec.numeric, params=params
            )
            if self.cache is not None:
                hit = self.cache.get(
                    job.cache_key, tenant=tenant, now=self._now()
                )
                if hit is not None:
                    job.started_s = self._now()
                    self._jobs[job_id] = job
                    self._complete(job, hit, mode="cached", worker=None,
                                   via_fallback=False)
                    continue
            if len(self._jobs) >= self.config.max_pending:
                self._m_backpressure.inc()
                if not self.config.degrade_when_saturated:
                    if job.span is not None:
                        self.obs.tracer.close(
                            job.span, t1=self._now(), rejected=True
                        )
                    flush()  # already-admitted work must still run
                    raise BackpressureError(
                        f"runtime pending set full "
                        f"({self.config.max_pending})"
                    )
                self._jobs[job_id] = job
                job.started_s = self._now()
                self._serve_fallback(job, reason="saturated")
                continue
            self._jobs[job_id] = job
            if timeout_s is not None:
                job.deadline = self._loop.time() + timeout_s
                job.timer = self._loop.call_later(
                    timeout_s, self._on_deadline, job
                )
            rep = reps.get(job.cache_key)
            if rep is not None:
                self._m_deduped.inc()
                self._followers.setdefault(rep.job_id, []).append(job)
                continue
            reps[job.cache_key] = job
            batchable.append(job)
        flush()
        return job_ids

    # -- dispatch / completion --------------------------------------------

    def _dispatch(self, job: _Job) -> None:
        fault = self.faults.sample()
        fault_kind = None
        stall_s = 0.0
        if fault is not None:
            if fault.kind is FaultKind.WORKER_DEATH:
                fault_kind = "death"
            else:
                stall_s = fault.extra_beats * self.config.stuck_stall_s
        if job.started_s is None:
            job.started_s = self._now()
        # Character streams cross the process boundary as a compact
        # string (picks/unpickles ~10x faster than a char list); the
        # fast engines iterate either form identically.
        wire_stream = job.stream
        if not job.spec.numeric and wire_stream and \
                isinstance(wire_stream[0], str):
            wire_stream = "".join(wire_stream)
        request = JobRequest(
            job_id=job.job_id,
            attempt=job.attempts,
            workload=job.workload,
            taps=job.taps,
            stream=wire_stream,
            collect_obs=self.obs is not None,
            fault=fault_kind,
            stall_s=stall_s,
        )
        self.pool.submit(
            request,
            self._reply_from_thread,
            deadline=job.deadline,
            priority=int(job.priority),
        )

    def _dispatch_batch(self, batch: _Batch) -> None:
        """Send one batch plan to the pool: the not-yet-done members'
        streams under one request, one shared fault sample."""
        live = [j for j in batch.members if not j.done]
        if not live:
            self._batches.pop(batch.batch_id, None)
            return
        batch.dispatched = live
        fault = self.faults.sample()
        fault_kind = None
        stall_s = 0.0
        if fault is not None:
            if fault.kind is FaultKind.WORKER_DEATH:
                fault_kind = "death"
            else:
                stall_s = fault.extra_beats * self.config.stuck_stall_s
        now = self._now()
        wire_streams = []
        for job in live:
            if job.started_s is None:
                job.started_s = now
            wire = job.stream
            if not job.spec.numeric and wire and isinstance(wire[0], str):
                wire = "".join(wire)
            wire_streams.append(wire)
        deadlines = [j.deadline for j in live if j.deadline is not None]
        request = JobRequest(
            job_id=batch.batch_id,
            attempt=batch.attempts,
            workload=batch.workload,
            taps=batch.taps,
            stream=None,
            collect_obs=self.obs is not None,
            fault=fault_kind,
            stall_s=stall_s,
            streams=wire_streams,
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
        if reply.job_id in self._batches or reply.results_many is not None:
            self._handle_batch_reply(reply)
            return
        job = self._jobs.get(reply.job_id)
        if job is None or job.done or reply.attempt != job.attempts:
            self._m_stale.inc()
            return
        if reply.ok:
            if self.obs is not None:
                if reply.metrics:
                    self.obs.registry.merge_snapshot(reply.metrics)
                if reply.spans:
                    self.obs.tracer.adopt(
                        reply.spans, parent=job.span,
                        offset=max(job.started_s, 0.0),
                    )
            results = job.spec.finalize(job.taps, job.orig_len, reply.results)
            self._complete(
                job, results, mode="pool", worker=reply.worker,
                via_fallback=False,
            )
            return
        job.attempts += 1
        if reply.died:
            self._m_deaths.inc()
        if self.retry.should_retry(job.attempts):
            self._m_retries.inc()
            self._dispatch(job)
        else:
            self._serve_fallback(job, reason="retries-exhausted")

    def _handle_batch_reply(self, reply: JobReply) -> None:
        batch = self._batches.get(reply.job_id)
        if batch is None or reply.attempt != batch.attempts:
            self._m_stale.inc()
            return
        live = [j for j in batch.dispatched if not j.done]
        if reply.ok:
            self._batches.pop(batch.batch_id, None)
            if self.obs is not None:
                if reply.metrics:
                    self.obs.registry.merge_snapshot(reply.metrics)
                if reply.spans and live:
                    self.obs.tracer.adopt(
                        reply.spans, parent=live[0].span,
                        offset=max(live[0].started_s, 0.0),
                    )
            for job, rows in zip(batch.dispatched, reply.results_many):
                if job.done:
                    continue  # its deadline fired; already served degraded
                results = job.spec.finalize(job.taps, job.orig_len, rows)
                self._complete(
                    job, results, mode="batched", worker=reply.worker,
                    via_fallback=False,
                )
            return
        # Whole-batch failure (death or error): bounded whole-batch retry.
        batch.attempts += 1
        if reply.died:
            self._m_deaths.inc()
        for job in live:
            job.attempts += 1
        if live and self.retry.should_retry(batch.attempts):
            self._m_retries.inc()
            self._dispatch_batch(batch)
        else:
            self._batches.pop(batch.batch_id, None)
            for job in live:
                self._serve_fallback(job, reason="retries-exhausted")

    def _on_deadline(self, job: _Job) -> None:
        """The job's SLO expired: shed it from the pool and serve it
        degraded.  A hung worker can no longer wedge this job."""
        if job.done:
            return
        job.timed_out = True
        self._m_timeouts.inc()
        if job.batch is None:
            self.pool.cancel(job.job_id, job.attempts)
        job.attempts += 1
        if self.obs is not None:
            self.obs.tracer.event(
                "runtime.job.timeout", t=self._now(), unit="s",
                job_id=job.job_id, attempts=job.attempts,
            )
        self._serve_fallback(job, reason="deadline")
        batch = job.batch
        if batch is not None and all(j.done for j in batch.members):
            # Every member has been served; drop the whole plan's reply.
            self.pool.cancel(batch.batch_id, batch.attempts)
            self._batches.pop(batch.batch_id, None)

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
        if (
            self.cache is not None and job.cache_key is not None
            and mode not in ("cached", "deduped")
        ):
            self.cache.put(job.cache_key, results, now=finished)
        # Fan results out to deduplicated followers: they shared this
        # execution but keep their own identity and latency story.
        for follower in self._followers.pop(job.job_id, []):
            self._complete(
                follower, list(results), mode="deduped", worker=worker,
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

    # -- counters (registry-backed, like ServiceTelemetry) -----------------

    @property
    def submitted(self) -> int:
        return int(self._m_submitted.value)

    @property
    def completed(self) -> int:
        return int(self._m_completed.value)

    @property
    def retries(self) -> int:
        return int(self._m_retries.value)

    @property
    def deaths(self) -> int:
        return int(self._m_deaths.value)

    @property
    def fallbacks(self) -> int:
        return int(self._m_fallbacks.value)

    @property
    def timeouts(self) -> int:
        return int(self._m_timeouts.value)

    @property
    def backpressure_hits(self) -> int:
        return int(self._m_backpressure.value)

    @property
    def batches(self) -> int:
        return int(self._m_batches.value)

    @property
    def batched_jobs(self) -> int:
        return int(self._m_batched_jobs.value)

    @property
    def deduped(self) -> int:
        return int(self._m_deduped.value)

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
