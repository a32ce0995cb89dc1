"""`MatcherService`: submit/drain over the device pool.

The service is a discrete-event simulation driven by the beat clock.
``submit`` admits jobs through the bounded priority queues (backpressure
applies); ``drain`` runs the farm to completion: assign queued work to
idle workers, advance the clock to the next completion, handle faults,
repeat.  Every execution is beat-accounted (worker service time from the
250 ns timing model, bus occupancy from the host memory model), and every
result is produced by a verified matching engine -- chip, cascade,
multipass, or the software fallback -- so service output is bit-identical
to :func:`repro.core.reference.match_oracle` no matter how the job was
routed, retried, or sharded.

Matching is one workload among the kernels registered in
:mod:`repro.workloads` -- match counting, correlation, convolution, FIR,
sliding inner products (Section 3.4) -- and ``submit(workload=...)``
serves every one of them down the *same* path: the spec parses and
prepares the taps, a worker runs the spec's kernel, halo-overlap shards
merge (one value per stream position, ``window - 1`` warm-up), and the
spec finalizes.  Retry exhaustion degrades to
:class:`~repro.service.reliability.SoftwareFallback`.  Whatever the
routing, results equal the direct oracle definition, property-tested
under fault injection in ``tests/test_workloads_service.py``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import BackpressureError, ServiceError
from ..host.bus import HostSpec
from .cache import ResultCache, result_cache_key
from .completion import CompletionLog
from .plan import (
    DEDUPED, INLINE, Followers, Prepared, Request, parse_request,
    plan as plan_routes,
)
from .pool import DevicePool, PoolWorker, WorkerState
from .reliability import FaultInjector, FaultKind, RetryPolicy, SoftwareFallback
from .scheduler import BeatClock, JobQueues, Priority, SchedulerConfig, SharedBus
from .sharding import (
    ShardMode,
    ShardPlan,
    TextShard,
    merge_shard_results,  # noqa: F401 -- perfbench's tracer wraps it by name
    merge_shard_values,
    plan_shards,
)
from .telemetry import ServiceTelemetry
from ..workloads.registry import WorkloadSpec


@dataclass
class MatchJob:
    """One admitted query for any registered workload (match included).

    ``taps`` holds the workload's *prepared* tap vector, ``text`` the
    prepared stream (padded for convolution/FIR), and ``orig_len`` the
    validated input-stream length that ``spec.finalize`` maps windowed
    results back onto."""

    job_id: int
    tenant: str
    priority: Priority
    spec: WorkloadSpec
    taps: list
    text: List
    orig_len: int
    submitted_beat: float
    attempts: int = 0  # failed executions so far (drives the retry policy)
    span: Optional[object] = None  # open service.job span (obs attached)
    deadline: Optional[float] = None  # absolute beat; None = no SLO
    #: Cross-tenant result-cache identity (also the submit_many dedup
    #: key): canonical workload + params + content digest of the
    #: validated input.  None when the planner computed no key.
    cache_key: Optional[tuple] = None

    @property
    def workload(self) -> str:
        return self.spec.name

    @property
    def window_len(self) -> int:
        """Cells the job needs: the sliding-window width."""
        return len(self.taps)


@dataclass(frozen=True)
class JobResult:
    """The completed job: the oracle-identical result stream plus its
    latency story."""

    job_id: int
    tenant: str
    priority: Priority
    results: List
    submitted_beat: float
    started_beat: float
    finished_beat: float
    wait_beats: float
    service_beats: float
    mode: str
    workers: Tuple[str, ...]
    attempts: int
    via_fallback: bool
    workload: str = "match"
    timed_out: bool = False

    @property
    def latency_beats(self) -> float:
        return self.finished_beat - self.submitted_beat


@dataclass
class _JobState:
    """In-flight bookkeeping for one job."""

    job: MatchJob
    plan: ShardPlan
    pending: Dict[int, TextShard]
    shard_results: Dict[int, List] = field(default_factory=dict)
    shard_finish: Dict[int, float] = field(default_factory=dict)
    started_beat: Optional[float] = None
    service_beats: float = 0.0
    workers_used: List[str] = field(default_factory=list)
    via_fallback: bool = False
    timed_out: bool = False

    @property
    def done(self) -> bool:
        return not self.pending


@dataclass(frozen=True)
class _Execution:
    """One launch running on one worker (or dying on it): one shard of
    a solo job, or a whole batch (``shard`` None, ``state`` the batch)."""

    seq: int
    state: object  # _JobState or _Batch
    worker: PoolWorker
    start_beat: float
    finish_beat: float
    fault: Optional[object]
    shard: Optional[TextShard] = None


@dataclass
class _Batch:
    """A coalesced batch plan: one queue entry, then its in-flight state.

    All members share one workload, prepared tap vector, tenant, and
    priority (the ``submit_many`` contract), and every member's text is
    *unique* -- duplicates were already peeled off as followers of their
    representative.  The batch occupies one worker for the sum of its
    members' service beats and is retried, shed, or degraded as a unit
    (per-member deadlines are still honoured individually at launch)."""

    jobs: List[MatchJob]  # members still owed a device execution
    priority: Priority
    started_beat: Optional[float] = None
    attempts: int = 0  # failed batch executions (drives the retry policy)

    @property
    def window_len(self) -> int:
        return self.jobs[0].window_len


def _members(unit) -> List[MatchJob]:
    """The jobs one queue entry carries: a solo job or a batch."""
    return unit.jobs if isinstance(unit, _Batch) else [unit]


class MatcherService:
    """The multi-tenant matcher farm (the public API of the subsystem).

    Every job, whatever its workload, takes one path: the
    :class:`~repro.workloads.WorkloadSpec` parses and prepares its taps,
    a :class:`~repro.service.pool.PoolWorker` runs the spec's kernel
    (``run_kernel`` or ``run_kernel_batch``) or
    :class:`~repro.service.reliability.SoftwareFallback` serves it, text
    shards merge with the spec's ``incomplete`` value, and the spec
    finalizes.  ``submit(x)`` is ``submit_many([x])``, and every stream
    is routed by the one planner both front doors share
    (:func:`repro.service.plan.plan`).

    >>> pool = uniform_pool(4, ChipSpec(8, 2), Alphabet("ABCD"))  # doctest: +SKIP
    >>> svc = MatcherService(pool)                                # doctest: +SKIP
    >>> jid = svc.submit("AXC", "ABCAACACCAB", tenant="alice")    # doctest: +SKIP
    >>> svc.drain()[0].results                                    # doctest: +SKIP
    """

    def __init__(
        self,
        pool: DevicePool,
        config: Optional[SchedulerConfig] = None,
        host: Optional[HostSpec] = None,
        faults: Optional[FaultInjector] = None,
        obs=None,
        cache: Optional[ResultCache] = None,
    ):
        self.pool = pool
        self.config = config or SchedulerConfig()
        self.host = host or HostSpec()
        self.faults = faults or FaultInjector()
        self.retry = RetryPolicy(self.config.max_retries)
        self.fallback = SoftwareFallback(self.host)
        self.beat_ns = pool.workers[0].beat_ns
        self.clock = BeatClock()
        self.queues = JobQueues(self.config)
        self.obs = obs
        self.bus = SharedBus(self.host, self.beat_ns, obs=obs)
        self.telemetry = ServiceTelemetry(
            registry=obs.registry if obs is not None else None
        )
        if obs is not None:
            self.faults.attach_obs(obs)
        # Optional cross-tenant result cache.  Pass
        # ``ResultCache(registry=obs.registry)`` to fold its hit/miss
        # counters into the run's unified metrics; its TTL is measured
        # in beats (the farm's clock).
        self.cache = cache
        self._next_id = 0
        self._seq = 0
        self._inflight: List[Tuple[float, int, object]] = []
        self._retry_ready: Deque[Tuple[_JobState, TextShard]] = deque()
        self._retry_batches: Deque[_Batch] = deque()
        self._followers = Followers(cache)
        self._completed = CompletionLog()
        self._last_finish = 0.0  # running max of finished_beat
        for w in pool:
            stats = self.telemetry.worker_stats(w.name, w.capacity)
            stats.died = not w.is_live

    # -- submission --------------------------------------------------------

    def submit(
        self,
        pattern,
        text: Sequence,
        tenant: str = "default",
        priority: Priority = Priority.BATCH,
        workload: str = "match",
        timeout: Optional[float] = None,
    ) -> int:
        """Admit one query; returns its job id.

        *pattern* is a match pattern for the default workload, or the
        tap/pattern parameters of any workload registered in
        :mod:`repro.workloads` (``"count"``, ``"correlation"``,
        ``"convolution"``, ``"fir"``, ``"inner-product"``); *text* is the
        character text or numeric sample stream accordingly.

        ``submit(x)`` is ``submit_many([x])``: the same checks, the same
        route and the same errors.  A narrow text is a chunk of one
        job, so it runs solo (``mode="direct"`` or ``"multipass"``);
        a wide text may shard (``"text-sharded"``).

        Raises :class:`BackpressureError` when the priority class's
        bounded queue is full and ``degrade_when_saturated`` is off;
        otherwise a saturated submission runs on the host CPU's
        :class:`SoftwareFallback` immediately (slower, never wrong).

        *timeout* (beats) is the job's SLO: any shard launch whose
        projected finish would land past ``submitted + timeout`` is not
        committed to a worker at all -- the shard is served degraded
        from the host oracle instead, so a slow or hung worker can
        never wedge a drain past the deadline.  The result is flagged
        ``timed_out`` (and still oracle-identical).
        """
        return self.submit_many(
            pattern, [text], tenant=tenant, priority=priority,
            workload=workload, timeout=timeout,
        )[0]

    def submit_many(
        self,
        pattern,
        texts: Sequence[Sequence],
        tenant: str = "default",
        priority: Priority = Priority.BATCH,
        workload: str = "match",
        timeout: Optional[float] = None,
    ) -> List[int]:
        """Admit one job per text in *texts*; returns their ids in order.

        The pattern (or tap vector) is parsed **once** and every text is
        validated before any job is admitted: bad input anywhere raises
        a :class:`~repro.errors.ReproError` and admits nothing.
        :func:`~repro.service.plan.plan` then routes each text down the
        cheapest path that still yields an oracle-identical result:

        * empty texts complete immediately (``mode="empty"``);
        * texts whose canonical result is already in the
          :class:`~repro.service.cache.ResultCache` complete from it
          (``mode="cached"``);
        * duplicate texts follow the first occurrence, share its
          execution and get a copy of its answer (``mode="deduped"``),
          even when that representative is shed to the software
          baseline;
        * wide texts (``>= wide_text_threshold``) and a chunk of exactly
          one job run solo: their own shard/merge plan;
        * everything else is coalesced into batch plans of 2 to
          ``config.max_batch_jobs`` members, each dispatched to a worker
          as a single batched execution (``mode="batched"``).

        Solo units are queued in text order, then the batch plans.
        Backpressure applies per queue entry (one batch plan is one
        entry): with ``degrade_when_saturated`` the overflowing entry is
        served by the software baseline; otherwise the overflowing entry
        and every entry after it are rejected and
        :class:`BackpressureError` raised (already-admitted jobs stay
        admitted).
        """
        req = parse_request(
            workload, pattern, texts, self.pool.alphabet, priority, timeout
        )
        routes, solos, batches = plan_routes(
            req.spec, req.taps, req.streams, self.cache, self.clock.now,
            self.config.max_batch_jobs, result_cache_key,
            wide_threshold=self.config.wide_text_threshold, tenant=tenant,
        )
        jobs = [
            self._admit(req, prepared, route.key, tenant)
            for prepared, route in zip(req.streams, routes)
        ]
        for job, route in zip(jobs, routes):
            if route.kind == DEDUPED:
                self.telemetry.deduped += 1
                self._followers.follow(jobs[route.rep].job_id, job)
            elif route.kind in INLINE:  # no queue, worker, bus or beats
                now = self.clock.now
                self._record(job, route.hit or [], now, now, 0.0, route.kind)
        units: List[object] = [jobs[i] for i in solos]
        units += [
            _Batch([jobs[i] for i in chunk], req.priority)
            for chunk in batches
        ]
        self._enqueue(units, req.priority, tenant)
        return [job.job_id for job in jobs]

    def _admit(
        self, req: Request, prepared: Prepared, key: Optional[tuple],
        tenant: str,
    ) -> MatchJob:
        """Admit one planned job: give it an id, count it, open its
        span."""
        now = self.clock.now
        job = MatchJob(
            job_id=self._next_id,
            tenant=tenant,
            priority=req.priority,
            spec=req.spec,
            taps=prepared.taps,
            text=prepared.feed,
            orig_len=len(prepared.validated),
            submitted_beat=now,
            cache_key=key,
        )
        if req.timeout is not None:
            job.deadline = now + req.timeout
        self._next_id += 1
        self.telemetry.submitted += 1
        if self.obs is not None:
            # Jobs overlap in simulated time, so their spans cannot nest on
            # the tracer stack: open/close explicitly, keyed off the job.
            job.span = self.obs.tracer.open_span(
                "service.job", t0=now, unit="beats",
                job_id=job.job_id, tenant=tenant, priority=job.priority.name,
                workload=job.workload,
            )
        return job

    def _enqueue(
        self, units: Sequence[object], priority: Priority, tenant: str
    ) -> None:
        """Queue solo jobs and batch plans in order.  On backpressure
        the overflowing unit is served by the software baseline when
        ``degrade_when_saturated``; otherwise it and every unit after it
        are rolled back and :class:`BackpressureError` propagates."""
        for i, unit in enumerate(units):
            try:
                self.queues.put(priority, tenant, unit)
                self._note_queue_depth(priority)
            except BackpressureError:
                self.telemetry.backpressure_hits += 1
                if self.config.degrade_when_saturated:
                    for job in _members(unit):
                        self._complete_member_software(job)
                    continue
                for late in units[i:]:
                    for job in _members(late):
                        self._reject(job)
                raise

    def _note_queue_depth(self, priority: Priority) -> None:
        if self.obs is not None:
            self.obs.tracer.event(
                "queue.depth", t=self.clock.now, unit="beats",
                priority=priority.name,
                depth=self.queues.depth(priority),
            )

    def _reject(self, job: MatchJob) -> None:
        """Roll one not-admitted job (and its followers) back out."""
        self.telemetry.submitted -= 1
        if job.span is not None:
            self.obs.tracer.close(job.span, t1=self.clock.now, rejected=True)
            job.span = None
        for follower in self._followers.drop(job.job_id):
            self._reject(follower)

    # -- draining ----------------------------------------------------------

    def drain(self) -> List[JobResult]:
        """Run the farm until every admitted job has completed; returns
        a fresh list of all results so far, in job-id order.

        Besides running the jobs, the cost is work proportional to the
        completions since the last call plus one C-level list copy."""
        while (
            self.queues.depth() or self._retry_ready
            or self._retry_batches or self._inflight
        ):
            self._assign_all()
            if not self._inflight:
                if self.pool.n_live == 0:
                    self._degrade_remaining()
                    continue
                if (
                    not self.queues.depth() and not self._retry_ready
                    and not self._retry_batches
                ):
                    # Everything was served inline (deadline timeouts /
                    # saturation degrades) without touching a worker.
                    continue
                raise ServiceError(
                    "scheduler stalled with live workers and queued jobs"
                )
            _, _, execution = heapq.heappop(self._inflight)
            self.clock.advance_to(execution.finish_beat)
            if execution.shard is None:
                self._complete_batch(execution)
            else:
                self._complete_execution(execution)
        self._sync_telemetry()
        return self._completed.snapshot()

    def results(self) -> List[JobResult]:
        """Completed results so far (without draining), as a fresh list
        in job-id order; costs work proportional to the completions since
        the last call plus one C-level list copy."""
        return self._completed.snapshot()

    # -- assignment --------------------------------------------------------

    def _assign_all(self) -> None:
        while True:
            idle = self.pool.idle_workers()
            if not idle:
                return
            if self._retry_ready:
                state, shard = self._retry_ready.popleft()
                worker = self._choose_worker(idle, state.job.window_len)
                self._launch(state, shard, worker)
                continue
            if self._retry_batches:
                batch = self._retry_batches.popleft()
            else:
                unit = self.queues.pop()
                if unit is None:
                    return
                self._note_queue_depth(unit.priority)
                if not isinstance(unit, _Batch):
                    self._start_job(unit)
                    continue
                batch = unit
            self._launch_batch(
                batch, self._choose_worker(idle, batch.window_len)
            )

    @staticmethod
    def _choose_worker(
        idle: Sequence[PoolWorker], pattern_len: int
    ) -> PoolWorker:
        """Best fit: the smallest worker the pattern fits on; otherwise
        the largest worker (fewest multipass runs)."""
        fitting = [w for w in idle if w.fits(pattern_len)]
        if fitting:
            return min(fitting, key=lambda w: (w.capacity, w.name))
        return max(idle, key=lambda w: (w.capacity, w.name))

    def _start_job(self, job: MatchJob) -> None:
        idle = self.pool.idle_workers()
        plen, tlen = job.window_len, len(job.text)
        fitting = sorted(
            (w for w in idle if w.fits(plen)), key=lambda w: (w.capacity, w.name)
        )
        if tlen >= self.config.wide_text_threshold and len(fitting) >= 2:
            plan = plan_shards(
                plen, tlen, len(fitting), self.config.max_shards,
                self.config.min_shard_chars, obs=self.obs,
            )
            if plan.mode is ShardMode.TEXT_SHARDED:
                state = _JobState(
                    job, plan, pending={s.index: s for s in plan.shards}
                )
                for shard, worker in zip(plan.shards, fitting):
                    self._launch(state, shard, worker)
                return
        worker = self._choose_worker(idle, plen)
        mode = ShardMode.DIRECT if worker.fits(plen) else ShardMode.MULTIPASS
        whole = TextShard(0, 0, tlen - 1, 0)
        state = _JobState(job, ShardPlan(mode, [whole]), pending={0: whole})
        self._launch(state, whole, worker)

    def _project(
        self, fault, service: float, chars: int, now: float
    ) -> Tuple[float, int]:
        """Projected finish beat and bus characters of one launch.  A
        worker death burns beats and bus time up to the failure point
        and brings nothing useful back."""
        if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
            finish = now + max(1.0, fault.at_fraction * service)
            return finish, int(chars * fault.at_fraction)
        extra = fault.extra_beats if fault is not None else 0
        return max(now + service + extra, self.bus.eta(chars, now)), chars

    def _launch(
        self, state: _JobState, shard: TextShard, worker: PoolWorker
    ) -> None:
        now = self.clock.now
        plen, n_fed = state.job.window_len, shard.n_fed
        fault = self.faults.sample()
        finish, bus_chars = self._project(
            fault, worker.service_beats(plen, n_fed),
            worker.transfer_chars(plen, n_fed), now,
        )
        deadline = state.job.deadline
        if deadline is not None and finish > deadline:
            # The SLO would be blown before this launch even finished
            # (slow worker, stuck beats, bus queue, or a death that
            # would burn past the deadline): don't commit the worker or
            # the bus at all -- serve the shard degraded right now.
            # The sampled fault is discarded with the launch.
            self.telemetry.timeouts += 1
            state.timed_out = True
            if state.started_beat is None:
                state.started_beat = now
            if self.obs is not None:
                self.obs.tracer.event(
                    "job.timeout", t=now, unit="beats",
                    job_id=state.job.job_id, shard=shard.index,
                    projected_finish=finish, deadline=deadline,
                )
            self._shard_software(state, shard)
            return
        self._commit(state, worker, now, finish, bus_chars, fault, shard)

    def _commit(
        self, state, worker: PoolWorker, now: float, finish: float,
        bus_chars: int, fault, shard: Optional[TextShard] = None,
    ) -> None:
        """Commit a launch: its worker and bus time are taken until
        *finish*, when the execution completes (or dies)."""
        if state.started_beat is None:
            state.started_beat = now
        worker.state = WorkerState.BUSY
        self.bus.reserve(bus_chars, now)
        self._seq += 1
        execution = _Execution(
            self._seq, state, worker, now, finish, fault, shard
        )
        heapq.heappush(self._inflight, (finish, self._seq, execution))

    # -- completion --------------------------------------------------------

    def _settle_worker(self, execution) -> bool:
        """Book one finished execution (solo or batch) against its
        worker; True when the worker died in it (it is then DEAD, else
        IDLE again)."""
        worker, fault = execution.worker, execution.fault
        stats = self.telemetry.worker_stats(worker.name, worker.capacity)
        stats.executions += 1
        stats.record_busy(execution.start_beat, execution.finish_beat)
        if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
            worker.state = WorkerState.DEAD
            stats.died = True
            self.telemetry.deaths += 1
            return True
        worker.state = WorkerState.IDLE
        if fault is not None and fault.kind is FaultKind.STUCK_BEATS:
            stats.stuck_events += 1
            self.telemetry.stuck_events += 1
        return False

    def _complete_execution(self, execution: _Execution) -> None:
        state, shard, worker = execution.state, execution.shard, execution.worker
        job = state.job
        fault = execution.fault
        died = self._settle_worker(execution)
        exec_span = None
        if self.obs is not None:
            exec_span = self.obs.tracer.record(
                "service.execution",
                t0=execution.start_beat, t1=execution.finish_beat,
                unit="beats", parent=job.span,
                worker=worker.name, shard=shard.index,
                attempt=job.attempts,
                fault=fault.kind.value if fault is not None else None,
            )
        if died:
            job.attempts += 1
            if self.retry.should_retry(job.attempts) and self.pool.n_live > 0:
                self.telemetry.retries += 1
                self._retry_ready.append((state, shard))
            else:
                self._shard_software(state, shard)
            return
        results = worker.run_kernel(
            job.spec, job.taps, shard.feed(job.text), obs=self.obs,
            parent=exec_span, t0=execution.start_beat,
            t1=execution.finish_beat,
        )
        state.shard_results[shard.index] = results
        state.shard_finish[shard.index] = execution.finish_beat
        state.service_beats += execution.finish_beat - execution.start_beat
        state.workers_used.append(worker.name)
        del state.pending[shard.index]
        if state.done:
            self._finalize(state)

    def _shard_software(self, state: _JobState, shard: TextShard) -> None:
        """Retries exhausted (or no live workers): the host CPU finishes
        this shard with the software baseline."""
        job = state.job
        feed = shard.feed(job.text)
        results = self.fallback.kernel(job.spec, job.taps, feed)
        beats = self.fallback.beats(job.window_len, len(feed), self.beat_ns)
        finish = self.clock.now + beats
        if self.obs is not None:
            self.obs.tracer.record(
                "service.software_fallback", t0=self.clock.now, t1=finish,
                unit="beats", parent=job.span,
                shard=shard.index, chars=len(feed),
            )
        state.shard_results[shard.index] = results
        state.shard_finish[shard.index] = finish
        state.service_beats += beats
        state.via_fallback = True
        self.telemetry.fallbacks += 1
        del state.pending[shard.index]
        if state.done:
            self._finalize(state)

    def _finalize(self, state: _JobState) -> None:
        job, plan = state.job, state.plan
        if plan.mode is ShardMode.TEXT_SHARDED:
            ordered = [state.shard_results[s.index] for s in plan.shards]
            results = merge_shard_values(
                plan.shards, ordered, len(job.text), job.spec.incomplete
            )
        else:
            results = state.shard_results[0]
        results = job.spec.finalize(job.taps, job.orig_len, results)
        finished = max(state.shard_finish.values())
        started = state.started_beat if state.started_beat is not None else finished
        mode = "software" if state.via_fallback and not state.workers_used \
            else plan.mode.value
        self._record(
            job, results, started, finished, state.service_beats, mode,
            state.workers_used, job.attempts, state.via_fallback,
            state.timed_out,
        )

    def _complete_member_software(
        self, job: MatchJob, timed_out: bool = False
    ) -> None:
        """Serve one whole job from the host CPU (saturation degrade,
        deadline shed, batch retry exhaustion, or an all-dead pool),
        preserving its original submission beat for latency accounting."""
        merged = self.fallback.kernel(job.spec, job.taps, job.text)
        results = job.spec.finalize(job.taps, job.orig_len, merged)
        beats = self.fallback.beats(job.window_len, len(job.text), self.beat_ns)
        now = self.clock.now
        self.telemetry.fallbacks += 1
        if self.obs is not None:
            self.obs.tracer.record(
                "service.software_fallback", t0=now, t1=now + beats,
                unit="beats", parent=job.span, chars=len(job.text),
            )
        self._record(
            job, results, now, now + beats, beats, "software",
            attempts=job.attempts, via_fallback=True, timed_out=timed_out,
        )

    # -- batch plans -------------------------------------------------------

    def _batch_demand(
        self, jobs: Sequence[MatchJob], worker: PoolWorker
    ) -> Tuple[float, int]:
        """Summed device beats and bus characters for a batch's members
        run back-to-back on *worker* (one load of the shared pattern per
        member, same accounting as a singleton launch)."""
        plen = jobs[0].window_len
        service = sum(worker.service_beats(plen, len(j.text)) for j in jobs)
        chars = sum(worker.transfer_chars(plen, len(j.text)) for j in jobs)
        return service, chars

    def _launch_batch(self, state: _Batch, worker: PoolWorker) -> None:
        now = self.clock.now
        # One fault sample per batch execution: the whole batch lives or
        # dies with the worker it lands on.
        fault = self.faults.sample()
        finish, bus_chars = self._project(
            fault, *self._batch_demand(state.jobs, worker), now
        )
        shed = [
            j for j in state.jobs
            if j.deadline is not None and finish > j.deadline
        ]
        if shed:
            # Per-member SLO check before committing the worker: members
            # whose deadline the projected finish would blow are served
            # degraded right now; the survivors are re-projected once.
            shed_ids = {j.job_id for j in shed}
            for job in shed:
                self.telemetry.timeouts += 1
                if self.obs is not None:
                    self.obs.tracer.event(
                        "job.timeout", t=now, unit="beats",
                        job_id=job.job_id, batch=True,
                        projected_finish=finish, deadline=job.deadline,
                    )
                self._complete_member_software(job, timed_out=True)
            state.jobs = [
                j for j in state.jobs if j.job_id not in shed_ids
            ]
            if not state.jobs:
                return  # the worker was never committed
            finish, bus_chars = self._project(
                fault, *self._batch_demand(state.jobs, worker), now
            )
        self._commit(state, worker, now, finish, bus_chars, fault)

    def _complete_batch(self, execution: _Execution) -> None:
        state, worker = execution.state, execution.worker
        fault = execution.fault
        died = self._settle_worker(execution)
        batch_span = None
        if self.obs is not None:
            batch_span = self.obs.tracer.record(
                "service.batch",
                t0=execution.start_beat, t1=execution.finish_beat,
                unit="beats", worker=worker.name, jobs=len(state.jobs),
                workload=state.jobs[0].workload, attempt=state.attempts,
                fault=fault.kind.value if fault is not None else None,
            )
        if died:
            state.attempts += 1
            for job in state.jobs:
                job.attempts += 1
            if self.retry.should_retry(state.attempts) and self.pool.n_live:
                self.telemetry.retries += 1
                self._retry_batches.append(state)
            else:
                for job in state.jobs:
                    self._complete_member_software(job)
            return
        jobs = state.jobs
        results_many = worker.run_kernel_batch(
            jobs[0].spec, jobs[0].taps, [j.text for j in jobs],
            obs=self.obs, parent=batch_span,
            t0=execution.start_beat, t1=execution.finish_beat,
        )
        self.telemetry.batches += 1
        started = (
            state.started_beat if state.started_beat is not None
            else execution.start_beat
        )
        plen = state.window_len
        for job, merged in zip(jobs, results_many):
            results = job.spec.finalize(job.taps, job.orig_len, merged)
            self.telemetry.batched_jobs += 1
            # A member's service beats are its share of the batch: what
            # its own device run would have cost on this worker.
            self._record(
                job, results, started, execution.finish_beat,
                worker.service_beats(plen, len(job.text)), "batched",
                (worker.name,), job.attempts,
            )

    def _degrade_remaining(self) -> None:
        """Every live worker is gone: drain all remaining work through
        the software fallback (availability over throughput)."""
        while self._retry_ready:
            state, shard = self._retry_ready.popleft()
            self._shard_software(state, shard)
        while self._retry_batches:
            batch = self._retry_batches.popleft()
            for job in batch.jobs:
                self._complete_member_software(job)
        while True:
            unit = self.queues.pop()
            if unit is None:
                break
            for job in _members(unit):
                self._complete_member_software(job)

    # -- accounting --------------------------------------------------------

    def _record(
        self, job: MatchJob, results: List, started: float, finished: float,
        service: float, mode: str, workers: Sequence[str] = (),
        attempts: int = 0, via_fallback: bool = False,
        timed_out: bool = False,
    ) -> None:
        """Complete *job* (its wait runs from submission to *started*),
        then every deduplicated follower with a copy of the answer."""
        result = JobResult(
            job.job_id, job.tenant, job.priority, results,
            job.submitted_beat, started, finished, started - job.submitted_beat,
            service, mode, tuple(workers), attempts, via_fallback,
            job.workload, timed_out,
        )
        self._completed.add(result)
        self._last_finish = max(self._last_finish, finished)
        self.telemetry.completed += 1
        self.telemetry.text_chars_served += len(results)
        self.telemetry.record_job(job.priority, result.wait_beats, service)
        self.telemetry.record_workload(job.workload, len(results))
        if job.span is not None:
            self.obs.tracer.close(
                job.span, t1=finished, mode=mode, workers=list(workers),
                attempts=attempts, via_fallback=via_fallback,
                timed_out=timed_out, wait_beats=result.wait_beats,
                service_beats=service,
            )
            job.span = None
        # Followers share the execution (and its faults, retries,
        # timeouts) but keep their own identity and latency accounting.
        for follower in self._followers.settle(
            job.job_id, job.cache_key, results, mode, finished
        ):
            self._record(
                follower, list(results), started, finished, 0.0, DEDUPED,
                workers, 0, via_fallback, timed_out,
            )

    def _sync_telemetry(self) -> None:
        t = self.telemetry
        t.queue_high_water = dict(self.queues.high_water)
        t.bus_busy_beats = self.bus.busy_beats
        t.bus_chars_moved = self.bus.chars_moved
        t.makespan_beats = max(self.clock.now, self._last_finish)

    def report(self) -> str:
        """The telemetry tables (render after a drain)."""
        self._sync_telemetry()
        return self.telemetry.render()
