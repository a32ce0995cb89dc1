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

All device work moves as one kind of record, a ``_Unit``: a list of
*pieces* (one job and one :class:`~repro.service.sharding.TextShard` of
its text each).  A solo job is a unit of one whole-text piece, which
may split into one-piece shard units when it is first dispatched; a
batch plan is a unit of whole-text pieces run by one batched kernel
call.  Every unit is launched under one fault sample (pieces whose
deadline the projected finish would blow are shed to software first),
retried whole from one retry deque while its own attempt budget lasts,
and otherwise served piece by piece from
:class:`~repro.service.reliability.SoftwareFallback`.  A job completes
when its last piece does.

Matching is one workload among the kernels registered in
:mod:`repro.workloads` -- match counting, correlation, convolution, FIR,
sliding inner products (Section 3.4) -- and ``submit(workload=...)``
serves every one of them down the *same* path: the spec parses and
prepares the taps, a worker runs the spec's kernel, halo-overlap shards
merge (one value per stream position, ``window - 1`` warm-up), and the
spec finalizes.  Whatever the routing, results equal the direct oracle
definition, property-tested under fault injection in
``tests/test_workloads_service.py``.
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
    TextShard,
    merge_shard_results,  # noqa: F401 -- perfbench's tracer wraps it by name
    merge_shard_values,
    plan_shards,
)
from .telemetry import ServiceTelemetry
from ..workloads.registry import WorkloadSpec


@dataclass
class MatchJob:
    """One admitted query for any registered workload (match included),
    with its in-flight state.

    ``taps`` holds the workload's *prepared* tap vector, ``text`` the
    prepared stream (padded for convolution/FIR), and ``orig_len`` the
    validated input-stream length that ``spec.finalize`` maps windowed
    results back onto.  The fields from ``mode`` on fill in as the
    job's pieces are placed and served."""

    job_id: int
    tenant: str
    priority: Priority
    spec: WorkloadSpec
    taps: list
    text: List
    orig_len: int
    submitted_beat: float
    attempts: int = 0  # failed executions of any unit carrying the job
    span: Optional[object] = None  # open service.job span (obs attached)
    deadline: Optional[float] = None  # absolute beat; None = no SLO
    #: Cross-tenant result-cache identity (also the submit_many dedup
    #: key): canonical workload + params + content digest of the
    #: validated input.  None when the planner computed no key.
    cache_key: Optional[tuple] = None
    #: The device route fixed at first dispatch (``direct``,
    #: ``multipass``, ``text-sharded`` or ``batched``).
    mode: Optional[str] = None
    shards: Optional[List[TextShard]] = None  # set when text-sharded
    pending: int = 1  # pieces not yet served
    shard_results: Dict[int, List] = field(default_factory=dict)
    shard_finish: Dict[int, float] = field(default_factory=dict)
    #: First commit to a worker, else the start of its software run.
    started_beat: Optional[float] = None
    service_beats: float = 0.0
    workers_used: List[str] = field(default_factory=list)
    via_fallback: bool = False
    timed_out: bool = False

    @property
    def workload(self) -> str:
        return self.spec.name

    @property
    def window_len(self) -> int:
        """Cells the job needs: the sliding-window width."""
        return len(self.taps)

    def whole(self) -> Tuple["MatchJob", TextShard]:
        """The piece covering the job's whole text."""
        return self, TextShard(0, 0, len(self.text) - 1, 0)


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


@dataclass(eq=False)
class _Unit:
    """One queue entry, then one execution at a time on one worker.

    A solo job is one whole-text piece (it may split into one-piece
    shard units at first dispatch); a batch plan (``batched``) is the
    whole-text pieces of 2 or more jobs sharing one workload, prepared
    tap vector, tenant and priority, every text unique.  The unit lives
    or dies with its worker and is retried whole; ``attempts`` is its
    own retry budget.  The last four fields describe the execution in
    flight."""

    pieces: List[Tuple[MatchJob, TextShard]]
    priority: Priority
    batched: bool = False
    attempts: int = 0  # failed executions of this unit
    worker: Optional[PoolWorker] = None
    start_beat: float = 0.0
    finish_beat: float = 0.0
    fault: Optional[object] = None

    @property
    def window_len(self) -> int:
        return self.pieces[0][0].window_len


class MatcherService:
    """The multi-tenant matcher farm (the public API of the subsystem).

    Every job, whatever its workload, takes one path: the
    :class:`~repro.workloads.WorkloadSpec` parses and prepares its taps,
    a :class:`~repro.service.pool.PoolWorker` runs the spec's kernel
    (``run_kernel`` for a solo job or shard, ``run_kernel_batch`` for a
    batch plan) or :class:`~repro.service.reliability.SoftwareFallback`
    serves it, text shards merge with the spec's ``incomplete`` value,
    and the spec finalizes.  ``submit(x)`` is ``submit_many([x])``, and
    every stream is routed by the one planner both front doors share
    (:func:`repro.service.plan.plan`).  Solo jobs, text shards and batch
    plans are one kind of in-flight unit, launched, retried, shed and
    degraded by one path.

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
        self._inflight: List[Tuple[float, int, _Unit]] = []
        self._retry: Deque[_Unit] = deque()
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

        Each solo job and each batch plan is one queue entry; the solo
        entries are queued in text order, then the batch plans.  A
        batch plan counts into ``telemetry.batches`` (and its members
        into ``batched_jobs``) once, when it is queued.  Backpressure
        applies per entry: with ``degrade_when_saturated`` the
        overflowing entry is served by the software baseline;
        otherwise the overflowing entry and every entry after it are
        rejected and :class:`BackpressureError` raised
        (already-admitted jobs stay admitted).
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
        units = [_Unit([jobs[i].whole()], req.priority) for i in solos]
        units += [
            _Unit([jobs[i].whole() for i in chunk], req.priority, True)
            for chunk in batches
        ]
        self._enqueue(units, tenant)
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

    def _enqueue(self, units: Sequence[_Unit], tenant: str) -> None:
        """Queue units in order; a batch plan is counted once here.  On
        backpressure the overflowing unit is served by the software
        baseline when ``degrade_when_saturated``; otherwise it and every
        unit after it are rolled back and :class:`BackpressureError`
        propagates."""
        for i, unit in enumerate(units):
            try:
                self.queues.put(unit.priority, tenant, unit)
            except BackpressureError:
                self.telemetry.backpressure_hits += 1
                if self.config.degrade_when_saturated:
                    for job, shard in unit.pieces:
                        self._serve_software(job, shard)
                    continue
                for late in units[i:]:
                    for job, _ in late.pieces:
                        self._reject(job)
                raise
            self._note_queue_depth(unit.priority)
            if unit.batched:
                self.telemetry.batches += 1
                self.telemetry.batched_jobs += len(unit.pieces)

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
        while self.queues.depth() or self._retry or self._inflight:
            self._assign_all()
            if not self._inflight:
                if self.pool.n_live == 0:
                    self._degrade_remaining()
                    continue
                if not self.queues.depth() and not self._retry:
                    # Everything was served inline (deadline timeouts /
                    # saturation degrades) without touching a worker.
                    continue
                raise ServiceError(
                    "scheduler stalled with live workers and queued jobs"
                )
            _, _, unit = heapq.heappop(self._inflight)
            self.clock.advance_to(unit.finish_beat)
            self._complete(unit)
        self._sync_telemetry()
        return self._completed.snapshot()

    def results(self) -> List[JobResult]:
        """Completed results so far (without draining), as a fresh list
        in job-id order; costs work proportional to the completions since
        the last call plus one C-level list copy."""
        return self._completed.snapshot()

    # -- assignment --------------------------------------------------------

    def _assign_all(self) -> None:
        """Fill idle workers: retries first, then the queues."""
        while True:
            idle = self.pool.idle_workers()
            if not idle:
                return
            if self._retry:
                unit = self._retry.popleft()
                self._launch(unit, self._choose_worker(idle, unit.window_len))
                continue
            unit = self.queues.pop()
            if unit is None:
                return
            self._note_queue_depth(unit.priority)
            self._dispatch(unit, idle)

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

    def _dispatch(self, unit: _Unit, idle: Sequence[PoolWorker]) -> None:
        """First dispatch of a queued unit, which fixes each job's mode.
        A wide solo job with two or more idle workers that fit it splits
        into one-piece shard units, one per worker."""
        if unit.batched:
            for job, _ in unit.pieces:
                job.mode = "batched"
            self._launch(unit, self._choose_worker(idle, unit.window_len))
            return
        job, _ = unit.pieces[0]
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
                job.mode, job.shards = plan.mode.value, plan.shards
                job.pending = len(plan.shards)
                for shard, worker in zip(plan.shards, fitting):
                    self._launch(_Unit([(job, shard)], unit.priority), worker)
                return
        worker = self._choose_worker(idle, plen)
        job.mode = (
            ShardMode.DIRECT if worker.fits(plen) else ShardMode.MULTIPASS
        ).value
        self._launch(unit, worker)

    def _project(
        self, fault, unit: _Unit, worker: PoolWorker, now: float
    ) -> Tuple[float, int]:
        """Projected finish beat and bus characters of running *unit*'s
        pieces back to back on *worker* (one load of the taps per piece).
        A worker death burns beats and bus time up to the failure point
        and brings nothing useful back."""
        plen, fed = unit.window_len, [s.n_fed for _, s in unit.pieces]
        service = sum(worker.service_beats(plen, n) for n in fed)
        chars = sum(worker.transfer_chars(plen, n) for n in fed)
        if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
            finish = now + max(1.0, fault.at_fraction * service)
            return finish, int(chars * fault.at_fraction)
        extra = fault.extra_beats if fault is not None else 0
        return max(now + service + extra, self.bus.eta(chars, now)), chars

    def _launch(self, unit: _Unit, worker: PoolWorker) -> None:
        """Launch *unit* on *worker* under one fault sample: the unit
        lives or dies with its worker.  Pieces whose job deadline the
        projected finish would blow (slow worker, stuck beats, bus
        queue, or a death that would burn past it) are served degraded
        right now; the survivors are re-projected once and committed.
        A fully shed unit never commits the worker or the bus."""
        now = self.clock.now
        fault = self.faults.sample()
        finish, bus_chars = self._project(fault, unit, worker, now)

        def blown(piece) -> bool:
            deadline = piece[0].deadline
            return deadline is not None and finish > deadline

        shed = [piece for piece in unit.pieces if blown(piece)]
        if shed:
            for job, shard in shed:
                self.telemetry.timeouts += 1
                job.timed_out = True
                if self.obs is not None:
                    self.obs.tracer.event(
                        "job.timeout", t=now, unit="beats",
                        job_id=job.job_id, shard=shard.index,
                        batch=unit.batched, projected_finish=finish,
                        deadline=job.deadline,
                    )
                self._serve_software(job, shard)
            unit.pieces = [p for p in unit.pieces if not blown(p)]
            if not unit.pieces:
                return
            finish, bus_chars = self._project(fault, unit, worker, now)
        for job, _ in unit.pieces:
            if job.started_beat is None:
                job.started_beat = now
        worker.state = WorkerState.BUSY
        self.bus.reserve(bus_chars, now)
        unit.worker, unit.fault = worker, fault
        unit.start_beat, unit.finish_beat = now, finish
        self._seq += 1
        heapq.heappush(self._inflight, (finish, self._seq, unit))

    # -- completion --------------------------------------------------------

    def _settle_worker(self, unit: _Unit) -> bool:
        """Book one finished execution against its worker; True when the
        worker died in it (it is then DEAD, else IDLE again)."""
        worker, fault = unit.worker, unit.fault
        stats = self.telemetry.worker_stats(worker.name, worker.capacity)
        stats.executions += 1
        stats.record_busy(unit.start_beat, unit.finish_beat)
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

    def _complete(self, unit: _Unit) -> None:
        """A unit's execution finished.  On a worker death every piece's
        job counts a failed attempt and the unit is retried whole while
        its own budget lasts (else each piece is served from software);
        otherwise the worker's kernel yields every piece's results."""
        worker, fault = unit.worker, unit.fault
        died = self._settle_worker(unit)
        job, shard = unit.pieces[0]
        span = None
        if self.obs is not None:
            attrs = dict(
                t0=unit.start_beat, t1=unit.finish_beat, unit="beats",
                worker=worker.name, attempt=unit.attempts,
                fault=fault.kind.value if fault is not None else None,
            )
            if unit.batched:
                span = self.obs.tracer.record(
                    "service.batch", jobs=len(unit.pieces),
                    workload=job.workload, **attrs,
                )
            else:
                span = self.obs.tracer.record(
                    "service.execution", parent=job.span,
                    shard=shard.index, **attrs,
                )
        if died:
            unit.attempts += 1
            for job, _ in unit.pieces:
                job.attempts += 1
            if self.retry.should_retry(unit.attempts) and self.pool.n_live:
                self.telemetry.retries += 1
                self._retry.append(unit)
            else:
                for job, shard in unit.pieces:
                    self._serve_software(job, shard)
            return
        run = dict(obs=self.obs, parent=span, t0=unit.start_beat,
                   t1=unit.finish_beat)
        if unit.batched:
            rows = worker.run_kernel_batch(
                job.spec, job.taps, [s.feed(j.text) for j, s in unit.pieces],
                **run,
            )
        else:
            rows = [worker.run_kernel(
                job.spec, job.taps, shard.feed(job.text), **run
            )]
        plen = unit.window_len
        for (job, shard), results in zip(unit.pieces, rows):
            job.workers_used.append(worker.name)
            # A batch member's service beats are its own device share:
            # what its own run would have cost on this worker.
            beats = worker.service_beats(plen, shard.n_fed) if unit.batched \
                else unit.finish_beat - unit.start_beat
            self._settle(job, shard, results, unit.finish_beat, beats)

    def _serve_software(self, job: MatchJob, shard: TextShard) -> None:
        """The host CPU serves one piece with the software baseline
        (saturation, deadline shed, retries exhausted or no live
        workers)."""
        now = self.clock.now
        if job.started_beat is None:
            job.started_beat = now
        feed = shard.feed(job.text)
        results = self.fallback.kernel(job.spec, job.taps, feed)
        beats = self.fallback.beats(job.window_len, len(feed), self.beat_ns)
        if self.obs is not None:
            self.obs.tracer.record(
                "service.software_fallback", t0=now, t1=now + beats,
                unit="beats", parent=job.span,
                shard=shard.index, chars=len(feed),
            )
        job.via_fallback = True
        self.telemetry.fallbacks += 1
        self._settle(job, shard, results, now + beats, beats)

    def _settle(
        self, job: MatchJob, shard: TextShard, results: List,
        finish: float, beats: float,
    ) -> None:
        """Book one served piece; the job completes with its last."""
        job.shard_results[shard.index] = results
        job.shard_finish[shard.index] = finish
        job.service_beats += beats
        job.pending -= 1
        if not job.pending:
            self._finalize(job)

    def _finalize(self, job: MatchJob) -> None:
        """Complete a job: merge its shards, finalize, label its mode."""
        if job.shards is not None:
            ordered = [job.shard_results[s.index] for s in job.shards]
            results = merge_shard_values(
                job.shards, ordered, len(job.text), job.spec.incomplete
            )
        else:
            results = job.shard_results[0]
        results = job.spec.finalize(job.taps, job.orig_len, results)
        mode = "software" if job.via_fallback and not job.workers_used \
            else job.mode
        self._record(
            job, results, job.started_beat, max(job.shard_finish.values()),
            job.service_beats, mode, job.workers_used, job.attempts,
            job.via_fallback, job.timed_out,
        )

    def _degrade_remaining(self) -> None:
        """Every live worker is gone: drain all remaining work through
        the software fallback (availability over throughput)."""
        while self._retry or self.queues.depth():
            unit = self._retry.popleft() if self._retry else self.queues.pop()
            for job, shard in unit.pieces:
                self._serve_software(job, shard)

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
