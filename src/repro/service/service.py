"""`MatcherService`: submit/drain over the device pool.

The service is a discrete-event simulation driven by the beat clock.
``submit`` admits jobs through the bounded priority queues (backpressure
applies); ``drain`` runs the farm to completion: assign queued work to
idle workers, advance the clock to the next completion, handle faults,
repeat.  Every execution is beat-accounted (worker service time from the
250 ns timing model, bus occupancy from the host memory model), and every
device result comes from the workload's one serving kernel,
``spec.batched`` (a solo job or shard is a batch of one), or from the
software fallback -- so service output is bit-identical to
:func:`repro.core.reference.match_oracle` no matter how the job was
routed, retried, or sharded.

Jobs, units, admission after the planner, the retry rule, software
service and completion are the sans-I/O
:class:`~repro.service.core.ServiceCore`'s, shared with the process
runtime; this module is its beat-clock transport.  It keeps the
bounded queues, worker choice, the split of a wide solo job into
one-piece shard units at first dispatch, launch under one fault sample
(pieces whose deadline the projected finish would blow are shed to
software first), the shared bus and worker settlement.

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
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from ..errors import BackpressureError, ServiceError
from ..host.bus import HostSpec
from ..workloads.registry import to_list
from .cache import ResultCache, result_cache_key
from .core import Job, ServiceCore, Trace, Unit
from .plan import parse_request, plan as plan_routes
from .pool import DevicePool, PoolWorker, WorkerState
from .reliability import FaultInjector, FaultKind, RetryPolicy, SoftwareFallback
from .scheduler import BeatClock, JobQueues, Priority, SchedulerConfig, SharedBus
from .sharding import (
    ShardMode,
    merge_shard_results,  # noqa: F401 -- perfbench's tracer wraps it by name
    merge_shard_values,
    plan_shards,
)
from .telemetry import ServiceTelemetry

#: The farm's name for an admitted job (the core's record).
MatchJob = Job

_TRACE = Trace(
    "beats", "service.job", "service.software_fallback", "job.timeout",
    ("mode", "workers", "attempts", "via_fallback", "timed_out",
     "wait_beats", "service_beats"),
)


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


class MatcherService:
    """The multi-tenant matcher farm (the public API of the subsystem).

    Every job, whatever its workload, takes one path: the
    :class:`~repro.workloads.WorkloadSpec` parses and prepares its taps,
    a :class:`~repro.service.pool.PoolWorker` runs the spec's kernel in
    one device call, ``run_kernel_batch`` (a solo job or text shard is a
    batch of one), or :class:`~repro.service.reliability.SoftwareFallback`
    serves it; text shards merge with the spec's ``incomplete`` value,
    and the spec finalizes.  ``submit(x)`` is ``submit_many([x])``, and
    every stream is routed by the one planner both front doors share
    (:func:`repro.service.plan.plan`).  Solo jobs, text shards and batch
    plans are one kind of in-flight unit, launched, retried, shed and
    degraded by one path, whose bookkeeping is the
    :class:`~repro.service.core.ServiceCore` the runtime shares.

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
        self.core = ServiceCore(
            self.telemetry, self.retry, self.fallback, cache, obs, _TRACE,
            self._publish,
            lambda plen, n, start: self.fallback.beats(plen, n, self.beat_ns),
            # Looked up per call: a wrapper installed on this module's
            # merge_shard_values is the one that runs.
            lambda *args: merge_shard_values(*args),
        )
        self._seq = 0
        self._inflight: List[Tuple[float, int, Unit]] = []
        self._retry: Deque[Unit] = deque()
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
        now = self.clock.now
        routes, solos, batches = plan_routes(
            req.spec, req.taps, req.streams, self.cache, now,
            self.config.max_batch_jobs, result_cache_key,
            wide_threshold=self.config.wide_text_threshold, tenant=tenant,
        )
        deadline = None if req.timeout is None else now + req.timeout
        jobs: List[Job] = []
        for prepared, route in zip(req.streams, routes):
            self.core.admit(jobs, req, prepared, route, tenant, now, deadline)
        self._enqueue(self.core.units(jobs, solos, batches, req.priority),
                      tenant)
        return [job.job_id for job in jobs]

    def _enqueue(self, units: Sequence[Unit], tenant: str) -> None:
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
                    self.core.degrade(unit.pieces, self.clock.now)
                    continue
                for late in units[i:]:
                    for job, _ in late.pieces:
                        self.core.reject(job, self.clock.now)
                raise
            self._note_queue_depth(unit.priority)
            self.core.queued(unit)

    def _note_queue_depth(self, priority: Priority) -> None:
        if self.obs is not None:
            self.obs.tracer.event(
                "queue.depth", t=self.clock.now, unit="beats",
                priority=priority.name,
                depth=self.queues.depth(priority),
            )

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
                    # Every live worker is gone: serve all remaining work
                    # from software (availability over throughput).
                    while self._retry or self.queues.depth():
                        unit = self._retry.popleft() if self._retry \
                            else self.queues.pop()
                        self.core.degrade(unit.pieces, self.clock.now)
                    continue
                if not self.queues.depth() and not self._retry:
                    # Everything was served inline (deadline timeouts /
                    # saturation degrades) without touching a worker.
                    continue
                raise ServiceError(
                    "scheduler stalled with live workers and queued jobs"
                )
            _, _, unit = heapq.heappop(self._inflight)
            self.clock.advance_to(unit.finish)
            self._complete(unit)
        self._sync_telemetry()
        return self.core.log.snapshot()

    def results(self) -> List[JobResult]:
        """Completed results so far (without draining), as a fresh list
        in job-id order; costs work proportional to the completions since
        the last call plus one C-level list copy."""
        return self.core.log.snapshot()

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

    def _dispatch(self, unit: Unit, idle: Sequence[PoolWorker]) -> None:
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
                    self._launch(Unit([(job, shard)], unit.priority), worker)
                return
        worker = self._choose_worker(idle, plen)
        job.mode = (
            ShardMode.DIRECT if worker.fits(plen) else ShardMode.MULTIPASS
        ).value
        self._launch(unit, worker)

    def _project(
        self, fault, unit: Unit, worker: PoolWorker, now: float
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

    def _launch(self, unit: Unit, worker: PoolWorker) -> None:
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
                self.core.time_out(
                    job, now, shard=shard.index, batch=unit.batched,
                    projected_finish=finish, deadline=job.deadline,
                )
                self.core.degrade([(job, shard)], now)
            unit.pieces = [p for p in unit.pieces if not blown(p)]
            if not unit.pieces:
                return
            finish, bus_chars = self._project(fault, unit, worker, now)
        for job, _ in unit.pieces:
            if job.started is None:
                job.started = now
        worker.state = WorkerState.BUSY
        self.bus.reserve(bus_chars, now)
        unit.worker, unit.fault = worker, fault
        unit.start, unit.finish = now, finish
        self._seq += 1
        heapq.heappush(self._inflight, (finish, self._seq, unit))

    # -- completion --------------------------------------------------------

    def _settle_worker(self, unit: Unit) -> bool:
        """Book one finished unit against its worker; True when the
        worker died in it (it is then DEAD, else IDLE again).  Busy
        beats count either way, but only a unit that reaches its device
        call counts as an execution: the same count as the trace's
        ``worker.kernel`` spans, which is what replay reports."""
        worker, fault = unit.worker, unit.fault
        stats = self.telemetry.worker_stats(worker.name, worker.capacity)
        stats.record_busy(unit.start, unit.finish)
        if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
            worker.state = WorkerState.DEAD
            stats.died = True
            self.telemetry.deaths += 1
            return True
        stats.executions += 1
        worker.state = WorkerState.IDLE
        if fault is not None and fault.kind is FaultKind.STUCK_BEATS:
            stats.stuck_events += 1
            self.telemetry.stuck_events += 1
        return False

    def _complete(self, unit: Unit) -> None:
        """A unit's execution finished.  On a worker death the core's
        failure rule retries it whole or serves its pieces from
        software; otherwise one device call, the worker's batched
        kernel, yields every piece's results."""
        worker, fault = unit.worker, unit.fault
        died = self._settle_worker(unit)
        job, shard = unit.pieces[0]
        span = None
        if self.obs is not None:
            span = self.obs.tracer.record(
                "service.execution", t0=unit.start, t1=unit.finish,
                unit="beats", parent=None if unit.batched else job.span,
                job_ids=[j.job_id for j, _ in unit.pieces],
                shard=shard.index, worker=worker.name, attempt=unit.attempts,
                fault=fault.kind.value if fault is not None else None,
            )
        if died:
            if self.core.failed(unit, self.pool.n_live, self.clock.now):
                self._retry.append(unit)
            return
        rows = worker.run_kernel_batch(
            job.spec, job.taps, [s.feed(j.text) for j, s in unit.pieces],
            obs=self.obs, parent=span, t0=unit.start, t1=unit.finish,
        )
        plen = unit.window_len
        for (job, shard), results in zip(unit.pieces, rows):
            # A batch member's service beats are its own device share:
            # what its own run would have cost on this worker.
            beats = worker.service_beats(plen, shard.n_fed) if unit.batched \
                else unit.finish - unit.start
            self.core.settle(
                job, shard, results, unit.finish, beats, worker.name
            )

    # -- accounting --------------------------------------------------------

    def _publish(self, job: Job) -> JobResult:
        """The finished job's result (its wait runs from submission to
        its start), booked into the farm's telemetry.  Its values take
        their public element types here, in one conversion."""
        results = to_list(job.results)
        started, finished = job.started, job.finished
        result = JobResult(
            job.job_id, job.tenant, job.priority, results, job.submitted,
            started, finished, started - job.submitted, job.service,
            job.mode, tuple(job.workers_used), job.attempts,
            job.via_fallback, job.workload, job.timed_out,
        )
        self._last_finish = max(self._last_finish, finished)
        self.telemetry.text_chars_served += len(results)
        self.telemetry.record_job(job.priority, result.wait_beats, job.service)
        self.telemetry.record_workload(job.workload, len(results))
        return result

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
