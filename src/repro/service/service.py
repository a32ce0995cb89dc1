"""`MatcherService`: submit/drain over the device pool.

The farm is a discrete-event simulation on the beat clock: worker
service time comes from the 250 ns timing model and bus occupancy from
the host memory model.  Every device result comes from the workload's
one serving kernel, ``spec.batched`` (a solo job or shard is a batch of
one), or from the software fallback, so results equal the workload's
oracle however a job was routed, retried or sharded (property-tested
under fault injection in ``tests/test_workloads_service.py``).

Admission, the reply rule and the results snapshot are the
:class:`~repro.service.frontdoor.FrontDoor`'s, shared with the process
runtime; :class:`MatcherService` adds the synchronous ``drain`` and the
farm's telemetry.  :class:`FarmPool` is the farm's transport behind the
pool contract: the bounded queues (its backpressure gate), the retry
deque, worker choice, the split of a wide solo job into one-piece shard
units at first dispatch, launch under one fault sample with deadline
shed, the shared bus, the in-flight heap and worker settlement.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from ..errors import ServiceError
from ..host.bus import HostSpec
from ..workloads.registry import to_list
from .cache import ResultCache, result_cache_key
from .frontdoor import FrontDoor, Job, Trace, Unit
from .pool import DevicePool, PoolWorker, WorkerState
from .reliability import FaultInjector, FaultKind, SoftwareFallback
from .scheduler import BeatClock, JobQueues, Priority, SchedulerConfig, SharedBus
from .sharding import (
    ShardMode,
    merge_shard_results,  # noqa: F401 -- perfbench's tracer wraps it by name
    merge_shard_values,
    plan_shards,
)
from .telemetry import ServiceTelemetry

#: The farm's name for an admitted job (the front door's record).
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


class MatcherService(FrontDoor):
    """The multi-tenant matcher farm (the public API of the subsystem).

    Every job, whatever its workload, takes one path: the
    :class:`~repro.workloads.WorkloadSpec` parses and prepares its taps,
    a :class:`~repro.service.pool.PoolWorker` runs the spec's kernel in
    one device call, ``run_kernel_batch``, or
    :class:`~repro.service.reliability.SoftwareFallback` serves it; text
    shards merge with the spec's ``incomplete`` value, and the spec
    finalizes.  A worker that dies stays out of dispatch until a
    :class:`~repro.service.health.FleetHealth` sweep heals it: the
    service runs no health loop of its own.

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
        self.pool, self.alphabet, self.obs = pool, pool.alphabet, obs
        self.config = config or SchedulerConfig()
        self.host = host or HostSpec()
        self.faults = faults or FaultInjector()
        self.fallback = SoftwareFallback(self.host)
        self.telemetry = ServiceTelemetry(
            registry=obs.registry if obs is not None else None
        )
        if obs is not None:
            self.faults.attach_obs(obs)
        # Optional cross-tenant result cache; its TTL is in beats.
        self.cache = cache
        farm = FarmPool(pool, self.config, self.host, self.faults, obs,
                        self.telemetry)
        self.beat_ns = farm.beat_ns
        # The key and the merge are looked up per call: a wrapper
        # installed on this module's names is the one that runs.
        super().__init__(
            farm, self.telemetry, _TRACE,
            lambda plen, n, start: self.fallback.beats(plen, n, self.beat_ns),
            lambda *args, **kw: result_cache_key(*args, **kw),
            lambda *args: merge_shard_values(*args),
        )
        self._last_finish = 0.0  # running max of finished_beat

    def submit(
        self,
        pattern,
        text: Sequence,
        tenant: str = "default",
        priority: Priority = Priority.BATCH,
        workload: str = "match",
        timeout: Optional[float] = None,
    ) -> int:
        """Admit one query; returns its job id.  ``submit(x)`` is
        ``submit_many([x])``: the same checks, route and errors.

        *pattern* holds the parameters of any workload registered in
        :mod:`repro.workloads`, *text* its character text or sample
        stream.  *timeout* (beats) is the job's SLO: a launch whose
        projected finish would land past it is not committed to a
        worker; that piece is served from software instead and the
        result is flagged ``timed_out`` (and still oracle-identical).
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

        The routes are :meth:`FrontDoor._admit`'s; a device route
        reports ``direct``, ``multipass`` or ``text-sharded``.  Each
        solo job and each batch plan is one entry of the bounded
        queues: an entry that overflows is served from software with
        ``degrade_when_saturated``; otherwise it and every entry after
        it are rolled back and :class:`BackpressureError` is raised
        (already-admitted jobs stay admitted).
        """
        return self._admit(
            self._request(pattern, texts, priority, workload, timeout), tenant
        )

    def drain(self) -> List[JobResult]:
        """Run the farm until every admitted job has completed; returns
        a fresh list of all results so far, in job-id order.

        Besides running the jobs, the cost is work proportional to the
        completions since the last call plus one C-level list copy."""
        self.transport.run()
        self._sync_telemetry()
        return self.results()

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
        t, farm = self.telemetry, self.transport
        t.queue_high_water = dict(farm.queues.high_water)
        t.bus_busy_beats = farm.bus.busy_beats
        t.bus_chars_moved = farm.bus.chars_moved
        t.makespan_beats = max(farm.clock.now, self._last_finish)

    def report(self) -> str:
        """The telemetry tables (render after a drain)."""
        self._sync_telemetry()
        return self.telemetry.render()


class FarmPool:
    """The farm's transport behind the front door's pool contract.

    ``submit`` queues a unit in the bounded :class:`JobQueues` (whose
    :class:`~repro.errors.BackpressureError` is the farm's gate) or, on
    a relaunch, at the back of the retry deque.  ``run`` fills idle
    workers (retries first), advances the :class:`BeatClock` to the
    next finish on the in-flight heap, settles the worker and reports
    the unit's reply to the front door, until nothing is queued or in
    flight.  ``now`` is the beat clock.
    """

    def __init__(
        self, devices: DevicePool, config: SchedulerConfig, host: HostSpec,
        faults: FaultInjector, obs, telemetry: ServiceTelemetry,
    ):
        self.devices, self.config, self.faults = devices, config, faults
        self.obs, self.telemetry = obs, telemetry
        self.wide_threshold = config.wide_text_threshold
        self.beat_ns = devices.workers[0].beat_ns
        self.clock = BeatClock()
        self.queues = JobQueues(config)
        self.bus = SharedBus(host, self.beat_ns, obs=obs)
        self.door: Optional[FrontDoor] = None
        self._seq = 0
        self._inflight: List[Tuple[float, int, Unit]] = []
        self._retry: Deque[Unit] = deque()
        for w in devices:
            stats = telemetry.worker_stats(w.name, w.capacity)
            stats.died = not w.is_live

    def now(self) -> float:
        return self.clock.now

    @property
    def n_live(self) -> int:
        return self.devices.n_live

    def saturated(self, open_jobs: int) -> bool:
        return False  # the farm's gate is its bounded queues

    def submit(self, unit: Unit) -> None:
        if unit.attempts:  # a relaunch takes the next idle worker
            self._retry.append(unit)
            return
        self.queues.put(unit.priority, unit.pieces[0][0].tenant, unit)
        self._note_queue_depth(unit.priority)

    def _note_queue_depth(self, priority: Priority) -> None:
        if self.obs is not None:
            self.obs.tracer.event(
                "queue.depth", t=self.clock.now, unit="beats",
                priority=priority.name,
                depth=self.queues.depth(priority),
            )

    def run(self) -> None:
        """Run until nothing is queued or in flight."""
        while self.queues.depth() or self._retry or self._inflight:
            self._assign_all()
            if not self._inflight:
                if self.devices.n_live == 0:
                    # Every live worker is gone: serve all remaining work
                    # from software (availability over throughput).
                    while self._retry or self.queues.depth():
                        unit = self._retry.popleft() if self._retry \
                            else self.queues.pop()
                        self.door.degrade(unit.pieces, self.clock.now,
                                          reason="no-live-worker")
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

    # -- assignment --------------------------------------------------------

    def _assign_all(self) -> None:
        """Fill idle workers: retries first, then the queues."""
        while True:
            idle = self.devices.idle_workers()
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
                self.door.expire(
                    (job, shard), now, shard=shard.index, batch=unit.batched,
                    projected_finish=finish, deadline=job.deadline,
                )
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
            return True
        stats.executions += 1
        worker.state = WorkerState.IDLE
        if fault is not None and fault.kind is FaultKind.STUCK_BEATS:
            stats.stuck_events += 1
            self.telemetry.stuck_events += 1
        return False

    def _complete(self, unit: Unit) -> None:
        """A unit's execution finished: a death is reported as a failed
        reply; otherwise one device call, the worker's batched kernel,
        yields every piece's row.  A batch member's cost is its own
        device share: what its own run would have cost on the worker."""
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
            self.door.reply(unit, self.clock.now, died=True)
            return
        rows = worker.run_kernel_batch(
            job.spec, job.taps, [s.feed(j.text) for j, s in unit.pieces],
            obs=self.obs, parent=span, t0=unit.start, t1=unit.finish,
        )
        plen = unit.window_len
        costs = [worker.service_beats(plen, s.n_fed) for _, s in unit.pieces] \
            if unit.batched else [unit.finish - unit.start]
        self.door.reply(unit, unit.finish, rows, worker.name, costs)
