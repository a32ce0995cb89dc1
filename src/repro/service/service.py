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
from .cache import ResultCache, canonical_params, result_cache_key
from .completion import CompletionLog
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
from ..workloads.registry import WorkloadSpec, get_workload


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
    #: validated input.  None until the admission path computes it.
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
    """One shard running on one worker (or dying on it)."""

    seq: int
    state: _JobState
    shard: TextShard
    worker: PoolWorker
    start_beat: float
    finish_beat: float
    fault: Optional[object]


@dataclass
class _BatchJob:
    """A coalesced batch plan: many compatible jobs, one queue entry.

    All members share one workload, prepared tap vector, tenant, and
    priority (the ``submit_many`` contract), and every member's text is
    *unique* -- duplicates were already peeled off as followers of their
    representative.  The batch occupies one worker for the sum of its
    members' service beats and is retried, shed, or degraded as a unit
    (per-member deadlines are still honoured individually at launch)."""

    jobs: List[MatchJob]
    tenant: str
    priority: Priority

    @property
    def window_len(self) -> int:
        return self.jobs[0].window_len


def _members(unit) -> List[MatchJob]:
    """The jobs one queue entry carries: a singleton job or a batch."""
    return unit.jobs if isinstance(unit, _BatchJob) else [unit]


@dataclass
class _BatchState:
    """In-flight bookkeeping for one batch plan."""

    batch: _BatchJob
    jobs: List[MatchJob]  # members still owed a device execution
    started_beat: Optional[float] = None
    attempts: int = 0  # failed batch executions (drives the retry policy)


@dataclass(frozen=True)
class _BatchExecution:
    """One whole batch running on one worker (or dying on it)."""

    seq: int
    state: _BatchState
    worker: PoolWorker
    start_beat: float
    finish_beat: float
    fault: Optional[object]


class MatcherService:
    """The multi-tenant matcher farm (the public API of the subsystem).

    Every job, whatever its workload, takes one path: the
    :class:`~repro.workloads.WorkloadSpec` parses and prepares its taps,
    a :class:`~repro.service.pool.PoolWorker` runs the spec's kernel
    (``run_kernel`` or ``run_kernel_batch``) or
    :class:`~repro.service.reliability.SoftwareFallback` serves it, text
    shards merge with the spec's ``incomplete`` value, and the spec
    finalizes.  ``submit`` and ``submit_many`` share one admission step.

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
        self._retry_batches: Deque[_BatchState] = deque()
        self._followers: Dict[int, List[MatchJob]] = {}
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
        if timeout is not None and timeout <= 0:
            raise ServiceError("timeout must be a positive number of beats")
        spec = get_workload(workload)
        taps = spec.parse_params(pattern, self.pool.alphabet)
        job, done = self._admit(
            spec, taps, None, self._prepare(spec, taps, text), tenant,
            priority, timeout, keyed=self.cache is not None,
        )
        if not done:
            self._enqueue([job], priority, tenant)
        return job.job_id

    def _prepare(
        self, spec: WorkloadSpec, taps: list, text: Sequence
    ) -> Tuple[list, list, list]:
        """Validate and prepare one input: ``(validated, ktaps, feed)``.
        Raises on bad input before anything is admitted."""
        validated = spec.validate_stream(text, self.pool.alphabet)
        ktaps, feed = spec.prepare(taps, validated)
        return validated, ktaps, feed

    def _admit(
        self, spec: WorkloadSpec, taps: list, params,
        prepared: Tuple[list, list, list], tenant: str, priority: Priority,
        timeout: Optional[float], keyed: bool,
    ) -> Tuple[MatchJob, bool]:
        """Admit one job up to its route: build it, open its span,
        complete empty input, and (when *keyed*) compute its cache key
        and serve a cache hit.  Returns the job and whether it is done.

        *taps* are the parsed (pre-``prepare``) parameters, *params*
        their :func:`canonical_params` form (or None to derive it), and
        *prepared* the input as :meth:`_prepare` returns it."""
        validated, ktaps, feed = prepared
        now = self.clock.now
        job = MatchJob(
            job_id=self._next_id,
            tenant=tenant,
            priority=priority,
            spec=spec,
            taps=ktaps,
            text=feed,
            orig_len=len(validated),
            submitted_beat=now,
        )
        if timeout is not None:
            job.deadline = now + timeout
        self._next_id += 1
        self.telemetry.submitted += 1
        if self.obs is not None:
            # Jobs overlap in simulated time, so their spans cannot nest on
            # the tracer stack: open/close explicitly, keyed off the job.
            job.span = self.obs.tracer.open_span(
                "service.job", t0=now, unit="beats",
                job_id=job.job_id, tenant=tenant, priority=priority.name,
                workload=spec.name,
            )
        if not validated:
            self._complete_empty(job)
            return job, True
        if keyed:
            job.cache_key = result_cache_key(
                spec.name, taps, validated, spec.numeric, params=params
            )
        if self.cache is not None:
            hit = self.cache.get(job.cache_key, tenant=tenant, now=now)
            if hit is not None:
                self._complete_cached(job, hit)
                return job, True
        return job, False

    def _enqueue(
        self, units: Sequence[object], priority: Priority, tenant: str
    ) -> None:
        """Queue singleton jobs and batch plans in order.  On backpressure
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

    def submit_many(
        self,
        pattern,
        texts: Sequence[Sequence],
        tenant: str = "default",
        priority: Priority = Priority.BATCH,
        workload: str = "match",
        timeout: Optional[float] = None,
    ) -> List[int]:
        """Admit one job per text in *texts*, coalesced into batch plans.

        The batched front door for query chunks.  The pattern (or tap
        vector) is parsed **once**; each text then takes the cheapest
        route that still yields an oracle-identical result:

        * empty texts complete immediately;
        * texts whose canonical result is already in the
          :class:`~repro.service.cache.ResultCache` complete from it
          (``mode="cached"``);
        * duplicate texts build **one** plan per *unique* text -- the
          first occurrence is the representative, later ones are
          followers that share its execution and results
          (``mode="deduped"``);
        * wide texts (``>= wide_text_threshold``) keep their own
          shard/merge plans, exactly like :meth:`submit`;
        * everything else is coalesced into :class:`_BatchJob` plans of
          at most ``config.max_batch_jobs`` members, each dispatched to
          a worker as a single batched execution (``mode="batched"``).

        Backpressure applies per queue entry (one batch plan is one
        entry): with ``degrade_when_saturated`` the overflowing plan is
        served by the software baseline; otherwise the overflowing plan
        and every not-yet-admitted job after it is rejected and
        :class:`BackpressureError` raised (already-admitted jobs stay
        admitted).
        """
        if timeout is not None and timeout <= 0:
            raise ServiceError("timeout must be a positive number of beats")
        spec = get_workload(workload)
        taps = spec.parse_params(pattern, self.pool.alphabet)
        params = canonical_params(taps)
        job_ids: List[int] = []
        reps: Dict[tuple, MatchJob] = {}
        batchable: List[MatchJob] = []
        units: List[object] = []  # wide-text singleton jobs + batch plans
        # Every text is validated before any is admitted: a bad text
        # later in the list must not strand the ones before it.
        inputs = [self._prepare(spec, taps, text) for text in texts]
        for prepared in inputs:
            job, done = self._admit(
                spec, taps, params, prepared, tenant, priority, timeout,
                keyed=True,
            )
            job_ids.append(job.job_id)
            if done:
                continue
            rep = reps.get(job.cache_key)
            if rep is not None:
                # One plan per unique text: this job shares the
                # representative's execution and fans out at completion.
                self.telemetry.deduped += 1
                self._followers.setdefault(rep.job_id, []).append(job)
                continue
            reps[job.cache_key] = job
            if len(job.text) >= self.config.wide_text_threshold:
                units.append(job)  # its own shard/merge plan
            else:
                batchable.append(job)
        step = self.config.max_batch_jobs
        for i in range(0, len(batchable), step):
            units.append(_BatchJob(
                jobs=batchable[i : i + step],
                tenant=tenant,
                priority=priority,
            ))
        self._enqueue(units, priority, tenant)
        return job_ids

    def _reject(self, job: MatchJob) -> None:
        """Roll one not-admitted job (and its followers) back out."""
        self.telemetry.submitted -= 1
        if job.span is not None:
            self.obs.tracer.close(job.span, t1=self.clock.now, rejected=True)
            job.span = None
        for follower in self._followers.pop(job.job_id, []):
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
            if isinstance(execution, _BatchExecution):
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
                bstate = self._retry_batches.popleft()
                worker = self._choose_worker(idle, bstate.batch.window_len)
                self._launch_batch(bstate, worker)
                continue
            unit = self.queues.pop()
            if unit is None:
                return
            if isinstance(unit, _BatchJob):
                self._start_batch(unit)
            else:
                self._start_job(unit)

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
        self._note_queue_depth(job.priority)
        idle = self.pool.idle_workers()
        plen, tlen = job.window_len, len(job.text)
        fitting = sorted(
            (w for w in idle if w.fits(plen)), key=lambda w: (w.capacity, w.name)
        )
        if tlen >= self.config.wide_text_threshold and len(fitting) >= 2:
            plan = plan_shards(
                plen,
                tlen,
                len(fitting),
                self.config.max_shards,
                self.config.min_shard_chars,
                obs=self.obs,
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

    def _launch(
        self, state: _JobState, shard: TextShard, worker: PoolWorker
    ) -> None:
        now = self.clock.now
        plen = state.job.window_len
        n_fed = shard.n_fed
        service = worker.service_beats(plen, n_fed)
        chars = worker.transfer_chars(plen, n_fed)
        fault = self.faults.sample()
        if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
            # The stream dies partway through; beats and bus time up to
            # the failure point are burned, nothing useful comes back.
            burned = max(1.0, fault.at_fraction * service)
            bus_chars = int(chars * fault.at_fraction)
            finish = now + burned
        else:
            extra = fault.extra_beats if fault is not None else 0
            bus_chars = chars
            finish = max(now + service + extra, self.bus.eta(chars, now))
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
        if state.started_beat is None:
            state.started_beat = now
        worker.state = WorkerState.BUSY
        self.bus.reserve(bus_chars, now)
        self._seq += 1
        execution = _Execution(
            self._seq, state, shard, worker, now, finish, fault
        )
        heapq.heappush(self._inflight, (finish, self._seq, execution))

    # -- completion --------------------------------------------------------

    def _complete_execution(self, execution: _Execution) -> None:
        state, shard, worker = execution.state, execution.shard, execution.worker
        job = state.job
        stats = self.telemetry.worker_stats(worker.name, worker.capacity)
        stats.executions += 1
        stats.record_busy(execution.start_beat, execution.finish_beat)
        fault = execution.fault
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
        if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
            worker.state = WorkerState.DEAD
            stats.died = True
            self.telemetry.deaths += 1
            job.attempts += 1
            if self.retry.should_retry(job.attempts) and self.pool.n_live > 0:
                self.telemetry.retries += 1
                self._retry_ready.append((state, shard))
            else:
                self._shard_software(state, shard)
            return
        worker.state = WorkerState.IDLE
        if fault is not None and fault.kind is FaultKind.STUCK_BEATS:
            stats.stuck_events += 1
            self.telemetry.stuck_events += 1
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
            JobResult(
                job_id=job.job_id,
                tenant=job.tenant,
                priority=job.priority,
                results=results,
                submitted_beat=job.submitted_beat,
                started_beat=started,
                finished_beat=finished,
                wait_beats=started - job.submitted_beat,
                service_beats=state.service_beats,
                mode=mode,
                workers=tuple(state.workers_used),
                attempts=job.attempts,
                via_fallback=state.via_fallback,
                workload=job.workload,
                timed_out=state.timed_out,
            ),
            job,
        )

    def _complete_empty(self, job: MatchJob) -> None:
        now = self.clock.now
        self._record(
            JobResult(
                job_id=job.job_id,
                tenant=job.tenant,
                priority=job.priority,
                results=[],
                submitted_beat=now,
                started_beat=now,
                finished_beat=now,
                wait_beats=0.0,
                service_beats=0.0,
                mode=ShardMode.DIRECT.value,
                workers=(),
                attempts=0,
                via_fallback=False,
                workload=job.workload,
            ),
            job,
        )

    def _complete_cached(self, job: MatchJob, results: List) -> None:
        """Cache hit: the canonical answer is already known -- no queue,
        no worker, no bus, zero service beats."""
        now = self.clock.now
        self._record(
            JobResult(
                job_id=job.job_id,
                tenant=job.tenant,
                priority=job.priority,
                results=results,
                submitted_beat=job.submitted_beat,
                started_beat=now,
                finished_beat=now,
                wait_beats=0.0,
                service_beats=0.0,
                mode="cached",
                workers=(),
                attempts=0,
                via_fallback=False,
                workload=job.workload,
            ),
            job,
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
            JobResult(
                job_id=job.job_id,
                tenant=job.tenant,
                priority=job.priority,
                results=results,
                submitted_beat=job.submitted_beat,
                started_beat=now,
                finished_beat=now + beats,
                wait_beats=now - job.submitted_beat,
                service_beats=beats,
                mode="software",
                workers=(),
                attempts=job.attempts,
                via_fallback=True,
                workload=job.workload,
                timed_out=timed_out,
            ),
            job,
        )

    # -- batch plans -------------------------------------------------------

    def _start_batch(self, batch: _BatchJob) -> None:
        self._note_queue_depth(batch.priority)
        state = _BatchState(batch, jobs=list(batch.jobs))
        worker = self._choose_worker(
            self.pool.idle_workers(), batch.window_len
        )
        self._launch_batch(state, worker)

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

    def _launch_batch(self, state: _BatchState, worker: PoolWorker) -> None:
        now = self.clock.now

        def project(jobs):
            service, chars = self._batch_demand(jobs, worker)
            if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
                burned = max(1.0, fault.at_fraction * service)
                return now + burned, int(chars * fault.at_fraction)
            extra = fault.extra_beats if fault is not None else 0
            return max(now + service + extra, self.bus.eta(chars, now)), chars

        # One fault sample per batch execution: the whole batch lives or
        # dies with the worker it lands on.
        fault = self.faults.sample()
        finish, bus_chars = project(state.jobs)
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
            finish, bus_chars = project(state.jobs)
        if state.started_beat is None:
            state.started_beat = now
        worker.state = WorkerState.BUSY
        self.bus.reserve(bus_chars, now)
        self._seq += 1
        execution = _BatchExecution(
            self._seq, state, worker, now, finish, fault
        )
        heapq.heappush(self._inflight, (finish, self._seq, execution))

    def _complete_batch(self, execution: _BatchExecution) -> None:
        state, worker = execution.state, execution.worker
        batch = state.batch
        stats = self.telemetry.worker_stats(worker.name, worker.capacity)
        stats.executions += 1
        stats.record_busy(execution.start_beat, execution.finish_beat)
        fault = execution.fault
        batch_span = None
        if self.obs is not None:
            batch_span = self.obs.tracer.record(
                "service.batch",
                t0=execution.start_beat, t1=execution.finish_beat,
                unit="beats", worker=worker.name, jobs=len(state.jobs),
                workload=batch.jobs[0].workload, attempt=state.attempts,
                fault=fault.kind.value if fault is not None else None,
            )
        if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
            worker.state = WorkerState.DEAD
            stats.died = True
            self.telemetry.deaths += 1
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
        worker.state = WorkerState.IDLE
        if fault is not None and fault.kind is FaultKind.STUCK_BEATS:
            stats.stuck_events += 1
            self.telemetry.stuck_events += 1
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
        plen = batch.window_len
        for job, merged in zip(jobs, results_many):
            results = job.spec.finalize(job.taps, job.orig_len, merged)
            self.telemetry.batched_jobs += 1
            self._record(
                JobResult(
                    job_id=job.job_id,
                    tenant=job.tenant,
                    priority=job.priority,
                    results=results,
                    submitted_beat=job.submitted_beat,
                    started_beat=started,
                    finished_beat=execution.finish_beat,
                    wait_beats=started - job.submitted_beat,
                    # The member's share of the batch: what its own
                    # device run would have cost on this worker.
                    service_beats=worker.service_beats(plen, len(job.text)),
                    mode="batched",
                    workers=(worker.name,),
                    attempts=job.attempts,
                    via_fallback=False,
                    workload=job.workload,
                ),
                job,
            )

    def _degrade_remaining(self) -> None:
        """Every live worker is gone: drain all remaining work through
        the software fallback (availability over throughput)."""
        while self._retry_ready:
            state, shard = self._retry_ready.popleft()
            self._shard_software(state, shard)
        while self._retry_batches:
            bstate = self._retry_batches.popleft()
            for job in bstate.jobs:
                self._complete_member_software(job)
        while True:
            unit = self.queues.pop()
            if unit is None:
                break
            for job in _members(unit):
                self._complete_member_software(job)

    # -- accounting --------------------------------------------------------

    def _record(self, result: JobResult, job: MatchJob) -> None:
        self._completed.add(result)
        self._last_finish = max(self._last_finish, result.finished_beat)
        self.telemetry.completed += 1
        self.telemetry.text_chars_served += len(result.results)
        self.telemetry.record_job(
            result.priority, result.wait_beats, result.service_beats
        )
        self.telemetry.record_workload(result.workload, len(result.results))
        if job.span is not None:
            self.obs.tracer.close(
                job.span, t1=result.finished_beat,
                mode=result.mode, workers=list(result.workers),
                attempts=result.attempts, via_fallback=result.via_fallback,
                timed_out=result.timed_out,
                wait_beats=result.wait_beats,
                service_beats=result.service_beats,
            )
            job.span = None
        if (
            self.cache is not None and job.cache_key is not None
            and result.mode not in ("cached", "deduped")
        ):
            self.cache.put(
                job.cache_key, result.results, now=result.finished_beat
            )
        # Fan results out to any deduplicated followers of this job:
        # they share the execution (and its faults, retries, timeouts)
        # but keep their own identity and latency accounting.
        for follower in self._followers.pop(result.job_id, []):
            self._record(
                JobResult(
                    job_id=follower.job_id,
                    tenant=follower.tenant,
                    priority=follower.priority,
                    results=list(result.results),
                    submitted_beat=follower.submitted_beat,
                    started_beat=result.started_beat,
                    finished_beat=result.finished_beat,
                    wait_beats=result.started_beat - follower.submitted_beat,
                    service_beats=0.0,
                    mode="deduped",
                    workers=result.workers,
                    attempts=0,
                    via_fallback=result.via_fallback,
                    workload=follower.workload,
                    timed_out=result.timed_out,
                ),
                follower,
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
