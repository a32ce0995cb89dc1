"""One front door over any pool: the job bookkeeping, free of I/O.

In the paper's Figure 1-1 system the host does the bookkeeping once and
the attached devices only stream.  Here the devices sit behind the
:class:`Pool` contract: submit a unit, report its reply, say how many
workers are live.  The beat-clock farm
(:class:`~repro.service.service.FarmPool`), the process runtime
(:class:`~repro.runtime.service.ProcessPool`) and a test's fake pool
keep it, and :class:`FrontDoor` is the bookkeeping over any of them:
the :class:`Job` and :class:`Unit` records, admission
(``parse_request`` -> ``plan`` -> one job per stream under the pool's
gate -> units -> pool), the reply rule with its one failure rule
(:meth:`FrontDoor.failed`), software service, settling and finalizing,
completion with the fan-out to deduped followers, and the ``results()``
snapshot that ``drain`` returns.  It reads no clock: each call takes
``now`` in the pool's unit (beats or seconds).  A surface adds only its
clock-bound parts: the farm runs its pool until idle, the runtime
awaits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple,
)

from ..errors import BackpressureError
from ..workloads.registry import WorkloadSpec
from .completion import CompletionLog
from .plan import (
    BATCH, CACHED, DEDUPED, INLINE, SOLO, Request, parse_request, plan,
)
from .scheduler import Priority
from .sharding import TextShard, merge_shard_values


@dataclass(eq=False)
class Job:
    """One admitted stream of any registered workload, with its state.

    ``taps`` is the *prepared* tap vector, ``text`` the prepared typed
    stream (codes or samples, padded for convolution/FIR) and
    ``orig_len`` the validated input length ``spec.finalize`` maps
    results back onto.  Times are in the front door's clock unit; the
    last three fields are set when the job completes: ``results`` holds
    the result array (a cache hit's list) until the front door
    publishes it, then the published list."""

    job_id: int
    tenant: str
    priority: Priority
    spec: WorkloadSpec
    taps: list
    text: Sequence
    orig_len: int
    submitted: float
    deadline: Optional[float] = None  # absolute; None = no SLO
    cache_key: Optional[tuple] = None  # cache identity and dedup key
    span: Optional[object] = None  # open job span (obs attached)
    attempts: int = 0  # failed executions of any unit carrying the job
    mode: Optional[str] = None  # device route fixed at first dispatch
    shards: Optional[List[TextShard]] = None  # set when text-sharded
    pending: int = 1  # pieces not yet served
    shard_results: Dict[int, Sequence] = field(default_factory=dict)
    shard_finish: Dict[int, float] = field(default_factory=dict)
    started: Optional[float] = None  # first commit, else software start
    service: float = 0.0
    workers_used: List[str] = field(default_factory=list)
    via_fallback: bool = False
    timed_out: bool = False
    done: bool = False
    results: Optional[Sequence] = None
    finished: Optional[float] = None

    @property
    def workload(self) -> str:
        return self.spec.name

    @property
    def window_len(self) -> int:
        """Cells the job needs: the sliding-window width."""
        return len(self.taps)

    def whole(self) -> Tuple["Job", TextShard]:
        """The piece covering the job's whole text."""
        return self, TextShard(0, 0, len(self.text) - 1, 0)


Piece = Tuple[Job, TextShard]


@dataclass(eq=False)
class Unit:
    """One device execution at a time: *pieces* of (job, text shard).

    A solo job is one whole-text piece (the farm may split it into
    one-piece shard units at first dispatch); a batch plan
    (``batched``) is the whole-text pieces of 2 or more jobs.  The unit
    is retried whole; ``attempts`` is its own retry budget, ``unit_id``
    its wire name, and the last four fields its execution in flight."""

    pieces: List[Piece]
    priority: Priority
    batched: bool = False
    attempts: int = 0
    unit_id: int = 0
    worker: Optional[object] = None
    start: float = 0.0
    finish: float = 0.0
    fault: Optional[object] = None

    @property
    def window_len(self) -> int:
        return self.pieces[0][0].window_len


class Trace(NamedTuple):
    """A front door's clock unit, the names of its job span,
    software-service span and deadline event, and the result fields its
    job span closes with."""

    unit: str
    job: str
    software: str
    timeout: str
    close: Tuple[str, ...]


class Pool(Protocol):
    """What a front door needs from the devices behind it.

    ``door`` is set by the front door; the pool answers each unit
    through ``door.reply``, and serves pieces from software itself
    through ``door.degrade`` (no live worker) and ``door.expire`` (a
    missed deadline: deadlines are the pool's to keep).  ``now()`` is
    its clock (beats or seconds); it shards a solo job from
    ``wide_threshold`` characters (None: never).  Its gates:
    ``saturated(open_jobs)``, checked per job, and ``submit`` raising
    :class:`~repro.errors.BackpressureError`, per unit.  A relaunch
    comes back through ``submit`` with ``attempts`` > 0.
    """

    door: "FrontDoor"
    wide_threshold: Optional[int]
    n_live: int

    def now(self) -> float: ...
    def saturated(self, open_jobs: int) -> bool: ...
    def submit(self, unit: Unit) -> None: ...


class FrontDoor:
    """Jobs, units, retries, degradation and completion over one
    :class:`Pool`, written once for every surface.

    A surface sets ``config`` (``max_retries``, ``max_batch_jobs``,
    ``degrade_when_saturated``), ``alphabet``, ``cache``, ``obs`` and
    ``fallback``, defines ``_publish(job)`` and passes the rest here:
    its pool; *counters* with integer ``submitted``, ``completed``,
    ``deduped``, ``batches``, ``batched_jobs``, ``retries``, ``deaths``,
    ``fallbacks``, ``timeouts`` and ``backpressure_hits`` attributes;
    its :class:`Trace`; *software_cost*, mapping (window, characters,
    start) to the duration of a software run that started at *start*
    (modelled host beats in the farm, measured seconds in the runtime);
    and its ``result_cache_key`` and shard merge, bound late so that a
    wrapper installed on the surface's module is the one called.
    ``_publish`` builds the public result of a finished :class:`Job`,
    converting ``job.results`` to the list its ``results`` attribute
    carries.
    """

    def __init__(
        self, transport: Pool, counters, trace: Trace,
        software_cost: Callable[[int, int, float], float],
        key: Callable[..., tuple], merge: Callable = merge_shard_values,
    ):
        self.transport, self.counters, self.trace = transport, counters, trace
        self.software_cost, self._key, self.merge = software_cost, key, merge
        self.log = CompletionLog()
        self.next_id = 0
        self.open = 0  # admitted jobs not yet completed (nor rejected)
        self._followers: Dict[int, List[Job]] = {}  # by representative id
        transport.door = self

    # -- admission ---------------------------------------------------------

    def _request(
        self, params, streams: Sequence[Sequence], priority: Priority,
        workload: str, timeout: Optional[float],
    ) -> Request:
        """Check and prepare a whole call: bad input raises a
        :class:`~repro.errors.ReproError` before any job is admitted."""
        return parse_request(
            workload, params, streams, self.alphabet, priority, timeout
        )

    def _admit(self, req: Request, tenant: str) -> List[int]:
        """Admit one job per stream of a checked call and hand the plan's
        units to the pool; returns the job ids in stream order.

        :func:`~repro.service.plan.plan` routes each stream (its module
        lists the routes).  A job that needs a worker while the pool is
        ``saturated`` is served from software after its followers
        joined or, without ``degrade_when_saturated``, rejected: its id
        stays unused, the jobs admitted before it run, and
        :class:`~repro.errors.BackpressureError` propagates."""
        now = self.transport.now()
        routes, solos, batches = plan(
            req.spec, req.taps, req.streams, self.cache, now,
            self.config.max_batch_jobs, self._key,
            wide_threshold=self.transport.wide_threshold, tenant=tenant,
        )
        deadline = None if req.timeout is None else now + req.timeout
        jobs: List[Job] = []
        shed: List[Job] = []
        for prepared, route in zip(req.streams, routes):
            saturated = route.kind in (SOLO, BATCH) and \
                self.transport.saturated(self.open)
            if saturated:
                self.counters.backpressure_hits += 1
                if not self.config.degrade_when_saturated:
                    self.next_id += 1
                    self._launch(jobs, shed, solos, batches, req.priority)
                    raise BackpressureError(
                        f"pending set full ({self.open} open jobs)"
                    )
            job = Job(
                self.next_id, tenant, req.priority, req.spec, prepared.taps,
                prepared.feed, len(prepared.validated), now, deadline,
                route.key,
            )
            self.next_id += 1
            self.open += 1
            self.counters.submitted += 1
            if self.obs is not None:
                # Jobs overlap in time, so their spans cannot nest on
                # the tracer stack: open/close explicitly, keyed off the
                # job.
                job.span = self.obs.tracer.open_span(
                    self.trace.job, t0=now, unit=self.trace.unit,
                    job_id=job.job_id, tenant=tenant,
                    priority=job.priority.name, workload=job.workload,
                )
            jobs.append(job)
            if route.kind == DEDUPED:
                self.counters.deduped += 1
                self._followers.setdefault(
                    jobs[route.rep].job_id, []).append(job)
            elif route.kind in INLINE:  # no queue, worker, wire or beats
                job.started = now
                self._complete(job, route.hit or [], now, route.kind)
                continue
            self._admitted(job)
            if saturated:
                shed.append(job)
        self._launch(jobs, shed, solos, batches, req.priority)
        return [job.job_id for job in jobs]

    def _admitted(self, job: Job) -> None:
        """An admitted job is still open; the async surface gives it a
        future here."""

    def _launch(
        self, jobs: List[Job], shed: List[Job], solos: List[int],
        batches: List[List[int]], priority: Priority,
    ) -> None:
        """Serve the shed jobs from software, then hand the plan's units
        (solos, then batch chunks, over the call's still-open jobs) to
        the pool in queue order; a batch plan counts once, when the pool
        takes it.  A unit the pool refuses is served from software with
        ``degrade_when_saturated``; otherwise it and every unit after it
        are rolled back and the error propagates."""
        now = self.transport.now()
        for job in shed:
            self.degrade([job.whole()], now, reason="saturated")
        units = []
        for chunk, batched in [([i], False) for i in solos] + \
                [(c, True) for c in batches]:
            pieces = [jobs[i].whole() for i in chunk
                      if i < len(jobs) and not jobs[i].done]
            if pieces:
                units.append(Unit(pieces, priority, batched))
        for i, unit in enumerate(units):
            try:
                self.transport.submit(unit)
            except BackpressureError:
                self.counters.backpressure_hits += 1
                if self.config.degrade_when_saturated:
                    self.degrade(unit.pieces, now, reason="saturated")
                    continue
                for late in units[i:]:
                    for job, _ in late.pieces:
                        self.reject(job, now)
                raise
            if unit.batched:
                self.counters.batches += 1
                self.counters.batched_jobs += len(unit.pieces)

    def reject(self, job: Job, now: float) -> None:
        """Roll a job that was not let in (and its followers) back out."""
        self.counters.submitted -= 1
        self.open -= 1
        if job.span is not None:
            self.obs.tracer.close(job.span, t1=now, rejected=True)
            job.span = None
        for follower in self._followers.pop(job.job_id, []):
            self.reject(follower, now)

    # -- the reply rule ----------------------------------------------------

    def reply(
        self, unit: Unit, now: float, rows: Optional[Sequence] = None,
        worker: Optional[str] = None, costs: Optional[Sequence] = None,
        died: bool = False,
    ) -> None:
        """The pool's answer for one execution of *unit*.  Without
        *rows* it failed (*died*: its worker died in it): the failure
        rule relaunches the unit whole on the pool or serves its open
        pieces from software.  Otherwise every still-open piece settles
        with its row and cost; a piece a deadline already served
        ignores its slice."""
        if rows is None:
            if died:
                self.counters.deaths += 1
            if self.failed(unit, self.transport.n_live, now,
                           reason="retries-exhausted"):
                self.transport.submit(unit)
            return
        for (job, shard), row, cost in zip(unit.pieces, rows, costs):
            if not job.done:
                self.settle(job, shard, row, now, cost, worker)

    def failed(self, unit: Unit, n_live: int, now: float, **attrs) -> bool:
        """*unit*'s execution failed: one more attempt on it and on every
        open job it carries.  True means relaunch it whole (its
        ``max_retries`` budget lasts and a worker is live); False that
        its open pieces were served from software (*attrs* go on their
        spans)."""
        unit.attempts += 1
        unit.pieces = [p for p in unit.pieces if not p[0].done]
        for job, _ in unit.pieces:
            job.attempts += 1
        if unit.pieces and n_live and \
                unit.attempts <= self.config.max_retries:
            self.counters.retries += 1
            return True
        self.degrade(unit.pieces, now, **attrs)
        return False

    def expire(self, piece: Piece, now: float, **attrs) -> None:
        """*piece*'s job missed its deadline: the timeout event (*attrs*
        go on it), then software service."""
        job = piece[0]
        self.counters.timeouts += 1
        job.timed_out = True
        if self.obs is not None:
            self.obs.tracer.event(self.trace.timeout, t=now,
                                  unit=self.trace.unit, job_id=job.job_id,
                                  **attrs)
        self.degrade([piece], now, reason="deadline")

    def degrade(self, pieces: List[Piece], now: float, **attrs) -> None:
        """The host CPU serves each piece with the software baseline
        (saturation, deadline, retries exhausted or no live worker)."""
        for job, shard in pieces:
            if job.started is None:
                job.started = now
            feed = shard.feed(job.text)
            results = self.fallback.kernel(job.spec, job.taps, feed)
            cost = self.software_cost(job.window_len, len(feed), now)
            if self.obs is not None:
                self.obs.tracer.record(
                    self.trace.software, t0=now, t1=now + cost,
                    unit=self.trace.unit, parent=job.span,
                    shard=shard.index, chars=len(feed), **attrs,
                )
            job.via_fallback = True
            self.counters.fallbacks += 1
            self.settle(job, shard, results, now + cost, cost)

    def settle(
        self, job: Job, shard: TextShard, results: Sequence, finish: float,
        cost: float, worker: Optional[str] = None,
    ) -> None:
        """Book one served piece (*worker* None for software); the job
        completes with its last: shards merge, the spec finalizes and
        the mode is labelled."""
        if worker is not None:
            job.workers_used.append(worker)
        job.shard_results[shard.index] = results
        job.shard_finish[shard.index] = finish
        job.service += cost
        job.pending -= 1
        if job.pending:
            return
        if job.shards is not None:
            ordered = [job.shard_results[s.index] for s in job.shards]
            results = self.merge(
                job.shards, ordered, len(job.text), job.spec.incomplete
            )
        results = job.spec.finalize(job.taps, job.orig_len, results)
        mode = "software" if job.via_fallback and not job.workers_used \
            else job.mode
        self._complete(job, results, max(job.shard_finish.values()), mode)

    def _complete(
        self, job: Job, results: Sequence, finished: float, mode: str
    ) -> None:
        """Publish *job*'s result, write an executed answer back to the
        cache and hand every follower a copy of it and of its
        representative's fate (workers, fallback, timeout); a follower
        keeps its own identity, attempts and latency accounting."""
        job.done = True
        job.results, job.finished, job.mode = results, finished, mode
        result = self._publish(job)
        # The cache and the followers copy the published list, sharing
        # its values: the log keeps every result, so converting the
        # array again per hit or per follower would cost memory.
        job.results = result.results
        self.log.add(result)
        self.open -= 1
        self.counters.completed += 1
        if job.span is not None:
            self.obs.tracer.close(job.span, t1=finished, **{
                name: getattr(result, name) for name in self.trace.close
            })
            job.span = None
        if self.cache is not None and job.cache_key is not None and \
                mode not in (CACHED, DEDUPED):
            self.cache.put(job.cache_key, job.results, now=finished)
        for follower in self._followers.pop(job.job_id, ()):
            follower.started = max(job.started, follower.submitted)
            follower.workers_used = job.workers_used
            follower.via_fallback = job.via_fallback
            follower.timed_out = job.timed_out
            self._complete(follower, job.results, finished, DEDUPED)

    # -- results -----------------------------------------------------------

    def results(self) -> list:
        """Completed results so far (no waiting), as a fresh list in
        job-id order; costs work proportional to the completions since
        the last call plus one C-level list copy."""
        return self.log.snapshot()
