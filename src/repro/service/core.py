"""`ServiceCore`: the job bookkeeping of the front door, free of I/O.

In the paper's Figure 1-1 system the host does the bookkeeping once and
the attached devices only stream.  This is that bookkeeping, which
:class:`~repro.service.frontdoor.FrontDoor` drives over any pool: the
:class:`Job` and :class:`Unit` records, admission after
:func:`~repro.service.plan.plan`, the one failure rule
(:meth:`ServiceCore.failed`), software service, settling and
finalizing, and completion with the fan-out to deduped followers.
It reads no clock: each call takes ``now`` in the pool's unit (beats
or seconds).  What a surface differs in arrives as a value: its
counters, its :class:`Trace`, the cost of a software run, the shard
merge and the builder of its public result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..workloads.registry import WorkloadSpec
from .cache import ResultCache
from .completion import CompletionLog
from .plan import CACHED, DEDUPED, INLINE, Prepared, Request, Route
from .reliability import RetryPolicy, SoftwareFallback
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
    unit: Optional["Unit"] = None  # the planned unit carrying it
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


class ServiceCore:
    """Jobs, units, retries, degradation and completion for one front
    door.

    *counters* has integer ``submitted``, ``completed``, ``deduped``,
    ``batches``, ``batched_jobs``, ``retries``, ``fallbacks`` and
    ``timeouts`` attributes.  *publish* builds the public result of a
    finished :class:`Job`, converting ``job.results`` to the list its
    ``results`` attribute carries (and does the front door's own
    accounting);
    *software_cost* maps (window, characters, start) to the duration of
    a software run that started at *start*: modelled host beats in the
    farm, measured seconds in the runtime.
    """

    def __init__(
        self, counters, retry: RetryPolicy, fallback: SoftwareFallback,
        cache: Optional[ResultCache], obs, trace: Trace,
        publish: Callable[[Job], object],
        software_cost: Callable[[int, int, float], float],
        merge: Callable = merge_shard_values,
    ):
        self.counters, self.retry, self.fallback = counters, retry, fallback
        self.cache, self.obs, self.trace = cache, obs, trace
        self.publish, self.software_cost, self.merge = \
            publish, software_cost, merge
        self.log = CompletionLog()
        self.next_id = 0
        self.open = 0  # admitted jobs not yet completed (nor rejected)
        self._followers: Dict[int, List[Job]] = {}  # by representative id

    def admit(
        self, jobs: List[Job], req: Request, prepared: Prepared, route: Route,
        tenant: str, now: float, deadline: Optional[float] = None,
    ) -> Job:
        """Admit the next stream of a call (appended to its *jobs*): id,
        count, span, then inline completion or following its
        representative when the route says so."""
        job = Job(
            self.next_id, tenant, req.priority, req.spec, prepared.taps,
            prepared.feed, len(prepared.validated), now, deadline, route.key,
        )
        self.next_id += 1
        self.open += 1
        self.counters.submitted += 1
        if self.obs is not None:
            # Jobs overlap in time, so their spans cannot nest on the
            # tracer stack: open/close explicitly, keyed off the job.
            job.span = self.obs.tracer.open_span(
                self.trace.job, t0=now, unit=self.trace.unit,
                job_id=job.job_id, tenant=tenant, priority=job.priority.name,
                workload=job.workload,
            )
        jobs.append(job)
        if route.kind == DEDUPED:
            self.counters.deduped += 1
            rep = jobs[route.rep]
            if rep.done:  # it completed while this call was admitting
                self._inherit(rep, job, now)
            else:
                self._followers.setdefault(rep.job_id, []).append(job)
        elif route.kind in INLINE:  # no queue, worker, wire or beats
            job.started = now
            self._complete(job, route.hit or [], now, route.kind)
        return job

    def units(
        self, jobs: List[Job], solos: List[int], batches: List[List[int]],
        priority: Priority,
    ) -> List[Unit]:
        """The plan's units in queue order (solos, then batch chunks)
        over the call's admitted jobs that are still open."""
        units = []
        plan = [([i], False) for i in solos] + [(c, True) for c in batches]
        for chunk, batched in plan:
            pieces = [jobs[i].whole() for i in chunk
                      if i < len(jobs) and not jobs[i].done]
            if pieces:
                units.append(Unit(pieces, priority, batched))
                for job, _ in pieces:
                    job.unit = units[-1]
        return units

    def queued(self, unit: Unit) -> None:
        """Count a batch plan (and its members) once, when queued."""
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

    def failed(self, unit: Unit, n_live: int, now: float, **attrs) -> bool:
        """*unit*'s execution failed: one more attempt on it and on every
        open job it carries.  True means relaunch it whole (its retry
        budget lasts and a worker is live); False that its open pieces
        were served from software (*attrs* go on their spans)."""
        unit.attempts += 1
        unit.pieces = [p for p in unit.pieces if not p[0].done]
        for job, _ in unit.pieces:
            job.attempts += 1
        if unit.pieces and n_live and self.retry.should_retry(unit.attempts):
            self.counters.retries += 1
            return True
        self.degrade(unit.pieces, now, **attrs)
        return False

    def time_out(self, job: Job, now: float, **attrs) -> None:
        """*job* missed its deadline (the caller serves it degraded)."""
        self.counters.timeouts += 1
        job.timed_out = True
        if self.obs is not None:
            self.obs.tracer.event(self.trace.timeout, t=now,
                                  unit=self.trace.unit, job_id=job.job_id,
                                  **attrs)

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
        cache and hand every follower a copy."""
        job.done, job.unit = True, None  # no job <-> unit cycle to outlive it
        job.results, job.finished, job.mode = results, finished, mode
        result = self.publish(job)
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
            self._inherit(job, follower, finished)

    def _inherit(self, rep: Job, follower: Job, now: float) -> None:
        """Complete a deduped follower with its representative's answer
        and fate (workers, fallback, timeout); it keeps its own
        identity, attempts and latency accounting."""
        follower.started = max(rep.started, follower.submitted)
        follower.workers_used = rep.workers_used
        follower.via_fallback = rep.via_fallback
        follower.timed_out = rep.timed_out
        self._complete(follower, rep.results, now, DEDUPED)
