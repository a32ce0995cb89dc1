"""One front door over any pool: admission, the reply rule and results.

Figure 1-1 gives the host one protocol for any attached device.  Here
it is the :class:`Pool` contract: submit a unit, report its reply, say
how many workers are live, cancel.  The beat-clock farm
(:class:`~repro.service.service.FarmPool`), the process runtime
(:class:`~repro.runtime.service.ProcessPool`) and a test's fake pool
satisfy it, and :class:`FrontDoor` drives any of them through one
sans-I/O :class:`~repro.service.core.ServiceCore`.  The front door
holds what the surfaces used to repeat: admission
(``parse_request`` -> ``plan`` -> ``core.admit`` under the pool's gate
-> ``core.units`` -> pool), the reply rule, and the ``results()``
snapshot that ``drain`` returns.  A surface adds only its clock-bound
parts: the farm runs its pool until idle, the runtime awaits.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Protocol, Sequence

from ..errors import BackpressureError
from .core import Job, ServiceCore, Unit
from .plan import BATCH, DEDUPED, SOLO, parse_request, plan
from .reliability import RetryPolicy
from .scheduler import Priority
from .sharding import merge_shard_values


class Pool(Protocol):
    """What a front door needs from the devices behind it.

    ``door`` is set by the front door; the pool answers each unit
    through ``door.reply`` and serves pieces from software itself
    through ``door.core`` (a shed deadline, no live worker).  ``now()``
    is its clock (beats or seconds); it shards a solo job from
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
    def cancel(self, unit: Unit) -> None: ...


class FrontDoor:
    """Admission, the reply rule and the results snapshot over one
    :class:`Pool`, written once for every surface.

    A surface sets ``config`` (``max_retries``, ``max_batch_jobs``,
    ``degrade_when_saturated``), ``alphabet``, ``cache``, ``obs`` and
    ``fallback``, defines ``_publish(job)``, and passes its pool,
    counters, :class:`~repro.service.core.Trace` and software cost
    here, with its ``result_cache_key`` (and shard merge) bound late so
    that a wrapper installed on the surface's module is the one called.
    """

    #: Timeout applied to a call that names none (None: no deadline).
    default_timeout: Optional[float] = None

    def __init__(
        self, transport: Pool, counters, trace,
        software_cost: Callable[[int, int, float], float],
        key: Callable[..., tuple], merge: Callable = merge_shard_values,
    ):
        self.transport, self.counters, self._key = transport, counters, key
        self.retry = RetryPolicy(self.config.max_retries)
        self.core = ServiceCore(
            counters, self.retry, self.fallback, self.cache, self.obs, trace,
            self._publish, software_cost, merge,
        )
        transport.door = self

    # -- admission ---------------------------------------------------------

    def _admission(
        self, ids: List[int], params, streams: Sequence[Sequence],
        tenant: str, priority: Priority, workload: str,
        timeout: Optional[float],
    ) -> Iterator[None]:
        """Admit one job per stream, appending its id to *ids*: the whole
        of ``submit_many``.  A generator that yields before each
        stream's admission, where the async surface waits out its
        tenant's rate limit.

        The call is checked whole before any job is admitted (bad input
        raises a :class:`~repro.errors.ReproError` and admits nothing),
        then :func:`~repro.service.plan.plan` routes each stream (its
        module lists the routes).  A job that needs a worker while the
        pool is ``saturated`` is served from software after its
        followers joined or, without ``degrade_when_saturated``,
        rejected: its id stays unused, the jobs admitted before it run,
        and :class:`~repro.errors.BackpressureError` propagates."""
        req = parse_request(
            workload, params, streams, self.alphabet, priority, timeout
        )
        timeout = self.default_timeout if req.timeout is None else req.timeout
        routes, solos, batches = plan(
            req.spec, req.taps, req.streams, self.cache, self.transport.now(),
            self.config.max_batch_jobs, self._key,
            wide_threshold=self.transport.wide_threshold, tenant=tenant,
        )
        jobs: List[Job] = []
        shed: List[Job] = []
        for prepared, route in zip(req.streams, routes):
            yield
            saturated = route.kind in (SOLO, BATCH) and \
                self.transport.saturated(self.core.open)
            if saturated:
                self.counters.backpressure_hits += 1
                if not self.config.degrade_when_saturated:
                    self.core.next_id += 1
                    self._launch(jobs, shed, solos, batches, req.priority)
                    raise BackpressureError(
                        f"pending set full ({self.core.open} open jobs)"
                    )
            now = self.transport.now()
            job = self.core.admit(
                jobs, req, prepared, route, tenant, now,
                None if timeout is None else now + timeout,
            )
            ids.append(job.job_id)
            if not job.done:
                self._admitted(job, route.kind == DEDUPED)
                if saturated:
                    shed.append(job)
        self._launch(jobs, shed, solos, batches, req.priority)

    def _admitted(self, job: Job, follows: bool) -> None:
        """An admitted job is still open (*follows*: it rides with its
        representative); the async surface gives it a future here."""

    def _launch(
        self, jobs: List[Job], shed: List[Job], solos: List[int],
        batches: List[List[int]], priority: Priority,
    ) -> None:
        """Serve the shed jobs from software, then hand the plan's units
        to the pool in queue order; a batch plan counts once, when the
        pool takes it.  A unit the pool refuses is served from software
        with ``degrade_when_saturated``; otherwise it and every unit
        after it are rolled back and the error propagates."""
        now = self.transport.now()
        for job in shed:
            if not job.done:  # its deadline may have fired already
                self.core.degrade([job.whole()], now, reason="saturated")
        units = self.core.units(jobs, solos, batches, priority)
        for i, unit in enumerate(units):
            try:
                self.transport.submit(unit)
            except BackpressureError:
                self.counters.backpressure_hits += 1
                if self.config.degrade_when_saturated:
                    self.core.degrade(unit.pieces, now, reason="saturated")
                    continue
                for late in units[i:]:
                    for job, _ in late.pieces:
                        self.core.reject(job, now)
                raise
            self.core.queued(unit)

    # -- the reply rule ----------------------------------------------------

    def reply(
        self, unit: Unit, now: float, rows: Optional[Sequence] = None,
        worker: Optional[str] = None, costs: Optional[Sequence] = None,
        died: bool = False,
    ) -> None:
        """The pool's answer for one execution of *unit*.  Without
        *rows* it failed (*died*: its worker died in it): the core's
        failure rule relaunches the unit whole on the pool or serves its
        open pieces from software.  Otherwise every still-open piece
        settles with its row and cost; a piece a deadline already
        served ignores its slice."""
        if rows is None:
            if died:
                self.counters.deaths += 1
            if self.core.failed(unit, self.transport.n_live, now,
                                reason="retries-exhausted"):
                self.transport.submit(unit)
            return
        for (job, shard), row, cost in zip(unit.pieces, rows, costs):
            if not job.done:
                self.core.settle(job, shard, row, now, cost, worker)

    # -- results -----------------------------------------------------------

    def results(self) -> list:
        """Completed results so far (no waiting), as a fresh list in
        job-id order; costs work proportional to the completions since
        the last call plus one C-level list copy."""
        return self.core.log.snapshot()
