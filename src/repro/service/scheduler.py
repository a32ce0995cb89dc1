"""Bounded queues, priority classes, the beat clock, and the shared bus.

The decomposition follows the CSP shape: explicit producer (tenants),
bounded channels (one :class:`BoundedQueue` per priority class), and
consumer processes (the pool workers), with backpressure surfacing as
:class:`~repro.errors.BackpressureError` when a channel is full.  Time is
a simulated beat counter -- the same beat the chip's 250 ns clock ticks
-- so queueing delay, service time, and bus occupancy all share one unit
and reconcile against :class:`repro.timing.model.TimingModel`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Deque, Dict, Optional

from ..errors import BackpressureError, ServiceError
from ..host.bus import HostSpec


class Priority(IntEnum):
    """Service classes; lower value is served first."""

    INTERACTIVE = 0
    BATCH = 1


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the farm scheduler.

    ``queue_capacity``: bound of each priority-class channel (CSP buffer
    size); submissions beyond it hit backpressure.
    ``max_retries``: retries per execution unit -- a solo job, one
    shard of a wide job, or one batch plan, each with its own budget --
    after worker deaths; then the unit's pieces degrade to the software
    fallback.  ``JobResult.attempts`` still counts every failed
    execution of the job.
    ``wide_text_threshold``: texts at least this long are sharded across
    idle workers when enough of them can hold the pattern.
    ``max_shards`` / ``min_shard_chars``: shard fan-out bounds.
    ``degrade_when_saturated``: on backpressure, run the job on the host
    CPU (software baseline) instead of raising.
    ``max_batch_jobs``: how many compatible ``submit_many`` jobs one
    batch plan may coalesce into a single worker execution; narrow texts
    sharing one pattern ride together up to this bound (wide texts keep
    their own shard plans).
    """

    queue_capacity: int = 64
    max_retries: int = 2
    wide_text_threshold: int = 512
    max_shards: int = 4
    min_shard_chars: int = 64
    degrade_when_saturated: bool = True
    max_batch_jobs: int = 32

    def __post_init__(self):
        if self.queue_capacity <= 0:
            raise ServiceError("queue capacity must be positive")
        if self.max_retries < 0:
            raise ServiceError("max_retries cannot be negative")
        if self.max_shards <= 0:
            raise ServiceError("max_shards must be positive")
        if self.min_shard_chars <= 0:
            raise ServiceError("min_shard_chars must be positive")
        if self.max_batch_jobs <= 0:
            raise ServiceError("max_batch_jobs must be positive")


class BeatClock:
    """Monotonic simulated time, in beats (fractions allowed: the bus
    moves characters at memory-cycle granularity, not beat granularity)."""

    def __init__(self):
        self.now: float = 0.0

    def advance_to(self, beat: float) -> None:
        if beat < self.now:
            raise ServiceError(
                f"clock cannot run backwards ({beat} < {self.now})"
            )
        self.now = beat


class BoundedQueue:
    """A bounded FIFO channel, fair across tenants.

    Jobs from different tenants interleave round-robin; within one tenant
    order is FIFO.  ``put`` raises :class:`BackpressureError` at
    capacity -- the CSP "blocked sender", surfaced as an exception
    because the simulation has no real concurrency to suspend.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ServiceError("queue capacity must be positive")
        self.capacity = capacity
        self._by_tenant: "OrderedDict[str, Deque[object]]" = OrderedDict()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size >= self.capacity

    def put(self, tenant: str, job: object) -> None:
        """Enqueue at the tail."""
        if self.is_full:
            raise BackpressureError(
                f"queue full ({self.capacity} jobs); backpressure"
            )
        self._by_tenant.setdefault(tenant, deque()).append(job)
        self._size += 1

    def pop(self) -> Optional[object]:
        """Dequeue round-robin across tenants; None when empty."""
        while self._by_tenant:
            tenant, lane = next(iter(self._by_tenant.items()))
            if not lane:
                del self._by_tenant[tenant]
                continue
            job = lane.popleft()
            # Rotate the tenant to the back so the next pop serves the
            # next tenant -- round-robin fairness.
            self._by_tenant.move_to_end(tenant)
            if not lane:
                del self._by_tenant[tenant]
            self._size -= 1
            return job
        return None


class JobQueues:
    """One bounded channel per priority class, drained in class order."""

    def __init__(self, config: SchedulerConfig):
        self.config = config
        self.queues: Dict[Priority, BoundedQueue] = {
            p: BoundedQueue(config.queue_capacity) for p in Priority
        }
        self.high_water: Dict[Priority, int] = {p: 0 for p in Priority}

    def put(self, priority: Priority, tenant: str, job: object) -> None:
        q = self.queues[priority]
        q.put(tenant, job)
        self.high_water[priority] = max(self.high_water[priority], len(q))

    def pop(self) -> Optional[object]:
        for p in sorted(self.queues):
            job = self.queues[p].pop()
            if job is not None:
                return job
        return None

    def depth(self, priority: Optional[Priority] = None) -> int:
        if priority is not None:
            return len(self.queues[priority])
        return sum(len(q) for q in self.queues.values())

    def __len__(self) -> int:
        return self.depth()


class SharedBus:
    """The host's DMA channel, time-multiplexed across the whole farm.

    Per-character *occupancy* is the memory-side cost (one memory cycle
    moves ``bytes_per_word`` characters); the device-side pacing is
    already captured in each worker's service beats.  A job's stream
    reserves bus time serially, so aggregate farm throughput saturates at
    the host's memory bandwidth -- the paper's introduction, scaled up:
    one chip can outrun a 1979 memory, and a farm certainly does.
    """

    def __init__(self, host: Optional[HostSpec] = None, beat_ns: float = 250.0,
                 obs=None):
        if beat_ns <= 0:
            raise ServiceError("beat time must be positive")
        self.host = host or HostSpec()
        self.beat_ns = beat_ns
        per_char_ns = self.host.memory_cycle_ns / self.host.bytes_per_word
        self.per_char_beats = per_char_ns / beat_ns
        self.free_at: float = 0.0
        self.busy_beats: float = 0.0
        self.chars_moved: int = 0
        self.obs = None
        self._m_reservations = None
        self._h_wait = None
        if obs is not None:
            self.attach_obs(obs)

    def attach_obs(self, obs) -> None:
        """Attach/detach an Observability bundle: each reservation counts
        into ``bus.reservations`` and its queueing delay (beats spent
        waiting for the bus to free up) observes into ``bus.wait_beats``."""
        self.obs = obs
        if obs is None:
            self._m_reservations = self._h_wait = None
            return
        self._m_reservations = obs.registry.counter("bus.reservations")
        self._h_wait = obs.registry.histogram("bus.wait_beats")

    def eta(self, n_chars: int, now: float) -> float:
        """The beat at which an *n_chars* transfer starting no earlier
        than *now* would complete -- a pure peek, no reservation.  The
        service uses this to test a job against its deadline *before*
        committing worker and bus time to it."""
        if n_chars < 0:
            raise ServiceError("cannot transfer a negative number of characters")
        return max(self.free_at, now) + n_chars * self.per_char_beats

    def reserve(self, n_chars: int, now: float) -> float:
        """Claim bus time for *n_chars* starting no earlier than *now*;
        returns the beat at which the transfer completes."""
        if n_chars < 0:
            raise ServiceError("cannot transfer a negative number of characters")
        start = max(self.free_at, now)
        duration = n_chars * self.per_char_beats
        self.free_at = start + duration
        self.busy_beats += duration
        self.chars_moved += n_chars
        if self._m_reservations is not None:
            self._m_reservations.inc()
            self._h_wait.observe(start - now)
        return self.free_at
