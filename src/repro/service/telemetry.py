"""Farm observability: per-job and per-worker counters.

Everything the scheduler knows about its own behaviour -- queue depth
high-water marks, wait and service beats by priority class, per-worker
utilization, retries, deaths, fallbacks, bus occupancy -- published into
a :class:`~repro.obs.metrics.MetricsRegistry` under stable dotted names
(``service.worker.busy_beats{worker=...}`` and friends) and rendered
through the same :class:`repro.analysis.report.Table` the paper-figure
benches use.

Attributes (``telemetry.submitted``, ``worker.busy_beats``...) are
views of the registered metrics.  Completed jobs are booked per settled
unit: ``record_job`` and ``record_workload`` take one unit's results
and bump each counter once.

Worker busy time is accounted through :meth:`WorkerStats.record_busy`,
which clips overlapping intervals against a per-worker high-water mark:
however executions land (including a death being charged while the
retry is already being reassigned), one worker can never accumulate
more busy beats than wall-clock, so utilization stays <= 1.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..analysis.report import Table, kv_table
from ..obs.metrics import MetricsRegistry
from .scheduler import Priority


class _Scalar:
    """Descriptor exposing one registry metric as a plain attribute."""

    __slots__ = ("attr", "cast")

    def __init__(self, attr: str, cast=float):
        self.attr = attr
        self.cast = cast

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self.cast(getattr(obj, self.attr).value)

    def __set__(self, obj, value) -> None:
        getattr(obj, self.attr).value = float(value)


class WorkerStats:
    """Lifetime counters for one pool worker (a registry view)."""

    executions = _Scalar("_executions", int)
    busy_beats = _Scalar("_busy", float)
    stuck_events = _Scalar("_stuck", int)
    died = _Scalar("_died", bool)

    __slots__ = (
        "name", "capacity", "_executions", "_busy", "_stuck", "_died",
        "_busy_until",
    )

    def __init__(self, registry: MetricsRegistry, name: str, capacity: int):
        self.name = name
        self.capacity = capacity
        self._executions = registry.counter(
            "service.worker.executions", worker=name
        )
        self._busy = registry.counter("service.worker.busy_beats", worker=name)
        self._stuck = registry.counter(
            "service.worker.stuck_events", worker=name
        )
        self._died = registry.gauge("service.worker.died", worker=name)
        # High-water mark of accounted busy time: record_busy clips
        # against it so overlapping executions count once.
        self._busy_until = 0.0

    # -- accounting --------------------------------------------------------

    def record_busy(self, start_beat: float, finish_beat: float) -> float:
        """Charge one execution's interval, clipped against time already
        accounted to this worker; returns the beats actually charged."""
        start = max(start_beat, self._busy_until)
        charged = max(0.0, finish_beat - start)
        if charged > 0:
            self._busy.inc(charged)
        if finish_beat > self._busy_until:
            self._busy_until = finish_beat
        return charged

    def utilization(self, makespan_beats: float) -> float:
        if makespan_beats <= 0:
            return 0.0
        return min(1.0, self.busy_beats / makespan_beats)

    def __repr__(self) -> str:
        return (
            f"WorkerStats({self.name!r}, executions={self.executions}, "
            f"busy_beats={self.busy_beats})"
        )


class ClassStats:
    """Latency accounting for one priority class (a registry view)."""

    jobs = _Scalar("_jobs", int)
    total_wait_beats = _Scalar("_wait", float)
    total_service_beats = _Scalar("_service", float)

    __slots__ = ("_jobs", "_wait", "_service")

    def __init__(self, registry: MetricsRegistry, priority: Priority):
        cls = priority.name
        self._jobs = registry.counter("service.class.jobs", cls=cls)
        self._wait = registry.counter("service.class.wait_beats", cls=cls)
        self._service = registry.counter(
            "service.class.service_beats", cls=cls
        )

    @property
    def mean_wait_beats(self) -> float:
        return self.total_wait_beats / self.jobs if self.jobs else 0.0

    @property
    def mean_service_beats(self) -> float:
        return self.total_service_beats / self.jobs if self.jobs else 0.0


class JobCounters:
    """The job counters both front doors keep, as views of
    ``<prefix>.*`` registry counters (the farm's deaths are
    ``service.worker_deaths``, the runtime's ``runtime.deaths``)."""

    submitted = _Scalar("_submitted", int)
    completed = _Scalar("_completed", int)
    retries = _Scalar("_retries", int)
    deaths = _Scalar("_deaths", int)
    fallbacks = _Scalar("_fallbacks", int)
    timeouts = _Scalar("_timeouts", int)
    backpressure_hits = _Scalar("_backpressure", int)
    batches = _Scalar("_batches", int)
    batched_jobs = _Scalar("_batched_jobs", int)
    deduped = _Scalar("_deduped", int)

    def __init__(self, registry: MetricsRegistry, prefix: str, deaths: str):
        r = registry
        self._submitted = r.counter(f"{prefix}.jobs.submitted")
        self._completed = r.counter(f"{prefix}.jobs.completed")
        self._retries = r.counter(f"{prefix}.retries")
        self._deaths = r.counter(f"{prefix}.{deaths}")
        self._fallbacks = r.counter(f"{prefix}.fallbacks")
        self._timeouts = r.counter(f"{prefix}.timeouts")
        self._backpressure = r.counter(f"{prefix}.backpressure_hits")
        self._batches = r.counter(f"{prefix}.batches")
        self._batched_jobs = r.counter(f"{prefix}.jobs.batched")
        self._deduped = r.counter(f"{prefix}.jobs.deduped")


class ServiceTelemetry(JobCounters):
    """The farm's aggregate counters, backed by one metrics registry.

    Construct with the registry of the run's
    :class:`~repro.obs.Observability` to fold farm telemetry into the
    unified trace; standalone construction gets a private registry and
    behaves exactly like the pre-registry dataclass.
    """

    stuck_events = _Scalar("_stuck", int)
    text_chars_served = _Scalar("_chars", int)
    bus_busy_beats = _Scalar("_bus_busy", float)
    bus_chars_moved = _Scalar("_bus_chars", int)
    makespan_beats = _Scalar("_makespan", float)
    bist_runs = _Scalar("_bist_runs", int)
    bist_failures = _Scalar("_bist_failures", int)
    quarantines = _Scalar("_quarantines", int)
    heals = _Scalar("_heals", int)

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        super().__init__(self.registry, "service", "worker_deaths")
        r = self.registry
        self._stuck = r.counter("service.stuck_events")
        self._chars = r.counter("service.text_chars_served")
        self._bus_busy = r.gauge("service.bus.busy_beats")
        self._bus_chars = r.gauge("service.bus.chars_moved")
        self._makespan = r.gauge("service.makespan_beats")
        self._bist_runs = r.counter("service.health.bist_runs")
        self._bist_failures = r.counter("service.health.bist_failures")
        self._quarantines = r.counter("service.health.quarantines")
        self._heals = r.counter("service.health.heals")
        self._wait_hist = r.histogram("service.job.wait_beats")
        self._service_hist = r.histogram("service.job.service_beats")
        self.queue_high_water: Dict[Priority, int] = {}
        self.by_class: Dict[Priority, ClassStats] = {
            p: ClassStats(r, p) for p in Priority
        }
        self.workers: Dict[str, WorkerStats] = {}
        self._by_workload: Dict[str, tuple] = {}

    # -- accumulation hooks (called by the service) -----------------------

    def note_queue_high_water(self, depths: Dict[Priority, int]) -> None:
        """The deepest each priority queue has been, so far."""
        self.queue_high_water = dict(depths)
        for p, depth in depths.items():
            self.registry.gauge(
                "service.queue.high_water", priority=p.name).set(depth)

    def worker_stats(self, name: str, capacity: int) -> WorkerStats:
        if name not in self.workers:
            self.workers[name] = WorkerStats(self.registry, name, capacity)
        return self.workers[name]

    def record_job(self, results: Sequence) -> None:
        """Book one settled unit's results (one priority class): wait and
        service beats, in order, into class totals and histograms."""
        waits = [r.wait_beats for r in results]
        services = [r.service_beats for r in results]
        cls = self.by_class[results[0].priority]
        cls._jobs.inc(len(results))
        cls._wait.inc_all(waits)
        cls._service.inc_all(services)
        self._wait_hist.observe_many(waits)
        self._service_hist.observe_many(services)

    def record_workload(self, results: Sequence) -> None:
        """Count one settled unit's results (one workload) and their
        output values: the text characters served."""
        workload = results[0].workload
        pair = self._by_workload.get(workload)
        if pair is None:
            pair = self._by_workload[workload] = (
                self.registry.counter("service.jobs.by_workload",
                                      workload=workload),
                self.registry.counter("service.outputs.by_workload",
                                      workload=workload),
            )
        outputs = sum(len(r.results) for r in results)
        pair[0].inc(len(results))
        pair[1].inc(outputs)
        self._chars.inc(outputs)

    @property
    def by_workload(self) -> Dict[str, Dict[str, int]]:
        """``{workload: {"jobs": ..., "outputs": ...}}`` so far."""
        return {
            name: {"jobs": int(j.value), "outputs": int(o.value)}
            for name, (j, o) in sorted(self._by_workload.items())
        }

    # -- derived ----------------------------------------------------------

    def aggregate_chars_per_s(self, beat_ns: float) -> float:
        """Text characters served per second of simulated time."""
        if self.makespan_beats <= 0:
            return 0.0
        return self.text_chars_served / (self.makespan_beats * beat_ns * 1e-9)

    def bus_utilization(self) -> float:
        if self.makespan_beats <= 0:
            return 0.0
        return min(1.0, self.bus_busy_beats / self.makespan_beats)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """A bench-style report: farm summary, class latencies, workers."""
        summary = kv_table(
            "matcher farm",
            {
                "jobs submitted": self.submitted,
                "jobs completed": self.completed,
                "retries": self.retries,
                "worker deaths": self.deaths,
                "stuck-beat events": self.stuck_events,
                "software fallbacks": self.fallbacks,
                "deadline timeouts": self.timeouts,
                "backpressure hits": self.backpressure_hits,
                "batch plans": self.batches,
                "jobs in batch plans": self.batched_jobs,
                "jobs deduplicated": self.deduped,
                "text chars served": self.text_chars_served,
                "makespan beats": self.makespan_beats,
                "bus utilization": self.bus_utilization(),
                "bist runs": self.bist_runs,
                "bist failures": self.bist_failures,
                "quarantines": self.quarantines,
                "heals": self.heals,
            },
        )

        classes = Table(
            ["class", "jobs", "mean wait beats", "mean service beats",
             "queue high-water"],
            title="priority classes",
        )
        for p in sorted(self.by_class):
            cls = self.by_class[p]
            classes.row(
                [
                    p.name.lower(),
                    cls.jobs,
                    cls.mean_wait_beats,
                    cls.mean_service_beats,
                    self.queue_high_water.get(p, 0),
                ]
            )

        tables = [summary, classes]
        if self._by_workload:
            workloads = Table(
                ["workload", "jobs", "output values"], title="workloads"
            )
            for name, stats in self.by_workload.items():
                workloads.row([name, stats["jobs"], stats["outputs"]])
            tables.append(workloads)

        workers = Table(
            ["worker", "cells", "executions", "busy beats", "utilization",
             "stuck", "state"],
            title="workers",
        )
        for name in sorted(self.workers):
            w = self.workers[name]
            workers.row(
                [
                    w.name,
                    w.capacity,
                    w.executions,
                    w.busy_beats,
                    w.utilization(self.makespan_beats),
                    w.stuck_events,
                    "dead" if w.died else "alive",
                ]
            )
        tables.append(workers)
        return "\n\n".join(t.render() for t in tables)
