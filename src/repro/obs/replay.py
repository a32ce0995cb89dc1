"""Replay a recorded trace into a latency/utilization/queue report.

Works on the dict :meth:`repro.obs.Observability.export` produces (or
:meth:`~repro.obs.Observability.load` reads back): no live objects are
needed, so a trace captured in CI can be analysed offline, and the
JSON report this module emits is the CI artifact format.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis.report import Table, kv_table


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[int(rank)]


def _metric_value(metrics: Dict, name: str, default: float = 0.0,
                  **labels) -> float:
    want = {k: str(v) for k, v in labels.items()}
    for row in metrics.get(name, []):
        if row.get("labels", {}) == want and "value" in row:
            return float(row["value"])
    return default


def _metric_rows(metrics: Dict, name: str) -> List[Dict]:
    return list(metrics.get(name, []))


def trace_report(data: Dict[str, object]) -> Dict[str, object]:
    """Aggregate a replayed trace into the service-level report dict."""
    spans: List[Dict] = list(data.get("spans", []))          # type: ignore
    events: List[Dict] = list(data.get("events", []))        # type: ignore
    metrics: Dict = dict(data.get("metrics", {}))            # type: ignore

    jobs = [s for s in spans if s.get("name") == "service.job"
            and s.get("t1") is not None]
    latencies = [float(s["t1"]) - float(s["t0"]) for s in jobs]
    waits = [float(s["attrs"].get("wait_beats", 0.0)) for s in jobs]
    services = [float(s["attrs"].get("service_beats", 0.0)) for s in jobs]
    fallbacks = sum(1 for s in jobs if s["attrs"].get("via_fallback"))

    makespan = _metric_value(metrics, "service.makespan_beats")
    if makespan <= 0 and jobs:
        makespan = max(float(s["t1"]) for s in jobs)

    job_section = {
        "count": len(jobs),
        "latency_mean_beats": sum(latencies) / len(latencies) if jobs else 0.0,
        "latency_p50_beats": percentile(latencies, 50),
        "latency_p95_beats": percentile(latencies, 95),
        "latency_max_beats": max(latencies) if latencies else 0.0,
        "wait_mean_beats": sum(waits) / len(waits) if waits else 0.0,
        "service_mean_beats": sum(services) / len(services) if services else 0.0,
        "via_fallback": fallbacks,
        "makespan_beats": makespan,
    }

    # Per-worker view: executions and samples from the device's one
    # span per call, busy beats from the metric the telemetry layer
    # publishes (already overlap-clipped).
    worker_execs: Dict[str, int] = {}
    worker_samples: Dict[str, int] = {}
    for s in spans:
        if s.get("name") != "worker.kernel":
            continue
        w = str(s["attrs"].get("worker", "?"))
        worker_execs[w] = worker_execs.get(w, 0) + 1
        worker_samples[w] = worker_samples.get(w, 0) + int(
            s["attrs"].get("samples", 0)
        )
    workers = {}
    busy_rows = _metric_rows(metrics, "service.worker.busy_beats")
    names = sorted(
        set(worker_execs)
        | {r["labels"].get("worker", "?") for r in busy_rows}
    )
    for name in names:
        busy = _metric_value(metrics, "service.worker.busy_beats", worker=name)
        workers[name] = {
            "executions": worker_execs.get(name, 0),
            "samples": worker_samples.get(name, 0),
            "busy_beats": busy,
            "utilization": min(1.0, busy / makespan) if makespan > 0 else 0.0,
        }

    # Queue depth over time, per priority class.
    queue: Dict[str, Dict[str, float]] = {}
    for e in events:
        if e.get("name") != "queue.depth":
            continue
        cls = str(e["attrs"].get("priority", "?"))
        depth = float(e["attrs"].get("depth", 0))
        entry = queue.setdefault(cls, {"samples": 0, "max": 0.0, "last": 0.0})
        entry["samples"] += 1
        entry["max"] = max(entry["max"], depth)
        entry["last"] = depth
    for row in _metric_rows(metrics, "service.queue.high_water"):
        cls = row["labels"].get("priority", "?")
        entry = queue.setdefault(cls, {"samples": 0, "max": 0.0, "last": 0.0})
        entry["high_water"] = float(row.get("value", 0.0))

    bus_section = {
        "busy_beats": _metric_value(metrics, "service.bus.busy_beats"),
        "chars_moved": _metric_value(metrics, "service.bus.chars_moved"),
        "utilization": (
            min(1.0, _metric_value(metrics, "service.bus.busy_beats") / makespan)
            if makespan > 0 else 0.0
        ),
    }

    # Circuit-level totals only exist on trace_circuit runs.
    settle_calls = sum(
        float(r.get("value", 0.0))
        for r in _metric_rows(metrics, "circuit.settle.calls")
    )
    settle_passes = sum(
        float(r.get("value", 0.0))
        for r in _metric_rows(metrics, "circuit.settle.passes")
    )
    depth_section = {
        "array_beats": sum(
            float(r.get("value", 0.0))
            for r in _metric_rows(metrics, "array.beats")
        ),
        "array_fires": sum(
            float(r.get("value", 0.0))
            for r in _metric_rows(metrics, "array.fires")
        ),
        "settle_calls": settle_calls,
        "settle_passes": settle_passes,
        "passes_per_settle": settle_passes / settle_calls if settle_calls else 0.0,
    }

    return {
        "jobs": job_section,
        "workers": workers,
        "queue": queue,
        "bus": bus_section,
        "depth": depth_section,
        "span_count": len(spans),
        "event_count": len(events),
    }


def render_report(report: Dict[str, object]) -> str:
    """The replay report as bench-style tables."""
    sections: List[str] = []
    sections.append(kv_table("jobs", report["jobs"]).render())

    workers: Dict[str, Dict] = report["workers"]             # type: ignore
    if workers:
        t = Table(
            ["worker", "executions", "samples", "busy beats", "utilization"],
            title="workers",
        )
        for name in sorted(workers):
            w = workers[name]
            t.row([name, w["executions"], w["samples"], w["busy_beats"],
                   w["utilization"]])
        sections.append(t.render())

    queue: Dict[str, Dict] = report["queue"]                 # type: ignore
    if queue:
        t = Table(
            ["class", "samples", "max depth", "last depth", "high water"],
            title="queue depth",
        )
        for cls in sorted(queue):
            q = queue[cls]
            t.row([cls.lower(), int(q.get("samples", 0)), q.get("max", 0.0),
                   q.get("last", 0.0), q.get("high_water", q.get("max", 0.0))])
        sections.append(t.render())

    sections.append(kv_table("bus", report["bus"]).render())
    depth: Dict[str, float] = report["depth"]                # type: ignore
    if any(depth.values()):
        sections.append(kv_table("execution depth", depth).render())
    return "\n\n".join(sections)
