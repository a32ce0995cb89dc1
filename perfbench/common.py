"""Shared plumbing: percentiles, the result record, meta, output.

Nothing here imports :mod:`repro`; the workload modules import it
inside their set-up phase so that import time is part of ``setup_s``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from .speed import probe, scale

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metric -> (end-to-end metric, workload) it should move.
#: BENCHMARK.json allows only name/unit/better per metric, so the
#: mapping lives here and is printed with every traced run.
LAYER_TARGETS: Dict[str, str] = {
    "service.submit.self_ms": "jobs_per_s, latency_p50_ms on farm_narrow (near zero on farm_wide)",
    "workloads.validate_ms": "items_per_s on farm_wide",
    "service.cache.key_ms": "latency_p50_ms on farm_narrow",
    "service.cache.get_ms": "latency_p50_ms on farm_narrow",
    "service.cache.put_ms": "latency_p50_ms on farm_narrow; peak_rss_mb on farm_wide",
    "service.cache.hit_ratio": "latency_p50_ms on farm_narrow (0 on farm_wide)",
    "service.dedup_ratio": "jobs_per_s on farm_narrow",
    "service.batch.jobs_per_batch": "jobs_per_s on farm_narrow",
    "service.drain.self_ms": "latency_p50_ms (and the printed tail), peak_rss_mb on farm_narrow",
    "service.telemetry.ms": "jobs_per_s on farm_narrow",
    "service.scheduler.queue_ms": "jobs_per_s on farm_narrow",
    "service.sharding.plan_ms": "items_per_s, latency_p50_ms on farm_wide (0 on farm_narrow)",
    "service.sharding.merge_ms": "items_per_s, latency_p50_ms on farm_wide (0 on farm_narrow)",
    "core.kernel.ms": "items_per_s on farm_wide",
    "core.kernel.calls": "jobs_per_s on farm_narrow",
    "core.kernel.items_per_call": "items_per_s on farm_wide",
    "service.wait_beats_p99": "sim.latency_p99_beats on farm_*",
    "service.bus.utilization": "sim.ns_per_char on farm_*",
    "service.retries": "degraded_share (printed) on farm_narrow",
    "service.fallbacks": "degraded_share (printed) on farm_narrow",
    "service.timeouts": "degraded_share (printed) on farm_narrow",
    "runtime.submit.self_ms": "latency_p50_ms on runtime_open",
    "runtime.pool.submit_ms": "latency_p50_ms on runtime_open",
    "runtime.wire.send_ms": "latency_p50_ms on runtime_open",
    "runtime.wire.bytes_per_job": "latency_p50_ms on runtime_open (computed: pickled request+reply bytes)",
    "runtime.worker.kernel_ms": "latency_p50_ms on runtime_open",
    "runtime.overhead_ms_p50": "latency_p50_ms on runtime_open",
    "runtime.wait_ms_p99": "the printed latency tail on runtime_open",
    "runtime.fallbacks": "degraded_share (printed) on runtime_open",
    "runtime.timeouts": "degraded_share (printed) on runtime_open",
    "runtime.backpressure_hits": "degraded_share (printed) on runtime_open",
    "loadgen.late_ms_max": "validity of a runtime_open run",
    "loadgen.idle_ms": "none: the client waiting for arrivals on runtime_open",
    "compiler.compile_ms": "latency_p50_ms (flow per design point) on chip_flow",
    "compiler.netlist_ms": "latency_p50_ms on chip_flow",
    "compiler.physical_ms": "latency_p50_ms on chip_flow",
    "compiler.simulate_ms": "items_per_s on chip_flow",
    "signoff.drc_ms": "latency_p50_ms on chip_flow",
    "signoff.extraction_ms": "latency_p50_ms on chip_flow",
    "signoff.lvs_ms": "latency_p50_ms on chip_flow",
    "signoff.erc_ms": "latency_p50_ms on chip_flow",
    "signoff.timing_ms": "latency_p50_ms on chip_flow",
    "signoff.assembly_ms": "latency_p50_ms on chip_flow",
    "circuit.settle.calls": "items_per_s on chip_flow (0 elsewhere)",
    "circuit.settle.ms": "items_per_s on chip_flow",
    "circuit.settle.ms_per_char": "items_per_s on chip_flow",
    "sim.latency_p50_beats": "simulated channel, farm_* (must repeat exactly per seed)",
    "sim.latency_p99_beats": "simulated channel, farm_* (must repeat exactly per seed)",
    "sim.ns_per_char": "simulated data rate, farm_* and chip_flow (paper: 250 ns/char)",
    "trace.wall_ms": "the traced wall per request that the layer rows add up to",
    "unattributed_ms": "the remainder of trace.wall_ms no layer row claims",
    "obs.overhead_ratio": "none: a guard on the tracing itself",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> str:
    """The highest of p99/p90 with at least ten samples beyond it.

    Printed beside the end-to-end metrics, not gated: on a shared 2-vCPU
    host the tail of the runtime moves by 30-50% between runs even at
    light load, more than any bound could allow.
    """
    n = len(values)
    q = 99 if n >= 1000 else 90 if n >= 100 else 50
    return f"p{q} {percentile(values, q):.4f} ms (n={n})"


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def degraded(jobs: int, attempted: int) -> str:
    """Jobs served by the software fallback or timed out, as a share.

    Printed, not gated: it is 0 on a healthy farm, and a gated metric
    must never read 0.
    """
    return f"{jobs / max(1, attempted):.6f} ({jobs} of {attempted} jobs)"


#: Set-up time goes on the probe's reference clock at this damped power.
#: Over four sets of ten runs per workload on a 2-core x86 box, raw
#: set-up medians drifted up to 30% between sets as the host changed
#: speed; scaled by the run's probe at the power 0.5, within 11%.
SETUP_POWER = 0.5


class SetupClock:
    """Host-speed probes taken beside each timed set-up step."""

    def __init__(self) -> None:
        self.probes: List[float] = []

    def mark(self) -> None:
        self.probes.append(probe())

    def ref(self, seconds: float) -> float:
        """Set-up *seconds* in reference seconds."""
        return scale(seconds, median(self.probes), SETUP_POWER)


def import_s(*modules: str, clock: SetupClock) -> float:
    """Median seconds to import *modules* in a fresh interpreter.

    The import is the part of set-up a process pays only once, so it is
    timed in five child interpreters, where numpy and the rest are
    still unloaded, and the median is taken.
    """
    code = ("import time; t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(5):
        clock.mark()
        times.append(float(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True, timeout=120,
        ).stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def meta(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Runner identity: compare runs only within one runner class."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "commit": _commit(),
    }


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: Printed beside the metrics but not part of the JSON result.
    detail: Dict[str, object] = field(default_factory=dict)
    layer_rows: List[Dict[str, object]] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int,
            note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), note)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(why)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def emit(out: Outcome, info: Dict[str, object], wanted: Sequence[str]) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    print(f"meta {json.dumps(info, sort_keys=True)}")
    for key, value in out.detail.items():
        print(f"detail {key} = {value}")
    if out.layer_rows:
        print(f"{'layer':34s} {'host_ms/req':>12s} {'share':>7s} "
              f"{'calls/req':>10s} {'sim_beats/req':>14s}  thread")
        for row in out.layer_rows:
            beats = row.get("beats")
            print(
                f"{row['layer']:34s} {row['ms']:12.4f} {row['share']:7.3f} "
                f"{row['calls']:10.2f} "
                f"{'' if beats is None else format(beats, '.1f'):>14s}  "
                f"{row['thread']}"
            )
    for name in wanted:
        m = out.metrics[name]
        target = LAYER_TARGETS.get(name, "")
        print(
            f"metric {name} = {m.value:.6g} {m.unit} (n={m.samples})"
            + (f" [{m.note}]" if m.note else "")
            + (f" moves: {target}" if target else "")
        )
    for err in out.errors:
        print(f"error {err}", file=sys.stderr)
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name].value,
                   "unit": out.metrics[name].unit}
            for name in wanted
        },
    }
    print(json.dumps(result))
