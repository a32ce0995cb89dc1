"""runtime_open: an open loop from one asyncio client into
:class:`repro.runtime.AsyncMatcherService`.

Jobs arrive on a seeded Poisson schedule at ``RATE`` jobs/s, from three
tenants over all six workloads, one ``submit`` per job.  One worker
process saturates near 250 jobs/s on a 2-core x86 box; 40 jobs/s keeps
queueing out of the latency, which is then mostly the wire (pickling,
queues, dispatch and collector threads).  A job's latency runs from its
scheduled send time to the moment its result reaches the client, so a
stalled client or service delays every job behind it.  Latencies are
wall-clock: no calibration tracked them (a ping through the same kind of
hand-offs doubled under CPU contention that left job latency flat).  No
faults are injected: injected stalls sleep, which would measure the
sleep.  The service runs ``nproc - 1`` worker processes.

A job crosses some six thread and process hand-offs, and at 40 jobs/s
the CPUs are idle between them.  On a virtual machine, waking an idle
CPU is slow and its cost follows the load on the physical host: the
same run read a p50 of 3.2 ms on a quiet host and 5.3-6.3 ms on a busy
one.  :func:`busy_cpus` therefore keeps every CPU out of idle with a
lowest-priority spinner per CPU, which any of the program's threads
preempts at once; with it the busy host read 3.2-3.5 ms.
The spinners are killed and waited for at the end of the run, and end
by themselves after ``deadline_s`` should the run itself be killed.
"""

from __future__ import annotations

import asyncio
import gc
import os
import pickle
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

from .common import (
    Outcome, SetupClock, degraded, import_s, median, peak_rss_mb, percentile,
    tail,
)
from .farm import WARM_PARAMS, check_layer_sum, install_validate_layers
from .inputs import Arrival, open_schedule
from .layers import LayerTimer, layer_table
from .oracle import Oracle, digest

RATE = 40.0
SETUP_REPEATS = 3
WORKERS = max(1, len(os.sched_getaffinity(0)) - 1)

#: One spinner: pinned to a CPU, at the idle scheduling class (nice 19
#: where that class is missing), ending by itself after a deadline.
_SPIN = """
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
end = time.monotonic() + float(sys.argv[2])
while time.monotonic() < end:
    pass
"""


@contextmanager
def busy_cpus(deadline_s: float = 170.0):
    """Run the block with a lowest-priority spinner on every CPU."""
    procs = [
        subprocess.Popen([sys.executable, "-c", _SPIN, str(cpu),
                          str(deadline_s)])
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        yield
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()


async def _build(alphabet, obs=None):
    from repro.runtime import AsyncMatcherService

    svc = AsyncMatcherService(WORKERS, alphabet, obs=obs)
    await svc.start()
    try:
        for wl, params in WARM_PARAMS.items():  # first-call costs
            text = "ABCDABCDAB" if wl in ("match", "count") \
                else [1.0, 2.0, 3.0, 4.0]
            await svc.result(await svc.submit(params, text, workload=wl))
    except BaseException:
        await svc.close(drain=False)
        raise
    return svc


async def _setup(alphabet):
    clock = SetupClock()
    imports = import_s("repro.alphabet", "repro.runtime", clock=clock)
    builds = []
    svc = None
    for _ in range(SETUP_REPEATS):
        if svc is not None:
            await svc.close()
        clock.mark()
        t = time.perf_counter()
        svc = await _build(alphabet)
        builds.append(time.perf_counter() - t)
    return svc, clock.ref(imports + median(builds))


class _Pass:
    def __init__(self, n: int) -> None:
        self.latency: List[Optional[float]] = [None] * n  # wall seconds
        self.results: List[object] = [None] * n
        self.late_max = 0.0
        self.wall = 0.0
        self.degraded = 0


async def _drive(svc, schedule: List[Arrival], answers: List[int],
                 out: Outcome,
                 timer: Optional[LayerTimer] = None) -> _Pass:
    p = _Pass(len(schedule))

    async def finish(i: int, jid: int, due: float) -> None:
        r = await svc.result(jid)
        p.latency[i] = time.perf_counter() - due
        p.results[i] = r

    def idle():
        # The client waiting for the next arrival or the last results;
        # replies handled on the loop meanwhile are counted here too.
        return timer.layer("loadgen.idle") if timer else nullcontext()

    tasks = []
    if timer is not None:
        timer.on = True
    start = time.perf_counter()
    for i, a in enumerate(schedule):
        due = start + a.at_s
        with idle():
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        p.late_max = max(p.late_max, time.perf_counter() - due)
        out.attempted += 1
        try:
            jid = await svc.submit(a.params, a.text, tenant=a.tenant,
                                   workload=a.workload)
        except Exception as exc:  # rejected: counts as failed
            out.fail(1, f"runtime_open: {type(exc).__name__}: {exc}")
            continue
        tasks.append((i, asyncio.ensure_future(finish(i, jid, due))))
    with idle():
        for i, task in tasks:
            try:
                await task
            except Exception as exc:
                out.fail(1, f"runtime_open: job {i}: "
                            f"{type(exc).__name__}: {exc}")
    p.wall = time.perf_counter() - start
    if timer is not None:
        timer.on = False
    for i, r in enumerate(p.results):
        if r is None:
            continue
        if r.via_fallback or r.timed_out:
            p.degraded += 1
        if digest(r.results) != answers[i]:
            out.fail(1, f"runtime_open: job {i} ({schedule[i].workload}) "
                        f"differs from the oracle")
    return p


def _latency_ms(p: _Pass) -> List[float]:
    return [1e3 * lat for lat in p.latency if lat is not None]


def _prepare(seed: int, duration: float, alphabet):
    """The schedule and its oracle answers, then a clean, frozen heap so
    the schedule's texts are not traversed by collections in the run.

    Call it before any service is built: the freeze then holds the
    benchmark's own data (and the modules imported so far), while the
    service's heap is collected as it would be in normal use.
    """
    schedule = open_schedule(seed, RATE, duration)
    oracle = Oracle(alphabet)
    answers = [oracle.expect(a.workload, a.params, a.text) for a in schedule]
    gc.collect()
    gc.freeze()
    return schedule, answers


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    with busy_cpus():
        return asyncio.run(_run(seed, seconds, trace))


async def _run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.alphabet import Alphabet

    out = Outcome()
    alphabet = Alphabet("ABCD")
    if trace:
        return await _traced(seed, seconds, out, alphabet)
    schedule, answers = _prepare(seed, seconds, alphabet)
    svc, setup_s = await _setup(alphabet)
    try:
        p = await _drive(svc, schedule, answers, out)
        stats = svc.stats()
    finally:
        await svc.close()
    done = [r for r in p.results if r is not None]
    lat_ms = _latency_ms(p)
    items = sum(len(schedule[i].text) for i, r in enumerate(p.results)
                if r is not None)
    out.put("setup_s", setup_s, "s", SETUP_REPEATS,
            f"reference seconds: imports (median of 5 interpreters) + median of "
            f"{SETUP_REPEATS} start+warm-up runs "
            f"({WORKERS} worker processes)")
    # Below saturation both rates are set by the open-loop schedule, not
    # by the program: they show a regression only once the service can
    # no longer keep up with RATE.
    fixed = f"offered {RATE:g} jobs/s: set by the load generator"
    out.put("jobs_per_s", len(done) / p.wall, "1/s", len(done), fixed)
    out.put("items_per_s", items / p.wall, "1/s", items, fixed)
    out.put("latency_p50_ms", percentile(lat_ms, 50), "ms", len(lat_ms))
    out.detail["latency_tail"] = tail(lat_ms)
    out.detail["degraded_share"] = degraded(p.degraded, out.attempted)
    out.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    out.detail["loadgen.late_ms_max"] = f"{1e3 * p.late_max:.3f}"
    out.detail["runtime.stats"] = stats
    return out


# -- the traced run --------------------------------------------------------

LAYERS = {
    "runtime.submit.self_ms": ("rt.submit",),
    "runtime.pool.submit_ms": ("rt.pool.submit",),
    "workloads.validate_ms": ("validate",),
    "service.cache.key_ms": ("cache.key",),
    "runtime.wire.send_ms": ("rt.wire.send",),
    "loadgen.idle_ms": ("loadgen.idle",),
}
SIDE = ("runtime.wire.send_ms",)


def _install(timer: LayerTimer) -> None:
    import repro.runtime.service as runtime_mod
    from repro.runtime import AsyncMatcherService, Channel, JobReply, JobRequest, WorkerPool

    def size(message) -> int:
        if isinstance(message, (JobRequest, JobReply)):
            return len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
        return 0

    install_validate_layers(timer)
    timer.patch(AsyncMatcherService, "submit", "rt.submit")
    timer.patch(WorkerPool, "submit", "rt.pool.submit")
    timer.patch(runtime_mod, "result_cache_key", "cache.key")
    # Wire bytes are computed by pickling each request and reply again,
    # after the clock of the call stops.
    timer.patch(Channel, "send", "rt.wire.send", lambda a, _r: size(a[1]))
    timer.patch(Channel, "recv", "rt.wire.recv", lambda _a, r: size(r))


async def _traced(seed, seconds, out: Outcome, alphabet) -> Outcome:
    """Pass A (untraced) and pass B (obs attached, layers wrapped) over
    the same schedule, each on its own freshly started service."""
    from repro.obs import Observability

    schedule, answers = _prepare(seed, seconds / 2, alphabet)
    svc_a = await _build(alphabet)
    try:
        p_a = await _drive(svc_a, schedule, answers, out)
    finally:
        await svc_a.close()
    obs = Observability()
    svc = await _build(alphabet, obs=obs)
    before = svc.stats()
    timer = LayerTimer()
    _install(timer)
    try:
        p = await _drive(svc, schedule, answers, out, timer)
    finally:
        timer.uninstall()
        after = svc.stats()
        await svc.close()
    n = len(schedule)
    rows, rest = layer_table(timer, LAYERS, p.wall, n, side=SIDE)
    out.layer_rows = rows
    for row in rows[:len(LAYERS)]:
        out.put(row["layer"], row["ms"], "ms/req", n)
    wall_ms = 1e3 * p.wall / n
    out.put("trace.wall_ms", wall_ms, "ms/req", n)
    out.put("unattributed_ms", rest, "ms/req", n,
            "the client's own loop and the event loop's other tasks")
    check_layer_sum(out, "runtime_open", rest, wall_ms)
    wire = timer.n_items("rt.wire.send", "rt.wire.recv")
    out.put("runtime.wire.bytes_per_job", wire / n, "B", n,
            "computed: pickled JobRequest + JobReply sizes")
    done = [(i, r) for i, r in enumerate(p.results) if r is not None]
    # Warm-up jobs of the service's start also shipped spans: keep only
    # this pass's jobs.
    ids = {r.job_id for _, r in done}
    kernel = {jid: s for jid, s in _kernel_s_by_job(obs).items()
              if jid in ids}
    out.put("runtime.worker.kernel_ms", 1e3 * sum(kernel.values()) / n,
            "ms/req", len(kernel), "worker.kernel spans, in the worker process")
    overhead = [
        1e3 * (p.latency[i] - r.wait_s - kernel.get(r.job_id, 0.0))
        for i, r in done
    ]
    out.put("runtime.overhead_ms_p50", percentile(overhead, 50), "ms",
            len(overhead), "latency - wait - kernel")
    out.put("runtime.wait_ms_p99",
            percentile([1e3 * r.wait_s for _, r in done], 99), "ms", len(done))
    for key in ("fallbacks", "timeouts", "backpressure_hits"):
        out.put(f"runtime.{key}", after[key] - before[key], "count", n)
    out.put("loadgen.late_ms_max", 1e3 * p.late_max, "ms", n)
    lat_b = sum(_latency_ms(p))
    lat_a = sum(_latency_ms(p_a))
    out.put("obs.overhead_ratio", lat_b / lat_a, "ratio", n,
            "summed job latency traced / untraced, same schedule")
    return out


def _kernel_s_by_job(obs) -> Dict[int, float]:
    """Worker kernel seconds per job id, from the adopted worker spans."""
    job_of = {s.span_id: s.attrs.get("job_id")
              for s in obs.tracer.find("runtime.job")}
    out: Dict[int, float] = {}
    for s in obs.tracer.find("worker.kernel"):
        jid = job_of.get(s.parent_id)
        if jid is not None:
            out[jid] = out.get(jid, 0.0) + s.duration
    return out
