"""farm_narrow and farm_wide: one closed-loop client on a long-lived
:class:`repro.service.MatcherService`.

A request is one ``submit_many`` (narrow) or ``submit`` (wide) call
together with the ``drain`` that completes it; its latency is what the
client waits for.  The timed phase is the sum of request latencies.

A run makes a fixed number of requests for its ``--seconds``, whatever
the speed of the program or the host, so every commit serves the same
requests and its service reaches the same size of completed-result
bookkeeping.

Oracle answers for all of them are computed ahead of the timed phase by
a second generator with the same seed (the inputs are regenerated for
the run, which allocates little).  The client's garbage is collected
before the timed phase, so the collections that land inside requests are
the service's own.

The farm is 8 single-chip workers of 16 cells x 2 bits with the result
cache on and a small seeded rate of worker deaths and stalls.  One
service lives for the whole run, so the growth of its completed-result
bookkeeping shows in latency and ``peak_rss_mb``.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Optional

from .common import (
    Outcome, SetupClock, degraded, import_s, median, peak_rss_mb, percentile,
    tail,
)
from .inputs import NarrowRequests, WideRequests
from .layers import LayerTimer, layer_table
from .oracle import Oracle, SpliceOracle, digest
from .speed import probe, scale

SETUP_REPEATS = 5
#: Requests every run makes at least; the simulated-time metrics are
#: taken over exactly this prefix, so they repeat exactly per seed.
MIN_REQUESTS = {"farm_narrow": 200, "farm_wide": 16}
#: Requests per second of ``--seconds``: about the rate the seed program
#: serves them at on a 2-core x86 box.  Fixed, so that the request count
#: does not follow the speed of the program under test.
REQUESTS_PER_S = {"farm_narrow": 115, "farm_wide": 24}
#: Throughput is the median over blocks of this many consecutive
#: requests, so a burst of load from elsewhere on the box moves it less.
BLOCK = {"farm_narrow": 36, "farm_wide": 8}

WARM_PARAMS = {
    "match": "AXB", "count": "AXB", "correlation": [1.0, -1.0],
    "inner-product": [1.0, 2.0], "convolution": [1.0, 1.0], "fir": [0.5, 1.0],
}


def _setup(seed: int):
    """Imports, then build + warm the farm SETUP_REPEATS times."""
    from repro.alphabet import Alphabet
    from repro.chip.chip import ChipSpec
    from repro.service import (
        FaultInjector, MatcherService, ResultCache, uniform_pool,
    )
    clock = SetupClock()
    imports = import_s("repro.alphabet", "repro.chip.chip", "repro.service",
                       clock=clock)
    alphabet = Alphabet("ABCD")

    def build():
        svc = MatcherService(
            uniform_pool(8, ChipSpec(16, 2), alphabet),
            faults=FaultInjector(seed=seed, p_death=0.001, p_stuck=0.01),
            cache=ResultCache(
                max_entries=2 * NarrowRequests.cache_entries_needed()
            ),
        )
        for wl, params in WARM_PARAMS.items():  # first-call costs
            texts = ["ABCDABCDAB", "DCBADCBADC"] if wl in ("match", "count") \
                else [[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]]
            svc.submit_many(params, texts, workload=wl)
        svc.drain()
        return svc

    builds = []
    svc = None
    for _ in range(SETUP_REPEATS):
        clock.mark()
        t = time.perf_counter()
        svc = build()
        builds.append(time.perf_counter() - t)
    return svc, alphabet, clock.ref(imports + median(builds))


def n_requests(name: str, seconds: float) -> int:
    return max(MIN_REQUESTS[name], round(seconds * REQUESTS_PER_S[name]))


def _generator(name: str, seed: int):
    return NarrowRequests(seed) if name == "farm_narrow" else WideRequests(seed)


def _answers(name: str, seed: int, alphabet, n: int) -> List[List[int]]:
    """Oracle digests for the first *n* requests of one seed, in order."""
    gen = _generator(name, seed)
    oracle = Oracle(alphabet)
    splices: Dict[str, SpliceOracle] = {}
    out = []
    for _ in range(n):
        req = gen.next()
        if name == "farm_wide":
            s = splices.get(req.workload)
            if s is None:
                s = splices[req.workload] = SpliceOracle(
                    oracle, req.workload, req.params, gen.bases[req.workload]
                )
            out.append([s.expect(req.texts[0])])
            continue
        out.append([oracle.expect(req.workload, req.params, text, key=tid)
                    for tid, text in zip(req.ids, req.texts)])
        oracle.forget(gen.live_ids())
    del gen, oracle, splices
    gc.collect()
    return out


class _Pass:
    """Everything one closed-loop pass measured."""

    def __init__(self) -> None:
        self.latencies: List[float] = []  # wall seconds
        self.probes: List[float] = []  # host-speed probe before each request
        self.req_jobs: List[int] = []
        self.req_items: List[int] = []
        self.wall = 0.0
        self.jobs = 0
        self.items = 0
        self.degraded = 0
        self.repeats = 0
        self.window: List[object] = []  # JobResults of the sim window
        self.window_items = 0
        self.results: List[object] = []  # every JobResult (traced pass)


def _closed_loop(name: str, svc, seed: int, answers: List[List[int]],
                 out: Outcome, timer: Optional[LayerTimer] = None) -> _Pass:
    """Make the requests *answers* are for, one at a time."""
    wide = name == "farm_wide"
    gen = _generator(name, seed)
    p = _Pass()
    min_req = MIN_REQUESTS[name]
    for want in answers:
        req = gen.next()
        out.attempted += len(req.texts)
        p.probes.append(probe(1))
        if timer is not None:
            timer.on = True
        error = None
        t0 = time.perf_counter()
        try:
            if wide:
                ids = [svc.submit(req.params, req.texts[0],
                                  workload=req.workload)]
            else:
                ids = svc.submit_many(req.params, req.texts,
                                      workload=req.workload)
            results = svc.drain()
        except Exception as exc:  # a failed request counts; the run goes on
            error = exc
        p.latencies.append(time.perf_counter() - t0)
        if timer is not None:
            timer.on = False
        p.wall += p.latencies[-1]
        if error is not None:
            p.req_jobs.append(0)
            p.req_items.append(0)
            out.fail(len(req.texts),
                     f"{name}: {type(error).__name__}: {error}")
            continue
        got = [_by_id(results, jid) for jid in ids]
        p.jobs += len(got)
        p.items += req.items
        p.req_jobs.append(len(got))
        p.req_items.append(req.items)
        p.repeats += req.repeats
        p.degraded += sum(1 for r in got if r.via_fallback or r.timed_out)
        if len(p.latencies) <= min_req:
            p.window.extend(got)
            p.window_items += req.items
        if timer is not None:
            p.results.extend(got)
        for r, w in zip(got, want):
            if digest(r.results) != w:
                out.fail(1, f"{name}: job {r.job_id} ({req.workload}) "
                            f"differs from the oracle")
    return p


def _blocks(p: _Pass, size: int) -> List[tuple]:
    """(jobs, items, reference seconds, scaled latencies) per run of
    *size* consecutive requests, scaled by the block's median probe."""
    out = []
    for i in range(0, len(p.latencies) - size + 1, size):
        host = median(p.probes[i:i + size])
        lat = [scale(t, host) for t in p.latencies[i:i + size]]
        out.append((sum(p.req_jobs[i:i + size]),
                    sum(p.req_items[i:i + size]), sum(lat), lat))
    return out


def _by_id(results, jid):
    r = results[jid] if jid < len(results) else None
    if r is None or r.job_id != jid:
        r = next(x for x in results if x.job_id == jid)
    return r


def _sim(p: _Pass, beat_ns: float) -> Dict[str, float]:
    """Simulated-time channel over the fixed first-requests window."""
    if not p.window:  # every request failed; the run is already red
        return {}
    lat = [r.latency_beats for r in p.window]
    span = max(r.finished_beat for r in p.window) - \
        min(r.submitted_beat for r in p.window)
    return {
        "sim.latency_p50_beats": percentile(lat, 50),
        "sim.latency_p99_beats": percentile(lat, 99),
        "sim.ns_per_char": span * beat_ns / p.window_items,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    svc, alphabet, setup_s = _setup(seed)
    if trace:
        return _traced(name, seed, seconds, out, svc, alphabet)
    answers = _answers(name, seed, alphabet, n_requests(name, seconds))
    p = _closed_loop(name, svc, seed, answers, out)
    blocks = _blocks(p, BLOCK[name])
    lat_ms = [1e3 * t for _, _, _, lat in blocks for t in lat]
    n = len(lat_ms)
    out.put("setup_s", setup_s, "s", SETUP_REPEATS,
            f"reference seconds: imports (median of 5 interpreters) + median of "
            f"{SETUP_REPEATS} build+warm-up runs")
    note = f"median over {len(blocks)} blocks of {BLOCK[name]} requests"
    out.put("jobs_per_s", median([j / t for j, _, t, _ in blocks]), "1/s",
            p.jobs, note)
    out.put("items_per_s", median([i / t for _, i, t, _ in blocks]), "1/s",
            p.items, note)
    out.put("latency_p50_ms", percentile(lat_ms, 50), "ms", n)
    out.detail["latency_tail"] = tail(lat_ms)
    out.detail["degraded_share"] = degraded(p.degraded, out.attempted)
    out.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    for key, value in _sim(p, svc.beat_ns).items():
        out.detail[key] = f"{value:.6g} (first {MIN_REQUESTS[name]} requests)"
    wall_ms = [1e3 * t for t in p.latencies]
    out.detail["wall_latency_ms"] = (
        f"p50 {percentile(wall_ms, 50):.4f} (unscaled); probe median "
        f"{1e3 * median(p.probes):.4f} ms"
    )
    return out


# -- the traced run --------------------------------------------------------

LAYERS = {
    "service.submit.self_ms": ("submit",),
    "workloads.validate_ms": ("validate",),
    "service.cache.key_ms": ("cache.key",),
    "service.cache.get_ms": ("cache.get",),
    "service.cache.put_ms": ("cache.put",),
    "service.drain.self_ms": ("drain",),
    "service.telemetry.ms": ("telemetry",),
    "service.scheduler.queue_ms": ("queue",),
    "service.sharding.plan_ms": ("plan",),
    "service.sharding.merge_ms": ("merge",),
    "core.kernel.ms": ("kernel",),
}


def install_validate_layers(timer: LayerTimer) -> None:
    """Input validation and preparation, shared by both front doors."""
    from repro.alphabet import Alphabet
    from repro.workloads import WORKLOADS, WorkloadSpec

    timer.patch(Alphabet, "validate_text", "validate")
    timer.patch(WorkloadSpec, "validate_stream", "validate")
    for spec in WORKLOADS.values():  # prepare is a per-spec field
        timer.patch(spec, "prepare", "validate")


def install_service_layers(timer: LayerTimer) -> None:
    """Wrap the sync farm's public calls."""
    import repro.service.service as service_mod
    from repro.service import (
        JobQueues, MatcherService, PoolWorker, ResultCache, ServiceTelemetry,
    )

    install_validate_layers(timer)
    timer.patch(MatcherService, "submit", "submit")
    timer.patch(MatcherService, "submit_many", "submit")
    timer.patch(MatcherService, "drain", "drain")
    timer.patch(service_mod, "result_cache_key", "cache.key")
    timer.patch(ResultCache, "get", "cache.get")
    timer.patch(ResultCache, "put", "cache.put")
    timer.patch(ServiceTelemetry, "record_job", "telemetry")
    timer.patch(ServiceTelemetry, "record_workload", "telemetry")
    timer.patch(JobQueues, "put", "queue")
    timer.patch(JobQueues, "pop", "queue")
    timer.patch(service_mod, "plan_shards", "plan")
    timer.patch(service_mod, "merge_shard_results", "merge")
    timer.patch(service_mod, "merge_shard_values", "merge")
    # Items per kernel call: the text (run_match(self, pattern, text),
    # run_kernel(self, spec, taps, stream)) or the batch's texts.
    one = lambda args, _r: len(args[-1])  # noqa: E731
    many = lambda args, _r: sum(len(t) for t in args[-1])  # noqa: E731
    timer.patch(PoolWorker, "run_match", "kernel", one)
    timer.patch(PoolWorker, "run_kernel", "kernel", one)
    timer.patch(PoolWorker, "run_match_batch", "kernel", many)
    timer.patch(PoolWorker, "run_kernel_batch", "kernel", many)


def _counters(svc) -> Dict[str, float]:
    t, c = svc.telemetry, svc.cache.stats()
    return {
        "hits": c["hits"], "misses": c["misses"], "deduped": t.deduped,
        "batches": t.batches, "batched_jobs": t.batched_jobs,
        "retries": t.retries, "fallbacks": t.fallbacks,
        "timeouts": t.timeouts,
    }


def _traced(name, seed, seconds, out: Outcome, svc_a, alphabet) -> Outcome:
    """Pass A, untraced, is the reference for the tracing overhead.
    Pass B runs the same requests on a fresh farm with every layer
    wrapped.  Both passes are oracle-checked."""
    n_req = n_requests(name, seconds / 2)
    answers = _answers(name, seed, alphabet, n_req)
    p_a = _closed_loop(name, svc_a, seed, answers, out)
    ref_a = sum(b[2] for b in _blocks(p_a, 1))
    del svc_a, p_a
    svc, _, _ = _setup(seed)
    before = _counters(svc)
    timer = LayerTimer()
    install_service_layers(timer)
    try:
        p = _closed_loop(name, svc, seed, answers, out, timer=timer)
    finally:
        timer.uninstall()
    delta = {k: v - before[k] for k, v in _counters(svc).items()}
    jobs = len(p.results)
    beats = {
        "service.scheduler.queue_ms": sum(r.wait_beats for r in p.results) / n_req,
        "core.kernel.ms": sum(r.service_beats for r in p.results) / n_req,
        "wall": sum(r.latency_beats for r in p.results) / n_req,
    }
    rows, rest = layer_table(timer, LAYERS, p.wall, n_req, beats)
    out.layer_rows = rows
    for row in rows[:len(LAYERS)]:
        out.put(row["layer"], row["ms"], "ms/req", n_req)
    wall_ms = 1e3 * p.wall / n_req
    out.put("trace.wall_ms", wall_ms, "ms/req", n_req)
    out.put("unattributed_ms", rest, "ms/req", n_req)
    check_layer_sum(out, name, rest, wall_ms)
    calls = timer.n_calls("kernel")
    out.put("core.kernel.calls", calls / n_req, "calls/req", calls)
    out.put("core.kernel.items_per_call",
            timer.n_items("kernel") / calls if calls else 0.0, "items", calls)
    lookups = delta["hits"] + delta["misses"]
    hit_ratio = delta["hits"] / lookups if lookups else 0.0
    dedup_ratio = delta["deduped"] / jobs
    out.put("service.cache.hit_ratio", hit_ratio, "ratio", lookups)
    out.put("service.dedup_ratio", dedup_ratio, "ratio", jobs)
    out.put("service.batch.jobs_per_batch",
            delta["batched_jobs"] / delta["batches"] if delta["batches"] else 0.0,
            "jobs", delta["batches"])
    generated = p.repeats / jobs
    out.detail["inputs.repeat_share"] = (
        f"{generated:.6f} generated; measured hit_ratio + dedup_ratio = "
        f"{hit_ratio + dedup_ratio:.6f}"
    )
    if abs(generated - (hit_ratio + dedup_ratio)) > 1e-9:
        out.fail(1, f"{name}: cache hits + dedups do not reproduce the "
                    f"generated repeat share")
    out.put("service.wait_beats_p99",
            percentile([r.wait_beats for r in p.results], 99), "beats", jobs)
    out.put("service.bus.utilization", svc.telemetry.bus_utilization(),
            "ratio", 1)
    for key in ("retries", "fallbacks", "timeouts"):
        out.put(f"service.{key}", delta[key], "count", jobs)
    for key, value in _sim(p, svc.beat_ns).items():
        out.put(key, value, "ns/char" if key.endswith("char") else "beats",
                len(p.window))
    out.put("obs.overhead_ratio",
            sum(b[2] for b in _blocks(p, 1)) / ref_a, "ratio", n_req,
            "traced wall / untraced wall over the same requests")
    return out


#: Largest share of the traced wall that no layer row may claim.
UNATTRIBUTED_LIMIT = 0.05


def check_layer_sum(out: Outcome, name: str, rest_ms: float,
                    wall_ms: float) -> None:
    """The layer rows must explain the traced wall.

    Layer self times plus ``unattributed_ms`` equal the wall by
    construction, so what is checked is the remainder: if work moves out
    of every wrapped call, the rows no longer say where the time goes.
    """
    share = rest_ms / wall_ms
    out.detail["trace.sum_check"] = (
        f"layers + unattributed = wall; unattributed share {share:.4f} "
        f"(limit {UNATTRIBUTED_LIMIT})"
    )
    if share > UNATTRIBUTED_LIMIT:
        out.fail(1, f"{name}: {share:.1%} of the traced wall is in no "
                    f"layer (limit {UNATTRIBUTED_LIMIT:.0%})")
