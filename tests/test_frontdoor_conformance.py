"""One front door, three pools: the same input takes the same route.

Every case runs through the beat-clock farm (`MatcherService` over
`FarmPool`), the process runtime (`AsyncMatcherService` over
`ProcessPool`) and the fake pool of ``test_service_core.py`` plugged
into the unchanged `FrontDoor`, for every registry workload.  All three
must return the same results (the oracle's, element types included),
the same route per position and the same route counts.  Device routes
are one label: the farm reports ``direct``/``multipass``/
``text-sharded``, the runtime ``pool`` and the fake ``direct``.  All
hand out the same job ids.  No sleeps and no reliance on reply order:
the seeded-fault cases kill exactly one unit's first launch, so no
outcome depends on which reply arrives first.
"""

import asyncio

import pytest

from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.errors import BackpressureError, ReproError, ServiceError
from repro.obs import Observability
from repro.runtime import AsyncMatcherService, RuntimeConfig, WorkerPool
from repro.service import (
    FaultInjector,
    FaultKind,
    MatcherService,
    ResultCache,
    SchedulerConfig,
    uniform_pool,
)
from repro.workloads import get_workload, list_workloads, run_workload
from test_service_core import FakeDoor, FakePool

AB = Alphabet("ABCD")
MAX_BATCH = 2  # so three unique streams leave a trailing one-job chunk
DEVICE = {"pool", "direct", "multipass", "text-sharded"}

#: case -> (how the streams are submitted, the route each position takes)
CASES = {
    "submit": ("submit", ["device"]),
    "submit_many_of_one": ("submit_many", ["device"]),
    # a, b batch together; the second a follows the first; c is the
    # trailing chunk of one job, so it runs solo.
    "mixed": ("submit_many",
              ["batched", "batched", "deduped", "empty", "device"]),
    "warm_cache": ("submit_many",
                   ["cached", "cached", "cached", "empty", "cached"]),
    # Every representative is shed to the software baseline; its
    # duplicates follow it instead of running the oracle again.
    "saturated": ("submit_many",
                  ["software", "software", "deduped", "software", "deduped"]),
}

#: The seeded-death cases run the mixed case on two workers under
#: ``FaultInjector(seed, p_death=P_DEATH)``.  All three pools take one
#: fault sample per launch: the solo job, then the batch plan, then each
#: retry of the one unit that died.  A worker that dies stays out of
#: dispatch in all three, so the unit whose two launches both die finds no
#: live worker left and is served from software.  Per case: the seed,
#: which of those samples kill a worker, the routes, the expected
#: (batches, batched_jobs, retries, fallbacks, deaths) and each job's
#: attempts.
P_DEATH = 0.3
MIXED = CASES["mixed"][1]
EXHAUSTED = ["software", "software", "deduped", "empty", "device"]
DEATHS = {
    "solo-retried": (3, [True, False, False], MIXED, (1, 2, 1, 0, 1),
                     [0, 0, 0, 0, 1]),
    "batch-retried": (22, [False, True, False], MIXED, (1, 2, 1, 0, 1),
                      [1, 1, 0, 0, 0]),
    "batch-exhausted": (15, [False, True, True], EXHAUSTED, (1, 2, 1, 2, 2),
                        [2, 2, 0, 0, 0]),
}


def _deaths(seed, n):
    """Which of the first *n* fault samples of *seed* kill a worker."""
    probe = FaultInjector(seed=seed, p_death=P_DEATH)
    return [f is not None and f.kind is FaultKind.WORKER_DEATH
            for f in (probe.sample() for _ in range(n))]


def _faults(seed):
    return None if seed is None else FaultInjector(seed=seed, p_death=P_DEATH)


def _inputs(name, case):
    """(params, the case's streams, a filler stream) for *name*."""
    if get_workload(name).numeric:
        params = [1.0, -2.0, 3.0]
        a, b, c, filler = (
            [float((i * k) % 7 - 3) for i in range(12 + k)]
            for k in (1, 2, 3, 4)
        )
        empty = []
    else:
        params = "AXC"
        a, b, c, filler = "ABCAACAC", "CACCABAB", "BBCAACCA", "DDDAACCD"
        empty = ""
    streams = {
        "submit": [a],
        "submit_many_of_one": [a],
        "mixed": [a, b, a, empty, c],
        "warm_cache": [a, b, a, empty, c],
        "saturated": [a, b, a, c, b],
    }[case]
    return params, streams, filler


def _label(mode):
    return "device" if mode in DEVICE else mode


def _door(kind, max_batch=MAX_BATCH, capacity=None, cache=None,
          faults=None, obs=None, degrade=True):
    """A synchronous front door over the farm's pool or the fake one;
    *capacity* is the farm's queue bound or the fake's pending bound."""
    config = SchedulerConfig(max_batch_jobs=max_batch,
                             queue_capacity=capacity or 64,
                             degrade_when_saturated=degrade)
    if kind == "farm":
        return MatcherService(uniform_pool(2, ChipSpec(8, 2), AB),
                              config=config, cache=cache, faults=faults,
                              obs=obs)
    return FakeDoor(FakePool(2, faults, capacity), config, cache, obs)


def _sync(name, case, seed=None, kind="farm"):
    via, _ = CASES[case]
    params, streams, filler = _inputs(name, case)
    cache = ResultCache()
    svc = _door(kind, capacity=1 if case == "saturated" else None,
                cache=cache, faults=_faults(seed))
    if case == "warm_cache":
        svc.submit_many(params, streams, workload=name)
        svc.drain()
    if case == "saturated":
        svc.submit(params, filler, workload=name)  # fills the one slot

    def counts():
        t = svc.counters
        return (cache.hits, t.deduped, t.batches, t.batched_jobs,
                t.fallbacks, t.retries, t.deaths)

    before = counts()
    if via == "submit":
        ids = [svc.submit(params, streams[0], workload=name)]
    else:
        ids = svc.submit_many(params, streams, workload=name)
    done = {r.job_id: r for r in svc.drain()}
    return ([done[i].results for i in ids],
            [_label(done[i].mode) for i in ids],
            tuple(x - y for x, y in zip(counts(), before)),
            [done[i].attempts for i in ids])


def _async(pool, name, case, seed=None):
    via, _ = CASES[case]
    params, streams, filler = _inputs(name, case)

    async def go():
        config = RuntimeConfig(
            max_batch_jobs=MAX_BATCH,
            max_pending=1 if case == "saturated" else 256,
        )
        cache = ResultCache()
        svc = AsyncMatcherService(pool=pool, config=config, cache=cache,
                                  faults=_faults(seed))
        await svc.start()
        if case == "warm_cache":
            await svc.submit_many(params, streams, workload=name)
            await svc.drain()
        if case == "saturated":
            # Stays pending: its reply is handled only once this task
            # next yields to the event loop.
            await svc.submit(params, filler, workload=name)

        def counts():
            return (cache.hits, svc.deduped, svc.batches, svc.batched_jobs,
                    svc.fallbacks, svc.retries, svc.deaths)

        before = counts()
        if via == "submit":
            ids = [await svc.submit(params, streams[0], workload=name)]
        else:
            ids = await svc.submit_many(params, streams, workload=name)
        done = {r.job_id: r for r in await svc.drain()}
        return ([done[i].results for i in ids],
                [_label(done[i].mode) for i in ids],
                tuple(x - y for x, y in zip(counts(), before)),
                [done[i].attempts for i in ids])

    return asyncio.run(go())


@pytest.fixture(scope="module")
def shared_pool():
    pool = WorkerPool(2, AB).start()
    yield pool
    pool.shutdown()


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("name", list_workloads())
def test_front_doors_agree(shared_pool, name, case):
    sync = _sync(name, case)
    runtime = _async(shared_pool, name, case)
    assert sync == runtime == _sync(name, case, kind="fake")

    results, routes, counts, attempts = sync
    hits, deduped, batches, batched_jobs, fallbacks, retries, deaths = counts
    assert routes == CASES[case][1]
    oracle = _oracle(name, case)
    assert results == oracle
    # `==` accepts 1 == True and numpy scalars; the element types must
    # be the oracle's too, through every pool.
    oracle_types = [[type(v) for v in r] for r in oracle]
    for got in (results, runtime[0]):
        assert [[type(v) for v in r] for r in got] == oracle_types
    assert hits == routes.count("cached")
    assert deduped == routes.count("deduped")
    assert batched_jobs == routes.count("batched")
    assert batches == (1 if batched_jobs else 0)
    assert fallbacks == routes.count("software")
    assert retries == deaths == 0
    assert attempts == [0] * len(routes)


def _oracle(name, case):
    params, streams, _ = _inputs(name, case)
    return [run_workload(name, params, s, AB, engine="oracle")
            for s in streams]


@pytest.fixture
def own_pool():
    """A fresh 2-process pool: a worker that dies stays out of dispatch,
    so a death case must not share its pool."""
    pool = WorkerPool(2, AB).start()
    yield pool
    pool.shutdown()


@pytest.mark.parametrize("case", list(DEATHS))
@pytest.mark.parametrize("name", list_workloads())
def test_front_doors_agree_under_seeded_deaths(own_pool, name, case):
    """The mixed case with seeded worker deaths in one unit on two
    workers: the solo job's or the batch plan's first launch dies and
    is retried once on the other worker, or the batch plan dies on both
    and its members are served from software.  All three pools return
    the oracle's results on the same routes and count the same batch
    plans (one, counted when it is queued, whatever its fate), batched
    jobs, retries, fallbacks, deaths and per-job attempts."""
    seed, deaths, want_routes, want_counts, want_attempts = DEATHS[case]
    assert _deaths(seed, len(deaths)) == deaths
    sync = _sync(name, "mixed", seed)
    assert sync == _async(own_pool, name, "mixed", seed)
    assert sync == _sync(name, "mixed", seed, kind="fake")

    results, routes, counts, attempts = sync
    hits, deduped, batches, batched_jobs, fallbacks, retries, deaths = counts
    assert results == _oracle(name, "mixed")
    assert routes == want_routes
    assert (hits, deduped) == (0, 1)
    assert (batches, batched_jobs, retries, fallbacks, deaths) == want_counts
    assert attempts == want_attempts


def _sync_calls(name, calls, timeout=None, faults=None, kind="farm"):
    """Each ``submit_many`` call's ids, and the last call's (route,
    timed_out, attempts) per position, from a synchronous front door."""
    params, streams, _ = _inputs(name, "mixed")
    svc = _door(kind, faults=faults)
    ids = [svc.submit_many(params, streams, workload=name, timeout=timeout)
           for _ in range(calls)]
    done = {r.job_id: r for r in svc.drain()}
    return ids, [(_label(done[i].mode), done[i].timed_out, done[i].attempts)
                 for i in ids[-1]]


def _async_calls(pool, name, calls, timeout=None, faults=None,
                 stuck_stall_s=0.0):
    """The same, from the runtime."""
    params, streams, _ = _inputs(name, "mixed")

    async def go():
        config = RuntimeConfig(max_batch_jobs=MAX_BATCH,
                               stuck_stall_s=stuck_stall_s)
        svc = AsyncMatcherService(pool=pool, config=config, faults=faults)
        await svc.start()
        ids = [await svc.submit_many(params, streams, workload=name,
                                     timeout=timeout)
               for _ in range(calls)]
        done = {r.job_id: r for r in await svc.drain()}
        return ids, [(_label(done[i].mode), done[i].timed_out,
                      done[i].attempts) for i in ids[-1]]

    return asyncio.run(go())


@pytest.mark.parametrize("name", list_workloads())
def test_front_doors_hand_out_the_same_job_ids(shared_pool, name):
    """Two consecutive mixed calls (a batch plan, a follower, an empty
    stream and a solo job each): runtime units take wire ids of their
    own, so neither front door skips a job id."""
    sync_ids, _ = _sync_calls(name, 2)
    assert sync_ids == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert _async_calls(shared_pool, name, 2)[0] == sync_ids
    assert _sync_calls(name, 2, kind="fake")[0] == sync_ids


#: Every launch is stuck for STUCK_BEATS: past the farm's and the
#: fake's 1-tick deadline at launch, and in the runtime a stall 30x its
#: 10 ms deadline, so every representative times out before any reply.
STUCK_BEATS = 100


def _stuck():
    return FaultInjector(seed=5, p_stuck=1.0,
                         stuck_beats=(STUCK_BEATS, STUCK_BEATS))


@pytest.mark.parametrize("name", list_workloads())
def test_follower_reports_its_representatives_timeout(shared_pool, name):
    """Every representative misses its deadline and is served from
    software; its duplicate reports the same fate (``timed_out``) in
    every front door, and the empty stream never times out.  A deadline
    shed is not a failed execution: every job reports 0 attempts."""
    _, sync = _sync_calls(name, 1, timeout=1.0, faults=_stuck())
    _, runtime = _async_calls(shared_pool, name, 1, timeout=0.01,
                              faults=_stuck(), stuck_stall_s=0.003)
    _, fake = _sync_calls(name, 1, timeout=1.0, faults=_stuck(), kind="fake")
    assert sync == runtime == fake == [
        ("software", True, 0), ("software", True, 0), ("deduped", True, 0),
        ("empty", False, 0), ("software", True, 0),
    ]


#: Counters every front door keeps (``JobCounters`` names).
COUNTER_NAMES = ("submitted", "completed", "deduped", "batches",
                 "batched_jobs", "retries", "deaths", "fallbacks",
                 "timeouts", "backpressure_hits")


def _one(name, case):
    """(params, stream) of a submit_many_of_one case."""
    spec = get_workload(name)
    params = [1.0, -2.0, 3.0] if spec.numeric else "AXC"
    stream = ([float(i % 5 - 2) for i in range(24)] if spec.numeric
              else "ABCAACACCABACCAB")
    return params, stream[:0] if case == "empty" else stream


def _one_sync(kind, name, case, via):
    """One submission of a submit_many_of_one case through a synchronous
    front door: (outcome, counter deltas to the end of its drain)."""
    params, stream = _one(name, case)
    saturated = case.startswith("saturated")
    svc = _door(kind, capacity=1 if saturated else None,
                cache=ResultCache(), degrade=case != "saturated-reject")

    def admit():
        if via == "submit":
            return svc.submit(params, stream, workload=name)
        [jid] = svc.submit_many(params, [stream], workload=name)
        return jid

    if case == "cached":
        admit()
        svc.drain()
    if saturated:
        svc.submit("AB", "ABAB")  # fills the one slot until the drain
    before = {k: getattr(svc.counters, k) for k in COUNTER_NAMES}
    try:
        jid = admit()
        r = {r.job_id: r for r in svc.drain()}[jid]
        outcome = (r.results, _label(r.mode), r.attempts, r.via_fallback,
                   r.timed_out)
    except BackpressureError:
        svc.drain()
        outcome = "rejected"
    return outcome, {k: getattr(svc.counters, k) - before[k]
                     for k in COUNTER_NAMES}


def _one_async(pool, name, case, via):
    """The same through the runtime: deltas up to the job's result."""
    params, stream = _one(name, case)

    async def go():
        cfg = RuntimeConfig(
            max_pending=1 if case.startswith("saturated") else 256,
            degrade_when_saturated=case != "saturated-reject",
        )
        svc = AsyncMatcherService(pool=pool, config=cfg, cache=ResultCache())
        await svc.start()

        async def admit():
            if via == "submit":
                return await svc.submit(params, stream, workload=name)
            [jid] = await svc.submit_many(params, [stream], workload=name)
            return jid

        if case == "cached":
            await svc.result(await admit())
        if case.startswith("saturated"):
            await svc.submit("AB", "ABAB")  # stays pending: no await yet
        before = {k: getattr(svc, k) for k in COUNTER_NAMES}
        try:
            r = await svc.result(await admit())
            outcome = (r.results, _label(r.mode), r.attempts,
                       r.via_fallback, r.timed_out)
        except BackpressureError:
            outcome = "rejected"
        delta = {k: getattr(svc, k) - before[k] for k in COUNTER_NAMES}
        await svc.drain()
        return outcome, delta

    return asyncio.run(go())


@pytest.mark.parametrize("case", [
    *list_workloads(), "empty", "cached", "saturated-degrade",
    "saturated-reject",
])
def test_submit_is_submit_many_of_one(shared_pool, case):
    """``submit(x)`` and ``submit_many([x])`` are one admission path in
    every front door: the same results, route and flags and the same
    counter deltas, for every workload and every inline route; and all
    three pools give the same outcome."""
    name = case if case in list_workloads() else "match"
    runs = {}
    for kind, run_one in (
        ("farm", lambda via: _one_sync("farm", name, case, via)),
        ("fake", lambda via: _one_sync("fake", name, case, via)),
        ("runtime", lambda via: _one_async(shared_pool, name, case, via)),
    ):
        single, many = run_one("submit"), run_one("submit_many")
        assert single == many
        runs[kind] = single
    outcome = runs["farm"][0]
    assert runs["fake"][0] == runs["runtime"][0] == outcome
    if case == "saturated-reject":
        assert outcome == "rejected"
        for _, delta in runs.values():
            assert (delta["backpressure_hits"], delta["submitted"]) == (1, 0)
        return
    params, stream = _one(name, case)
    assert outcome[0] == run_workload(name, params, stream, AB,
                                      engine="oracle")
    assert outcome[1] == {
        "empty": "empty", "cached": "cached", "saturated-degrade": "software",
    }.get(case, "device")
    assert runs["runtime"][1]["completed"] == 1
    # The synchronous doors' deltas run to the end of a drain, which
    # completes the filler too.
    filler = case.startswith("saturated")
    assert runs["farm"][1]["completed"] == runs["fake"][1]["completed"] == \
        1 + filler


def test_max_batch_jobs_validated():
    for config in (SchedulerConfig, RuntimeConfig):
        with pytest.raises(ServiceError):
            config(max_batch_jobs=0)


#: Calls that are rejected whole: a bad stream after good ones, and an
#: unknown priority class, which must not strand jobs in no queue.
INVALID = [(["ABAB", "BBAA", "ABZZ", "AAAA"], {}),
           (["ABCA", "AACC"], {"priority": 7})]


def test_invalid_later_stream_admits_nothing(shared_pool):
    """Bad input anywhere in the call rejects the whole call before any
    job is admitted, in every front door: no orphaned jobs, no open job
    spans, and drain cannot wait on anything."""
    for streams, kw in INVALID:
        for kind, job_span in (("farm", "service.job"),
                               ("fake", "fake.job")):
            obs = Observability()
            svc = _door(kind, obs=obs)
            with pytest.raises(ReproError):
                svc.submit_many("AB", streams, **kw)
            assert svc.counters.submitted == 0
            assert svc.drain() == []
            assert obs.tracer.find(job_span) == []

        async def go():
            obs = Observability()
            svc = AsyncMatcherService(pool=shared_pool, obs=obs)
            await svc.start()
            with pytest.raises(ReproError):
                await svc.submit_many("AB", streams, **kw)
            drained = await asyncio.wait_for(svc.drain(), timeout=10.0)
            return svc.submitted, drained, obs.tracer.find("runtime.job")

        assert asyncio.run(go()) == (0, [], [])
