"""Both front doors, one planner: the same input takes the same route.

Every case runs through the beat-clock farm (`MatcherService`) and the
process runtime (`AsyncMatcherService`) for every registry workload.
Both must return the same results (the oracle's), the same route per
position and the same route counts.  Device routes are one label: the
farm reports ``direct``/``multipass``/``text-sharded`` where the runtime
reports ``pool``.  No sleeps, no reliance on reply order, and no
assertions on job ids (runtime batch ids share the job-id counter).
"""

import asyncio

import pytest

from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.runtime import AsyncMatcherService, RuntimeConfig, WorkerPool
from repro.service import (
    MatcherService,
    ResultCache,
    SchedulerConfig,
    uniform_pool,
)
from repro.workloads import get_workload, list_workloads, run_workload

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


def _sync(name, case):
    via, _ = CASES[case]
    params, streams, filler = _inputs(name, case)
    config = SchedulerConfig(
        max_batch_jobs=MAX_BATCH,
        queue_capacity=1 if case == "saturated" else 64,
    )
    cache = ResultCache()
    svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB),
                         config=config, cache=cache)
    if case == "warm_cache":
        svc.submit_many(params, streams, workload=name)
        svc.drain()
    if case == "saturated":
        svc.submit(params, filler, workload=name)  # fills the one slot

    def counts():
        t = svc.telemetry
        return (cache.hits, t.deduped, t.batches, t.batched_jobs,
                t.fallbacks)

    before = counts()
    if via == "submit":
        ids = [svc.submit(params, streams[0], workload=name)]
    else:
        ids = svc.submit_many(params, streams, workload=name)
    done = {r.job_id: r for r in svc.drain()}
    return ([done[i].results for i in ids],
            [_label(done[i].mode) for i in ids],
            tuple(x - y for x, y in zip(counts(), before)))


def _async(pool, name, case):
    via, _ = CASES[case]
    params, streams, filler = _inputs(name, case)

    async def go():
        config = RuntimeConfig(
            max_batch_jobs=MAX_BATCH,
            max_pending=1 if case == "saturated" else 256,
        )
        cache = ResultCache()
        svc = AsyncMatcherService(pool=pool, config=config, cache=cache)
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
                    svc.fallbacks)

        before = counts()
        if via == "submit":
            ids = [await svc.submit(params, streams[0], workload=name)]
        else:
            ids = await svc.submit_many(params, streams, workload=name)
        done = {r.job_id: r for r in await svc.drain()}
        return ([done[i].results for i in ids],
                [_label(done[i].mode) for i in ids],
                tuple(x - y for x, y in zip(counts(), before)))

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
    assert sync == runtime

    results, routes, (hits, deduped, batches, batched_jobs, fallbacks) = sync
    assert routes == CASES[case][1]
    params, streams, _ = _inputs(name, case)
    assert results == [
        run_workload(name, params, s, AB, engine="oracle") for s in streams
    ]
    assert hits == routes.count("cached")
    assert deduped == routes.count("deduped")
    assert batched_jobs == routes.count("batched")
    assert batches == (1 if batched_jobs else 0)
    assert fallbacks == routes.count("software")
