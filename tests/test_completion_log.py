"""Completed-results bookkeeping of both front doors.

``drain()`` and ``results()`` hand back every result so far in job-id
order, although completions arrive out of id order: a wide sharded job
finishes after the narrow batch admitted behind it, fault retries land
late, empty and cached jobs complete at submission, and a rejected
``submit_many`` leaves an id gap.  Every case here is deterministic.
"""

import asyncio
import bisect
import random
from dataclasses import dataclass

import pytest

from repro import Alphabet, match_oracle, parse_pattern
from repro.chip.chip import ChipSpec
from repro.errors import BackpressureError
from repro.runtime import AsyncMatcherService, RuntimeConfig, WorkerPool
from repro.service import (
    FaultInjector,
    MatcherService,
    Priority,
    SchedulerConfig,
    uniform_pool,
)
from repro.service import completion
from repro.service.completion import CompletionLog

AB = Alphabet("ABCD")
WIDE = "ABCDACBDABCACDBA" * 64  # 1024 chars: sharded across workers
NARROW = ["ABCA" * k for k in range(1, 9)]


def _ids(results):
    return [r.job_id for r in results]


def _completed_out_of_id_order(results):
    """Some job finished later than a job with a higher id."""
    latest = float("-inf")
    for r in results:
        if r.finished_beat < latest:
            return True
        latest = max(latest, r.finished_beat)
    return False


def check_snapshots(results, snapshot):
    """The shared contract of ``drain()``/``results()`` snapshots:
    *results* came from one, *snapshot* takes the next."""
    ids = _ids(results)
    assert ids == sorted(set(ids)), "job-id order, each job once"
    again = snapshot()
    assert again == results and again is not results
    results.clear()  # a caller mutating its copy ...
    assert snapshot() == again  # ... does not reach the service
    return ids


# -- the log itself -----------------------------------------------------------


@dataclass(frozen=True)
class _R:
    job_id: int


class TestCompletionLog:
    def test_snapshot_is_id_ordered_whatever_the_arrival_order(self):
        rng = random.Random(5)
        ids = list(range(200))
        rng.shuffle(ids)
        log = CompletionLog()
        seen = []
        for i, jid in enumerate(ids):
            log.add(_R(jid))
            seen.append(jid)
            if i % 17 == 0:  # interleave snapshots with arrivals
                assert _ids(log.snapshot()) == sorted(seen)
        assert _ids(log.snapshot()) == list(range(200))

    def test_snapshot_is_a_fresh_list(self):
        log = CompletionLog()
        for jid in (2, 0, 1):
            log.add(_R(jid))
        first = log.snapshot()
        first.append(_R(99))
        first.reverse()
        assert _ids(log.snapshot()) == [0, 1, 2]

    def test_get_finds_settled_and_fresh_results(self):
        log = CompletionLog()
        for jid in (4, 7, 1):
            log.add(_R(jid))
        log.snapshot()
        log.add(_R(3))
        assert log.get(3) == _R(3) and log.get(7) == _R(7)
        assert log.get(2) is None and log.get(8) is None
        assert _ids(log.snapshot()) == [1, 3, 4, 7]

    def test_runs_without_bisect_key_argument(self, monkeypatch):
        # bisect's ``key=`` argument needs Python 3.10; the package
        # supports 3.9, so the log must work with the 3.9 signature.
        def bisect_left_39(a, x, lo=0, hi=None):
            return bisect.bisect_left(a, x, lo, len(a) if hi is None else hi)

        monkeypatch.setattr(completion, "bisect_left", bisect_left_39)
        log = CompletionLog()
        for jid in (5, 2, 9):
            log.add(_R(jid))
        assert log.get(9) == _R(9)
        for jid in (1, 7):  # below the settled tail
            log.add(_R(jid))
        assert _ids(log.snapshot()) == [1, 2, 5, 7, 9]
        assert log.get(7) == _R(7) and log.get(6) is None


# -- sync farm ----------------------------------------------------------------


def _farm(faults=None, **config):
    return MatcherService(
        uniform_pool(4, ChipSpec(8, 2), AB),
        config=SchedulerConfig(wide_text_threshold=256, min_shard_chars=64,
                               **config),
        faults=faults,
    )


def _check_farm(svc, expected):
    results = svc.drain()
    ids = check_snapshots(results, svc.results)
    assert ids == sorted(expected)
    snap = svc.results()
    assert len(snap) == svc.telemetry.completed
    assert svc.telemetry.makespan_beats == max(r.finished_beat for r in snap)
    for r in snap:
        pattern, text = expected[r.job_id]
        assert r.results == match_oracle(parse_pattern(pattern, AB),
                                         list(text))
    return snap


class TestSyncFarm:
    def test_wide_sharded_job_before_a_narrow_batch(self):
        svc = _farm()
        expected = {svc.submit("ABXC", WIDE): ("ABXC", WIDE)}
        # Served first by priority, so done before the wide job.
        ids = svc.submit_many("AXC", NARROW, priority=Priority.INTERACTIVE)
        for jid in ids:
            expected[jid] = ("AXC", NARROW[jid - 1])
        snap = _check_farm(svc, expected)
        assert snap[0].mode == "text-sharded"
        assert _completed_out_of_id_order(snap)

    def test_result_settled_below_the_tail_of_an_earlier_snapshot(self):
        svc = _farm()
        wide = svc.submit("ABXC", WIDE)
        empty, = svc.submit_many("AB", [""])  # completes at submission
        assert _ids(svc.results()) == [empty]
        _check_farm(svc, {wide: ("ABXC", WIDE), empty: ("AB", "")})

    def test_seeded_fault_retries(self):
        svc = _farm(FaultInjector(seed=11, p_death=0.2, p_stuck=0.3))
        expected = {}
        for round_ in range(3):
            jid = svc.submit("ABXC", WIDE)
            expected[jid] = ("ABXC", WIDE)
            texts = [t[round_:] + "D" for t in NARROW]
            for jid, text in zip(svc.submit_many("AXC", texts), texts):
                expected[jid] = ("AXC", text)
            _check_farm(svc, expected)
        assert svc.telemetry.retries > 0
        assert _completed_out_of_id_order(svc.results())

    def test_id_gap_from_a_rejected_submit_many(self):
        svc = _farm(queue_capacity=1, degrade_when_saturated=False,
                    max_batch_jobs=2)
        expected = {}
        with pytest.raises(BackpressureError):
            svc.submit_many("AXC", NARROW)
        # The first batch was admitted; the rest were rolled back.
        for jid in (0, 1):
            expected[jid] = ("AXC", NARROW[jid])
        _check_farm(svc, expected)
        later = svc.submit("ABXC", WIDE)
        assert later == len(NARROW)  # ids 2..7 stay unused
        expected[later] = ("ABXC", WIDE)
        assert _ids(_check_farm(svc, expected)) == [0, 1, later]


# -- async runtime ------------------------------------------------------------


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def shared_pool():
    pool = WorkerPool(2, AB).start()
    yield pool
    pool.shutdown()


def _check_runtime(svc, results):
    ids = check_snapshots(results, svc.results)
    assert len(ids) == svc.completed
    return ids


class TestAsyncRuntime:
    def test_jobs_done_at_submission_overtake_a_wide_job(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            wide = await svc.submit("ABXC", WIDE * 16)
            quick = await svc.submit_many("AB", ["", ""])
            early = _ids(svc.results())
            results = await svc.drain()
            return svc, wide, quick, early, results

        svc, wide, quick, early, results = run(go())
        assert early == quick  # done before the wide job, id below theirs
        ids = _check_runtime(svc, results)
        assert ids == [wide] + quick

    def test_seeded_fault_retries(self):
        # Its own pool: a worker that dies stays out of dispatch.
        async def go():
            async with AsyncMatcherService(
                2, AB, faults=FaultInjector(seed=7, p_death=0.35),
            ) as svc:
                jids = []
                for round_ in range(2):
                    jids.append(await svc.submit("ABXC", WIDE))
                    jids += await svc.submit_many(
                        "AXC", [t[round_:] + "D" for t in NARROW]
                    )
                    jids += await svc.submit_many("AB", [""])
                    results = await svc.drain()
            return svc, jids, results

        svc, jids, results = run(go())
        assert svc.retries > 0
        assert _check_runtime(svc, results) == jids

    def test_id_gap_from_a_rejected_submit_many(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(
                pool=shared_pool,
                config=RuntimeConfig(max_pending=1,
                                     degrade_when_saturated=False),
            )
            await svc.start()
            first = await svc.submit("ABXC", WIDE)
            with pytest.raises(BackpressureError):
                await svc.submit_many("AXC", NARROW)
            await svc.drain()
            later = await svc.submit("AXC", NARROW[0])
            results = await svc.drain()
            return svc, first, later, results

        svc, first, later, results = run(go())
        assert later == first + 2  # the rejected job's id stays unused
        assert _check_runtime(svc, results) == [first, later]
