"""The sans-I/O service core, driven by an in-memory fake transport.

`ServiceCore` holds the job bookkeeping both front doors share:
admission after the planner, the one failure rule, software service,
settling and completion with follower fan-out.  Here a few lines of
fake transport drive it by hand: no processes, no queues, no wall
clock.  ``now`` is whatever the test passes, and "live workers" is a
number the test sets.
"""

import ast
import inspect
from types import SimpleNamespace

import pytest

from repro.alphabet import Alphabet
from repro.obs import Observability
from repro.service import core as core_module
from repro.service.cache import ResultCache, result_cache_key
from repro.service.core import ServiceCore, Trace
from repro.service.plan import parse_request, plan
from repro.service.reliability import RetryPolicy, SoftwareFallback
from repro.service.scheduler import Priority
from repro.workloads import run_workload
from repro.workloads.registry import to_list

AB = Alphabet("ABCD")
TRACE = Trace("ticks", "fake.job", "fake.software", "fake.timeout",
              ("mode", "attempts", "timed_out"))
COUNTERS = ("submitted", "completed", "deduped", "batches", "batched_jobs",
            "retries", "fallbacks", "timeouts")


class FakeTransport:
    """The smallest front door: it plans a call, admits it through the
    core, and runs units when the test says they succeed."""

    def __init__(self, max_retries=2, cache=None, obs=None):
        self.counters = SimpleNamespace(**{name: 0 for name in COUNTERS})
        self.core = ServiceCore(
            self.counters, RetryPolicy(max_retries), SoftwareFallback(),
            cache, obs, TRACE, self.publish,
            software_cost=lambda window, n, start: float(n),
        )

    def publish(self, job):
        # A front door converts the result array once, at publish.
        return SimpleNamespace(
            job_id=job.job_id, results=to_list(job.results), mode=job.mode,
            attempts=job.attempts, timed_out=job.timed_out,
            via_fallback=job.via_fallback, workers=tuple(job.workers_used),
            started=job.started, finished=job.finished,
        )

    def submit_many(self, streams, now=0.0, deadline=None):
        req = parse_request("match", "AB", streams, AB, Priority.BATCH, None)
        routes, solos, batches = plan(
            req.spec, req.taps, req.streams, self.core.cache, now, 32,
            result_cache_key,
        )
        jobs = []
        for prepared, route in zip(req.streams, routes):
            self.core.admit(jobs, req, prepared, route, "t", now, deadline)
        units = self.core.units(jobs, solos, batches, req.priority)
        for unit in units:
            self.core.queued(unit)
            for job, _ in unit.pieces:
                job.mode = "batched" if unit.batched else "direct"
        return jobs, units

    def succeed(self, unit, now, worker="w0"):
        """*unit*'s execution answered; pieces already served (a
        deadline shed them) ignore their slice, as in the runtime."""
        for job, shard in unit.pieces:
            if job.done:
                continue
            rows = job.spec.batched(job.taps, [shard.feed(job.text)], AB)[0]
            self.core.settle(job, shard, rows, now, 1.0, worker)

    def results(self):
        return {r.job_id: r for r in self.core.log.snapshot()}


def oracle(text):
    return run_workload("match", "AB", text, AB, engine="oracle")


TEXTS = ["ABAB", "BABA"]


def test_retry_then_success():
    fake = FakeTransport()
    jobs, [unit] = fake.submit_many(TEXTS)
    assert unit.batched and fake.counters.batches == 1
    assert fake.core.failed(unit, n_live=1, now=5.0)
    fake.succeed(unit, now=9.0)
    done = fake.results()
    for job, text in zip(jobs, TEXTS):
        r = done[job.job_id]
        assert r.results == oracle(text)
        assert (r.mode, r.attempts, r.workers) == ("batched", 1, ("w0",))
        assert not r.via_fallback and r.finished == 9.0
    assert (fake.counters.retries, fake.counters.fallbacks) == (1, 0)
    assert fake.counters.completed == fake.counters.submitted == 2


def test_retries_exhausted_serves_every_piece_from_software():
    fake = FakeTransport(max_retries=1)
    jobs, [unit] = fake.submit_many(TEXTS)
    assert fake.core.failed(unit, n_live=1, now=1.0)
    assert not fake.core.failed(unit, n_live=1, now=2.0)
    done = fake.results()
    for job, text in zip(jobs, TEXTS):
        r = done[job.job_id]
        assert r.results == oracle(text)
        assert (r.mode, r.attempts, r.via_fallback) == ("software", 2, True)
        # A software run costs one tick per character here.
        assert (r.started, r.finished) == (2.0, 2.0 + len(text))
    assert (fake.counters.retries, fake.counters.fallbacks) == (1, 2)


def test_no_live_worker_degrades_without_a_retry():
    fake = FakeTransport(max_retries=5)
    jobs, [unit] = fake.submit_many(TEXTS)
    assert not fake.core.failed(unit, n_live=0, now=3.0)
    done = fake.results()
    assert [done[j.job_id].mode for j in jobs] == ["software", "software"]
    assert (fake.counters.retries, fake.counters.fallbacks) == (0, 2)


def test_deadline_shed_of_one_batch_member():
    obs = Observability()
    fake = FakeTransport(obs=obs)
    (a, b), [unit] = fake.submit_many(TEXTS, deadline=4.0)
    fake.core.time_out(a, 4.0, projected=10.0)
    fake.core.degrade([unit.pieces[0]], 4.0)
    assert a.done and not b.done
    fake.succeed(unit, now=10.0)  # a's slice of the reply is ignored
    done = fake.results()
    assert (done[a.job_id].mode, done[a.job_id].timed_out) == ("software",
                                                               True)
    assert (done[b.job_id].mode, done[b.job_id].timed_out) == ("batched",
                                                               False)
    assert done[a.job_id].results == oracle(TEXTS[0])
    assert (fake.counters.timeouts, fake.counters.fallbacks) == (1, 1)
    assert fake.counters.batched_jobs == 2  # counted once, when queued
    [event] = obs.tracer.events
    assert event.name == "fake.timeout"
    assert event.attrs == {"job_id": a.job_id, "projected": 10.0}
    spans = {s.attrs["job_id"]: s for s in obs.tracer.find("fake.job")}
    assert spans[a.job_id].attrs["timed_out"] is True
    assert spans[b.job_id].attrs["mode"] == "batched"


def test_follower_reports_its_representatives_fate():
    cache = ResultCache()
    fake = FakeTransport(cache=cache)
    (rep, follower, other), units = fake.submit_many(TEXTS[:1] + TEXTS)
    assert fake.counters.deduped == 1
    fake.core.time_out(rep, 2.0)
    fake.core.degrade([rep.whole()], 2.0)
    done = fake.results()
    r = done[follower.job_id]
    assert (r.mode, r.timed_out, r.via_fallback, r.attempts) == (
        "deduped", True, True, 0)
    assert r.results == done[rep.job_id].results == oracle(TEXTS[0])
    assert r.results is not done[rep.job_id].results  # its own copy
    assert other.job_id not in done
    # The executed answer was written back to the cache.
    assert cache.get(rep.cache_key, tenant="t", now=3.0) is not None


def test_follower_of_a_representative_that_already_completed():
    """A representative served before its duplicate is admitted (the
    runtime's rate-limit wait) hands its answer over at admission."""
    fake = FakeTransport()
    req = parse_request("match", "AB", TEXTS[:1] * 2, AB, Priority.BATCH,
                        None)
    routes, _, _ = plan(req.spec, req.taps, req.streams, None, 0.0, 32,
                        result_cache_key)
    jobs = []
    rep = fake.core.admit(jobs, req, req.streams[0], routes[0], "t", 0.0)
    fake.core.degrade([rep.whole()], 1.0)
    follower = fake.core.admit(jobs, req, req.streams[1], routes[1], "t",
                               7.0)
    assert follower.done
    r = fake.results()[follower.job_id]
    assert (r.mode, r.via_fallback, r.started, r.finished) == (
        "deduped", True, 7.0, 7.0)


def test_rejection_rolls_a_job_and_its_followers_back_out():
    fake = FakeTransport()
    jobs, _ = fake.submit_many(TEXTS[:1] * 3)
    assert fake.counters.submitted == 3
    fake.core.reject(jobs[0], 0.0)
    assert fake.counters.submitted == 0
    assert fake.core.next_id == 3  # rejected ids stay used


def test_core_is_sans_io():
    """The core imports no event loop, thread, process, clock or heap,
    and never asks which front door it serves."""
    tree = ast.parse(inspect.getsource(core_module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"asyncio", "threading", "multiprocessing",
                           "time", "heapq"}
    calls = {n.func.id for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "isinstance" not in calls


@pytest.mark.parametrize("n_live", [0, 1])
def test_failure_after_every_piece_was_served_is_a_no_op(n_live):
    fake = FakeTransport()
    (a, b), [unit] = fake.submit_many(TEXTS)
    fake.core.degrade(unit.pieces, 1.0)  # both shed (deadline, say)
    assert not fake.core.failed(unit, n_live=n_live, now=2.0)
    assert (fake.counters.retries, fake.counters.fallbacks) == (0, 2)
    assert a.attempts == b.attempts == 0
