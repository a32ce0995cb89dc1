"""The sans-I/O front door, over a fake pool.

`FrontDoor` holds the job bookkeeping both surfaces share: admission
after the planner, the one failure rule, software service, settling and
completion with follower fan-out, over any pool that keeps the pool
contract.  Here a few lines of fake pool plug into the unchanged front
door as a third pool beside the farm's and the runtime's: no
processes, no wall clock.  ``now`` is a tick count the test moves, and
units run only when the test says so (``succeed``) or when the fake
drains (``run``).
"""

import ast
import inspect
import textwrap
from collections import deque
from types import SimpleNamespace

import pytest

from repro.alphabet import Alphabet
from repro.obs import Observability
from repro.service import frontdoor as frontdoor_module
from repro.service.cache import ResultCache, result_cache_key
from repro.service.frontdoor import FrontDoor, Trace
from repro.service.reliability import FaultInjector, FaultKind, SoftwareFallback
from repro.service.scheduler import Priority, SchedulerConfig
from repro.workloads import run_workload

AB = Alphabet("ABCD")
TRACE = Trace("ticks", "fake.job", "fake.software", "fake.timeout",
              ("mode", "attempts", "timed_out"))
COUNTERS = ("submitted", "completed", "deduped", "batches", "batched_jobs",
            "retries", "fallbacks", "timeouts", "deaths", "backpressure_hits")


class FakePool:
    """The smallest pool: units wait in a FIFO.  ``run`` launches them
    in order under one fault sample each (a death takes its worker out
    of dispatch for good, a stuck launch takes ``extra_beats`` more
    ticks); a piece whose deadline the launch would pass is served from
    software first, as the farm does.  Its gate is a pending bound."""

    wide_threshold = None

    def __init__(self, workers=1, faults=None, max_pending=None):
        self.n_live, self.max_pending = workers, max_pending
        self.faults = faults or FaultInjector()
        self.queue, self.tick = deque(), 0.0

    def now(self):
        return self.tick

    def saturated(self, open_jobs):
        return self.max_pending is not None and open_jobs >= self.max_pending

    def submit(self, unit):
        for job, _ in unit.pieces:
            job.mode = "batched" if unit.batched else "direct"
        self.queue.append(unit)

    def succeed(self, unit, now, worker="w0"):
        """*unit*'s execution answered at tick *now*."""
        job = unit.pieces[0][0]
        rows = job.spec.batched(
            job.taps, [s.feed(j.text) for j, s in unit.pieces], AB)
        self.door.reply(unit, now, rows, worker, [1.0] * len(rows))

    def run(self):
        while self.queue:
            unit = self.queue.popleft()
            unit.pieces = [p for p in unit.pieces if not p[0].done]
            if not self.n_live:
                self.door.degrade(unit.pieces, self.tick,
                                  reason="no-live-worker")
                continue
            fault = self.faults.sample()
            finish = self.tick + 1 + (fault.extra_beats if fault else 0)
            for job, shard in list(unit.pieces):
                if job.deadline is not None and finish > job.deadline:
                    self.door.expire((job, shard), self.tick)
                    unit.pieces.remove((job, shard))
            if not unit.pieces:
                continue
            for job, _ in unit.pieces:
                job.started = self.tick if job.started is None else job.started
            self.tick = finish
            if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
                self.n_live -= 1
                self.door.reply(unit, self.tick, died=True)
            else:
                self.succeed(unit, self.tick, f"fake-{self.n_live}")


class FakeDoor(FrontDoor):
    """A synchronous surface over any pool: admission, the reply rule
    and the snapshot are the front door's, unchanged."""

    def __init__(self, pool, config=None, cache=None, obs=None):
        self.config = config or SchedulerConfig()
        self.alphabet, self.cache, self.obs = AB, cache, obs
        self.fallback = SoftwareFallback()
        self.admitted = []  # every job still open when admitted
        counters = SimpleNamespace(**{name: 0 for name in COUNTERS})
        super().__init__(pool, counters, TRACE,
                         lambda window, n, start: float(n), result_cache_key)

    def submit(self, params, stream, **kw):
        return self.submit_many(params, [stream], **kw)[0]

    def submit_many(self, params, streams, tenant="t",
                    priority=Priority.BATCH, workload="match", timeout=None):
        return self._admit(
            self._request(params, streams, priority, workload, timeout),
            tenant)

    def drain(self):
        self.transport.run()
        return self.results()

    def _admitted(self, job):
        self.admitted.append(job)

    def _publish(self, jobs):
        # The front door has already made each job's published list.
        return [SimpleNamespace(
            job_id=job.job_id, results=job.results, mode=job.mode,
            attempts=job.attempts, timed_out=job.timed_out,
            via_fallback=job.via_fallback, workers=tuple(job.workers_used),
            started=job.started, finished=job.finished,
        ) for job in jobs]


class FakeTransport:
    """The fake pool behind the front door, driven by hand."""

    def __init__(self, max_retries=2, cache=None, obs=None):
        self.pool = FakePool()
        self.door = FakeDoor(self.pool, SchedulerConfig(max_retries=max_retries),
                             cache, obs)
        self.counters = self.door.counters

    def submit_many(self, streams, now=0.0, deadline=None):
        """Admit *streams* at tick *now*; returns the call's open jobs and
        the units the pool took, which run only when the test says."""
        self.pool.tick = now
        opened, queued = len(self.door.admitted), len(self.pool.queue)
        self.door.submit_many(
            "AB", streams, timeout=None if deadline is None else deadline - now)
        return self.door.admitted[opened:], list(self.pool.queue)[queued:]

    def succeed(self, unit, now, worker="w0"):
        """*unit*'s execution answered; pieces already served (a
        deadline shed them) ignore their slice."""
        self.pool.succeed(unit, now, worker)

    def results(self):
        return {r.job_id: r for r in self.door.results()}


def oracle(text):
    return run_workload("match", "AB", text, AB, engine="oracle")


TEXTS = ["ABAB", "BABA"]


def test_retry_then_success():
    fake = FakeTransport()
    jobs, [unit] = fake.submit_many(TEXTS)
    assert unit.batched and fake.counters.batches == 1
    assert fake.door.failed(unit, n_live=1, now=5.0)
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
    assert fake.door.failed(unit, n_live=1, now=1.0)
    assert not fake.door.failed(unit, n_live=1, now=2.0)
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
    assert not fake.door.failed(unit, n_live=0, now=3.0)
    done = fake.results()
    assert [done[j.job_id].mode for j in jobs] == ["software", "software"]
    assert (fake.counters.retries, fake.counters.fallbacks) == (0, 2)


def test_deadline_shed_of_one_batch_member():
    obs = Observability()
    fake = FakeTransport(obs=obs)
    (a, b), [unit] = fake.submit_many(TEXTS, deadline=4.0)
    fake.door.expire(unit.pieces[0], 4.0, projected=10.0)
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
    fake.door.expire(rep.whole(), 2.0)
    done = fake.results()
    r = done[follower.job_id]
    assert (r.mode, r.timed_out, r.via_fallback, r.attempts) == (
        "deduped", True, True, 0)
    assert r.results == done[rep.job_id].results == oracle(TEXTS[0])
    assert r.results is not done[rep.job_id].results  # its own copy
    assert other.job_id not in done
    # The executed answer was written back to the cache.
    assert cache.get([rep.cache_key], tenant="t", now=3.0) != [None]


def test_rejection_rolls_a_job_and_its_followers_back_out():
    fake = FakeTransport()
    jobs, _ = fake.submit_many(TEXTS[:1] * 3)
    assert (fake.counters.submitted, fake.door.open) == (3, 3)
    assert fake.door.reject(jobs[0], 0.0) == 3
    assert fake.door.open == 0
    # A call counts its jobs once, as it ends, less the ones it rejected:
    # the counter never falls.
    assert fake.counters.submitted == 3
    assert fake.door.next_id == 3  # rejected ids stay used


def _imports_and_calls(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    calls = {n.func.id for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    return imported, calls


def test_core_is_sans_io():
    """The job bookkeeping both surfaces share (rejection, the failure
    rule, deadline expiry, software service, settling and completion)
    never touches the pool or reads a clock: its time comes in as
    ``now``, and it never asks which front door it serves."""
    for name in ("reject", "failed", "expire", "degrade", "settle",
                 "_complete"):
        source = textwrap.dedent(inspect.getsource(getattr(FrontDoor, name)))
        tree = ast.parse(source)
        touched = {n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute)}
        assert not touched & {"transport", "now"}, name
        assert "isinstance" not in _imports_and_calls(tree)[1], name


def test_front_door_is_sans_io():
    """The front door imports no event loop, thread, process, clock or
    heap: it reads time only through its pool and never asks which
    pool it drives."""
    tree = ast.parse(inspect.getsource(frontdoor_module))
    imported, calls = _imports_and_calls(tree)
    assert not imported & {"asyncio", "threading", "multiprocessing",
                           "time", "heapq"}
    assert "isinstance" not in calls


@pytest.mark.parametrize("n_live", [0, 1])
def test_failure_after_every_piece_was_served_is_a_no_op(n_live):
    fake = FakeTransport()
    (a, b), [unit] = fake.submit_many(TEXTS)
    fake.door.degrade(unit.pieces, 1.0)  # both shed (deadline, say)
    assert not fake.door.failed(unit, n_live=n_live, now=2.0)
    assert (fake.counters.retries, fake.counters.fallbacks) == (0, 2)
    assert a.attempts == b.attempts == 0
