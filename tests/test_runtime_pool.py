"""Mechanism-level tests for the concurrent runtime: channels, the
token-bucket admission gate, and the worker pool's dispatch/cancel
behaviour with real spawned processes."""

import pickle
import threading
import time

import pytest

from repro.alphabet import Alphabet
from repro.errors import ServiceError
from repro.runtime import (
    Channel,
    JobReply,
    JobRequest,
    RateLimiter,
    TokenBucket,
    WorkerPool,
)
from repro.runtime.channels import NO_LIVE_WORKER, unpack_row

AB = Alphabet("ABCD")


# -- admission: token buckets (pure logic, injected time) -------------------


class TestTokenBucket:
    def test_burst_then_throttle(self):
        b = TokenBucket(rate=10.0, burst=2)
        assert b.acquire_delay(0.0) == 0.0
        assert b.acquire_delay(0.0) == 0.0
        wait = b.acquire_delay(0.0)
        assert wait == pytest.approx(0.1)

    def test_refills_at_rate(self):
        b = TokenBucket(rate=10.0, burst=1)
        assert b.acquire_delay(0.0) == 0.0
        assert b.acquire_delay(0.0) > 0.0
        assert b.acquire_delay(0.2) == 0.0  # 0.2s * 10/s = 2 tokens back

    def test_burst_caps_accumulation(self):
        b = TokenBucket(rate=100.0, burst=2)
        b.acquire_delay(0.0)
        # A long quiet period must not bank more than `burst` tokens.
        assert b.acquire_delay(100.0) == 0.0
        assert b.acquire_delay(100.0) == 0.0
        assert b.acquire_delay(100.0) > 0.0

    def test_validates(self):
        with pytest.raises(ServiceError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ServiceError):
            TokenBucket(rate=1.0, burst=0)


class TestRateLimiter:
    def test_unlimited_tenant(self):
        lim = RateLimiter({})
        for _ in range(100):
            assert lim.delay("anyone", 0.0) == 0.0
        assert lim.waits == 0

    def test_per_tenant_isolation(self):
        lim = RateLimiter({"a": (1.0, 1)})
        assert lim.delay("a", 0.0) == 0.0
        assert lim.delay("a", 0.0) > 0.0  # a is throttled
        assert lim.delay("b", 0.0) == 0.0  # b is not
        assert lim.waits == 1


# -- channels and the wire protocol ----------------------------------------


class TestChannel:
    def test_bounded_send_recv(self):
        import multiprocessing as mp

        ch = Channel(mp.get_context("spawn"), 2)
        assert ch.try_send(1)
        assert ch.try_send(2)
        assert not ch.try_send(3)  # full: blocked-sender backpressure
        assert ch.recv(timeout=1.0) == 1
        assert ch.recv(timeout=1.0) == 2
        ch.close()

    def test_capacity_validated(self):
        import multiprocessing as mp

        with pytest.raises(ServiceError):
            Channel(mp.get_context("spawn"), 0)

    def test_messages_picklable(self):
        req = JobRequest(
            job_id=1, attempt=0, workload="match",
            taps=list(AB.symbols), streams=[["A", "B"]], fault="death",
        )
        rep = JobReply(
            job_id=1, attempt=0, ok=True, worker="w", pid=1, wall_s=0.1,
            results=[[True, False]], metrics={"c": []}, spans=[{"name": "s"}],
        )
        assert pickle.loads(pickle.dumps(req)).job_id == 1
        assert pickle.loads(pickle.dumps(rep)).results == [[True, False]]


# -- the pool itself (real spawned workers) --------------------------------


@pytest.fixture(scope="module")
def pool():
    p = WorkerPool(2, AB).start()
    yield p
    p.shutdown()


def _collect(n, timeout=30.0):
    """A callback + waiter pair collecting *n* replies."""
    got = []
    done = threading.Event()
    lock = threading.Lock()

    def cb(reply):
        with lock:
            got.append(reply)
            if len(got) >= n:
                done.set()

    def wait():
        assert done.wait(timeout), f"only {len(got)}/{n} replies arrived"
        return got

    return cb, wait


def _wait_dispatched(pool, count, timeout=10.0):
    """Wait until *pool* has popped *count* requests off its heap."""
    deadline = time.monotonic() + timeout
    while pool.dispatched < count:
        assert time.monotonic() < deadline, "request never dispatched"
        time.sleep(0.001)


def _match_request(job_id, text="ABCDABCA", attempt=0, **kw):
    from repro.alphabet import parse_pattern

    return JobRequest(
        job_id=job_id, attempt=attempt, workload="match",
        taps=parse_pattern("AB", AB), streams=[AB.encode_text(text).codes],
        **kw,
    )


class TestWorkerPool:
    def test_round_trip_matches_oracle(self, pool):
        from repro.workloads.registry import get_workload

        cb, wait = _collect(1)
        pool.submit(_match_request(1), cb)
        (reply,) = wait()
        assert reply.ok and not reply.died
        expect = get_workload("match").run("AB", "ABCDABCA", AB,
                                           engine="oracle")
        assert [unpack_row(row).tolist() for row in reply.results] == [expect]

    def test_parallel_fanout_uses_both_workers(self, pool):
        cb, wait = _collect(8)
        for i in range(8):
            pool.submit(_match_request(100 + i, stall_s=0.05), cb)
        replies = wait()
        assert len({r.worker for r in replies}) == 2
        assert len({r.pid for r in replies}) == 2

    def test_death_directive_reports_died(self):
        """A died reply takes its worker out of dispatch: ``n_live``
        drops and the next request runs on the other worker."""
        duo = WorkerPool(2, AB).start()
        try:
            cb, wait = _collect(1)
            duo.submit(_match_request(2, fault="death"), cb)
            (reply,) = wait()
            assert not reply.ok and reply.died and reply.results is None
            assert duo.n_live == 1
            assert duo.quarantined_names() == [reply.worker]
            cb2, wait2 = _collect(1)
            duo.submit(_match_request(3), cb2)
            (after,) = wait2()
            assert after.ok and after.worker != reply.worker
        finally:
            duo.shutdown()

    def test_last_worker_death_hands_back_no_live_worker(self):
        """On a 1-process pool the death leaves no live worker: the next
        request comes back unrun instead of reaching the dead one."""
        solo = WorkerPool(1, AB).start()
        try:
            cb, wait = _collect(1)
            solo.submit(_match_request(2, fault="death"), cb)
            assert wait()[0].died and solo.n_live == 0
            cb2, wait2 = _collect(1)
            solo.submit(_match_request(3), cb2)
            (after,) = wait2()
            assert not after.ok and after.error == NO_LIVE_WORKER
        finally:
            solo.shutdown()

    def test_edf_dispatch_order(self):
        """Pending jobs drain earliest deadline first regardless of
        submission order.  One worker makes reply order the dispatch
        order: with two, replies of jobs dispatched together race."""
        order = []
        done = threading.Event()
        lock = threading.Lock()

        def cb(reply):
            with lock:
                order.append(reply.job_id)
                if len(order) >= 4 and done.is_set() is False:
                    done.set()

        solo = WorkerPool(1, AB).start()
        try:
            base = time.monotonic()
            # Saturate the worker so the next four queue up.
            hold, hold_wait = _collect(1)
            solo.submit(_match_request(10, stall_s=0.3), hold)
            _wait_dispatched(solo, 1)
            solo.submit(_match_request(20), cb, deadline=base + 30.0)
            solo.submit(_match_request(21), cb, deadline=base + 10.0)
            solo.submit(_match_request(22), cb, deadline=base + 20.0)
            solo.submit(_match_request(23), cb)  # no deadline: last
            assert done.wait(30.0)
            hold_wait()
        finally:
            solo.shutdown()
        assert order == [21, 22, 20, 23]

    def test_cancel_drops_stale_reply(self, pool):
        dropped_before, dispatched = pool.dropped_replies, pool.dispatched
        cb, _ = _collect(1)
        pool.submit(_match_request(3, stall_s=0.2), cb)
        _wait_dispatched(pool, dispatched + 1)  # then abandon it
        pool.cancel(3, 0)
        deadline = time.monotonic() + 10.0
        while pool.dropped_replies == dropped_before:
            assert time.monotonic() < deadline, "stale reply never dropped"
            time.sleep(0.01)
        # The worker came back to the idle set and still serves jobs.
        cb2, wait2 = _collect(1)
        pool.submit(_match_request(4), cb2)
        assert wait2()[0].ok

    def test_worker_exception_ships_home(self, pool):
        cb, wait = _collect(1)
        bad = JobRequest(job_id=5, attempt=0, workload="no-such-workload",
                        taps=[], streams=[[1.0]])
        pool.submit(bad, cb)
        (reply,) = wait()
        assert not reply.ok and not reply.died
        assert "no-such-workload" in reply.error

    def test_submit_before_start_raises(self):
        p = WorkerPool(1, AB)
        with pytest.raises(ServiceError):
            p.submit(_match_request(1), lambda r: None)

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ServiceError):
            WorkerPool(0, AB)
