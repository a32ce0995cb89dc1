"""Policy-level tests for :class:`repro.runtime.AsyncMatcherService`:
differential equivalence against the synchronous farm and the oracle
for every registered workload, fault/retry/fallback behaviour, SLO
deadlines, admission control, and observability merge-back."""

import asyncio
import time

import pytest

from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.errors import BackpressureError, ServiceError
from repro.obs import Observability
from repro.runtime import AsyncMatcherService, RuntimeConfig, WorkerPool
from repro.service.pool import uniform_pool
from repro.service.reliability import FaultInjector
from repro.service.service import MatcherService
from repro.workloads.registry import get_workload, list_workloads

AB = Alphabet("ABCD")

# One text/stream per workload kind, long enough to be interesting.
CHAR_TEXT = "ABCDACBDABCACDBA" * 12
NUM_STREAM = [((i * 37) % 19) - 9.0 for i in range(150)]

PARAMS = {
    "match": "ABXC",
    "count": "AXC",
    "correlation": [1.0, -2.0, 0.5],
    "inner-product": [0.5, 1.5, -1.0, 2.0],
    "convolution": [1.0, 2.0, 3.0],
    "fir": [0.25, 0.5, 0.25],
}


def _input_for(name):
    spec = get_workload(name)
    return PARAMS[name], (NUM_STREAM if spec.numeric else CHAR_TEXT)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def shared_pool():
    pool = WorkerPool(2, AB).start()
    yield pool
    pool.shutdown()


class TestDifferential:
    def test_every_workload_matches_sync_service_and_oracle(
        self, shared_pool
    ):
        """The tentpole acceptance bar: async-runtime results are
        byte-identical to the synchronous MatcherService and to the
        workload oracle, for every registered workload."""

        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            out = {}
            for name in list_workloads():
                params, stream = _input_for(name)
                jid = await svc.submit(params, stream, workload=name)
                out[name] = (await svc.result(jid)).results
            return out

        async_results = run(go())
        sync_svc = MatcherService(uniform_pool(4, ChipSpec(8, 2), AB))
        for name in list_workloads():
            params, stream = _input_for(name)
            sync_svc.submit(params, stream, workload=name)
        sync_by_workload = {r.workload: r.results for r in sync_svc.drain()}
        for name in list_workloads():
            params, stream = _input_for(name)
            oracle = get_workload(name).run(params, stream, AB,
                                            engine="oracle")
            assert async_results[name] == oracle, name
            assert sync_by_workload[name] == oracle, name

    def test_equivalence_under_seeded_faults(self):
        """Deaths and retries reroute work; they never change answers."""

        async def go():
            async with AsyncMatcherService(
                2, AB, faults=FaultInjector(seed=7, p_death=0.35),
            ) as svc:
                for name in list_workloads():
                    params, stream = _input_for(name)
                    await svc.submit(params, stream, workload=name)
                results = await svc.drain()
                return results, svc.deaths, svc.fallbacks

        results, deaths, fallbacks = run(go())
        assert deaths > 0  # the seed genuinely injected faults
        by_workload = {r.workload: r for r in results}
        for name in list_workloads():
            params, stream = _input_for(name)
            oracle = get_workload(name).run(params, stream, AB,
                                            engine="oracle")
            assert by_workload[name].results == oracle, name

    def test_empty_stream_completes_immediately(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            jid = await svc.submit("AB", "")
            return await svc.result(jid)

        r = run(go())
        assert r.results == [] and r.mode == "empty"


class TestReliabilityPolicy:
    def test_retries_then_fallback_exhaustion(self):
        """With p_death=1 every attempt dies: the job burns its retry
        budget and lands on the oracle fallback.  Each death takes its
        worker out of dispatch, so three workers carry the three
        attempts."""

        async def go():
            async with AsyncMatcherService(
                3, AB,
                faults=FaultInjector(seed=1, p_death=1.0),
                config=RuntimeConfig(max_retries=2),
            ) as svc:
                jid = await svc.submit("AB", "ABAB" * 8)
                r = await svc.result(jid)
                assert svc.pool.n_live == 0
                return r, svc.retries, svc.deaths

        r, retries, deaths = run(go())
        assert r.via_fallback and r.mode == "software"
        assert r.attempts == 3  # initial + 2 retries, all dead
        assert retries == 2 and deaths == 3
        expect = get_workload("match").run("AB", "ABAB" * 8, AB,
                                           engine="oracle")
        assert r.results == expect

    def test_no_live_worker_degrades_instead_of_hanging(self):
        """With its only worker quarantined, the pool has no live
        worker: the unit is served from software at dispatch instead of
        waiting forever in the pool (``wait_for`` is only a hang
        guard)."""

        async def go():
            async with AsyncMatcherService(1, AB) as svc:
                [name] = svc.pool.idle_names()
                svc.pool.quarantine(name)
                assert svc.pool.n_live == 0
                jid = await asyncio.wait_for(svc.submit("AB", "ABAB"), 30)
                r = await asyncio.wait_for(svc.result(jid), 30)
                return r, svc.stats()

        r, stats = run(go())
        assert (r.mode, r.via_fallback, r.worker) == ("software", True, None)
        assert r.results == get_workload("match").run("AB", "ABAB", AB,
                                                      engine="oracle")
        assert (stats["fallbacks"], stats["retries"]) == (1, 0)
        assert stats["pool_dispatched"] == 0

    def test_quarantining_the_last_worker_frees_waiting_units(self):
        """Units still waiting in the pool when its last worker is
        quarantined are served from software, counting no attempt,
        instead of waiting for a heal (``wait_for`` is only a hang
        guard).  The running unit's 0.3 s stall keeps the second one
        waiting."""

        async def go():
            async with AsyncMatcherService(
                1, AB,
                faults=FaultInjector(seed=3, p_stuck=1.0,
                                     stuck_beats=(150, 150)),
                config=RuntimeConfig(max_batch_jobs=1, stuck_stall_s=0.002),
            ) as svc:
                await svc.submit_many("AX", ["ABCA", "AACC"])
                svc.pool.quarantine("proc-0")
                results = await asyncio.wait_for(svc.drain(), 3.0)
                return results, svc.stats()

        results, stats = run(go())
        match = get_workload("match")
        assert [r.results for r in results] == [
            match.run("AX", text, AB, engine="oracle")
            for text in ("ABCA", "AACC")
        ]
        assert [r.attempts for r in results] == [0, 0]
        assert (results[1].mode, results[1].via_fallback) == ("software", True)
        assert stats["retries"] == 0

    def test_deadline_sheds_stalled_worker(self):
        """A stuck worker cannot wedge the drain: the deadline fires,
        the job completes degraded, and the late reply is dropped."""

        async def go():
            async with AsyncMatcherService(
                1, AB,
                faults=FaultInjector(seed=3, p_stuck=1.0,
                                     stuck_beats=(500, 500)),
                config=RuntimeConfig(stuck_stall_s=0.002),  # 1s stall
            ) as svc:
                cancel = svc.pool.cancel
                svc.pool.cancel = lambda *key: cancelled.append(key) or \
                    cancel(*key)
                jid = await svc.submit("AB", "ABAB" * 4, timeout=0.2)
                r = await svc.result(jid)
                stats = svc.stats()
                return r, stats

        cancelled = []
        r, stats = run(go())
        assert r.timed_out and r.via_fallback
        assert stats["timeouts"] == 1
        # The stalled attempt was cancelled, so its late reply is dropped.
        assert [attempt for _, attempt in cancelled] == [0]
        expect = get_workload("match").run("AB", "ABAB" * 4, AB,
                                           engine="oracle")
        assert r.results == expect

    def test_close_right_after_shedding_an_undelivered_request(self):
        """The worker is still starting when the deadline sheds its
        request, so the request waits undelivered in the worker's
        capacity-1 channel.  ``close()`` clears it before sending the
        shutdown sentinel, so the worker never runs the shed request
        (a 10 s stall) and stops as soon as it is up."""

        async def go():
            svc = AsyncMatcherService(
                1, AB,
                faults=FaultInjector(seed=3, p_stuck=1.0,
                                     stuck_beats=(500, 500)),
                config=RuntimeConfig(stuck_stall_s=0.02),
            )
            await svc.start()
            jid = await svc.submit("AB", "ABAB", timeout=0.05)
            result = await svc.result(jid)
            t0 = time.perf_counter()
            await svc.close()
            return result, time.perf_counter() - t0

        result, close_s = run(go())
        assert result.timed_out and result.via_fallback
        assert close_s < 1.0

    def test_timeout_validation(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            with pytest.raises(ServiceError):
                await svc.submit("AB", "ABAB", timeout=0.0)

        run(go())


class TestAdmission:
    def test_rate_limit_suspends_submitter(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(
                pool=shared_pool,
                config=RuntimeConfig(rate_limits={"slow": (10.0, 2)}),
            )
            await svc.start()
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await svc.submit_many("AB", ["ABAB"] * 5, tenant="slow")
            elapsed = loop.time() - t0
            await svc.drain()
            return elapsed, svc.limiter.waits

        elapsed, waits = run(go())
        # Beyond the burst of 2, submits had to wait for 10/s tokens.
        assert waits >= 1
        assert elapsed >= 0.08

    def test_saturation_degrades_to_oracle(self):
        async def go():
            async with AsyncMatcherService(
                1, AB,
                faults=FaultInjector(seed=3, p_stuck=1.0,
                                     stuck_beats=(200, 200)),
                config=RuntimeConfig(max_pending=1, stuck_stall_s=0.002),
            ) as svc:
                a = await svc.submit("AB", "ABAB" * 4)   # occupies the pool
                b = await svc.submit("AB", "ABBA" * 4)   # sheds to oracle
                rb = await svc.result(b)
                ra = await svc.result(a)
                return ra, rb, svc.backpressure_hits

        ra, rb, hits = run(go())
        assert hits == 1
        assert rb.via_fallback and rb.mode == "software"
        assert rb.results == get_workload("match").run(
            "AB", "ABBA" * 4, AB, engine="oracle"
        )
        assert ra.results == get_workload("match").run(
            "AB", "ABAB" * 4, AB, engine="oracle"
        )

    def test_saturation_rejects_when_degrade_off(self):
        async def go():
            async with AsyncMatcherService(
                1, AB,
                faults=FaultInjector(seed=3, p_stuck=1.0,
                                     stuck_beats=(200, 200)),
                config=RuntimeConfig(
                    max_pending=1, stuck_stall_s=0.002,
                    degrade_when_saturated=False,
                ),
            ) as svc:
                await svc.submit("AB", "ABAB" * 4)
                with pytest.raises(BackpressureError):
                    await svc.submit("AB", "ABBA" * 4)
                await svc.drain()

        run(go())


class TestApi:
    def test_submit_before_start_raises(self):
        async def go():
            svc = AsyncMatcherService(1, AB)
            with pytest.raises(ServiceError):
                await svc.submit("AB", "ABAB")

        run(go())

    def test_stream_results_completion_order(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            jids = await svc.submit_many("AB", ["ABAB" * 20] * 5)
            seen = [r.job_id async for r in svc.stream_results(jids)]
            return set(seen), len(seen)

        seen, n = run(go())
        assert n == 5 and len(seen) == 5

    def test_drain_returns_job_id_order(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            await svc.submit_many("AB", ["AB" * k for k in (9, 3, 6)])
            results = await svc.drain()
            return [r.job_id for r in results]

        order = run(go())
        assert order == sorted(order)

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            RuntimeConfig(max_pending=0)
        with pytest.raises(ServiceError):
            RuntimeConfig(max_retries=-1)
        with pytest.raises(ServiceError):
            RuntimeConfig(stuck_stall_s=-1.0)
        # A rate limit is a positive (rate, burst) pair, checked here
        # rather than at the tenant's first submit.
        for spec in [(1.0,), ("a", 1), (0.0, 1)]:
            with pytest.raises(ServiceError):
                RuntimeConfig(rate_limits={"t": spec})

    def test_unknown_job_id(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            with pytest.raises(ServiceError):
                await svc.result(999)

        run(go())


class TestObservability:
    def test_worker_spans_and_metrics_merge_back(self):
        # Four per-job submits: each crosses the wire on its own, so
        # each gets its own worker-process kernel span merged back.
        async def go():
            obs = Observability()
            async with AsyncMatcherService(2, AB, obs=obs) as svc:
                for _ in range(4):
                    await svc.submit("AXC", "ABCDABCA" * 10)
                await svc.drain()
            return obs

        obs = run(go())
        spans = obs.tracer.to_dict()["spans"]
        jobs = [s for s in spans if s["name"] == "runtime.job"]
        kernels = [s for s in spans if s["name"] == "worker.kernel"]
        assert len(jobs) == 4 and len(kernels) == 4
        job_ids = {s["span_id"] for s in jobs}
        # Every worker-process kernel span was re-parented under the
        # host-side runtime.job span it served.
        assert all(k["parent_id"] in job_ids for k in kernels)
        snap = obs.registry.snapshot()
        worker_jobs = sum(
            row["value"] for row in snap.get("runtime.worker.jobs", [])
        )
        assert worker_jobs == 4
        assert "runtime.pool.dispatched" in snap

    def test_batched_submit_many_spans(self):
        # submit_many coalesces: distinct texts become one batch plan,
        # one wire crossing, one batched worker.kernel span; duplicate
        # texts dedup into followers and never cross at all.
        texts = ["ABCDABCA" * (i + 1) for i in range(3)]
        async def go():
            obs = Observability()
            async with AsyncMatcherService(2, AB, obs=obs) as svc:
                await svc.submit_many("AXC", texts + [texts[0]])
                results = await svc.drain()
            return obs, results

        obs, results = run(go())
        spans = obs.tracer.to_dict()["spans"]
        jobs = [s for s in spans if s["name"] == "runtime.job"]
        kernels = [s for s in spans if s["name"] == "worker.kernel"]
        assert len(jobs) == 4
        assert len(kernels) == 1
        assert kernels[0]["attrs"]["jobs"] == 3
        modes = sorted(r.mode for r in results)
        assert modes == ["batched", "batched", "batched", "deduped"]
        snap = obs.registry.snapshot()
        worker_jobs = sum(
            row["value"] for row in snap.get("runtime.worker.jobs", [])
        )
        assert worker_jobs == 3
