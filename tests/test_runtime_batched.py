"""The async runtime's batch tier: coalesced dispatch over real workers.

`AsyncMatcherService.submit_many` now ships one ``JobRequest`` carrying
many streams per batch, dedups repeated streams into followers, and
serves warm repeats from the shared cross-tenant :class:`ResultCache`.
Correctness bar is unchanged from the per-job path: oracle-identical
results through seeded worker deaths, whole-batch retries, per-member
deadline sheds, and admission control.
"""

import asyncio
import random

import pytest

from repro.alphabet import Alphabet
from repro.errors import BackpressureError, ReproError, ServiceError
from repro.runtime import AsyncMatcherService, RuntimeConfig, WorkerPool
from repro.service.cache import ResultCache
from repro.service.reliability import FaultInjector
from repro.workloads import get_workload, list_workloads, run_workload

AB = Alphabet("ABCD")


def run(coro):
    return asyncio.run(coro)


def oracle(pattern, text):
    return run_workload("match", pattern, text, AB, engine="oracle")


@pytest.fixture(scope="module")
def shared_pool():
    pool = WorkerPool(2, AB).start()
    yield pool
    pool.shutdown()


class TestCoalescing:
    def test_batched_dedup_and_order(self, shared_pool):
        texts = ["ABCA", "ABCA", "AACC", "CABC", "AACC"]

        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            jids = await svc.submit_many("AXC", texts)
            assert jids == sorted(jids)
            results = {r.job_id: r for r in await svc.drain()}
            return jids, results, svc.batches, svc.batched_jobs, svc.deduped

        jids, results, batches, batched_jobs, deduped = run(go())
        for jid, text in zip(jids, texts):
            assert results[jid].results == oracle("AXC", text)
        modes = [results[j].mode for j in jids]
        assert modes.count("deduped") == 2
        assert deduped == 2
        assert batches == 1 and batched_jobs == 3  # unique texts only

    def test_chunking_respects_max_batch_jobs(self, shared_pool):
        texts = ["ABCA", "AACC", "CABC", "BBCA", "ACCA"]

        async def go():
            cfg = RuntimeConfig(max_batch_jobs=2)
            svc = AsyncMatcherService(pool=shared_pool, config=cfg)
            await svc.start()
            jids = await svc.submit_many("AX", texts)
            results = {r.job_id: r for r in await svc.drain()}
            return jids, results, svc.batches

        jids, results, batches = run(go())
        # 2 + 2 + 1: the trailing singleton dispatches per-job, not batched.
        assert batches == 2
        for jid, text in zip(jids, texts):
            assert results[jid].results == oracle("AX", text)

    def test_singleton_chunk_dispatches_per_job(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            jids = await svc.submit_many("AX", ["ABCAABCA"])
            results = {r.job_id: r for r in await svc.drain()}
            return jids, results, svc.batches

        jids, results, batches = run(go())
        assert batches == 0
        assert results[jids[0]].results == oracle("AX", "ABCAABCA")

    @pytest.mark.parametrize("case", [
        *list_workloads(), "empty", "cached", "saturated-degrade",
        "saturated-reject",
    ])
    def test_submit_is_submit_many_of_one(self, shared_pool, case):
        """``submit(x)`` and ``submit_many([x])`` are one admission path:
        same results, route and flags, and the same ``runtime.*``
        counter deltas, for every workload and every inline route."""
        spec = get_workload(case if case in list_workloads() else "match")
        params = [1.0, -2.0, 3.0] if spec.numeric else "AXC"
        stream = (
            [float(i % 5 - 2) for i in range(24)] if spec.numeric
            else "ABCAACACCABACCAB"
        )
        if case == "empty":
            stream = stream[:0]

        def counters(svc):
            return {
                name: sum(row["value"] for row in rows)
                for name, rows in svc.registry.snapshot().items()
                if name.startswith("runtime.")
                and rows[0]["kind"] == "counter"
            }

        async def admit(svc, via):
            if via == "submit":
                return await svc.submit(params, stream, workload=spec.name)
            [jid] = await svc.submit_many(params, [stream],
                                          workload=spec.name)
            return jid

        async def go(via):
            cfg = RuntimeConfig(
                max_pending=1 if case.startswith("saturated") else 256,
                degrade_when_saturated=case != "saturated-reject",
            )
            svc = AsyncMatcherService(pool=shared_pool, config=cfg,
                                      cache=ResultCache())
            await svc.start()
            if case == "cached":
                await svc.result(await admit(svc, via))
            if case.startswith("saturated"):
                await svc.submit("AB", "ABAB")  # stays pending: no await yet
            before = counters(svc)
            try:
                result = await svc.result(await admit(svc, via))
                outcome = (result.results, result.mode, result.attempts,
                           result.via_fallback, result.timed_out)
            except BackpressureError:
                outcome = "rejected"
            after = counters(svc)
            delta = {k: v - before.get(k, 0) for k, v in after.items()}
            await svc.drain()
            return outcome, delta

        single, many = run(go("submit")), run(go("submit_many"))
        assert single == many
        outcome, delta = single
        if case == "saturated-reject":
            assert outcome == "rejected"
            assert delta["runtime.backpressure_hits"] == 1
            return
        want = run_workload(spec.name, params, stream, AB, engine="oracle")
        assert outcome[0] == want
        assert outcome[1] == {
            "empty": "empty", "cached": "cached",
            "saturated-degrade": "software",
        }.get(case, "pool")
        assert delta["runtime.jobs.completed"] == 1

    def test_empty_members_and_empty_batch(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            assert await svc.submit_many("AX", []) == []
            jids = await svc.submit_many("AX", ["", "ABCA", ""])
            results = {r.job_id: r for r in await svc.drain()}
            return jids, results

        jids, results = run(go())
        assert results[jids[0]].results == []
        assert results[jids[2]].results == []
        assert results[jids[1]].results == oracle("AX", "ABCA")

    def test_max_batch_jobs_validated(self):
        with pytest.raises(ServiceError):
            RuntimeConfig(max_batch_jobs=0)


class TestCacheIntegration:
    def test_warm_pass_is_served_from_cache(self, shared_pool):
        texts = ["ABCAACAC", "CACCABAB"]

        async def go():
            cache = ResultCache()
            svc = AsyncMatcherService(pool=shared_pool, cache=cache)
            await svc.start()
            cold_ids = await svc.submit_many("AXC", texts, tenant="cold")
            cold = {r.job_id: r for r in await svc.drain()}
            warm_ids = await svc.submit_many("AXC", texts, tenant="warm")
            warm = {r.job_id: r for r in await svc.drain()}
            return cold_ids, cold, warm_ids, warm, cache.stats()

        cold_ids, cold, warm_ids, warm, stats = run(go())
        for cid, wid, text in zip(cold_ids, warm_ids, texts):
            assert cold[cid].results == warm[wid].results == oracle(
                "AXC", text
            )
            assert warm[wid].mode == "cached"
        assert stats["hits"] == len(texts)
        assert stats["by_tenant"]["warm"]["hits"] == len(texts)

    def test_per_job_submit_also_hits_cache(self, shared_pool):
        async def go():
            svc = AsyncMatcherService(pool=shared_pool, cache=ResultCache())
            await svc.start()
            a = await svc.submit("AX", "ABCAABCA")
            first = await svc.result(a)
            b = await svc.submit("AX", "ABCAABCA")
            second = await svc.result(b)
            return first, second

        first, second = run(go())
        assert first.results == second.results == oracle("AX", "ABCAABCA")
        assert second.mode == "cached"


class TestAdversity:
    def test_invalid_later_stream_admits_nothing(self, shared_pool):
        """A bad stream anywhere in the list rejects the whole call
        before any job is admitted, so drain and close cannot wait on
        orphaned jobs."""

        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            with pytest.raises(ReproError):
                await svc.submit_many("AB", ["ABAB", "BBAA", "ABZZ", "AAAA"])
            drained = await asyncio.wait_for(svc.drain(), timeout=10.0)
            return svc.submitted, drained

        submitted, drained = run(go())
        assert submitted == 0
        assert drained == []

    def test_differential_under_seeded_faults(self):
        rng = random.Random(404)

        async def go(seed, texts):
            faults = FaultInjector(seed=seed, p_death=0.3)
            cfg = RuntimeConfig(max_batch_jobs=4)
            async with AsyncMatcherService(
                2, AB, config=cfg, faults=faults
            ) as svc:
                jids = await svc.submit_many("AXC", texts)
                results = {r.job_id: r for r in await svc.drain()}
                return jids, results

        for trial in range(3):
            texts = [
                "".join(rng.choice("ABCD") for _ in range(rng.randint(0, 40)))
                for _ in range(rng.randint(2, 10))
            ]
            texts[1] = texts[0]  # force a follower through the fault path
            jids, results = run(go(trial, texts))
            for jid, text in zip(jids, texts):
                assert results[jid].results == oracle("AXC", text), (
                    trial, text
                )

    def test_member_deadline_sheds_without_killing_batch(self):
        async def go():
            cfg = RuntimeConfig(default_timeout_s=0.0001)
            async with AsyncMatcherService(2, AB, config=cfg) as svc:
                texts = ["ABCA" * 20, "AACC" * 20]
                jids = await svc.submit_many("AX", texts)
                results = {r.job_id: r for r in await svc.drain()}
                return jids, texts, results

        jids, texts, results = run(go())
        for jid, text in zip(jids, texts):
            r = results[jid]
            assert r.results == oracle("AX", text)  # fallback still correct
            assert r.timed_out and r.via_fallback

    def test_numeric_workload_batched(self):
        taps = [1.0, 2.0, 1.0]
        streams = [[float(i + j) for i in range(20)] for j in range(5)]

        async def go():
            async with AsyncMatcherService(2, AB) as svc:
                jids = await svc.submit_many(taps, streams, workload="fir")
                results = {r.job_id: r for r in await svc.drain()}
                return jids, results

        jids, results = run(go())
        for jid, s in zip(jids, streams):
            want = run_workload("fir", taps, s, AB, engine="oracle")
            assert results[jid].results == want
            assert results[jid].mode == "batched"

    def test_rejected_job_is_not_counted_as_submitted(self, shared_pool):
        async def go():
            cfg = RuntimeConfig(max_pending=1, degrade_when_saturated=False)
            svc = AsyncMatcherService(pool=shared_pool, config=cfg)
            await svc.start()
            await svc.submit("AX", "ABCAABCA")  # stays pending: no await yet
            with pytest.raises(BackpressureError):
                await svc.submit_many("AX", ["AACC", "CABC"])
            await svc.drain()
            return svc.submitted, svc.completed, svc.backpressure_hits

        assert run(go()) == (1, 1, 1)

    def test_follower_of_a_rep_served_during_a_rate_limit_wait(
        self, shared_pool
    ):
        """The representative's deadline fires while the call waits on
        the rate limit; its duplicate still gets a copy of its answer
        instead of a second oracle run."""
        async def go():
            cfg = RuntimeConfig(rate_limits={"t": (50.0, 1.0)})
            svc = AsyncMatcherService(pool=shared_pool, config=cfg)
            await svc.start()
            jids = await svc.submit_many("AX", ["ABCA", "ABCA"], tenant="t",
                                         timeout=0.001)
            results = {r.job_id: r for r in await svc.drain()}
            return [results[j] for j in jids], svc.fallbacks

        (rep, follower), fallbacks = run(go())
        assert (rep.mode, follower.mode, fallbacks) == (
            "software", "deduped", 1
        )
        assert rep.results == follower.results == oracle("AX", "ABCA")

    def test_saturation_raises_after_flushing_admitted_head(self):
        async def go():
            cfg = RuntimeConfig(
                max_pending=1, degrade_when_saturated=False,
                max_batch_jobs=1,
            )
            async with AsyncMatcherService(1, AB, config=cfg) as svc:
                with pytest.raises(BackpressureError):
                    await svc.submit_many(
                        "AX", ["ABCA" * 10, "AACC" * 10, "CABC" * 10]
                    )
                results = await svc.drain()
                return results

        results = run(go())
        # Whatever was admitted before the rejection still completed.
        for r in results:
            assert r.results == oracle("AX", "ABCA" * 10)
