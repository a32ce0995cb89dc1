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
from repro.errors import BackpressureError, ServiceError
from repro.runtime import AsyncMatcherService, RuntimeConfig, WorkerPool
from repro.runtime.channels import unpack_row
from repro.service.cache import ResultCache
from repro.service.reliability import FaultInjector
from repro.workloads import run_workload

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

    def test_solo_and_batch_units_share_one_wire_shape(
        self, shared_pool, monkeypatch
    ):
        """A solo unit is a batch of one on the wire: both units cross in
        ``JobRequest.streams``, one stream per piece, and each reply
        holds one result row per stream (a match row as packed bits)."""
        sent, replies = [], []
        submit = shared_pool.submit

        def spy(request, callback, **kw):
            sent.append(request)

            def on_reply(reply):
                replies.append(reply)
                callback(reply)

            submit(request, on_reply, **kw)

        monkeypatch.setattr(shared_pool, "submit", spy)
        texts = ["ABCAABCA", "AACC", "CABC"]

        async def go():
            svc = AsyncMatcherService(pool=shared_pool)
            await svc.start()
            await svc.submit("AX", texts[0])
            await svc.submit_many("AX", texts[1:])
            return [r.mode for r in await svc.drain()]

        assert run(go()) == ["pool", "batched", "batched"]
        solo, batch = sent
        assert [len(r.streams) for r in sent] == [1, 2]
        rows = {r.job_id: [unpack_row(row).tolist() for row in r.results]
                for r in replies}
        assert all(isinstance(row, tuple) for r in replies for row in r.results)
        assert rows[solo.job_id] == [oracle("AX", texts[0])]
        assert rows[batch.job_id] == [oracle("AX", t) for t in texts[1:]]

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
            async with AsyncMatcherService(2, AB) as svc:
                texts = ["ABCA" * 20, "AACC" * 20]
                jids = await svc.submit_many("AX", texts, timeout=0.0001)
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

    def test_rate_limit_wait_holds_back_no_admitted_job(self, shared_pool):
        """A call waits out the tokens of all its streams before it
        admits any, so the jobs that had a token at once are not held
        back while the later tokens arrive: all eight are admitted
        together, when the last token arrives."""
        texts = [f"ABC{'ABCD'[i % 4]}{'ABCD'[i // 4]}" for i in range(8)]

        async def go():
            cfg = RuntimeConfig(rate_limits={"t": (40.0, 4)},
                                max_batch_jobs=1)
            svc = AsyncMatcherService(pool=shared_pool, config=cfg)
            await svc.start()
            jids = await svc.submit_many("AX", texts, tenant="t")
            results = {r.job_id: r for r in await svc.drain()}
            return [results[j] for j in jids], svc.limiter.waits

        done, waits = run(go())
        assert waits > 0  # the last four streams waited for tokens
        submitted = [r.submitted_s for r in done]
        assert max(submitted) - min(submitted) < 0.020
        for r, text in zip(done, texts):
            assert r.results == oracle("AX", text)

    def test_close_during_a_rate_limit_wait_admits_nothing(self):
        """A call still waiting for its tokens when the service closes
        raises and admits nothing, rather than admitting jobs the closed
        pool can never run."""
        async def go():
            cfg = RuntimeConfig(rate_limits={"t": (5.0, 1)})
            svc = AsyncMatcherService(1, AB, config=cfg)
            await svc.start()
            await svc.submit("AX", "", tenant="t")  # takes the one token
            call = asyncio.create_task(
                svc.submit_many("AX", ["ABCA", "AACC"], tenant="t"))
            for _ in range(10000):  # until the call waits for a token
                if svc.limiter.waits:
                    break
                await asyncio.sleep(0.001)
            await svc.close()
            with pytest.raises(ServiceError):
                await call
            return svc.submitted, svc.completed

        assert run(go()) == (1, 1)

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
