"""The sync farm's batch tier: coalesced plans, verified under adversity.

`MatcherService.submit_many` now plans ONE execution per unique text,
coalesces narrow texts into multi-job batch plans, and serves repeats
from followers or the result cache.  Whatever the routing -- batched,
deduped, cached, sharded wide texts, seeded deaths with whole-batch
retries, per-member deadline sheds, full-pool loss -- every job's answer
must equal the per-job ``submit`` path and the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet, match_oracle, parse_pattern
from repro.chip.chip import ChipSpec
from repro.errors import BackpressureError, ReproError, ServiceError
from repro.obs import Observability
from repro.service import (
    Fault,
    FaultInjector,
    FaultKind,
    MatcherService,
    Priority,
    ResultCache,
    SchedulerConfig,
    uniform_pool,
)
from repro.workloads import list_workloads, run_workload

AB = Alphabet("ABCD")


class ScriptedInjector(FaultInjector):
    def __init__(self, faults):
        super().__init__()
        self._faults = list(faults)

    def sample(self):
        return self._faults.pop(0) if self._faults else None


def oracle(pattern, text):
    return match_oracle(parse_pattern(pattern, AB), list(text))


class TestCoalescing:
    def test_batched_mode_and_one_execution_for_narrow_texts(self):
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB))
        texts = ["ABCA", "AACC", "CABC"]
        jids = svc.submit_many("AX", texts)
        results = svc.drain()
        for jid, text in zip(jids, texts):
            assert results[jid].results == oracle("AX", text)
            assert results[jid].mode == "batched"
        assert svc.telemetry.batches == 1
        assert svc.telemetry.batched_jobs == 3

    def test_one_plan_per_unique_text(self):
        """Satellite: duplicates share a plan instead of re-sharding."""
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB))
        texts = ["ABCA", "ABCA", "AACC", "ABCA"]
        jids = svc.submit_many("AX", texts)
        results = svc.drain()
        modes = [results[j].mode for j in jids]
        assert modes.count("deduped") == 2
        assert svc.telemetry.deduped == 2
        assert svc.telemetry.batched_jobs == 2  # unique texts only
        for jid, text in zip(jids, texts):
            assert results[jid].results == oracle("AX", text)

    def test_wide_texts_keep_their_own_shard_plans(self):
        config = SchedulerConfig(wide_text_threshold=64, min_shard_chars=16)
        svc = MatcherService(uniform_pool(4, ChipSpec(8, 2), AB), config=config)
        wide = "ABCA" * 40
        jids = svc.submit_many("ABXA", [wide, "ABCA", "AACC"])
        results = svc.drain()
        assert results[jids[0]].mode == "text-sharded"
        assert len(set(results[jids[0]].workers)) > 1
        assert results[jids[0]].results == oracle("ABXA", wide)
        assert results[jids[1]].mode == results[jids[2]].mode == "batched"

    def test_batch_chunking_respects_max_batch_jobs(self):
        config = SchedulerConfig(max_batch_jobs=2)
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB), config=config)
        texts = [t * 2 for t in ("ABCA", "AACC", "CABC", "BBCA", "ACCA")]
        jids = svc.submit_many("AX", texts)
        results = svc.drain()
        # 2 + 2 + 1: the trailing chunk of one job runs solo.
        assert svc.telemetry.batches == 2
        assert results[jids[-1]].mode == "direct"
        for jid, text in zip(jids, texts):
            assert results[jid].results == oracle("AX", text)

    def test_empty_texts_complete_immediately(self):
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB))
        jids = svc.submit_many("AB", ["", "ABAB", ""])
        results = svc.drain()
        assert results[jids[0]].results == []
        assert results[jids[2]].results == []
        assert results[jids[1]].results == oracle("AB", "ABAB")

    def test_max_batch_jobs_validated(self):
        with pytest.raises(ServiceError):
            SchedulerConfig(max_batch_jobs=0)


class TestAdversity:
    def test_whole_batch_death_retries_and_agrees(self):
        faults = ScriptedInjector(
            [Fault(FaultKind.WORKER_DEATH, at_fraction=0.5)]
        )
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB), faults=faults)
        texts = ["ABCA", "AACC", "CABC"]
        jids = svc.submit_many("AXC", texts)
        results = svc.drain()
        assert svc.telemetry.deaths == 1 and svc.telemetry.retries >= 1
        for jid, text in zip(jids, texts):
            r = results[jid]
            assert r.results == oracle("AXC", text)
            assert r.attempts >= 1 and not r.via_fallback

    def test_all_workers_dead_degrades_batch_members(self):
        faults = ScriptedInjector(
            [Fault(FaultKind.WORKER_DEATH, at_fraction=0.1)] * 8
        )
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB), faults=faults)
        texts = ["ABCA", "AACC"]
        jids = svc.submit_many("AX", texts)
        results = svc.drain()
        for jid, text in zip(jids, texts):
            assert results[jid].results == oracle("AX", text)
            assert results[jid].via_fallback

    def test_member_timeout_sheds_before_launch(self):
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB))
        texts = ["ABCA" * 8, "AACC" * 8]
        jids = svc.submit_many("AX", texts, timeout=1e-6)
        results = svc.drain()
        for jid, text in zip(jids, texts):
            r = results[jid]
            assert r.timed_out and r.via_fallback
            assert r.results == oracle("AX", text)
        assert svc.telemetry.timeouts == len(texts)

    def test_backpressure_rejects_unadmitted_tail(self):
        config = SchedulerConfig(
            queue_capacity=1, degrade_when_saturated=False,
            max_batch_jobs=1, wide_text_threshold=10_000,
        )
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB), config=config)
        with pytest.raises(BackpressureError):
            svc.submit_many("AX", ["ABCA", "AACC", "CABC"])
        results = svc.drain()
        # The admitted head still ran to a correct completion.
        for r in results.values() if hasattr(results, "values") else results:
            assert r.results == oracle("AX", "ABCA")

    def test_invalid_later_text_admits_nothing(self):
        """A bad text anywhere in the list rejects the whole call before
        any job is admitted: no orphaned jobs, no open spans."""
        obs = Observability()
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB), obs=obs)
        with pytest.raises(ReproError):
            svc.submit_many("AB", ["ABAB", "BBAA", "ABZZ", "AAAA"])
        assert svc.telemetry.submitted == 0
        assert svc.drain() == []
        assert obs.tracer.find("service.job") == []

    def test_invalid_priority_admits_nothing(self):
        """The priority is checked before any job is admitted, so an
        unknown class cannot strand admitted jobs in no queue."""
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB))
        with pytest.raises(ServiceError):
            svc.submit_many("AB", ["ABCA", "AACC"], priority=7)
        assert svc.telemetry.submitted == 0
        assert svc.drain() == []

    def test_saturation_degrades_overflow_members(self):
        config = SchedulerConfig(
            queue_capacity=1, degrade_when_saturated=True, max_batch_jobs=1,
        )
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB), config=config)
        texts = ["ABCA", "AACC", "CABC"]
        jids = svc.submit_many("AX", texts)
        results = svc.drain()
        assert any(results[j].via_fallback for j in jids)
        for jid, text in zip(jids, texts):
            assert results[jid].results == oracle("AX", text)


class TestPropertyDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.text(alphabet="ABCDX", min_size=1, max_size=6),
        st.lists(
            st.text(alphabet="ABCD", min_size=0, max_size=50),
            min_size=0,
            max_size=8,
        ),
    )
    def test_batched_equals_per_job_equals_oracle_under_faults(
        self, seed, pattern, texts
    ):
        faults_a = FaultInjector(seed=seed, p_death=0.2)
        faults_b = FaultInjector(seed=seed + 1, p_death=0.2)
        many = MatcherService(
            uniform_pool(2, ChipSpec(8, 2), AB), faults=faults_a,
            cache=ResultCache(),
        )
        solo = MatcherService(
            uniform_pool(2, ChipSpec(8, 2), AB), faults=faults_b
        )
        many_ids = many.submit_many(pattern, texts)
        many_res = many.drain()
        for jid, text in zip(many_ids, texts):
            want = oracle(pattern, text)
            assert many_res[jid].results == want
            sid = solo.submit(pattern, text)
            assert solo.drain()[sid].results == want

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1_000))
    def test_every_workload_batched_through_farm(self, seed):
        import random

        rng = random.Random(seed)
        for name in list_workloads():
            spec_numeric = name not in ("match", "count")
            if spec_numeric:
                params = [float(rng.randint(-4, 4)) for _ in
                          range(rng.randint(1, 4))]
                streams = [
                    [float(rng.randint(-8, 8)) for _ in
                     range(rng.randint(0, 30))]
                    for _ in range(rng.randint(1, 5))
                ]
            else:
                params = "".join(
                    rng.choice("ABCDX") for _ in range(rng.randint(1, 5))
                )
                streams = [
                    "".join(rng.choice("ABCD") for _ in
                            range(rng.randint(0, 40)))
                    for _ in range(rng.randint(1, 5))
                ]
            svc = MatcherService(
                uniform_pool(2, ChipSpec(8, 2), AB),
                faults=FaultInjector(seed=seed, p_death=0.15),
            )
            jids = svc.submit_many(params, streams, workload=name)
            results = svc.drain()
            for jid, stream in zip(jids, streams):
                want = run_workload(name, params, stream, AB, engine="oracle")
                assert results[jid].results == want, (name, stream)
