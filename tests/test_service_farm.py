"""The matcher-farm service layer: pool, scheduler, sharding, reliability."""

from dataclasses import replace

import pytest

from repro import Alphabet, match_oracle, parse_pattern
from repro.chip.cascade import ChipCascade
from repro.chip.chip import ChipSpec, PatternMatchingChip
from repro.errors import BackpressureError, ServiceError
from repro.host.bus import HostSpec
from repro.service import (
    BoundedQueue,
    DevicePool,
    Fault,
    FaultInjector,
    FaultKind,
    JobQueues,
    MatcherService,
    PoolWorker,
    Priority,
    SchedulerConfig,
    SharedBus,
    ShardMode,
    SoftwareFallback,
    WorkerState,
    cascade_pool,
    merge_shard_results,
    plan_shards,
    pool_from_wafers,
    uniform_pool,
)
from repro.service.scheduler import BeatClock
from repro.timing.model import TimingModel
from repro.wafer.wafer import Wafer

AB = Alphabet("ABCD")


class ScriptedInjector(FaultInjector):
    """Deterministic fault sequence for targeted failure tests."""

    def __init__(self, faults):
        super().__init__()
        self._faults = list(faults)

    def sample(self):
        return self._faults.pop(0) if self._faults else None


def oracle(pattern, text):
    return match_oracle(parse_pattern(pattern, AB), list(text))


# -- pool ---------------------------------------------------------------------


class TestPool:
    def test_worker_from_chip_and_cascade(self):
        chip = PoolWorker.from_chip("c", PatternMatchingChip(ChipSpec(8, 2), AB))
        assert chip.capacity == 8 and not chip.is_degraded and chip.is_live
        casc = PoolWorker.from_cascade("k", ChipCascade(ChipSpec(8, 2), 3, AB))
        assert casc.capacity == 24  # kn cells, Figure 3-7

    def test_worker_from_healthy_wafer(self):
        w = PoolWorker.from_wafer("w", Wafer(2, 8), AB)
        assert w.capacity == 16 and not w.is_degraded

    def test_worker_from_defective_wafer_is_degraded(self):
        wafer = Wafer(2, 8)
        wafer.mark_defective(0, 3)
        w = PoolWorker.from_wafer("w", wafer, AB)
        assert w.capacity == 15 and w.is_degraded and w.is_live

    def test_unharvestable_wafer_is_dead_not_fatal(self):
        wafer = Wafer(1, 6)
        for c in range(6):
            wafer.mark_defective(0, c)  # defect run beyond the bypass budget
        w = PoolWorker.from_wafer("w", wafer, AB)
        assert w.capacity == 0 and w.state is WorkerState.DEAD
        with pytest.raises(ServiceError):
            w.run_match(parse_pattern("A", AB), "ABAB")

    def test_run_match_direct_and_multipass_equal_oracle(self):
        w = PoolWorker.from_chip("c", PatternMatchingChip(ChipSpec(4, 2), AB))
        text = "ABCADBCABADCBA".replace("D", "A")
        short = parse_pattern("AXC", AB)
        assert w.run_match(short, text) == match_oracle(short, list(text))
        long = parse_pattern("ABXABA", AB)  # longer than 4 cells -> multipass
        assert w.run_match(long, text) == match_oracle(long, list(text))

    def test_service_beats_trace_to_timing_model(self):
        w = PoolWorker.from_chip("c", PatternMatchingChip(ChipSpec(8, 2), AB))
        t = TimingModel(250.0)
        assert w.service_beats(4, 100) * 250.0 == t.single_chip_run_ns(100, 8)
        assert (
            w.service_beats(20, 100) * 250.0
            == t.multipass_run_ns(100, 8, 20)
        )
        assert w.service_beats(4, 0) == 0

    def test_transfer_chars_multipass_restreams(self):
        w = PoolWorker.from_chip("c", PatternMatchingChip(ChipSpec(4, 2), AB))
        assert w.transfer_chars(3, 100) == 300  # 2 in + 1 back per text char
        assert w.transfer_chars(9, 100) > w.transfer_chars(3, 100)

    def test_pool_validation(self):
        with pytest.raises(ServiceError):
            DevicePool([])
        a = PoolWorker.from_chip("a", PatternMatchingChip(ChipSpec(4, 2), AB))
        b = PoolWorker.from_chip("a", PatternMatchingChip(ChipSpec(4, 2), AB))
        with pytest.raises(ServiceError):
            DevicePool([a, b])  # duplicate names
        other = PoolWorker.from_chip(
            "b", PatternMatchingChip(ChipSpec(4, 3), Alphabet("ABCDEFGH"))
        )
        with pytest.raises(ServiceError):
            DevicePool([a, other])  # mixed alphabets

    def test_pool_from_wafers_mixed_health(self):
        dead = Wafer(1, 6)
        for c in range(6):
            dead.mark_defective(0, c)
        degraded = Wafer(2, 4)
        degraded.mark_defective(1, 1)
        pool = pool_from_wafers([Wafer(2, 4), degraded, dead], AB)
        assert len(pool) == 3 and pool.n_live == 2
        assert pool.worker("wafer-1").is_degraded
        assert pool.total_capacity == 8 + 7


# -- scheduler ---------------------------------------------------------------


class TestScheduler:
    def test_bounded_queue_backpressure(self):
        q = BoundedQueue(2)
        q.put("a", 1)
        q.put("a", 2)
        with pytest.raises(BackpressureError):
            q.put("a", 3)
        assert len(q) == 2

    def test_tenant_round_robin(self):
        q = BoundedQueue(10)
        for j in ("a1", "a2", "a3"):
            q.put("alice", j)
        q.put("bob", "b1")
        assert [q.pop() for _ in range(4)] == ["a1", "b1", "a2", "a3"]
        assert q.pop() is None

    def test_priority_classes_drain_in_order(self):
        jq = JobQueues(SchedulerConfig(queue_capacity=4))
        jq.put(Priority.BATCH, "t", "slow")
        jq.put(Priority.INTERACTIVE, "t", "fast")
        assert jq.pop() == "fast"
        assert jq.pop() == "slow"
        assert jq.high_water[Priority.BATCH] == 1

    def test_shared_bus_serializes_and_accounts(self):
        bus = SharedBus(HostSpec(memory_cycle_ns=600.0, bytes_per_word=2), 250.0)
        assert bus.per_char_beats == pytest.approx(1.2)
        done1 = bus.reserve(100, now=0.0)
        done2 = bus.reserve(100, now=0.0)  # queued behind the first stream
        assert done2 == pytest.approx(2 * done1)
        assert bus.chars_moved == 200

    def test_clock_is_monotonic(self):
        clk = BeatClock()
        clk.advance_to(10.0)
        with pytest.raises(ServiceError):
            clk.advance_to(5.0)

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            SchedulerConfig(queue_capacity=0)
        with pytest.raises(ServiceError):
            SchedulerConfig(max_retries=-1)


# -- sharding ----------------------------------------------------------------


class TestSharding:
    def test_short_text_stays_whole(self):
        plan = plan_shards(4, 40, n_workers=4, min_shard_chars=64)
        assert plan.mode is ShardMode.DIRECT and plan.n_shards == 1

    def test_wide_text_sharded_with_overlap(self):
        plan = plan_shards(5, 400, n_workers=4, min_shard_chars=64)
        assert plan.mode is ShardMode.TEXT_SHARDED and plan.n_shards == 4
        k = 4
        for left, right in zip(plan.shards, plan.shards[1:]):
            assert right.out_lo == left.out_hi + 1       # contiguous ownership
            assert right.feed_start == right.out_lo - k  # k-char overlap
        assert plan.shards[0].feed_start == 0
        assert plan.shards[-1].out_hi == 399

    def test_merge_equals_oracle(self):
        pattern = parse_pattern("ABXA", AB)
        text = ("ABCA" * 60)[:230]
        plan = plan_shards(len(pattern), len(text), 3, min_shard_chars=16)
        per_shard = [
            match_oracle(pattern, list(shard.feed(text)))
            for shard in plan.shards
        ]
        merged = merge_shard_results(plan.shards, per_shard, len(text))
        assert merged.tolist() == match_oracle(pattern, list(text))

    def test_merge_rejects_inconsistent_streams(self):
        plan = plan_shards(3, 200, 2, min_shard_chars=16)
        with pytest.raises(ServiceError):
            merge_shard_results(plan.shards, [[False]], 200)
        bad = [[False] * plan.shards[0].n_fed, [False]]
        with pytest.raises(ServiceError):
            merge_shard_results(plan.shards, bad, 200)


# -- reliability -------------------------------------------------------------


class TestReliability:
    def test_injector_deterministic_per_seed(self):
        a = FaultInjector(seed=3, p_death=0.3, p_stuck=0.3)
        b = FaultInjector(seed=3, p_death=0.3, p_stuck=0.3)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_injector_validation(self):
        with pytest.raises(ServiceError):
            FaultInjector(p_death=0.7, p_stuck=0.7)
        with pytest.raises(ServiceError):
            FaultInjector(p_death=-0.1)

    def test_software_fallback_equals_oracle_and_costs_host_time(self):
        fb = SoftwareFallback(HostSpec())
        pattern = parse_pattern("AXCA", AB)
        text = list("ABCAACACCABACA")
        assert fb.match(pattern, text) == match_oracle(pattern, text)
        beats = fb.beats(4, 100, 250.0)
        assert beats * 250.0 == HostSpec().software_match_time_ns(100, 4)


# -- the service -------------------------------------------------------------


class TestMatcherService:
    def test_basic_drain_equals_oracle(self):
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB))
        jid = svc.submit("AXC", "ABCAACACCAB")
        results = svc.drain()
        assert results[jid].results == oracle("AXC", "ABCAACACCAB")
        assert results[jid].mode == "direct" and not results[jid].via_fallback

    def test_empty_text_job(self):
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB))
        jid = svc.submit("AB", "")
        r = svc.drain()[jid]
        assert r.results == [] and r.service_beats == 0

    def test_submit_many_batches_one_job_per_text(self):
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB))
        texts = ["ABCAACACCAB", "AACCA", "", "ABCABC"]
        jids = svc.submit_many("AXC", texts, tenant="alice")
        assert jids == sorted(jids) and len(jids) == len(texts)
        results = svc.drain()
        for jid, text in zip(jids, texts):
            assert results[jid].results == oracle("AXC", text)
            assert results[jid].tenant == "alice"

    def test_long_pattern_routes_through_multipass(self):
        svc = MatcherService(uniform_pool(1, ChipSpec(4, 2), AB))
        pattern, text = "ABCABX", "ABCABAABCABBABCABC"
        jid = svc.submit(pattern, text)
        r = svc.drain()[jid]
        assert r.mode == "multipass"
        assert r.results == oracle(pattern, text)

    def test_wide_text_sharded_across_workers(self):
        config = SchedulerConfig(wide_text_threshold=64, min_shard_chars=16)
        svc = MatcherService(uniform_pool(4, ChipSpec(8, 2), AB), config=config)
        pattern, text = "ABXA", "ABCA" * 40
        jid = svc.submit(pattern, text)
        r = svc.drain()[jid]
        assert r.mode == "text-sharded" and len(set(r.workers)) == 4
        assert r.results == oracle(pattern, text)

    def test_interactive_beats_batch(self):
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB))
        batch = svc.submit("AB", "ABAB" * 20, priority=Priority.BATCH)
        inter = svc.submit("BA", "ABAB" * 20, priority=Priority.INTERACTIVE)
        results = svc.drain()
        assert results[inter].started_beat < results[batch].started_beat

    def test_tenant_fairness_round_robin(self):
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB))
        a1 = svc.submit("AB", "ABAB", tenant="alice")
        a2 = svc.submit("AB", "ABAB", tenant="alice")
        a3 = svc.submit("AB", "ABAB", tenant="alice")
        b1 = svc.submit("AB", "ABAB", tenant="bob")
        results = {r.job_id: r for r in svc.drain()}
        order = sorted(results, key=lambda jid: results[jid].started_beat)
        assert order == [a1, b1, a2, a3]

    def test_backpressure_raises_when_degradation_off(self):
        config = SchedulerConfig(queue_capacity=1, degrade_when_saturated=False)
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB), config=config)
        svc.submit("AB", "ABAB")
        with pytest.raises(BackpressureError):
            svc.submit("AB", "ABAB")

    def test_saturation_degrades_to_software(self):
        config = SchedulerConfig(queue_capacity=1, degrade_when_saturated=True)
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB), config=config)
        svc.submit("AB", "ABAB")
        jid = svc.submit("AXB", "ABABAB")
        r = svc.drain()[jid]
        assert r.via_fallback and r.mode == "software"
        assert r.results == oracle("AXB", "ABABAB")
        assert svc.telemetry.backpressure_hits == 1
        assert svc.telemetry.fallbacks == 1

    def test_worker_death_retries_on_another_worker(self):
        faults = ScriptedInjector([Fault(FaultKind.WORKER_DEATH, at_fraction=0.5)])
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB), faults=faults)
        jid = svc.submit("AXC", "ABCAACACCAB")
        r = svc.drain()[jid]
        assert r.results == oracle("AXC", "ABCAACACCAB")
        assert r.attempts == 1 and not r.via_fallback
        assert svc.telemetry.deaths == 1 and svc.telemetry.retries == 1
        assert svc.pool.n_live == 1

    def test_retry_exhaustion_falls_back_to_software(self):
        faults = ScriptedInjector(
            [Fault(FaultKind.WORKER_DEATH)] * 3
        )
        config = SchedulerConfig(max_retries=1)
        svc = MatcherService(
            uniform_pool(3, ChipSpec(8, 2), AB), config=config, faults=faults
        )
        jid = svc.submit("AXC", "ABCAACACCAB")
        r = svc.drain()[jid]
        assert r.via_fallback
        assert r.results == oracle("AXC", "ABCAACACCAB")
        assert svc.telemetry.deaths == 2  # two attempts died, then degrade

    def test_retry_budget_is_per_shard(self):
        """``max_retries`` is attempts per execution: each shard of a wide
        job has its own budget, so three shards dying once each are all
        retried on the device, while the job still counts every death."""
        seed, config = 12, SchedulerConfig(
            wide_text_threshold=64, max_shards=4, min_shard_chars=16,
        )
        probe = FaultInjector(seed=seed, p_death=0.5)
        deaths = [f is not None and f.kind is FaultKind.WORKER_DEATH
                  for f in (probe.sample() for _ in range(7))]
        # Four shard launches, three of them die; the three retries live.
        assert sum(deaths[:4]) == 3 and not any(deaths[4:])
        svc = MatcherService(
            uniform_pool(8, ChipSpec(8, 2), AB), config=config,
            faults=FaultInjector(seed=seed, p_death=0.5),
        )
        text = "ABCAACACCABD" * 20
        jid = svc.submit("AXC", text)
        r = svc.drain()[jid]
        assert r.mode == "text-sharded" and len(r.workers) == 4
        assert r.results == oracle("AXC", text)
        assert r.attempts == 3 and not r.via_fallback
        t = svc.telemetry
        assert (t.deaths, t.retries, t.fallbacks) == (3, 3, 0)

    def test_stuck_beats_add_latency_not_errors(self):
        # A fast host keeps the job device-bound so the stall is visible
        # beat for beat (on the 1979 host the bus would hide it).
        fast = HostSpec(name="mainframe", memory_cycle_ns=100.0, bytes_per_word=8)
        clean = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB), host=fast)
        jid = clean.submit("AB", "ABAB" * 10)
        base = clean.drain()[jid].finished_beat
        faults = ScriptedInjector(
            [Fault(FaultKind.STUCK_BEATS, extra_beats=400)]
        )
        stuck = MatcherService(
            uniform_pool(1, ChipSpec(8, 2), AB), host=fast, faults=faults
        )
        jid = stuck.submit("AB", "ABAB" * 10)
        r = stuck.drain()[jid]
        assert r.finished_beat == base + 400
        assert r.results == oracle("AB", "ABAB" * 10)
        assert stuck.telemetry.stuck_events == 1

    def test_all_dead_pool_degrades_gracefully(self):
        dead = Wafer(1, 6)
        for c in range(6):
            dead.mark_defective(0, c)
        svc = MatcherService(pool_from_wafers([dead], AB))
        jid = svc.submit("AXB", "ABABAB")
        r = svc.drain()[jid]
        assert r.via_fallback and r.results == oracle("AXB", "ABABAB")

    def test_degraded_queued_jobs_keep_their_queue_wait(self):
        """When the last worker dies, jobs still queued are served by the
        host; each keeps its submission beat, so the wait it spent in the
        queue is reported, whichever front door admitted it."""
        svc = MatcherService(
            uniform_pool(1, ChipSpec(8, 2), AB),
            config=SchedulerConfig(max_retries=0),
            faults=FaultInjector(seed=1, p_death=1.0, p_stuck=0.0),
        )
        text = "ABCAC" * 10
        first = svc.submit("AXC", text)
        queued = svc.submit("AXC", text)
        [batched] = svc.submit_many("AXC", [text])
        results = svc.drain()
        assert results[first].wait_beats == 0.0
        for jid in (queued, batched):
            r = results[jid]
            assert r.mode == "software" and r.via_fallback
            assert r.results == oracle("AXC", text)
            assert r.submitted_beat == 0.0
            assert r.wait_beats == r.started_beat > 0.0
        assert replace(results[batched], job_id=queued) == results[queued]

    def test_degraded_worker_still_correct(self):
        wafer = Wafer(2, 4)
        wafer.mark_defective(0, 1)
        wafer.mark_defective(1, 2)
        svc = MatcherService(pool_from_wafers([wafer], AB))
        pattern, text = "ABCABCA", "ABCABCABCABC"  # > 6 surviving cells
        jid = svc.submit(pattern, text)
        r = svc.drain()[jid]
        assert r.mode == "multipass"
        assert r.results == oracle(pattern, text)

    def test_telemetry_report_renders(self):
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB))
        svc.submit("AB", "ABAB" * 8, tenant="alice")
        svc.submit("BA", "ABAB" * 8, tenant="bob",
                   priority=Priority.INTERACTIVE)
        svc.drain()
        report = svc.report()
        assert "matcher farm" in report
        assert "priority classes" in report
        assert "chip-0" in report
        assert svc.telemetry.completed == 2
        assert svc.telemetry.aggregate_chars_per_s(svc.beat_ns) > 0

    def test_cascade_pool_serves_long_patterns_directly(self):
        svc = MatcherService(cascade_pool(2, ChipSpec(4, 2), 3, AB))
        pattern = "ABCABCABCA"  # 10 chars > 4, fits 12-cell cascade
        text = "ABCABCABCABCABCABC"
        jid = svc.submit(pattern, text)
        r = svc.drain()[jid]
        assert r.mode == "direct"
        assert r.results == oracle(pattern, text)

    def test_drain_is_idempotent_snapshot(self):
        svc = MatcherService(uniform_pool(1, ChipSpec(8, 2), AB))
        svc.submit("AB", "ABAB")
        first = svc.drain()
        again = svc.drain()
        assert [r.job_id for r in first] == [r.job_id for r in again]
