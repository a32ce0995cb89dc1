"""Fleet health over the concurrent runtime's real worker processes:
the farm's one :class:`FleetHealth` loop sends BIST probes across the
spawn boundary as job directives, quarantine removes a process from
dispatch, heal respawns it on freshly harvested silicon and lets it in
only once its incoming probe passes -- and traffic results stay
byte-identical to the oracle through a full quarantine + heal cycle."""

import asyncio
import threading
import time

import pytest

from repro.alphabet import Alphabet, parse_pattern
from repro.errors import ProvisionError, ServiceError
from repro.obs import Observability
from repro.runtime import AsyncMatcherService, WorkerPool
from repro.runtime.channels import JobRequest
from repro.service.health import FleetHealth, HealthConfig
from repro.service.reliability import CellDefect, CellDefectKind
from repro.wafer import WaferSupply
from repro.workloads.registry import get_workload, list_workloads

AB = Alphabet("ABCD")

#: A defect BIST always catches (validated by test_bist_coverage).
STUCK = CellDefect(CellDefectKind.STUCK_AT_1, 0, 0, port="d_out")

CHAR_TEXT = "ABCDACBDABCACDBA" * 6
NUM_STREAM = [((i * 37) % 19) - 9.0 for i in range(60)]

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


def good_supply(n_wafers=8, seed=5):
    return WaferSupply(n_wafers, rows=3, cols=4, defect_rate=0.0, seed=seed)


@pytest.fixture(scope="module")
def pool():
    p = WorkerPool(2, AB).start()
    yield p
    p.shutdown()


class TestProbe:
    def test_healthy_probe_passes(self, pool):
        health = FleetHealth(pool)

        report = health.probe(pool.idle_names()[0])
        assert report is not None
        assert report.ok and report.functional_ok
        assert report.signature == report.golden
        assert report.chip == pool.idle_names()[0]
        # The probe never consumed the worker: it is idle again.
        assert len(pool.idle_names()) == 2

    def test_healthy_sweep_takes_no_action(self, pool):
        health = FleetHealth(pool)
        assert health.sweep() == []

    def test_probe_records_obs_span(self, pool):
        obs = Observability()
        health = FleetHealth(pool, obs=obs)
        name = pool.idle_names()[0]
        health.probe(name)
        (span,) = obs.tracer.find("bist.run")
        assert span.attrs["chip"] == name
        assert span.attrs["ok"] is True


class TestQuarantineHeal:
    def test_full_cycle(self, pool):
        """Seed a latent defect, sweep: the worker is caught at the gate
        level, quarantined out of dispatch, and healed by a respawn on
        freshly harvested silicon that passes its incoming test."""
        obs = Observability()
        health = FleetHealth(pool, supply=good_supply(),
                               injector=None, obs=obs)
        victim = pool.idle_names()[0]
        health.seed_defect(victim, STUCK)

        events = health.sweep()
        assert [e.action for e in events] == ["quarantine", "heal"]
        assert events[0].worker == events[1].worker == victim
        assert events[0].cell  # the BIST diagnosis names a cell
        assert events[1].detail == "12/12 cells"  # a defect-free 3x4 lot
        # Healed: back in dispatch, latent directive cleared.
        assert victim in pool.idle_names()
        assert pool.quarantined_names() == []
        assert victim not in health.defects
        (span,) = obs.tracer.find("health.quarantine")
        assert span.attrs["worker"] == victim
        assert obs.registry.value("health.heals", worker=victim) == 1

    def test_quarantined_worker_refuses_targeted_work(self, pool):
        health = FleetHealth(pool, supply=good_supply())
        victim = pool.idle_names()[0]
        health.seed_defect(victim, STUCK)
        health.sweep(heal=False)
        assert victim in pool.quarantined_names()
        assert victim not in pool.idle_names()

        probe_config = HealthConfig(vectors=4, characterize=False)
        assert pool.self_test(victim, probe_config, None) is None
        # A probe of a quarantined worker reports "not idle", not a hang.
        assert health.probe(victim) is None

        health.heal_one()
        assert victim in pool.idle_names()

    def test_heal_requires_quarantine(self, pool):
        with pytest.raises(ServiceError):
            pool.respawn()

    def test_heal_without_supply_raises(self, pool):
        """No wafer supply, no free respawn: the slot stays quarantined
        (the synchronous farm's rule)."""
        health = FleetHealth(pool)
        victim = pool.idle_names()[0]
        health.seed_defect(victim, STUCK)
        assert [e.action for e in health.sweep()] == ["quarantine"]
        with pytest.raises(ProvisionError, match="no wafer supply"):
            health.heal_one()
        assert victim in pool.quarantined_names()

        health.supply = good_supply()
        health.heal_one()
        assert victim in pool.idle_names()

    def test_heal_gated_on_wafer_supply(self, pool):
        """An exhausted lot fails the heal cleanly; the worker stays
        quarantined until silicon is actually available."""
        health = FleetHealth(pool, supply=good_supply(n_wafers=0))
        victim = pool.idle_names()[0]
        health.seed_defect(victim, STUCK)
        health.sweep(heal=False)
        with pytest.raises(ProvisionError, match="exhausted"):
            health.heal_one()
        assert victim in pool.quarantined_names()

        health.supply = good_supply()
        health.heal_one()
        assert victim in pool.idle_names()


class TestHealUnderTraffic:
    def test_respawn_serves_only_after_its_incoming_probe(self, monkeypatch):
        """Heal a quarantined slot while the other worker is stalled with
        three requests queued behind it.  The respawn stays out of
        dispatch until its probe passes: its first request is that
        probe, one wafer suffices, and every queued request is answered
        exactly once (a respawn let in before its probe took a queued
        request, failed its probe as busy and was replaced with the
        request still on it)."""
        obs = Observability()
        duo = WorkerPool(2, AB, obs=obs).start()
        try:
            duo.quarantine("proc-1")
            replies = []
            all_in = threading.Event()

            def on_reply(reply):
                replies.append(reply.job_id)
                if len(replies) == 4:
                    all_in.set()

            def request(job_id, **kw):
                return JobRequest(
                    job_id=job_id, attempt=0, workload="match",
                    taps=parse_pattern("AB", AB),
                    streams=[AB.encode_text(CHAR_TEXT).codes], **kw,
                )

            duo.submit(request(0, stall_s=1.0), on_reply)
            deadline = time.monotonic() + 10.0
            while duo.idle_names():  # proc-0 takes the stalled request
                assert time.monotonic() < deadline, "never dispatched"
                time.sleep(0.001)
            for job_id in (1, 2, 3):
                duo.submit(request(job_id), on_reply)

            sent_before_probe = []
            self_test = duo.self_test

            def spy(name, config, defect):
                sent_before_probe.append(obs.registry.value(
                    "runtime.pool.dispatched", worker=name))
                return self_test(name, config, defect)

            monkeypatch.setattr(duo, "self_test", spy)
            health = FleetHealth(duo, supply=good_supply(n_wafers=4))
            assert health.heal_to_capacity(2) == ["proc-1"]
            assert health.supply.drawn == 1
            assert sent_before_probe == [0]
            assert all_in.wait(timeout=30.0)
            assert sorted(replies) == [0, 1, 2, 3]
        finally:
            duo.shutdown()


class TestInjectorDrivenSweep:
    def test_sampled_defects_quarantined_and_healed(self, pool,
                                                    health_injector):
        """The injector (conftest's frozen seed) grows a latent defect
        on every idle worker; one sweep catches both across the process
        boundary and heals them in place."""
        health = FleetHealth(pool, supply=good_supply(),
                               injector=health_injector)
        events = health.sweep()
        # Probe and quarantine the whole fleet first, then heal it.
        assert [e.action for e in events] == [
            "quarantine", "quarantine", "heal", "heal",
        ]
        assert not health.defects  # fresh silicon everywhere
        assert len(pool.idle_names()) == 2


class TestResultsUnderChurn:
    def test_oracle_identical_across_quarantine_cycle(self, pool):
        """Every workload, before / while / after a worker is lost to
        quarantine and healed: all results byte-identical to the
        oracle.  Latent defects are directives, so a defective worker
        still computes correctly until caught -- the farm's answers must
        never depend on fleet churn."""
        health = FleetHealth(pool, supply=good_supply(),
                               config=HealthConfig(vectors=8))
        victim = pool.idle_names()[0]

        async def go():
            svc = AsyncMatcherService(pool=pool)
            await svc.start()
            out = []
            for name in list_workloads():  # full fleet
                params, stream = _input_for(name)
                jid = await svc.submit(params, stream, workload=name)
                out.append((name, (await svc.result(jid)).results))
            health.seed_defect(victim, STUCK)
            # One worker short.
            await asyncio.to_thread(health.sweep, heal=False)
            for name in list_workloads():
                params, stream = _input_for(name)
                jid = await svc.submit(params, stream, workload=name)
                out.append((name, (await svc.result(jid)).results))
            await asyncio.to_thread(health.heal_one)  # healed fleet
            for name in list_workloads():
                params, stream = _input_for(name)
                jid = await svc.submit(params, stream, workload=name)
                out.append((name, (await svc.result(jid)).results))
            return out

        results = run(go())
        assert len(results) == 3 * len(list_workloads())
        for name, got in results:
            params, stream = _input_for(name)
            oracle = get_workload(name).run(params, stream, AB,
                                            engine="oracle")
            assert got == oracle, name
        assert victim in pool.idle_names()
