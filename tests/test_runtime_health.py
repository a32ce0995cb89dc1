"""Fleet health over the concurrent runtime's real worker processes:
BIST probes cross the spawn boundary as job directives, quarantine
removes a process from dispatch, heal respawns it on freshly harvested
silicon -- and traffic results stay byte-identical to the oracle
through a full quarantine + heal cycle."""

import asyncio

import pytest

from repro.alphabet import Alphabet
from repro.errors import ProvisionError, ServiceError
from repro.obs import Observability
from repro.runtime import AsyncMatcherService, RuntimeHealth, WorkerPool
from repro.runtime.channels import JobRequest
from repro.service.health import HealthConfig
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
        health = RuntimeHealth(pool)

        report = run(health.probe(pool.idle_names()[0]))
        assert report is not None
        assert report.ok and report.functional_ok
        assert report.signature == report.golden
        assert report.chip == pool.idle_names()[0]
        # The probe never consumed the worker: it is idle again.
        assert len(pool.idle_names()) == 2

    def test_healthy_sweep_takes_no_action(self, pool):
        health = RuntimeHealth(pool)
        assert run(health.sweep()) == []

    def test_probe_records_obs_span(self, pool):
        obs = Observability()
        health = RuntimeHealth(pool, obs=obs)
        name = pool.idle_names()[0]
        run(health.probe(name))
        (span,) = obs.tracer.find("bist.run")
        assert span.attrs["chip"] == name
        assert span.attrs["ok"] is True


class TestQuarantineHeal:
    def test_full_cycle(self, pool):
        """Seed a latent defect, sweep: the worker is caught at the gate
        level, quarantined out of dispatch, and healed by a respawn on
        freshly harvested silicon that passes its incoming test."""
        obs = Observability()
        health = RuntimeHealth(pool, supply=good_supply(),
                               injector=None, obs=obs)
        victim = pool.idle_names()[0]
        health.seed_defect(victim, STUCK)

        events = run(health.sweep())
        assert [e.action for e in events] == ["quarantine", "heal"]
        assert events[0].worker == events[1].worker == victim
        assert events[0].cell  # the BIST diagnosis names a cell
        assert events[1].detail == "12/12 cells"  # a defect-free 3x4 lot
        # Healed: back in dispatch, latent directive cleared.
        assert victim in pool.idle_names()
        assert pool.quarantined_names() == []
        assert victim not in health.directives
        (span,) = obs.tracer.find("health.quarantine")
        assert span.attrs["worker"] == victim
        assert obs.registry.value("health.heals", worker=victim) == 1

    def test_quarantined_worker_refuses_targeted_work(self, pool):
        health = RuntimeHealth(pool, supply=good_supply())
        victim = pool.idle_names()[0]
        health.seed_defect(victim, STUCK)
        run(health.sweep(heal=False))
        assert victim in pool.quarantined_names()
        assert victim not in pool.idle_names()

        probe_config = HealthConfig(vectors=4, characterize=False)
        request = JobRequest(job_id=-99, attempt=0, workload="bist",
                             taps=[], streams=[], bist=(probe_config, None))
        assert pool.submit_to(victim, request, lambda reply: None) is False
        # A probe of a quarantined worker reports "not idle", not a hang.
        assert run(health.probe(victim)) is None

        run(health.heal(victim))
        assert victim in pool.idle_names()

    def test_heal_requires_quarantine(self, pool):
        with pytest.raises(ServiceError):
            pool.heal(pool.idle_names()[0])

    def test_heal_without_supply_raises(self, pool):
        """No wafer supply, no free respawn: the slot stays quarantined
        (the synchronous farm's rule)."""
        health = RuntimeHealth(pool)
        victim = pool.idle_names()[0]
        health.seed_defect(victim, STUCK)
        assert [e.action for e in run(health.sweep())] == ["quarantine"]
        with pytest.raises(ProvisionError, match="no wafer supply"):
            run(health.heal(victim))
        assert victim in pool.quarantined_names()

        health.supply = good_supply()
        run(health.heal(victim))
        assert victim in pool.idle_names()

    def test_heal_gated_on_wafer_supply(self, pool):
        """An exhausted lot fails the heal cleanly; the worker stays
        quarantined until silicon is actually available."""
        health = RuntimeHealth(pool, supply=good_supply(n_wafers=0))
        victim = pool.idle_names()[0]
        health.seed_defect(victim, STUCK)
        run(health.sweep(heal=False))
        with pytest.raises(ProvisionError, match="exhausted"):
            run(health.heal(victim))
        assert victim in pool.quarantined_names()

        health.supply = good_supply()
        run(health.heal(victim))
        assert victim in pool.idle_names()


class TestInjectorDrivenSweep:
    def test_sampled_defects_quarantined_and_healed(self, pool,
                                                    health_injector):
        """The injector (conftest's frozen seed) grows a latent defect
        on every idle worker; one sweep catches both across the process
        boundary and heals them in place."""
        health = RuntimeHealth(pool, supply=good_supply(),
                               injector=health_injector)
        events = run(health.sweep())
        # Probe and quarantine the whole fleet first, then heal it.
        assert [e.action for e in events] == [
            "quarantine", "quarantine", "heal", "heal",
        ]
        assert not health.directives  # fresh silicon everywhere
        assert len(pool.idle_names()) == 2


class TestResultsUnderChurn:
    def test_oracle_identical_across_quarantine_cycle(self, pool):
        """Every workload, before / while / after a worker is lost to
        quarantine and healed: all results byte-identical to the
        oracle.  Latent defects are directives, so a defective worker
        still computes correctly until caught -- the farm's answers must
        never depend on fleet churn."""
        health = RuntimeHealth(pool, supply=good_supply(),
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
            await health.sweep(heal=False)  # one worker short
            for name in list_workloads():
                params, stream = _input_for(name)
                jid = await svc.submit(params, stream, workload=name)
                out.append((name, (await svc.result(jid)).results))
            await health.heal(victim)  # healed fleet
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
