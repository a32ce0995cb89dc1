"""One fleet-health policy, two transports: the synchronous farm's
:class:`FleetHealth` and the process runtime's :class:`RuntimeHealth`
must take the same actions on the same inputs.

Every case runs a 2-worker fleet with the conftest ``health_injector``
(a latent defect on every probe) and one seeded wafer lot, once per
transport, and compares the audit trail both leave: the
``(action, cell, detail)`` event sequence, the ``bist.run`` and
``health.quarantine`` span counts (and each ``bist.run`` verdict), and
the ``health.*`` / ``bist.runs`` counter totals.  Worker names differ by design (the farm adds
``heal-N`` workers, the runtime respawns its slot in place), so they are
not compared.
"""

import asyncio

import pytest

from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.errors import ProvisionError
from repro.obs import Observability
from repro.runtime import RuntimeHealth, WorkerPool
from repro.service import FleetHealth, HealthConfig
from repro.service.pool import uniform_pool
from repro.service.reliability import FaultInjector
from repro.wafer import WaferSupply

AB = Alphabet("ABCD")

#: name -> (wafer lot, config, the error the sweep must end in or None).
#: ``lossy`` draws a 30%-defect lot with a 9-cell floor: its second heal
#: skips an unharvestable wafer and two undersized ones (seed 1 lot:
#: 9, X, 7, 8, 9, ... cells).
CASES = {
    "clean-lot": (dict(n_wafers=8, defect_rate=0.0, seed=5), None, None),
    "lossy-lot": (
        dict(n_wafers=12, defect_rate=0.3, seed=1),
        HealthConfig(min_capacity=9),
        None,
    ),
    "lot-runs-dry": (
        dict(n_wafers=1, defect_rate=0.0, seed=5), None, "exhausted",
    ),
    "budget-spent": (
        dict(n_wafers=12, defect_rate=0.3, seed=1),
        HealthConfig(min_capacity=11, max_provision_attempts=3),
        "no provisionable wafer",
    ),
}


def supply_for(lot):
    return WaferSupply(rows=3, cols=4, **lot)


def trail(health, obs):
    registry = obs.registry
    counters = {
        name: sum(metric.value for metric in registry.series(name))
        for name in registry.names()
        if name.startswith("health.")
    }
    for verdict in ("pass", "fail"):
        counters[f"bist.runs.{verdict}"] = registry.value(
            "bist.runs", verdict=verdict
        )
    return {
        "events": [(e.action, e.cell, e.detail) for e in health.events],
        "spans": {
            name: len(obs.tracer.find(name))
            for name in ("bist.run", "health.quarantine")
        },
        "verdicts": [
            tuple(span.attrs[k] for k in ("ok", "timing_ok", "cell", "defect"))
            for span in obs.tracer.find("bist.run")
        ],
        "counters": counters,
    }


def sweep_sync(injector, supply, config):
    obs = Observability()
    pool = uniform_pool(2, ChipSpec(8, AB.bits, beat_ns=250.0), AB)
    health = FleetHealth(pool, supply=supply, injector=injector,
                         config=config, obs=obs)
    try:
        health.sweep()
        error = None
    except ProvisionError as exc:
        error = str(exc)
    return trail(health, obs), error


def sweep_async(pool, injector, supply, config):
    obs = Observability()
    health = RuntimeHealth(pool, supply=supply, injector=injector,
                           config=config, obs=obs)
    try:
        asyncio.run(health.sweep())
        error = None
    except ProvisionError as exc:
        error = str(exc)
    return trail(health, obs), error


@pytest.fixture(scope="module")
def pool():
    p = WorkerPool(2, AB).start()
    yield p
    p.shutdown()


@pytest.fixture
def healed_pool(pool):
    """The shared runtime pool, restored to a full idle fleet after the
    case (a case that cannot heal leaves slots quarantined)."""
    yield pool
    spare = RuntimeHealth(pool, supply=WaferSupply(4, rows=3, cols=4))
    for name in pool.quarantined_names():
        asyncio.run(spare.heal(name))
    assert len(pool.idle_names()) == 2


@pytest.mark.parametrize("case", sorted(CASES))
def test_transports_take_identical_actions(case, health_injector,
                                           healed_pool):
    from conftest import HEALTH_SEED

    lot, config, error = CASES[case]
    sync_trail, sync_error = sweep_sync(
        health_injector, supply_for(lot), config
    )
    async_trail, async_error = sweep_async(
        healed_pool, FaultInjector(seed=HEALTH_SEED, p_defect=1.0),
        supply_for(lot), config,
    )
    assert async_trail == sync_trail
    assert async_error == sync_error
    if error is None:
        assert sync_error is None
    else:
        assert error in sync_error
    actions = [action for action, _cell, _detail in sync_trail["events"]]
    assert actions[:2] == ["quarantine", "quarantine"]  # whole fleet caught


def test_identical_without_supply(health_injector, healed_pool):
    """No lot: both transports quarantine and stop, and an explicit
    heal raises the same clean error instead of respawning for free."""
    from conftest import HEALTH_SEED

    sync_trail, _ = sweep_sync(health_injector, None, None)
    async_trail, _ = sweep_async(
        healed_pool, FaultInjector(seed=HEALTH_SEED, p_defect=1.0), None,
        None,
    )
    assert async_trail == sync_trail
    assert [a for a, _c, _d in sync_trail["events"]] == ["quarantine"] * 2

    with pytest.raises(ProvisionError, match="no wafer supply"):
        FleetHealth(uniform_pool(1, ChipSpec(8, AB.bits, beat_ns=250.0), AB)) \
            .heal_one()
    victim = healed_pool.quarantined_names()[0]
    with pytest.raises(ProvisionError, match="no wafer supply"):
        asyncio.run(RuntimeHealth(healed_pool).heal(victim))
