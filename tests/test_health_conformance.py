"""One fleet-health loop, three fleets: :class:`FleetHealth` must take
the same actions over the synchronous farm's device pool, the process
runtime's worker pool and an in-test fake fleet.

Every case runs a 2-worker fleet with a latent defect on every probe
(the conftest ``HEALTH_SEED`` injector) and one seeded wafer lot, once
per fleet, and compares the audit trail each leaves: the
``(action, cell, detail)`` event sequence, the ``bist.run`` and
``health.quarantine`` span counts (and each ``bist.run`` verdict), and
the ``health.*`` / ``bist.runs`` counter totals.  Worker names differ by
design (the farm adds ``heal-N`` workers, the runtime and the fake
respawn a slot in place), so they are not compared.
"""

import os
import subprocess
import sys

import pytest

from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.errors import ProvisionError
from repro.obs import Observability
from repro.runtime import WorkerPool
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


class FakeFleet:
    """Two named slots in this process and no device: BIST runs
    in-process, and a respawn reuses the lowest vacated slot, held out
    of dispatch until admitted, as the runtime's pool does."""

    def __init__(self, n=2):
        self.live = [f"fake-{i}" for i in range(n)]
        self.vacated = []
        self.incoming = None

    @property
    def n_live(self):
        return len(self.live)

    def idle_names(self):
        return list(self.live)

    def quarantine(self, name):
        self.live.remove(name)
        self.vacated.append(name)

    def self_test(self, name, config, defect):
        if name not in self.live and name != self.incoming:
            return None
        return config.controller().run(defect=defect, chip_name=name)

    def respawn(self, wafer, config):
        self.incoming = min(self.vacated)
        return self.incoming

    def admit(self, name):
        self.vacated.remove(name)
        self.live.append(name)
        self.incoming = None


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
    spans = {name: obs.tracer.find(name)
             for name in ("bist.run", "health.quarantine")}
    return {
        "events": [(e.action, e.cell, e.detail) for e in health.events],
        "spans": {name: len(found) for name, found in spans.items()},
        "roots": all(span.parent_id is None
                     for found in spans.values() for span in found),
        "verdicts": [
            tuple(span.attrs[k] for k in ("ok", "timing_ok", "cell", "defect"))
            for span in spans["bist.run"]
        ],
        "counters": counters,
    }


def sweep(fleet, supply, config):
    """One sweep over *fleet*: its trail and the error it ended in."""
    from conftest import HEALTH_SEED

    obs = Observability()
    health = FleetHealth(
        fleet, supply=supply, config=config, obs=obs,
        injector=FaultInjector(seed=HEALTH_SEED, p_defect=1.0),
    )
    try:
        health.sweep()
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
def fleets(pool):
    """A fresh farm pool, the shared process pool and a fake fleet; the
    process pool is restored to a full idle fleet after the case (a
    case that cannot heal leaves slots quarantined)."""
    yield {
        "farm": uniform_pool(2, ChipSpec(8, AB.bits, beat_ns=250.0), AB),
        "process": pool,
        "fake": FakeFleet(),
    }
    FleetHealth(pool, supply=WaferSupply(4, rows=3, cols=4)) \
        .heal_to_capacity(2)
    assert len(pool.idle_names()) == 2


@pytest.mark.parametrize("case", sorted(CASES))
def test_fleets_take_identical_actions(case, fleets):
    lot, config, error = CASES[case]
    trails = {kind: sweep(fleet, supply_for(lot), config)
              for kind, fleet in fleets.items()}
    farm_trail, farm_error = trails["farm"]
    for kind, (got_trail, got_error) in trails.items():
        assert got_trail == farm_trail, kind
        assert got_error == farm_error, kind
    assert farm_trail["roots"]
    if error is None:
        assert farm_error is None
    else:
        assert error in farm_error
    actions = [action for action, _cell, _detail in farm_trail["events"]]
    assert actions[:2] == ["quarantine", "quarantine"]  # whole fleet caught


def test_identical_without_supply(fleets):
    """No lot: every fleet quarantines and stops, and an explicit heal
    raises the same clean error instead of respawning for free."""
    trails = {kind: sweep(fleet, None, None)[0]
              for kind, fleet in fleets.items()}
    assert trails["process"] == trails["fake"] == trails["farm"]
    assert [a for a, _c, _d in trails["farm"]["events"]] == ["quarantine"] * 2
    for fleet in fleets.values():
        with pytest.raises(ProvisionError, match="no wafer supply"):
            FleetHealth(fleet).heal_one()


def test_serving_tier_loads_no_runtime():
    """The loop lives in ``repro.service``: a farm that heals pays for
    no event loop, worker runtime or gate-level BIST import (a fresh
    interpreter, since this one has long loaded them)."""
    src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
    probe = (
        "import sys, repro.service\n"
        "print(sorted(m for m in sys.modules if m == 'asyncio'"
        " or m.startswith(('repro.runtime', 'repro.bist'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"
