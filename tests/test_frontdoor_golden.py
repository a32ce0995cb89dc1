"""Golden front-door dump: 300 seeded farm scenarios, each one sha256.

Each scenario builds a small traced farm from its seed (pool shape,
queue bound, batch size, wide-text threshold, cache, faults and
saturation policy), makes a few ``submit_many`` calls over one of the
six workloads and drains.  The digest covers every ``JobResult`` field
by ``repr``, every span (name, t0, t1, parent, attrs) and trace event,
``registry.snapshot()``, ``svc.report()`` and any error a call raised.
A change to the front door's bookkeeping must leave every digest as it
is: same results, same routes, same latency story, same trace, same
counters.

The scenarios cover all six workloads, multipass patterns (longer than
the chips), wide texts sharded across workers, in-call duplicates,
cache repeats across calls (with and without a TTL), seeded worker
deaths and stalls, deadlines, and saturation with and without
``degrade_when_saturated``.

Regenerate the digests (only when a change is *meant* to alter the
dump, and say so) with::

    PYTHONPATH=src python tests/test_frontdoor_golden.py --write

All 300 take about a second, so tier-1 checks every one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.errors import ReproError
from repro.obs import Observability
from repro.service import (
    FaultInjector, MatcherService, Priority, ResultCache, SchedulerConfig,
    uniform_pool,
)

DIGESTS = Path(__file__).resolve().parent / "data" / "frontdoor_golden.json"
N_SCENARIOS = 300

AB = Alphabet("ABCD")
WORKLOADS = ("match", "count", "correlation", "inner-product",
             "convolution", "fir")
CHARACTER = ("match", "count")


def _params(rng: random.Random, workload: str, cells: int):
    """A parameter vector; one in four is longer than the chips
    (multipass)."""
    n = rng.randint(cells + 1, cells + 4) if rng.random() < 0.25 \
        else rng.randint(1, cells)
    if workload in CHARACTER:
        return "".join(rng.choice("ABCDX") for _ in range(n))
    return [float(rng.randint(-3, 3)) for _ in range(n)]


def _stream(rng: random.Random, workload: str, wide: int):
    """An input stream: mostly short, sometimes empty, sometimes at
    least *wide* items (sharded when enough workers are idle)."""
    roll = rng.random()
    n = 0 if roll < 0.08 else (
        rng.randint(wide, 2 * wide) if roll < 0.2 else rng.randint(1, 24))
    if workload in CHARACTER:
        return "".join(rng.choice("ABCD") for _ in range(n))
    return [float(rng.randint(-4, 4)) for _ in range(n)]


def run_scenario(seed: int) -> str:
    """The dump of one scenario, as text."""
    rng = random.Random(seed)
    cells = rng.choice((4, 8))
    wide = rng.choice((32, 48, 64))
    config = SchedulerConfig(
        queue_capacity=rng.choice((1, 2, 3, 8, 64)),
        max_retries=rng.choice((0, 1, 2)),
        wide_text_threshold=wide,
        max_shards=rng.choice((2, 3, 4)),
        min_shard_chars=8,
        degrade_when_saturated=rng.random() < 0.6,
        max_batch_jobs=rng.choice((1, 2, 3, 8)),
    )
    p_death = rng.choice((0.0, 0.0, 0.05, 0.2))
    p_stuck = rng.choice((0.0, 0.1, 0.3))
    cache = None
    if rng.random() < 0.6:
        cache = ResultCache(max_entries=rng.choice((2, 8, 64)),
                            ttl=rng.choice((None, None, 40.0)))
    obs = Observability()
    svc = MatcherService(
        uniform_pool(rng.randint(2, 4), ChipSpec(cells, 2), AB),
        config=config,
        faults=FaultInjector(seed=seed, p_death=p_death, p_stuck=p_stuck),
        obs=obs, cache=cache,
    )
    lines = []
    calls = []  # earlier (workload, params, streams), for repeats
    for call in range(rng.randint(1, 6)):
        if calls and rng.random() < 0.5:  # the same job again: cacheable
            workload, params, earlier = rng.choice(calls)
        else:
            workload = rng.choice(WORKLOADS)
            params, earlier = _params(rng, workload, cells), []
        streams = []
        for _ in range(rng.randint(1, 9)):
            if streams and rng.random() < 0.25:  # duplicate in the call
                streams.append(rng.choice(streams))
            elif earlier and rng.random() < 0.5:  # repeat across calls
                streams.append(rng.choice(earlier))
            else:
                streams.append(_stream(rng, workload, wide))
        calls.append((workload, params, streams))
        timeout = rng.choice((None, None, None, 30.0, 120.0, 600.0))
        priority = rng.choice(list(Priority))
        tenant = rng.choice(("alice", "bob", "carol"))
        try:
            ids = svc.submit_many(params, streams, tenant=tenant,
                                  priority=priority, workload=workload,
                                  timeout=timeout)
            lines.append(f"call {call}: ids {ids}")
        except ReproError as exc:
            lines.append(f"call {call}: {type(exc).__name__}: {exc}")
        if rng.random() < 0.6:  # the cache fills at completion
            svc.drain()
    for result in svc.drain():
        lines.append(repr(tuple(
            (f.name, getattr(result, f.name))
            for f in dataclasses.fields(result))))
    for span in obs.tracer.spans:
        lines.append(repr((span.name, span.t0, span.t1, span.parent_id,
                           sorted(span.attrs.items()))))
    for event in obs.tracer.events:
        lines.append(repr((event.name, event.t, sorted(event.attrs.items()))))
    lines.append(json.dumps(obs.registry.snapshot(), sort_keys=True))
    lines.append(svc.report())
    return "\n".join(lines)


def digest(seed: int) -> str:
    return hashlib.sha256(run_scenario(seed).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_scenario_matches_golden_dump(seed, golden):
    assert digest(seed) == golden[str(seed)], (
        f"scenario {seed}: the front door's dump changed")


#: What the scenarios must reach: every route, a rejected call, a
#: timed-out job, both fault kinds, exhausted retries and a farm left
#: with no live worker.
MARKS = ("'cached'", "'deduped'", "'batched'", "'direct'", "'multipass'",
         "'text-sharded'", "'software'", "'empty'", "BackpressureError",
         "('timed_out', True)", "('fault', 'worker-death')",
         "('fault', 'stuck-beats')", "'retries-exhausted'",
         "'no-live-worker'")


def test_scenarios_cover_the_routes():
    """Each mark shows up in at least ten scenarios."""
    dumps = [run_scenario(seed) for seed in range(N_SCENARIOS)]
    for mark in MARKS:
        assert sum(mark in text for text in dumps) >= 10, mark


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_frontdoor_golden.py "
                 "--write")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(
        {str(s): digest(s) for s in range(N_SCENARIOS)}, indent=0) + "\n")
