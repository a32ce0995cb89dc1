"""Property: farm-served workloads equal the behavioral oracle.

``MatcherService.submit(workload=...)`` routes Section 3.4 kernels
through the same scheduler as match jobs -- direct placement, multipass
for windows longer than a worker, halo-overlap text sharding, retry after
worker death, degradation to the workload's oracle.  None of that routing
may change a single output value: for random taps, streams, shard
geometries and fault seeds, the farm's answer must equal the workload's
direct oracle definition (exactly -- streams are integer-valued floats,
so float64 arithmetic is order-independent and exact).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet
from repro.chip.chip import ChipSpec
from repro.obs import Observability
from repro.service import (
    FaultInjector,
    MatcherService,
    Priority,
    ResultCache,
    SchedulerConfig,
    uniform_pool,
)
from repro.workloads import get_workload, list_workloads

AB = Alphabet("ABCD")

KERNELS = ["count", "correlation", "inner-product", "convolution", "fir"]

int_floats = st.integers(-6, 6).map(float)


@st.composite
def farm_workloads(draw):
    names = draw(
        st.lists(st.sampled_from(KERNELS), min_size=1, max_size=6)
    )
    jobs = []
    for name in names:
        spec = get_workload(name)
        n_taps = draw(st.integers(1, 10))
        n_samples = draw(st.sampled_from([0, 3, 40, 120]))
        if spec.numeric:
            taps = draw(
                st.lists(int_floats, min_size=n_taps, max_size=n_taps)
            )
            stream = draw(
                st.lists(int_floats, min_size=n_samples, max_size=n_samples)
            )
        else:
            taps = draw(
                st.text(alphabet="ABCDX", min_size=n_taps, max_size=n_taps)
            )
            stream = draw(
                st.text(alphabet="ABCD", min_size=n_samples,
                        max_size=n_samples)
            )
        jobs.append((name, taps, stream))
    fault_seed = draw(st.integers(0, 2**16))
    p_death = draw(st.sampled_from([0.0, 0.1, 0.3]))
    p_stuck = draw(st.sampled_from([0.0, 0.2]))
    n_workers = draw(st.integers(1, 4))
    n_cells = draw(st.sampled_from([4, 6, 8]))
    return jobs, fault_seed, p_death, p_stuck, n_workers, n_cells


@settings(max_examples=25, deadline=None)
@given(farm_workloads())
def test_farm_kernels_equal_oracle_under_faults(case):
    jobs, fault_seed, p_death, p_stuck, n_workers, n_cells = case
    pool = uniform_pool(n_workers, ChipSpec(n_cells, 2), AB)
    svc = MatcherService(
        pool,
        config=SchedulerConfig(
            queue_capacity=len(jobs) + 1,
            wide_text_threshold=48,
            min_shard_chars=12,
            max_retries=1,
        ),
        faults=FaultInjector(seed=fault_seed, p_death=p_death,
                             p_stuck=p_stuck),
    )
    ids = [
        svc.submit(
            taps,
            stream,
            tenant=f"tenant-{i % 3}",
            priority=Priority.INTERACTIVE if i % 2 else Priority.BATCH,
            workload=name,
        )
        for i, (name, taps, stream) in enumerate(jobs)
    ]
    results = {r.job_id: r for r in svc.drain()}
    assert len(results) == len(jobs)
    for jid, (name, taps, stream) in zip(ids, jobs):
        want = get_workload(name).run(taps, stream, AB, engine="oracle")
        got = results[jid]
        assert got.workload == name
        assert got.results == want, (
            f"job {jid} ({name}: {taps!r} on {len(stream)} samples) routed "
            f"as {got.mode}/attempts={got.attempts} diverged"
        )


def test_seeded_kernel_storm_covers_every_routing_path():
    """Deterministic storm across all kernels: sharding, multipass,
    retry-reassignment and oracle fallback all fire, and every output
    still equals the oracle."""
    rng = random.Random(406)
    pool = uniform_pool(3, ChipSpec(6, 2), AB)
    svc = MatcherService(
        pool,
        config=SchedulerConfig(
            queue_capacity=64,
            wide_text_threshold=60,
            min_shard_chars=16,
            max_retries=1,
        ),
        faults=FaultInjector(seed=9, p_death=0.12, p_stuck=0.15),
    )
    jobs = []
    # First job submitted against an all-idle pool: guaranteed sharding.
    first = ("fir", [1.0, -2.0], [float(rng.randint(-4, 4))
                                  for _ in range(150)])
    jobs.append((svc.submit(first[1], first[2], workload=first[0]), *first))
    for i in range(35):
        name = rng.choice(KERNELS)
        spec = get_workload(name)
        n_taps = rng.randint(1, 10)   # > 6 cells -> multipass accounting
        n = rng.randint(0, 140)
        if spec.numeric:
            taps = [float(rng.randint(-4, 4)) for _ in range(n_taps)]
            stream = [float(rng.randint(-4, 4)) for _ in range(n)]
        else:
            taps = "".join(rng.choice("ABCDX") for _ in range(n_taps))
            stream = "".join(rng.choice("ABCD") for _ in range(n))
        jobs.append((svc.submit(taps, stream, tenant=f"t{i % 4}",
                                workload=name), name, taps, stream))
    results = {r.job_id: r for r in svc.drain()}
    for jid, name, taps, stream in jobs:
        want = get_workload(name).run(taps, stream, AB, engine="oracle")
        assert results[jid].results == want
    modes = {r.mode for r in results.values()}
    assert {"direct", "multipass", "text-sharded"} <= modes
    assert any(r.attempts > 0 for r in results.values())
    assert svc.telemetry.deaths > 0
    by_workload = svc.telemetry.by_workload
    assert set(by_workload) <= set(KERNELS)
    assert sum(s["jobs"] for s in by_workload.values()) == len(jobs)
    assert "workloads" in svc.report()


def test_workload_spans_and_deep_oracle_check():
    """Kernel executions trace as worker.kernel spans; deep mode re-checks
    every execution against the oracle and records agreement."""
    obs = Observability(deep=True)
    pool = uniform_pool(2, ChipSpec(8, 2), AB)
    svc = MatcherService(pool, obs=obs)
    jid = svc.submit([1.0, 2.0, 3.0], [float(v % 5) for v in range(40)],
                     workload="fir")
    svc.submit("ABX", "ABCDABCA", workload="count")
    svc.drain()
    spans = [s for s in obs.tracer.spans if s.name == "worker.kernel"]
    assert spans, "kernel executions must record worker.kernel spans"
    assert all(s.attrs.get("oracle_agrees") is True for s in spans)
    workloads_seen = {s.attrs["workload"] for s in spans}
    assert workloads_seen == {"fir", "count"}
    job_spans = [s for s in obs.tracer.spans if s.name == "service.job"]
    assert {s.attrs.get("workload") for s in job_spans} == {"fir", "count"}
    assert svc.results()[0].job_id == jid


def test_backpressure_degrades_kernels_to_oracle():
    pool = uniform_pool(1, ChipSpec(8, 2), AB)
    svc = MatcherService(
        pool,
        config=SchedulerConfig(queue_capacity=1,
                               degrade_when_saturated=True),
    )
    taps, streams = [2.0, -1.0], []
    ids = []
    for i in range(6):
        stream = [float((i * 7 + j) % 5 - 2) for j in range(30)]
        streams.append(stream)
        ids.append(svc.submit(taps, stream, workload="correlation"))
    results = {r.job_id: r for r in svc.drain()}
    spec = get_workload("correlation")
    for jid, stream in zip(ids, streams):
        assert results[jid].results == spec.run(taps, stream,
                                                engine="oracle")
    assert any(r.mode == "software" for r in results.values())
    assert svc.telemetry.backpressure_hits > 0


def test_empty_streams_complete_immediately():
    pool = uniform_pool(1, ChipSpec(8, 2), AB)
    svc = MatcherService(pool)
    for name in KERNELS:
        spec = get_workload(name)
        params = [1.0, 2.0] if spec.numeric else "AB"
        jid = svc.submit(params, [] if spec.numeric else "", workload=name)
        assert svc.drain()[-1].job_id == jid
        assert svc.results()[-1].results == []


def test_submit_many_routes_workloads():
    pool = uniform_pool(2, ChipSpec(8, 2), AB)
    svc = MatcherService(pool)
    streams = [[1.0, 2.0, 3.0, 4.0], [0.0, -1.0, 5.0]]
    ids = svc.submit_many([1.0, 1.0], streams, workload="inner-product")
    results = {r.job_id: r for r in svc.drain()}
    spec = get_workload("inner-product")
    for jid, stream in zip(ids, streams):
        assert results[jid].results == spec.run([1.0, 1.0], stream,
                                                engine="oracle")


ROUTES = ["direct", "multipass", "text-sharded", "batched", "software",
          "cached", "deduped"]


def _route_inputs(spec, n_taps, n, seed):
    rng = random.Random(seed)
    if spec.numeric:
        return ([float(rng.randint(-4, 4)) for _ in range(n_taps)],
                [float(rng.randint(-4, 4)) for _ in range(n)])
    return ("".join(rng.choice("ABCDX") for _ in range(n_taps)),
            "".join(rng.choice("ABCD") for _ in range(n)))


def _serve_by_route(name, route):
    """Serve one job of *name* down *route* on a 3-worker, 4-cell farm;
    returns (params, stream, JobResult) for the job that took it."""
    spec = get_workload(name)
    n_taps = 6 if route == "multipass" else 3  # 6 > 4 cells
    n = 120 if route == "text-sharded" else 40  # wide from 48 on
    params, stream = _route_inputs(spec, n_taps, n, seed=len(name))
    faults = None
    if route == "software":
        faults = FaultInjector(seed=1, p_death=1.0, p_stuck=0.0)
    svc = MatcherService(
        uniform_pool(3, ChipSpec(4, 2), AB),
        config=SchedulerConfig(
            wide_text_threshold=48, min_shard_chars=12, max_retries=0
        ),
        faults=faults,
        cache=ResultCache(),
    )
    if route == "batched":
        _, other = _route_inputs(spec, n_taps, n, seed=99)
        jid = svc.submit_many(params, [stream, other], workload=name)[0]
    elif route == "deduped":
        jid = svc.submit_many(params, [stream, stream], workload=name)[1]
    else:
        if route == "cached":
            svc.submit(params, stream, workload=name)
            svc.drain()
        jid = svc.submit(params, stream, workload=name)
    return params, stream, svc.drain()[jid]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", list_workloads())
def test_every_route_returns_the_oracle_element_type(name, route):
    """Every sync route hands back the oracle's values *and* element
    types: bool for match, int for count, float for the numeric kernels
    (no route coerces, so a kernel or merge that changed type would
    show here)."""
    params, stream, got = _serve_by_route(name, route)
    want = get_workload(name).run(params, stream, AB, engine="oracle")
    assert got.mode == route
    assert got.results == want
    assert [type(v) for v in got.results] == [type(v) for v in want]
