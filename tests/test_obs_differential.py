"""Observability must never perturb behaviour.

Every layer runs the same workload twice -- once bare, once with an
``Observability`` bundle attached (including deep re-execution) -- and
the results AND the beat accounting must be bit-identical.
"""

from __future__ import annotations

import pytest

from repro import Alphabet, Observability, PatternMatcher, multipass_match
from repro.alphabet import parse_pattern
from repro.chip.cascade import ChipCascade
from repro.chip.chip import ChipSpec, PatternMatchingChip
from repro.obs import MetricsRegistry
from repro.service import FaultInjector, MatcherService, uniform_pool
from repro.service.scheduler import Priority

AB = Alphabet("ABCD")
TEXT = "ABCAACACCABDBCADBACABCAACACCABDBCADBACA"


def _drain(obs):
    pool = uniform_pool(3, ChipSpec(8, 2), AB)
    svc = MatcherService(
        pool,
        faults=FaultInjector(seed=11, p_death=0.15, p_stuck=0.15),
        obs=obs,
    )
    for i in range(8):
        svc.submit(
            "AXC",
            TEXT * (1 + i % 3),
            tenant=f"t{i % 2}",
            priority=Priority.INTERACTIVE if i % 4 == 0 else Priority.BATCH,
        )
    results = svc.drain()
    return svc, [
        (r.job_id, r.results, r.finished_beat, r.mode, r.workers, r.attempts)
        for r in results
    ]


class TestMatcherDifferential:
    def test_match_and_report_identical(self):
        bare = PatternMatcher("AXC", AB)
        traced = PatternMatcher("AXC", AB, obs=Observability())
        assert bare.match(TEXT) == traced.match(TEXT)
        rb = bare.report(TEXT)
        rt = traced.report(TEXT)
        assert rb.results == rt.results
        assert rb.beats == rt.beats
        assert rb.utilization == rt.utilization

    def test_detach_restores_bare_behaviour(self):
        m = PatternMatcher("AB", AB, obs=Observability())
        m.attach_obs(None)
        assert m.obs is None
        assert m.match(TEXT) == PatternMatcher("AB", AB).match(TEXT)


class TestChipAndCascadeDifferential:
    def test_chip_report_identical(self):
        bare = PatternMatchingChip(ChipSpec(8, 2), AB)
        traced = PatternMatchingChip(ChipSpec(8, 2), AB)
        traced.attach_obs(Observability())
        for chip in (bare, traced):
            chip.load_pattern("AXC")
        rb, rt = bare.report(TEXT), traced.report(TEXT)
        assert rb.results == rt.results
        assert rb.beats == rt.beats

    def test_cascade_match_identical(self):
        bare = ChipCascade(ChipSpec(4, 2), 3, AB)
        traced = ChipCascade(ChipSpec(4, 2), 3, AB)
        obs = Observability()
        traced.attach_obs(obs)
        pattern = "AXCABCAAC"  # needs more than one chip
        for c in (bare, traced):
            c.load_pattern(pattern)
        assert bare.match(TEXT) == traced.match(TEXT)
        assert bare.chain.beat == traced.chain.beat
        span = obs.tracer.find("cascade.match")[0]
        assert span.t1 == float(traced.chain.beat)


class TestMultipassDifferential:
    def test_multipass_identical(self):
        pattern = parse_pattern("ABCAACAC", AB)
        obs = Observability()
        bare = multipass_match(pattern, list(TEXT), 3)
        traced = multipass_match(pattern, list(TEXT), 3, obs=obs)
        assert bare == traced
        runs = obs.tracer.find("multipass.run")
        assert len(runs) >= 2  # long pattern on a small array: many passes
        # Each pass wraps exactly one array.run child.
        for span in runs:
            child_names = [s.name for s in obs.tracer.children(span)]
            assert child_names == ["array.run"]


class TestServiceDifferential:
    def test_faulted_farm_identical_with_obs(self):
        svc_off, off = _drain(None)
        svc_on, on = _drain(Observability(deep=True))
        assert off == on
        # Aggregate telemetry agrees too (same scheduling decisions).
        for attr in ("submitted", "completed", "retries", "deaths",
                     "stuck_events", "fallbacks", "makespan_beats",
                     "text_chars_served"):
            assert getattr(svc_off.telemetry, attr) == \
                getattr(svc_on.telemetry, attr), attr
        for name, w_off in svc_off.telemetry.workers.items():
            w_on = svc_on.telemetry.workers[name]
            assert w_off.busy_beats == pytest.approx(w_on.busy_beats)
            assert w_off.executions == w_on.executions

    def test_deep_trace_cross_checks_agree(self):
        svc, _ = _drain(Observability(deep=True))
        matches = svc.obs.tracer.find("worker.kernel")
        assert matches
        checked = [s for s in matches if "array_agrees" in s.attrs]
        assert checked, "deep mode must re-drive the stepwise array"
        assert all(s.attrs["array_agrees"] for s in checked)

    def test_shared_registry_sees_service_metrics(self):
        obs = Observability()
        svc, _ = _drain(obs)
        assert svc.telemetry.registry is obs.registry
        assert obs.registry.value("service.jobs.completed") == 8
        assert obs.registry.value("service.jobs.submitted") == 8

    def test_obs_off_attaches_nothing(self):
        svc, _ = _drain(None)
        assert svc.obs is None
        # Private registry still backs telemetry (attribute API unchanged).
        assert isinstance(svc.telemetry.registry, MetricsRegistry)
        assert svc.telemetry.completed == 8
