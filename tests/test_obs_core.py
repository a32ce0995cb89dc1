"""Unit tests for the observability core: metrics registry and tracer."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError, ReproError
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.obs.replay import percentile


class TestMetricsRegistry:
    def test_counter_get_or_create_and_inc(self):
        r = MetricsRegistry()
        c = r.counter("jobs.done", tenant="a")
        c.inc()
        c.inc(4)
        assert r.counter("jobs.done", tenant="a") is c
        assert r.value("jobs.done", tenant="a") == 5
        # A different label set is a different series.
        r.counter("jobs.done", tenant="b").inc()
        assert r.value("jobs.done", tenant="b") == 1
        assert len(r.series("jobs.done")) == 2

    def test_counter_rejects_negative_increment(self):
        r = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            r.counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        r = MetricsRegistry()
        g = r.gauge("depth")
        g.set(7)
        g.inc(2)
        g.dec(4)
        assert g.value == 5

    def test_histogram_buckets_and_mean(self):
        r = MetricsRegistry()
        h = r.histogram("lat", buckets=[1.0, 10.0, 100.0])
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(555.5)
        assert h.mean == pytest.approx(555.5 / 4)
        # One observation per bucket plus one overflow.
        assert h.bucket_counts == [1, 1, 1, 1]

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ObservabilityError):
            r.gauge("x")
        with pytest.raises(ObservabilityError):
            r.histogram("x")

    def test_observability_error_is_repro_error(self):
        assert issubclass(ObservabilityError, ReproError)

    def test_value_default_for_missing_series(self):
        r = MetricsRegistry()
        assert r.value("nope", default=3.5) == 3.5

    def test_snapshot_is_json_shaped(self):
        import json

        r = MetricsRegistry()
        r.counter("a", k="v").inc(2)
        r.gauge("g").set(1.5)
        r.histogram("h").observe(3)
        snap = r.snapshot()
        json.dumps(snap)  # must be serialisable
        assert snap["a"][0]["value"] == 2
        assert snap["a"][0]["labels"] == {"k": "v"}
        assert snap["h"][0]["count"] == 1

    def test_render_mentions_names(self):
        r = MetricsRegistry()
        r.counter("array.beats", array="a0").inc(12)
        out = r.render()
        assert "array.beats" in out


def _linear_scan(bounds, values):
    """The bucket rule as a linear scan: the first bound a value does
    not exceed, else overflow (NaN exceeds none)."""
    counts, total = [0] * (len(bounds) + 1), 0.0
    for value in values:
        total += value
        for i, bound in enumerate(bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return counts, total


SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])


class TestBatchedObservation:
    """``Histogram.observe_many`` and ``Counter.inc_all`` equal a loop of
    ``observe``/``inc``: same buckets, count and total to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_observe_many_equals_a_loop_of_observe(self, data):
        bounds = data.draw(st.lists(
            st.one_of(st.floats(allow_nan=False), SPECIAL.filter(
                lambda v: not math.isnan(v))), min_size=1, max_size=6))
        values = data.draw(st.lists(st.one_of(
            st.floats(), SPECIAL, st.sampled_from(bounds),
            st.integers(-10, 10)), max_size=30))
        r = MetricsRegistry()
        batch = r.histogram("batch", buckets=bounds)
        loop = r.histogram("loop", buckets=bounds)
        batch.observe_many(values)
        for value in values:
            loop.observe(value)
        counts, total = _linear_scan(batch.bounds, values)
        assert batch.bucket_counts == loop.bucket_counts == counts
        assert batch.count == loop.count == len(values)
        assert repr(batch.total) == repr(loop.total) == repr(total)

    def test_nan_lands_in_the_overflow_bucket(self):
        h = MetricsRegistry().histogram("h", buckets=[1.0, 2.0])
        h.observe_many([math.nan, 1.0, 2.0, 2.5, -math.inf, math.inf])
        assert h.bucket_counts == [2, 1, 3]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1e9), max_size=30))
    def test_inc_all_equals_a_loop_of_inc(self, amounts):
        r = MetricsRegistry()
        batch, loop = r.counter("batch"), r.counter("loop")
        batch.inc(0.1)
        loop.inc(0.1)
        batch.inc_all(amounts)
        for amount in amounts:
            loop.inc(amount)
        assert repr(batch.value) == repr(loop.value)

    def test_inc_all_rejects_a_negative_amount(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("c").inc_all([1.0, -1.0])


class TestTracer:
    def test_begin_end_nesting_via_stack(self):
        t = Tracer()
        outer = t.begin("outer", t0=0.0)
        inner = t.begin("inner", t0=1.0)
        t.end(inner, t1=2.0)
        t.end(outer, t1=3.0)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # ancestry excludes the span itself, innermost parent first.
        assert [s.name for s in t.ancestry(inner)] == ["outer"]
        assert outer.duration == 3.0

    def test_open_close_does_not_touch_stack(self):
        t = Tracer()
        job = t.open_span("job", t0=0.0)
        # The async span must not become the parent of later stack spans.
        outer = t.begin("outer", t0=0.0)
        child = t.begin("child", t0=1.0)
        assert child.parent_id == outer.span_id
        assert outer.parent_id is None
        assert job.parent_id is None
        t.end(child, t1=2.0)
        t.end(outer, t1=2.0)
        t.close(job, t1=5.0, mode="direct")
        assert job.t1 == 5.0
        assert job.attrs["mode"] == "direct"

    def test_record_with_explicit_parent(self):
        t = Tracer()
        parent = t.open_span("job", t0=0.0)
        s = t.record("exec", t0=1.0, t1=4.0, parent=parent, worker="w0")
        assert s.parent_id == parent.span_id
        assert s.duration == 3.0
        assert t.children(parent) == [s]

    def test_nest_reenters_span_context(self):
        t = Tracer()
        s = t.record("exec", t0=0.0, t1=1.0)
        with t.nest(s):
            child = t.record("deep", t0=0.0, t1=1.0)
        after = t.record("other", t0=0.0, t1=1.0)
        assert child.parent_id == s.span_id
        assert after.parent_id is None

    def test_span_contextmanager_uses_clock(self):
        t = Tracer()
        clock = {"now": 10.0}
        with t.span("work", clock=lambda: clock["now"]) as s:
            clock["now"] = 25.0
        assert (s.t0, s.t1) == (10.0, 25.0)

    def test_events_and_find(self):
        t = Tracer()
        t.event("queue.depth", t=3.0, depth=2)
        t.event("queue.depth", t=4.0, depth=1)
        assert len(t.events) == 2
        t.record("a", t0=0, t1=1)
        assert [s.name for s in t.find("a")] == ["a"]

    def test_bounded_spans_drop_oldest_count(self):
        t = Tracer(max_spans=3)
        for i in range(5):
            t.record(f"s{i}", t0=0, t1=1)
        assert len(t.spans) == 3
        assert t.dropped_spans == 2

    def test_round_trip_to_from_dict(self):
        t = Tracer()
        a = t.begin("a", t0=0.0, k=1)
        t.end(a, t1=2.0)
        t.event("e", t=1.0, x="y")
        data = t.to_dict()
        back = Tracer.from_dict(data)
        assert [s.name for s in back.spans] == ["a"]
        assert back.spans[0].attrs == {"k": 1}
        assert back.events[0].name == "e"

    def test_render_tree_indents_children(self):
        t = Tracer()
        outer = t.begin("outer", t0=0.0)
        t.end(t.begin("inner", t0=0.5), t1=1.0)
        t.end(outer, t1=2.0)
        out = t.render_tree()
        assert "outer" in out and "  inner" in out


class TestObservabilityBundle:
    def test_defaults(self):
        obs = Observability()
        assert obs.deep is False and obs.trace_circuit is False
        assert isinstance(obs.registry, MetricsRegistry)
        assert isinstance(obs.tracer, Tracer)

    def test_trace_circuit_implies_deep(self):
        assert Observability(trace_circuit=True).deep is True

    def test_export_save_load(self, tmp_path):
        obs = Observability()
        obs.registry.counter("c").inc()
        obs.tracer.record("s", t0=0, t1=1)
        path = tmp_path / "trace.json"
        obs.save(str(path))
        data = Observability.load(str(path))
        assert data["format"] == 1
        assert data["metrics"]["c"][0]["value"] == 1
        assert data["spans"][0]["name"] == "s"


def test_percentile_nearest_rank():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert percentile(vals, 0) == 1.0
    assert percentile(vals, 100) == 4.0
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 95) == 7.0
