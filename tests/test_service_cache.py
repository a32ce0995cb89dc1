"""The cross-tenant result cache: bounds, identity, fault-proof hits.

The load-bearing properties:

* a cache **hit is byte-identical to a cold run** even when the cold run
  rode through seeded worker deaths and retries -- caching can never
  change an answer, only its latency;
* entries are keyed on canonicalized workload **params**: change the
  pattern, the taps, or the workload name and the old entry can never be
  served (the invalidation-by-identity property);
* LRU with three bounds -- entry count, total values, TTL -- all
  enforced at the clock the caller supplies (beats here, seconds in the
  runtime), never wall time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet, match_oracle, parse_pattern
from repro.chip.chip import ChipSpec
from repro.errors import ServiceError
from repro.service import (
    FaultInjector,
    MatcherService,
    ResultCache,
    result_cache_key,
    uniform_pool,
)

AB = Alphabet("ABCD")


def oracle(pattern, text):
    return match_oracle(parse_pattern(pattern, AB), list(text))


class TestKeying:
    def test_same_job_same_key_across_spellings(self):
        a = result_cache_key("match", parse_pattern("AXC", AB), "ABCA", False)
        b = result_cache_key("match", parse_pattern("AXC", AB), "ABCA", False)
        assert a == b

    def test_params_differ_key_differs(self):
        text = "ABCAACACCAB"
        k1 = result_cache_key("match", parse_pattern("AXC", AB), text, False)
        k2 = result_cache_key("match", parse_pattern("AXB", AB), text, False)
        k3 = result_cache_key("count", parse_pattern("AXC", AB), text, False)
        assert len({k1, k2, k3}) == 3

    def test_numeric_taps_in_key(self):
        s = [1.0, 2.0, 3.0]
        k1 = result_cache_key("fir", [1.0, 2.0], s, True)
        k2 = result_cache_key("fir", [1.0, 3.0], s, True)
        assert k1 != k2

    def test_stream_content_digest(self):
        taps = [1.0]
        k1 = result_cache_key("fir", taps, [1.0, 2.0], True)
        k2 = result_cache_key("fir", taps, [1.0, 2.5], True)
        k3 = result_cache_key("fir", taps, [1.0, 2.0], True)
        assert k1 != k2 and k1 == k3


    def test_one_cache_two_alphabets_never_crosses(self):
        """"AB" under ABCD and "BA" under BACD are the same symbol codes
        [0, 1]; the key names the alphabet, so a cache shared by two
        farms with those alphabets serves neither the other's answer."""
        cache = ResultCache()
        abcd, bacd = Alphabet("ABCD"), Alphabet("BACD")
        farms = [
            MatcherService(uniform_pool(1, ChipSpec(8, 2), al), cache=cache)
            for al in (abcd, bacd)
        ]
        served = []
        for _ in range(2):  # cold, then warm
            for svc, text in zip(farms, ("AB", "BA")):
                svc.submit("AB", text)
                served.append(svc.drain()[-1])
        assert [r.results for r in served] == [
            [False, True], [False, False], [False, True], [False, False]
        ]
        assert [r.mode for r in served] == [
            "direct", "direct", "cached", "cached"
        ]
        assert cache.hits == 2 and len(cache) == 2


class TestBounds:
    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        keys = [result_cache_key("match", [], str(i), False) for i in range(3)]
        cache.put(keys[0], [True])
        cache.put(keys[1], [False])
        assert cache.get(keys[0]) == [True]  # refresh 0: now 1 is LRU
        cache.put(keys[2], [True, False])
        assert cache.get(keys[1]) is None and cache.evictions == 1
        assert cache.get(keys[0]) == [True]

    def test_value_budget_evicts(self):
        cache = ResultCache(max_values=10)
        k1 = result_cache_key("match", [], "a", False)
        k2 = result_cache_key("match", [], "b", False)
        cache.put(k1, [True] * 8)
        cache.put(k2, [False] * 8)  # 16 > 10: k1 must go
        assert cache.get(k1) is None and cache.get(k2) == [False] * 8
        assert cache.stats()["values"] == 8

    def test_oversized_result_not_cached(self):
        cache = ResultCache(max_values=4)
        key = result_cache_key("match", [], "abcdef", False)
        cache.put(key, [True] * 6)
        assert len(cache) == 0 and cache.get(key) is None

    def test_ttl_expiry_on_callers_clock(self):
        cache = ResultCache(ttl=100.0)
        key = result_cache_key("match", [], "x", False)
        cache.put(key, [True], now=50.0)
        assert cache.get(key, now=149.0) == [True]
        assert cache.get(key, now=151.0) is None
        assert cache.expirations == 1

    def test_restore_refreshes_age(self):
        cache = ResultCache(ttl=100.0)
        key = result_cache_key("match", [], "x", False)
        cache.put(key, [True], now=0.0)
        cache.put(key, [True], now=90.0)
        assert cache.get(key, now=150.0) == [True]

    def test_hit_returns_a_copy(self):
        cache = ResultCache()
        key = result_cache_key("match", [], "x", False)
        cache.put(key, [True, False])
        got = cache.get(key)
        got[0] = "mutated"
        assert cache.get(key) == [True, False]

    def test_invalidate_and_clear(self):
        cache = ResultCache()
        key = result_cache_key("match", [], "x", False)
        cache.put(key, [True])
        assert cache.invalidate(key) and not cache.invalidate(key)
        cache.put(key, [True])
        cache.clear()
        assert len(cache) == 0 and cache.stats()["values"] == 0

    def test_bad_bounds_rejected(self):
        for kwargs in ({"max_entries": 0}, {"max_values": 0}, {"ttl": 0.0}):
            with pytest.raises(ServiceError):
                ResultCache(**kwargs)

    def test_per_tenant_telemetry(self):
        cache = ResultCache()
        key = result_cache_key("match", [], "x", False)
        cache.get(key, tenant="alice")
        cache.put(key, [True])
        cache.get(key, tenant="bob")
        by = cache.stats()["by_tenant"]
        assert by["alice"] == {"hits": 0, "misses": 1}
        assert by["bob"] == {"hits": 1, "misses": 0}
        assert 0.0 < cache.hit_rate() < 1.0


class TestFaultProofHits:
    """Satellite: hits byte-identical to cold runs with faults active."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.text(alphabet="ABCDX", min_size=1, max_size=6),
        st.lists(
            st.text(alphabet="ABCD", min_size=0, max_size=40),
            min_size=1,
            max_size=6,
        ),
    )
    def test_hit_equals_cold_run_under_seeded_faults(self, seed, pattern, texts):
        cache = ResultCache()
        svc = MatcherService(
            uniform_pool(2, ChipSpec(8, 2), AB),
            faults=FaultInjector(seed=seed, p_death=0.25),
            cache=cache,
        )
        cold_ids = svc.submit_many(pattern, texts, tenant="cold")
        cold = svc.drain()
        # Same jobs again: every non-empty text must now be a pure hit...
        warm_ids = svc.submit_many(pattern, texts, tenant="warm")
        warm = svc.drain()
        for cid, wid, text in zip(cold_ids, warm_ids, texts):
            assert warm[wid].results == cold[cid].results == oracle(
                pattern, text
            )
            if text:
                assert warm[wid].mode == "cached"
                assert warm[wid].service_beats == 0.0
        # ...and hits agree with a fault-free service that never cached.
        clean = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB))
        clean_ids = clean.submit_many(pattern, texts)
        clean_res = clean.drain()
        for wid, kid in zip(warm_ids, clean_ids):
            assert warm[wid].results == clean_res[kid].results

    def test_changed_params_never_served_from_cache(self):
        cache = ResultCache()
        svc = MatcherService(
            uniform_pool(2, ChipSpec(8, 2), AB), cache=cache
        )
        text = "ABCAACACCAB" * 3
        svc.submit("AXC", text)
        svc.drain()
        jid = svc.submit("AXB", text)  # same text, different pattern
        r = svc.drain()[jid]
        assert r.mode != "cached"
        assert r.results == oracle("AXB", text)
        jid2 = svc.submit("AXC", text, workload="count")
        r2 = svc.drain()[jid2]
        assert r2.mode != "cached"

    def test_cache_counters_fold_into_registry(self):
        from repro.obs import Observability

        obs = Observability()
        cache = ResultCache(registry=obs.registry)
        svc = MatcherService(
            uniform_pool(1, ChipSpec(8, 2), AB), cache=cache, obs=obs
        )
        svc.submit("AB", "ABAB")
        svc.drain()
        svc.submit("AB", "ABAB")
        svc.drain()
        snap = obs.registry.snapshot()
        assert any(k.startswith("service.cache.") for k in snap)
        assert cache.hits == 1
