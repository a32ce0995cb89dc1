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
        cache.put([(keys[0], [True], 0.0)])
        cache.put([(keys[1], [False], 0.0)])
        assert cache.get([keys[0]])[0] == [True]  # refresh 0: now 1 is LRU
        cache.put([(keys[2], [True, False], 0.0)])
        assert cache.get([keys[1]])[0] is None and cache.evictions == 1
        assert cache.get([keys[0]])[0] == [True]

    def test_value_budget_evicts(self):
        cache = ResultCache(max_values=10)
        k1 = result_cache_key("match", [], "a", False)
        k2 = result_cache_key("match", [], "b", False)
        cache.put([(k1, [True] * 8, 0.0)])
        cache.put([(k2, [False] * 8, 0.0)])  # 16 > 10: k1 must go
        assert cache.get([k1])[0] is None and cache.get([k2])[0] == [False] * 8
        assert cache.stats()["values"] == 8

    def test_oversized_result_not_cached(self):
        cache = ResultCache(max_values=4)
        key = result_cache_key("match", [], "abcdef", False)
        cache.put([(key, [True] * 6, 0.0)])
        assert len(cache) == 0 and cache.get([key])[0] is None

    def test_ttl_expiry_on_callers_clock(self):
        cache = ResultCache(ttl=100.0)
        key = result_cache_key("match", [], "x", False)
        cache.put([(key, [True], 50.0)])
        assert cache.get([key], now=149.0)[0] == [True]
        assert cache.get([key], now=151.0)[0] is None
        assert cache.expirations == 1

    def test_restore_refreshes_age(self):
        cache = ResultCache(ttl=100.0)
        key = result_cache_key("match", [], "x", False)
        cache.put([(key, [True], 0.0)])
        cache.put([(key, [True], 90.0)])
        assert cache.get([key], now=150.0)[0] == [True]

    def test_hit_returns_a_copy(self):
        cache = ResultCache()
        key = result_cache_key("match", [], "x", False)
        cache.put([(key, [True, False], 0.0)])
        got = cache.get([key])[0]
        got[0] = "mutated"
        assert cache.get([key])[0] == [True, False]

    def test_invalidate_and_clear(self):
        cache = ResultCache()
        key = result_cache_key("match", [], "x", False)
        cache.put([(key, [True], 0.0)])
        assert cache.invalidate(key) and not cache.invalidate(key)
        cache.put([(key, [True], 0.0)])
        cache.clear()
        assert len(cache) == 0 and cache.stats()["values"] == 0

    def test_bad_bounds_rejected(self):
        for kwargs in ({"max_entries": 0}, {"max_values": 0}, {"ttl": 0.0}):
            with pytest.raises(ServiceError):
                ResultCache(**kwargs)

    def test_per_tenant_telemetry(self):
        cache = ResultCache()
        key = result_cache_key("match", [], "x", False)
        cache.get([key], tenant="alice")
        cache.put([(key, [True], 0.0)])
        cache.get([key], tenant="bob")
        by = cache.stats()["by_tenant"]
        assert by["alice"] == {"hits": 0, "misses": 1}
        assert by["bob"] == {"hits": 1, "misses": 0}
        assert 0.0 < cache.hit_rate() < 1.0


class TestBatchedBooking:
    """A call's lookups are one ``get`` and a settled unit's stores one
    ``put``; each books its counters once, with the per-key outcome of a
    loop over the keys."""

    def test_one_get_per_call_books_hits_and_misses_once(self):
        cache = ResultCache(ttl=10.0)
        a, b, c = (result_cache_key("match", [], t, False) for t in "abc")
        cache.put([(a, [True], 0.0), (b, [False], 5.0)])
        # a expires at 12; b is hit twice (a duplicate in the call).
        got = cache.get([a, b, c, b], tenant="alice", now=12.0)
        assert got == [None, [False], None, [False]]
        assert (cache.hits, cache.misses, cache.expirations) == (2, 2, 1)
        assert cache.stats()["by_tenant"] == {
            "alice": {"hits": 2, "misses": 2}}
        assert cache.get([], tenant="bob") == []
        assert "bob" not in cache.stats()["by_tenant"]

    def test_one_put_per_unit_evicts_in_order(self):
        cache = ResultCache(max_entries=2, max_values=5)
        k = [result_cache_key("match", [], str(i), False) for i in range(4)]
        cache.put([(k[0], [True], 0.0), (k[1], [True] * 9, 0.0),
                   (k[2], [False], 1.0), (k[3], [True] * 3, 2.0)])
        # k1 is over the whole budget; k0 goes when k3 would make 3.
        assert [e is not None for e in cache.get(k)] == [
            False, False, True, True]
        assert (cache.stores, cache.evictions) == (3, 1)
        assert cache.stats()["values"] == 4


class TestHitOwnership:
    """A cache hit copies its result once (in ``get``), and every
    published list is its own: mutating one leaves the entry, the
    representative's and each follower's results unchanged."""

    def test_hit_is_copied_once_and_owned(self, monkeypatch):
        handed = []
        real_get = ResultCache.get

        def recording_get(self, keys, **kw):
            found = real_get(self, keys, **kw)
            handed.extend(hit for hit in found if hit is not None)
            return found

        monkeypatch.setattr(ResultCache, "get", recording_get)
        cache = ResultCache()
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB),
                             cache=cache)
        rep, follower = svc.submit_many("AXC", ["ABCAACAC"] * 2)
        svc.drain()
        hit = svc.submit("AXC", "ABCAACAC")
        results = svc.drain()
        want = oracle("AXC", "ABCAACAC")
        assert results[hit].mode == "cached"
        # The published list is the very copy get handed out.
        assert len(handed) == 1 and results[hit].results is handed[0]
        results[hit].results[:] = ["mutated"] * len(want)
        results[follower].results.append("more")
        assert results[rep].results == want
        results[rep].results.clear()
        assert results[follower].results == want + ["more"]
        # The entry is untouched by all three: the next hit is the answer.
        again = svc.submit("AXC", "ABCAACAC")
        assert svc.drain()[again].results == want

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
