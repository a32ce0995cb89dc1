"""Cross-tenant result caching in front of the farm.

Section 5's deployment story has many tenants hammering the same attached
devices, and real multi-tenant query mixes repeat themselves: the same
pattern over the same corpus shard shows up from many clients.  Device
beats spent recomputing an identical window product are pure waste, so
the batch tier puts a :class:`ResultCache` in front of dispatch: results
are keyed on the *canonicalized* workload identity (workload name +
parsed parameters + a content digest of the validated input stream), so
any tenant's hit serves every tenant -- while telemetry stays per-tenant
so operators can see who benefits.

Keys are computed by :func:`result_cache_key` from post-parse,
pre-``prepare`` values: canonicalization (wildcards rendered as ``X``,
taps as floats) means two spellings of the same job share an entry, and
keying on parameters means a changed ``workload`` or tap vector can
never alias a stale result -- the invalidation property the cache tests
pin down.  A validated stream is hashed as the bytes of its typed array
(symbol codes or float64 samples); a character key also names the
alphabet, since equal codes under two alphabets are different texts.
Entries are LRU with three bounds: entry count, total cached output
values (a size bound, since one result value ~ one output word), and an
optional TTL in the caller's clock units (beats for the simulated farm,
seconds for the asyncio runtime).

The cache is deliberately clock-agnostic (``now`` is an argument, never
``time.time()``): the farm runs on a simulated :class:`~repro.service.scheduler.BeatClock`
and tests need determinism.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..alphabet import EncodedText, PatternChar, pattern_to_string
from ..errors import ServiceError
from ..obs.metrics import MetricsRegistry
from .telemetry import _Scalar

__all__ = ["ResultCache", "canonical_params", "result_cache_key"]


def canonical_params(taps: Sequence):
    """The canonical spelling of a parsed parameter vector.

    Wildcard-bearing patterns render to their ``X`` string; numeric taps
    become a float tuple.  ``submit_many`` hoists this out of the
    per-member loop -- every member shares one parameter vector.
    """
    if taps and all(isinstance(pc, PatternChar) for pc in taps):
        return pattern_to_string(taps)
    return tuple(float(v) for v in taps)


def _stream_digest(stream: Sequence, numeric: bool) -> bytes:
    """A content digest of a validated input stream.

    Encoded texts hash their code bytes, other character streams their
    utf-8 text; numeric streams hash the exact IEEE-754 bytes (no repr
    round-off), so two streams collide only if they are value-identical.
    """
    h = hashlib.sha256()  # hardware-accelerated on current x86 and arm
    if numeric:
        h.update(np.ascontiguousarray(stream, dtype=np.float64))
    elif isinstance(stream, EncodedText):
        h.update(np.ascontiguousarray(stream.codes))
    else:
        h.update("".join(stream).encode("utf-8"))
    return h.digest()


def result_cache_key(
    workload: str, taps: Sequence, stream: Sequence, numeric: bool,
    params=None,
) -> Tuple:
    """The cross-tenant identity of one job's answer.

    ``taps`` is the *parsed* parameter vector (:class:`PatternChar` list
    or float taps) and ``stream`` the *validated* input, both pre-
    ``prepare``: prepare-side padding is derived from these, so it can
    never split identical jobs into distinct keys.  An
    :class:`~repro.alphabet.EncodedText` keys on its code bytes plus its
    alphabet's symbols.  Pass ``params`` (from :func:`canonical_params`)
    to skip re-canonicalizing ``taps`` when keying many jobs that share
    one parameter vector.
    """
    if params is None:
        params = canonical_params(taps)
    symbols = stream.alphabet.symbols \
        if isinstance(stream, EncodedText) else None
    return (workload, params, symbols, len(stream),
            _stream_digest(stream, numeric))


class _Entry(NamedTuple):
    """A stored result: a tuple, so the collector stops tracking it."""

    results: tuple
    stored_at: float


class ResultCache:
    """Bounded LRU of job results, shared across tenants.

    Parameters
    ----------
    max_entries:
        Maximum number of cached results (LRU eviction beyond it).
    max_values:
        Bound on the *total* number of cached output values across all
        entries -- the size bound.  A single result larger than this is
        simply not cached.
    ttl:
        Optional time-to-live in the caller's clock units; entries older
        than this at ``get``/``put`` time are expired.  ``None`` means
        entries never age out.

    ``get`` takes a call's keys and ``put`` a settled unit's results,
    each booking its counters once.

    >>> cache = ResultCache(max_entries=2)
    >>> key = result_cache_key("match", [], "ABAB", numeric=False)
    >>> cache.get([key], tenant="t0")
    [None]
    >>> cache.put([(key, [False, True], 0.0)])
    >>> cache.get([key], tenant="t1")
    [[False, True]]
    """

    hits = _Scalar("_hits", int)
    misses = _Scalar("_misses", int)
    evictions = _Scalar("_evictions", int)
    expirations = _Scalar("_expirations", int)
    stores = _Scalar("_stores", int)

    def __init__(
        self,
        max_entries: int = 1024,
        max_values: int = 4_000_000,
        ttl: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if max_entries <= 0:
            raise ServiceError("cache max_entries must be positive")
        if max_values <= 0:
            raise ServiceError("cache max_values must be positive")
        if ttl is not None and ttl <= 0:
            raise ServiceError("cache ttl must be positive (or None)")
        self.max_entries = max_entries
        self.max_values = max_values
        self.ttl = ttl
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        self._total_values = 0
        self._registry = registry if registry is not None else MetricsRegistry()
        r = self._registry
        self._hits = r.counter("service.cache.hits")
        self._misses = r.counter("service.cache.misses")
        self._evictions = r.counter("service.cache.evictions")
        self._expirations = r.counter("service.cache.expirations")
        self._stores = r.counter("service.cache.stores")
        self._by_tenant: Dict[str, Tuple] = {}

    # -- telemetry ---------------------------------------------------------

    def _tenant_counters(self, tenant: str):
        pair = self._by_tenant.get(tenant)
        if pair is None:
            pair = self._by_tenant[tenant] = (
                self._registry.counter("service.cache.tenant_hits",
                                       tenant=tenant),
                self._registry.counter("service.cache.tenant_misses",
                                       tenant=tenant),
            )
        return pair

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """A snapshot for benches and ops dashboards."""
        return {
            "entries": len(self._entries),
            "values": self._total_values,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "stores": self.stores,
            "hit_rate": self.hit_rate(),
            "by_tenant": {
                t: {"hits": int(h.value), "misses": int(m.value)}
                for t, (h, m) in sorted(self._by_tenant.items())
            },
        }

    # -- the cache proper --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def _drop(self, key: Tuple) -> None:
        self._total_values -= len(self._entries.pop(key).results)

    def get(
        self, keys: Sequence[Tuple], tenant: str = "anon", now: float = 0.0
    ) -> List[Optional[list]]:
        """One call's lookups: each key's cached result, or None.  Hits
        return a copy, so callers can never mutate the shared entry; the
        call's hits and misses are booked once, for *tenant* and
        overall."""
        if not keys:
            return []
        entries, found = self._entries, []
        for key in keys:
            entry = entries.get(key)
            if entry is not None and self.ttl is not None and \
                    now - entry.stored_at > self.ttl:  # expired
                self._drop(key)
                self._expirations.inc()
                entry = None
            elif entry is not None:
                entries.move_to_end(key)
            found.append(None if entry is None else list(entry.results))
        misses = found.count(None)
        hits = len(keys) - misses
        t_hits, t_misses = self._tenant_counters(tenant)
        self._misses.inc(misses)
        t_misses.inc(misses)
        self._hits.inc(hits)
        t_hits.inc(hits)
        return found

    def put(self, items: Iterable[Tuple[Tuple, Sequence, float]]) -> None:
        """Store each (key, results, now) in order -- a copy of the
        results, aged from *now* -- evicting LRU past the bounds, and
        book the stores and evictions once.  The services store a
        settled unit's published lists: an entry shares their values,
        and so does every hit's copy."""
        entries, stores, evictions = self._entries, 0, 0
        for key, results, now in items:
            if len(results) > self.max_values:
                continue  # larger than the whole size budget: not cacheable
            if key in entries:  # re-store refreshes age + order
                self._drop(key)
            entries[key] = _Entry(tuple(results), now)
            self._total_values += len(results)
            stores += 1
            while len(entries) > self.max_entries or \
                    self._total_values > self.max_values:
                self._total_values -= len(entries.popitem(False)[1].results)
                evictions += 1
        self._stores.inc(stores)
        self._evictions.inc(evictions)

    def invalidate(self, key: Tuple) -> bool:
        """Drop one entry; True if it existed."""
        if key not in self._entries:
            return False
        self._drop(key)
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._total_values = 0
