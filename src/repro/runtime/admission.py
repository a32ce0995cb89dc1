"""Admission control: per-tenant token buckets.

A classic token bucket per tenant (``rate`` jobs/s sustained, ``burst``
jobs of headroom).  The async submit path *suspends the submitter*
until a token is available (the CSP blocked-sender, with a real
scheduler to suspend into) rather than dropping, so a well-behaved
client simply slows down.  The other gate, the pending bound, is the
process pool's (:class:`~repro.runtime.service.ProcessPool`).

Time is injected (``now``), never read, so the buckets are trivially
testable and deterministic.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..errors import ServiceError


class TokenBucket:
    """One tenant's budget: *rate* tokens/s, capped at *burst*."""

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ServiceError("token bucket rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._last is not None and now > self._last:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last) * self.rate
            )
        if self._last is None or now > self._last:
            self._last = now

    def acquire_delay(self, now: float) -> float:
        """Take a token if one is available (returns 0.0), else return
        the seconds to wait before retrying."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class RateLimiter:
    """Per-tenant token buckets.

    *limits* maps tenant name to ``(rate, burst)``.  Tenants without an
    entry are unlimited -- admission still bounds them via
    ``max_pending``.
    """

    def __init__(
        self, limits: Optional[Mapping[str, Tuple[float, float]]] = None
    ):
        self._spec = dict(limits or {})
        self._buckets: Dict[str, TokenBucket] = {}
        self.waits = 0  # times a submitter was made to wait

    def delay(self, tenant: str, now: float) -> float:
        """0.0 if *tenant* may submit now, else seconds until it may."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            spec = self._spec.get(tenant)
            if spec is None:
                return 0.0
            bucket = self._buckets[tenant] = TokenBucket(*spec)
        wait = bucket.acquire_delay(now)
        if wait > 0.0:
            self.waits += 1
        return wait
