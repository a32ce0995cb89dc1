"""The oracle gate: expected answers from ``engine="oracle"``.

Every expected answer comes from the workload registry's direct
definition (:meth:`repro.workloads.WorkloadSpec.run` with
``engine="oracle"``), computed outside the timed phase.

farm_wide texts are 50k-200k items long, and the direct definition takes
1.5-2.4 us per item: about 230 ms per request, 5.5 times what the farm
takes, or some 56 s more for each 10 s run.  :class:`SpliceOracle` therefore
runs the oracle once over a base stream, and for each request re-runs it
only over the windows whose inputs differ from the base: in window space
(the registry's ``prepare``d stream) output ``i`` depends only on inputs
``i - k .. i``, so unchanged windows keep the base answer.  The first
request of every workload is also checked against a full oracle run, so
the splice itself is verified in every run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def digest(values) -> int:
    """A compact stand-in for a result list: equal lists hash equal, and
    ``hash(1) == hash(1.0)``, so count and numeric results compare by
    value exactly as ``==`` does.  Answers are stored as digests so the
    answers for a whole run fit in memory beside the service."""
    return hash(tuple(values))


class Oracle:
    """Memoised full-oracle answers keyed by (workload, params, text id)."""

    def __init__(self, alphabet):
        from repro.workloads import get_workload

        self._get = get_workload
        self.alphabet = alphabet
        self._memo: Dict[object, int] = {}

    def run(self, workload: str, params, text) -> list:
        return self._get(workload).run(
            params, text, self.alphabet, engine="oracle"
        )

    def expect(self, workload: str, params, text, key=None) -> int:
        """The digest of the oracle answer, memoised under *key*."""
        if key is None:
            return digest(self.run(workload, params, text))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = digest(self.run(workload, params, text))
        return hit

    def forget(self, keep) -> None:
        """Drop memoised answers whose key is not in *keep*."""
        for key in [k for k in self._memo if k not in keep]:
            del self._memo[key]


def _as_array(feed, numeric: bool) -> np.ndarray:
    if numeric:
        return np.asarray(feed, dtype=float)
    return np.frombuffer("".join(feed).encode("latin-1"), dtype=np.uint8)


class SpliceOracle:
    """Oracle answers for mutated prefixes of one base stream."""

    def __init__(self, oracle: Oracle, workload: str, params, base):
        spec = oracle._get(workload)
        self.oracle = oracle
        self.workload = workload
        self.params = params
        self.spec = spec
        al = oracle.alphabet
        self.taps = spec.parse_params(params, al)
        ktaps, feed = spec.prepare(self.taps, spec.validate_stream(base, al))
        self.ktaps = ktaps
        self.k = len(ktaps) - 1
        self.base_feed = _as_array(feed, spec.numeric)
        self.base_merged = spec.oracle(ktaps, feed, al)
        self.verified = False

    def expect(self, text) -> int:
        """The digest of the oracle answer for *text*."""
        spec, al, k = self.spec, self.oracle.alphabet, self.k
        validated = spec.validate_stream(text, al)
        _, feed = spec.prepare(self.taps, validated)
        n = len(feed)
        diff = np.flatnonzero(
            _as_array(feed, spec.numeric) != self.base_feed[:n]
        )
        merged = self.base_merged[:n]
        for lo, hi in _ranges(diff, k, n):
            start = max(0, lo - k)
            window = spec.oracle(self.ktaps, feed[start:hi + 1], al)
            merged[lo:hi + 1] = window[lo - start:]
        want = spec.finalize(self.ktaps, len(validated), merged)
        if not self.verified:
            full = self.oracle.run(self.workload, self.params, text)
            if full != want:
                raise AssertionError(
                    f"splice oracle disagrees with the full oracle on "
                    f"{self.workload}"
                )
            self.verified = True
        return digest(want)


def _ranges(diff: np.ndarray, k: int, n: int) -> List[Tuple[int, int]]:
    """Merged output ranges [d, d + k] touched by changed inputs *diff*."""
    out: List[Tuple[int, int]] = []
    for d in diff.tolist():
        lo, hi = d, min(n - 1, d + k)
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out
