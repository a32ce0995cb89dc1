"""Seeded input generators.  The program sees only what these return.

Every generator draws from ``random.Random("<workload>:<seed>")``, so a
seed fixes the whole input sequence however many requests a run gets
through.  Character streams use the 4-symbol alphabet ``ABCD`` (the
2-bit chips of the pool); numeric streams hold small integers, so every
kernel's arithmetic is exact and results compare with ``==``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

SYMBOLS = "ABCD"
CHAR_WORKLOADS = ("match", "count")
NUMERIC_WORKLOADS = ("correlation", "inner-product", "convolution", "fir")
ALL_WORKLOADS = CHAR_WORKLOADS + NUMERIC_WORKLOADS


@dataclass
class Request:
    """One client call: one workload and parameter set over some texts."""

    workload: str
    params: object
    texts: List[object]
    #: Per text: an identity shared by every occurrence of the same text.
    ids: List[int] = field(default_factory=list)
    #: How many texts repeat one seen before (earlier in this request or
    #: in a recent request with the same workload and parameters).
    repeats: int = 0

    @property
    def items(self) -> int:
        return sum(len(t) for t in self.texts)


#: Window widths of the parameter sets: patterns of 4, 8 and 12 cells
#: (all fit a 16-cell chip), tap vectors of 2, 5 and 8.  Fixed widths
#: keep the work per request the same across seeds; contents are seeded.
PATTERN_LENGTHS = (4, 8, 12)
TAP_LENGTHS = (2, 5, 8)


def make_params(rng: random.Random, workload: str, index: int):
    if workload in CHAR_WORKLOADS:
        return "".join(rng.choice(SYMBOLS + "X")
                       for _ in range(PATTERN_LENGTHS[index]))
    taps = [float(rng.randint(-3, 3)) for _ in range(TAP_LENGTHS[index])]
    taps[0] = float(rng.choice((-2, -1, 1, 2)))  # never all-zero taps
    return taps


def make_text(rng: random.Random, workload: str, n: int):
    if workload in CHAR_WORKLOADS:
        return "".join(rng.choices(SYMBOLS, k=n))
    return [float(v) for v in rng.choices(range(-8, 9), k=n)]


#: Longest farm_narrow text: convolution pads a text by 2 * (taps - 1)
#: = 14, and 490 + 14 stays under the farm's 512-item sharding
#: threshold, so farm_narrow never shards.
NARROW_MAX = 490


class NarrowRequests:
    """farm_narrow: ~32 texts of 100-490 items per request, 30% repeats.

    A repeated text is either a duplicate of a text earlier in the same
    request (the service dedups it) or a recurrence of a text from one
    of the last ``WINDOW`` requests with the same workload and
    parameters (the result cache serves it).  Recurrences come only from
    recent requests so that a cache of ``cache_entries_needed`` entries
    never evicts them, which is what makes the measured
    ``dedup_ratio + hit_ratio`` equal the generated repeat share.
    """

    PARAM_SETS = 3
    #: Chance that a text repeats an earlier one.  Fixed rather than
    #: drawn per seed, so seeds vary the inputs but not the workload.
    REPEAT_SHARE = 0.3
    WINDOW = 48

    def __init__(self, seed: int):
        self.rng = rng = random.Random(f"farm_narrow:{seed}")
        self.params = {
            wl: [make_params(rng, wl, i) for i in range(self.PARAM_SETS)]
            for wl in ALL_WORKLOADS
        }
        # (workload, param index) -> {text id: (last request index, text)}
        self._recent: Dict[Tuple[str, int], Dict[int, tuple]] = {}
        self._n = 0
        self._next_id = 0
        self._cycle: List[Tuple[str, int]] = []

    @classmethod
    def cache_entries_needed(cls) -> int:
        # Every request touches at most 36 entries; an entry used within
        # the last WINDOW requests has at most this many newer ones.
        return 36 * (cls.WINDOW + 2)

    def live_ids(self) -> set:
        """Ids of every text a future request may still repeat."""
        return {tid for recent in self._recent.values() for tid in recent}

    def next(self) -> Request:
        rng = self.rng
        if not self._cycle:
            # Every (workload, parameter set) once per 18 requests, in a
            # seeded order: the mix is exact over any run length.
            self._cycle = [(wl, i) for wl in ALL_WORKLOADS
                           for i in range(self.PARAM_SETS)]
            rng.shuffle(self._cycle)
        wl, pi = self._cycle.pop()
        recent = self._recent.setdefault((wl, pi), {})
        oldest = self._n - self.WINDOW
        for tid in [t for t, (last, _) in recent.items() if last < oldest]:
            del recent[tid]
        req = Request(wl, self.params[wl][pi], [])
        for _ in range(rng.randint(28, 36)):
            seen = sorted(set(recent) | set(req.ids))
            if seen and rng.random() < self.REPEAT_SHARE:
                tid = rng.choice(seen)
                text = recent[tid][1] if tid in recent else \
                    req.texts[req.ids.index(tid)]
                req.repeats += 1
            else:
                tid = self._next_id
                self._next_id += 1
                text = make_text(rng, wl, rng.randint(100, NARROW_MAX))
            req.texts.append(text)
            req.ids.append(tid)
        for tid, text in zip(req.ids, req.texts):
            recent[tid] = (self._n, text)
        self._n += 1
        return req


class WideRequests:
    """farm_wide: one unique 50k-200k item text per request, alternating
    match and numeric workloads.

    Each text is a prefix of a per-workload base stream, stamped with
    the request number (so no two texts are equal and the cache never
    hits) plus a few seeded point mutations.  :mod:`perfbench.oracle`
    uses the base to derive the oracle answer without re-running the
    whole O(n * window) oracle per request.
    """

    BASE_LEN = 200_000
    TAG = 12

    def __init__(self, seed: int):
        self.rng = rng = random.Random(f"farm_wide:{seed}")
        self.params = {wl: make_params(rng, wl, 1) for wl in
                       ("match",) + NUMERIC_WORKLOADS}
        self.bases = {wl: make_text(rng, wl, self.BASE_LEN)
                      for wl in self.params}
        self._n = 0
        self._lengths: List[int] = []

    def next(self) -> Request:
        rng = self.rng
        n = self._n
        wl = "match" if n % 2 == 0 else \
            NUMERIC_WORKLOADS[(n // 2) % len(NUMERIC_WORKLOADS)]
        if not self._lengths:
            # One length from each fifth of 50k-200k per 5 requests, in
            # a seeded order: the size mix is the same in every run.
            self._lengths = [
                rng.randint(50_000 + k * 30_000, 80_000 + k * 30_000)
                for k in range(5)
            ]
            rng.shuffle(self._lengths)
        length = self._lengths.pop()
        text = list(self.bases[wl][:length])
        numeric = wl != "match"
        radix = 16 if numeric else len(SYMBOLS)
        tag = n
        for pos in range(self.TAG):
            tag, digit = divmod(tag, radix)
            text[pos] = float(digit - 8) if numeric else SYMBOLS[digit]
        for _ in range(8):
            pos = rng.randrange(self.TAG, length)
            text[pos] = float(rng.randint(-8, 8)) if numeric \
                else rng.choice(SYMBOLS)
        self._n += 1
        return Request(wl, self.params[wl], ["".join(text)] if not numeric
                       else [text], ids=[n])


@dataclass
class Arrival:
    at_s: float
    tenant: str
    workload: str
    params: object
    text: object


def open_schedule(seed: int, rate: float, duration_s: float) -> List[Arrival]:
    """runtime_open: Poisson arrivals at *rate* jobs/s for *duration_s*,
    from three tenants, medium texts over all six workloads.

    The arrival count is fixed at ``rate * duration_s`` and the times are
    sorted uniform draws: a Poisson process conditioned on its count, so
    seeds change when jobs arrive but not how many.
    """
    rng = random.Random(f"runtime_open:{seed}")
    params = {wl: [make_params(rng, wl, i) for i in range(3)]
              for wl in ALL_WORKLOADS}
    times = sorted(rng.uniform(0.0, duration_s)
                   for _ in range(round(rate * duration_s)))
    out: List[Arrival] = []
    for t in times:
        wl = rng.choice(ALL_WORKLOADS)
        out.append(Arrival(
            t, f"tenant-{rng.randrange(3)}", wl, rng.choice(params[wl]),
            make_text(rng, wl, rng.randint(500, 4000)),
        ))
    return out


@dataclass
class DesignPoint:
    kernel: str
    cells: int
    char_bits: int
    data_bits: int
    params: object


def design_points(seed: int) -> List[DesignPoint]:
    """chip_flow: the Plate 2 prototype (match, 8 cells x 2 bits), one
    counter and one inner-product array, with seeded parameters."""
    rng = random.Random(f"chip_flow:{seed}")
    return [
        DesignPoint("match", 8, 2, 2,
                    "".join(rng.choice(SYMBOLS + "X") for _ in range(rng.randint(3, 8)))),
        DesignPoint("count", 4, 2, 2,
                    "".join(rng.choice(SYMBOLS + "X") for _ in range(4))),
        DesignPoint("inner-product", 4, 2, 1,
                    [rng.randint(0, 1) for _ in range(3)] + [1]),
    ]


def chip_stream(seed: int, round_no: int, point: DesignPoint, n: int = 64):
    rng = random.Random(f"chip_flow:{seed}:{round_no}:{point.kernel}")
    if point.kernel == "inner-product":
        return [rng.randint(0, (1 << point.data_bits) - 1) for _ in range(n)]
    return "".join(rng.choices(SYMBOLS, k=n))
