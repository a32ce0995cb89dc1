"""Packed-word and strided fast paths for the systolic kernels.

The systolic array computes, for every text position *i*, the AND-chain

    result[i] = all(p[j] matches text[i - k + j]  for j in 0..k)

one cell-beat at a time.  :class:`FastMatcher` computes the same bits with
the classic shift-and recurrence over precomputed per-symbol masks: state
word ``S`` keeps one bit per pattern position (bit *j* set iff the last
``j + 1`` text characters match the first ``j + 1`` pattern positions),
and each text character advances every position at once::

    S = ((S << 1) | 1) & mask[ch]       # mask[ch] bit j set iff p[j] ~ ch
    result.append(bool(S & accept))     # accept = 1 << (len(pattern) - 1)

Wild cards cost nothing: a wild position's bit is simply set in every
symbol's mask.  Python integers are arbitrary-width, so one "word" covers
any pattern length -- patterns longer than a chip, which the hardware
handles by cascading or multipass runs, collapse into the same loop.

This is a *model shortcut*, not a different matcher: the property tests in
``tests/test_fastpath.py`` assert bit-for-bit agreement with the stepwise
:class:`~repro.core.array.SystolicMatcherArray` model and with
:func:`~repro.core.reference.match_oracle` over random patterns, texts and
alphabet widths.  :class:`~repro.core.matcher.PatternMatcher` routes plain
``match()`` calls here (beat-accurate runs and traces still use the
stepwise array), which is what makes whole-corpus runs and the service
farm measure scheduling rather than interpreter overhead.

The same trick carries to the Section 3.4 extensions, all of which share
the matcher's sliding-window shape:

* :class:`FastCounter` packs one small per-position *counter* lane per
  pattern position into a single Python integer (SIMD within a register)
  and advances every lane per character, mirroring the shift-and loop --
  the fast twin of the counting machine.
* :func:`fast_inner_products` / :func:`fast_squared_distances` evaluate
  the numeric kernels (correlation, convolution, FIR, inner products)
  over numpy strided window views -- the fast twins of the correlation
  machine and the linear-product semiring machines.

Each fast kernel is differentially tested against the stepwise
``repro.extensions`` cells in ``tests/test_workloads_kernels.py``.

Batched tier (PR 7)
-------------------

The per-job kernels above still pay Python dispatch once per job.  The
batched twins amortize that over whole batches, in the two shapes the
farm actually sees:

* **many patterns x one text** -- :class:`FastMatcherBank` lane-packs
  every pattern into *one* arbitrary-width Python integer (a spacer bit
  between lanes absorbs each lane's shift-out), so a single shift-and
  step advances all patterns per text character.  :class:`FastCounterBank`
  is the counting twin over a shared code vector.
* **one pattern x many texts** -- :func:`fast_match_many`,
  :func:`fast_counts_many`, :func:`fast_inner_products_many` and
  :func:`fast_squared_distances_many` pad the batch into one
  ``(batch, max_len)`` numpy matrix and evaluate the window recurrence
  as ``O(pattern_len)`` vectorized passes over the whole batch, so the
  per-character Python overhead vanishes entirely.

All batched paths are property-tested equal to the per-job fast kernels
and the oracles (``tests/test_fastpath_batched.py``), ragged batches and
empty batches included.  The one-pattern-many-texts kernels are the only
kernels the workload registry serves: a solo job or a text shard is a
batch of one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as _np

from ..alphabet import Alphabet, PatternChar, parse_pattern, pattern_to_string

__all__ = [
    "FastMatcher",
    "FastCounter",
    "FastMatcherBank",
    "FastCounterBank",
    "fast_inner_products",
    "fast_squared_distances",
    "fast_match_many",
    "fast_counts_many",
    "fast_inner_products_many",
    "fast_squared_distances_many",
]


class FastMatcher:
    """Bit-parallel (shift-and) matcher, equivalent to the systolic array.

    Parameters mirror :class:`~repro.core.matcher.PatternMatcher`: a
    pattern (string or pre-parsed :class:`~repro.alphabet.PatternChar`
    sequence, wild cards included) over an :class:`~repro.alphabet.Alphabet`.
    """

    def __init__(
        self,
        pattern,
        alphabet: Alphabet,
        wildcard_symbol: str = "X",
    ):
        self.alphabet = alphabet
        if pattern and all(isinstance(pc, PatternChar) for pc in pattern):
            self.pattern: List[PatternChar] = list(pattern)
        else:
            self.pattern = parse_pattern(pattern, alphabet, wildcard_symbol)
        wild_bits = 0
        for j, pc in enumerate(self.pattern):
            if pc.is_wild:
                wild_bits |= 1 << j
        masks: Dict[str, int] = {s: wild_bits for s in alphabet.symbols}
        for j, pc in enumerate(self.pattern):
            if not pc.is_wild:
                masks[pc.char] |= 1 << j
        self._masks = masks
        self._accept = 1 << (len(self.pattern) - 1)

    @property
    def pattern_string(self) -> str:
        return pattern_to_string(self.pattern)

    @property
    def pattern_length(self) -> int:
        return len(self.pattern)

    def match(self, text: Sequence[str]) -> List[bool]:
        """One result bit per text character (Section 3.1 semantics)."""
        masks = self._masks
        accept = self._accept
        out: List[bool] = []
        append = out.append
        state = 0
        ch = None
        try:
            for ch in text:
                state = ((state << 1) | 1) & masks[ch]
                append((state & accept) != 0)
        except KeyError:
            # Same failure mode (and message) as the validating paths.
            self.alphabet.require(ch)
            raise
        return out

    def find(self, text: Sequence[str]) -> List[int]:
        """Start positions of every matching substring."""
        k = len(self.pattern) - 1
        return [i - k for i, r in enumerate(self.match(text)) if r]


class FastCounter:
    """Packed-lane match counter, equivalent to the counting machine.

    The Section 3.4 counting cell replaces the matcher's AND with an
    accumulating add: result ``r_i`` is *how many* of the ``L`` window
    positions match.  Here every pattern position gets a fixed-width
    counter lane inside one Python integer.  A lane only ever holds a
    partial match count, which is at most ``L``, so ``L.bit_length()``
    bits per lane can never carry into a neighbour.  Each text character
    shifts the whole lane vector up one lane (retiring the oldest window)
    and adds a precomputed per-symbol increment vector::

        state = ((state << F) & lanes_mask) + inc[ch]

    after which the top lane holds the finished count for the window
    ending at the current character.  Like :class:`FastMatcher`, one
    arbitrary-width integer covers any pattern length, and wild cards
    simply contribute to every symbol's increment vector.

    >>> from repro.alphabet import Alphabet
    >>> FastCounter("AB", Alphabet("AB")).counts("ABBB")
    [0, 2, 1, 1]
    """

    def __init__(
        self,
        pattern,
        alphabet: Alphabet,
        wildcard_symbol: str = "X",
    ):
        self.alphabet = alphabet
        if pattern and all(isinstance(pc, PatternChar) for pc in pattern):
            self.pattern: List[PatternChar] = list(pattern)
        else:
            self.pattern = parse_pattern(pattern, alphabet, wildcard_symbol)
        L = len(self.pattern)
        width = L.bit_length()  # max lane value is L -> never carries
        wild_inc = 0
        for j, pc in enumerate(self.pattern):
            if pc.is_wild:
                wild_inc |= 1 << (width * j)
        inc: Dict[str, int] = {s: wild_inc for s in alphabet.symbols}
        for j, pc in enumerate(self.pattern):
            if not pc.is_wild:
                inc[pc.char] |= 1 << (width * j)
        self._inc = inc
        self._width = width
        self._lanes_mask = (1 << (width * L)) - 1
        self._top_shift = width * (L - 1)
        self._lane_mask = (1 << width) - 1

    @property
    def pattern_string(self) -> str:
        return pattern_to_string(self.pattern)

    @property
    def pattern_length(self) -> int:
        return len(self.pattern)

    def counts(self, text: Sequence[str]) -> List[int]:
        """One match count per text character; 0 before the first full
        window (the convention of :func:`~repro.core.reference.count_oracle`)."""
        inc = self._inc
        width = self._width
        lanes_mask = self._lanes_mask
        top_shift = self._top_shift
        k = len(self.pattern) - 1
        out: List[int] = []
        append = out.append
        state = 0
        ch = None
        try:
            for i, ch in enumerate(text):
                state = ((state << width) & lanes_mask) + inc[ch]
                append(state >> top_shift if i >= k else 0)
        except KeyError:
            self.alphabet.require(ch)
            raise
        return out


def fast_inner_products(
    weights: Sequence[float], stream: Sequence[float]
) -> List[float]:
    """Sliding-window inner products ``sum_j w_j * s_{i-k+j}``.

    The numeric fast twin of the convolution/FIR/inner-product machines:
    one value per stream position, ``0.0`` before the first complete
    window (positions ``i < len(weights) - 1``).

    >>> fast_inner_products([1.0, 2.0], [1.0, 1.0, 1.0])
    [0.0, 3.0, 3.0]
    """
    L = len(weights)
    if L == 0:
        raise ValueError("weights must be non-empty")
    n = len(stream)
    k = L - 1
    if n < L:
        return [0.0] * n
    windows = _np.lib.stride_tricks.sliding_window_view(
        _np.asarray(stream, dtype=float), L
    )
    body = windows @ _np.asarray(weights, dtype=float)
    return [0.0] * k + [float(v) for v in body]


def fast_squared_distances(
    taps: Sequence[float], stream: Sequence[float]
) -> List[float]:
    """Sliding-window squared distances ``sum_j (s_{i-k+j} - t_j)^2``.

    The numeric fast twin of the Section 3.4 correlation machine
    (:func:`~repro.core.reference.correlation_oracle` convention: ``0.0``
    before the first complete window).

    >>> fast_squared_distances([1.0, 3.0], [1.0, 3.0, 5.0])
    [0.0, 0.0, 8.0]
    """
    L = len(taps)
    if L == 0:
        raise ValueError("taps must be non-empty")
    n = len(stream)
    k = L - 1
    if n < L:
        return [0.0] * n
    windows = _np.lib.stride_tricks.sliding_window_view(
        _np.asarray(stream, dtype=float), L
    )
    body = ((windows - _np.asarray(taps, dtype=float)) ** 2).sum(axis=1)
    return [0.0] * k + [float(v) for v in body]


# ---------------------------------------------------------------------------
# Batched tier: many patterns x one text, one pattern x many texts.
# ---------------------------------------------------------------------------

#: Per-alphabet byte->symbol-index lookup tables for vectorized text coding
#: (None when a symbol falls outside latin-1 and the table cannot be built).
_LUT_CACHE: Dict[Alphabet, Optional[object]] = {}


def _symbol_lut(alphabet: Alphabet):
    """A 256-entry byte->index table for *alphabet*, or None if unbuildable."""
    try:
        return _LUT_CACHE[alphabet]
    except KeyError:
        pass
    lut = _np.full(256, -1, dtype=_np.int16)
    for i, s in enumerate(alphabet.symbols):
        o = ord(s)
        if o > 255:
            lut = None
            break
        lut[o] = i
    if len(_LUT_CACHE) > 64:  # unbounded alphabets shouldn't pin memory
        _LUT_CACHE.clear()
    _LUT_CACHE[alphabet] = lut
    return lut


def _text_codes(text: Sequence[str], alphabet: Alphabet):
    """Symbol indices of *text* as an int16 array (AlphabetError on stray)."""
    lut = _symbol_lut(alphabet)
    if not isinstance(text, str):
        try:  # char lists (the validated form) take the fast str path too
            joined = "".join(text)
        except TypeError:
            joined = None
        if joined is not None and len(joined) == len(text):
            text = joined
    if lut is not None and isinstance(text, str):
        try:
            raw = text.encode("latin-1")
        except UnicodeEncodeError:
            raw = None
        if raw is not None:
            codes = lut[_np.frombuffer(raw, dtype=_np.uint8)]
            if codes.size and int(codes.min()) < 0:
                bad = int((codes < 0).argmax())
                alphabet.index(text[bad])  # raises AlphabetError
            return codes
    index = alphabet.index
    return _np.fromiter(
        (index(c) for c in text), dtype=_np.int16, count=len(text)
    )


def _parse(pattern, alphabet: Alphabet, wildcard_symbol: str) -> List[PatternChar]:
    if pattern and all(isinstance(pc, PatternChar) for pc in pattern):
        return list(pattern)
    return parse_pattern(pattern, alphabet, wildcard_symbol)


class FastMatcherBank:
    """Many patterns, one text: lane-packed multi-pattern shift-and.

    Every pattern gets a contiguous bit lane inside one arbitrary-width
    Python integer, with a single spacer bit between lanes: when the
    shared ``state << 1`` pushes a lane's top bit out, it lands on the
    spacer, which no symbol mask ever sets, so lanes never interfere.
    ``seed`` re-injects every lane's start bit each character and a
    single masked shift-and step advances *all* patterns at once --
    many patterns per word op, the multi-match form of Section 3.4.

    >>> from repro.alphabet import Alphabet
    >>> bank = FastMatcherBank(["AB", "BX"], Alphabet("ABCD"))
    >>> bank.match_all("ABC")
    [[False, True, False], [False, False, True]]
    """

    def __init__(
        self,
        patterns: Sequence[object],
        alphabet: Alphabet,
        wildcard_symbol: str = "X",
    ):
        self.alphabet = alphabet
        self.patterns: List[List[PatternChar]] = [
            _parse(p, alphabet, wildcard_symbol) for p in patterns
        ]
        seed = 0
        accept_mask = 0
        wild_bits = 0
        lane_of: Dict[int, int] = {}
        offset = 0
        offsets: List[int] = []
        for p, pcs in enumerate(self.patterns):
            offsets.append(offset)
            seed |= 1 << offset
            accept_bit = offset + len(pcs) - 1
            accept_mask |= 1 << accept_bit
            lane_of[accept_bit] = p
            for j, pc in enumerate(pcs):
                if pc.is_wild:
                    wild_bits |= 1 << (offset + j)
            offset += len(pcs) + 1  # +1 spacer absorbs the lane's shift-out
        masks: Dict[str, int] = {s: wild_bits for s in alphabet.symbols}
        for p, pcs in enumerate(self.patterns):
            off = offsets[p]
            for j, pc in enumerate(pcs):
                if not pc.is_wild:
                    masks[pc.char] |= 1 << (off + j)
        self._masks = masks
        self._seed = seed
        self._accept_mask = accept_mask
        self._lane_of = lane_of

    @property
    def pattern_strings(self) -> List[str]:
        return [pattern_to_string(p) for p in self.patterns]

    def __len__(self) -> int:
        return len(self.patterns)

    def match_all(self, text: Sequence[str]) -> List[List[bool]]:
        """One result list per pattern, each per Section 3.1 semantics."""
        n = len(text)
        out: List[List[bool]] = [[False] * n for _ in self.patterns]
        if not self.patterns:
            return out
        masks = self._masks
        seed = self._seed
        accept_mask = self._accept_mask
        lane_of = self._lane_of
        state = 0
        ch = None
        try:
            for i, ch in enumerate(text):
                state = ((state << 1) | seed) & masks[ch]
                hits = state & accept_mask
                while hits:
                    low = hits & -hits
                    out[lane_of[low.bit_length() - 1]][i] = True
                    hits ^= low
        except KeyError:
            self.alphabet.require(ch)
            raise
        return out


class FastCounterBank:
    """Many patterns, one text: batched window match-counting.

    Computes every pattern's :class:`FastCounter` result over one shared
    symbol-code vector: the text is coded once, then each pattern is an
    ``O(pattern_len)`` sweep of vectorized window compares -- no
    per-character Python at all.

    >>> from repro.alphabet import Alphabet
    >>> FastCounterBank(["AB", "BB"], Alphabet("AB")).counts_all("ABBB")
    [[0, 2, 1, 1], [0, 1, 2, 2]]
    """

    def __init__(
        self,
        patterns: Sequence[object],
        alphabet: Alphabet,
        wildcard_symbol: str = "X",
    ):
        self.alphabet = alphabet
        self.patterns: List[List[PatternChar]] = [
            _parse(p, alphabet, wildcard_symbol) for p in patterns
        ]

    def __len__(self) -> int:
        return len(self.patterns)

    def counts_all(self, text: Sequence[str]) -> List[List[int]]:
        if not self.patterns:
            return []
        codes = _text_codes(text, self.alphabet)
        n = len(text)
        index = self.alphabet.index
        out: List[List[int]] = []
        for pcs in self.patterns:
            L = len(pcs)
            k = L - 1
            if n < L:
                out.append([0] * n)
                continue
            n_out = n - k
            cnt = _np.zeros(n_out, dtype=_np.int64)
            for j, pc in enumerate(pcs):
                if pc.is_wild:
                    cnt += 1
                else:
                    cnt += codes[j : j + n_out] == index(pc.char)
            out.append([0] * k + cnt.tolist())
        return out


def _codes_matrix(texts: Sequence[Sequence[str]], alphabet: Alphabet):
    """Pad a ragged batch of texts into one (batch, max_len) code matrix.

    All-str batches (the form the services ship) are encoded in ONE
    pass: join, encode, one LUT gather, one boolean scatter into the
    padded matrix.  Per-text coding only remains for exotic inputs.
    """
    lens = [len(t) for t in texts]
    n_max = max(lens)
    mat = _np.zeros((len(texts), n_max), dtype=_np.int16)
    lut = _symbol_lut(alphabet)
    joined = None
    if lut is not None:
        try:  # validated char lists join to the same one-pass form
            joined = "".join(
                t if isinstance(t, str) else "".join(t) for t in texts
            )
        except TypeError:
            joined = None
    if joined is not None and len(joined) == sum(lens):
        try:
            raw = joined.encode("latin-1")
        except UnicodeEncodeError:
            raw = None
        if raw is not None:
            codes = lut[_np.frombuffer(raw, dtype=_np.uint8)]
            if codes.size and int(codes.min()) < 0:
                bad = int((codes < 0).argmax())
                alphabet.index(joined[bad])  # raises AlphabetError
            # Row-major boolean scatter lines up with the join order.
            valid = _np.arange(n_max) < _np.asarray(lens)[:, None]
            mat[valid] = codes
            return mat, lens
    for b, t in enumerate(texts):
        if lens[b]:
            mat[b, : lens[b]] = _text_codes(t, alphabet)
    return mat, lens


def fast_match_many(
    pattern,
    texts: Sequence[Sequence[str]],
    alphabet: Alphabet,
    wildcard_symbol: str = "X",
) -> List[List[bool]]:
    """One pattern over many texts as vectorized batch-matrix passes.

    The shift-and recurrence is sequential per text, but the windowed
    *definition* is not: ``result[i] = all_j(p[j] ~ text[i-k+j])``.  Over
    a padded ``(batch, max_len)`` code matrix that AND-chain is just
    ``len(pattern)`` vectorized equality passes -- every text advances in
    the same numpy op.  Padded tails never leak: each row is truncated
    back to its own length on extraction.

    >>> from repro.alphabet import Alphabet
    >>> fast_match_many("AB", ["ABC", "AB", "C"], Alphabet("ABCD"))
    [[False, True, False], [False, True], [False]]
    """
    pcs = _parse(pattern, alphabet, wildcard_symbol)
    if not texts:
        return []
    L = len(pcs)
    k = L - 1
    mat, lens = _codes_matrix(texts, alphabet)
    n_out = mat.shape[1] - k
    if n_out <= 0:
        return [[False] * n for n in lens]
    res = _np.ones((len(texts), n_out), dtype=bool)
    index = alphabet.index
    for j, pc in enumerate(pcs):
        if not pc.is_wild:
            res &= mat[:, j : j + n_out] == index(pc.char)
    return [
        [False] * n if n < L else [False] * k + res[b, : n - k].tolist()
        for b, n in enumerate(lens)
    ]


def fast_counts_many(
    pattern,
    texts: Sequence[Sequence[str]],
    alphabet: Alphabet,
    wildcard_symbol: str = "X",
) -> List[List[int]]:
    """One pattern's match counts over many texts (batched FastCounter).

    >>> from repro.alphabet import Alphabet
    >>> fast_counts_many("AB", ["ABBB", "AA"], Alphabet("AB"))
    [[0, 2, 1, 1], [0, 1]]
    """
    pcs = _parse(pattern, alphabet, wildcard_symbol)
    if not texts:
        return []
    L = len(pcs)
    k = L - 1
    mat, lens = _codes_matrix(texts, alphabet)
    n_out = mat.shape[1] - k
    if n_out <= 0:
        return [[0] * n for n in lens]
    cnt = _np.zeros((len(texts), n_out), dtype=_np.int64)
    index = alphabet.index
    for j, pc in enumerate(pcs):
        if pc.is_wild:
            cnt += 1
        else:
            cnt += mat[:, j : j + n_out] == index(pc.char)
    return [
        [0] * n if n < L else [0] * k + cnt[b, : n - k].tolist()
        for b, n in enumerate(lens)
    ]


def _numeric_matrix(streams: Sequence[Sequence[float]]):
    lens = [len(s) for s in streams]
    n_max = max(lens)
    mat = _np.zeros((len(streams), n_max), dtype=float)
    for b, s in enumerate(streams):
        if lens[b]:
            mat[b, : lens[b]] = _np.asarray(s, dtype=float)
    return mat, lens


def fast_inner_products_many(
    weights: Sequence[float], streams: Sequence[Sequence[float]]
) -> List[List[float]]:
    """Sliding-window inner products of one tap vector over many streams.

    One batched matmul over the padded window view replaces the per-job
    loop; rows are truncated back to their own lengths so ragged batches
    agree element-for-element with :func:`fast_inner_products`.

    >>> fast_inner_products_many([1.0, 2.0], [[1.0, 1.0, 1.0], [2.0]])
    [[0.0, 3.0, 3.0], [0.0]]
    """
    L = len(weights)
    if L == 0:
        raise ValueError("weights must be non-empty")
    if not streams:
        return []
    k = L - 1
    mat, lens = _numeric_matrix(streams)
    if mat.shape[1] < L:
        return [[0.0] * n for n in lens]
    windows = _np.lib.stride_tricks.sliding_window_view(mat, L, axis=1)
    body = windows @ _np.asarray(weights, dtype=float)
    return [
        [0.0] * n if n < L else [0.0] * k + body[b, : n - k].tolist()
        for b, n in enumerate(lens)
    ]


def fast_squared_distances_many(
    taps: Sequence[float], streams: Sequence[Sequence[float]]
) -> List[List[float]]:
    """Sliding-window squared distances of one tap vector over many streams.

    >>> fast_squared_distances_many([1.0, 3.0], [[1.0, 3.0, 5.0], [3.0, 3.0]])
    [[0.0, 0.0, 8.0], [0.0, 4.0]]
    """
    L = len(taps)
    if L == 0:
        raise ValueError("taps must be non-empty")
    if not streams:
        return []
    k = L - 1
    mat, lens = _numeric_matrix(streams)
    if mat.shape[1] < L:
        return [[0.0] * n for n in lens]
    windows = _np.lib.stride_tricks.sliding_window_view(mat, L, axis=1)
    body = ((windows - _np.asarray(taps, dtype=float)) ** 2).sum(axis=2)
    return [
        [0.0] * n if n < L else [0.0] * k + body[b, : n - k].tolist()
        for b, n in enumerate(lens)
    ]
