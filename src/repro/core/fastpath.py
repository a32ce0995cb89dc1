"""The vectorized window kernels: one pattern (or tap vector) over many
streams.

The systolic array computes, for every text position *i*, the AND-chain

    result[i] = all(p[j] matches text[i - k + j]  for j in 0..k)

one cell-beat at a time.  That chain is sequential per cell but not per
*window*, so over a batch of texts padded into one ``(batch, max_len)``
symbol-code matrix it is just ``len(pattern)`` vectorized equality
passes: every text advances in the same numpy op, wild positions cost
nothing, and each row is truncated back to its own length on the way
out.  The Section 3.4 machines share the data flow and so share the
shape:

* :func:`fast_match_many` -- the matcher (AND of per-position compares);
* :func:`fast_counts_many` -- the counting machine (SUM of the compares);
* :func:`fast_inner_products_many` -- the convolution / FIR /
  inner-product machines (one matmul over a strided window view);
* :func:`fast_squared_distances_many` -- the correlation machine.

These are the only kernels in the package: the workload registry serves
each workload with one of them, and a solo job, a text shard and
:meth:`~repro.core.matcher.PatternMatcher.match` all run a batch of one.
They are a *model shortcut*, not a different machine: the tests compare
them against the oracles of :mod:`repro.core.reference`, the stepwise
:class:`~repro.core.array.SystolicMatcherArray` and the cell-by-cell
:mod:`repro.extensions` machines (``tests/test_fastpath.py``,
``tests/test_fastpath_batched.py``, ``tests/test_workloads_kernels.py``),
ragged and empty batches included.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as _np

from ..alphabet import Alphabet, PatternChar, parse_pattern

__all__ = [
    "fast_match_many",
    "fast_counts_many",
    "fast_inner_products_many",
    "fast_squared_distances_many",
]


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

    The array (like any shift-and matcher) steps through a text one
    character at a time, but the windowed *definition* is not sequential: ``result[i] = all_j(p[j] ~ text[i-k+j])``.  Over
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
    """One pattern's match counts over many texts (the counting machine).

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

    One batched matmul over the padded window view; rows are truncated
    back to their own lengths, ``0.0`` before each row's first complete
    window.

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
