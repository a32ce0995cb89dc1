"""The vectorized window kernels: one pattern (or tap vector) over many
streams.

The systolic array computes, for every text position *i*, the AND-chain

    result[i] = all(p[j] matches text[i - k + j]  for j in 0..k)

one cell-beat at a time.  That chain is sequential per cell but not per
*window*, so over a batch of texts padded into one ``(batch, max_len)``
symbol-code matrix it is just ``len(pattern)`` vectorized equality
passes: every text advances in the same numpy op, wild positions cost
nothing, and each row is truncated back to its own length on the way
out.  The kernels take *typed rows* -- symbol codes
(:meth:`~repro.alphabet.Alphabet.encode_text`) for the character
machines, float64 samples for the numeric ones -- and return one numpy
row per input (``bool``, an unsigned count, or ``float64``); nothing
here encodes a character or builds a Python list.  The Section 3.4
machines share the data flow and so share the shape:

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

from typing import List, Sequence, Tuple

import numpy as _np

from ..alphabet import Alphabet, PatternChar, parse_pattern

__all__ = [
    "fast_match_many",
    "fast_counts_many",
    "fast_inner_products_many",
    "fast_squared_distances_many",
]


def _parse(pattern, alphabet: Alphabet, wildcard_symbol: str) -> List[PatternChar]:
    if pattern and all(isinstance(pc, PatternChar) for pc in pattern):
        return list(pattern)
    return parse_pattern(pattern, alphabet, wildcard_symbol)


def _matrix(rows: Sequence, dtype=None) -> Tuple[_np.ndarray, List[int]]:
    """The rows as one ``(batch, max_len)`` matrix, and their lengths.

    A batch of one is a view of its row; a ragged batch is copied into
    a zero-padded matrix (each row is truncated back on the way out).
    """
    arrays = [_np.asarray(r, dtype=dtype) for r in rows]
    if dtype is None and any(a.dtype.kind not in "ui" for a in arrays):
        raise TypeError(
            "character rows must be symbol codes (Alphabet.encode_text)"
        )
    lens = [len(a) for a in arrays]
    if len(arrays) == 1:
        return arrays[0].reshape(1, -1), lens
    mat = _np.zeros((len(arrays), max(lens)),
                    dtype=_np.result_type(*arrays))
    for b, a in enumerate(arrays):
        mat[b, : lens[b]] = a
    return mat, lens


def _rows(out: _np.ndarray, lens: List[int]) -> List[_np.ndarray]:
    return [out[b, :n] for b, n in enumerate(lens)]


def fast_match_many(
    pattern,
    rows: Sequence,
    alphabet: Alphabet,
    wildcard_symbol: str = "X",
) -> List[_np.ndarray]:
    """One pattern over many code rows as vectorized batch-matrix passes.

    The array (like any shift-and matcher) steps through a text one
    character at a time, but the windowed *definition* is not sequential: ``result[i] = all_j(p[j] ~ text[i-k+j])``.  Over
    a padded ``(batch, max_len)`` code matrix that AND-chain is just
    ``len(pattern)`` vectorized equality passes -- every text advances in
    the same numpy op.  Padded tails never leak: each row is truncated
    back to its own length on extraction.

    >>> from repro.alphabet import Alphabet
    >>> ab = Alphabet("ABCD")
    >>> rows = [ab.encode_text(t) for t in ("ABC", "AB", "C")]
    >>> [r.tolist() for r in fast_match_many("AB", rows, ab)]
    [[False, True, False], [False, True], [False]]
    """
    pcs = _parse(pattern, alphabet, wildcard_symbol)
    if not rows:
        return []
    k = len(pcs) - 1
    mat, lens = _matrix(rows)
    out = _np.zeros(mat.shape, dtype=bool)
    n_out = mat.shape[1] - k
    if n_out > 0:
        window = out[:, k:]
        window[...] = True
        for j, pc in enumerate(pcs):
            if not pc.is_wild:
                window &= mat[:, j : j + n_out] == alphabet.index(pc.char)
    return _rows(out, lens)


def fast_counts_many(
    pattern,
    rows: Sequence,
    alphabet: Alphabet,
    wildcard_symbol: str = "X",
) -> List[_np.ndarray]:
    """One pattern's match counts over many code rows (the counting
    machine), in the narrowest unsigned type that holds the window.

    >>> from repro.alphabet import Alphabet
    >>> ab = Alphabet("AB")
    >>> rows = [ab.encode_text(t) for t in ("ABBB", "AA")]
    >>> [r.tolist() for r in fast_counts_many("AB", rows, ab)]
    [[0, 2, 1, 1], [0, 1]]
    """
    pcs = _parse(pattern, alphabet, wildcard_symbol)
    if not rows:
        return []
    k = len(pcs) - 1
    mat, lens = _matrix(rows)
    out = _np.zeros(mat.shape, dtype=_np.min_scalar_type(len(pcs)))
    n_out = mat.shape[1] - k
    if n_out > 0:
        window = out[:, k:]
        for j, pc in enumerate(pcs):
            if pc.is_wild:
                window += 1
            else:
                window += mat[:, j : j + n_out] == alphabet.index(pc.char)
    return _rows(out, lens)


def _windows(taps: Sequence[float], rows: Sequence):
    """The length-``len(taps)`` window view of the padded float matrix
    (None when no row holds a whole window), a zeroed output matrix of
    the same shape, and the row lengths."""
    mat, lens = _matrix(rows, float)
    out = _np.zeros(mat.shape, dtype=float)
    if mat.shape[1] < len(taps):
        return None, out, lens
    view = _np.lib.stride_tricks.sliding_window_view(mat, len(taps), axis=1)
    return view, out, lens


def fast_inner_products_many(
    weights: Sequence[float], rows: Sequence
) -> List[_np.ndarray]:
    """Sliding-window inner products of one tap vector over many float
    rows.

    One batched matmul over the padded window view; rows are truncated
    back to their own lengths, ``0.0`` before each row's first complete
    window.

    >>> [r.tolist() for r in fast_inner_products_many(
    ...     [1.0, 2.0], [[1.0, 1.0, 1.0], [2.0]])]
    [[0.0, 3.0, 3.0], [0.0]]
    """
    if len(weights) == 0:
        raise ValueError("weights must be non-empty")
    if not rows:
        return []
    view, out, lens = _windows(weights, rows)
    if view is not None:
        out[:, len(weights) - 1:] = view @ _np.asarray(weights, dtype=float)
    return _rows(out, lens)


def fast_squared_distances_many(
    taps: Sequence[float], rows: Sequence
) -> List[_np.ndarray]:
    """Sliding-window squared distances of one tap vector over many
    float rows.

    >>> [r.tolist() for r in fast_squared_distances_many(
    ...     [1.0, 3.0], [[1.0, 3.0, 5.0], [3.0, 3.0]])]
    [[0.0, 0.0, 8.0], [0.0, 4.0]]
    """
    if len(taps) == 0:
        raise ValueError("taps must be non-empty")
    if not rows:
        return []
    view, out, lens = _windows(taps, rows)
    if view is not None:
        out[:, len(taps) - 1:] = \
            ((view - _np.asarray(taps, dtype=float)) ** 2).sum(axis=2)
    return _rows(out, lens)
