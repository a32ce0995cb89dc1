"""The Section 3.4 workload registry: one contract, many kernels.

The paper's closing argument for the matcher design is that its data flow
is *reusable*: "replacing the result bit stream by a stream of integers"
gives a match counter, swapping the comparator for a difference cell gives
a correlator, and "many other problems, such as convolutions and FIR
filtering, have algorithms that use the same data flow."  This module
turns that observation into an executable interface.  Every Section 3.4
machine is described by a :class:`WorkloadSpec` that knows how to

* parse and validate its parameters (a character pattern or numeric taps)
  and its input stream,
* ``prepare`` the stream for sliding-window evaluation (convolution and
  FIR are inner products against a reversed tap vector over a padded
  stream),
* evaluate the windowed kernel three ways -- ``fast`` (the packed/strided
  kernels in :mod:`repro.core.fastpath`), ``oracle`` (the direct
  definition), and ``stepwise`` (the behavioral cell-by-cell machines in
  :mod:`repro.extensions`) -- and
* ``finalize`` windowed results back into the workload's native output.

The farm (:mod:`repro.service`) schedules any registered workload with
halo-overlap sharding and oracle fallback; :func:`run_workload` is the
single-call entry point.

>>> from repro.alphabet import Alphabet
>>> run_workload("count", "AB", "ABBB", Alphabet("AB"))
[0, 2, 1, 1]
>>> run_workload("correlation", [1.0, 3.0], [1.0, 3.0, 5.0])
[0.0, 0.0, 8.0]
>>> run_workload("fir", [0.5, 0.5], [2.0, 4.0, 6.0])
[1.0, 3.0, 5.0]
>>> run_workload("convolution", [1.0, 2.0], [1.0, 1.0, 1.0])
[1.0, 3.0, 3.0, 2.0]
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..alphabet import Alphabet, PatternChar, parse_pattern
from ..errors import PatternError
from ..core.fastpath import (
    FastCounter,
    FastMatcher,
    fast_counts_many,
    fast_inner_products,
    fast_inner_products_many,
    fast_match_many,
    fast_squared_distances,
    fast_squared_distances_many,
)
from ..core.reference import correlation_oracle, count_oracle, match_oracle
from ..extensions.counting import systolic_match_counts
from ..extensions.correlation import systolic_correlation
from ..extensions.convolution import systolic_convolution, systolic_inner_products
from ..extensions.fir import systolic_fir
from ..extensions.linear_products import INNER_PRODUCT, linear_product_oracle

__all__ = [
    "WorkloadSpec",
    "WorkloadError",
    "get_workload",
    "list_workloads",
    "run_workload",
    "run_workload_many",
    "WORKLOADS",
]


class WorkloadError(PatternError):
    """Unknown workload name or invalid workload parameters."""


def _require_alphabet(alphabet: Optional[Alphabet], name: str) -> Alphabet:
    if alphabet is None:
        raise WorkloadError(f"workload {name!r} needs an alphabet")
    return alphabet


#: What converting a malformed value raises (``float(None)``,
#: ``float("a")``, ``float(10**400)``, ``len(5)``); the registry turns
#: each into a :class:`WorkloadError` at the input boundary.
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _parse_char_pattern(params, alphabet, name):
    alphabet = _require_alphabet(alphabet, name)
    try:
        if params and all(isinstance(pc, PatternChar) for pc in params):
            return list(params)
        return parse_pattern(params, alphabet)
    except _BAD_VALUE as exc:
        raise WorkloadError(f"bad {name!r} pattern {params!r}: {exc}") from None


def _parse_taps(params, _alphabet, name):
    try:
        taps = [float(v) for v in params]
    except _BAD_VALUE as exc:
        raise WorkloadError(f"bad {name!r} taps {params!r}: {exc}") from None
    if not taps:
        raise WorkloadError(f"workload {name!r} needs at least one tap")
    return taps


@lru_cache(maxsize=16)
def _compiled(engine, taps: tuple, alphabet: Alphabet):
    """The *engine* (:class:`FastMatcher` or :class:`FastCounter`) built
    for one pattern, memoized: a farm streams many texts against few
    patterns, and building the engine is the per-pattern cost."""
    return engine(list(taps), alphabet)


def _identity_prepare(taps, feed):
    return taps, feed


def _identity_finalize(_taps, _orig_len, merged):
    return merged


def _conv_prepare(taps, feed):
    pad = [0.0] * (len(taps) - 1)
    return list(reversed(taps)), pad + feed + pad


def _conv_finalize(taps, orig_len, merged):
    if orig_len == 0:
        return []
    return _fir_finalize(taps, orig_len, merged)


def _fir_prepare(taps, feed):
    return list(reversed(taps)), [0.0] * (len(taps) - 1) + feed


def _fir_finalize(taps, _orig_len, merged):
    return merged[len(taps) - 1:]


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything the farm needs to serve one Section 3.4 kernel.

    ``fast``/``oracle`` operate in *window space*: they take the prepared
    taps and stream and emit one value per prepared-stream position, with
    ``incomplete`` for positions before the first full window.  That is
    exactly the matcher's result-stream shape, which is why the farm's
    halo-overlap text sharding applies to every workload unchanged.
    ``stepwise`` runs the whole workload end to end on the behavioral
    :mod:`repro.extensions` machine -- the differential-testing target.
    """

    name: str
    section: str
    summary: str
    numeric: bool
    incomplete: object
    parse_params: Callable[[object, Optional[Alphabet]], list]
    fast: Callable[[list, list, Optional[Alphabet]], list]
    oracle: Callable[[list, list, Optional[Alphabet]], list]
    stepwise: Callable[[object, Sequence, Optional[Alphabet]], list]
    #: Window-space batch evaluator: (prepared taps, list of prepared
    #: feeds, alphabet) -> one merged result list per feed.
    batched: Callable[[list, List[list], Optional[Alphabet]], List[list]]
    prepare: Callable[[list, list], Tuple[list, list]] = _identity_prepare
    finalize: Callable[[list, int, list], list] = _identity_finalize

    def window_length(self, taps: Sequence) -> int:
        """Sliding-window width: the halo the shard planner must overlap."""
        return len(taps)

    def validate_stream(self, stream: Sequence, alphabet: Optional[Alphabet]) -> list:
        """The stream as a list of samples (floats) or alphabet
        characters; anything else raises a :class:`WorkloadError` or
        :class:`~repro.errors.AlphabetError`."""
        try:
            if self.numeric:
                return [float(v) for v in stream]
            return _require_alphabet(alphabet, self.name).validate_text(stream)
        except _BAD_VALUE as exc:
            raise WorkloadError(
                f"bad {self.name!r} stream: {type(exc).__name__}: {exc}"
            ) from None

    def run(
        self,
        params,
        stream: Sequence,
        alphabet: Optional[Alphabet] = None,
        engine: str = "fast",
    ) -> list:
        """Uniform entry point: parse, prepare, evaluate, finalize.

        ``engine`` selects the evaluator: ``"fast"`` (default),
        ``"oracle"`` (direct definition), ``"stepwise"`` (the
        cell-by-cell :mod:`repro.extensions` machine), or ``"batched"``
        (the vectorized batch kernel, via a one-element batch).
        """
        if engine == "batched":
            return self.run_many(params, [stream], alphabet=alphabet)[0]
        if engine == "stepwise":
            return self.stepwise(params, stream, alphabet)
        taps = self.parse_params(params, alphabet)
        validated = self.validate_stream(stream, alphabet)
        ktaps, feed = self.prepare(taps, validated)
        if engine == "fast":
            merged = self.fast(ktaps, feed, alphabet)
        elif engine == "oracle":
            merged = self.oracle(ktaps, feed, alphabet)
        else:
            raise WorkloadError(f"unknown engine {engine!r}")
        return self.finalize(ktaps, len(validated), merged)

    def run_many(
        self,
        params,
        streams: Sequence[Sequence],
        alphabet: Optional[Alphabet] = None,
        engine: str = "batched",
    ) -> List[list]:
        """Run one parameter set over many streams; one result per stream.

        Parameters are parsed and prepared **once** for the whole batch.
        ``engine="batched"`` (default) evaluates every prepared stream in
        a single call to the spec's vectorized batch kernel; ``"fast"``,
        ``"oracle"`` and ``"stepwise"`` loop the per-job engines, which
        is what the differential tests compare against.  An empty batch
        returns ``[]``.
        """
        if engine == "stepwise":
            return [self.stepwise(params, s, alphabet) for s in streams]
        if engine not in ("batched", "fast", "oracle"):
            raise WorkloadError(f"unknown engine {engine!r}")
        if not streams:
            return []
        taps = self.parse_params(params, alphabet)
        validated = [self.validate_stream(s, alphabet) for s in streams]
        prepared = [self.prepare(taps, v) for v in validated]
        ktaps = prepared[0][0]
        feeds = [feed for _ktaps, feed in prepared]
        if engine == "batched":
            merged_all = self.batched(ktaps, feeds, alphabet)
        elif engine == "oracle":
            merged_all = [self.oracle(ktaps, f, alphabet) for f in feeds]
        else:  # "fast"
            merged_all = [self.fast(ktaps, f, alphabet) for f in feeds]
        return [
            self.finalize(ktaps, len(v), m)
            for v, m in zip(validated, merged_all)
        ]

    def compile_chip(self, cells: int, char_bits: int = 2, data_bits: int = 2):
        """Compile this workload to silicon (see :mod:`repro.compiler`).

        Only the kernels with a cell library -- ``match``, ``count`` and
        ``inner-product`` -- are compilable; the rest raise
        :class:`~repro.errors.WorkloadError`.

        >>> WORKLOADS["match"].compile_chip(4).spec.name
        'match_4x2'
        >>> WORKLOADS["fir"].compile_chip(4)  # doctest: +IGNORE_EXCEPTION_DETAIL
        Traceback (most recent call last):
            ...
        WorkloadError: workload 'fir' has no chip compiler backend ...
        """
        from ..compiler import KERNELS, compile_workload

        if self.name not in KERNELS:
            raise WorkloadError(
                f"workload {self.name!r} has no chip compiler backend "
                f"(compilable: {', '.join(KERNELS)})"
            )
        return compile_workload(
            self.name, cells, char_bits=char_bits, data_bits=data_bits
        )


WORKLOADS: Dict[str, WorkloadSpec] = {}


def _register(spec: WorkloadSpec) -> WorkloadSpec:
    WORKLOADS[spec.name] = spec
    return spec


MATCH = _register(WorkloadSpec(
    name="match",
    section="3.1",
    summary="wildcard substring matching (the chip's native workload)",
    numeric=False,
    incomplete=False,
    parse_params=lambda params, al: _parse_char_pattern(params, al, "match"),
    fast=lambda taps, feed, al: (
        _compiled(FastMatcher, tuple(taps), al).match(feed)
    ),
    oracle=lambda taps, feed, al: match_oracle(taps, feed),
    stepwise=lambda params, stream, al: _stepwise_match(params, stream, al),
    batched=lambda taps, feeds, al: fast_match_many(taps, feeds, al),
))

COUNT = _register(WorkloadSpec(
    name="count",
    section="3.4",
    summary="per-window count of matching pattern positions",
    numeric=False,
    incomplete=0,
    parse_params=lambda params, al: _parse_char_pattern(params, al, "count"),
    fast=lambda taps, feed, al: (
        _compiled(FastCounter, tuple(taps), al).counts(feed)
    ),
    oracle=lambda taps, feed, al: count_oracle(taps, feed),
    stepwise=lambda params, stream, al: systolic_match_counts(
        params, stream, _require_alphabet(al, "count")
    ),
    batched=lambda taps, feeds, al: fast_counts_many(taps, feeds, al),
))

CORRELATION = _register(WorkloadSpec(
    name="correlation",
    section="3.4",
    summary="per-window sum of squared differences (small = good match)",
    numeric=True,
    incomplete=0.0,
    parse_params=lambda params, al: _parse_taps(params, al, "correlation"),
    fast=lambda taps, feed, al: fast_squared_distances(taps, feed),
    oracle=lambda taps, feed, al: correlation_oracle(taps, feed),
    stepwise=lambda params, stream, al: systolic_correlation(
        [float(v) for v in params], [float(v) for v in stream]
    ),
    batched=lambda taps, feeds, al: fast_squared_distances_many(taps, feeds),
))

INNER = _register(WorkloadSpec(
    name="inner-product",
    section="3.4",
    summary="sliding inner products of the tap vector against the stream",
    numeric=True,
    incomplete=0.0,
    parse_params=lambda params, al: _parse_taps(params, al, "inner-product"),
    fast=lambda taps, feed, al: fast_inner_products(taps, feed),
    oracle=lambda taps, feed, al: linear_product_oracle(
        taps, feed, INNER_PRODUCT, 0.0
    ),
    stepwise=lambda params, stream, al: systolic_inner_products(
        [float(v) for v in params], [float(v) for v in stream]
    ),
    batched=lambda taps, feeds, al: fast_inner_products_many(taps, feeds),
))

CONVOLUTION = _register(WorkloadSpec(
    name="convolution",
    section="3.4",
    summary="full convolution (numpy.convolve semantics) via padded inner products",
    numeric=True,
    incomplete=0.0,
    parse_params=lambda params, al: _parse_taps(params, al, "convolution"),
    fast=lambda taps, feed, al: fast_inner_products(taps, feed),
    oracle=lambda taps, feed, al: linear_product_oracle(
        taps, feed, INNER_PRODUCT, 0.0
    ),
    stepwise=lambda params, stream, al: systolic_convolution(
        [float(v) for v in params], [float(v) for v in stream]
    ),
    prepare=_conv_prepare,
    finalize=_conv_finalize,
    batched=lambda taps, feeds, al: fast_inner_products_many(taps, feeds),
))

FIR = _register(WorkloadSpec(
    name="fir",
    section="3.4",
    summary="causal FIR filtering, one output per input sample",
    numeric=True,
    incomplete=0.0,
    parse_params=lambda params, al: _parse_taps(params, al, "fir"),
    fast=lambda taps, feed, al: fast_inner_products(taps, feed),
    oracle=lambda taps, feed, al: linear_product_oracle(
        taps, feed, INNER_PRODUCT, 0.0
    ),
    stepwise=lambda params, stream, al: systolic_fir(
        [float(v) for v in params], [float(v) for v in stream]
    ),
    prepare=_fir_prepare,
    finalize=_fir_finalize,
    batched=lambda taps, feeds, al: fast_inner_products_many(taps, feeds),
))


def _stepwise_match(params, stream, alphabet):
    from ..core.matcher import PatternMatcher

    matcher = PatternMatcher(
        params, _require_alphabet(alphabet, "match"), use_fast_path=False
    )
    return matcher.match(stream)


def get_workload(name: str) -> WorkloadSpec:
    """Look up a registered workload.

    >>> get_workload("fir").section
    '3.4'
    >>> get_workload("sorting")  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    WorkloadError: unknown workload 'sorting' (known: ...)
    """
    try:
        return WORKLOADS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        known = ", ".join(sorted(WORKLOADS))
        raise WorkloadError(f"unknown workload {name!r} (known: {known})") from None


def list_workloads() -> List[str]:
    """Registered workload names, alphabetically.

    >>> list_workloads()
    ['convolution', 'correlation', 'count', 'fir', 'inner-product', 'match']
    """
    return sorted(WORKLOADS)


def run_workload(
    name: str,
    params,
    stream: Sequence,
    alphabet: Optional[Alphabet] = None,
    engine: str = "fast",
) -> list:
    """Run one workload end to end (see :meth:`WorkloadSpec.run`)."""
    return get_workload(name).run(params, stream, alphabet=alphabet, engine=engine)


def run_workload_many(
    name: str,
    params,
    streams: Sequence[Sequence],
    alphabet: Optional[Alphabet] = None,
    engine: str = "batched",
) -> List[list]:
    """Run one workload over many streams (see :meth:`WorkloadSpec.run_many`).

    >>> from repro.alphabet import Alphabet
    >>> run_workload_many("match", "AB", ["ABC", "BA"], Alphabet("ABCD"))
    [[False, True, False], [False, False]]
    >>> run_workload_many("fir", [0.5, 0.5], [[2.0, 4.0], [6.0]])
    [[1.0, 3.0], [3.0]]
    """
    return get_workload(name).run_many(
        params, streams, alphabet=alphabet, engine=engine
    )
