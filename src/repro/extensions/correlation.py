"""The correlation machine of Section 3.4.

"A problem of more practical interest is the computation of correlations.
In this problem pattern, string, and result are all numbers.  The result
r_i of a correlation is defined as:

    r_i = (s_{i-k} - p_0)^2 + (s_{i+1-k} - p_1)^2 + ... + (s_i - p_k)^2

Correlations can be computed by a machine with identical data flow to the
string matching chip ... The comparator is replaced by a difference cell
that computes d_out <- s_in - p_in ...  An adder cell replaces the
accumulator."

Adder-cell semantics per the paper (with the end-of-pattern emission
including the current term, consistent with the accumulator discipline):

    if lambda_in:  r_out <- t + d_in^2 ; t <- 0
    else:          r_out <- r_in ; t <- t + d_in^2

Usage -- one squared distance per sample, 0.0 before the first full
window, and a *small* value means a good match:

>>> systolic_correlation([1.0, 3.0], [1.0, 3.0, 5.0])
[0.0, 0.0, 8.0]

The served kernel is
:func:`repro.core.fastpath.fast_squared_distances_many`; the direct
definition is :func:`repro.core.reference.correlation_oracle`; the farm
serves this as ``submit(workload="correlation")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from ..errors import PatternError
from ..core.array import SystolicMatcherArray
from ..core.cells import ResultToken


@dataclass(frozen=True)
class NumericPatternItem:
    """A number travelling in the pattern stream, with the lambda bit."""

    value: float
    is_last: bool

    def __str__(self) -> str:
        return f"{self.value}{'$' if self.is_last else ''}"


def numeric_pattern_cycle(values: Sequence[float]) -> List[NumericPatternItem]:
    """One recirculation period of a numeric pattern stream."""
    if len(values) == 0:
        raise PatternError("numeric pattern must be non-empty")
    n = len(values)
    return [NumericPatternItem(float(v), i == n - 1) for i, v in enumerate(values)]


class DifferenceCell:
    """``d_out <- s_in - p_in`` (replaces the comparator)."""

    def compute(self, p_value: float, s_value: float) -> float:
        return s_value - p_value


class AdderCell:
    """Accumulates squared differences (replaces the accumulator)."""

    def __init__(self) -> None:
        self.t: float = 0.0

    def reset(self) -> None:
        self.t = 0.0

    def absorb(self, d: float, lambda_in: bool):
        t_updated = self.t + d * d
        if lambda_in:
            self.t = 0.0
            return ResultToken(t_updated)
        self.t = t_updated
        return None


class CorrelationCellKernel:
    """Difference cell stacked on adder cell; matcher channel protocol."""

    def __init__(self) -> None:
        self.difference = DifferenceCell()
        self.adder = AdderCell()

    def reset(self) -> None:
        self.adder.reset()

    def fire(self, inputs: Mapping[str, object]) -> Dict[str, object]:
        p: NumericPatternItem = inputs["p"]
        s = inputs["s"]
        d = self.difference.compute(p.value, float(s.char))
        emitted = self.adder.absorb(d, p.is_last)
        out: Dict[str, object] = {"p": p, "s": s}
        if emitted is not None:
            out["r"] = emitted
        return out

    def state_snapshot(self) -> Dict[str, object]:
        return {"t": self.adder.t}


class CorrelationMachine:
    """Squared-distance correlator with the matcher's data flow.

    ``correlate(signal)`` returns one number per signal sample: the sum of
    squared differences between the pattern and the window ending at that
    sample (0.0 for incomplete windows).  Small values mean good matches.
    """

    def __init__(self, pattern: Sequence[float], n_cells: int = None):
        values = [float(v) for v in pattern]
        if not values:
            raise PatternError("pattern must be non-empty")
        if n_cells is None:
            n_cells = len(values)
        if n_cells < len(values):
            raise PatternError("pattern does not fit in the array")
        self.pattern = values
        self.array = SystolicMatcherArray(
            n_cells, kernel_factory=lambda i: CorrelationCellKernel()
        )
        self._items = numeric_pattern_cycle(values)

    def correlate(self, signal: Sequence[float]) -> List[float]:
        samples = [float(v) for v in signal]
        raw = self.array.run(self._items, samples)
        k = len(self.pattern) - 1
        return [
            float(raw.get(i, 0.0)) if i >= k else 0.0
            for i in range(len(samples))
        ]


def systolic_correlation(
    pattern: Sequence[float], signal: Sequence[float], n_cells: int = None
) -> List[float]:
    """Functional convenience wrapper around :class:`CorrelationMachine`."""
    return CorrelationMachine(pattern, n_cells).correlate(signal)
