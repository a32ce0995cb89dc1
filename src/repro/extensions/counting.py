"""The match-counting machine of Section 3.4.

"For example, we might wish to count how many characters in each substring
match the corresponding characters in the pattern.  This problem can be
solved by replacing the result bit stream by a stream of integers, and
replacing the accumulator cell by a counting cell."

Per-active-beat counting-cell semantics (the paper's listing, with the
evident OCR slip ``r_out <- 1`` read as ``r_out <- t``, consistent with
the accumulator's ``r_out <- t; t <- ...`` discipline):

    lambda_out <- lambda_in ; x_out <- x_in
    t' = t + 1  if (x_in OR d_in)  else  t
    if lambda_in:  r_out <- t' ; t <- 0
    else:          r_out <- r_in ; t <- t'

Usage -- one integer per text position, 0 before the first full window:

>>> from repro.alphabet import Alphabet
>>> systolic_match_counts("AB", "ABBB", Alphabet("AB"))
[0, 2, 1, 1]

The served kernel is :func:`repro.core.fastpath.fast_counts_many`; the
direct definition is :func:`repro.core.reference.count_oracle`; the farm
serves this as ``submit(workload="count")``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..alphabet import Alphabet, PatternChar, parse_pattern
from ..errors import PatternError
from ..streams import PatternStreamItem, RecirculatingPattern
from ..core.array import SystolicMatcherArray
from ..core.cells import ComparatorCell, ResultToken


class CountingCell:
    """Counting replacement for the accumulator (state: integer ``t``)."""

    def __init__(self) -> None:
        self.t: int = 0

    def reset(self) -> None:
        self.t = 0

    def absorb(self, d: bool, x_in: bool, lambda_in: bool):
        t_updated = self.t + (1 if (x_in or d) else 0)
        if lambda_in:
            self.t = 0
            return ResultToken(t_updated)
        self.t = t_updated
        return None


class CountingCellKernel:
    """Comparator stacked on a counting cell; same channels as the matcher."""

    def __init__(self) -> None:
        self.comparator = ComparatorCell()
        self.counter = CountingCell()

    def reset(self) -> None:
        self.counter.reset()

    def fire(self, inputs: Mapping[str, object]) -> Dict[str, object]:
        p: PatternStreamItem = inputs["p"]
        s = inputs["s"]
        d = self.comparator.compare(p.char, s.char)
        emitted = self.counter.absorb(d, p.is_wild, p.is_last)
        out: Dict[str, object] = {"p": p, "s": s}
        if emitted is not None:
            out["r"] = emitted
        return out

    def state_snapshot(self) -> Dict[str, object]:
        return {"t": self.counter.t}


class CountingMachine:
    """A chip-like machine reporting per-window match counts.

    Same host interface as :class:`~repro.core.matcher.PatternMatcher`,
    but each output is the integer number of matching positions in the
    window ending at that text index (0 for incomplete windows).
    """

    def __init__(self, pattern, alphabet: Alphabet, n_cells: int = None,
                 wildcard_symbol: str = "X"):
        self.alphabet = alphabet
        if pattern and all(isinstance(pc, PatternChar) for pc in pattern):
            self.pattern: List[PatternChar] = list(pattern)
        else:
            self.pattern = parse_pattern(pattern, alphabet, wildcard_symbol)
        if n_cells is None:
            n_cells = len(self.pattern)
        if n_cells < len(self.pattern):
            raise PatternError("pattern does not fit in the array")
        self.array = SystolicMatcherArray(
            n_cells, kernel_factory=lambda i: CountingCellKernel()
        )
        self._items = RecirculatingPattern(self.pattern).items

    def counts(self, text: Sequence[str]) -> List[int]:
        chars = self.alphabet.validate_text(text)
        raw = self.array.run(self._items, chars)
        k = len(self.pattern) - 1
        return [
            int(raw.get(i, 0)) if i >= k else 0 for i in range(len(chars))
        ]


def systolic_match_counts(
    pattern, text: Sequence[str], alphabet: Alphabet, n_cells: int = None
) -> List[int]:
    """Functional convenience wrapper around :class:`CountingMachine`."""
    return CountingMachine(pattern, alphabet, n_cells).counts(text)
