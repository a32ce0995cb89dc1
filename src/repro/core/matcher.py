"""The public pattern-matching API (the chip as the host sees it).

:class:`PatternMatcher` wraps the systolic array behind the interface of
Figure 3-1: feed it a pattern (with wild cards) and an endless text
stream; get back one result bit per text character, where bit *i* reports
whether the substring ending at position *i* matches the whole pattern.

>>> from repro import Alphabet, PatternMatcher
>>> m = PatternMatcher("AXC", Alphabet("ABCD"))
>>> m.match("ABCAACACCAB")
[False, False, True, False, False, True, False, False, True, False, False]

which is the paper's own example: pattern AXC matches the substrings
ABC, AAC and ACC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..alphabet import Alphabet, PatternChar, parse_pattern, pattern_to_string
from ..errors import PatternError
from ..streams import RecirculatingPattern
from ..systolic.tracing import TraceRecorder
from .array import SystolicMatcherArray
from .fastpath import fast_match_many
from .reference import match_oracle


@dataclass
class MatchReport:
    """Rich output of a matching run.

    Attributes
    ----------
    results:
        One boolean per text position (``i < k`` positions are False).
    match_positions:
        Indices *i* where the window ending at *i* matched.
    beats:
        Total beats the array ran, including fill and drain.
    utilization:
        Fraction of cell-beats on which a cell computed (steady state 1/2).
    """

    results: List[bool]
    match_positions: List[int] = field(init=False)
    beats: int = 0
    utilization: float = 0.0

    def __post_init__(self) -> None:
        self.match_positions = [i for i, r in enumerate(self.results) if r]


class PatternMatcher:
    """A software model of one pattern-matching chip of ``n_cells`` cells.

    Parameters
    ----------
    pattern:
        The pattern string; the letter ``X`` (configurable via
        ``wildcard_symbol``) denotes the wild card when it is not itself
        an alphabet symbol.  May also be a pre-parsed sequence of
        :class:`~repro.alphabet.PatternChar`.
    alphabet:
        The character alphabet Sigma.
    n_cells:
        Number of character cells; defaults to exactly the pattern length
        (the paper's minimum).  Must be >= the pattern length -- use
        :func:`repro.core.multipass.multipass_match` or a
        :class:`repro.chip.cascade.ChipCascade` for longer patterns.
    trace:
        When True, a :class:`~repro.systolic.tracing.TraceRecorder` is
        attached and exposed as :attr:`recorder`, and every
        :meth:`match` runs the beat-by-beat simulation.  Otherwise
        :meth:`match` runs the ``match`` workload's vectorized kernel as
        a batch of one (:func:`~repro.core.fastpath.fast_match_many`,
        checked against the stepwise array and the oracle by the
        property tests).  :meth:`report` always runs the stepwise array,
        since its beat and utilization figures only exist there.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  Fast-path
        matches count into ``matcher.fastpath.matches`` / ``.chars``;
        stepwise runs additionally emit ``array.run`` spans and beat/fire
        counters via the attached array.
    """

    def __init__(
        self,
        pattern,
        alphabet: Alphabet,
        n_cells: Optional[int] = None,
        wildcard_symbol: str = "X",
        trace: bool = False,
        obs=None,
    ):
        self.alphabet = alphabet
        if pattern and all(isinstance(pc, PatternChar) for pc in pattern):
            self.pattern: List[PatternChar] = list(pattern)
        else:
            self.pattern = parse_pattern(pattern, alphabet, wildcard_symbol)
        if n_cells is None:
            n_cells = len(self.pattern)
        if n_cells < len(self.pattern):
            raise PatternError(
                f"pattern of length {len(self.pattern)} does not fit in "
                f"{n_cells} cells; cascade chips or use multipass matching"
            )
        self.recorder = TraceRecorder() if trace else None
        self.array = SystolicMatcherArray(n_cells, recorder=self.recorder)
        self._stream = RecirculatingPattern(self.pattern)
        self._fast = self.recorder is None
        self.obs = None
        self._m_fast_matches = None
        self._m_fast_chars = None
        if obs is not None:
            self.attach_obs(obs)

    def attach_obs(self, obs) -> None:
        """Attach/detach an Observability bundle (propagates to the array)."""
        self.obs = obs
        self.array.attach_obs(obs)
        if obs is None:
            self._m_fast_matches = self._m_fast_chars = None
        else:
            self._m_fast_matches = obs.registry.counter("matcher.fastpath.matches")
            self._m_fast_chars = obs.registry.counter("matcher.fastpath.chars")

    # -- public API -----------------------------------------------------------

    @property
    def pattern_string(self) -> str:
        return pattern_to_string(self.pattern)

    @property
    def pattern_length(self) -> int:
        return len(self.pattern)

    @property
    def n_cells(self) -> int:
        return self.array.n_cells

    def match(self, text: Sequence[str]) -> List[bool]:
        """One result bit per text character (Section 3.1 semantics)."""
        if self._fast:
            if self._m_fast_matches is not None:
                self._m_fast_matches.inc()
                self._m_fast_chars.inc(len(text))
            codes = self.alphabet.encode_text(text)
            return fast_match_many(self.pattern, [codes],
                                   self.alphabet)[0].tolist()
        return self.report(text).results

    def report(self, text: Sequence[str]) -> MatchReport:
        """Run the array and return results plus run statistics."""
        chars = self.alphabet.validate_text(text)
        raw = self.array.run(self._stream.items, chars)
        k = len(self.pattern) - 1
        results = [
            bool(raw.get(i, False)) if i >= k else False for i in range(len(chars))
        ]
        return MatchReport(
            results=results,
            beats=self.array.array.beat,
            utilization=self.array.utilization(),
        )

    def find(self, text: Sequence[str]) -> List[int]:
        """Start positions of every matching substring."""
        k = len(self.pattern) - 1
        return [i - k for i, r in enumerate(self.match(text)) if r]

    def verify_against_oracle(self, text: Sequence[str]) -> bool:
        """Convenience for tests: does the array agree with the definition?"""
        return self.match(text) == match_oracle(self.pattern, list(text))
