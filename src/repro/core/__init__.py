"""The paper's primary contribution: the systolic pattern matcher.

Contents map to Section 3.2 of the paper:

* :mod:`repro.core.reference` -- the problem definition of Section 3.1 as a
  direct oracle.
* :mod:`repro.core.cells` -- the comparator and accumulator cell algorithms.
* :mod:`repro.core.array` -- the bidirectional linear array with pattern
  recirculation and the host-side feeding/collection discipline.
* :mod:`repro.core.matcher` -- :class:`PatternMatcher`, the public API.
* :mod:`repro.core.bit_level` -- the bit-pipelined comparator array of
  Figure 3-4.
* :mod:`repro.core.multipass` -- matching patterns longer than the array by
  repeated, delayed runs (Section 3.4).
"""

from .array import SystolicMatcherArray, TextToken
from .bit_level import BitLevelMatcher
from .matcher import MatchReport, PatternMatcher
from .multipass import multipass_match
from .reference import match_oracle, count_oracle

__all__ = [
    "BitLevelMatcher",
    "MatchReport",
    "PatternMatcher",
    "SystolicMatcherArray",
    "TextToken",
    "count_oracle",
    "match_oracle",
    "multipass_match",
]
