"""repro: a full-stack reproduction of Foster & Kung (ISCA 1980),
"Design of Special-Purpose VLSI Chips: Example and Opinions".

The package models the paper's systolic pattern-matching chip at every
level the paper describes -- behavioural algorithm, bit-pipelined array,
switch-level NMOS circuit, stick diagram / mask layout / CIF -- together
with the host system of Figure 1-1, the rejected design alternatives of
Section 3.3, the extension machines of Section 3.4, and the Section 4
design methodology as an executable task graph.

Quick start::

    from repro import Alphabet, PatternMatcher

    matcher = PatternMatcher("AXC", Alphabet("ABCD"))
    matcher.match("ABCAACACCAB")

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from .alphabet import (
    ASCII_UPPER,
    PROTOTYPE_ALPHABET,
    WILDCARD,
    Alphabet,
    PatternChar,
    parse_pattern,
    pattern_to_string,
)
from .core import (
    BitLevelMatcher,
    MatchReport,
    PatternMatcher,
    SystolicMatcherArray,
    count_oracle,
    match_oracle,
    multipass_match,
)
from .errors import ReproError
from .obs import MetricsRegistry, Observability, Tracer
from .workloads import WorkloadSpec, get_workload, list_workloads, run_workload

__version__ = "1.0.0"

__all__ = [
    "ASCII_UPPER",
    "Alphabet",
    "BitLevelMatcher",
    "MatchReport",
    "MetricsRegistry",
    "Observability",
    "PROTOTYPE_ALPHABET",
    "PatternChar",
    "PatternMatcher",
    "ReproError",
    "Tracer",
    "SystolicMatcherArray",
    "WILDCARD",
    "WorkloadSpec",
    "count_oracle",
    "get_workload",
    "list_workloads",
    "match_oracle",
    "multipass_match",
    "parse_pattern",
    "pattern_to_string",
    "run_workload",
    "__version__",
]
