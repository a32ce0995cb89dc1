"""Cross-level equivalence checking.

The hierarchy of models -- "from the algorithm level to the gate level to
the layout level ... each level ... serving as an implementation of the
next level up" (Section 4) -- is only trustworthy if adjacent levels are
checked against each other.  :func:`verify_matcher_stack` runs one
pattern/text pair through every level and the oracle and reports
agreement; the test suite calls it over randomised inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..alphabet import Alphabet, parse_pattern
from ..core.bit_level import BitLevelMatcher
from ..core.matcher import PatternMatcher
from ..core.multipass import multipass_match
from ..core.reference import match_oracle


@dataclass
class StackReport:
    """Per-level results and the agreement verdict."""

    oracle: List[bool]
    levels: Dict[str, List[bool]]

    @property
    def all_agree(self) -> bool:
        return all(v == self.oracle for v in self.levels.values())

    def disagreements(self) -> List[str]:
        return [name for name, v in self.levels.items() if v != self.oracle]


def verify_matcher_stack(
    pattern: str,
    text: str,
    alphabet: Alphabet,
    include_gate_level: bool = False,
    n_cells: Optional[int] = None,
) -> StackReport:
    """Run every model level on one input; gate level optional (slow)."""
    pcs = parse_pattern(pattern, alphabet)
    oracle = match_oracle(pcs, list(text))
    levels: Dict[str, List[bool]] = {}
    levels["char-level array"] = PatternMatcher(
        pattern, alphabet, n_cells=n_cells
    ).match(text)
    levels["bit-level array"] = BitLevelMatcher(
        pattern, alphabet, n_cells=n_cells
    ).match(text)
    levels["multipass (capacity 2)"] = multipass_match(
        pcs, list(text), n_cells=max(1, min(2, len(pcs)))
    )
    if include_gate_level:
        from ..compiler import GateLevelMatcher

        levels["switch-level netlist"] = GateLevelMatcher(
            pattern, alphabet, n_cells=n_cells
        ).match(text)
    return StackReport(oracle=oracle, levels=levels)
