"""The fabricated prototype (Plate 2).

"Plate 2 is a photograph of a prototype pattern matching chip that can
handle patterns containing up to eight two-bit characters."  and
"Preliminary results show that the chip can achieve a data rate of one
character every 250 ns, which is higher than the memory bandwidth of most
conventional computers."

:class:`PrototypeChip` is that exact configuration; its companion
constants carry the fabrication context (XEROX PARC multi-project run,
Spring 1979; Mead & Conway NMOS at lambda = 2.5 um; ~two man-months of
design effort) used by the economics bench.
"""

from __future__ import annotations

from ..alphabet import PROTOTYPE_ALPHABET
from .chip import ChipSpec, PatternMatchingChip

#: The published prototype parameters.
PROTOTYPE = ChipSpec(
    8,
    char_bits=2,
    beat_ns=250.0,
    chip_name="CMU pattern matcher (Spring 1979)",
)

#: Design effort reported in Section 5.
DESIGN_EFFORT_MAN_MONTHS = 2.0

#: Process assumed throughout: Mead & Conway NMOS, lambda = 2.5 um.
LAMBDA_MICRONS = 2.5


class PrototypeChip(PatternMatchingChip):
    """The Plate 2 chip: 8 character cells, 2-bit characters, 250 ns beat."""

    def __init__(self):
        super().__init__(PROTOTYPE, PROTOTYPE_ALPHABET)

    @property
    def max_pattern_length(self) -> int:
        return PROTOTYPE.cells

    def data_rate_mchars_per_s(self) -> float:
        """4 Mchars/s: one character per 250 ns."""
        return self.spec.characters_per_second() / 1e6
