"""Chip- and board-level packaging (Figure 3-7, Plate 2).

* :mod:`repro.chip.chip` -- :class:`~repro.chip.chip.ChipSpec`, the one
  chip specification (the pool's and the silicon compiler's), and
  :class:`PatternMatchingChip`, one chip with a fixed number of
  character cells and the extensibility pins of Section 3.4;
* :mod:`repro.chip.cascade` -- :class:`ChipCascade`, several chips wired
  as a single longer array (Figure 3-7);
* :mod:`repro.chip.prototype` -- the fabricated prototype configuration
  (8 cells, two-bit characters, 250 ns per character).
"""

from .cascade import ChipCascade
from .chip import PatternMatchingChip
from .prototype import PROTOTYPE, PrototypeChip

__all__ = ["ChipCascade", "PatternMatchingChip", "PROTOTYPE", "PrototypeChip"]
