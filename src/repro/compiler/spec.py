"""Chip specifications: the compiler's input language.

Section 4's methodology starts from "a precise functional specification
of the chip"; here that is a :class:`ChipSpec` -- a kernel name plus the
two or three numbers that size the machine.  Everything else (result-bus
width, comparator row count, cell library, floorplan) is *derived*, which
is the point of a silicon compiler: the designer states the problem, the
flow computes the silicon.

Supported kernels (the Section 3 machines with real cell circuits):

``match``
    Wildcard substring matching -- ``char_bits`` comparator rows over a
    row of one-bit accumulators (the fabricated prototype's function).
``count``
    Per-window count of matching positions -- the same comparator rows
    over a row of :mod:`counting cells <repro.circuit.cells.counter>`
    with a ripple counter wide enough that a full window never wraps.
``inner-product``
    Sliding inner products over small unsigned integers -- a single row
    of :mod:`multiply-accumulate cells <repro.circuit.cells.mac>` with
    ``data_bits``-wide operand buses and an accumulator sized so the
    worst-case window sum never wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError

__all__ = ["CompileError", "ChipSpec", "KERNELS"]

#: Kernels the compiler can lower to silicon.
KERNELS = ("match", "count", "inner-product")


class CompileError(ReproError):
    """Invalid chip specification or inconsistent intermediate form."""


@dataclass(frozen=True)
class ChipSpec:
    """One chip, fully parameterized.

    ``cells`` is the column count *m* (the longest pattern / tap vector
    the chip accepts); ``char_bits`` is the character width *w* for the
    matching kernels; ``data_bits`` is the operand width *B* for the
    numeric kernel.  ``name`` defaults to a size-mnemonic identifier.

    >>> ChipSpec("match", cells=8).name
    'match_8x2'
    >>> ChipSpec("count", cells=12, char_bits=3).result_bits
    4
    >>> ChipSpec("inner-product", cells=4, data_bits=2).result_bits
    6
    """

    kernel: str
    cells: int
    char_bits: int = 2
    data_bits: int = 2
    chip_name: str = ""

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise CompileError(
                f"unknown kernel {self.kernel!r} (known: {', '.join(KERNELS)})"
            )
        if self.cells < 1:
            raise CompileError("a chip needs at least one cell")
        if self.kernel in ("match", "count") and self.char_bits < 1:
            raise CompileError("char_bits must be at least 1")
        if self.kernel == "inner-product" and self.data_bits < 1:
            raise CompileError("data_bits must be at least 1")

    # -- derived dimensions -------------------------------------------------

    @property
    def w_rows(self) -> int:
        """Comparator rows above the result row (0 for numeric kernels)."""
        return self.char_bits if self.kernel in ("match", "count") else 0

    @property
    def result_row(self) -> int:
        """Row index of the result row in the (i + j) polarity scheme."""
        return self.w_rows

    @property
    def result_bits(self) -> int:
        """Result-bus width, sized so a full window never wraps.

        ``match`` carries one bit.  ``count`` can reach ``cells`` (every
        position matches), needing ``cells.bit_length()`` bits.  The
        inner product of ``cells`` maximal ``data_bits``-wide operands
        reaches ``cells * (2**data_bits - 1)**2``; the accumulator is
        additionally at least ``2 * data_bits`` wide so a single product
        always fits.
        """
        if self.kernel == "match":
            return 1
        if self.kernel == "count":
            return max(2, self.cells.bit_length())
        peak = self.cells * (2 ** self.data_bits - 1) ** 2
        return max(2 * self.data_bits, peak.bit_length())

    @property
    def name(self) -> str:
        if self.chip_name:
            return self.chip_name
        if self.kernel == "inner-product":
            return f"ip_{self.cells}x{self.data_bits}"
        return f"{self.kernel}_{self.cells}x{self.char_bits}"
