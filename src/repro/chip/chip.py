"""One chip: its specification, capacity, pins, and timing.

A :class:`ChipSpec` states a chip once -- kernel, size, beat clock -- for
both the serving tier (pool workers, cascades, the Plate 2 prototype) and
the silicon compiler (:func:`repro.compiler.compile_workload`).

A :class:`PatternMatchingChip` is the packaged article: a fixed number of
character cells (set at fabrication time), the chip-edge pins that make
cascading possible ("an input for the result stream and outputs for the
pattern and text streams must be available", Section 3.4), and a beat
clock.  The data path is the verified behavioural array of
:mod:`repro.core.array`; gate-level fidelity is established separately by
the cross-level tests of :class:`repro.compiler.GateLevelMatcher`, the
compiled ``match`` chip at switch level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..alphabet import Alphabet, PatternChar, parse_pattern
from ..errors import ChipError, CompileError, PatternError
from ..core.array import SystolicMatcherArray
from ..core.fastpath import fast_match_many
from ..core.matcher import MatchReport
from ..core.multipass import multipass_match
from ..streams import RecirculatingPattern


#: Kernels a chip can implement (the Section 3 machines with real cell
#: circuits, hence the kernels the compiler can lower to silicon).
KERNELS = ("match", "count", "inner-product")


@dataclass(frozen=True)
class ChipSpec:
    """One chip, fully parameterized: the farm serves it, the compiler
    lays it out.

    Section 4's methodology starts from "a precise functional
    specification of the chip"; this is it -- a kernel plus the numbers
    that size and clock the machine.  ``cells`` is the column count *m*
    (the longest pattern / tap vector the chip accepts); ``char_bits`` is
    the character width *w* of the matching kernels; ``data_bits`` is the
    operand width *B* of the numeric kernel; ``beat_ns`` is the beat
    clock.  Everything else (result-bus width, comparator row count, and
    in the compiler the cell library and floorplan) is *derived*.
    ``name`` defaults to a size mnemonic.

    ``match``
        Wildcard substring matching -- ``char_bits`` comparator rows over
        a row of one-bit accumulators (the fabricated prototype).
    ``count``
        Per-window count of matching positions -- the same comparator
        rows over a row of counting cells with a ripple counter wide
        enough that a full window never wraps.
    ``inner-product``
        Sliding inner products over small unsigned integers -- one row of
        multiply-accumulate cells with ``data_bits``-wide operand buses
        and an accumulator sized so the worst-case window sum never wraps.

    >>> ChipSpec(8).name
    'match_8x2'
    >>> ChipSpec(12, 3, kernel="count").result_bits
    4
    >>> ChipSpec(4, kernel="inner-product", data_bits=2).result_bits
    6
    """

    cells: int
    char_bits: int = 2
    kernel: str = "match"
    data_bits: int = 2
    beat_ns: float = 250.0
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
        if self.beat_ns <= 0:
            raise CompileError("beat time must be positive")

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

    def characters_per_second(self) -> float:
        """Bus data rate in characters per second.

        One character (pattern or text, alternating) crosses the bus per
        beat; the paper quotes exactly this stream rate: "a data rate of
        one character every 250 ns".
        """
        return 1e9 / self.beat_ns


class PatternMatchingChip:
    """A packaged chip that can be loaded with any pattern that fits."""

    def __init__(self, spec: ChipSpec, alphabet: Alphabet):
        if spec.kernel != "match":
            raise ChipError(f"a {spec.kernel!r} spec is not a pattern matcher")
        if alphabet.bits > spec.char_bits:
            raise ChipError(
                f"alphabet needs {alphabet.bits}-bit characters but the chip "
                f"datapath is {spec.char_bits} bits wide"
            )
        self.spec = spec
        self.alphabet = alphabet
        self.array = SystolicMatcherArray(spec.cells, name=spec.name)
        self._pattern: Optional[List[PatternChar]] = None
        self._stream: Optional[RecirculatingPattern] = None
        self.obs = None

    def attach_obs(self, obs) -> None:
        """Attach/detach an Observability bundle.

        The chip's array publishes beat/fire counters labelled with the
        spec name; :meth:`report` runs wrap in a ``chip.report`` span.
        """
        self.obs = obs
        self.array.attach_obs(obs)

    # -- pattern loading ------------------------------------------------------

    def load_pattern(self, pattern, wildcard_symbol: str = "X") -> None:
        """Set the pattern the host will stream (no cell storage needed --
        the pattern recirculates, which is why loading takes zero beats;
        cf. the rejected static design of Section 3.3.1)."""
        if pattern and all(isinstance(pc, PatternChar) for pc in pattern):
            parsed = list(pattern)
        else:
            parsed = parse_pattern(pattern, self.alphabet, wildcard_symbol)
        if len(parsed) > self.spec.cells:
            raise PatternError(
                f"pattern of length {len(parsed)} exceeds chip capacity "
                f"{self.spec.cells}; cascade chips (Figure 3-7) or use "
                f"multipass matching"
            )
        self._pattern = parsed
        self._stream = RecirculatingPattern(parsed)

    @property
    def pattern(self) -> List[PatternChar]:
        if self._pattern is None:
            raise ChipError("no pattern loaded")
        return list(self._pattern)

    # -- operation ----------------------------------------------------------------

    def match(self, text: Sequence[str]) -> List[bool]:
        """Stream *text* through the chip; one result bit per character.

        Runs the ``match`` kernel as a batch of one (equivalent to the
        stepwise array; see :mod:`repro.core.fastpath`); :meth:`report`
        runs the beat-accurate array when timing figures are needed.
        """
        if self._pattern is None:
            raise ChipError("no pattern loaded")
        codes = self.alphabet.encode_text(text)
        return fast_match_many(self._pattern, [codes], self.alphabet)[0].tolist()

    def report(self, text: Sequence[str]) -> MatchReport:
        if self._stream is None:
            raise ChipError("no pattern loaded")
        chars = self.alphabet.validate_text(text)
        span = None
        if self.obs is not None:
            span = self.obs.tracer.begin(
                "chip.report", t0=0.0, unit="beats", chip=self.spec.name,
                chars=len(chars), pattern_len=len(self._pattern),
            )
        raw = self.array.run(self._stream.items, chars)
        k = len(self._pattern) - 1
        results = [
            bool(raw.get(i, False)) if i >= k else False
            for i in range(len(chars))
        ]
        rep = MatchReport(
            results=results,
            beats=self.array.array.beat,
            utilization=self.array.utilization(),
        )
        if span is not None:
            self.obs.tracer.end(
                span, t1=float(rep.beats),
                matches=len(rep.match_positions),
                utilization=rep.utilization,
            )
        return rep

    def match_long_pattern(self, pattern, text: Sequence[str]) -> List[bool]:
        """Section 3.4 multipass operation for patterns beyond capacity."""
        parsed = parse_pattern(pattern, self.alphabet) if not (
            pattern and all(isinstance(pc, PatternChar) for pc in pattern)
        ) else list(pattern)
        return multipass_match(parsed, list(text), self.spec.cells,
                               obs=self.obs)

    # -- timing ----------------------------------------------------------------------

    def elapsed_ns(self, report: MatchReport) -> float:
        """Wall-clock time of a run under the chip's beat clock."""
        return report.beats * self.spec.beat_ns

    def text_rate_chars_per_s(self) -> float:
        """Steady-state text throughput: one text char per two beats."""
        return 1e9 / (2 * self.spec.beat_ns)
