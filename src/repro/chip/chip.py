"""One pattern-matching chip: capacity, pins, and timing.

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
from typing import Dict, List, Optional, Sequence

from ..alphabet import Alphabet, PatternChar, parse_pattern
from ..errors import ChipError, PatternError
from ..core.array import SystolicMatcherArray
from ..core.fastpath import FastMatcher
from ..core.matcher import MatchReport
from ..core.multipass import multipass_match
from ..streams import RecirculatingPattern


@dataclass(frozen=True)
class ChipSpec:
    """Fabrication-time parameters of a chip."""

    n_cells: int
    char_bits: int
    beat_ns: float = 250.0
    name: str = "pattern-matcher"

    def __post_init__(self):
        if self.n_cells <= 0:
            raise ChipError("a chip needs at least one character cell")
        if self.char_bits <= 0:
            raise ChipError("characters need at least one bit")
        if self.beat_ns <= 0:
            raise ChipError("beat time must be positive")

    @property
    def pins(self) -> List[str]:
        """The package pins (Section 3.4 extensibility set)."""
        pins = ["VDD", "GND", "PHI1", "PHI2",
                "LAM_IN", "X_IN", "LAM_OUT", "X_OUT", "R_IN", "R_OUT"]
        for j in range(self.char_bits):
            pins += [f"P_IN{j}", f"P_OUT{j}", f"S_IN{j}", f"S_OUT{j}"]
        return pins

    @property
    def pin_count(self) -> int:
        return len(self.pins)

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
        if alphabet.bits > spec.char_bits:
            raise ChipError(
                f"alphabet needs {alphabet.bits}-bit characters but the chip "
                f"datapath is {spec.char_bits} bits wide"
            )
        self.spec = spec
        self.alphabet = alphabet
        self.array = SystolicMatcherArray(spec.n_cells, name=spec.name)
        self._pattern: Optional[List[PatternChar]] = None
        self._stream: Optional[RecirculatingPattern] = None
        self._fast: Optional[FastMatcher] = None
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
        if len(parsed) > self.spec.n_cells:
            raise PatternError(
                f"pattern of length {len(parsed)} exceeds chip capacity "
                f"{self.spec.n_cells}; cascade chips (Figure 3-7) or use "
                f"multipass matching"
            )
        self._pattern = parsed
        self._stream = RecirculatingPattern(parsed)
        self._fast = FastMatcher(parsed, self.alphabet)

    @property
    def pattern(self) -> List[PatternChar]:
        if self._pattern is None:
            raise ChipError("no pattern loaded")
        return list(self._pattern)

    # -- operation ----------------------------------------------------------------

    def match(self, text: Sequence[str]) -> List[bool]:
        """Stream *text* through the chip; one result bit per character.

        Runs on the bit-parallel fast path (equivalent to the stepwise
        array; see :mod:`repro.core.fastpath`); :meth:`report` runs the
        beat-accurate array when timing figures are needed.
        """
        if self._fast is None:
            raise ChipError("no pattern loaded")
        return self._fast.match(text)

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
        return multipass_match(parsed, list(text), self.spec.n_cells,
                               obs=self.obs)

    # -- timing ----------------------------------------------------------------------

    def elapsed_ns(self, report: MatchReport) -> float:
        """Wall-clock time of a run under the chip's beat clock."""
        return report.beats * self.spec.beat_ns

    def text_rate_chars_per_s(self) -> float:
        """Steady-state text throughput: one text char per two beats."""
        return 1e9 / (2 * self.spec.beat_ns)
