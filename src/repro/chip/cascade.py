"""Multi-chip cascades (Figure 3-7).

"The inputs to each chip ... are taken from the outputs of its
neighbors, so that the cells on all of the chips form a single linear
array.  The pattern is fed to the inputs of the leftmost chip, and the
text string is input to the rightmost chip.  The result output is taken
from the leftmost chip.  A cascade of k chips with n cells each can
match patterns of up to kn characters."
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..alphabet import Alphabet, PatternChar, parse_pattern
from ..errors import ChipError, PatternError
from ..core.array import MATCHER_CHANNELS, SystolicMatcherArray, TextToken
from ..core.cells import MatcherCellKernel, ResultToken
from ..streams import RecirculatingPattern
from ..systolic.cell import is_bubble
from ..systolic.engine import LinearArray
from ..systolic.topology import ChainedArrays
from .chip import ChipSpec


class ChipCascade:
    """``k`` chips wired pin to pin as one long pattern matcher."""

    def __init__(self, spec: ChipSpec, n_chips: int, alphabet: Alphabet):
        if n_chips <= 0:
            raise ChipError("cascade needs at least one chip")
        if spec.kernel != "match":
            raise ChipError(f"a {spec.kernel!r} spec is not a pattern matcher")
        if alphabet.bits > spec.char_bits:
            raise ChipError("alphabet wider than the chip datapath")
        self.spec = spec
        self.n_chips = n_chips
        self.alphabet = alphabet
        self.chain = ChainedArrays(
            [
                LinearArray(
                    spec.cells,
                    MATCHER_CHANNELS,
                    lambda i: MatcherCellKernel(),
                    ("p", "s"),
                    name=f"{spec.name}[{c}]",
                )
                for c in range(n_chips)
            ]
        )
        self._pattern: List[PatternChar] = []
        self.obs = None

    def attach_obs(self, obs) -> None:
        """Attach/detach an Observability bundle on every chip in the
        chain (per-stage ``array.*`` metrics) and record ``cascade.match``
        spans around runs."""
        self.obs = obs
        for stage in self.chain.stages:
            stage.attach_obs(obs)

    @property
    def capacity(self) -> int:
        """kn character cells (the Figure 3-7 headline)."""
        return self.spec.cells * self.n_chips

    def load_pattern(self, pattern, wildcard_symbol: str = "X") -> None:
        if pattern and all(isinstance(pc, PatternChar) for pc in pattern):
            parsed = list(pattern)
        else:
            parsed = parse_pattern(pattern, self.alphabet, wildcard_symbol)
        if len(parsed) > self.capacity:
            raise PatternError(
                f"pattern of length {len(parsed)} exceeds cascade capacity "
                f"{self.capacity}"
            )
        self._pattern = parsed

    def match(self, text: Sequence[str]) -> List[bool]:
        """Stream text through the cascade; result from the leftmost chip.

        Uses the same host feeding discipline as a single chip of
        ``capacity`` cells -- which is the Figure 3-7 claim: the cascade
        *is* that bigger chip.
        """
        if not self._pattern:
            raise ChipError("no pattern loaded")
        chars = self.alphabet.validate_text(text)
        # Borrow the single-array schedule generator for the full length.
        reference = SystolicMatcherArray(self.capacity)
        tokens = [TextToken(c, i) for i, c in enumerate(chars)]
        items = RecirculatingPattern(self._pattern).items
        n_beats = reference.beats_needed(len(tokens))
        schedule = reference.input_schedule(items, tokens, n_beats)
        self.chain.reset()
        span = None
        if self.obs is not None:
            span = self.obs.tracer.begin(
                "cascade.match", t0=0.0, unit="beats",
                chips=self.n_chips, capacity=self.capacity, chars=len(chars),
            )
        raw: Dict[int, object] = {}
        for beat_in in schedule:
            out = self.chain.step(beat_in)
            s_out = out["s"]
            if not is_bubble(s_out):
                r_out = out["r"]
                if isinstance(r_out, ResultToken):
                    raw[s_out.index] = r_out.value
        if span is not None:
            self.obs.tracer.end(span, t1=float(self.chain.beat))
        k = len(self._pattern) - 1
        return [
            bool(raw.get(i, False)) if i >= k else False
            for i in range(len(chars))
        ]

    def beats_for_text(self, n_text: int) -> int:
        """Beats to stream *n_text* characters (fill + stream + drain)."""
        reference = SystolicMatcherArray(self.capacity)
        return reference.beats_needed(n_text)

    def data_rate_chars_per_s(self) -> float:
        """Cascading leaves the beat clock -- and thus the rate -- unchanged."""
        return 1e9 / self.spec.beat_ns
