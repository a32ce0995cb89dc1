"""The bit-pipelined comparator array of Figure 3-4.

"Rather than using one large circuit to compare whole characters, we can
divide each comparator into modules that can compare single bits. ...  By
staggering the bits so the high order bits enter the array before the low
order ones, we can make a pipeline comparator.  Each single bit comparator
shifts its result down to meet the bits coming into the next lower
comparator.  The active and idle comparators alternate vertically as well
as horizontally, so that on each beat the active comparators form a
checkerboard pattern."

Structure simulated here, for an alphabet of ``w``-bit characters and an
array of ``m`` columns:

* ``w`` rows of one-bit comparators.  Row ``j`` carries bit ``j`` (MSB =
  row 0) of the pattern rightward and of the string leftward, and computes
  ``d_out <- d_in AND (p_bit == s_bit)``, with ``d`` flowing downward one
  row per beat.  Row 0's ``d_in`` is hardwired TRUE.
* one accumulator row beneath, identical in behaviour to the
  character-level accumulator of :mod:`repro.core.cells`, receiving the
  completed character comparison from row ``w-1`` plus the ``lambda``/``x``
  bits, which travel rightward through the accumulator row delayed ``w``
  beats relative to the character's high-order bit.

Timing invariant (verified by the test suite): the accumulator row sees
exactly the character-level schedule of
:class:`~repro.core.array.SystolicMatcherArray`, ``w`` beats late; hence
the whole machine is beat-for-beat equivalent to the character-level
matcher with latency ``+w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..alphabet import Alphabet, PatternChar, parse_pattern
from ..errors import PatternError, SimulationError
from ..streams import PatternStreamItem, RecirculatingPattern
from ..systolic.cell import BUBBLE, is_bubble


@dataclass
class BitFeedBeat:
    """Edge stimulus for one beat of a bit-pipelined array.

    ``p_row_in[j]`` / ``s_row_in[j]``: bit entering row *j* from the
    left / right (or BUBBLE).  ``lam_in``: the control-bit pair entering
    the accumulator row (a :class:`~repro.streams.PatternStreamItem` or
    BUBBLE).  ``s_tag_in``: the text position whose character's bits have
    fully entered (or BUBBLE).  Shared by the behavioural
    :class:`BitLevelMatcher` and the compiler's feed plan for the
    switch-level ``match`` chip (:mod:`repro.compiler.simulate`), which
    must agree beat for beat.
    """

    p_row_in: List[object]
    s_row_in: List[object]
    lam_in: object
    s_tag_in: object


def bit_feed_schedule(
    alphabet: Alphabet,
    items: Sequence[PatternStreamItem],
    chars: Sequence[str],
    m: int,
    w: int,
    e_s: int,
    n_beats: int,
) -> List[BitFeedBeat]:
    """The Figure 3-4 feeding discipline as per-beat edge stimulus.

    Pattern character *c*'s bit *j* enters row *j* at beat ``2c + j``
    (recirculating mod ``len(items)``); its control bits enter the
    accumulator row ``w`` beats after the high-order bit.  Text character
    *q*'s bit *j* enters row *j* at beat ``e_s + 2q + j``.
    """
    L = len(items)
    pat_bits = [alphabet.encode(it.char) for it in items]
    txt_bits = [alphabet.encode(c) for c in chars]
    schedule: List[BitFeedBeat] = []
    for b in range(n_beats):
        p_row_in: List[object] = [BUBBLE] * w
        s_row_in: List[object] = [BUBBLE] * w
        lam_in: object = BUBBLE
        s_tag_in: object = BUBBLE
        for j in range(w):
            bj = b - j
            if bj >= 0 and bj % 2 == 0:
                p_row_in[j] = pat_bits[(bj // 2) % L][j]
            bj = b - e_s - j
            if bj >= 0 and bj % 2 == 0:
                q = bj // 2
                if q < len(chars):
                    s_row_in[j] = txt_bits[q][j]
        bl = b - w
        if bl >= 0 and bl % 2 == 0:
            lam_in = items[(bl // 2) % L]
        bq = b - e_s - w
        if bq >= 0 and bq % 2 == 0:
            q = bq // 2
            if q < len(chars):
                s_tag_in = q
        schedule.append(BitFeedBeat(p_row_in, s_row_in, lam_in, s_tag_in))
    return schedule


@dataclass
class CheckerboardSample:
    """One beat's active-comparator map, for the Figure 3-4 reproduction."""

    beat: int
    active: List[List[bool]]  # [row][column]


class BitLevelMatcher:
    """Pattern matcher built from one-bit comparators (Figure 3-4).

    Parameters
    ----------
    pattern:
        Pattern string (or pre-parsed :class:`PatternChar` sequence);
        ``X`` is the wild card by default.
    alphabet:
        Alphabet providing the ``bits``-wide binary character encoding.
    n_cells:
        Number of columns; defaults to the pattern length.
    record_checkerboard:
        When True, per-beat comparator activity maps are collected in
        :attr:`checkerboard`.
    """

    def __init__(
        self,
        pattern,
        alphabet: Alphabet,
        n_cells: Optional[int] = None,
        wildcard_symbol: str = "X",
        record_checkerboard: bool = False,
    ):
        self.alphabet = alphabet
        if pattern and all(isinstance(pc, PatternChar) for pc in pattern):
            self.pattern: List[PatternChar] = list(pattern)
        else:
            self.pattern = parse_pattern(pattern, alphabet, wildcard_symbol)
        if n_cells is None:
            n_cells = len(self.pattern)
        if n_cells < len(self.pattern):
            raise PatternError("pattern does not fit in the array")
        self.m = n_cells
        self.w = alphabet.bits
        self.record_checkerboard = record_checkerboard
        self.checkerboard: List[CheckerboardSample] = []
        self._items = RecirculatingPattern(self.pattern).items
        self._init_state()

    # -- state ----------------------------------------------------------------

    def _init_state(self) -> None:
        m, w = self.m, self.w
        # Horizontal bit pipelines, one pair per row.  Slots hold 0/1 or BUBBLE.
        self.p_bits: List[List[object]] = [[BUBBLE] * m for _ in range(w)]
        self.s_bits: List[List[object]] = [[BUBBLE] * m for _ in range(w)]
        # d_pending[j][i]: value awaiting consumption by row j at cell i this
        # beat (produced by row j-1 last beat).  Row 0 consumes hardwired TRUE
        # whenever its operands are valid, so d_pending[0] is unused.
        self.d_pending: List[List[object]] = [[BUBBLE] * m for _ in range(w + 1)]
        # Accumulator row pipelines.
        self.lam: List[object] = [BUBBLE] * m    # rightward, with x piggybacked
        self.r: List[object] = [BUBBLE] * m      # leftward results
        self.s_tag: List[object] = [BUBBLE] * m  # leftward text-position tags
        self.t: List[bool] = [True] * m          # accumulator temporaries
        self.beat = 0

    def reset(self) -> None:
        self._init_state()
        self.checkerboard = []

    # -- feeding schedule -------------------------------------------------------

    def text_entry_beat(self) -> int:
        """MSB of the first text character enters row 0 on this beat."""
        return self.m + 1

    def beats_needed(self, n_text: int) -> int:
        e_s = self.text_entry_beat()
        return e_s + 2 * max(0, n_text - 1) + self.w + self.m + 2

    # -- one beat ---------------------------------------------------------------

    def _step_raw(
        self,
        p_row_in: List[object],
        s_row_in: List[object],
        lam_in: object,
        r_in: object,
        s_tag_in: object,
    ) -> Tuple[object, object]:
        """One beat given per-row horizontal inputs.

        ``p_row_in[j]`` / ``s_row_in[j]``: bit entering row ``j`` at the
        left / right end (or BUBBLE).  ``lam_in``: the control-bit pair
        (a :class:`PatternStreamItem`) entering the accumulator row at the
        left.  ``s_tag_in``: text-position tag entering at the right.
        """
        m, w = self.m, self.w

        # Phase 1: shift every horizontal pipeline one cell.
        s_tag_out = self.s_tag[0]
        r_out = self.r[0]
        for j in range(w):
            row = self.p_bits[j]
            for i in range(m - 1, 0, -1):
                row[i] = row[i - 1]
            row[0] = p_row_in[j]
            row = self.s_bits[j]
            for i in range(m - 1):
                row[i] = row[i + 1]
            row[-1] = s_row_in[j]
        for i in range(m - 1, 0, -1):
            self.lam[i] = self.lam[i - 1]
        self.lam[0] = lam_in
        for i in range(m - 1):
            self.r[i] = self.r[i + 1]
            self.s_tag[i] = self.s_tag[i + 1]
        self.r[-1] = r_in
        self.s_tag[-1] = s_tag_in

        # Phase 2: comparator rows fire where both bit operands are valid.
        new_pending: List[List[object]] = [[BUBBLE] * m for _ in range(w + 1)]
        active = (
            [[False] * m for _ in range(w)] if self.record_checkerboard else None
        )
        for j in range(w):
            for i in range(m):
                pb, sb = self.p_bits[j][i], self.s_bits[j][i]
                if is_bubble(pb) or is_bubble(sb):
                    continue
                if j == 0:
                    d_in = True
                else:
                    d_in = self.d_pending[j][i]
                    if is_bubble(d_in):
                        raise SimulationError(
                            f"row {j} cell {i}: operands valid but no partial "
                            f"result arrived from above (beat {self.beat})"
                        )
                new_pending[j + 1][i] = bool(d_in) and (pb == sb)
                if active is not None:
                    active[j][i] = True

        # Phase 3: accumulator row consumes the completed comparisons that
        # row w-1 produced last beat.
        for i in range(m):
            d = self.d_pending[w][i]
            ctrl = self.lam[i]
            if is_bubble(d):
                continue
            if is_bubble(ctrl):
                raise SimulationError(
                    f"accumulator {i}: comparison arrived without control bits "
                    f"(beat {self.beat})"
                )
            t_updated = self.t[i] and (ctrl.is_wild or bool(d))
            if ctrl.is_last:
                self.r[i] = t_updated
                self.t[i] = True
            else:
                self.t[i] = t_updated

        self.d_pending = new_pending
        if active is not None:
            self.checkerboard.append(CheckerboardSample(self.beat, active))
        self.beat += 1
        return s_tag_out, r_out

    # -- end-to-end run -----------------------------------------------------------

    def match(self, text: Sequence[str]) -> List[bool]:
        """One result bit per text character; equals the oracle for i >= k."""
        chars = self.alphabet.validate_text(text)
        self.reset()
        e_s = self.text_entry_beat()
        n_beats = self.beats_needed(len(chars))
        schedule = bit_feed_schedule(
            self.alphabet, self._items, chars, self.m, self.w, e_s, n_beats
        )
        results: Dict[int, object] = {}
        for beat in schedule:
            s_tag_out, r_out = self._step_raw(
                beat.p_row_in, beat.s_row_in, beat.lam_in, BUBBLE, beat.s_tag_in
            )
            if not is_bubble(s_tag_out) and not is_bubble(r_out):
                results[s_tag_out] = r_out

        k = len(self.pattern) - 1
        return [
            bool(results.get(i, False)) if i >= k else False
            for i in range(len(chars))
        ]

    # -- Figure 3-4 inspection ------------------------------------------------

    def checkerboard_ok(self) -> bool:
        """Do active comparators form the Figure 3-4 checkerboard?

        In steady state, cell (row j, column i) is active on beats of a
        single parity, and orthogonal neighbours are active on the
        opposite parity.
        """
        for sample in self.checkerboard:
            grid = sample.active
            for j in range(self.w):
                for i in range(self.m):
                    if not grid[j][i]:
                        continue
                    if i + 1 < self.m and grid[j][i + 1]:
                        return False
                    if j + 1 < self.w and grid[j + 1][i]:
                        return False
        return True
