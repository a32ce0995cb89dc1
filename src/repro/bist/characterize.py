"""Chip characterization: does this part make the paper's beat?

Functional BIST answers "does the array compute the right values"; the
:class:`Characterizer` answers the second production question, "does it
compute them *in time*".  Two measurements per chip:

* **settle latency** -- the array is clocked through a short LFSR-driven
  warm-up and the relaxation passes of every settle are recorded; a
  healthy two-phase design settles in a small, flat number of passes.
* **Elmore phase budget** -- :func:`repro.signoff.timing.worst_paths`
  walks the conducting chains each phase turns on and checks the worst
  RC delay against the 100 ns phase budget (half the 250 ns beat minus
  the 25 ns non-overlap).  A slow-path defect (an unbuffered 50-stage
  chain) passes functional BIST -- the simulator settles logically --
  but fails here, exactly like real silicon that works at 1 MHz and not
  at the rated clock.

When the budget is missed, ``recommended_beat_ns`` reports the slowest
beat the part *could* run: the binning answer instead of the scrapping
answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..circuit.signals import HIGH, LOW
from ..compiler.netlist import CompiledNetlist
from ..compiler.place import Placement
from ..errors import CircuitError
from ..signoff.timing import PathDelay, TimingParams, worst_paths
from ..timing.model import TimingModel
from .lfsr import LFSRPatternGenerator

#: Cell-prefixed node names: c{col}_{row}.x or a{col}.x
_CELL_NODE = re.compile(r"^(c\d+_\d+|a\d+)\.")


def stimulus_pins(w: int) -> Tuple[str, ...]:
    """The tester-driven pins of a ``w``-row match chip, in LFSR bit
    order: pattern rows, string rows, then ``lam`` and ``x`` (the
    netlist ties ``R_IN0`` itself)."""
    return (
        tuple(f"P_IN{j}" for j in range(w))
        + tuple(f"S_IN{j}" for j in range(w))
        + ("LAM_IN", "X_IN")
    )


def drive_pins(net: CompiledNetlist, pins: Tuple[str, ...],
               bits: Tuple[int, ...]) -> None:
    """Apply one stimulus vector to *pins* at the raw electrical level
    (no twin-polarity correction: the stimulus is random anyway)."""
    for pin, bit in zip(pins, bits):
        net.circuit.set_input(net.pins[pin], HIGH if bit else LOW)


@dataclass(frozen=True)
class CharacterizationReport:
    """One chip's measured timing envelope."""

    chip: str
    m: int
    w: int
    n_transistors: int
    beats: int
    settle_passes: Tuple[int, ...]
    phase_budget_ns: float
    worst_delay_ns: float
    worst_phase: str
    worst_path: Tuple[str, ...]
    meets_budget: bool
    recommended_beat_ns: float
    settled: bool = True
    paths: Tuple[PathDelay, ...] = field(default=(), repr=False)

    @property
    def ok(self) -> bool:
        return self.meets_budget and self.settled

    @property
    def max_settle_passes(self) -> int:
        return max(self.settle_passes) if self.settle_passes else 0

    def worst_cell(self) -> str:
        """The cell the worst path spends most of its nodes in (or "")."""
        counts: Dict[str, int] = {}
        for node in self.worst_path:
            hit = _CELL_NODE.match(node)
            if hit:
                counts[hit.group(1)] = counts.get(hit.group(1), 0) + 1
        if not counts:
            return ""
        return max(sorted(counts), key=lambda cell: counts[cell])


class Characterizer:
    """Measures a matcher array's real beat budget and settle latency.

    Parameters
    ----------
    model / params:
        The paper's beat (250 ns default) and the Elmore constants.
    beats:
        Warm-up clock beats for the settle-latency measurement.
    seed:
        LFSR seed for the warm-up stimulus.
    max_depth:
        Path-walk bound.  The budget is blown by depth ~24 under the
        default constants (0.35 ns x chain position, summed), so the
        default, 28, is deep enough to convict any over-budget chain
        while keeping the walk cheap.
    """

    def __init__(
        self,
        model: Optional[TimingModel] = None,
        params: Optional[TimingParams] = None,
        beats: int = 6,
        seed: int = 0b1011,
        max_depth: int = 28,
    ):
        self.model = model or TimingModel()
        self.params = params or TimingParams()
        self.beats = beats
        self.seed = seed
        self.max_depth = max_depth

    def measure_settle(
        self, net: CompiledNetlist, placement: Placement
    ) -> Tuple[Tuple[int, ...], bool]:
        """Clock the array under LFSR stimulus; passes per settle call.

        Returns ``(passes, settled)``: a part that oscillates under
        warm-up stimulus (``settled=False``) stops being clocked and
        fails characterization outright.
        """
        pins = stimulus_pins(placement.w_rows)
        lfsr = LFSRPatternGenerator(len(pins), seed=self.seed)
        passes: List[int] = []
        for beat in range(self.beats):
            drive_pins(net, pins, lfsr.bits())
            lfsr.step()
            try:
                net.pulse(beat)
            except CircuitError:
                return tuple(passes + net.clock.passes), False
            passes += net.clock.passes
        return tuple(passes), True

    def characterize(self, net: CompiledNetlist, placement: Placement,
                     chip_name: str = "chip") -> CharacterizationReport:
        """Run both measurements on (a possibly defective) *net*, laid
        out as *placement*."""
        settle_passes, settled = self.measure_settle(net, placement)
        inputs = stimulus_pins(placement.w_rows) + ("R_IN0",)
        paths = worst_paths(
            net.circuit, net.phi, ports=[net.pins[p] for p in inputs],
            model=self.model, params=self.params, max_depth=self.max_depth,
        )
        worst = max(paths, key=lambda p: p.delay_ns)
        budget = self.params.budget_ns(self.model)
        meets = all(p.ok for p in paths)
        if meets:
            recommended = self.model.beat_ns
        else:
            recommended = 2 * (worst.delay_ns + self.params.nonoverlap_ns)
        return CharacterizationReport(
            chip=chip_name, m=placement.columns, w=placement.w_rows,
            n_transistors=net.n_transistors,
            beats=self.beats, settle_passes=settle_passes,
            phase_budget_ns=budget, worst_delay_ns=worst.delay_ns,
            worst_phase=worst.phase, worst_path=tuple(worst.path),
            meets_budget=meets, recommended_beat_ns=recommended,
            settled=settled, paths=tuple(paths),
        )
