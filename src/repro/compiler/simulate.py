"""Simulate compiled designs: one feed plan, two execution engines.

A :class:`FeedPlan` captures the host's feeding discipline for one run
-- what to drive on every chip input pin each beat, and at which beats
results exit -- shared verbatim by

* the **structural** engine (:func:`run_structural`), which fires the
  library behaviors of the placed IR on the Figure 3-4 checkerboard
  schedule (cell (i, j) active on beats of parity ``(i + j) % 2``), and
* the **switch-level** engine (:func:`run_switch_level`), which drives
  the generated transistor netlist pin by pin and clock phase by clock
  phase.

Both return the same result mapping, so a compiled design can be checked
behavior-against-silicon with a single comparison -- and both are in
turn compared against the workload registry's ``batched`` and ``oracle``
engines by :mod:`repro.compiler.verify`.

For the matching kernels the plan is
:func:`repro.core.bit_level.bit_feed_schedule` -- the same staggered-bit
discipline the prototype uses, with pattern bit *j* of character *c*
entering row *j* at beat ``2c + j`` and results exiting at
``e_s + 2q + w + m``.  The numeric kernel carries whole values on its
buses, so its plan is the character-level schedule: tap *c* (with its
``lambda`` bit) enters at beat ``2c``, stream sample *q* at
``e_s + 2q``, and the window ending at *q* exits at ``e_s + 2q + m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..alphabet import Alphabet, PatternChar, parse_pattern
from ..chip.chip import ChipSpec
from ..circuit.signals import HIGH, UNKNOWN
from ..core.bit_level import bit_feed_schedule
from ..errors import CompileError, PatternError
from ..streams import RecirculatingPattern
from ..systolic.cell import is_bubble
from .ir import CONST_ONE, LogicalDesign
from .library import Library
from .netlist import CompiledNetlist
from .place import Placement

__all__ = [
    "FeedPlan",
    "feed_plan",
    "run_structural",
    "run_switch_level",
    "mask_results",
]


@dataclass
class FeedPlan:
    """Host-side stimulus for one run of a compiled chip.

    ``drive[b]`` maps every data input pin to its logical bit for beat
    *b*; ``exit_beat`` maps a beat number to the stream position whose
    result is sampled *after the previous beat's pulse*; ``k`` is the
    first stream position with a complete window.
    """

    n_beats: int
    drive: List[Dict[str, int]]
    exit_beat: Dict[int, int]
    n_stream: int
    k: int


def feed_plan(
    spec: ChipSpec,
    params,
    stream: Sequence,
    alphabet: Optional[Alphabet] = None,
) -> FeedPlan:
    """Build the feed plan for one (parameters, stream) run."""
    if spec.kernel in ("match", "count"):
        return _feed_plan_bits(spec, params, stream, alphabet)
    return _feed_plan_values(spec, params, stream)


def _feed_plan_bits(spec, params, stream, alphabet) -> FeedPlan:
    if alphabet is None:
        raise CompileError(f"kernel {spec.kernel!r} needs an alphabet")
    if alphabet.bits != spec.char_bits:
        raise CompileError(
            f"alphabet encodes {alphabet.bits}-bit characters; the chip "
            f"has {spec.char_bits} comparator rows"
        )
    if params and all(isinstance(pc, PatternChar) for pc in params):
        pattern = list(params)
    else:
        pattern = parse_pattern(params, alphabet)
    if len(pattern) > spec.cells:
        raise PatternError("pattern does not fit in the array")
    chars = alphabet.validate_text(stream)
    m, w = spec.cells, spec.char_bits
    items = RecirculatingPattern(pattern).items
    e_s = m + 1
    n_beats = e_s + 2 * max(0, len(chars) - 1) + w + m + 2
    schedule = bit_feed_schedule(alphabet, items, chars, m, w, e_s, n_beats)
    drive: List[Dict[str, int]] = []
    for beat in schedule:
        pins: Dict[str, int] = {}
        for j in range(w):
            pb, sb = beat.p_row_in[j], beat.s_row_in[j]
            pins[f"P_IN{j}"] = 0 if is_bubble(pb) else int(pb)
            pins[f"S_IN{j}"] = 0 if is_bubble(sb) else int(sb)
        lam = beat.lam_in
        pins["LAM_IN"] = 0 if is_bubble(lam) else int(lam.is_last)
        pins["X_IN"] = 0 if is_bubble(lam) else int(lam.is_wild)
        drive.append(pins)
    exit_beat = {e_s + 2 * q + w + m: q for q in range(len(chars))}
    return FeedPlan(n_beats, drive, exit_beat, len(chars), len(pattern) - 1)


def _feed_plan_values(spec, params, stream) -> FeedPlan:
    B, m = spec.data_bits, spec.cells
    taps = [int(v) for v in params]
    if not taps:
        raise PatternError("inner product needs at least one tap")
    if len(taps) > m:
        raise PatternError("tap vector does not fit in the array")
    samples = [int(v) for v in stream]
    top = 1 << B
    for v in taps + samples:
        if not 0 <= v < top:
            raise CompileError(
                f"value {v} does not fit the chip's {B}-bit data bus"
            )
    L = len(taps)
    e_s = m + 1
    n_beats = e_s + 2 * max(0, len(samples) - 1) + m + 2
    drive: List[Dict[str, int]] = []
    for b in range(n_beats):
        pins = {f"P_IN{k}": 0 for k in range(B)}
        pins.update({f"S_IN{k}": 0 for k in range(B)})
        pins["LAM_IN"] = 0
        if b % 2 == 0:
            c = (b // 2) % L
            for k in range(B):
                pins[f"P_IN{k}"] = (taps[c] >> k) & 1
            pins["LAM_IN"] = int(c == L - 1)
        if b >= e_s and (b - e_s) % 2 == 0:
            q = (b - e_s) // 2
            if q < len(samples):
                for k in range(B):
                    pins[f"S_IN{k}"] = (samples[q] >> k) & 1
        drive.append(pins)
    exit_beat = {e_s + 2 * q + m: q for q in range(len(samples))}
    return FeedPlan(n_beats, drive, exit_beat, len(samples), L - 1)


# -- structural engine --------------------------------------------------------

def run_structural(
    design: LogicalDesign,
    placement: Placement,
    library: Library,
    plan: FeedPlan,
    result_bits: int,
) -> Dict[int, int]:
    """Fire the placed IR's cell behaviors on the checkerboard schedule.

    Nets start at 0 (power-up garbage is irrelevant: every sampled
    window is preceded by a ``lambda`` clear, exactly as in silicon).
    Returns stream position -> raw result value.
    """
    types = library.cell_types()
    behaviors = {
        inst: types[cell["type"]].behavior()
        for inst, cell in design.cells.items()
    }
    conns = {inst: cell["connections"] for inst, cell in design.cells.items()}
    inputs_of = {
        inst: types[cell["type"]].inputs for inst, cell in design.cells.items()
    }
    by_parity: Dict[int, List[str]] = {0: [], 1: []}
    for inst in design.cells:
        by_parity[placement.phase_index(inst)].append(inst)

    nets: Dict[str, int] = {CONST_ONE: 1}
    results: Dict[int, int] = {}
    for b in range(plan.n_beats):
        nets.update(plan.drive[b])
        nets[CONST_ONE] = 1
        active = by_parity[b % 2]
        staged = [
            (inst, behaviors[inst].fire(
                {p: nets.get(conns[inst][p], 0) for p in inputs_of[inst]}
            ))
            for inst in active
        ]
        for inst, outs in staged:
            for port, v in outs.items():
                nets[conns[inst][port]] = v
        q = plan.exit_beat.get(b + 1)
        if q is not None:
            results[q] = sum(
                nets.get(f"R_OUT{i}", 0) << i for i in range(result_bits)
            )
    return results


# -- switch-level engine ------------------------------------------------------

def run_switch_level(net: CompiledNetlist, plan: FeedPlan) -> Dict[int, int]:
    """Drive the generated transistor netlist through the plan.

    Returns stream position -> raw result value; positions whose sampled
    nodes were still UNKNOWN (power-up garbage before the first lambda
    clear reaches them) are omitted, as in the prototype harness.
    """
    out_inv = net.out_invert.get("R_OUT0", False)
    results: Dict[int, int] = {}
    for b in range(plan.n_beats):
        for pin, bit in plan.drive[b].items():
            net.drive_pin(pin, bit)
        net.pulse(b)
        q = plan.exit_beat.get(b + 1)
        if q is None:
            continue
        value, valid = 0, True
        for i, node in enumerate(net.result_nodes):
            v = net.circuit.read(node)
            if v is UNKNOWN:
                valid = False
                break
            value |= int((v is HIGH) ^ out_inv) << i
        if valid:
            results[q] = value
    return results


def mask_results(
    results: Dict[int, int], plan: FeedPlan, incomplete
) -> List:
    """Window-mask raw results into the workload output convention:
    one value per stream position, ``incomplete`` before the first full
    window (and for positions the engine never sampled)."""
    return [
        results.get(i, incomplete) if i >= plan.k else incomplete
        for i in range(plan.n_stream)
    ]
