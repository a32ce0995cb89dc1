"""The BIST controller: an FSM that self-tests a matcher array.

The controller drives the classic self-test loop over the switch-level
netlist of the compiled ``match`` chip
(:class:`~repro.compiler.netlist.CompiledNetlist`):

.. code-block:: text

    RESET -> LOAD_GOLDEN -> (SHIFT -> CAPTURE) x vectors -> COMPARE
          -> CHARACTERIZE -> PASS
                         \\-> DIAGNOSE -> FAIL

* **SHIFT** applies the next LFSR stimulus vector to the chip-edge pins
  (pattern rows, string rows, lam/x controls; the result pin is tied by
  the netlist itself).
* **CAPTURE** pulses the beat's clock phase, settles the array, and
  folds the edge-visible responses into the MISR.
* **COMPARE** checks the compacted signature against the golden
  signature computed once from a healthy netlist of the same geometry
  (cached per configuration -- the "signature table" a production part
  would hold in ROM).
* **DIAGNOSE** (failures only) replays the same stimulus on a golden
  twin and the failing chip in lockstep, watching every cell port, and
  reports the first beat of divergence and the cell that diverged
  hardest -- which cell/stage went wrong, not just that one did.
* **CHARACTERIZE** runs the :class:`~repro.bist.characterize.
  Characterizer` so parts that compute correctly but miss the 100 ns
  phase budget (slow-path defects) still fail their verdict.

Everything is deterministic: same geometry, same LFSR seed, same vector
count => same signatures, same diagnosis, on every run and every host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..compiler.flow import compile_workload
from ..compiler.netlist import CompiledNetlist, elaborate_circuit
from ..errors import CircuitError
from ..service.reliability import CellDefect
from ..signoff.timing import TimingParams
from ..timing.model import TimingModel
from .characterize import (
    CharacterizationReport,
    Characterizer,
    drive_pins,
    stimulus_pins,
)
from .defects import inject_defect
from .lfsr import LFSRPatternGenerator
from .signature import SignatureAnalyzer


class BISTState(Enum):
    RESET = "reset"
    LOAD_GOLDEN = "load-golden"
    SHIFT = "shift"
    CAPTURE = "capture"
    COMPARE = "compare"
    CHARACTERIZE = "characterize"
    DIAGNOSE = "diagnose"
    PASS = "pass"
    FAIL = "fail"


@dataclass(frozen=True)
class BISTDiagnosis:
    """Where the failing chip first left the golden trajectory.

    ``beat`` is the stimulus beat of first divergence (``-1`` for
    timing-only failures, which never diverge logically); ``cell`` the
    netlist cell name (``c{col}_{row}`` / ``a{col}``); ``node`` one
    representative diverging node; ``divergent`` every node that
    diverged on that beat.
    """

    beat: int
    cell: str
    col: int
    row: int
    node: str
    got: str
    want: str
    divergent: Tuple[str, ...] = ()

    def to_wire(self) -> Dict[str, object]:
        return {
            "beat": self.beat, "cell": self.cell, "col": self.col,
            "row": self.row, "node": self.node, "got": self.got,
            "want": self.want, "divergent": list(self.divergent),
        }


@dataclass(frozen=True)
class BISTReport:
    """One chip's self-test verdict."""

    chip: str
    m: int
    w: int
    vectors: int
    signature: int
    golden: int
    functional_ok: bool
    timing_ok: Optional[bool]
    diagnosis: Optional[BISTDiagnosis]
    characterization: Optional[CharacterizationReport]
    states: Tuple[str, ...] = field(default=(), repr=False)

    @property
    def ok(self) -> bool:
        """PASS iff the signature matches *and* the part makes the beat."""
        return self.functional_ok and self.timing_ok is not False

    def to_wire(self) -> Dict[str, object]:
        return {
            "ok": self.ok, "chip": self.chip, "m": self.m, "w": self.w,
            "vectors": self.vectors, "signature": self.signature,
            "golden": self.golden, "functional_ok": self.functional_ok,
            "timing_ok": self.timing_ok,
            "diagnosis": self.diagnosis.to_wire() if self.diagnosis else None,
            "characterization": (
                self.characterization.to_wire()
                if self.characterization else None
            ),
            "states": list(self.states),
        }


#: (m, w, vectors, lfsr seed, misr width, misr poly) -> golden signature.
#: Computing one takes a full stimulus run on a healthy netlist; caching
#: it is the software stand-in for the ROM signature table.
_GOLDEN_CACHE: Dict[Tuple[int, int, int, int, int, int], int] = {}


class BISTController:
    """Drives one simulated chip through gate-level self-test."""

    def __init__(
        self,
        m: int = 2,
        w: int = 2,
        vectors: int = 16,
        seed: int = 0b1011,
        misr_width: int = 32,
        characterize: bool = True,
        model: Optional[TimingModel] = None,
        params: Optional[TimingParams] = None,
        fault_universe: Optional[Tuple[CellDefect, ...]] = None,
    ):
        if m <= 0 or w <= 0:
            raise CircuitError("BIST array needs at least one column and row")
        if vectors <= 0:
            raise CircuitError("BIST needs at least one stimulus vector")
        self.m, self.w = m, w
        self.chip = compile_workload("match", m, char_bits=w)
        self.vectors = vectors
        self.seed = seed
        self.pins = stimulus_pins(w)
        self.stimulus_width = len(self.pins)
        self.analyzer = SignatureAnalyzer(misr_width=misr_width)
        self.characterize = characterize
        self.characterizer = Characterizer(model=model, params=params, seed=seed)
        # An optional fault dictionary (signature -> candidate faults):
        # when the expected defect universe is known, a failing
        # signature can be looked up for an *exact* per-cell diagnosis,
        # the way production testers diagnose from compacted responses.
        self.fault_universe = tuple(fault_universe or ())
        self._dict: Optional[Dict[int, Tuple[CellDefect, ...]]] = None

    # -- stimulus ------------------------------------------------------------

    def _stimulus_bits(self, beat: int,
                       lfsr: LFSRPatternGenerator) -> Tuple[int, ...]:
        """The stimulus vector for *beat* (the LFSR steps every beat).

        Three beats in four come straight off the LFSR.  Every fourth
        beat is a deterministic *all-equal* vector -- every pattern and
        string pin driven to the same level, alternating 1/0 -- which
        holds the comparators' equality outputs TRUE so the d-chain (an
        AND ladder, random-pattern resistant) propagates and its
        stuck-at/open faults become observable.  lam/x stay random.
        """
        bits = lfsr.bits()
        lfsr.step()
        if beat % 4 == 3:
            level = 1 if (beat // 4) % 2 == 0 else 0
            bits = (level,) * (2 * self.w) + bits[2 * self.w:]
        return bits

    def _netlist(self, defect: Optional[CellDefect] = None) -> CompiledNetlist:
        """A fresh netlist of the array, optionally carrying *defect*."""
        chip = self.chip
        net = elaborate_circuit(chip.design, chip.placement, chip.library)
        if defect is not None:
            inject_defect(net, defect)
        return net

    def _signature_of(self, net: CompiledNetlist,
                      states: Optional[List[str]] = None) -> Tuple[int, bool]:
        """(signature, settled) of a full stimulus run on *net*; the
        SHIFT/CAPTURE steps are logged to *states* when given.

        A DUT that cannot settle (oscillation) is as broken as one with
        a wrong signature: the half-relaxed sample is folded in and the
        part stops being clocked.  The partial signature is still
        deterministic and still distinguishes the fault for dictionary
        purposes.
        """
        if states is None:
            states = []
        misr = self.analyzer.new_misr()
        nodes = self.analyzer.response_nodes(net, self.chip.placement)
        lfsr = LFSRPatternGenerator(self.stimulus_width, seed=self.seed)
        for beat in range(self.vectors):
            states.append(BISTState.SHIFT.value)
            drive_pins(net, self.pins, self._stimulus_bits(beat, lfsr))
            states.append(BISTState.CAPTURE.value)
            try:
                net.pulse(beat)
            except CircuitError:
                self.analyzer.observe(misr, net, nodes)
                return misr.signature, False
            self.analyzer.observe(misr, net, nodes)
        return misr.signature, True

    def golden_signature(self) -> int:
        """The healthy-netlist signature for this configuration (cached)."""
        key = (
            self.m, self.w, self.vectors, self.seed,
            self.analyzer.misr_width, self.analyzer.poly,
        )
        sig = _GOLDEN_CACHE.get(key)
        if sig is None:
            sig, settled = self._signature_of(self._netlist())
            if not settled:  # pragma: no cover - healthy arrays settle
                raise CircuitError("healthy netlist did not settle")
            _GOLDEN_CACHE[key] = sig
        return sig

    def dictionary(self) -> Dict[int, Tuple[CellDefect, ...]]:
        """Signature -> candidate faults over ``fault_universe`` (lazy).

        Faults whose signature equals the golden signature are escapes;
        they appear under the golden key, which is how the coverage
        report finds them.
        """
        if self._dict is None:
            table: Dict[int, List[CellDefect]] = {}
            for d in self.fault_universe:
                sig, _ = self._signature_of(self._netlist(d))
                table.setdefault(sig, []).append(d)
            self._dict = {sig: tuple(ds) for sig, ds in table.items()}
        return self._dict

    # -- diagnosis -----------------------------------------------------------

    #: A cell's input ports belong electrically to the track its
    #: neighbour drives; divergence there is the *upstream* cell's
    #: fault, so these ports never count toward a cell's own blame.
    _INPUT_PORTS = frozenset(
        ("p_in", "s_in", "d_in", "lam_in", "x_in", "r_in0")
    )

    def _probe_list(self, net: CompiledNetlist):
        """(cell, col, row, node, own) per cell port, row-major order
        (accumulators last, as row -1)."""
        probes = []
        for j in range(self.w + 1):
            row = -1 if j == self.w else j
            for i, cell in enumerate(self.chip.placement.row(j)):
                ports = net.instance_ports[cell]
                for port, node in sorted(ports.items(), key=lambda kv: kv[1]):
                    own = port not in self._INPUT_PORTS
                    probes.append((cell, i, row, node, own))
        return probes

    def _diagnose(self, defect: Optional[CellDefect],
                  prefer_cell: str = "") -> BISTDiagnosis:
        """Lockstep golden-vs-DUT replay: first divergence, worst cell.

        ``prefer_cell`` (a fault-dictionary hit) short-circuits the
        blame heuristic when that cell shows own-node divergence; the
        replay still supplies the beat/node evidence.

        Attribution accumulates divergence counts over the whole replay
        rather than the first beat alone: a defect on a shared track
        (e.g. a bridge of an inter-cell wire) corrupts its neighbours
        once per latch, but corrupts its own cell every single beat, so
        the totals single out the source even when the first visible
        beat happens in a neighbour.
        """
        golden = self._netlist()
        dut = self._netlist(defect)
        probes = self._probe_list(golden)
        lfsr = LFSRPatternGenerator(self.stimulus_width, seed=self.seed)
        counts: Dict[str, int] = {}
        first: Dict[str, Tuple[int, int, int, str, str, str]] = {}
        first_beat = -1
        first_nodes: Tuple[str, ...] = ()
        settle_failed = False
        for beat in range(self.vectors):
            bits = self._stimulus_bits(beat, lfsr)
            drive_pins(golden, self.pins, bits)
            drive_pins(dut, self.pins, bits)
            golden.pulse(beat)
            try:
                dut.pulse(beat)
            except CircuitError:
                # The DUT oscillates (e.g. a misphased transfer closing
                # a same-phase loop).  The half-relaxed node values are
                # still the best witness of where it happened.
                settle_failed = True
            diverged = [
                (cell, col, row, node, own,
                 dut.circuit.read(node), golden.circuit.read(node))
                for cell, col, row, node, own in probes
                if dut.circuit.read(node) is not golden.circuit.read(node)
            ]
            for cell, col, row, node, own, got, want in diverged:
                if own:
                    counts[cell] = counts.get(cell, 0) + 1
                    if cell not in first:
                        first[cell] = (
                            beat, col, row, node, str(got), str(want)
                        )
            if diverged and first_beat < 0:
                first_beat = beat
                first_nodes = tuple(d[3] for d in diverged)
            if settle_failed:
                break
        if not counts:
            return BISTDiagnosis(
                beat=-1, cell="?", col=-1, row=-1, node="", got="", want="",
            )
        if prefer_cell and prefer_cell in first:
            cell = prefer_cell
        else:
            worst = max(counts.values())
            # Ties break toward the probe-list (row-major) order.
            cell = next(c for c, *rest in probes if counts.get(c) == worst)
        beat, col, row, node, got, want = first[cell]
        if settle_failed:
            got = got + " (did not settle)"
        return BISTDiagnosis(
            beat=first_beat, cell=cell, col=col, row=row, node=node,
            got=got, want=want, divergent=first_nodes,
        )

    # -- the FSM -------------------------------------------------------------

    def run(
        self,
        defect: Optional[CellDefect] = None,
        chip_name: str = "chip",
        obs=None,
    ) -> BISTReport:
        """Self-test one chip (optionally carrying *defect*)."""
        states: List[str] = [BISTState.RESET.value]
        dut = self._netlist(defect)
        states.append(BISTState.LOAD_GOLDEN.value)
        golden = self.golden_signature()
        signature, settled = self._signature_of(dut, states)
        states.append(BISTState.COMPARE.value)
        functional_ok = settled and signature == golden

        characterization = None
        timing_ok: Optional[bool] = None
        if self.characterize and settled:
            states.append(BISTState.CHARACTERIZE.value)
            characterization = self.characterizer.characterize(
                dut, self.chip.placement, chip_name=chip_name
            )
            timing_ok = characterization.ok

        diagnosis = None
        ok = functional_ok and timing_ok is not False
        if not ok:
            states.append(BISTState.DIAGNOSE.value)
            if not functional_ok:
                prefer = ""
                if self.fault_universe:
                    cands = self.dictionary().get(signature, ())
                    cells = {d.cell for d in cands}
                    if len(cells) == 1:
                        prefer = next(iter(cells))
                diagnosis = self._diagnose(defect, prefer_cell=prefer)
            else:
                # Timing-only escape: blame the cell the worst path
                # threads through (the defect chain is cell-prefixed).
                cell = characterization.worst_cell()
                col, row = self.chip.placement.loc.get(cell, (-1, -1))
                if row == self.w:
                    row = -1  # the accumulator row
                diagnosis = BISTDiagnosis(
                    beat=-1, cell=cell or "?", col=col, row=row,
                    node=characterization.worst_path[-1]
                    if characterization.worst_path else "",
                    got=f"{characterization.worst_delay_ns:.1f}ns",
                    want=f"<={characterization.phase_budget_ns:.1f}ns",
                )
        states.append((BISTState.PASS if ok else BISTState.FAIL).value)

        report = BISTReport(
            chip=chip_name, m=self.m, w=self.w, vectors=self.vectors,
            signature=signature, golden=golden,
            functional_ok=functional_ok, timing_ok=timing_ok,
            diagnosis=diagnosis, characterization=characterization,
            states=tuple(states),
        )
        if obs is not None:
            obs.tracer.record(
                "bist.run", t0=0.0, t1=float(self.vectors), unit="beats",
                chip=chip_name, ok=report.ok,
                functional_ok=functional_ok,
                timing_ok="n/a" if timing_ok is None else timing_ok,
                cell=diagnosis.cell if diagnosis else "",
                defect=defect.describe() if defect else "",
            )
            obs.registry.counter(
                "bist.runs", verdict="pass" if report.ok else "fail"
            ).inc()
        return report
