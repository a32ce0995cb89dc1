"""The Figure 4-1 graph, executed: algorithm spec to fabricatable CIF.

Each task produces a real artifact with the library's own machinery:

========================  =====================================================
task                      artifact
========================  =====================================================
algorithm                 verified behavioural matcher (vs the oracle)
cell_combinations         the column/row placement map with polarity parities
dataflow_control          two-phase clock plan + dynamic shift register demo
cell_logic_circuits       the four switch-level cell netlists
cell_timing_signals       the master/slave discipline for ``t`` (checked)
communication_sticks      channel/track plan for the array wiring
cell_sticks               generated stick diagrams for all four cells
cell_layouts              DRC-clean lambda-rule layouts
cell_boundary_layouts     compiled ``match`` chip floorplan + CIF text
========================  =====================================================

Running the flow end to end *is* the paper's methodology demonstration:
every step consumes only artifacts of its graph predecessors.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..alphabet import Alphabet
from ..errors import MethodologyError
from .graph import TaskGraph
from .tasks import figure_4_1_graph


class DesignFlow:
    """Executes the Figure 4-1 flow for an m-column, w-bit-row chip."""

    def __init__(self, columns: int = 8, char_bits: int = 2, signoff: bool = False):
        self.columns = columns
        self.char_bits = char_bits
        self._compiled = None
        self.graph: TaskGraph = figure_4_1_graph()
        self.artifacts: Dict[str, object] = {}
        self._runners: Dict[str, Callable[[], object]] = {
            "algorithm": self._run_algorithm,
            "cell_combinations": self._run_cell_combinations,
            "dataflow_control": self._run_dataflow_control,
            "cell_logic_circuits": self._run_cell_logic_circuits,
            "cell_timing_signals": self._run_cell_timing_signals,
            "communication_sticks": self._run_communication_sticks,
            "cell_sticks": self._run_cell_sticks,
            "cell_layouts": self._run_cell_layouts,
            "cell_boundary_layouts": self._run_cell_boundary_layouts,
        }
        if signoff:
            self._register_signoff_tasks()

    def _register_signoff_tasks(self) -> None:
        """Graft the verification pipeline onto the Figure 4-1 graph.

        DRC, extraction, LVS, and ERC are *blocking* gates -- the chip is
        wrong if they fail.  Timing closure is *advisory*: a missed
        estimate informs the next iteration rather than invalidating the
        masks."""
        for name, deps, blocking in (
            ("signoff_drc", ("cell_layouts",), True),
            ("signoff_extraction", ("cell_layouts",), True),
            ("signoff_lvs", ("signoff_extraction", "cell_logic_circuits"), True),
            ("signoff_erc", ("signoff_extraction",), True),
            ("signoff_timing", ("signoff_extraction",), False),
        ):
            self.graph.add_task(name, deps, effort=0.25, blocking=blocking)
        self.graph.validate()
        self._runners.update(
            {
                "signoff_drc": self._run_signoff_drc,
                "signoff_extraction": self._run_signoff_extraction,
                "signoff_lvs": self._run_signoff_lvs,
                "signoff_erc": self._run_signoff_erc,
                "signoff_timing": self._run_signoff_timing,
            }
        )

    def run(self) -> Dict[str, object]:
        """Execute every task in dependency order; returns all artifacts.

        A failing *blocking* task raises; a failing *advisory* task is
        recorded as an ``{"advisory_failure": ...}`` artifact and the flow
        continues."""
        from ..errors import ReproError

        for task in self.graph.topological_order():
            missing = [
                d for d in self.graph.dependencies(task) if d not in self.artifacts
            ]
            if missing:
                raise MethodologyError(
                    f"task {task!r} scheduled before its inputs {missing}"
                )
            try:
                self.artifacts[task] = self._runners[task]()
            except ReproError as exc:
                if self.graph.is_blocking(task):
                    raise
                self.artifacts[task] = {"advisory_failure": str(exc)}
        return dict(self.artifacts)

    # -- task implementations ---------------------------------------------------

    def _run_algorithm(self) -> object:
        from ..alphabet import Alphabet
        from ..core.matcher import PatternMatcher
        from ..core.reference import match_oracle

        symbols = "ABCD"[: 2 ** self.char_bits]
        alphabet = Alphabet(symbols, bits=self.char_bits)
        pattern = ("A" + "X" + symbols[-1])[: min(3, self.columns)]
        matcher = PatternMatcher(pattern, alphabet, n_cells=self.columns)
        text = (symbols * 4)[:11]
        ok = matcher.match(text) == match_oracle(matcher.pattern, list(text))
        if not ok:
            raise MethodologyError("algorithm artifact failed oracle check")
        return {"matcher": matcher, "alphabet": alphabet, "verified": ok}

    def _run_cell_combinations(self) -> object:
        placement = {
            (i, j): {
                "kind": "comparator" if j < self.char_bits else "accumulator",
                "positive": (i + j) % 2 == 0,
                "phase": (i + j) % 2,
            }
            for i in range(self.columns)
            for j in range(self.char_bits + 1)
        }
        return {"placement": placement, "pairing": "none (cells too small to share)"}

    def _run_dataflow_control(self) -> object:
        from ..circuit.shift_register import DynamicShiftRegister

        sr = DynamicShiftRegister(4, "flow_demo")
        outs = sr.shift_sequence([True, False, True])
        return {
            "style": "clocked (two-phase, doubles as data-flow control)",
            "register_demo": [str(v) for v in outs],
            "control_signals": sr.control_signals,
        }

    def _run_cell_logic_circuits(self) -> object:
        from ..circuit.cells.accumulator import build_accumulator
        from ..circuit.cells.comparator import build_comparator
        from ..circuit.netlist import Circuit

        circuits = {}
        for kind, builder in (
            ("comparator", lambda c, pos: build_comparator(c, "u.", "clk", pos)),
            ("accumulator", lambda c, pos: build_accumulator(c, "u.", "clkA", "clkB", pos)),
        ):
            for pos in (True, False):
                c = Circuit(f"{kind}_{'pos' if pos else 'neg'}")
                ports = builder(c, pos)
                circuits[(kind, pos)] = (c, ports)
        return circuits

    def _run_cell_timing_signals(self) -> object:
        return {
            "sequencing": "r_out <- t then t <- TRUE",
            "mechanism": "t master written on the cell's phase; slave "
                         "refreshed on the opposite phase; r mux latched "
                         "through a clocked pass before the output inverter",
            "extra_control_wires": 0,
        }

    def _run_communication_sticks(self) -> object:
        rows = [f"p{j}/s{j} bit channels" for j in range(self.char_bits)]
        rows.append("lambda/x rightward + r leftward (accumulator row)")
        return {
            "horizontal_channels": rows,
            "vertical_channels": ["d (comparison results, downward)", "clock spine"],
            "power": "VDD top rail / GND bottom rail per cell row, metal",
        }

    def _run_cell_sticks(self) -> object:
        from ..layout.cells import accumulator_layout, comparator_layout

        return {
            ("comparator", pos): comparator_layout(pos)[0] for pos in (True, False)
        } | {
            ("accumulator", pos): accumulator_layout(pos)[0] for pos in (True, False)
        }

    def _run_cell_layouts(self) -> object:
        from ..layout.cells import accumulator_layout, check_cell, comparator_layout

        layouts = {
            ("comparator", pos): comparator_layout(pos)[1] for pos in (True, False)
        } | {
            ("accumulator", pos): accumulator_layout(pos)[1] for pos in (True, False)
        }
        for key, layout in layouts.items():
            violations = check_cell(layout)
            if violations:
                raise MethodologyError(
                    f"cell layout {key} has {len(violations)} DRC violations"
                )
        return layouts

    def _chip(self):
        """The ``match`` chip this flow draws, compiled once on first use
        and shared by the boundary layouts and the signoff gates."""
        if self._compiled is None:
            from ..compiler.flow import compile_workload

            self._compiled = compile_workload(
                "match", self.columns, char_bits=self.char_bits
            )
        return self._compiled

    def _run_cell_boundary_layouts(self) -> object:
        asm = self._chip().assembler
        return {
            "floorplan": asm.floorplan(),
            "cif": asm.to_cif(),
            "area": asm.area_report(),
        }

    # -- signoff gates (registered only with signoff=True) ----------------------

    def _signoff_state(self):
        """Lazily built, shared across the signoff runners: the pipeline
        driver, the compiled chip's four cell bundles, and their
        extractions."""
        if not hasattr(self, "_signoff_driver"):
            from ..signoff.pipeline import Signoff

            self._signoff_driver = Signoff()
            self._signoff_ex = {}
        return self._signoff_driver, list(self._chip().bundles.values())

    @staticmethod
    def _stage_artifact(stages) -> Dict[str, object]:
        from ..errors import SignoffError

        findings = [f for s in stages for f in s.findings]
        errors = [f for f in findings if f.severity == "error"]
        if errors:
            raise SignoffError(
                f"{stages[0].stage}: {len(errors)} error(s); first: "
                f"{errors[0].detail}"
            )
        return {
            "stage": stages[0].stage,
            "findings": [f.to_dict() for f in findings],
            "ok": True,
        }

    def _run_signoff_drc(self) -> object:
        driver, bundles = self._signoff_state()
        return self._stage_artifact([driver.drc_stage(b) for b in bundles])

    def _run_signoff_extraction(self) -> object:
        driver, bundles = self._signoff_state()
        stages = []
        for b in bundles:
            stage, ex = driver.extraction_stage(b)
            self._signoff_ex[b.name] = ex
            stages.append(stage)
        return self._stage_artifact(stages)

    def _run_signoff_lvs(self) -> object:
        driver, bundles = self._signoff_state()
        return self._stage_artifact(
            [driver.lvs_stage(b, self._signoff_ex[b.name]) for b in bundles]
        )

    def _run_signoff_erc(self) -> object:
        driver, bundles = self._signoff_state()
        stages = []
        for b in bundles:
            ex = self._signoff_ex[b.name]
            clocks = [ex.net_of_port.get(c, c) for c in b.clocks]
            ports = sorted(set(ex.net_of_port.values()))
            stages.append(
                driver.erc_stage(ex.circuit, clocks, ports, ex.device_geom,
                                 where=b.name)
            )
        return self._stage_artifact(stages)

    def _run_signoff_timing(self) -> object:
        driver, bundles = self._signoff_state()
        stages = []
        for b in bundles:
            ex = self._signoff_ex[b.name]
            clocks = [ex.net_of_port.get(c, c) for c in b.clocks]
            ports = sorted(set(ex.net_of_port.values()))
            stages.append(
                driver.timing_stage(ex.circuit, clocks, ports, ex.device_geom)
            )
        return self._stage_artifact(stages)
