"""The signoff driver: DRC + extraction + LVS + ERC + timing, one report.

``Signoff.run_cell`` verifies one cell bundle end to end: the layout is
design-rule checked, extracted back to a netlist, proven equivalent to
the drawn circuit (LVS), then the *extracted* circuit -- geometry and
all -- is linted (ERC) and timed.  ``Signoff.run_design`` does the same
for every cell twin of a compiled chip (the Plate 2 prototype is the
``match`` chip at 8 x 2) and adds the assembly-level audits: floorplan
consistency, a device census of the emitted CIF (per emitted symbol,
weighted by calls, seams joined), supply-rail isolation, and ERC +
timing over the whole-chip netlist.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..layout.cells import CellBundle, cell_bundle
from ..layout.cif import parse_cif
from ..layout.design_rules import DesignRuleChecker
from ..layout.geometry import Point, Rect, RectIndex
from ..layout.layers import Layer
from ..timing.model import TimingModel
from .erc import ERCContext, run_erc
from .extract import ConductorNets, Extraction, extract_cell
from .hierarchy import HierarchicalNets
from .lvs import compare
from .report import SignoffReport, StageReport
from .timing import TimingParams, timing_findings


class Signoff:
    """Configured pipeline: run cells, netlists, or the whole chip."""

    def __init__(
        self,
        timing_model: Optional[TimingModel] = None,
        timing_params: TimingParams = TimingParams(),
        required_ratio: float = 4.0,
    ):
        self.timing_model = timing_model or TimingModel()
        self.timing_params = timing_params
        self.required_ratio = required_ratio
        self.drc = DesignRuleChecker()

    # -- stage helpers (each returns a StageReport) ------------------------

    def drc_stage(self, bundle: CellBundle) -> StageReport:
        stage = StageReport("drc")
        for v in self.drc.check(bundle.layout.rects):
            stage.add(v.rule, "error", v.detail, where=bundle.name)
        return stage

    def extraction_stage(
        self, bundle: CellBundle
    ) -> Tuple[StageReport, Extraction]:
        stage = StageReport("extraction")
        ex = extract_cell(bundle.layout)
        for w in ex.warnings:
            stage.add("extract", "warning", w, where=bundle.name)
        stage.add(
            "census",
            "info",
            f"{ex.n_devices} devices ({ex.n_loads} depletion loads), "
            f"{ex.n_nets} nets",
            where=bundle.name,
        )
        return stage, ex

    def lvs_stage(self, bundle: CellBundle, ex: Extraction) -> StageReport:
        stage = StageReport("lvs")
        anchors = {
            drawn_node: ex.net_of_port[ext]
            for ext, drawn_node in bundle.ports.items()
            if ext in ex.net_of_port
        }
        result = compare(bundle.circuit, ex.circuit, anchors)
        for diff in result.diffs:
            stage.add("mismatch", "error", diff, where=bundle.name)
        if result.ok:
            stage.add(
                "match",
                "info",
                f"{result.left_devices} drawn devices == "
                f"{result.right_devices} extracted, "
                f"{len(result.net_map)} nets mapped",
                where=bundle.name,
            )
        return stage

    def erc_stage(
        self,
        circuit: Circuit,
        clocks: Sequence[str],
        ports: Sequence[str],
        device_geom: Optional[Dict] = None,
        where: str = "",
    ) -> StageReport:
        stage = StageReport("erc")
        ctx = ERCContext(
            circuit,
            clocks=tuple(clocks),
            ports=frozenset(ports),
            device_geom=dict(device_geom or {}),
            required_ratio=self.required_ratio,
        )
        for f in run_erc(ctx):
            stage.findings.append(
                f if not where or f.where else
                type(f)(f.stage, f.rule, f.severity, f.detail, where)
            )
        return stage

    def timing_stage(
        self,
        circuit: Circuit,
        clocks: Sequence[str],
        ports: Sequence[str],
        device_geom: Optional[Dict] = None,
    ) -> StageReport:
        stage = StageReport("timing")
        stage.extend(
            timing_findings(
                circuit,
                clocks,
                ports=ports,
                device_geom=device_geom,
                model=self.timing_model,
                params=self.timing_params,
            )
        )
        return stage

    # -- drivers -----------------------------------------------------------

    def run_cell(
        self,
        kind: str = "comparator",
        positive: bool = True,
        bundle: Optional[CellBundle] = None,
    ) -> SignoffReport:
        """Full pipeline on one cell (or a supplied, possibly mutated,
        bundle)."""
        b = bundle or cell_bundle(kind, positive)
        report = SignoffReport(b.name)
        report.stages.append(self.drc_stage(b))
        ex_stage, ex = self.extraction_stage(b)
        report.stages.append(ex_stage)
        report.stages.append(self.lvs_stage(b, ex))
        clocks = [ex.net_of_port.get(c, c) for c in b.clocks]
        ports = sorted(set(ex.net_of_port.values()))
        report.stages.append(
            self.erc_stage(ex.circuit, clocks, ports, ex.device_geom)
        )
        report.stages.append(
            self.timing_stage(ex.circuit, clocks, ports, ex.device_geom)
        )
        return report

    def run_netlist(
        self,
        circuit: Circuit,
        clocks: Sequence[str],
        ports: Sequence[str],
        name: str = "netlist",
    ) -> SignoffReport:
        """ERC + timing on a drawn netlist (no geometry stages)."""
        report = SignoffReport(name)
        report.stages.append(self.erc_stage(circuit, clocks, ports))
        report.stages.append(self.timing_stage(circuit, clocks, ports))
        return report

    def run_design(self, compiled) -> SignoffReport:
        """Full signoff of a compiler-generated design.

        DRC / extraction / LVS for every generated cell twin, ERC +
        timing on the generated whole-chip transistor netlist, and the
        assembly audits on the generated floorplan and CIF.
        ``compiled`` is a :class:`~repro.compiler.flow.CompiledChip`.
        """
        report = SignoffReport(compiled.spec.name)
        drc = StageReport("drc")
        extraction = StageReport("extraction")
        lvs = StageReport("lvs")
        extracted = []
        for name in sorted(compiled.bundles):
            b = compiled.bundles[name]
            drc.extend(self.drc_stage(b).findings)
            ex_stage, ex = self.extraction_stage(b)
            extraction.extend(ex_stage.findings)
            lvs.extend(self.lvs_stage(b, ex).findings)
            extracted.append((b.layout.rects, ex.nets))
        report.stages.append(drc)
        report.stages.append(extraction)
        report.stages.append(lvs)

        net = compiled.netlist
        ports = sorted(net.pins.values())
        report.stages.append(self.erc_stage(net.circuit, net.phi, ports))
        report.stages.append(self.timing_stage(net.circuit, net.phi, ports))
        report.stages.append(
            self.assembly_stage_for(compiled.assembler, extracted)
        )
        return report

    # -- assembly audits ---------------------------------------------------

    def assembly_stage_for(
        self,
        asm,
        extracted: Sequence[Tuple[Dict[Layer, list], ConductorNets]] = (),
    ) -> StageReport:
        """Assembly audits of any
        :class:`~repro.layout.assembly.ArrayAssembler`.

        *extracted* pairs cell geometry with the :class:`ConductorNets`
        the extraction stage built over it; an emitted CIF symbol whose
        geometry compares equal reuses it rather than extracting again.
        """
        stage = StageReport("assembly")
        fp = asm.floorplan()

        # Floorplan: instances must not overlap, pads must sit on the die
        # and match the pin inventory.
        boxes = []
        for cname, x, y in fp.cell_instances:
            cell = asm._cells[cname]
            boxes.append(Rect(x, y, x + cell.width, y + cell.height))
        index = RectIndex(boxes)
        overlaps = 0
        for i, r in enumerate(boxes):
            for j in index.near(r):
                if j > i and r.intersects(boxes[j]):
                    overlaps += 1
                    stage.add(
                        "floorplan-overlap",
                        "error",
                        f"instances {fp.cell_instances[i]} and "
                        f"{fp.cell_instances[j]} overlap",
                    )
        die = Rect(0, 0, fp.die_width, fp.die_height)
        for pin, rect in fp.pads:
            if not die.contains(rect):
                stage.add(
                    "floorplan-pad",
                    "error",
                    f"pad {pin} at {rect} falls outside the die {die}",
                    where=pin,
                )
        if fp.n_pads != len(asm.pin_names()):
            stage.add(
                "floorplan-pad",
                "error",
                f"{fp.n_pads} pads placed for {len(asm.pin_names())} pins",
            )
        else:
            stage.add(
                "floorplan",
                "info",
                f"{fp.n_cells} cells, {fp.n_pads} pads, no overlaps"
                if not overlaps
                else f"{fp.n_cells} cells, {fp.n_pads} pads",
            )

        # The CIF as written: parse what the assembler emits once, recover
        # lambda geometry symbol by symbol, census each symbol's
        # transistors once per call, and join instances at their seams.
        # The findings and their wording are those of a flat read of the
        # die, which the hierarchy reproduces exactly.
        nets = HierarchicalNets(parse_cif(asm.to_cif()), extracted)
        if nets.off_grid:
            stage.add(
                "cif-grid",
                "error",
                "flattened CIF geometry is off the half-lambda grid",
            )
        # Each distinct cell is censused once, then weighted by how many
        # times the floorplan places it.
        placed = Counter(cname for cname, _x, _y in fp.cell_instances)
        expected = 0
        for cname, count in placed.items():
            expected += count * nets.census(asm._cells[cname].rects)
        found = nets.n_channels
        if found != expected:
            stage.add(
                "cif-census",
                "error",
                f"flat CIF has {found} transistor channels; the floorplan "
                f"promises {expected}",
            )
        else:
            stage.add(
                "cif-census", "info", f"{found} transistor channels on the die"
            )

        # Supply isolation: the VDD and GND rails of every placed cell
        # must never share a net (rows may legally share rails among
        # themselves through abutment).
        margin_x = (fp.die_width - fp.core_width) // 2
        margin_y = (fp.die_height - fp.core_height) // 2
        vdd_nets, gnd_nets = set(), set()
        open_rails = 0
        for cname, x, y in fp.cell_instances:
            cell = asm._cells[cname]
            for pname, bucket in (("VDD", vdd_nets), ("GND", gnd_nets)):
                point, layer = cell.ports[pname]
                nid = nets.net_at(
                    Point(point.x + x + margin_x, point.y + y + margin_y),
                    layer,
                )
                if nid is None:
                    open_rails += 1
                    stage.add(
                        "rail-open",
                        "error",
                        f"{pname} rail probe of {cname} at ({x},{y}) hits "
                        "no metal",
                        where=cname,
                    )
                else:
                    bucket.add(nid)
        shorted = vdd_nets & gnd_nets
        if shorted:
            stage.add(
                "rail-short",
                "error",
                f"VDD and GND rails share {len(shorted)} net(s): the "
                "assembly shorts the supplies",
            )
        elif not open_rails:
            stage.add(
                "rail-isolation",
                "info",
                f"{len(vdd_nets)} VDD rail net(s), {len(gnd_nets)} GND rail "
                "net(s), disjoint",
            )
        return stage
