"""The signoff driver, the CLI gate, seeded-defect mutants, designflow."""

import dataclasses
import json
from collections import Counter

import pytest

from repro.compiler import compile_workload
from repro.errors import MethodologyError, SignoffError
from repro.layout.assembly import ArrayAssembler
from repro.layout.design_rules import gate_channels
from repro.layout.geometry import Rect
from repro.layout.layers import Layer
from repro.methodology.designflow import DesignFlow
from repro.signoff.__main__ import main
from repro.signoff.mutations import mutant_names, run_mutant
from repro.signoff.pipeline import CELL_KINDS, Signoff
from repro.signoff.report import Finding, SignoffReport, StageReport

STAGE_ORDER = ["drc", "extraction", "lvs", "erc", "timing"]


@pytest.fixture(scope="module")
def signoff():
    return Signoff()


class TestReport:
    def test_finding_rejects_unknown_severity(self):
        with pytest.raises(SignoffError):
            Finding("drc", "r", "fatal", "boom")

    def test_stage_lookup(self):
        rep = SignoffReport("x", [StageReport("drc")])
        assert rep.stage("drc").ok
        assert rep.has_stage("drc") and not rep.has_stage("lvs")
        with pytest.raises(SignoffError):
            rep.stage("lvs")

    def test_errors_flip_ok(self):
        stage = StageReport("drc")
        assert stage.ok
        stage.add("metal-width", "error", "too thin")
        rep = SignoffReport("x", [stage])
        assert not stage.ok and not rep.ok
        assert len(rep.errors) == 1

    def test_json_round_trip(self, signoff):
        rep = signoff.run_cell("comparator", True)
        data = json.loads(rep.to_json())
        assert data["name"] == "comparator_pos"
        assert data["ok"] is True
        assert [s["stage"] for s in data["stages"]] == STAGE_ORDER


class TestCleanRuns:
    @pytest.mark.parametrize("kind,positive", CELL_KINDS)
    def test_every_cell_twin_signs_off(self, signoff, kind, positive):
        rep = signoff.run_cell(kind, positive)
        assert rep.ok, rep.summary()
        assert [s.stage for s in rep.stages] == STAGE_ORDER

    def test_chip_signs_off(self, signoff):
        rep = signoff.run_chip(4, 2)
        assert rep.ok, rep.summary()
        assert [s.stage for s in rep.stages] == STAGE_ORDER + ["assembly"]
        assert "PASS" in rep.summary()


class _EmitsEdited(ArrayAssembler):
    """*asm*'s library and floorplan, but CIF with its first placed
    instance swapped for a copy whose rects *edit* changed in place."""

    def __init__(self, asm, edit):
        super().__init__(asm._cells, asm._rows, asm.pin_names(), asm.name)
        cell = asm._cells[asm._rows[0][0]]
        rects = {layer: list(rs) for layer, rs in cell.rects.items()}
        edit(cell, rects)
        cells = dict(asm._cells)
        cells["edited"] = dataclasses.replace(cell, name="edited", rects=rects)
        rows = [list(row) for row in asm._rows]
        rows[0][0] = "edited"
        self._emitted = ArrayAssembler(cells, rows, asm.pin_names(), asm.name)

    def to_cif(self) -> str:
        return self._emitted.to_cif()


@pytest.fixture(scope="module")
def match_chip():
    return compile_workload("match", 4, char_bits=2)


class TestAssemblyAudit:
    """The audits over a compiled chip whose four cell twins are placed
    12 times, so the census counts each distinct cell once."""

    def test_chip_repeats_its_cells(self, match_chip):
        placed = Counter(
            c for c, _x, _y in match_chip.assembler.floorplan().cell_instances
        )
        assert len(placed) == 4 and sum(placed.values()) == 12

    def test_clean_chip_reports_info_findings(self, signoff, match_chip):
        stage = signoff.assembly_stage_for(match_chip.assembler)
        assert [(f.rule, f.severity, f.detail) for f in stage.findings] == [
            ("floorplan", "info", "12 cells, 18 pads, no overlaps"),
            ("cif-census", "info", "240 transistor channels on the die"),
            ("rail-isolation", "info",
             "10 VDD rail net(s), 10 GND rail net(s), disjoint"),
        ]

    def test_cif_losing_one_gate_fails_the_census(self, signoff, match_chip):
        def butt_one_gate(cell, rects):
            # A stray cut over a gate butts poly to diffusion: the flat
            # CIF then carries one transistor fewer than the floorplan.
            gate = gate_channels(
                rects[Layer.POLY], rects[Layer.DIFFUSION], rects[Layer.CONTACT]
            )[0]
            rects[Layer.CONTACT].append(gate)

        stage = signoff.assembly_stage_for(
            _EmitsEdited(match_chip.assembler, butt_one_gate)
        )
        census = [f for f in stage.findings if f.rule == "cif-census"]
        assert [(f.severity, f.detail) for f in census] == [(
            "error",
            "flat CIF has 239 transistor channels; the floorplan promises 240",
        )]

    def test_metal_bridging_the_rails_is_a_short(self, signoff, match_chip):
        def bridge_rails(cell, rects):
            (vx, vy), _ = cell.ports["VDD"]
            (gx, gy), _ = cell.ports["GND"]
            rects[Layer.METAL].append(Rect(
                min(vx, gx) - 1, min(vy, gy) - 1,
                max(vx, gx) + 1, max(vy, gy) + 1,
            ))

        stage = signoff.assembly_stage_for(
            _EmitsEdited(match_chip.assembler, bridge_rails)
        )
        assert not stage.ok
        assert [f.severity for f in stage.findings
                if f.rule == "rail-short"] == ["error"]
        assert "rail-isolation" not in {f.rule for f in stage.findings}


class TestMutants:
    @pytest.mark.parametrize("name", mutant_names())
    def test_caught_by_its_stage_and_only_downstream(self, signoff, name):
        mutation, rep = run_mutant(name, signoff)
        stage = rep.stage(mutation.stage)
        assert any(
            mutation.rule in f.rule and f.severity == "error"
            for f in stage.findings
        ), f"{name}: {mutation.stage} missed it: {rep.summary()}"
        for upstream in STAGE_ORDER[: STAGE_ORDER.index(mutation.stage)]:
            if rep.has_stage(upstream):
                assert rep.stage(upstream).ok, (
                    f"{name}: upstream {upstream} dirty: {rep.summary()}"
                )

    def test_unknown_mutant_raises(self, signoff):
        with pytest.raises(SignoffError):
            run_mutant("no-such-defect", signoff)


class TestCLI:
    def test_clean_cell_exits_zero(self, capsys):
        assert main(["--cell", "comparator", "--quiet"]) == 0

    def test_mutant_exits_nonzero_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "--mutant", "drc-metal-sliver", "--json", str(out), "--quiet"
        ])
        assert code == 1
        data = json.loads(out.read_text())
        assert data["ok"] is False

    def test_summary_printed_by_default(self, capsys):
        main(["--cell", "accumulator", "--negative"])
        out = capsys.readouterr().out
        assert "PASS" in out and "lvs" in out


class TestDesignFlowGates:
    def test_default_flow_has_no_signoff_tasks(self):
        flow = DesignFlow(2, 2)
        assert not any(t.startswith("signoff_") for t in flow.graph.tasks)

    def test_signoff_tasks_registered_with_blocking_split(self):
        flow = DesignFlow(2, 2, signoff=True)
        gates = [t for t in flow.graph.tasks if t.startswith("signoff_")]
        assert sorted(gates) == [
            "signoff_drc", "signoff_erc", "signoff_extraction",
            "signoff_lvs", "signoff_timing",
        ]
        assert flow.graph.is_blocking("signoff_lvs")
        assert not flow.graph.is_blocking("signoff_timing")

    def test_is_blocking_unknown_task_raises(self):
        flow = DesignFlow(2, 2)
        with pytest.raises(MethodologyError):
            flow.graph.is_blocking("no_such_task")

    def test_flow_with_signoff_runs_clean(self):
        flow = DesignFlow(2, 2, signoff=True)
        arts = flow.run()
        for gate in ("signoff_drc", "signoff_extraction", "signoff_lvs",
                     "signoff_erc", "signoff_timing"):
            assert arts[gate]["ok"] is True

    def test_advisory_failure_is_recorded_not_raised(self):
        flow = DesignFlow(2, 2, signoff=True)

        def explode():
            raise SignoffError("missed the beat")

        flow._runners["signoff_timing"] = explode
        arts = flow.run()
        assert arts["signoff_timing"] == {"advisory_failure": "missed the beat"}

    def test_blocking_failure_raises(self):
        flow = DesignFlow(2, 2, signoff=True)

        def explode():
            raise SignoffError("netlists differ")

        flow._runners["signoff_lvs"] = explode
        with pytest.raises(SignoffError):
            flow.run()
