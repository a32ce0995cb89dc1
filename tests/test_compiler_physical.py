"""The compiler's physical back end: signoff, mutants, CLI.

Every generated design must clear the same gauntlet as the hand-built
prototype -- cell DRC/extraction/LVS, whole-netlist ERC and timing, and
the assembly audits -- and the six seeded signoff defects must still be
caught by their responsible stages when planted in *generated* cells.
"""

import json

import pytest

from repro.compiler import compile_workload
from repro.compiler.__main__ import main
from repro.compiler.verify import run_design_mutants
from repro.signoff.pipeline import Signoff

STAGE_ORDER = ["drc", "extraction", "lvs", "erc", "timing", "assembly"]

#: kernel, cells, char_bits, data_bits -- one point per kernel here
#: (the CLI smoke test at the bottom covers a second, larger size; the
#: full six-point matrix runs in the compiler-signoff CI job).
POINTS = [
    ("match", 8, 2, 2),
    ("count", 8, 2, 2),
    ("inner-product", 4, 2, 2),
]


@pytest.fixture(scope="module")
def signoff():
    return Signoff()


class TestGeneratedDesignsSignOff:
    @pytest.mark.parametrize("kernel,cells,char_bits,data_bits", POINTS)
    def test_full_signoff_passes(self, signoff, kernel, cells, char_bits,
                                 data_bits):
        chip = compile_workload(kernel, cells, char_bits=char_bits,
                                data_bits=data_bits)
        report = signoff.run_design(chip)
        assert report.ok, report.summary()
        assert [s.stage for s in report.stages] == STAGE_ORDER

    def test_larger_than_prototype_signs_off(self, signoff):
        chip = compile_workload("match", 16, char_bits=4)
        assert len(chip.design.cells) == 16 * 5
        report = signoff.run_design(chip)
        assert report.ok, report.summary()

    def test_generated_cif_is_nonempty_and_parsable(self):
        from repro.layout.cif import parse_cif

        chip = compile_workload("count", 8, char_bits=2)
        cif = chip.cif()
        flat = parse_cif(cif).flatten()
        assert any(rects for rects in flat.values())


class TestMutantsOnGeneratedCells:
    @pytest.mark.parametrize("kernel,cells,char_bits,data_bits", POINTS)
    def test_all_six_defects_caught_in_generated_cells(
        self, signoff, kernel, cells, char_bits, data_bits
    ):
        chip = compile_workload(kernel, cells, char_bits=char_bits,
                                data_bits=data_bits)
        results = run_design_mutants(chip, signoff)
        assert len(results) == 6
        for r in results:
            assert r.caught, f"{r.name}: {r.detail}"
            assert r.upstream_clean, f"{r.name}: {r.detail}"


class TestCompilerCli:
    def test_single_point_signoff_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "--kernel", "count", "--cells", "8",
            "--signoff", "--json", str(out), "--quiet",
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["name"] == "count_8x2"
        assert data["ok"] is True
        assert [s["stage"] for s in data["stages"]] == STAGE_ORDER

    def test_cif_export(self, tmp_path):
        out = tmp_path / "chip.cif"
        rc = main([
            "--kernel", "inner-product", "--cells", "4",
            "--cif", str(out), "--quiet",
        ])
        assert rc == 0
        assert out.read_text().strip()

    def test_bad_size_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--kernel", "match", "--cells", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            "python -m repro.compiler: error: a chip needs at least one cell"
        )

    def test_matrix_compiles(self, capsys):
        rc = main([])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert any(line.startswith("match_16x4") for line in lines)
