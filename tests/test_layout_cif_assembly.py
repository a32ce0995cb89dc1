"""CIF writing/parsing round trips and the Plate 2 chip assembly (the
compiled ``match`` chip at 8 x 2)."""

import pytest

from repro.compiler import CompileError, compile_workload
from repro.errors import CIFError, LayoutError
from repro.layout.assembly import ArrayAssembler
from repro.layout.cif import CIFWriter, parse_cif
from repro.layout.geometry import Rect
from repro.layout.layers import Layer


class TestCIFRoundTrip:
    def build_writer(self):
        w = CIFWriter()
        sym = w.new_symbol("cell")
        sym.add_box(Layer.METAL, Rect(0, 0, 3, 7))
        sym.add_box(Layer.POLY, Rect(1, 1, 3, 9))
        top = w.new_symbol("top")
        top.call(sym.symbol_id, 10, 0)
        top.call(sym.symbol_id, 20, 4)
        w.place(top, 0, 0)
        return w

    def test_round_trip_geometry(self):
        w = self.build_writer()
        parsed = parse_cif(w.render())
        assert parsed.scale_denominator == 2
        flat = parsed.flatten()
        # geometry in half-lambda: original rects doubled and translated
        metal = sorted((r.x0, r.y0, r.x1, r.y1) for r in flat[Layer.METAL])
        assert metal == [(20, 0, 26, 14), (40, 8, 46, 22)]

    def test_odd_widths_supported(self):
        """Metal's 3-lambda width forces the half-lambda scale trick."""
        w = CIFWriter()
        sym = w.new_symbol()
        sym.add_box(Layer.METAL, Rect(0, 0, 3, 3))
        w.place(sym, 0, 0)
        text = w.render()
        assert "DS 1 250 2;" in text
        parse_cif(text)  # must not raise

    def test_lambda_scale_recorded(self):
        parsed = parse_cif(self.build_writer().render())
        assert parsed.lambda_centimicrons == 250

    @pytest.mark.parametrize(
        "bad",
        [
            "B 2 2 1 1;\nE",                 # box outside any symbol
            "DS 1 250 2;\nB 2 2 1 1;\nDF;\nE",  # box before layer select
            "DS 1;\nDS 2;\nDF;\nE",          # nested DS
            "DF;\nE",                        # DF without DS
            "L NOPE;\nE",                    # unknown layer
            "Q 1 2;\nE",                     # unknown command
            "DS 1 250 2;\nDF;",              # missing E
            "E;B 2 2 1 1;",                  # command after E
        ],
    )
    def test_malformed_cif_rejected(self, bad):
        with pytest.raises(CIFError):
            parse_cif(bad)

    def test_call_to_undefined_symbol_rejected_at_flatten(self):
        parsed = parse_cif("C 9 T 0 0;\nE")
        with pytest.raises(CIFError):
            parsed.flatten()

    def test_comments_ignored(self):
        parsed = parse_cif("( hello );\nDS 1 250 2;\nL NM;\nB 4 4 2 2;\nDF;\nC 1 T 0 0;\nE")
        assert Layer.METAL in parsed.flatten()


def _assembler(columns, char_bits):
    return compile_workload("match", columns, char_bits=char_bits).assembler


class TestChipAssembly:
    """The compiled ``match`` chip's floorplan: Plate 2 at 8 x 2."""

    def test_prototype_floorplan_counts(self):
        """Plate 2: 8 columns x (2 comparator rows + accumulators)."""
        asm = _assembler(8, 2)
        fp = asm.floorplan()
        assert fp.n_cells == 8 * 3
        assert fp.core_area > 0
        assert fp.die_area > fp.core_area

    def test_pad_ring_covers_every_pin(self):
        asm = _assembler(8, 2)
        fp = asm.floorplan()
        assert fp.n_pads == len(asm.pin_names())
        names = [p for p, _ in fp.pads]
        assert "PHI1" in names and "R_OUT0" in names and "S_IN1" in names

    def test_area_scales_linearly_with_columns(self):
        a4 = _assembler(4, 2).floorplan().core_area
        a8 = _assembler(8, 2).floorplan().core_area
        assert a8 == pytest.approx(2 * a4, rel=0.01)

    def test_polarity_alternates_along_rows(self):
        asm = _assembler(4, 1)
        fp = asm.floorplan()
        accum_row = [c for c in fp.cell_instances if c[0].startswith("accumulator")]
        kinds = [name for name, _, _ in sorted(accum_row, key=lambda c: c[1])]
        assert kinds == [
            "accumulator_neg", "accumulator_pos",
            "accumulator_neg", "accumulator_pos",
        ]

    def test_cif_flattens_to_expected_cell_count(self):
        asm = _assembler(3, 1)
        parsed = parse_cif(asm.to_cif())
        flat = parsed.flatten()
        # every layer of every instance present; implants only from cells
        assert len(flat[Layer.IMPLANT]) > 0
        assert len(flat[Layer.OVERGLASS]) == len(asm.pin_names())

    def test_area_report_fields(self):
        rep = _assembler(8, 2).area_report()
        assert rep["cells"] == 24
        assert rep["die_area_mm2"] > rep["core_area_mm2"] * 0  # present
        assert rep["pads"] == len(_assembler(8, 2).pin_names())

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(CompileError):
            _assembler(0, 2)
        with pytest.raises(LayoutError):
            ArrayAssembler({}, [], [])
