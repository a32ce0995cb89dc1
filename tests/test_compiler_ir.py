"""The compiler front end: specs, IR elaboration, validation, placement."""

import pytest

from repro.compiler import KERNELS, ChipSpec, CompileError
from repro.compiler.ir import (
    CONST_ONE,
    build_logical_db,
    build_net_to_cells,
    elaborate,
    validate_ir,
)
from repro.compiler.library import library_for
from repro.compiler.place import place


class TestChipSpec:
    def test_rejects_unknown_kernel(self):
        with pytest.raises(CompileError):
            ChipSpec(8, kernel="sorting")

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(CompileError):
            ChipSpec(0)
        with pytest.raises(CompileError):
            ChipSpec(8, char_bits=0)
        with pytest.raises(CompileError):
            ChipSpec(4, kernel="inner-product", data_bits=0)

    def test_result_bits_sizing(self):
        # match: one wire; count: enough bits for the cell count; ip:
        # enough bits for cells * (2^B - 1)^2.
        assert ChipSpec(8).result_bits == 1
        assert ChipSpec(8, kernel="count").result_bits == 4
        assert ChipSpec(12, kernel="count").result_bits == 4
        assert ChipSpec(4, kernel="inner-product", data_bits=2).result_bits == 6
        assert ChipSpec(6, kernel="inner-product", data_bits=2).result_bits == 6

    def test_numeric_kernel_has_no_comparator_rows(self):
        spec = ChipSpec(4, kernel="inner-product")
        assert spec.w_rows == 0
        assert spec.result_row == 0

    def test_names(self):
        assert ChipSpec(16, char_bits=4).name == "match_16x4"
        assert ChipSpec(6, kernel="inner-product").name == "ip_6x2"
        assert ChipSpec(8, kernel="count", chip_name="custom").name == "custom"


class TestElaboration:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_elaborated_ir_validates(self, kernel):
        spec = ChipSpec(4, kernel=kernel)
        design = elaborate(spec)
        validate_ir(design, library_for(spec))  # must not raise

    def test_logical_db_shape(self):
        spec = ChipSpec(4, kernel="count", char_bits=2)
        db = build_logical_db(elaborate(spec))
        assert sorted(db) == ["comparator", f"counter{spec.result_bits}"]
        assert len(db["comparator"]) == 8  # 4 columns x 2 rows
        assert len(db[f"counter{spec.result_bits}"]) == 4

    def test_net_to_cells_is_a_connectivity_graph(self):
        spec = ChipSpec(3, char_bits=1)
        design = elaborate(spec)
        graph = build_net_to_cells(design)
        # The chip input pin P_IN0 lands on exactly one comparator.
        assert len(graph["P_IN0"]) == 1
        # The constant net feeds every row-0 comparator.
        assert len(graph[CONST_ONE]) == 3

    def test_validate_rejects_double_driver(self):
        spec = ChipSpec(3, char_bits=1)
        design = elaborate(spec)
        # Make two accumulators drive the same lam net.
        design.cells["a1"]["connections"]["lam_out"] = \
            design.cells["a0"]["connections"]["lam_out"]
        with pytest.raises(CompileError):
            validate_ir(design, library_for(spec))

    def test_validate_rejects_missing_connection(self):
        spec = ChipSpec(3, char_bits=1)
        design = elaborate(spec)
        del design.cells["c1_0"]["connections"]["p_in"]
        with pytest.raises(CompileError):
            validate_ir(design, library_for(spec))

    def test_validate_rejects_unknown_type(self):
        spec = ChipSpec(3, char_bits=1)
        design = elaborate(spec)
        design.cells["c0_0"]["type"] = "mystery"
        with pytest.raises(CompileError):
            validate_ir(design, library_for(spec))


class TestPlacement:
    def test_grid_and_polarity(self):
        spec = ChipSpec(4, char_bits=2)
        pl = place(elaborate(spec), spec)
        assert pl.columns == 4 and pl.w_rows == 2
        # Checkerboard: (i + j) even is the positive twin, fires phi1.
        assert pl.is_positive("c0_0") and pl.phase_index("c0_0") == 0
        assert not pl.is_positive("c1_0") and pl.phase_index("c1_0") == 1
        # The result row sits at index w.
        assert pl.result_row == 2
        assert pl.row(2) == ["a0", "a1", "a2", "a3"]

    def test_all_cells_placed(self):
        spec = ChipSpec(5, kernel="count", char_bits=3)
        design = elaborate(spec)
        pl = place(design, spec)
        assert len(pl.loc) == len(design.cells) == 5 * 4

    def test_broken_stream_chain_is_a_placement_error(self):
        spec = ChipSpec(3, char_bits=1)
        design = elaborate(spec)
        # Cut the lam chain: the middle accumulator now listens on a
        # net nobody drives rightward.
        design.cells["a1"]["connections"]["lam_in"] = "severed"
        design.cells["a0"]["connections"]["lam_out"] = "dangling"
        with pytest.raises(CompileError):
            place(design, spec)

    def test_broken_d_chain_is_a_placement_error(self):
        spec = ChipSpec(3, char_bits=2)
        design = elaborate(spec)
        a, b = (design.cells["c1_0"]["connections"],
                design.cells["c1_1"]["connections"])
        a["d_out"], b["d_in"] = "d_mis.a", "d_mis.b"
        with pytest.raises(CompileError):
            place(design, spec)
