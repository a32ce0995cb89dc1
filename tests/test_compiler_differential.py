"""Differential verification: compiled designs vs the workload engines.

Four independent implementations of each kernel -- the definitional
oracle, the vectorized batched kernel, the compiled design's structural (IR)
simulation, and the compiled design's switch-level transistor simulation
-- must produce identical results on randomized streams.  The structural
sweep covers a grid of (cells, width) parameter points; the transistor
netlist, being a few thousand devices, is swept at smaller sizes.
"""

import random

import pytest

from repro.alphabet import Alphabet
from repro.compiler import compile_workload
from repro.compiler.verify import differential
from repro.workloads.registry import WORKLOADS


def _alphabet(char_bits):
    return Alphabet("".join(chr(ord("A") + i) for i in range(1 << char_bits)))


def _text(rng, alphabet, n):
    return "".join(rng.choice(alphabet.symbols) for _ in range(n))


MATCH_GRID = [(4, 1), (8, 2), (12, 2), (16, 4)]
COUNT_GRID = [(4, 1), (8, 2), (12, 3)]
IP_GRID = [(2, 1), (4, 2), (6, 2), (6, 3)]


class TestStructuralSweep:
    """IR-level simulation against oracle + batched on random streams."""

    @pytest.mark.parametrize("cells,char_bits", MATCH_GRID)
    def test_match(self, cells, char_bits):
        rng = random.Random(1000 + cells + char_bits)
        al = _alphabet(char_bits)
        chip = compile_workload("match", cells, char_bits=char_bits)
        for trial in range(3):
            pattern = _text(rng, al, rng.randint(1, cells))
            stream = _text(rng, al, rng.randint(4, 30))
            d = differential(chip, pattern, stream, al, engines=("ir",))
            assert d.ok, d.detail

    @pytest.mark.parametrize("cells,char_bits", COUNT_GRID)
    def test_count(self, cells, char_bits):
        rng = random.Random(2000 + cells + char_bits)
        al = _alphabet(char_bits)
        chip = compile_workload("count", cells, char_bits=char_bits)
        for trial in range(3):
            pattern = _text(rng, al, rng.randint(1, cells))
            stream = _text(rng, al, rng.randint(4, 30))
            d = differential(chip, pattern, stream, al, engines=("ir",))
            assert d.ok, d.detail

    @pytest.mark.parametrize("cells,data_bits", IP_GRID)
    def test_inner_product(self, cells, data_bits):
        rng = random.Random(3000 + cells + data_bits)
        top = 1 << data_bits
        chip = compile_workload("inner-product", cells, data_bits=data_bits)
        for trial in range(3):
            taps = [rng.randrange(top) for _ in range(rng.randint(1, cells))]
            if not any(taps):
                taps[0] = 1
            stream = [rng.randrange(top) for _ in range(rng.randint(4, 24))]
            d = differential(chip, taps, stream, engines=("ir",))
            assert d.ok, d.detail

    def test_wildcards_match_the_oracle(self):
        al = _alphabet(2)
        chip = compile_workload("match", 8, char_bits=2)
        d = differential(chip, "AXB", "AABACBABB", al, engines=("ir",))
        assert d.ok, d.detail
        chip = compile_workload("count", 8, char_bits=2)
        d = differential(chip, "AXB", "AABACBABB", al, engines=("ir",))
        assert d.ok, d.detail


class TestSwitchLevelSweep:
    """The generated transistor netlist against all other engines."""

    def test_match_switch_level(self):
        rng = random.Random(41)
        al = _alphabet(1)
        chip = compile_workload("match", 3, char_bits=1)
        pattern = _text(rng, al, 2)
        stream = _text(rng, al, 12)
        d = differential(chip, pattern, stream, al, engines=("ir", "switch"))
        assert d.ok, d.detail

    def test_count_switch_level(self):
        rng = random.Random(42)
        al = _alphabet(2)
        chip = compile_workload("count", 3, char_bits=2)
        pattern = _text(rng, al, 3)
        stream = _text(rng, al, 10)
        d = differential(chip, pattern, stream, al, engines=("ir", "switch"))
        assert d.ok, d.detail

    def test_inner_product_switch_level(self):
        rng = random.Random(43)
        chip = compile_workload("inner-product", 2, data_bits=2)
        taps = [3, 2]
        stream = [rng.randrange(4) for _ in range(10)]
        d = differential(chip, taps, stream, engines=("ir", "switch"))
        assert d.ok, d.detail


class TestOneCellChips:
    """The smallest array, one column: what the service's deep-trace
    observation compiles for a one-character pattern."""

    @pytest.mark.parametrize("kernel,params,stream,char_bits", [
        ("match", "B", "ABBAB", 1),
        ("count", "C", "CACBDC", 2),
        ("inner-product", [3], [1, 2, 3, 0, 2], 2),
    ])
    def test_one_cell_chip_signs_off_and_equals_the_oracle(
        self, kernel, params, stream, char_bits
    ):
        chip = compile_workload(kernel, 1, char_bits=char_bits)
        assert len(chip.design.cells) == 1 + chip.spec.w_rows
        assert chip.signoff().ok
        al = None if kernel == "inner-product" else _alphabet(char_bits)
        d = differential(chip, params, stream, al, engines=("ir", "switch"))
        assert d.ok, d.detail
        assert d.results["chip-switch"] == d.results["oracle"]


class TestWorkloadEntryPoint:
    def test_registry_compiles_chips(self):
        chip = WORKLOADS["count"].compile_chip(6, char_bits=2)
        assert chip.spec.name == "count_6x2"
        al = _alphabet(2)
        assert chip.simulate("AB", "CABAB", al) == [0, 0, 2, 0, 2]

    def test_uncompilable_workloads_say_so(self):
        from repro.workloads.registry import WorkloadError

        with pytest.raises(WorkloadError):
            WORKLOADS["correlation"].compile_chip(4)
