"""P2: Plate 2 -- the fabricated prototype chip.

Regenerates the article: 8 character cells, two-bit characters, full
floorplan with pads, fabricatable CIF, and the 250 ns/character data
rate; checks the prototype against the oracle at full capacity.
"""

from repro import match_oracle, parse_pattern
from repro.analysis import Table
from repro.chip import PrototypeChip
from repro.compiler import compile_workload
from repro.layout.cif import parse_cif

from conftest import random_text


def test_plate_2_behaviour(benchmark):
    chip = PrototypeChip()
    chip.load_pattern("ABXDABXD")             # 8 chars: full capacity
    text = random_text(500, seed=9)
    results = benchmark(chip.match, text)
    assert results == match_oracle(
        parse_pattern("ABXDABXD", chip.alphabet), list(text)
    )
    assert chip.data_rate_mchars_per_s() == 4.0


def test_plate_2_layout_and_cif(benchmark):
    asm = compile_workload("match", 8, char_bits=2, name="prototype").assembler
    cif = benchmark(asm.to_cif)
    parsed = parse_cif(cif)
    assert parsed.flatten()
    report = asm.area_report()
    table = Table(["metric", "value"], title="Plate 2 prototype layout")
    for key in ("columns", "bit_rows", "cells", "pads",
                "core_area_mm2", "die_area_mm2"):
        table.row([key, report[key]])
    table.row(["CIF bytes", len(cif)])
    print()
    table.print()
    assert report["cells"] == 24
