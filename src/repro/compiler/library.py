"""The compiler's cell library: one entry per IR cell type.

A :class:`CellType` ties together everything the flow needs to know
about one cell, across all abstraction levels:

* ``inputs`` / ``outputs`` -- the IR port contract (buses bit-flattened),
* ``build`` -- the switch-level constructor (netlist elaboration),
* ``bundle`` -- the physical twin factory (circuit + sticks + layout,
  consumed by DRC / extraction / LVS),
* ``behavior`` -- the cycle-accurate logical model (structural
  simulation, the differential-verification reference).

:func:`library_for` assembles the :class:`Library` a given
:class:`~repro.chip.chip.ChipSpec` elaborates against; result-cell
types are parameterized by bus width, so ``counter4`` and ``counter5``
are distinct library entries with distinct layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..chip.chip import ChipSpec
from ..circuit.cells.accumulator import build_accumulator
from ..circuit.cells.comparator import build_comparator
from ..circuit.cells.counter import build_counter
from ..circuit.cells.mac import build_mac
from ..circuit.netlist import Circuit
from ..errors import CompileError
from ..layout.cells import (
    CellBundle,
    accumulator_bundle,
    comparator_bundle,
    counter_bundle,
    mac_bundle,
)

__all__ = ["CellType", "Library", "library_for"]


@dataclass(frozen=True)
class CellType:
    """One library cell: IR contract + netlist, layout, and behavior
    factories.

    ``build(circuit, prefix, clk, clk_other, positive)`` adds one
    instance and returns its port-name -> node map (IR port names);
    ``bundle(positive)`` returns the physical twin; ``behavior()``
    returns a fresh cycle model with ``fire(inputs) -> outputs`` over
    0/1-valued IR ports.
    """

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    build: Callable[[Circuit, str, str, str, bool], Dict[str, str]]
    bundle: Callable[[bool], CellBundle]
    behavior: Callable[[], object]


# -- cycle-accurate behaviors -------------------------------------------------

class ComparatorBehavior:
    """d_out <- d_in AND (p == s); operands latched through."""

    def fire(self, ins: Dict[str, int]) -> Dict[str, int]:
        p, s, d = ins["p_in"], ins["s_in"], ins["d_in"]
        return {"p_out": p, "s_out": s, "d_out": int(bool(d) and p == s)}


class AccumulatorBehavior:
    """t <- t AND (x OR d), emitted and reset on lambda."""

    def __init__(self) -> None:
        self.t = True

    def fire(self, ins: Dict[str, int]) -> Dict[str, int]:
        lam, x, d = ins["lam_in"], ins["x_in"], ins["d_in"]
        t2 = self.t and (bool(x) or bool(d))
        if lam:
            r, self.t = t2, True
        else:
            r, self.t = bool(ins["r_in0"]), t2
        return {"lam_out": lam, "x_out": x, "r_out0": int(r)}


class CounterBehavior:
    """t <- t + (x OR d), emitted and cleared on lambda (mod 2**bits,
    exactly as the ripple hardware wraps)."""

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.t = 0

    def fire(self, ins: Dict[str, int]) -> Dict[str, int]:
        lam, x, d = ins["lam_in"], ins["x_in"], ins["d_in"]
        t2 = (self.t + (1 if (x or d) else 0)) % (1 << self.bits)
        if lam:
            r, self.t = t2, 0
        else:
            r = sum(ins[f"r_in{b}"] << b for b in range(self.bits))
            self.t = t2
        out = {"lam_out": lam, "x_out": x}
        for b in range(self.bits):
            out[f"r_out{b}"] = (r >> b) & 1
        return out


class MacBehavior:
    """t <- t + p * s, emitted and cleared on lambda (mod 2**result_bits,
    exactly as the ripple hardware wraps)."""

    def __init__(self, data_bits: int, result_bits: int) -> None:
        self.data_bits = data_bits
        self.result_bits = result_bits
        self.t = 0

    def fire(self, ins: Dict[str, int]) -> Dict[str, int]:
        B, R = self.data_bits, self.result_bits
        lam = ins["lam_in"]
        p = sum(ins[f"p_in{b}"] << b for b in range(B))
        s = sum(ins[f"s_in{b}"] << b for b in range(B))
        t2 = (self.t + p * s) % (1 << R)
        if lam:
            r, self.t = t2, 0
        else:
            r = sum(ins[f"r_in{b}"] << b for b in range(R))
            self.t = t2
        out = {"lam_out": lam}
        for b in range(B):
            out[f"p_out{b}"] = (p >> b) & 1
            out[f"s_out{b}"] = (s >> b) & 1
        for b in range(R):
            out[f"r_out{b}"] = (r >> b) & 1
        return out


# -- cell type factories ------------------------------------------------------

def _comparator_type() -> CellType:
    return CellType(
        name="comparator",
        inputs=("p_in", "s_in", "d_in"),
        outputs=("p_out", "s_out", "d_out"),
        build=lambda c, prefix, clk, _other, positive: build_comparator(
            c, prefix, clk, positive=positive
        ),
        bundle=comparator_bundle,
        behavior=ComparatorBehavior,
    )


def _accumulator_build(c, prefix, clk, clk_other, positive):
    ports = dict(build_accumulator(c, prefix, clk, clk_other, positive=positive))
    ports["r_in0"] = ports.pop("r_in")
    ports["r_out0"] = ports.pop("r_out")
    return ports


def _accumulator_type() -> CellType:
    return CellType(
        name="accumulator",
        inputs=("lam_in", "x_in", "d_in", "r_in0"),
        outputs=("lam_out", "x_out", "r_out0"),
        build=_accumulator_build,
        bundle=accumulator_bundle,
        behavior=AccumulatorBehavior,
    )


def _counter_type(result_bits: int) -> CellType:
    r_ins = tuple(f"r_in{b}" for b in range(result_bits))
    r_outs = tuple(f"r_out{b}" for b in range(result_bits))
    return CellType(
        name=f"counter{result_bits}",
        inputs=("lam_in", "x_in", "d_in") + r_ins,
        outputs=("lam_out", "x_out") + r_outs,
        build=lambda c, prefix, clk, other, positive: build_counter(
            c, prefix, clk, other, result_bits, positive=positive
        ),
        bundle=lambda positive: counter_bundle(result_bits, positive),
        behavior=lambda: CounterBehavior(result_bits),
    )


def _mac_type(data_bits: int, result_bits: int) -> CellType:
    bus_ins = tuple(
        f"{p}_in{b}" for p in ("p", "s") for b in range(data_bits)
    ) + tuple(f"r_in{b}" for b in range(result_bits))
    bus_outs = tuple(
        f"{p}_out{b}" for p in ("p", "s") for b in range(data_bits)
    ) + tuple(f"r_out{b}" for b in range(result_bits))
    return CellType(
        name=f"mac{data_bits}x{result_bits}",
        inputs=("lam_in",) + bus_ins,
        outputs=("lam_out",) + bus_outs,
        build=lambda c, prefix, clk, other, positive: build_mac(
            c, prefix, clk, other, data_bits, result_bits, positive=positive
        ),
        bundle=lambda positive: mac_bundle(data_bits, result_bits, positive),
        behavior=lambda: MacBehavior(data_bits, result_bits),
    )


@dataclass(frozen=True)
class Library:
    """The cells a spec's design is elaborated against."""

    comparator: Optional[CellType]
    result_cell: CellType

    def cell_types(self) -> Dict[str, CellType]:
        types = {self.result_cell.name: self.result_cell}
        if self.comparator is not None:
            types[self.comparator.name] = self.comparator
        return types


def library_for(spec: ChipSpec) -> Library:
    """The library a :class:`ChipSpec` needs.

    >>> sorted(library_for(ChipSpec(8, kernel="count")).cell_types())
    ['comparator', 'counter4']
    >>> library_for(ChipSpec(4, kernel="inner-product")).result_cell.name
    'mac2x6'
    """
    if spec.kernel == "match":
        return Library(_comparator_type(), _accumulator_type())
    if spec.kernel == "count":
        return Library(_comparator_type(), _counter_type(spec.result_bits))
    if spec.kernel == "inner-product":
        return Library(None, _mac_type(spec.data_bits, spec.result_bits))
    raise CompileError(f"unknown kernel {spec.kernel!r}")
