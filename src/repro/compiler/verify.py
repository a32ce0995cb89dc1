"""Differential verification of compiled designs.

Two independent checks close the loop between the compiler's output and
the rest of the repository:

* :func:`differential` runs one job on the compiled design -- with the
  structural engine, and optionally the transistor-level one -- and
  compares the masked results against the workload registry's
  ``batched`` and ``oracle`` engines.  Four independent implementations
  (oracle, batched kernel, IR behaviors, generated silicon) must agree
  exactly.

* :func:`run_design_mutants` seeds all six known signoff defects into
  *generated* cells and netlists and asserts each is still caught by
  its responsible stage with every upstream stage clean -- proof that
  the signoff gauntlet keeps its teeth on compiler output, not just on
  the hand-built prototype cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..alphabet import Alphabet
from ..errors import CompileError
from ..workloads.registry import run_workload
from .flow import CompiledChip

__all__ = ["DifferentialResult", "differential", "MutantResult",
           "run_design_mutants"]


@dataclass
class DifferentialResult:
    """Outcome of one differential run: per-engine results and verdict."""

    name: str
    params: object
    stream: object
    results: Dict[str, list]
    ok: bool
    detail: str = ""


def _normalize(kernel: str, values: Sequence) -> list:
    if kernel == "inner-product":
        return [float(v) for v in values]
    if kernel == "match":
        return [bool(v) for v in values]
    return [int(v) for v in values]


def differential(
    chip: CompiledChip,
    params,
    stream: Sequence,
    alphabet: Optional[Alphabet] = None,
    engines: Sequence[str] = ("ir",),
) -> DifferentialResult:
    """Compare the compiled design against the registry's engines.

    ``engines`` selects the chip-side engines to run (``"ir"`` and/or
    ``"switch"``); the registry's ``batched`` and ``oracle`` engines are
    always the references.
    """
    kernel = chip.spec.kernel
    results: Dict[str, list] = {}
    for engine in ("batched", "oracle"):
        results[engine] = _normalize(
            kernel,
            run_workload(kernel, params, stream, alphabet=alphabet,
                         engine=engine),
        )
    for engine in engines:
        results[f"chip-{engine}"] = _normalize(
            kernel, chip.simulate(params, stream, alphabet, engine=engine)
        )
    reference = results["oracle"]
    mismatches = [
        f"{name} != oracle: {vals} vs {reference}"
        for name, vals in results.items()
        if vals != reference
    ]
    return DifferentialResult(
        name=chip.spec.name,
        params=params,
        stream=stream,
        results=results,
        ok=not mismatches,
        detail="; ".join(mismatches),
    )


# -- mutation coverage on generated designs -----------------------------------

@dataclass
class MutantResult:
    """One seeded defect pushed through signoff on a generated cell."""

    name: str
    stage: str
    caught: bool
    upstream_clean: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.caught and self.upstream_clean


def _check(mutation, report) -> MutantResult:
    stages = {s.stage: s for s in report.stages}
    order = [s.stage for s in report.stages]
    target = stages.get(mutation.stage)
    caught = target is not None and any(
        f.severity == "error" and mutation.rule in f.rule
        for f in target.findings
    )
    upstream = order[: order.index(mutation.stage)] if mutation.stage in order else []
    dirty = [
        s for s in upstream
        if any(f.severity == "error" for f in stages[s].findings)
    ]
    detail = "" if caught else f"{mutation.stage} did not report {mutation.rule!r}"
    if dirty:
        detail += f"; upstream stages with errors: {dirty}"
    return MutantResult(
        name=mutation.name,
        stage=mutation.stage,
        caught=caught,
        upstream_clean=not dirty,
        detail=detail,
    )


def run_design_mutants(chip: CompiledChip, signoff=None) -> List[MutantResult]:
    """Seed all six signoff defects into the compiled design's cells.

    Layout defects go into the generated result cell's positive twin
    (the cell the compiler synthesized, not a prototype); the mis-phased
    transfer gate needs a cell with a t master/slave pair, so it also
    targets the result cell; the unbuffered chain hangs off the result
    output.  Each mutant must be caught by its responsible stage with
    all upstream stages clean.
    """
    from ..signoff.mutations import (
        LAYOUT_MUTANTS,
        NETLIST_MUTANTS,
        erc_misphased_transfer,
        timing_unbuffered_chain,
    )
    from ..signoff.pipeline import Signoff

    signoff = signoff or Signoff()
    result_twin = f"{chip.library.result_cell.name}_pos"
    bundle = chip.bundles[result_twin]
    out: List[MutantResult] = []

    for name, factory in LAYOUT_MUTANTS.items():
        mutation, mutated = factory(bundle)
        out.append(_check(mutation, signoff.run_cell(bundle=mutated)))

    mutation, (circuit, clocks, ports) = erc_misphased_transfer(bundle)
    out.append(_check(
        mutation,
        signoff.run_netlist(circuit, clocks, ports, name=mutation.name),
    ))

    port = "r_out0" if "r_out0" in bundle.ports else "r_out"
    mutation, (circuit, clocks, ports) = timing_unbuffered_chain(bundle, port)
    out.append(_check(
        mutation,
        signoff.run_netlist(circuit, clocks, ports, name=mutation.name),
    ))

    if len(out) != len(LAYOUT_MUTANTS) + len(NETLIST_MUTANTS):
        raise CompileError("mutant inventory drifted; update run_design_mutants")
    return out
