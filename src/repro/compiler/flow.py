"""The flow driver: spec in, verified silicon out.

:func:`compile_workload` is the compiler's public entry point.  It runs
the front half of the flow eagerly -- spec validation, IR elaboration,
IR validation, placement -- because those are cheap and their failures
are design errors the caller wants immediately.  The expensive back half
(physical twins, floorplan, transistor netlist) is materialized lazily
by the returned :class:`CompiledChip`, so a caller who only wants to
simulate the IR never pays for layout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..alphabet import Alphabet
from ..chip.chip import ChipSpec
from ..errors import CompileError
from .ir import LogicalDesign, build_logical_db, build_net_to_cells, elaborate
from .library import Library, library_for
from .netlist import CompiledNetlist, elaborate_circuit
from .physical import build_assembler, build_bundles
from .place import Placement, place
from .simulate import feed_plan, mask_results, run_structural, run_switch_level
from .ir import validate_ir

__all__ = ["CompiledChip", "compile_workload"]

_INCOMPLETE = {"match": False, "count": 0, "inner-product": 0.0}


class CompiledChip:
    """A compiled design: IR + placement eagerly, silicon on demand.

    ``bundles`` / ``assembler`` / ``netlist`` are built on first access
    and cached; ``simulate`` runs either the structural (``"ir"``) or
    the transistor-level (``"switch"``) engine over the same feed plan.
    """

    def __init__(self, spec: ChipSpec, library: Library,
                 design: LogicalDesign, placement: Placement):
        self.spec = spec
        self.library = library
        self.design = design
        self.placement = placement
        self._bundles = None
        self._assembler = None
        self._netlist: Optional[CompiledNetlist] = None

    # -- views over the IR ----------------------------------------------------

    def logical_db(self) -> Dict[str, List[str]]:
        return build_logical_db(self.design)

    def net_to_cells(self):
        return build_net_to_cells(self.design)

    # -- lazy physical views --------------------------------------------------

    @property
    def bundles(self):
        if self._bundles is None:
            self._bundles = build_bundles(self.library)
        return self._bundles

    @property
    def assembler(self):
        if self._assembler is None:
            self._assembler = build_assembler(
                self.spec, self.design, self.placement, self.bundles
            )
        return self._assembler

    @property
    def netlist(self) -> CompiledNetlist:
        if self._netlist is None:
            self._netlist = elaborate_circuit(
                self.design, self.placement, self.library
            )
        return self._netlist

    def reset_netlist(self) -> CompiledNetlist:
        """Discard simulation state: rebuild the transistor netlist."""
        self._netlist = None
        return self.netlist

    def cif(self) -> str:
        return self.assembler.to_cif()

    # -- execution ------------------------------------------------------------

    def simulate(
        self,
        params,
        stream: Sequence,
        alphabet: Optional[Alphabet] = None,
        engine: str = "ir",
    ) -> List:
        """Run one (parameters, stream) job on the compiled design.

        ``engine="ir"`` fires the placed IR's cell behaviors;
        ``engine="switch"`` drives the generated transistor netlist.
        Both return the workload output convention: one value per stream
        position, the kernel's ``incomplete`` marker before the first
        full window.
        """
        plan = feed_plan(self.spec, params, stream, alphabet)
        if engine == "ir":
            raw = run_structural(
                self.design, self.placement, self.library, plan,
                self.spec.result_bits,
            )
        elif engine == "switch":
            raw = run_switch_level(self.reset_netlist(), plan)
        else:
            raise CompileError(f"unknown engine {engine!r}")
        masked = mask_results(raw, plan, _INCOMPLETE[self.spec.kernel])
        if self.spec.kernel == "match":
            return [bool(v) for v in masked]
        if self.spec.kernel == "inner-product":
            return [float(v) for v in masked]
        return masked

    def signoff(self):
        """Run the full signoff pipeline on this design's silicon."""
        from ..signoff.pipeline import Signoff
        return Signoff().run_design(self)


def compile_workload(
    kernel: str,
    cells: int,
    char_bits: int = 2,
    data_bits: int = 2,
    name: str = "",
) -> CompiledChip:
    """Compile a parameterized workload spec down to a chip.

    >>> chip = compile_workload("match", cells=4, char_bits=2)
    >>> chip.spec.name
    'match_4x2'
    >>> sorted(chip.logical_db())
    ['accumulator', 'comparator']
    >>> len(chip.design.cells)
    12
    >>> chip.simulate("AB", "ABAB", Alphabet("ABCD"))
    [False, True, False, True]

    >>> chip = compile_workload("count", cells=3, char_bits=1)
    >>> chip.simulate("ab", "abab", Alphabet("ab"))
    [0, 2, 0, 2]

    >>> chip = compile_workload("inner-product", cells=2, data_bits=2)
    >>> chip.simulate([1, 2], [3, 1, 0, 2])
    [0.0, 5.0, 1.0, 4.0]
    """
    spec = ChipSpec(
        kernel=kernel,
        cells=cells,
        char_bits=char_bits,
        data_bits=data_bits,
        chip_name=name,
    )
    library = library_for(spec)
    design = elaborate(spec)
    validate_ir(design, library)
    placement = place(design, spec)
    return CompiledChip(spec, library, design, placement)
