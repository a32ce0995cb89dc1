"""The chip compiler: parameterized workload spec -> verified silicon.

The paper closes with the prediction that special-purpose chips will be
*compiled*: "we believe that the efficient design of special-purpose
chips will be based on design methodologies ... in which the layout is
generated directly from a high-level specification."  This package is
that flow for the repository's systolic family.  A
:class:`~repro.chip.chip.ChipSpec` -- kernel, cell count, character
or data width -- is elaborated into a validated logical IR, placed onto
the checkerboard grid, and lowered to both a switch-level transistor
netlist and mask geometry (sticks -> layout -> CIF), then pushed through
the signoff gauntlet.  The fabricated prototype of Plate 2 is simply
``ChipSpec(8, char_bits=2)``, the same spec the serving farm's pool
workers are built from.

Entry points:

* :func:`compile_workload` -- the programmatic front door,
* ``python -m repro.compiler`` -- the command-line flow driver,
* :meth:`repro.workloads.registry.WorkloadSpec.compile_chip` -- from the
  workload registry,
* :class:`GateLevelMatcher` -- the compiled ``match`` chip as a
  transistor-level pattern matcher.

The stage-by-stage handbook lives in ``docs/COMPILER.md``.
"""

from ..chip.chip import KERNELS, ChipSpec
from ..errors import CompileError
from .flow import CompiledChip, compile_workload
from .gatelevel import GateLevelMatcher
from .ir import build_logical_db, build_net_to_cells, elaborate, validate_ir
from .library import Library, library_for
from .place import Placement, place
from .verify import differential, run_design_mutants

__all__ = [
    "ChipSpec",
    "CompileError",
    "CompiledChip",
    "GateLevelMatcher",
    "KERNELS",
    "Library",
    "Placement",
    "build_logical_db",
    "build_net_to_cells",
    "compile_workload",
    "differential",
    "elaborate",
    "library_for",
    "place",
    "run_design_mutants",
    "validate_ir",
]
