"""The Section 3.4 extension machines.

"Many problems other than string matching can be solved by similar
algorithms."  Each module here keeps the matcher's data flow -- pattern
stream rightward, signal stream leftward, results leaving with the signal
-- and swaps only the cell function, exactly as the paper prescribes:

* :mod:`repro.extensions.counting` -- accumulator replaced by a counting
  cell: how many positions of each window match the pattern.
* :mod:`repro.extensions.correlation` -- comparator replaced by a
  difference cell and accumulator by an adder: squared-distance
  correlation.
* :mod:`repro.extensions.convolution` -- multiplier/adder cells:
  inner-product windows, convolution.
* :mod:`repro.extensions.fir` -- FIR filtering on the same array.
* :mod:`repro.extensions.linear_products` -- the Fischer-Paterson
  linear-product family as a generic cell algebra, of which all the
  machines above are instances.

These are the *behavioral* cell-by-cell machines -- the executable spec.
The kernels the farm serves live in :mod:`repro.core.fastpath`
(vectorized window kernels, differentially tested against these cells)
and run at farm scale through ``MatcherService.submit(workload=...)``
via the :mod:`repro.workloads` registry:

>>> from repro.workloads import run_workload
>>> run_workload("correlation", [1.0, 3.0], [1.0, 3.0, 5.0])
[0.0, 0.0, 8.0]
"""

from .convolution import systolic_convolution, systolic_inner_products
from .correlation import CorrelationMachine, systolic_correlation
from .counting import CountingMachine, systolic_match_counts
from .fir import systolic_fir
from .linear_products import LinearProductMachine, Semiring

__all__ = [
    "CorrelationMachine",
    "CountingMachine",
    "LinearProductMachine",
    "Semiring",
    "systolic_convolution",
    "systolic_correlation",
    "systolic_fir",
    "systolic_inner_products",
    "systolic_match_counts",
]
