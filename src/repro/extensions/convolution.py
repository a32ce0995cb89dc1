"""Systolic convolution via sliding inner products (Section 3.4).

"Many other problems, such as convolutions and FIR filtering, have
algorithms that use the same data flow."  The convolution of a kernel
``h`` (length L) with a signal ``x`` (length N) is

    y_i = sum_j h_j * x_{i-j},   i = 0 .. N+L-2.

On the matcher's data flow the natural primitive is the *sliding inner
product* ending at each stream position,

    ip_i = sum_j p_j * s_{i-k+j},

so convolution is the inner product against the **reversed** kernel over
the zero-padded signal.  Both entry points below run on the actual
systolic array (via :class:`~repro.extensions.linear_products.LinearProductMachine`);
results agree with ``numpy.convolve`` to floating-point accuracy.

>>> systolic_inner_products([1.0, 2.0], [1.0, 1.0, 1.0])
[0.0, 3.0, 3.0]
>>> systolic_convolution([1.0, 2.0], [1.0, 1.0, 1.0])
[1.0, 3.0, 3.0, 2.0]

The served kernel is :func:`repro.core.fastpath.fast_inner_products_many`;
the farm serves these as ``submit(workload="inner-product")`` and
``submit(workload="convolution")``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import PatternError
from .linear_products import INNER_PRODUCT, LinearProductMachine


def systolic_inner_products(
    weights: Sequence[float],
    signal: Sequence[float],
    n_cells: Optional[int] = None,
) -> List[float]:
    """Sliding inner products ``sum_j w_j * x_{i-k+j}`` for each i >= k.

    Returns one value per signal sample; incomplete windows report 0.0.
    """
    machine = LinearProductMachine(
        [float(w) for w in weights], INNER_PRODUCT, n_cells=n_cells, incomplete=0.0
    )
    return [float(v) for v in machine.run([float(x) for x in signal])]


def systolic_convolution(
    kernel: Sequence[float],
    signal: Sequence[float],
    n_cells: Optional[int] = None,
) -> List[float]:
    """Full convolution of *kernel* with *signal* (length N + L - 1).

    Equivalent to ``numpy.convolve(kernel, signal)``, computed by the
    systolic array: the signal is zero-padded by L-1 on both sides and
    slid against the reversed kernel.
    """
    h = [float(v) for v in kernel]
    x = [float(v) for v in signal]
    if not h:
        raise PatternError("convolution kernel must be non-empty")
    if not x:
        return []
    L = len(h)
    padded = [0.0] * (L - 1) + x + [0.0] * (L - 1)
    ips = systolic_inner_products(list(reversed(h)), padded, n_cells=n_cells)
    # Window ending at padded index i covers x positions i-2(L-1) .. i-(L-1);
    # the convolution output y_m corresponds to ending index m + L - 1.
    k = L - 1
    return [ips[m + k] for m in range(len(x) + L - 1)]
