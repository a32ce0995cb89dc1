"""The pattern matcher simulated transistor by transistor.

:class:`GateLevelMatcher` compiles the ``match`` chip -- ``m`` columns of
``w`` one-bit comparator rows over an accumulator row, the Figure 3-3/3-4
array; at 8 x 2 it is the Plate 2 prototype -- and drives the generated
switch-level netlist with the compiler's feed plan, the host feeding
discipline shared (via :func:`repro.core.bit_level.bit_feed_schedule`)
with the behavioural bit-level model.  The test suite checks the two
agree bit for bit -- the cross-level verification the paper's
methodology implies between "cell logic circuits" and "algorithm".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..alphabet import Alphabet, PatternChar, parse_pattern
from ..errors import PatternError
from .flow import compile_workload
from .simulate import feed_plan, mask_results, run_switch_level

__all__ = ["GateLevelMatcher"]


class GateLevelMatcher:
    """The pattern matcher simulated transistor by transistor.

    Functionally identical to :class:`~repro.core.matcher.PatternMatcher`
    (the tests assert it), about four orders of magnitude slower -- which
    is the point: it demonstrates that the paper's circuits implement the
    paper's algorithm.  ``chip`` is the compiled design and ``net`` its
    :class:`~repro.compiler.netlist.CompiledNetlist`, which keeps its
    state from one :meth:`match` call to the next.
    """

    def __init__(
        self,
        pattern,
        alphabet: Alphabet,
        n_cells: Optional[int] = None,
        wildcard_symbol: str = "X",
    ):
        self.alphabet = alphabet
        if pattern and all(isinstance(pc, PatternChar) for pc in pattern):
            self.pattern: List[PatternChar] = list(pattern)
        else:
            self.pattern = parse_pattern(pattern, alphabet, wildcard_symbol)
        if n_cells is None:
            n_cells = len(self.pattern)
        if n_cells < len(self.pattern):
            raise PatternError("pattern does not fit in the array")
        self.chip = compile_workload("match", n_cells, char_bits=alphabet.bits)
        self.net = self.chip.netlist
        self.obs = None

    def attach_obs(self, obs) -> None:
        """Attach an Observability bundle (propagates to the netlist's
        circuit, so settle metrics/spans and probes follow)."""
        self.obs = obs
        self.net.circuit.attach_obs(obs)

    def match(self, text: Sequence[str]) -> List[bool]:
        """One result bit per text character (oracle convention)."""
        if self.obs is not None:
            circuit = self.net.circuit
            with self.obs.tracer.span(
                "gate.match", clock=lambda: circuit.time_ns, unit="ns",
                chars=len(text), cells=self.chip.spec.cells,
                transistors=self.n_transistors,
            ):
                return self._match(text)
        return self._match(text)

    def _match(self, text: Sequence[str]) -> List[bool]:
        plan = feed_plan(self.chip.spec, self.pattern, text, self.alphabet)
        raw = run_switch_level(self.net, plan)
        return [bool(v) for v in mask_results(raw, plan, False)]

    @property
    def n_transistors(self) -> int:
        return self.net.n_transistors
