"""Netlist construction: nodes, transistors, and the Circuit container.

A :class:`Circuit` owns a set of named nodes and transistor elements and
delegates evaluation to the relaxation solver in
:mod:`repro.circuit.simulator`.  Two element kinds exist, matching the
NMOS process of the paper:

* **enhancement** transistors: bidirectional switches; the channel
  conducts iff the gate is HIGH ("If no ion implantation is present, the
  channel conducts current only when the gate is at Vdd").
* **depletion loads**: the ion-implanted pullups; modelled as a weak
  (LOAD-strength) tie of their output node toward VDD, the standard
  switch-level treatment of ratioed NMOS loads.

The two supply rails are the distinguished nodes :data:`VDD` and
:data:`GND`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..errors import CircuitError
from .signals import HIGH, LOW, UNKNOWN, LogicValue, Strength

#: Distinguished rail node names.
VDD = "VDD!"
GND = "GND!"


@dataclass
class Node:
    """One electrical node.

    ``value`` is the solved logic level; ``strength`` how it is currently
    sustained; ``last_refresh`` the simulation time (ns) the node was last
    actively driven, used for dynamic charge decay.
    """

    name: str
    value: LogicValue = UNKNOWN
    strength: Strength = Strength.NONE
    last_refresh: float = 0.0

    def __repr__(self) -> str:
        return f"Node({self.name}={self.value})"


@dataclass(frozen=True)
class Enhancement:
    """An enhancement-mode transistor: ``a``-``b`` channel gated by ``gate``."""

    gate: str
    a: str
    b: str
    label: str = ""


@dataclass(frozen=True)
class DepletionLoad:
    """A depletion-mode pullup on ``node`` (gate tied to source)."""

    node: str
    label: str = ""


class Circuit:
    """A switch-level NMOS circuit.

    Parameters
    ----------
    name:
        For diagnostics.
    retention_ns:
        How long an undriven node retains charge; the paper's dynamic
        registers hold data "for no more than about 1 ms" (1e6 ns).
    """

    def __init__(self, name: str = "circuit", retention_ns: float = 1e6):
        self.name = name
        self.retention_ns = retention_ns
        self.nodes: Dict[str, Node] = {}
        self.transistors: List[Enhancement] = []
        self.loads: List[DepletionLoad] = []
        self.inputs: Dict[str, LogicValue] = {}
        self.time_ns: float = 0.0
        # Event-engine bookkeeping: the topology version invalidates the
        # engine's static index; _dirty_ext collects externally-perturbed
        # node names (pins toggled between settles).
        self._topo_version = 0
        self._dirty_ext: Set[str] = set()
        self._event_engine = None
        # Observability: attach_obs caches metric handles; probes (VCD
        # samplers) fire after every settle.  Both default empty, so the
        # settle hot path pays two cheap checks when observability is off.
        self.obs = None
        self._probes: List[object] = []
        self._m_settle = None
        self._m_passes = None
        self._g_comps = None
        self._g_nodes = None
        self.node(VDD).value = HIGH
        self.node(VDD).strength = Strength.FORCED
        self.node(GND).value = LOW
        self.node(GND).strength = Strength.FORCED

    # -- construction --------------------------------------------------------

    def node(self, name: str) -> Node:
        """Get or create a node."""
        n = self.nodes.get(name)
        if n is None:
            n = Node(name)
            self.nodes[name] = n
            self._topo_version += 1
        return n

    def add_enhancement(self, gate: str, a: str, b: str, label: str = "") -> Enhancement:
        """Add an enhancement transistor (pass transistor or pulldown)."""
        for t in (gate, a, b):
            self.node(t)
        e = Enhancement(gate, a, b, label)
        self.transistors.append(e)
        self._topo_version += 1
        return e

    def remove_enhancement(self, label: str) -> Enhancement:
        """Remove the first enhancement transistor whose label matches.

        Models an *open* -- a device disconnected from its net (a missing
        contact, a broken channel).  The nodes stay; only the switch goes.
        """
        for i, t in enumerate(self.transistors):
            if t.label == label:
                del self.transistors[i]
                self._topo_version += 1
                self._dirty_ext.update((t.a, t.b))
                return t
        raise CircuitError(f"no enhancement transistor labelled {label!r}")

    def add_depletion_load(self, node: str, label: str = "") -> DepletionLoad:
        """Add a depletion pullup on *node*."""
        self.node(node)
        d = DepletionLoad(node, label)
        self.loads.append(d)
        self._topo_version += 1
        return d

    def merge(self, other: "Circuit", prefix: str = "",
              connections: Optional[Dict[str, str]] = None) -> Dict[str, str]:
        """Instantiate *other* into this circuit.

        Every node of *other* (except rails) is renamed ``prefix + name``
        unless remapped by *connections* (sub-node -> this-circuit node).
        Returns the complete sub-name -> new-name mapping, so callers can
        locate internal nodes of the instance.
        """
        connections = connections or {}
        mapping: Dict[str, str] = {VDD: VDD, GND: GND}
        for name in other.nodes:
            if name in (VDD, GND):
                continue
            mapping[name] = connections.get(name, prefix + name)
            self.node(mapping[name])
        for t in other.transistors:
            self.add_enhancement(mapping[t.gate], mapping[t.a], mapping[t.b], t.label)
        for d in other.loads:
            self.add_depletion_load(mapping[d.node], d.label)
        return mapping

    # -- stimulus --------------------------------------------------------------

    def set_input(self, name: str, value) -> None:
        """Force a node from outside (a pin or a clock)."""
        if isinstance(value, bool) or value in (0, 1):
            value = HIGH if value in (True, 1) else LOW
        if not isinstance(value, LogicValue):
            raise CircuitError(f"bad input value {value!r}")
        self.node(name)
        self.inputs[name] = value
        self._dirty_ext.add(name)

    def release_input(self, name: str) -> None:
        """Stop forcing a node; it keeps charge until re-driven or decayed."""
        if self.inputs.pop(name, None) is not None:
            self._dirty_ext.add(name)

    # -- observability -------------------------------------------------------

    def attach_obs(self, obs) -> None:
        """Attach (or detach, with None) an Observability bundle.

        Settle calls and passes publish as ``circuit.settle.calls`` /
        ``circuit.settle.passes`` counters labelled by circuit name; the
        event engine's cumulative work counters mirror into gauges.  When
        the bundle's ``trace_circuit`` flag is set, each settle also
        records a ``circuit.settle`` span at the current ``time_ns``.
        """
        self.obs = obs
        if obs is None:
            self._m_settle = self._m_passes = None
            self._g_comps = self._g_nodes = None
            return
        reg = obs.registry
        self._m_settle = reg.counter("circuit.settle.calls", circuit=self.name)
        self._m_passes = reg.counter("circuit.settle.passes", circuit=self.name)
        self._g_comps = reg.gauge(
            "circuit.engine.comps_resolved", circuit=self.name
        )
        self._g_nodes = reg.gauge(
            "circuit.engine.nodes_changed", circuit=self.name
        )

    def add_probe(self, probe) -> None:
        """Register a sampler called after every settle (VCD capture)."""
        self._probes.append(probe)

    def engine_stats(self) -> Dict[str, int]:
        """Cumulative event-engine work counters (zeros before first use;
        reset whenever the topology changes and the engine rebuilds)."""
        eng = self._event_engine
        if eng is None:
            return {"passes": 0, "comps_resolved": 0, "nodes_changed": 0}
        return {
            "passes": eng.stat_passes,
            "comps_resolved": eng.stat_comps_resolved,
            "nodes_changed": eng.stat_nodes_changed,
        }

    # -- evaluation ---------------------------------------------------------------

    def settle(self, max_iterations: int = 60,
               strict_decay: bool = False) -> int:
        """Relax the circuit to a stable state (see simulator module).

        Returns the number of passes taken; ``strict_decay=True`` raises
        :class:`~repro.errors.ChargeDecayError` instead of reading decayed
        charge as UNKNOWN.
        """
        from .simulator import settle as _settle

        n = _settle(self, max_iterations, strict_decay=strict_decay)
        if self.obs is not None:
            self._m_settle.inc()
            self._m_passes.inc(n)
            eng = self._event_engine
            if eng is not None:
                self._g_comps.set(eng.stat_comps_resolved)
                self._g_nodes.set(eng.stat_nodes_changed)
            if self.obs.trace_circuit:
                self.obs.tracer.record(
                    "circuit.settle", t0=self.time_ns, t1=self.time_ns,
                    unit="ns", circuit=self.name, passes=n,
                )
        if self._probes:
            for probe in self._probes:
                probe.sample()
        return n

    def advance_time(self, dt_ns: float) -> None:
        """Advance simulated time (charge on undriven nodes ages)."""
        if dt_ns < 0:
            raise CircuitError("time cannot run backwards")
        self.time_ns += dt_ns

    def read(self, name: str) -> LogicValue:
        """The solved value of a node."""
        try:
            return self.nodes[name].value
        except KeyError:
            raise CircuitError(f"no node named {name!r}") from None

    def read_bool(self, name: str) -> bool:
        """The solved value as a boolean; raises on UNKNOWN."""
        v = self.read(name)
        if v is UNKNOWN:
            raise CircuitError(f"node {name!r} is UNKNOWN")
        return v is HIGH

    # -- stats ---------------------------------------------------------------------

    @property
    def n_transistors(self) -> int:
        """Enhancement + depletion device count (the paper-era size metric)."""
        return len(self.transistors) + len(self.loads)
