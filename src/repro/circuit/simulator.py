"""The switch-level solver: event-driven engine plus the reference relaxer.

Evaluation follows the classic switch-level discipline (Bryant's MOSSIM,
specialised to ratioed NMOS):

1. classify every enhancement channel as ON / OFF / MAYBE from its gate
   value;
2. group nodes into channel-connected components over the ON edges;
3. resolve each component's value from its strongest contributions --
   forced pins, rails reached through channels (PULL), depletion loads
   (LOAD), stored charge (CHARGE); equal-strength disagreement gives X.
   A pulldown path to GND therefore overpowers a depletion load, which is
   exactly the ratioed-logic design rule the paper's gates depend on;
4. propagate pessimism across MAYBE channels: a component whose
   maybe-neighbour is at least as strong and disagrees becomes X;
5. write back node values and repeat until a fixed point (gate values feed
   step 1), with an iteration cap that flags oscillating circuits.

Two engines implement those semantics:

* :func:`settle_reference` -- the original whole-netlist relaxer: every
  pass re-partitions and re-resolves every node.  Kept as the executable
  specification; the differential tests in
  ``tests/test_circuit_settle_equivalence.py`` hold the fast engine to it
  bit for bit.

* :func:`settle` (the default, used by :meth:`Circuit.settle`) -- the
  event-driven engine.  It decomposes the netlist once per topology into
  *static* channel-connected components (maximal groups of nodes joined
  by transistor channels, with the supply rails treated as terminals
  rather than connectors -- the classic switch-level preprocessing step),
  memoises each component's dynamic partition keyed by its few local gate
  values (the two-phase clock cycles every component through a handful of
  configurations, so steady-state beats skip partitioning entirely), and
  each pass only re-resolves components reachable from nodes that
  actually changed -- toggled inputs, rewritten gate nodes, or charge
  whose retention deadline has passed.  Components away from the activity
  are never touched, which is what makes whole-array netlists clockable
  at speed.

Rails as terminals: the reference engine merges components *through* a
rail, so every node with a conducting path to GND shares one component
with GND itself, and a single VDD-GND short anywhere drives that entire
merged blob to X at FORCED strength.  The event engine reproduces this
exactly without ever materialising the blob: a sub-component touching one
rail resolves to that rail's value at FORCED, and a global ``shorted``
flag (any sub-component bridging both rails, or a direct rail-rail
channel turned on) switches every rail-touching sub-component to X,
re-dirtying them all the moment the flag flips.

Charge decay: a component resolved at CHARGE strength keeps its nodes'
``last_refresh`` timestamps; when simulated time has advanced more than
the retention window since a node was last driven, its stored value reads
as UNKNOWN.  This is the "dynamic shift registers ... are incapable of
holding data for more than about 1 ms without shifting" of Section 3.3.3,
and the strict mode raises :class:`~repro.errors.ChargeDecayError` so
tests can assert the failure mode.  The event engine tracks the earliest
retention deadline over all charge-holding nodes, so clock beats that
cannot have decayed anything pay nothing for the check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import ChargeDecayError, CircuitError
from .netlist import GND, VDD, Circuit
from .signals import HIGH, LOW, UNKNOWN, LogicValue, Strength, resolve

#: Per-component partition-memo capacity; past this the cache is cleared
#: (the working set of a clocked component is a handful of gate vectors,
#: so eviction only triggers on pathological data-dependent components).
_PARTITION_CACHE_MAX = 128

_NONE = Strength.NONE
_CHARGE = Strength.CHARGE
_LOAD = Strength.LOAD
_PULL = Strength.PULL
_FORCED = Strength.FORCED

_VDD_BIT = 1
_GND_BIT = 2


class _UnionFind:
    """Plain union-find over node names (reference engine only)."""

    def __init__(self, names):
        self.parent = {n: n for n in names}

    def find(self, x: str) -> str:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


# ---------------------------------------------------------------------------
# Reference engine: the original whole-netlist relaxation pass.
# ---------------------------------------------------------------------------

def settle_reference(circuit: Circuit, max_iterations: int = 60,
                     strict_decay: bool = False) -> int:
    """Relax *circuit* to a fixed point with the reference engine.

    Semantically identical to :func:`settle` (the differential tests
    assert it), re-partitioning and re-resolving the whole netlist every
    pass.  Use it as the ground truth when validating engine changes.
    """
    # The reference engine writes node state behind the event engine's
    # back; drop any cached engine so a later settle() rebuilds cleanly.
    circuit._event_engine = None
    for iteration in range(max_iterations):
        changed = _reference_pass(circuit, strict_decay)
        if not changed:
            return iteration + 1
    raise CircuitError(
        f"{circuit.name}: did not settle in {max_iterations} iterations "
        f"(oscillating or ill-formed circuit)"
    )


def _reference_pass(circuit: Circuit, strict_decay: bool) -> bool:
    """One relaxation pass; returns True if any node value changed."""
    nodes = circuit.nodes
    now = circuit.time_ns
    retention = circuit.retention_ns

    on_edges: List[Tuple[str, str]] = []
    maybe_edges: List[Tuple[str, str]] = []
    for t in circuit.transistors:
        g = nodes[t.gate].value
        if g is HIGH:
            on_edges.append((t.a, t.b))
        elif g is UNKNOWN:
            maybe_edges.append((t.a, t.b))

    uf = _UnionFind(nodes.keys())
    for a, b in on_edges:
        uf.union(a, b)

    members: Dict[str, List[str]] = {}
    for name in nodes:
        members.setdefault(uf.find(name), []).append(name)

    loads_by_node: Dict[str, bool] = {d.node: True for d in circuit.loads}

    resolved: Dict[str, Tuple[LogicValue, Strength]] = {}
    for root, group in members.items():
        value, strength = UNKNOWN, Strength.NONE
        for name in group:
            node = nodes[name]
            # Rails are infinite sources: a path to VDD/GND dominates any
            # other driver in the component (ratioed-logic pulldowns win;
            # a forced pin cannot out-drive the ground network it shorts
            # to).  Two rails in one component still fight to X.
            if name == VDD:
                value, strength = resolve(value, strength, HIGH, Strength.FORCED)
            elif name == GND:
                value, strength = resolve(value, strength, LOW, Strength.FORCED)
            if name in circuit.inputs:
                # Through channels a forced pin drives at PULL strength,
                # like the rails: a pass-transistor chain attenuates, so an
                # external driver must not overpower an active pulldown
                # deep inside the circuit (that mis-modelling lets power-on
                # garbage lock itself in via conducting multiplexer paths).
                # The pin node itself is re-pinned FORCED at writeback.
                value, strength = resolve(
                    value, strength, circuit.inputs[name], Strength.PULL
                )
            if name in loads_by_node:
                value, strength = resolve(value, strength, HIGH, Strength.LOAD)
        if strength <= Strength.CHARGE:
            # Undriven component: retained charge (with decay).
            for name in group:
                node = nodes[name]
                stored = node.value
                if (
                    node.strength <= Strength.CHARGE
                    and now - node.last_refresh > retention
                    and stored is not UNKNOWN
                ):
                    if strict_decay:
                        raise ChargeDecayError(
                            f"{circuit.name}: node {name} read "
                            f"{now - node.last_refresh:.0f} ns after last "
                            f"refresh (retention {retention:.0f} ns)"
                        )
                    stored = UNKNOWN
                value, strength = resolve(value, strength, stored, Strength.CHARGE)
        resolved[root] = (value, strength)

    # Pessimism across MAYBE channels, applied to the transistor's own
    # terminal nodes rather than whole components: an unknown gate may
    # connect its two terminals, so a terminal whose side is no stronger
    # than the other side might take the other side's value -- mark it X.
    # (Component-wide downgrade would smear X across the entire GND/VDD
    # networks, wiping out every active pulldown in the circuit.)
    maybe_x: set = set()
    for a, b in maybe_edges:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            continue
        va, sa = resolved[ra]
        vb, sb = resolved[rb]
        if va == vb and va is not UNKNOWN:
            continue
        if sb >= sa:
            maybe_x.add(a)
        if sa >= sb:
            maybe_x.add(b)

    changed = False
    for root, group in members.items():
        value, strength = resolved[root]
        driven = strength >= Strength.LOAD
        for name in group:
            node = nodes[name]
            if name == VDD or name == GND:
                continue
            if name in circuit.inputs:
                value_n, strength_n = circuit.inputs[name], Strength.FORCED
            elif name in maybe_x:
                value_n, strength_n = UNKNOWN, strength
            else:
                value_n, strength_n = value, strength
            if node.value != value_n:
                changed = True
            node.value = value_n
            node.strength = strength_n
            if driven or name in circuit.inputs:
                node.last_refresh = now
    return changed


# ---------------------------------------------------------------------------
# Event-driven engine.
# ---------------------------------------------------------------------------

class _Comp:
    """One static channel-connected component (rails excluded).

    Fixed per topology: the member nodes, the channel edges internal to
    the component, the edges to a rail terminal, the depletion loads, and
    the gate nodes whose values shape the component's dynamic partition.
    """

    __slots__ = ("members", "internal", "rail_edges", "loads", "gates",
                 "cache", "current")

    def __init__(self):
        self.members: List[int] = []
        #: (gate_id, a_id, b_id) channel edges with both terminals here
        self.internal: List[Tuple[int, int, int]] = []
        #: (node_id, rail_bit, gate_id) channel edges to VDD/GND
        self.rail_edges: List[Tuple[int, int, int]] = []
        self.loads: List[int] = []
        #: sorted gate ids -> the component's partition-cache key layout
        self.gates: Tuple[int, ...] = ()
        self.cache: Dict[bytes, "_LocalPart"] = {}
        #: partition for the component's current gate vector, valid until
        #: one of its gate values changes (then the pass re-keys it)
        self.current: Optional["_LocalPart"] = None


class _LocalPart:
    """One component's dynamic partition for a fixed local gate vector."""

    __slots__ = ("root", "subs", "base", "rails", "maybe_int", "maybe_rail",
                 "mask", "short", "has_maybe")

    def __init__(self, root, subs, base, rails, maybe_int, maybe_rail):
        #: member id -> sub-component root id (a member id; globally unique)
        self.root: Dict[int, int] = root
        #: sub root -> member ids
        self.subs: Dict[int, List[int]] = subs
        #: sub root -> (value, strength) from depletion loads
        self.base: Dict[int, Tuple[LogicValue, Strength]] = base
        #: sub root -> rail bitmask (_VDD_BIT | _GND_BIT) over ON edges
        self.rails: Dict[int, int] = rails
        #: (a, b) per MAYBE channel internal to the component
        self.maybe_int: List[Tuple[int, int]] = maybe_int
        #: (node_id, rail_bit) per MAYBE channel to a rail
        self.maybe_rail: List[Tuple[int, int]] = maybe_rail
        #: union of all sub masks / does any sub bridge both rails
        self.mask: int = 0
        self.short: bool = False
        for m in rails.values():
            self.mask |= m
            if m == (_VDD_BIT | _GND_BIT):
                self.short = True
        self.has_maybe: bool = bool(maybe_int or maybe_rail)


class _EventEngine:
    """Event-driven settler bound to one Circuit topology.

    Invariants between passes (and between settle calls):

    * every node's ``value``/``strength`` equals what a full reference
      pass would compute, for every node not in the pending dirty set;
    * ``_comp_mask``/``_short_comps`` reflect each component's partition
      at its current gate vector, and ``_shorted`` whether any VDD-GND
      bridge exists anywhere;
    * ``_watch`` is exactly the set of nodes holding known charge
      (strength <= CHARGE), and ``_deadline`` the earliest instant any of
      them could decay.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.topo_version = circuit._topo_version

        names = list(circuit.nodes.keys())
        self.names = names
        self.iid: Dict[str, int] = {n: i for i, n in enumerate(names)}
        self.node_objs = [circuit.nodes[n] for n in names]
        self.n = len(names)
        vdd = self.iid[VDD]
        gnd = self.iid[GND]
        rails = (vdd, gnd)

        # Static components: union-find over channel edges between
        # non-rail terminals; rails are terminals, not connectors.
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        iid = self.iid
        edges = [
            (iid[t.gate], iid[t.a], iid[t.b]) for t in circuit.transistors
        ]
        for _, a, b in edges:
            if a not in rails and b not in rails:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb

        self.comp_of: List[int] = [-1] * self.n
        self.comps: List[_Comp] = []
        for i in range(self.n):
            if i in rails:
                continue
            r = find(i)
            c = self.comp_of[r]
            if c < 0:
                c = len(self.comps)
                self.comps.append(_Comp())
                self.comp_of[r] = c
            self.comp_of[i] = c
            self.comps[c].members.append(i)

        #: gates of direct rail-rail channels (a VDD-GND transistor)
        self.rr_gates: Set[int] = set()
        comp_gates: List[Set[int]] = [set() for _ in self.comps]
        for g, a, b in edges:
            a_rail, b_rail = a in rails, b in rails
            if a_rail and b_rail:
                self.rr_gates.add(g)
                continue
            if a_rail or b_rail:
                node_id, rail = (b, a) if a_rail else (a, b)
                bit = _VDD_BIT if rail == vdd else _GND_BIT
                c = self.comp_of[node_id]
                self.comps[c].rail_edges.append((node_id, bit, g))
            else:
                c = self.comp_of[a]
                self.comps[c].internal.append((g, a, b))
            comp_gates[c].add(g)
        for c, comp in enumerate(self.comps):
            comp.gates = tuple(sorted(comp_gates[c]))
        for d in circuit.loads:
            li = iid[d.node]
            if li not in rails:
                self.comps[self.comp_of[li]].loads.append(li)

        #: gate id -> components whose partition depends on it
        self.gate_comps: Dict[int, Tuple[int, ...]] = {}
        gc: Dict[int, Set[int]] = {}
        for c, comp in enumerate(self.comps):
            for g in comp.gates:
                gc.setdefault(g, set()).add(c)
        self.gate_comps = {g: tuple(cs) for g, cs in gc.items()}

        #: current rail mask / short state per component (valid once the
        #: initial all-dirty pass has visited every component)
        self._comp_mask: List[int] = [0] * len(self.comps)
        #: components whose current partition reaches a rail only through
        #: a MAYBE channel; they too must re-resolve on a short transition
        self._comp_maybe_rail: List[bool] = [False] * len(self.comps)
        self._short_comps: Set[int] = set()
        self._shorted = False
        self._rr_on = False
        self._rr_stale = bool(self.rr_gates)

        #: nodes to re-examine on the next pass (carried across settles
        #: when a settle raised mid-way)
        self._pending: Set[int] = set(range(self.n))
        #: nodes currently holding known charge, for decay tracking
        self._watch: Set[int] = set()
        self._deadline: Optional[float] = None  # None = recompute lazily
        #: time of the previous completed settle().  The reference engine
        #: refreshes every driven node on every settle; we skip untouched
        #: components, so when a node transitions driven -> undriven we
        #: backfill last_refresh to this instant (the latest settle during
        #: which it was provably still driven).
        self._prev_now: float = circuit.time_ns

        #: cumulative work counters, exposed through
        #: ``Circuit.engine_stats()`` and published into the metrics
        #: registry when an Observability bundle is attached to the
        #: circuit.  Reset with the engine (any topology change).
        self.stat_passes = 0
        self.stat_comps_resolved = 0
        self.stat_nodes_changed = 0

    # -- local partitions --------------------------------------------------

    def _local(self, c: int) -> _LocalPart:
        comp = self.comps[c]
        nodes = self.node_objs
        key = bytes(int(nodes[g].value) for g in comp.gates)
        part = comp.cache.get(key)
        if part is None:
            if len(comp.cache) >= _PARTITION_CACHE_MAX:
                comp.cache.clear()
            part = self._build_local(comp)
            comp.cache[key] = part
        comp.current = part
        self._comp_mask[c] = part.mask
        self._comp_maybe_rail[c] = bool(part.maybe_rail)
        if part.short:
            self._short_comps.add(c)
        else:
            self._short_comps.discard(c)
        return part

    def _build_local(self, comp: _Comp) -> _LocalPart:
        nodes = self.node_objs
        parent = {i: i for i in comp.members}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        maybe_int: List[Tuple[int, int]] = []
        for g, a, b in comp.internal:
            gv = nodes[g].value
            if gv is HIGH:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
            elif gv is UNKNOWN:
                maybe_int.append((a, b))

        root = {i: find(i) for i in comp.members}
        subs: Dict[int, List[int]] = {}
        for i in comp.members:
            subs.setdefault(root[i], []).append(i)

        rails: Dict[int, int] = {}
        maybe_rail: List[Tuple[int, int]] = []
        for node_id, bit, g in comp.rail_edges:
            gv = nodes[g].value
            if gv is HIGH:
                r = root[node_id]
                rails[r] = rails.get(r, 0) | bit
            elif gv is UNKNOWN:
                maybe_rail.append((node_id, bit))

        base: Dict[int, Tuple[LogicValue, Strength]] = {}
        for li in comp.loads:
            r = root[li]
            v, s = base.get(r, (UNKNOWN, _NONE))
            base[r] = resolve(v, s, HIGH, _LOAD)

        return _LocalPart(root, subs, base, rails, maybe_int, maybe_rail)

    # -- decay tracking ----------------------------------------------------

    def _decay_deadline(self) -> float:
        if self._deadline is None:
            nodes = self.node_objs
            self._deadline = (
                min(nodes[i].last_refresh for i in self._watch)
                + self.circuit.retention_ns
            )
        return self._deadline

    # -- settling ----------------------------------------------------------

    def settle(self, max_iterations: int, strict_decay: bool) -> int:
        circuit = self.circuit
        iid = self.iid
        changed = self._pending
        self._pending = set()
        # Externally-perturbed nodes (pins toggled, charge past its
        # deadline): their components need re-resolving, but their values
        # have not changed yet, so no gate fanout to chase this pass.
        extra: Set[int] = set()
        ext = circuit._dirty_ext
        if ext:
            for name in ext:
                i = iid.get(name)
                if i is not None:
                    extra.add(i)
            ext.clear()
        if self._watch and circuit.time_ns > self._decay_deadline():
            extra |= self._watch
        pinned_ids: Dict[int, LogicValue] = {}
        for name, pinned in circuit.inputs.items():
            i = iid.get(name)
            if i is not None:
                pinned_ids[i] = pinned
        try:
            for iteration in range(max_iterations):
                if not changed and not extra:
                    self._prev_now = circuit.time_ns
                    return iteration + 1
                changed = self._pass(changed, extra, pinned_ids, strict_decay,
                                     first_pass=iteration == 0)
                extra = ()
                if not changed:
                    self._prev_now = circuit.time_ns
                    return iteration + 1
        except ChargeDecayError:
            # Leave the worklist intact so the next settle retries.
            self._pending = changed | set(extra)
            raise
        self._pending = changed
        raise CircuitError(
            f"{circuit.name}: did not settle in {max_iterations} iterations "
            f"(oscillating or ill-formed circuit)"
        )

    def _pass(self, changed_in, extra_in, pinned_ids, strict_decay,
              first_pass: bool = True) -> Set[int]:
        """One event pass over the components touching the dirty nodes.

        *changed_in* holds nodes whose value changed (their gate fanout is
        chased and their components re-keyed); *extra_in* holds externally
        perturbed nodes (component re-resolution only).  Returns the set
        of nodes whose value changed (the next worklist).

        *first_pass* selects the driven->undriven backfill timestamp: the
        reference engine refreshes every driven node on every iteration,
        so a node released on iteration 1 keeps the *previous* settle's
        stamp, while one released by a later-iteration cascade (a gate
        flipping mid-settle) was still refreshed at ``now`` by the
        iterations before the cascade reached it.
        """
        circuit = self.circuit
        nodes = self.node_objs
        comp_of = self.comp_of
        gate_comps = self.gate_comps
        rr_gates = self.rr_gates
        comps = self.comps

        rekey: Set[int] = set()
        dirty_comps: Set[int] = set()
        for d in changed_in:
            c = comp_of[d]
            if c >= 0:
                dirty_comps.add(c)
            gated = gate_comps.get(d)
            if gated:
                rekey.update(gated)
            if d in rr_gates:
                self._rr_stale = True
        for d in extra_in:
            c = comp_of[d]
            if c >= 0:
                dirty_comps.add(c)
        if self._rr_stale:
            self._rr_on = any(nodes[g].value is HIGH for g in rr_gates)
            self._rr_stale = False

        parts: Dict[int, _LocalPart] = {}
        have_maybe = False
        for c in rekey:
            part = parts[c] = self._local(c)
            if part.has_maybe:
                have_maybe = True
        for c in dirty_comps:
            if c not in parts:
                part = comps[c].current
                if part is None:
                    part = self._local(c)
                parts[c] = part
                if part.has_maybe:
                    have_maybe = True

        shorted = self._rr_on or bool(self._short_comps)
        if shorted != self._shorted:
            # A VDD-GND bridge appeared or cleared: the merged rail blob
            # changes value chip-wide, so every rail-touching component
            # must re-resolve this very pass -- including components whose
            # only rail contact is a MAYBE channel, since the rail value
            # their pessimism step compares against just changed.
            self._shorted = shorted
            for c, mask in enumerate(self._comp_mask):
                if (mask or self._comp_maybe_rail[c]) and c not in parts:
                    part = parts[c] = self._local(c)
                    if part.has_maybe:
                        have_maybe = True

        # Forced pins, bucketed per sub-component root up front.  Several
        # pins on one sub fold among themselves first (equal PULLs agree,
        # disagreement fights to X at PULL), which matches the reference's
        # order-independent resolve() chain.
        pin_root: Dict[int, LogicValue] = {}
        for i, pinned in pinned_ids.items():
            c = comp_of[i]
            if c in parts:
                r = parts[c].root[i]
                v = pin_root.get(r)
                if v is None:
                    pin_root[r] = pinned
                elif v != pinned:
                    pin_root[r] = UNKNOWN

        now = circuit.time_ns
        retention = circuit.retention_ns

        # Resolution per sub-component, with the strength lattice inlined:
        # a rail path wins at FORCED outright (only another rail could tie,
        # and rail-vs-rail is the shorted case already folded in); a pin at
        # PULL beats any load; retained charge only matters when nothing at
        # all drives the sub.  Sub-components are independent except for
        # the MAYBE pessimism step, so when no MAYBE channels are live
        # (every steady-state pass) the writeback is fused into the sweep.
        # Strict decay defers the writeback too: the error must name the
        # node the reference names (the first decayed member of the
        # undriven sub whose earliest node comes first in node order), so
        # every sub is resolved before anything is raised or written.
        deferred = have_maybe or strict_decay
        decayed: Optional[Tuple[int, int]] = None  # (sub's first node, node)
        res: Dict[int, Tuple[LogicValue, Strength]] = {}
        changed: Set[int] = set()
        watch = self._watch
        backfill = self._prev_now if first_pass else now
        for part in parts.values():
            base = part.base
            rails = part.rails
            for sub, mem in part.subs.items():
                m = rails.get(sub, 0)
                if m:
                    if shorted:
                        v = UNKNOWN
                    elif m == _VDD_BIT:
                        v = HIGH
                    else:
                        v = LOW
                    s = _FORCED
                else:
                    pv = pin_root.get(sub)
                    if pv is not None:
                        v, s = pv, _PULL
                    else:
                        b = base.get(sub)
                        if b is not None:
                            v, s = b
                        else:
                            v, s = UNKNOWN, _NONE
                            for i in mem:
                                node = nodes[i]
                                stored = node.value
                                if (
                                    node.strength <= _CHARGE
                                    and now - node.last_refresh > retention
                                    and stored is not UNKNOWN
                                ):
                                    if strict_decay:
                                        pick = (min(mem), i)
                                        if decayed is None or pick < decayed:
                                            decayed = pick
                                    stored = UNKNOWN
                                if s is _NONE:
                                    v, s = stored, _CHARGE
                                elif v != stored:
                                    v = UNKNOWN
                if deferred:
                    res[sub] = (v, s)
                    continue
                # Fused writeback (no MAYBE pessimism this pass).
                driven = s >= _LOAD
                for i in mem:
                    node = nodes[i]
                    pinned = pinned_ids.get(i)
                    if pinned is not None:
                        value_n, strength_n = pinned, _FORCED
                    else:
                        value_n, strength_n = v, s
                    if node.value != value_n:
                        changed.add(i)
                        node.value = value_n
                    was_driven = node.strength >= _LOAD
                    node.strength = strength_n
                    if driven or pinned is not None:
                        node.last_refresh = now
                    elif was_driven and node.last_refresh != now:
                        # Driven until this pass: the retention window
                        # starts at the previous settle when released on
                        # the first pass, at this settle's `now` when a
                        # later-pass cascade cut the drive (the reference
                        # engine refreshes driven nodes every iteration,
                        # we only touch dirty ones).
                        node.last_refresh = backfill
                    if strength_n <= _CHARGE and value_n is not UNKNOWN:
                        if i not in watch:
                            watch.add(i)
                            self._deadline = None
                    elif i in watch:
                        watch.discard(i)
                        self._deadline = None
        if decayed is not None:
            node = nodes[decayed[1]]
            raise ChargeDecayError(
                f"{circuit.name}: node {node.name} read "
                f"{now - node.last_refresh:.0f} ns after last refresh "
                f"(retention {retention:.0f} ns)"
            )
        self.stat_passes += 1
        self.stat_comps_resolved += len(parts)
        if not deferred:
            self.stat_nodes_changed += len(changed)
            return changed

        maybe_x: Set[int] = set()
        for part in parts.values():
            root = part.root
            for a, b in part.maybe_int:
                ra, rb = root[a], root[b]
                if ra == rb:
                    continue
                va, sa = res[ra]
                vb, sb = res[rb]
                if va == vb and va is not UNKNOWN:
                    continue
                if sb >= sa:
                    maybe_x.add(a)
                if sa >= sb:
                    maybe_x.add(b)
            for node_id, bit in part.maybe_rail:
                r = root[node_id]
                m = part.rails.get(r, 0)
                if m and (shorted or m == bit):
                    continue  # same blob as the rail: reference skips too
                va, sa = res[r]
                vb = UNKNOWN if shorted else (HIGH if bit == _VDD_BIT else LOW)
                if va == vb and va is not UNKNOWN:
                    continue
                # The rail side is FORCED, so it is always >= this side;
                # the rail node itself is never written back.
                maybe_x.add(node_id)

        for part in parts.values():
            for sub, mem in part.subs.items():
                value, strength = res[sub]
                driven = strength >= _LOAD
                for i in mem:
                    node = nodes[i]
                    pinned = pinned_ids.get(i)
                    if pinned is not None:
                        value_n, strength_n = pinned, _FORCED
                    elif i in maybe_x:
                        value_n, strength_n = UNKNOWN, strength
                    else:
                        value_n, strength_n = value, strength
                    if node.value != value_n:
                        changed.add(i)
                        node.value = value_n
                    was_driven = node.strength >= _LOAD
                    node.strength = strength_n
                    if driven or pinned is not None:
                        node.last_refresh = now
                    elif was_driven and node.last_refresh != now:
                        node.last_refresh = backfill
                    if strength_n <= _CHARGE and value_n is not UNKNOWN:
                        if i not in watch:
                            watch.add(i)
                            self._deadline = None
                    elif i in watch:
                        watch.discard(i)
                        self._deadline = None
        self.stat_nodes_changed += len(changed)
        return changed


def _engine_for(circuit: Circuit) -> _EventEngine:
    engine = circuit._event_engine
    if engine is None or engine.topo_version != circuit._topo_version:
        engine = _EventEngine(circuit)
        circuit._event_engine = engine
    return engine


def settle(circuit: Circuit, max_iterations: int = 60,
           strict_decay: bool = False) -> int:
    """Settle *circuit* to a fixed point; returns the iteration count.

    Uses the event-driven engine; bit-identical to
    :func:`settle_reference` (asserted by the differential test suite).
    """
    return _engine_for(circuit).settle(max_iterations, strict_decay)
