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

The event engine is compiled in the COSMOS sense (Bryant et al., DAC
1987): it pays per distinct cell shape and per real input change.

* **Shape tables.**  Each static component is canonicalized: members
  numbered locally in node order, its internal channels, rail channels
  and loads written over those numbers, and each distinct gate node as a
  *slot* in order of first appearance.  Components with one canonical
  form share one :class:`_Shape`, whose cache maps a gate key to a
  precompiled resolution plan (sub-components, rail/load/charge kind,
  their precomputed value and strength).  The paper's arrays are a few
  cells replicated: the compiled ``match_8x2`` chip has 141 components
  but 17 shapes.  A BIST defect (a stuck node, a bridge, an open)
  changes its instance's canonical form, so a faulted cell never shares
  its healthy twins' table.
* **Incremental gate keys.**  A component's key packs its slots' ternary
  values two bits each into one integer; writeback adjusts the keys of
  every component a node gates whenever that node's value changes, so
  re-keying is one cache lookup.
* **No self re-resolution.**  After a settle's first pass, a component
  whose only reason to re-resolve is its own last writeback is skipped:
  its partition is unchanged and, with no live MAYBE channel, resolving
  it again is idempotent.  (The one exception, a node released on the
  first pass with its refresh time already past retention, decays on the
  reference's next iteration; its component is re-resolved there.)  The
  set of nodes that change each pass, and so every pass count, is the
  reference's.
* **Lean writeback.**  A node whose value and strength both hold is not
  written; ``last_refresh`` matters only once a node is undriven, and a
  release stamps it from the settle it was last provably driven in.  The
  charge watch set is touched only on the charge side, and its decay
  deadline is lowered on an add and recomputed only when the node that
  held it leaves.

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

#: Per-shape partition-memo capacity; past this the cache is cleared (the
#: working set of a clocked shape over all its instances is tens of gate
#: keys -- at most 86 on the chip_flow design points -- so eviction only
#: triggers on pathological data-dependent components).
_PARTITION_CACHE_MAX = 128

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

#: Resolution-plan kind bit of a sub-component holding a depletion load;
#: the kind's low two bits are its rail mask (_VDD_BIT | _GND_BIT).
_LOAD_KIND = 4
#: Resolved (value, strength) pairs, built once: a loaded sub, a rail sub
#: by mask (apart / while any VDD-GND bridge exists), and pin or charge
#: subs indexed by value.
_LOADED = (HIGH, _LOAD)
_RAIL_VALUE = (None, (HIGH, _FORCED), (LOW, _FORCED), (UNKNOWN, _FORCED))
_RAIL_SHORTED = (None,) + ((UNKNOWN, _FORCED),) * 3
_PULLED = tuple((v, _PULL) for v in (LOW, HIGH, UNKNOWN))
_CHARGED = tuple((v, _CHARGE) for v in (LOW, HIGH, UNKNOWN))


class _Shape:
    """One canonical static component, shared by every instance of it.

    Members are numbered locally (0..n-1, in node order) and each
    distinct gate node is a *slot* whose ternary value sits at bit
    offset ``shift = 2 * slot`` of the component's integer gate key.
    The dynamic partition is a function of the shape and that key alone,
    so the instances of a replicated cell share one partition cache.
    """

    __slots__ = ("n", "internal", "rail_edges", "loads", "cache")

    def __init__(self, n: int, internal, rail_edges, loads):
        self.n = n
        #: (shift, a, b) channel edges between local members
        self.internal: Tuple[Tuple[int, int, int], ...] = internal
        #: (member, rail_bit, shift) channel edges to VDD/GND
        self.rail_edges: Tuple[Tuple[int, int, int], ...] = rail_edges
        #: local members carrying a depletion load
        self.loads: Tuple[int, ...] = loads
        self.cache: Dict[int, _LocalPart] = {}

    def partition(self, key: int) -> "_LocalPart":
        part = self.cache.get(key)
        if part is None:
            if len(self.cache) >= _PARTITION_CACHE_MAX:
                self.cache.clear()
            part = self.cache[key] = self._build(key)
        return part

    def _build(self, key: int) -> "_LocalPart":
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        maybe_int: List[Tuple[int, int]] = []
        for sh, a, b in self.internal:
            gv = (key >> sh) & 3
            if gv == HIGH:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
            elif gv == UNKNOWN:
                maybe_int.append((a, b))

        index: Dict[int, int] = {}
        sub_of: List[int] = []
        members: List[List[int]] = []
        for i in range(self.n):
            r = find(i)
            si = index.get(r)
            if si is None:
                si = index[r] = len(members)
                members.append([])
            members[si].append(i)
            sub_of.append(si)

        kinds = [0] * len(members)
        maybe_rail: List[Tuple[int, int]] = []
        for i, bit, sh in self.rail_edges:
            gv = (key >> sh) & 3
            if gv == HIGH:
                kinds[sub_of[i]] |= bit
            elif gv == UNKNOWN:
                maybe_rail.append((i, bit))
        for i in self.loads:
            kinds[sub_of[i]] |= _LOAD_KIND
        subs = tuple((tuple(mem), kind) for mem, kind in zip(members, kinds))
        return _LocalPart(tuple(sub_of), subs, maybe_int, maybe_rail)


class _LocalPart:
    """A shape's dynamic partition for one gate key: the resolution plan.

    Everything is in local member numbers, so one plan serves every
    instance of the shape.
    """

    __slots__ = ("sub_of", "subs", "maybe_int", "maybe_rail", "mask",
                 "short", "has_maybe", "vals", "vals_shorted", "charge")

    def __init__(self, sub_of, subs, maybe_int, maybe_rail):
        #: local member -> index of its sub-component in ``subs``
        self.sub_of: Tuple[int, ...] = sub_of
        #: (members, kind) per sub-component, members ascending; kind is
        #: the rail mask over ON channels | _LOAD_KIND for a loaded sub
        self.subs: Tuple[Tuple[Tuple[int, ...], int], ...] = subs
        #: (a, b) per MAYBE channel internal to the component
        self.maybe_int: Tuple[Tuple[int, int], ...] = tuple(maybe_int)
        #: (member, rail_bit) per MAYBE channel to a rail
        self.maybe_rail: Tuple[Tuple[int, int], ...] = tuple(maybe_rail)
        #: union of all sub rail masks / does any sub bridge both rails
        self.mask: int = 0
        self.short: bool = False
        for _, kind in subs:
            m = kind & 3
            self.mask |= m
            if m == (_VDD_BIT | _GND_BIT):
                self.short = True
        self.has_maybe: bool = bool(maybe_int or maybe_rail)
        #: precomputed (value, strength) per sub, rails apart / shorted;
        #: None for an undriven sub, resolved from its charge per pass
        self.vals = tuple(
            _RAIL_VALUE[kind & 3] if kind & 3 else _LOADED if kind else None
            for _, kind in subs
        )
        self.vals_shorted = tuple(
            _RAIL_SHORTED[kind & 3] if kind & 3 else v
            for (_, kind), v in zip(subs, self.vals)
        )
        #: indices of the undriven subs
        self.charge = tuple(si for si, v in enumerate(self.vals) if v is None)


class _Comp:
    """One static channel-connected component (rails excluded): an
    instance of a :class:`_Shape` over concrete nodes."""

    __slots__ = ("members", "nodes", "shape", "current")

    def __init__(self, members: Tuple[int, ...], nodes, shape: _Shape):
        #: global node ids in local member order
        self.members = members
        #: the member Node objects, same order
        self.nodes = nodes
        self.shape = shape
        #: partition for the component's current gate key, valid until one
        #: of its gate values changes (then the pass re-keys it)
        self.current: Optional[_LocalPart] = None


def _maybe_x(part: _LocalPart, vals, shorted: bool) -> Set[int]:
    """Local members a MAYBE channel may connect to a disagreeing side
    at least as strong: they read X (the reference's pessimism step)."""
    mx: Set[int] = set()
    sub_of = part.sub_of
    for a, b in part.maybe_int:
        sa_i, sb_i = sub_of[a], sub_of[b]
        if sa_i == sb_i:
            continue
        va, sa = vals[sa_i]
        vb, sb = vals[sb_i]
        if va is vb and va is not UNKNOWN:
            continue
        if sb >= sa:
            mx.add(a)
        if sa >= sb:
            mx.add(b)
    for i, bit in part.maybe_rail:
        si = sub_of[i]
        m = part.subs[si][1] & 3
        if m and (shorted or m == bit):
            continue  # same blob as the rail: reference skips too
        va = vals[si][0]
        vb = UNKNOWN if shorted else (HIGH if bit == _VDD_BIT else LOW)
        if va is vb and va is not UNKNOWN:
            continue
        # The rail side is FORCED, so it is always >= this side; the
        # rail node itself is never written back.
        mx.add(i)
    return mx


class _EventEngine:
    """Event-driven settler bound to one Circuit topology.

    Invariants between passes (and between settle calls):

    * every node's ``value``/``strength`` equals what a full reference
      pass would compute, for every node not in the pending dirty set;
    * ``_key[c]`` encodes component *c*'s current gate values (updated at
      writeback whenever a gate node's value changes);
    * ``_short_comps`` holds the components whose current partition
      bridges both rails, and ``_shorted`` whether any VDD-GND bridge
      exists anywhere;
    * ``_watch`` is exactly the set of nodes holding known charge
      (strength <= CHARGE), and ``_deadline`` the earliest instant any of
      them could decay (None: recompute from the watch set).
    """

    def __init__(self, circuit: Circuit, prev_now: Optional[float] = None):
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
        #: node id -> its index among its component's members
        self.local_of: List[int] = [-1] * self.n
        members: List[List[int]] = []
        for i in range(self.n):
            if i in rails:
                continue
            r = find(i)
            c = self.comp_of[r]
            if c < 0:
                c = len(members)
                members.append([])
                self.comp_of[r] = c
            self.comp_of[i] = c
            self.local_of[i] = len(members[c])
            members[c].append(i)

        # Each component in local terms; gates become slots in order of
        # first appearance, so replicated cells canonicalize alike.
        local_of = self.local_of
        internal: List[list] = [[] for _ in members]
        rail_edges: List[list] = [[] for _ in members]
        loads: List[list] = [[] for _ in members]
        slots: List[Dict[int, int]] = [{} for _ in members]
        #: gates of direct rail-rail channels (a VDD-GND transistor)
        self.rr_gates: Set[int] = set()
        for g, a, b in edges:
            a_rail, b_rail = a in rails, b in rails
            if a_rail and b_rail:
                self.rr_gates.add(g)
                continue
            c = self.comp_of[b if a_rail else a]
            sh = slots[c].setdefault(g, 2 * len(slots[c]))
            if a_rail or b_rail:
                node_id, rail = (b, a) if a_rail else (a, b)
                bit = _VDD_BIT if rail == vdd else _GND_BIT
                rail_edges[c].append((local_of[node_id], bit, sh))
            else:
                internal[c].append((sh, local_of[a], local_of[b]))
        for d in circuit.loads:
            li = iid[d.node]
            if li not in rails:
                loads[self.comp_of[li]].append(local_of[li])

        shapes: Dict[tuple, _Shape] = {}
        self.comps: List[_Comp] = []
        #: per component, its gate values packed two bits per slot
        self._key: List[int] = []
        gate_slots: Dict[int, List[Tuple[int, int]]] = {}
        nodes = self.node_objs
        for c, mem in enumerate(members):
            sig = (len(mem), tuple(internal[c]), tuple(rail_edges[c]),
                   tuple(sorted(loads[c])))
            shape = shapes.get(sig)
            if shape is None:
                shape = shapes[sig] = _Shape(*sig)
            self.comps.append(
                _Comp(tuple(mem), tuple(nodes[i] for i in mem), shape)
            )
            key = 0
            for g, sh in slots[c].items():
                key |= int(nodes[g].value) << sh
                gate_slots.setdefault(g, []).append((c, sh))
            self._key.append(key)
        #: gate id -> (component, shift) per component it keys (or None)
        self.gate_slots: List[Optional[Tuple[Tuple[int, int], ...]]] = (
            [None] * self.n
        )
        for g, cs in gate_slots.items():
            self.gate_slots[g] = tuple(cs)
        #: gate id -> components whose partition depends on it
        self.gate_comps: Dict[int, Tuple[int, ...]] = {
            g: tuple(c for c, _ in cs) for g, cs in gate_slots.items()
        }

        self._short_comps: Set[int] = set()
        self._shorted = False
        self._rr_on = False
        self._rr_stale = bool(self.rr_gates)

        #: nodes to re-examine on the next settle: every node for a new
        #: engine, else the last worklist of a settle that raised
        self._pending: Set[int] = set(range(self.n))
        #: nodes currently holding known charge, for decay tracking (a
        #: rebuilt engine inherits the charge the old one left behind)
        self._watch: Set[int] = {
            i for i, node in enumerate(nodes)
            if i not in rails and node.strength <= _CHARGE
            and node.value is not UNKNOWN
        }
        self._deadline: Optional[float] = None  # None = recompute lazily
        #: time of the previous completed settle().  The reference engine
        #: refreshes every driven node on every settle; we skip untouched
        #: components, so when a node transitions driven -> undriven we
        #: backfill last_refresh to this instant (the latest settle during
        #: which it was provably still driven).  A rebuilt engine carries
        #: it over from the one the topology change retired.
        self._prev_now: float = (
            circuit.time_ns if prev_now is None else prev_now
        )

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
        part = comp.current = comp.shape.partition(self._key[c])
        if part.short:
            self._short_comps.add(c)
        elif self._short_comps:
            self._short_comps.discard(c)
        return part

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
        # Forced pins per component, by local member.
        comp_of, local_of = self.comp_of, self.local_of
        pins: Dict[int, Dict[int, LogicValue]] = {}
        for name, pinned in circuit.inputs.items():
            i = iid.get(name)
            if i is not None and comp_of[i] >= 0:
                pins.setdefault(comp_of[i], {})[local_of[i]] = pinned
        # A node released on the first pass is stamped with the previous
        # settle's time; if that is already past retention, the reference
        # reads it as decayed on its next iteration (if there is one), so
        # its component must re-resolve then.
        stale: Optional[List[int]] = (
            [] if circuit.time_ns - self._prev_now > circuit.retention_ns
            else None
        )
        try:
            for iteration in range(max_iterations):
                if not changed and not extra:
                    self._prev_now = circuit.time_ns
                    return iteration + 1
                changed = self._pass(
                    changed, extra, pins, strict_decay,
                    first_pass=iteration == 0, stale=stale,
                )
                extra, stale = stale or (), None
                if not changed:
                    self._prev_now = circuit.time_ns
                    return iteration + 1
        except ChargeDecayError:
            # Keep the worklist for the retry.  Perturbed nodes go back to
            # the circuit's dirty set, so the retry re-resolves them without
            # mistaking them for value changes.  Passes that completed
            # refreshed every node still driven, as the reference's do.
            self._pending = changed
            ext.update(self.names[i] for i in extra)
            if iteration:
                self._prev_now = circuit.time_ns
            raise
        self._pending = changed
        raise CircuitError(
            f"{circuit.name}: did not settle in {max_iterations} iterations "
            f"(oscillating or ill-formed circuit)"
        )

    def _pass(self, changed_in, extra_in, pins, strict_decay,
              first_pass: bool = True,
              stale: Optional[List[int]] = None) -> Set[int]:
        """One event pass over the components touching the dirty nodes.

        *changed_in* holds nodes whose value changed (their gate fanout is
        re-keyed and their components re-resolved); *extra_in* holds
        externally perturbed nodes (component re-resolution only).
        Returns the set of nodes whose value changed (the next worklist).

        After the first pass, a component whose only reason to
        re-resolve is its own last writeback is skipped: its partition is
        unchanged and, with no live MAYBE channel, its resolution is
        idempotent, so re-resolving it could change nothing.  (Its one
        exception, a stale release, comes back through *extra_in*.)

        *first_pass* selects the driven->undriven backfill timestamp: the
        reference engine refreshes every driven node on every iteration,
        so a node released on iteration 1 keeps the *previous* settle's
        stamp, while one released by a later-iteration cascade (a gate
        flipping mid-settle) was still refreshed at ``now`` by the
        iterations before the cascade reached it.  *stale*, when given,
        collects released nodes whose backfilled stamp is past retention.
        """
        circuit = self.circuit
        comp_of = self.comp_of
        gate_comps = self.gate_comps
        rr_gates = self.rr_gates
        comps = self.comps

        rekey: Set[int] = set()
        own: Set[int] = set()
        for d in changed_in:
            c = comp_of[d]
            if c >= 0:
                own.add(c)
            gated = gate_comps.get(d)
            if gated:
                rekey.update(gated)
            if d in rr_gates:
                self._rr_stale = True
        if self._rr_stale:
            nodes = self.node_objs
            self._rr_on = any(nodes[g].value is HIGH for g in rr_gates)
            self._rr_stale = False

        # Re-key (``_local`` inlined: this is the hot loop).
        parts: Dict[int, _LocalPart] = {}
        keys = self._key
        short_comps = self._short_comps
        for c in rekey:
            comp = comps[c]
            part = comp.shape.cache.get(keys[c])
            if part is None:
                part = comp.shape.partition(keys[c])
            comp.current = parts[c] = part
            if part.short:
                short_comps.add(c)
            elif short_comps:
                short_comps.discard(c)
        for d in extra_in:
            c = comp_of[d]
            if c >= 0 and c not in parts:
                part = comps[c].current
                parts[c] = self._local(c) if part is None else part
        for c in own:
            if c not in parts:
                part = comps[c].current
                if part is None:
                    part = self._local(c)
                elif not first_pass and not part.has_maybe:
                    continue
                parts[c] = part

        shorted = self._rr_on or bool(short_comps)
        if shorted != self._shorted:
            # A VDD-GND bridge appeared or cleared: the merged rail blob
            # changes value chip-wide, so every rail-touching component
            # must re-resolve this very pass -- including components whose
            # only rail contact is a MAYBE channel, since the rail value
            # their pessimism step compares against just changed.
            for c, comp in enumerate(comps):
                part = comp.current
                if (part is not None and (part.mask or part.maybe_rail)
                        and c not in parts):
                    parts[c] = part

        now = circuit.time_ns
        retention = circuit.retention_ns

        # Resolution per sub-component, with the strength lattice inlined:
        # a rail path wins at FORCED outright (only another rail could tie,
        # and rail-vs-rail is the shorted case already folded in); a pin at
        # PULL beats any load; retained charge only matters when nothing at
        # all drives the sub.  Several pins on one sub fold among
        # themselves first (equal PULLs agree, disagreement fights to X),
        # matching the reference's order-independent resolve() chain.
        # Every sub is resolved before anything is written: a strict decay
        # error must name the node the reference names (the first decayed
        # member of the undriven sub whose earliest node comes first in
        # node order) and leave the circuit untouched.
        decayed: Optional[Tuple[int, int]] = None  # (sub's first node, node)
        plans = []
        for c, part in parts.items():
            vals = part.vals_shorted if shorted else part.vals
            pl = pins.get(c)
            charge = part.charge
            comp = comps[c]
            if pl is None and not charge:
                plans.append((comp, part, vals, None))
                continue
            vals = list(vals)
            subs = part.subs
            if pl is not None:
                sub_of = part.sub_of
                pin_sub: Dict[int, LogicValue] = {}
                for i, pv in pl.items():
                    si = sub_of[i]
                    v = pin_sub.get(si)
                    if v is None:
                        pin_sub[si] = pv
                    elif v is not pv:
                        pin_sub[si] = UNKNOWN
                for si, pv in pin_sub.items():
                    if not subs[si][1] & 3:
                        vals[si] = _PULLED[pv]
            cn = comp.nodes
            for si in charge:
                if vals[si] is not None:
                    continue  # pinned
                mem = subs[si][0]
                v = None
                for i in mem:
                    node = cn[i]
                    stored = node.value
                    if (
                        node.strength <= _CHARGE
                        and stored is not UNKNOWN
                        and now - node.last_refresh > retention
                    ):
                        if strict_decay:
                            gm = comp.members
                            pick = (gm[mem[0]], gm[i])
                            if decayed is None or pick < decayed:
                                decayed = pick
                        stored = UNKNOWN
                    if v is None:
                        v = stored
                    elif v is not stored:
                        v = UNKNOWN
                vals[si] = _CHARGED[v]
            plans.append((comp, part, vals, pl))
        if decayed is not None:
            node = self.node_objs[decayed[1]]
            raise ChargeDecayError(
                f"{circuit.name}: node {node.name} read "
                f"{now - node.last_refresh:.0f} ns after last refresh "
                f"(retention {retention:.0f} ns)"
            )
        self._shorted = shorted

        # Writeback.  A changed gate value re-keys every component it
        # gates.  A node whose value and drive both hold is left alone:
        # ``last_refresh`` is only read once a node is undriven, and a
        # release stamps it from ``backfill`` (the reference refreshes
        # driven nodes every iteration, so a node released on the first
        # pass was last refreshed by the previous settle, one released by
        # a later-pass cascade at this settle's ``now``).  The watch set
        # is touched only on the charge side.
        changed: Set[int] = set()
        gate_slots = self.gate_slots
        watch = self._watch
        deadline = self._deadline
        backfill = self._prev_now if first_pass else now
        for comp, part, vals, pl in plans:
            cn = comp.nodes
            gm = comp.members
            # Per-member overrides: pinned nodes, then MAYBE pessimism.
            over = None
            if pl is not None or part.has_maybe:
                over = {}
                if part.has_maybe:
                    sub_of = part.sub_of
                    for i in _maybe_x(part, vals, shorted):
                        over[i] = (UNKNOWN, vals[sub_of[i]][1])
                if pl is not None:
                    for i, pv in pl.items():
                        over[i] = (pv, _FORCED)
            for (mem, _), (v, s) in zip(part.subs, vals):
                for i in mem:
                    node = cn[i]
                    if over is not None and i in over:
                        value_n, strength_n = over[i]
                    else:
                        value_n, strength_n = v, s
                    old = node.value
                    old_s = node.strength
                    if old is not value_n:
                        g = gm[i]
                        changed.add(g)
                        node.value = value_n
                        gated = gate_slots[g]
                        if gated is not None:
                            delta = value_n - old
                            for c2, sh in gated:
                                keys[c2] += delta << sh
                    elif old_s is strength_n:
                        continue
                    node.strength = strength_n
                    g = gm[i]
                    if strength_n >= _LOAD:
                        if old_s <= _CHARGE and g in watch:
                            watch.discard(g)
                            if (deadline is not None and node.last_refresh
                                    + retention <= deadline):
                                deadline = None
                        continue
                    if old_s >= _LOAD:
                        node.last_refresh = backfill
                        if stale is not None and value_n is not UNKNOWN:
                            stale.append(g)
                    if value_n is not UNKNOWN:
                        if g not in watch:
                            watch.add(g)
                            if deadline is not None:
                                t = node.last_refresh + retention
                                if t < deadline:
                                    deadline = t
                    elif g in watch:
                        watch.discard(g)
                        if (deadline is not None and node.last_refresh
                                + retention <= deadline):
                            deadline = None
        self._deadline = deadline
        self.stat_passes += 1
        self.stat_comps_resolved += len(parts)
        self.stat_nodes_changed += len(changed)
        return changed


def _engine_for(circuit: Circuit) -> _EventEngine:
    engine = circuit._event_engine
    if engine is None or engine.topo_version != circuit._topo_version:
        prev_now = None if engine is None else engine._prev_now
        engine = _EventEngine(circuit, prev_now)
        circuit._event_engine = engine
    return engine


def settle(circuit: Circuit, max_iterations: int = 60,
           strict_decay: bool = False) -> int:
    """Settle *circuit* to a fixed point; returns the iteration count.

    Uses the event-driven engine; bit-identical to
    :func:`settle_reference` (asserted by the differential test suite).
    """
    return _engine_for(circuit).settle(max_iterations, strict_decay)
