"""Differential test: the event-driven settle engine vs the reference.

:func:`repro.circuit.simulator.settle` (event-driven, incremental) and
:func:`repro.circuit.simulator.settle_reference` (whole-netlist fixpoint)
must leave a circuit in *identical* state -- every node's value, drive
strength and refresh timestamp -- after every stimulus, including the
awkward regimes: MAYBE transistors from UNKNOWN gates, charge storage
and decay past the retention window, strict-decay errors, VDD-GND
shorts, and released inputs.  Two structurally identical circuits are
built, one driven by each engine, and compared after every operation.
Beyond the random small netlists, replicated cells (so that components
share one partition table) and whole compiled chips clocked through a
seeded stream are held to the reference too.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Alphabet
from repro.circuit import GND, HIGH, LOW, UNKNOWN, VDD, Circuit, simulator
from repro.circuit.gates import (
    inverter,
    nand2,
    pass_transistor,
    xnor_from_rails,
)
from repro.circuit.signals import Strength
from repro.circuit.simulator import settle, settle_reference
from repro.compiler import compile_workload
from repro.compiler.simulate import feed_plan
from repro.errors import ChargeDecayError, CircuitError


def assert_same_state(c_evt: Circuit, c_ref: Circuit, context: str = "") -> None:
    assert set(c_evt.nodes) == set(c_ref.nodes)
    for name, ref in c_ref.nodes.items():
        evt = c_evt.nodes[name]
        where = f"node {name!r} {context}"
        assert evt.value is ref.value, f"value diverged at {where}"
        assert evt.strength == ref.strength, f"strength diverged at {where}"
        # The refresh clock is only observable on undriven storage: the
        # event engine defers refreshing driven nodes it never visits and
        # backfills when they transition to undriven.
        if ref.strength <= Strength.CHARGE:
            assert evt.last_refresh == ref.last_refresh, (
                f"refresh clock diverged at {where}"
            )


def settle_both(c_evt: Circuit, c_ref: Circuit, context: str = "",
                strict: bool = False):
    """Settle each circuit with its engine; both must agree on outcome.

    Returns the exception type (or None).  On an exception the mid-pass
    state is engine-defined, so callers should stop comparing states.
    """
    err_evt = err_ref = None
    msg_evt = msg_ref = None
    try:
        settle(c_evt, strict_decay=strict)
    except (ChargeDecayError, CircuitError) as e:
        err_evt, msg_evt = type(e), str(e)
    try:
        settle_reference(c_ref, strict_decay=strict)
    except (ChargeDecayError, CircuitError) as e:
        err_ref, msg_ref = type(e), str(e)
    assert err_evt is err_ref, (
        f"engines disagree on failure {context}: {err_evt} vs {err_ref}"
    )
    assert msg_evt == msg_ref, f"error text diverged {context}"
    if err_evt is None:
        assert_same_state(c_evt, c_ref, context)
    return err_evt


def build_random_pair(rng: random.Random):
    """Two structurally identical random small netlists."""
    c_evt = Circuit("dut", retention_ns=500.0)
    c_ref = Circuit("dut", retention_ns=500.0)
    names = [f"n{i}" for i in range(rng.randint(2, 6))]
    terminals = names + [VDD, GND]
    for _ in range(rng.randint(1, 9)):
        gate = rng.choice(names)
        a, b = rng.sample(terminals, 2)
        c_evt.add_enhancement(gate, a, b)
        c_ref.add_enhancement(gate, a, b)
    for _ in range(rng.randint(0, 2)):
        n = rng.choice(names)
        c_evt.add_depletion_load(n)
        c_ref.add_depletion_load(n)
    return c_evt, c_ref, names


def random_stimulus(rng: random.Random, names):
    """One random operation: drive, release, or age the charge."""
    roll = rng.random()
    if roll < 0.55:
        return ("set", rng.choice(names),
                rng.choice([HIGH, LOW, LOW, HIGH, UNKNOWN]))
    if roll < 0.8:
        return ("release", rng.choice(names), None)
    return ("advance", None, rng.choice([100.0, 400.0, 700.0]))


def apply_both(c_evt: Circuit, c_ref: Circuit, op, name, arg) -> None:
    for c in (c_evt, c_ref):
        if op == "set":
            c.set_input(name, arg)
        elif op == "release":
            c.release_input(name)
        else:
            c.advance_time(arg)


class TestRandomNetlists:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    # Two undriven groups decay in one strict settle; both engines must
    # name the reference's pick (first group in node order), not whichever
    # the event engine happens to resolve first.
    @example(seed=2306)
    def test_engines_agree_over_random_runs(self, seed):
        rng = random.Random(seed)
        c_evt, c_ref, names = build_random_pair(rng)
        strict = rng.random() < 0.25
        for op_i in range(rng.randint(1, 12)):
            op, name, arg = random_stimulus(rng, names)
            if op == "set":
                c_evt.set_input(name, arg)
                c_ref.set_input(name, arg)
            elif op == "release":
                c_evt.release_input(name)
                c_ref.release_input(name)
            else:
                c_evt.advance_time(arg)
                c_ref.advance_time(arg)
            err = settle_both(
                c_evt, c_ref, f"(seed {seed}, op {op_i}: {op})", strict=strict
            )
            if err is not None:
                return  # post-exception state is engine-defined

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_engines_agree_when_stimuli_batch_up(self, seed):
        """Several operations between settles: time advances while pins
        change, so a node released on a settle's first pass may already be
        past retention, and a new node can rebuild the engine after time
        moved.  A strict decay error is followed by a non-strict retry,
        which must agree again."""
        rng = random.Random(seed)
        c_evt, c_ref, names = build_random_pair(rng)
        for op_i in range(rng.randint(1, 16)):
            op, name, arg = random_stimulus(rng, names)
            apply_both(c_evt, c_ref, op, name, arg)
            if rng.random() < 0.5:
                continue
            context = f"(seed {seed}, op {op_i}: {op})"
            err = settle_both(c_evt, c_ref, context,
                              strict=rng.random() < 0.15)
            if err is ChargeDecayError:
                err = settle_both(c_evt, c_ref, context + " retry")
            if err is not None:
                return  # an oscillation: post-exception state is engine-defined


def build_replicated_pair(rng: random.Random):
    """Two identical netlists of k copies of one random small cell.

    The copies share their gate nodes ``clk0``/``clk1`` (a clock), so
    every static component of a copy has the same shape as its twins'.
    One copy gets an extra transistor: a near-isomorphic neighbour that
    must not share their partition table.
    """
    cell = Circuit("cell")
    local = [f"n{i}" for i in range(rng.randint(2, 4))]
    clocks = ["clk0", "clk1"]
    for name in local + clocks:
        cell.node(name)
    terminals = local + [VDD, GND]
    for _ in range(rng.randint(1, 6)):
        a, b = rng.sample(terminals, 2)
        cell.add_enhancement(rng.choice(local + clocks), a, b)
    for _ in range(rng.randint(0, 2)):
        cell.add_depletion_load(rng.choice(local))
    k = rng.randint(3, 5)
    odd = rng.randrange(k)
    odd_nodes = [f"u{odd}.{n}" for n in local]
    a, b = rng.sample(odd_nodes + [VDD, GND], 2)
    gate = rng.choice(odd_nodes + clocks)

    pair = (Circuit("dut", retention_ns=500.0),
            Circuit("dut", retention_ns=500.0))
    for c in pair:
        for u in range(k):
            c.merge(cell, prefix=f"u{u}.",
                    connections={clk: clk for clk in clocks})
        c.add_enhancement(gate, a, b)
    names = clocks + [f"u{u}.{n}" for u in range(k) for n in local]
    return pair, names


class TestReplicatedCells:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_replicated_cells_agree_with_reference(self, seed):
        rng = random.Random(seed)
        (c_evt, c_ref), names = build_replicated_pair(rng)
        strict = rng.random() < 0.25
        for op_i in range(rng.randint(1, 12)):
            op, name, arg = random_stimulus(rng, names)
            apply_both(c_evt, c_ref, op, name, arg)
            err = settle_both(
                c_evt, c_ref, f"(seed {seed}, op {op_i}: {op})", strict=strict
            )
            if op_i == 0 and err is None:
                # The healthy twins really do share partition tables.
                comps = c_evt._event_engine.comps
                assert len({id(comp.shape) for comp in comps}) < len(comps)
            if err is not None:
                return  # post-exception state is engine-defined


class _Tape:
    """A settle probe recording every node's observable state."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.states = []
        circuit.add_probe(self)

    def sample(self) -> None:
        self.states.append([
            (name, node.value, node.strength,
             node.last_refresh if node.strength <= Strength.CHARGE else None)
            for name, node in self.circuit.nodes.items()
        ])


class TestCompiledChips:
    """Whole compiled chips, clocked through a seeded stream once with the
    event engine and once with the reference: after every settle each
    node's value, strength and (undriven) refresh clock, and every
    settle's pass count, must agree."""

    @pytest.mark.parametrize("kernel, cells, bits, n_chars", [
        ("match", 4, 2, 6),
        ("count", 3, 2, 6),
        ("inner-product", 3, 2, 5),
    ])
    def test_compiled_chip_agrees_with_reference(self, kernel, cells, bits,
                                                 n_chars, monkeypatch):
        rng = random.Random(f"{kernel}:{cells}x{bits}")
        chip = compile_workload(kernel, cells, char_bits=bits, data_bits=bits)
        if kernel == "inner-product":
            top = (1 << bits) - 1
            params = [rng.randint(0, top) for _ in range(cells)]
            stream = [rng.randint(0, top) for _ in range(n_chars)]
            alphabet = None
        else:
            params = "".join(rng.choice("ABCDX") for _ in range(cells))
            stream = "".join(rng.choice("ABCD") for _ in range(n_chars))
            alphabet = Alphabet("ABCD")
        plan = feed_plan(chip.spec, params, stream, alphabet)
        evt, ref = chip.reset_netlist(), chip.reset_netlist()

        event_settle = simulator.settle
        monkeypatch.setattr(
            simulator, "settle",
            lambda c, *a, **k: (
                settle_reference if c is ref.circuit else event_settle
            )(c, *a, **k),
        )
        tapes = (_Tape(evt.circuit), _Tape(ref.circuit))
        for beat in range(plan.n_beats):
            for net in (evt, ref):
                for pin, bit in plan.drive[beat].items():
                    net.drive_pin(pin, bit)
                net.pulse(beat)
            assert evt.clock.passes == ref.clock.passes, f"beat {beat}"
            for k, (got, want) in enumerate(zip(*(t.states for t in tapes))):
                if got != want:
                    node = next(w for g, w in zip(got, want) if g != w)
                    pytest.fail(f"{kernel}: beat {beat}, settle {k}: "
                                f"node {node[0]!r} diverged")
            assert len(tapes[0].states) == len(tapes[1].states) == 2
            for t in tapes:
                t.states.clear()


class TestStructuredScenarios:
    def _pair(self, retention_ns=1000.0):
        return (Circuit("dut", retention_ns=retention_ns),
                Circuit("dut", retention_ns=retention_ns))

    def test_inverter_chain_toggles(self):
        c_evt, c_ref = self._pair()
        for c in (c_evt, c_ref):
            inverter(c, "a", "b")
            inverter(c, "b", "d")
            inverter(c, "d", "e")
        for v in (HIGH, LOW, HIGH, HIGH, UNKNOWN, LOW):
            for c in (c_evt, c_ref):
                c.set_input("a", v)
            settle_both(c_evt, c_ref, f"input {v}")

    def test_maybe_gate_from_unknown_input(self):
        c_evt, c_ref = self._pair()
        for c in (c_evt, c_ref):
            nand2(c, "a", "b", "y")
            c.set_input("a", UNKNOWN)
            c.set_input("b", HIGH)
        settle_both(c_evt, c_ref, "MAYBE pulldown")
        assert c_evt.read("y") is UNKNOWN

    def test_xnor_from_rails_short_regime(self):
        c_evt, c_ref = self._pair()
        for c in (c_evt, c_ref):
            inverter(c, "a", "a_bar")
            inverter(c, "b", "b_bar")
            xnor_from_rails(c, "a", "a_bar", "b", "b_bar", "y")
        for va, vb in [(HIGH, HIGH), (HIGH, LOW), (LOW, HIGH),
                       (LOW, LOW), (UNKNOWN, HIGH)]:
            for c in (c_evt, c_ref):
                c.set_input("a", va)
                c.set_input("b", vb)
            settle_both(c_evt, c_ref, f"xnor {va},{vb}")

    def test_charge_storage_release_and_decay(self):
        c_evt, c_ref = self._pair(retention_ns=1000.0)
        for c in (c_evt, c_ref):
            pass_transistor(c, "g", "a", "st")
            c.set_input("a", HIGH)
            c.set_input("g", HIGH)
        settle_both(c_evt, c_ref, "charging")
        for c in (c_evt, c_ref):
            c.set_input("g", LOW)
        settle_both(c_evt, c_ref, "isolated")
        for c in (c_evt, c_ref):
            c.release_input("a")
        settle_both(c_evt, c_ref, "released driver")
        for c in (c_evt, c_ref):
            c.advance_time(600.0)
        settle_both(c_evt, c_ref, "aged within retention")
        for c in (c_evt, c_ref):
            c.advance_time(600.0)
        settle_both(c_evt, c_ref, "aged past retention")
        assert c_evt.read("st") is UNKNOWN

    def test_strict_decay_raises_identically(self):
        c_evt, c_ref = self._pair(retention_ns=1000.0)
        for c in (c_evt, c_ref):
            pass_transistor(c, "g", "a", "st")
            c.set_input("a", HIGH)
            c.set_input("g", HIGH)
        settle_both(c_evt, c_ref, "charge")
        for c in (c_evt, c_ref):
            c.set_input("g", LOW)
        settle_both(c_evt, c_ref, "isolate")
        for c in (c_evt, c_ref):
            c.advance_time(2000.0)
        err = settle_both(c_evt, c_ref, "strict decay", strict=True)
        assert err is ChargeDecayError

    def test_settle_after_decay_error_recovers(self):
        c = Circuit("dut", retention_ns=1000.0)
        pass_transistor(c, "g", "a", "st")
        c.set_input("a", HIGH)
        c.set_input("g", HIGH)
        settle(c)
        c.set_input("g", LOW)
        settle(c)
        c.advance_time(2000.0)
        with pytest.raises(ChargeDecayError):
            settle(c, strict_decay=True)
        # Non-strict retry must still converge and read decayed charge
        # as UNKNOWN (the event engine keeps its worklist across errors).
        settle(c)
        assert c.read("st") is UNKNOWN

    def test_maybe_x_spreads_through_stored_charge(self):
        """An X written across a MAYBE channel into a charge-holding group
        spreads to the rest of the group on the next pass.  That pass
        re-checks the component only because of its own writeback, which
        the event engine may skip solely when no MAYBE channel is live."""
        c_evt, c_ref = self._pair()
        for c in (c_evt, c_ref):
            pass_transistor(c, "gx", "p", "q")
            pass_transistor(c, "on", "q", "r")
            c.set_input("on", HIGH)
            c.set_input("gx", HIGH)
            c.set_input("p", LOW)
        settle_both(c_evt, c_ref, "drive q, r low")
        for c in (c_evt, c_ref):
            c.set_input("gx", LOW)
        settle_both(c_evt, c_ref, "q, r hold charge")
        for c in (c_evt, c_ref):
            c.set_input("p", HIGH)
            c.set_input("gx", UNKNOWN)
        settle_both(c_evt, c_ref, "MAYBE channel to a disagreeing pin")
        assert c_evt.read("r") is UNKNOWN

    def test_retry_after_decay_error_replays_pin_toggle(self):
        """A strict settle raises right after a pin toggle; the retry must
        re-resolve the toggled pin as an external perturbation (not as a
        value change of its own) and equal the reference."""
        c_evt, c_ref = self._pair(retention_ns=1000.0)
        for c in (c_evt, c_ref):
            pass_transistor(c, "g", "a", "st")
            inverter(c, "x", "y")
            inverter(c, "y", "z")
            c.set_input("a", HIGH)
            c.set_input("g", HIGH)
            c.set_input("x", LOW)
        settle_both(c_evt, c_ref, "charge")
        for c in (c_evt, c_ref):
            c.set_input("g", LOW)
        settle_both(c_evt, c_ref, "isolate")
        for c in (c_evt, c_ref):
            c.advance_time(2000.0)
            c.set_input("x", HIGH)
        err = settle_both(c_evt, c_ref, "strict decay", strict=True)
        assert err is ChargeDecayError
        settle_both(c_evt, c_ref, "non-strict retry")
        assert c_evt.read("z") is HIGH
        assert c_evt.read("st") is UNKNOWN

    def test_release_past_retention_decays_on_the_next_pass(self):
        """A pin released after a gap longer than the retention window,
        with no settle in between, is stamped with the previous settle's
        time: the reference reads it as decayed on its second iteration
        (another pin's toggle forces one), so the event engine must
        re-resolve it there too."""
        for strict in (False, True):
            c_evt, c_ref = self._pair(retention_ns=1000.0)
            for c in (c_evt, c_ref):
                pass_transistor(c, "g", "st", "b")
                inverter(c, "x", "y")
                c.set_input("st", HIGH)
                c.set_input("g", HIGH)
                c.set_input("x", HIGH)
            settle_both(c_evt, c_ref, "drive")
            for c in (c_evt, c_ref):
                c.advance_time(2000.0)
                c.release_input("st")
                c.set_input("x", LOW)
            err = settle_both(c_evt, c_ref, "release past retention",
                              strict=strict)
            if strict:
                assert err is ChargeDecayError
            else:
                assert c_evt.read("b") is UNKNOWN

    def test_rebuild_keeps_previous_settle_time(self):
        """A new node rebuilds the engine after time moved on; a node
        released on the next settle's first pass is still stamped with the
        previous settle's time, as the reference stamps it."""
        c_evt, c_ref = self._pair(retention_ns=1000.0)
        for c in (c_evt, c_ref):
            pass_transistor(c, "g", "a", "st")
            c.set_input("a", HIGH)
            c.set_input("g", HIGH)
        settle_both(c_evt, c_ref, "drive")
        for c in (c_evt, c_ref):
            c.advance_time(100.0)
            c.release_input("a")
            c.set_input("fresh", LOW)  # a new node: topology change
        settle_both(c_evt, c_ref, "release after rebuild")
        assert c_evt.nodes["st"].last_refresh == 0.0

    def test_refresh_backfill_when_decay_cascade_cuts_drive(self):
        """Regression (hypothesis seed 1195): a node driven through a
        channel whose *gate* holds decayed charge loses its drive only on
        the second settle iteration -- the decay must first turn the gate
        UNKNOWN, and only then does the channel go MAYBE.  The reference
        engine refreshed the node at `now` during the first iteration, so
        the event engine's driven->undriven backfill must use `now`, not
        the previous settle's time, when the release happens in a
        later pass."""
        c_evt, c_ref = self._pair(retention_ns=500.0)
        for c in (c_evt, c_ref):
            pass_transistor(c, "g", "src", "n")
            c.set_input("src", HIGH)
            c.set_input("g", HIGH)
        settle_both(c_evt, c_ref, "drive n through g")
        for c in (c_evt, c_ref):
            c.release_input("g")  # g now holds charge; n still driven
        settle_both(c_evt, c_ref, "g floats")
        for c in (c_evt, c_ref):
            c.advance_time(400.0)
        settle_both(c_evt, c_ref, "inside retention")
        for c in (c_evt, c_ref):
            c.advance_time(400.0)  # g's charge decays; channel goes MAYBE
        settle_both(c_evt, c_ref, "decay cascade releases n")
        assert c_evt.nodes["n"].strength <= Strength.CHARGE

    def test_short_transition_reresolves_maybe_rail_components(self):
        """Regression (hypothesis seed 328): a component whose only rail
        contact is a MAYBE channel (UNKNOWN gate) must re-resolve when a
        VDD-GND short appears or clears elsewhere -- the rail value its
        pessimism step compares against changes chip-wide, even though
        none of its own gates moved."""
        c_evt, c_ref = self._pair()
        for c in (c_evt, c_ref):
            # n: load-held HIGH, touching VDD only through gate g, which
            # is never driven (UNKNOWN) -- a MAYBE rail edge, mask 0.
            c.add_enhancement("g", VDD, "n")
            c.add_depletion_load("n")
            # m: bridges the rails when both a and b conduct.
            c.add_enhancement("a", VDD, "m")
            c.add_enhancement("b", GND, "m")
            c.set_input("a", HIGH)
        settle_both(c_evt, c_ref, "no short yet")
        assert c_evt.read("n") is HIGH
        for c in (c_evt, c_ref):
            c.set_input("b", HIGH)  # short appears; rail blob goes X
        settle_both(c_evt, c_ref, "short appears")
        assert c_evt.read("n") is UNKNOWN
        for c in (c_evt, c_ref):
            c.set_input("b", LOW)  # short clears; rails split again
        settle_both(c_evt, c_ref, "short clears")
        assert c_evt.read("n") is HIGH
