"""chip_flow: spec to signed-off, simulated, oracle-checked silicon.

Each round takes every design point of :func:`perfbench.inputs.design_points`
through ``compile_workload``, the transistor netlist, the full signoff
pipeline and a switch-level run of a seeded 64-character stream.  A
point's latency is that whole flow; the oracle and fast-engine checks
run after its clock stops.  A run makes a fixed number of rounds for its
``--seconds``, each with fresh seeded streams, so every commit does the
same work.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional

from .common import (
    Outcome, SetupClock, import_s, median, peak_rss_mb, percentile, tail,
)
from .farm import check_layer_sum
from .inputs import chip_stream, design_points
from .layers import LayerTimer, layer_table
from .speed import probe, scale

LAYERS = {
    "compiler.compile_ms": ("compiler.compile",),
    "compiler.netlist_ms": ("compiler.netlist",),
    "compiler.physical_ms": ("compiler.physical",),
    "compiler.simulate_ms": ("compiler.simulate",),
    "signoff.drc_ms": ("signoff.drc",),
    "signoff.extraction_ms": ("signoff.extraction",),
    "signoff.lvs_ms": ("signoff.lvs",),
    "signoff.erc_ms": ("signoff.erc",),
    "signoff.timing_ms": ("signoff.timing",),
    "signoff.assembly_ms": ("signoff.assembly",),
    "circuit.settle.ms": ("circuit.settle",),
}
#: Rounds per second of ``--seconds``.  Fixed, so that the amount of
#: work does not follow the speed of the program under test.  A round
#: takes about 2.5 s on a 2-core x86 box.  With five rounds per 10 s run
#: the spread over ten seeds reached 0.23 on a noisy host; with ten, two
#: sets read 0.06 and 0.08.
ROUNDS_PER_S = 1.0

#: Over six sets of ten runs on a 2-core x86 box, hours apart, full
#: scaling left run-to-run spreads up to 0.17, and none (raw wall-clock)
#: let the median drift 38% between sets; the power 0.75 kept the
#: spreads to 0.13 and the medians within 10% of each other.
PROBE_POWER = 0.75


def n_rounds(seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_S))


class _Pass:
    def __init__(self) -> None:
        self.latency: List[float] = []  # wall seconds per design point
        self.probes: List[float] = []  # host-speed probe before each
        self.rounds = 0
        self.chars = 0
        self.sim_ns = 0.0

    def ref(self, seconds: float) -> float:
        """*seconds* in reference seconds, by the run's median probe.

        One factor per run: a single probe is too short to stand for a
        flow of a second, but the median of a run's probes tracks how
        fast the host ran during it.  The flow (netlists, settle) moves
        less than the probe's compute loop when the host changes speed,
        so the factor is damped to the power PROBE_POWER.
        """
        return scale(seconds, median(self.probes), PROBE_POWER)


def _flow(seed: int, rounds: int, alphabet, out: Outcome,
          timer: Optional[LayerTimer] = None) -> _Pass:
    from repro.compiler import compile_workload
    from repro.workloads import get_workload

    points = design_points(seed)
    p = _Pass()
    while p.rounds < rounds:
        for point in points:
            stream = chip_stream(seed, p.rounds, point)
            numeric = point.kernel == "inner-product"
            al = None if numeric else alphabet
            out.attempted += 1
            p.probes.append(probe())
            if timer is not None:
                timer.on = True
            t0 = time.perf_counter()
            try:
                with timer.layer("compiler.compile") if timer else nullcontext():
                    chip = compile_workload(
                        point.kernel, point.cells, char_bits=point.char_bits,
                        data_bits=point.data_bits)
                chip.netlist  # builds the transistor netlist
                report = chip.signoff()
                got = chip.simulate(point.params, stream, al, engine="switch")
                t1 = time.perf_counter()
            except Exception as exc:  # a failed flow counts; the run goes on
                if timer is not None:
                    timer.on = False
                out.fail(1, f"chip_flow: {point.kernel}: "
                            f"{type(exc).__name__}: {exc}")
                continue
            if timer is not None:
                timer.on = False
            p.latency.append(t1 - t0)
            p.chars += len(stream)
            p.sim_ns += chip.netlist.circuit.time_ns
            spec = get_workload(point.kernel)
            params = [float(v) for v in point.params] if numeric \
                else point.params
            feed = [float(v) for v in stream] if numeric else stream
            want = spec.run(params, feed, al, engine="oracle")
            fast = spec.run(params, feed, al, engine="fast")
            if not report.ok:
                out.fail(1, f"chip_flow: {chip.spec.name} failed signoff")
            elif got != want or fast != want:
                out.fail(1, f"chip_flow: {chip.spec.name} differs from "
                            f"the oracle")
        p.rounds += 1
    return p


def _setup():
    """chip_flow serves nothing: set-up is importing the flow."""
    from repro.alphabet import Alphabet
    import repro.circuit  # noqa: F401 - loaded before the first flow
    import repro.compiler  # noqa: F401
    import repro.signoff.pipeline  # noqa: F401

    clock = SetupClock()
    return Alphabet("ABCD"), clock.ref(import_s(
        "repro.alphabet", "repro.compiler", "repro.signoff.pipeline",
        "repro.circuit", clock=clock,
    ))


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    alphabet, setup_s = _setup()
    if trace:
        return _traced(seed, seconds, out, alphabet)
    p = _flow(seed, n_rounds(seconds), alphabet, out)
    ms = [1e3 * p.ref(t) for t in p.latency]
    n = len(ms)
    total = p.ref(sum(p.latency))
    out.put("setup_s", setup_s, "s", 5,
            "import of compiler, signoff, circuit: median of 5 interpreters, "
            "reference seconds")
    out.put("jobs_per_s", n / total, "1/s", n,
            f"design points through the whole flow, {p.rounds} rounds")
    out.put("items_per_s", p.chars / total, "1/s", p.chars,
            "stream characters taken through the flow and simulated at "
            "switch level")
    out.put("latency_p50_ms", percentile(ms, 50), "ms", n,
            "one design point, spec to signed-off and simulated")
    out.detail["latency_tail"] = tail(ms)
    out.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    out.detail["flow_s"] = (
        f"{total / p.rounds:.4f} s per round of {len(design_points(seed))} "
        f"design points ({p.rounds} rounds)"
    )
    out.detail["sim.ns_per_char"] = f"{p.sim_ns / p.chars:.6g}"
    out.detail["wall_latency_ms"] = (
        f"p50 {1e3 * median(p.latency):.4f} (unscaled); probe median "
        f"{1e3 * median(p.probes):.4f} ms"
    )
    return out


def _install(timer: LayerTimer) -> None:
    from repro.circuit.netlist import Circuit
    from repro.compiler import CompiledChip
    from repro.signoff.pipeline import Signoff

    timer.patch(CompiledChip, "netlist", "compiler.netlist")
    timer.patch(CompiledChip, "bundles", "compiler.physical")
    timer.patch(CompiledChip, "assembler", "compiler.physical")
    timer.patch(CompiledChip, "simulate", "compiler.simulate")
    for stage in ("drc", "extraction", "lvs", "erc", "timing"):
        timer.patch(Signoff, f"{stage}_stage", f"signoff.{stage}")
    timer.patch(Signoff, "assembly_stage_for", "signoff.assembly")
    timer.patch(Circuit, "settle", "circuit.settle")


def _traced(seed, seconds, out: Outcome, alphabet) -> Outcome:
    """Pass A untraced for half the rounds; pass B repeats them with
    every layer wrapped."""
    rounds = n_rounds(seconds / 2)
    p_a = _flow(seed, rounds, alphabet, out)
    timer = LayerTimer()
    _install(timer)
    try:
        p = _flow(seed, rounds, alphabet, out, timer)
    finally:
        timer.uninstall()
    n = len(p.latency)
    wall = sum(p.latency)
    rows, rest = layer_table(timer, LAYERS, wall, n)
    out.layer_rows = rows
    for row in rows[:len(LAYERS)]:
        out.put(row["layer"], row["ms"], "ms/req", n)
    wall_ms = 1e3 * wall / n
    out.put("trace.wall_ms", wall_ms, "ms/req", n)
    out.put("unattributed_ms", rest, "ms/req", n)
    check_layer_sum(out, "chip_flow", rest, wall_ms)
    settles = timer.n_calls("circuit.settle")
    out.put("circuit.settle.calls", settles / n, "calls/req", settles)
    out.put("circuit.settle.ms_per_char",
            timer.ms("circuit.settle") / p.chars, "ms/char", p.chars)
    out.put("sim.ns_per_char", p.sim_ns / p.chars, "ns/char", p.chars)
    out.put("obs.overhead_ratio", p.ref(wall) / p_a.ref(sum(p_a.latency)),
            "ratio", n,
            "traced flow time / untraced, same rounds")
    return out
