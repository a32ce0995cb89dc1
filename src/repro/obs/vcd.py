"""Value Change Dump (VCD) export of switch-level signals.

The paper's methodology argument rests on being able to *watch* the
chip: Figure 3-6's comparator is trusted because its stored bits and
``eq`` output can be followed phase by phase.  :class:`CircuitProbe`
samples named :class:`~repro.circuit.netlist.Circuit` nodes after every
``settle()`` (i.e. at every clock-phase edge of
:class:`~repro.circuit.clocks.TwoPhaseClock` /
:meth:`~repro.compiler.netlist.CompiledNetlist.pulse`), and
:class:`VCDWriter` emits the standard four-state dump any waveform
viewer (GTKWave, Surfer) opens directly.

:func:`parse_vcd` is the reader the test suite round-trips exports
through (timestamps must be monotone, every change must name a declared
signal); :func:`render_waves` gives the README-able ASCII rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ObservabilityError

#: Legal VCD scalar states (we never emit ``z``; rails and probes read
#: solved node values, where undriven-unknown is ``x``).
_STATES = frozenset("01xz")

_ID_FIRST = 33   # '!'
_ID_LAST = 126   # '~'


def _id_code(index: int) -> str:
    """Short printable identifier code for signal *index* (VCD 4.7)."""
    span = _ID_LAST - _ID_FIRST + 1
    out = []
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, span)
        out.append(chr(_ID_FIRST + rem))
    return "".join(reversed(out))


def vcd_value(value: object) -> str:
    """Coerce a probe reading to a VCD state character.

    Accepts VCD chars, booleans/ints, and
    :class:`~repro.circuit.signals.LogicValue` (by name, so this module
    stays import-light).
    """
    if isinstance(value, str):
        v = value.lower()
        if v in _STATES:
            return v
        raise ObservabilityError(f"bad VCD state {value!r}")
    if isinstance(value, bool) or value in (0, 1):
        return "1" if value else "0"
    name = getattr(value, "name", "")
    if name == "HIGH":
        return "1"
    if name == "LOW":
        return "0"
    if name == "UNKNOWN":
        return "x"
    raise ObservabilityError(f"cannot encode {value!r} as a VCD state")


class VCDWriter:
    """Accumulates value changes and dumps standard VCD text.

    Changes may arrive in any order (several probes sharing one writer);
    the dump is emitted time-sorted, and within one timestamp the last
    write to a signal wins.  Only *changes* are emitted after the initial
    ``$dumpvars`` block, as the format intends.
    """

    def __init__(self, timescale: str = "1 ns", module: str = "repro",
                 comment: str = ""):
        self.timescale = timescale
        self.module = module
        self.comment = comment
        self._order: List[str] = []
        self._codes: Dict[str, str] = {}
        self._changes: Dict[int, Dict[str, str]] = {}

    # -- declaration -------------------------------------------------------

    def declare(self, name: str) -> None:
        """Register a 1-bit signal (idempotent)."""
        if name in self._codes:
            return
        self._codes[name] = _id_code(len(self._order))
        self._order.append(name)

    @property
    def signals(self) -> List[str]:
        return list(self._order)

    # -- recording ---------------------------------------------------------

    def change(self, t_ns: float, name: str, value: object) -> None:
        """Record signal *name* holding *value* at time *t_ns*."""
        if name not in self._codes:
            raise ObservabilityError(
                f"signal {name!r} was never declared; declare() it first"
            )
        t = int(round(t_ns))
        if t < 0:
            raise ObservabilityError("VCD time cannot be negative")
        self._changes.setdefault(t, {})[name] = vcd_value(value)

    # -- emission ----------------------------------------------------------

    def dump(self) -> str:
        lines: List[str] = []
        if self.comment:
            lines.append(f"$comment {self.comment} $end")
        lines.append(f"$timescale {self.timescale} $end")
        lines.append(f"$scope module {self.module} $end")
        for name in self._order:
            lines.append(f"$var wire 1 {self._codes[name]} {name} $end")
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")

        last: Dict[str, str] = {}
        first = True
        for t in sorted(self._changes):
            moment = self._changes[t]
            if first:
                # Initial snapshot: every declared signal gets a state
                # (unknown if never driven by this time).
                lines.append(f"#{t}")
                lines.append("$dumpvars")
                for name in self._order:
                    state = moment.get(name, "x")
                    lines.append(f"{state}{self._codes[name]}")
                    last[name] = state
                lines.append("$end")
                first = False
                continue
            emitted_time = False
            for name in self._order:
                state = moment.get(name)
                if state is None or last.get(name) == state:
                    continue
                if not emitted_time:
                    lines.append(f"#{t}")
                    emitted_time = True
                lines.append(f"{state}{self._codes[name]}")
                last[name] = state
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.dump())


class CircuitProbe:
    """Samples named circuit nodes into a :class:`VCDWriter`.

    Registers itself on the circuit (``circuit.add_probe``), so every
    ``settle()`` -- hence every clock phase of ``pulse()`` /
    :class:`~repro.circuit.clocks.TwoPhaseClock` -- lands one sample at
    the circuit's current ``time_ns``.

    *signals* maps VCD display name -> circuit node name; a plain
    sequence of node names uses each node name as its display name.
    """

    def __init__(
        self,
        circuit,
        signals: Union[Mapping[str, str], Sequence[str]],
        writer: Optional[VCDWriter] = None,
    ):
        if isinstance(signals, Mapping):
            mapping = dict(signals)
        else:
            mapping = {name: name for name in signals}
        missing = [n for n in mapping.values() if n not in circuit.nodes]
        if missing:
            raise ObservabilityError(
                f"circuit {circuit.name!r} has no node(s) {sorted(missing)}"
            )
        self.circuit = circuit
        self.signals = mapping
        self.writer = writer or VCDWriter(module=circuit.name)
        for display in mapping:
            self.writer.declare(display)
        circuit.add_probe(self)
        self.sample()  # initial state

    def sample(self) -> None:
        t = self.circuit.time_ns
        nodes = self.circuit.nodes
        for display, node in self.signals.items():
            self.writer.change(t, display, nodes[node].value)

    def detach(self) -> None:
        probes = self.circuit._probes
        if self in probes:
            probes.remove(self)


@dataclass
class VCDTrace:
    """A parsed dump: declared signals and the time-ordered change list."""

    timescale: str
    signals: Dict[str, str]                     # display name -> id code
    changes: List[Tuple[int, str, str]] = field(default_factory=list)

    def history(self, name: str) -> List[Tuple[int, str]]:
        """(time, state) pairs for one signal, in dump order."""
        if name not in self.signals:
            raise ObservabilityError(
                f"no signal {name!r} in trace; have {sorted(self.signals)}"
            )
        return [(t, v) for t, n, v in self.changes if n == name]

    def value_at(self, name: str, t: int) -> str:
        state = "x"
        for time, s in self.history(name):
            if time > t:
                break
            state = s
        return state

    @property
    def times(self) -> List[int]:
        seen: List[int] = []
        for t, _, _ in self.changes:
            if not seen or seen[-1] != t:
                seen.append(t)
        return seen


def parse_vcd(text: str) -> VCDTrace:
    """Parse a (scalar-signal) VCD dump, validating the invariants the
    acceptance tests rely on: strictly monotone non-decreasing
    timestamps and changes only on declared identifier codes."""
    timescale = ""
    signals: Dict[str, str] = {}
    by_code: Dict[str, str] = {}
    changes: List[Tuple[int, str, str]] = []
    in_defs = True
    t: Optional[int] = None

    tokens = text.split("\n")
    i = 0
    while i < len(tokens):
        line = tokens[i].strip()
        i += 1
        if not line:
            continue
        if in_defs:
            if line.startswith("$timescale"):
                body = line
                while "$end" not in body and i < len(tokens):
                    body += " " + tokens[i].strip()
                    i += 1
                timescale = body.replace("$timescale", "").replace(
                    "$end", ""
                ).strip()
            elif line.startswith("$var"):
                parts = line.split()
                # $var wire 1 <code> <name...> $end
                if len(parts) < 6 or parts[-1] != "$end":
                    raise ObservabilityError(f"malformed $var line: {line!r}")
                code = parts[3]
                name = " ".join(parts[4:-1])
                if code in by_code:
                    raise ObservabilityError(f"duplicate id code {code!r}")
                signals[name] = code
                by_code[code] = name
            elif line.startswith("$enddefinitions"):
                in_defs = False
            continue
        if line.startswith("#"):
            new_t = int(line[1:])
            if t is not None and new_t < t:
                raise ObservabilityError(
                    f"non-monotonic timestamp #{new_t} after #{t}"
                )
            t = new_t
            continue
        if line.startswith("$"):
            continue  # $dumpvars / $end wrappers
        state, code = line[0].lower(), line[1:]
        if state not in _STATES:
            raise ObservabilityError(f"bad state char in change {line!r}")
        name = by_code.get(code)
        if name is None:
            raise ObservabilityError(
                f"change {line!r} names an undeclared signal code {code!r}"
            )
        if t is None:
            raise ObservabilityError(f"change {line!r} before any timestamp")
        changes.append((t, name, state))
    return VCDTrace(timescale=timescale, signals=signals, changes=changes)


def render_waves(
    source: Union[str, VCDWriter, VCDTrace],
    names: Optional[Sequence[str]] = None,
    max_cols: int = 24,
) -> str:
    """ASCII waveform table: one row per signal, one column per time.

    The README-able view of a dump -- Figure 3-6's comparator can be
    checked by eye without leaving the terminal.  *source* is a writer,
    a parsed trace, or raw VCD text.
    """
    if isinstance(source, VCDWriter):
        trace = parse_vcd(source.dump())
    elif isinstance(source, str):
        trace = parse_vcd(source)
    else:
        trace = source
    names = list(names) if names is not None else sorted(trace.signals)
    times = trace.times[:max_cols]
    width = max([len(n) for n in names] + [4])
    header = "time".rjust(width) + "  " + " ".join(
        f"{t:>6d}" for t in times
    )
    lines = [header]
    for name in names:
        row = [trace.value_at(name, t) for t in times]
        lines.append(name.rjust(width) + "  " + " ".join(
            f"{v:>6s}" for v in row
        ))
    if len(trace.times) > max_cols:
        lines.append(f"... ({len(trace.times) - max_cols} more timestamps)")
    return "\n".join(lines)
