"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the layer that failed (algorithm, circuit, layout,
chip packaging, methodology).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class AlphabetError(ReproError):
    """A character is not a member of the alphabet in use."""


class PatternError(ReproError):
    """A pattern is malformed (empty, too long for a chip, bad wildcard)."""


class StreamError(ReproError):
    """A beat stream was used out of protocol (wrong phase, exhausted)."""


class SimulationError(ReproError):
    """A systolic simulation violated an internal invariant."""


class CircuitError(ReproError):
    """Netlist construction or switch-level simulation failure."""


class ClockError(CircuitError):
    """Two-phase clock discipline violated (overlapping phases, etc.)."""


class ChargeDecayError(CircuitError):
    """A dynamic storage node was read after its retention time expired."""


class LayoutError(ReproError):
    """Stick-diagram or mask-layout construction failure."""


class DesignRuleViolation(LayoutError):
    """A lambda design rule was violated.

    Attributes
    ----------
    rule:
        Short rule identifier, e.g. ``"metal-width"``.
    detail:
        Human-readable description including coordinates.
    """

    def __init__(self, rule: str, detail: str):
        super().__init__(f"{rule}: {detail}")
        self.rule = rule
        self.detail = detail


class CIFError(LayoutError):
    """Malformed CIF text encountered while parsing."""


class ChipError(ReproError):
    """Chip- or cascade-level configuration error."""


class CompileError(ChipError):
    """Invalid chip specification or inconsistent compiler intermediate
    form."""


class ProvisionError(ChipError):
    """A replacement worker could not be provisioned (wafer supply
    exhausted, or every candidate harvest failed its incoming BIST)."""


class HostError(ReproError):
    """Host-system / bus protocol error."""


class MethodologyError(ReproError):
    """Design-task graph is inconsistent (cycle, missing input)."""


class SignoffError(ReproError):
    """Signoff pipeline misuse or internal inconsistency."""


class ObservabilityError(ReproError):
    """Metrics/tracing/VCD misuse (kind mismatch, undeclared signal...)."""


class ServiceError(ReproError):
    """Matcher-farm service layer misuse or internal inconsistency."""


class BackpressureError(ServiceError):
    """A bounded job queue refused a submission (queue at capacity)."""
