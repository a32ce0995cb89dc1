"""Ternary logic values and drive strengths for the switch-level model.

Signal values are LOW / HIGH / UNKNOWN; UNKNOWN (``X``) models power-on
state, charge-sharing conflicts and decayed dynamic storage.

Strengths order the possible sources of a node's value, following the
usual switch-level (MOSSIM-style) discipline specialised to ratioed NMOS:

``FORCED``
    External input pins and the supply rails.
``PULL``
    A path of conducting enhancement channels to a rail.  A pulldown path
    to GND and the depletion load "fight" in ratioed logic; the geometry
    is chosen so the pulldown wins, which is why the pulldown path is
    ranked above ``LOAD``.
``LOAD``
    The depletion-mode pullup that ties a gate output toward VDD.
``CHARGE``
    No conducting path to any driver: the node keeps its stored charge
    (the dynamic storage of Figure 3-5, valid for ~1 ms).
``NONE``
    Never-driven, never-charged (power-on).
"""

from __future__ import annotations

from enum import IntEnum


class LogicValue(IntEnum):
    """Ternary signal value."""

    LOW = 0
    HIGH = 1
    UNKNOWN = 2

    def __str__(self) -> str:
        return {0: "0", 1: "1", 2: "X"}[int(self)]


LOW = LogicValue.LOW
HIGH = LogicValue.HIGH
UNKNOWN = LogicValue.UNKNOWN


def from_bool(b: bool) -> LogicValue:
    """Convert a Python boolean to a logic value."""
    return HIGH if b else LOW


def to_bool(v: LogicValue) -> bool:
    """Convert a *known* logic value to a boolean (raises on UNKNOWN)."""
    if v is UNKNOWN:
        raise ValueError("cannot convert UNKNOWN logic value to bool")
    return v is HIGH


class Strength(IntEnum):
    """Drive strength, strongest last so ``max`` picks the winner."""

    NONE = 0
    CHARGE = 1
    LOAD = 2
    PULL = 3
    FORCED = 4


def resolve(value_a: LogicValue, strength_a: Strength,
            value_b: LogicValue, strength_b: Strength):
    """Combine two contributions to one node; returns (value, strength).

    Higher strength wins outright; equal strengths with different values
    yield UNKNOWN at that strength (a fight).
    """
    if strength_a > strength_b:
        return value_a, strength_a
    if strength_b > strength_a:
        return value_b, strength_b
    if value_a == value_b:
        return value_a, strength_a
    return UNKNOWN, strength_a
