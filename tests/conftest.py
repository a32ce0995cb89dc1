"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from repro import Alphabet
from repro.service.reliability import FaultInjector

#: The benchmark package, ``perfbench/``, sits beside ``tests/``: tests
#: that read its inputs or its layer table import it from the repository
#: root, however pytest was started.
ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

#: One frozen seed for the fleet-health tests: the fault injector's
#: defect stream, the LFSR stimulus, and the wafer lot all derive from
#: fixed seeds, so the spawn-context health tests replay identically
#: run to run (CI runs the health suite twice to enforce exactly that).
HEALTH_SEED = 0xB157


@pytest.fixture
def health_injector() -> FaultInjector:
    """A fault injector that grows a latent defect on every sample,
    deterministically -- the health loop's worst-day input."""
    return FaultInjector(seed=HEALTH_SEED, p_defect=1.0)


@pytest.fixture
def ab4() -> Alphabet:
    """The prototype's alphabet: four symbols, two-bit characters."""
    return Alphabet("ABCD")


@pytest.fixture
def ab2() -> Alphabet:
    """Minimal alphabet with one-bit characters."""
    return Alphabet("AB", bits=1)


def patterns(symbols: str = "ABCD", max_len: int = 6, wildcards: bool = True):
    """Strategy for pattern strings (X = wildcard when enabled)."""
    alphabet = symbols + ("X" if wildcards else "")
    return st.text(alphabet=alphabet, min_size=1, max_size=max_len)


def texts(symbols: str = "ABCD", max_len: int = 30):
    """Strategy for text strings."""
    return st.text(alphabet=symbols, min_size=0, max_size=max_len)


#: Immutable module-level alphabets for hypothesis @given tests (fixtures
#: are function-scoped, which hypothesis rejects inside @given).
AB4 = Alphabet("ABCD")
AB2 = Alphabet("AB", bits=1)
