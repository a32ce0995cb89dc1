"""Built-in self-test: LFSR stimulus, MISR signatures, per-cell diagnosis.

The paper's wafer-scale argument (Section 2) assumes defective cells can
be *found*; this package closes that loop at the switch level.  An
:class:`LFSRPatternGenerator` stimulates a simulated matcher array, a
:class:`SignatureAnalyzer` compacts its edge-visible responses into a
MISR signature checked against a cached golden table, and the
:class:`BISTController` FSM turns the comparison into a pass/fail
verdict with a per-cell diagnosis.  The :class:`Characterizer` adds the
timing half: measured settle latency and Elmore phase-budget closure
against the 250 ns beat.  The fleet-health loop in
:mod:`repro.service.health` runs these self-tests in the background on
the idle workers of either pool (the farm's, in process, or the
runtime's worker processes), quarantines failures, and re-provisions
replacements from the wafer harvest model.

Run ``python -m repro.bist`` for a demo, coverage report, or soak.
"""

from .characterize import CharacterizationReport, Characterizer
from .controller import BISTController, BISTDiagnosis, BISTReport, BISTState
from .defects import (
    MUTATION_DEFECT_NAMES,
    fault_universe,
    inject_defect,
    mutation_defect,
)
from .lfsr import MISR, LFSRPatternGenerator
from .signature import SignatureAnalyzer

__all__ = [
    "BISTController",
    "BISTDiagnosis",
    "BISTReport",
    "BISTState",
    "CharacterizationReport",
    "Characterizer",
    "LFSRPatternGenerator",
    "MISR",
    "MUTATION_DEFECT_NAMES",
    "SignatureAnalyzer",
    "fault_universe",
    "inject_defect",
    "mutation_defect",
]
