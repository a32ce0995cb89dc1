"""The layer names ``perfbench/chip_flow.py`` times must exist.

The benchmark times each layer of the chip flow by patching a class
attribute by name (``_install``).  A renamed attribute would make the
patch fail or, worse, leave its layer row at zero and push the time into
``unattributed_ms``.  These tests read the benchmark's own table.
"""

from __future__ import annotations

import inspect

from perfbench import chip_flow
from repro.compiler import compile_workload
from repro.signoff.pipeline import Signoff


class _Recorder:
    """Stands in for ``LayerTimer``: records what would be patched."""

    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, layer):
        self.patched.append((owner, attr, layer))


def _patched():
    rec = _Recorder()
    chip_flow._install(rec)
    return rec.patched


def test_every_patched_attribute_exists():
    patched = _patched()
    assert patched
    for owner, attr, layer in patched:
        assert hasattr(owner, attr), f"{layer}: {owner.__name__}.{attr}"


def test_signoff_reaches_the_timed_signoff_stages(monkeypatch):
    """``CompiledChip.signoff`` calls the two signoff stages through the
    class attributes the benchmark patches."""
    targets = {
        attr for owner, attr, _layer in _patched() if owner is Signoff
    }
    assert {"assembly_stage_for", "extraction_stage"} <= targets
    calls = []
    for attr in ("assembly_stage_for", "extraction_stage"):
        original = inspect.getattr_static(Signoff, attr)

        def spy(self, *args, _attr=attr, _original=original, **kwargs):
            calls.append(_attr)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Signoff, attr, spy)
    chip = compile_workload("match", 2, char_bits=2)
    assert chip.signoff().ok
    assert calls.count("assembly_stage_for") == 1
    assert calls.count("extraction_stage") == len(chip.bundles)
