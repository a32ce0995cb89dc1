"""The layer names the benchmark times must exist where it patches them.

The benchmark times each layer by patching a class attribute or a
module global by name (``perfbench/chip_flow.py::_install``,
``perfbench/farm.py::install_service_layers`` and
``perfbench/runtime_open.py::_install``).  A class attribute is read
from the class's own ``__dict__``, so an inherited method cannot be
patched; a module global is wrapped in place, so the program must look
it up at call time.  A renamed or moved name would make the patch fail
or, worse, leave its layer row at zero and push the time into
``unattributed_ms``.  These tests read the benchmark's own tables.
"""

from __future__ import annotations

import inspect

import pytest

from perfbench import chip_flow, farm, runtime_open
from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.compiler import compile_workload
from repro.service import MatcherService, ResultCache, uniform_pool
from repro.signoff.pipeline import Signoff


class _Recorder:
    """Stands in for ``LayerTimer``: records what would be patched."""

    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, layer, items=None):
        self.patched.append((owner, attr, layer))


def _patched(install=chip_flow._install):
    rec = _Recorder()
    install(rec)
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


@pytest.mark.parametrize("install", [farm.install_service_layers,
                                     runtime_open._install],
                         ids=["farm", "runtime_open"])
def test_service_layer_targets_are_patchable(install):
    """A class target is defined in that class's own body (``patch``
    reads ``owner.__dict__[name]``); any other target is an attribute
    of its module or instance."""
    patched = _patched(install)
    assert patched
    for owner, attr, layer in patched:
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{layer}: {owner.__name__}.{attr}"
        else:
            assert hasattr(owner, attr), f"{layer}: {owner!r}.{attr}"


def _spy_on_service_module(monkeypatch, *names):
    """Wrap *names* in ``repro.service.service`` as the benchmark does
    and return the list of the names called."""
    import repro.service.service as service_mod

    calls = []
    for name in names:
        original = getattr(service_mod, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(service_mod, name, spy)
    return calls


def test_cached_submit_many_keys_through_the_service_module(monkeypatch):
    """Patched after the service is built, as a traced pass may be."""
    ab = Alphabet("ABCD")
    svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), ab),
                         cache=ResultCache())
    calls = _spy_on_service_module(monkeypatch, "result_cache_key")
    texts = ["ABCAACAC", "CACCABAB"]
    svc.submit_many("AXC", texts)
    svc.drain()
    warm = svc.submit_many("AXC", texts)
    assert [r.mode for r in svc.drain() if r.job_id in warm] == ["cached"] * 2
    assert calls == ["result_cache_key"] * 4


def test_wide_farm_job_shards_through_the_service_module(monkeypatch):
    ab = Alphabet("ABCD")
    svc = MatcherService(uniform_pool(4, ChipSpec(8, 2), ab))
    calls = _spy_on_service_module(monkeypatch, "plan_shards",
                                   "merge_shard_values")
    svc.submit("AXC", "ABCD" * 400)  # past the 512-character threshold
    [result] = svc.drain()
    assert result.mode == "text-sharded"
    assert calls == ["plan_shards", "merge_shard_values"]
