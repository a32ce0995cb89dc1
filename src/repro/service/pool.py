"""The device pool: workers built from chips, cascades, or wafer harvests.

Each :class:`PoolWorker` wraps one simulated matching engine -- a
:class:`~repro.chip.chip.PatternMatchingChip`, a
:class:`~repro.chip.cascade.ChipCascade`, or an array harvested from a
defective :class:`~repro.wafer.wafer.Wafer` -- behind a uniform execute
interface.  Workers harvested from wafers may be *degraded* (fewer
functional cells than sites, so long patterns need more multipass runs)
or *dead* on arrival (an unharvestable wafer), which is exactly the
Section 5 deployment reality the farm has to schedule around.

Timing is delegated to :class:`repro.timing.model.TimingModel` so every
service-level beat count traces back to the paper's 250 ns/char model.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..alphabet import Alphabet, PatternChar
from ..chip.cascade import ChipCascade
from ..chip.chip import ChipSpec, PatternMatchingChip
from ..core.multipass import runs_required
from ..errors import ChipError, ServiceError
from ..timing.model import TimingModel
from ..wafer.reconfigure import harvest_linear_array
from ..wafer.wafer import Wafer
from ..workloads.registry import MATCH

if TYPE_CHECKING:  # pragma: no cover
    from ..bist.controller import BISTReport
    from .health import HealthConfig


class WorkerState(Enum):
    """Lifecycle of a pool worker.

    ``QUARANTINED`` is the fleet-health state: the worker failed a
    background self-test (:mod:`repro.service.health`), has been drained
    and removed from dispatch, and is held for diagnosis rather than
    declared dead -- a quarantined part can be re-binned or scrapped,
    but it never serves another job.
    """

    IDLE = "idle"
    BUSY = "busy"
    DEAD = "dead"
    QUARANTINED = "quarantined"


class PoolWorker:
    """One schedulable matching engine in the farm.

    ``capacity`` is the number of usable character cells; patterns longer
    than it run multipass (Section 3.4) on this worker, at multipass
    rates.  ``nominal_capacity`` is what a defect-free unit would have
    had, so ``is_degraded`` distinguishes harvest losses from design.
    """

    def __init__(
        self,
        name: str,
        backend: Optional[object],
        capacity: int,
        nominal_capacity: int,
        beat_ns: float,
        alphabet: Alphabet,
    ):
        if capacity < 0:
            raise ServiceError("worker capacity cannot be negative")
        self.name = name
        self.backend = backend
        self.capacity = capacity
        self.nominal_capacity = max(nominal_capacity, capacity)
        self.beat_ns = beat_ns
        self.alphabet = alphabet
        self.timing = TimingModel(beat_ns)
        self.state = WorkerState.DEAD if capacity == 0 else WorkerState.IDLE
        # Gate-level twin for deep tracing (built lazily, kept per pattern).
        self._gate: Optional[object] = None
        self._gate_key: Optional[tuple] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_chip(cls, name: str, chip: PatternMatchingChip) -> "PoolWorker":
        return cls(
            name,
            chip,
            chip.spec.cells,
            chip.spec.cells,
            chip.spec.beat_ns,
            chip.alphabet,
        )

    @classmethod
    def from_cascade(cls, name: str, cascade: ChipCascade) -> "PoolWorker":
        return cls(
            name,
            cascade,
            cascade.capacity,
            cascade.capacity,
            cascade.spec.beat_ns,
            cascade.alphabet,
        )

    @classmethod
    def from_wafer(
        cls,
        name: str,
        wafer: Wafer,
        alphabet: Alphabet,
        beat_ns: float = 250.0,
        max_bypass_run: int = 4,
    ) -> "PoolWorker":
        """Harvest a wafer into a worker; an unharvestable wafer yields a
        dead worker rather than an exception (the farm routes around it)."""
        try:
            harvest = harvest_linear_array(wafer, max_bypass_run=max_bypass_run)
            n_cells = harvest.n_cells
        except ChipError:
            n_cells = 0
        backend = None
        if n_cells > 0:
            spec = ChipSpec(
                n_cells, alphabet.bits, beat_ns=beat_ns, chip_name=name
            )
            backend = PatternMatchingChip(spec, alphabet)
        return cls(name, backend, n_cells, wafer.n_sites, beat_ns, alphabet)

    # -- queries ----------------------------------------------------------

    @property
    def is_live(self) -> bool:
        return self.state in (WorkerState.IDLE, WorkerState.BUSY)

    @property
    def is_degraded(self) -> bool:
        return 0 < self.capacity < self.nominal_capacity

    def fits(self, pattern_len: int) -> bool:
        """Can this worker hold the pattern without multipass?"""
        return 0 < pattern_len <= self.capacity

    # -- fleet health ------------------------------------------------------

    def quarantine(self) -> None:
        """Pull this worker out of dispatch after a failed self-test.

        Only a live worker can be quarantined; a dead one already left
        the farm and re-labelling it would hide the death from the
        yield accounting.
        """
        if not self.is_live:
            raise ServiceError(
                f"cannot quarantine worker {self.name!r} in state "
                f"{self.state.value!r}"
            )
        self.state = WorkerState.QUARANTINED

    # -- execution --------------------------------------------------------

    def _require_live(self) -> None:
        if not self.is_live or self.backend is None:
            raise ServiceError(
                f"worker {self.name!r} is not live ({self.state.value})"
            )

    def run_match(
        self, pattern: Sequence[PatternChar], text: Sequence[str], **kw
    ) -> List[bool]:
        """One match of a character text, as a list of bools: a batch
        of one through :meth:`run_kernel_batch`."""
        text = self.alphabet.encode_text(text)
        return self.run_kernel_batch(MATCH, pattern, [text], **kw)[0].tolist()

    def run_kernel(
        self, spec, taps: Sequence, stream: Sequence, **kw
    ) -> np.ndarray:
        """One window pass over a typed stream: a batch of one through
        :meth:`run_kernel_batch`."""
        return self.run_kernel_batch(spec, taps, [stream], **kw)[0]

    def run_match_batch(
        self, pattern: Sequence[PatternChar], texts: Sequence, **kw
    ) -> List[np.ndarray]:
        """Many matches: :meth:`run_kernel_batch` for the match
        workload."""
        return self.run_kernel_batch(MATCH, pattern, texts, **kw)

    def run_kernel_batch(
        self,
        spec,
        taps: Sequence,
        streams: Sequence[Sequence],
        obs=None,
        parent=None,
        t0: float = 0.0,
        t1: float = 0.0,
    ) -> List[np.ndarray]:
        """Execute one workload over a batch of streams in one device call.

        Every execution takes this path: a solo job or text shard is a
        batch of one, a batch plan streams many short inputs through the
        loaded taps back to back.  *spec* is a
        :class:`~repro.workloads.WorkloadSpec`, *taps* its prepared taps
        and *streams* the prepared typed streams (or shards of them:
        views); one result array comes out per input.  The values
        always come from the workload's one kernel, ``spec.batched``
        (for match the vectorized
        :func:`~repro.core.fastpath.fast_match_many`, proven
        bit-identical to the stepwise chip/cascade/multipass models);
        whether the window *fits* or needs the Section 3.4 multipass
        scheme only affects the beat and bus accounting in
        :meth:`service_beats` / :meth:`transfer_chars`.

        With an :class:`~repro.obs.Observability` bundle this records one
        ``worker.kernel`` span (``t0``/``t1`` are the execution's service
        beats, ``parent`` its execution span) and counts the execution
        and its samples.  With ``obs.deep`` every member is re-checked:
        a match member is re-driven through the beat-accurate array
        (``array_agrees``) and, when ``obs.trace_circuit`` allows, the
        transistor-level netlist (``circuit_agrees``); any other
        workload is checked against its direct oracle
        (``oracle_agrees``).  Observation never changes the results.
        """
        self._require_live()
        streams = list(streams)
        results = spec.batched(taps, streams, self.alphabet)
        if obs is None:
            return results
        samples = sum(len(s) for s in streams)
        span = obs.tracer.record(
            "worker.kernel", t0=t0, t1=t1, unit="beats", parent=parent,
            worker=self.name, workload=spec.name, jobs=len(streams),
            samples=samples, window=len(taps),
        )
        labels = dict(worker=self.name, workload=spec.name)
        obs.registry.counter("worker.executions", **labels).inc()
        obs.registry.counter("worker.samples", **labels).inc(samples)
        if obs.deep:
            # The re-checks read characters and lists: the slower models
            # decode the typed stream, the row converts once.
            for stream, row in zip(streams, results):
                if spec is MATCH:
                    self._deep_trace(obs, span, tuple(taps), stream,
                                     row.tolist())
                else:
                    _agree(span, "oracle_agrees",
                           spec.oracle(taps, stream, self.alphabet)
                           == row.tolist())
        return results

    def _deep_trace(self, obs, span, key, text, results) -> None:
        """Re-drive one match member through slower models under the
        tracer.

        Observation only -- agreement is recorded as span attributes
        (true only while every member agrees), the service's results are
        untouched.
        """
        backend = self.backend
        if (
            isinstance(backend, PatternMatchingChip)
            and 0 < len(key) <= self.capacity
        ):
            backend.load_pattern(list(key))
            backend.attach_obs(obs)
            try:
                with obs.tracer.nest(span):
                    rep = backend.report(text)
                _agree(span, "array_agrees", rep.results == results)
                span.attrs["array_beats"] = \
                    span.attrs.get("array_beats", 0) + rep.beats
            finally:
                backend.attach_obs(None)
        if (
            obs.trace_circuit
            and 0 < len(text) <= obs.circuit_char_limit
            and 0 < len(key)
        ):
            from ..compiler import GateLevelMatcher

            if self._gate is None or self._gate_key != key:
                self._gate = GateLevelMatcher(
                    list(key), self.alphabet, n_cells=len(key)
                )
                self._gate_key = key
            self._gate.attach_obs(obs)
            try:
                with obs.tracer.nest(span):
                    gate_results = self._gate.match(text)
                _agree(span, "circuit_agrees", gate_results == results)
            finally:
                self._gate.attach_obs(None)

    # -- beat accounting --------------------------------------------------

    def service_beats(self, pattern_len: int, n_text: int) -> int:
        """Beats this worker occupies for one job (fill + stream + drain)."""
        if n_text == 0:
            return 0
        if pattern_len <= self.capacity:
            ns = self.timing.single_chip_run_ns(n_text, self.capacity)
        else:
            ns = self.timing.multipass_run_ns(n_text, self.capacity, pattern_len)
        return int(math.ceil(ns / self.beat_ns))

    def transfer_chars(self, pattern_len: int, n_text: int) -> int:
        """Bus characters one job moves: pattern and text interleave (two
        stream characters per text character, Section 3.2.1) plus the
        result bits coming back; multipass re-streams everything per run."""
        if n_text == 0:
            return 0
        runs = 1
        if pattern_len > self.capacity:
            runs = max(1, runs_required(pattern_len, n_text, self.capacity))
        return runs * 3 * n_text

    def __repr__(self) -> str:
        tag = self.state.value
        if self.is_degraded:
            tag += ", degraded"
        return (
            f"PoolWorker({self.name!r}, {self.capacity}/{self.nominal_capacity} "
            f"cells, {tag})"
        )


def _agree(span, key: str, ok: bool) -> None:
    """And one member's cross-check into the span's *key* attribute."""
    span.attrs[key] = span.attrs.get(key, True) and ok


class DevicePool:
    """The farm's set of workers, all sharing one alphabet."""

    def __init__(self, workers: Sequence[PoolWorker]):
        workers = list(workers)
        if not workers:
            raise ServiceError("a device pool needs at least one worker")
        alphabets = {w.alphabet for w in workers}
        if len(alphabets) != 1:
            raise ServiceError("all pool workers must share one alphabet")
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ServiceError("pool worker names must be distinct")
        self.workers = workers
        self.alphabet = workers[0].alphabet
        # Fleet health: the replacement waiting for its incoming probe
        # (never in ``workers`` until admitted), the heal-N name
        # counter, and the probe controller with its health config.
        self._spare: Optional[PoolWorker] = None
        self._heal_seq = 0
        self._bist: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self.workers)

    def __iter__(self):
        return iter(self.workers)

    def worker(self, name: str) -> PoolWorker:
        for w in self.workers:
            if w.name == name:
                return w
        raise ServiceError(f"no worker named {name!r}")

    def live_workers(self) -> List[PoolWorker]:
        return [w for w in self.workers if w.is_live]

    def idle_workers(self) -> List[PoolWorker]:
        return [w for w in self.workers if w.state is WorkerState.IDLE]

    def quarantined_workers(self) -> List[PoolWorker]:
        return [
            w for w in self.workers if w.state is WorkerState.QUARANTINED
        ]

    # -- fleet health (the repro.service.health.Fleet contract) ------------

    def idle_names(self) -> List[str]:
        return [w.name for w in self.idle_workers()]

    def quarantine(self, name: str) -> None:
        self.worker(name).quarantine()

    def self_test(
        self, name: str, config: "HealthConfig", defect=None
    ) -> Optional["BISTReport"]:
        """Run the gate-level self-test in-process on idle worker *name*
        (or the waiting replacement) against *defect*; ``None`` if the
        worker is not idle."""
        spare = self._spare
        worker = spare if spare is not None and spare.name == name \
            else self.worker(name)
        if worker.state is not WorkerState.IDLE:
            return None
        if self._bist is None or self._bist[0] != config:
            self._bist = (config, config.controller())
        return self._bist[1].run(defect=defect, chip_name=name)

    def respawn(self, wafer: Wafer, config: "HealthConfig") -> str:
        """Harvest *wafer* into a replacement worker with a fresh
        ``heal-N`` name, held out of the pool until :meth:`admit`."""
        names = {w.name for w in self.workers}
        while True:
            self._heal_seq += 1
            name = f"heal-{self._heal_seq}"
            if name not in names:
                break
        self._spare = PoolWorker.from_wafer(
            name, wafer, self.alphabet, beat_ns=config.beat_ns
        )
        return name

    def admit(self, name: str) -> None:
        """Add the replacement that passed its incoming self-test."""
        self.workers.append(self._spare)
        self._spare = None

    @property
    def n_live(self) -> int:
        return len(self.live_workers())

    @property
    def total_capacity(self) -> int:
        return sum(w.capacity for w in self.live_workers())


def uniform_pool(
    n_workers: int, spec: ChipSpec, alphabet: Alphabet
) -> DevicePool:
    """*n* identical single-chip workers (the catalogue-order farm).

    Each chip is named after its worker, so its ``array.*`` metrics carry
    a label of their own (``array=chip-0``, ``array=chip-1``, ...).
    """
    if n_workers <= 0:
        raise ServiceError("pool needs at least one worker")
    return DevicePool(
        [
            PoolWorker.from_chip(f"chip-{i}", PatternMatchingChip(
                dataclasses.replace(spec, chip_name=f"chip-{i}"), alphabet))
            for i in range(n_workers)
        ]
    )


def cascade_pool(
    n_workers: int, spec: ChipSpec, n_chips: int, alphabet: Alphabet
) -> DevicePool:
    """*n* workers, each a Figure 3-7 cascade of ``n_chips`` chips."""
    if n_workers <= 0:
        raise ServiceError("pool needs at least one worker")
    return DevicePool(
        [
            PoolWorker.from_cascade(
                f"cascade-{i}", ChipCascade(spec, n_chips, alphabet)
            )
            for i in range(n_workers)
        ]
    )


def pool_from_wafers(
    wafers: Sequence[Wafer],
    alphabet: Alphabet,
    beat_ns: float = 250.0,
    max_bypass_run: int = 4,
) -> DevicePool:
    """One worker per wafer, harvested around defects.

    Wafers whose defect runs exceed the bypass budget become dead
    workers; partially defective wafers become degraded workers.  The
    pool is usable as long as one worker survives.
    """
    return DevicePool(
        [
            PoolWorker.from_wafer(
                f"wafer-{i}", w, alphabet, beat_ns, max_bypass_run
            )
            for i, w in enumerate(wafers)
        ]
    )
