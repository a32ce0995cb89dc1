"""Fault injection, retries, and graceful degradation.

The farm's failure model covers the two ways a simulated chip lets the
scheduler down:

* *worker death* -- the chip stops mid-job (a Section 5 wafer reality:
  latent defects, infant mortality).  The in-flight execution is lost;
  the job is requeued at the front of its lane and reassigned to another
  worker.
* *stuck beats* -- the chip stalls for a bounded number of beats (clock
  or handshake glitch) but completes correctly.  Only latency suffers.

When retries are exhausted, the pool has no live workers, or admission
hits backpressure, the job degrades to a *software* matcher from
:mod:`repro.baselines` running on the host CPU -- slower by the paper's
own host model, but still bit-identical to the oracle.  Degradation
trades throughput for availability; it never trades correctness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from ..alphabet import PatternChar
from ..baselines.shift_or import shift_or_match
from ..errors import ServiceError
from ..host.bus import HostSpec
from ..workloads.registry import MATCH


class FaultKind(Enum):
    WORKER_DEATH = "worker-death"
    STUCK_BEATS = "stuck-beats"


class CellDefectKind(Enum):
    """Circuit-level defect universe: what silicon actually does wrong.

    These are *latent* defects -- they live in a chip's cells and are
    invisible to the scheduler until a BIST pass (:mod:`repro.bist`)
    stimulates the cell and the signature diverges.  They never corrupt
    served results: a defective chip is quarantined, not trusted.
    """

    STUCK_AT_0 = "stuck-at-0"      # node welded to GND
    STUCK_AT_1 = "stuck-at-1"      # node welded to VDD
    BRIDGE = "bridge"              # two tracks shorted (always-on channel)
    OPEN = "open"                  # device disconnected (missing contact)
    SLOW_PATH = "slow-path"        # unbuffered series chain: timing escape
    MISPHASE = "misphase"          # transfer gate on the wrong clock phase


@dataclass(frozen=True)
class CellDefect:
    """One gate-level defect located in one cell of a matcher array.

    ``col``/``row`` address the cell: row ``>= 0`` is a comparator,
    row ``-1`` the accumulator in that column.  ``port`` (and
    ``other_port`` for bridges) name cell ports; ``device`` names a
    transistor label suffix for opens/misphases; ``stages`` is the chain
    length for slow paths.
    """

    kind: CellDefectKind
    col: int
    row: int
    port: str = ""
    other_port: str = ""
    device: str = ""
    stages: int = 0

    @property
    def cell(self) -> str:
        """The netlist prefix of the afflicted cell (``c{col}_{row}`` or
        ``a{col}``)."""
        return f"a{self.col}" if self.row < 0 else f"c{self.col}_{self.row}"

    def describe(self) -> str:
        what = self.port or self.device or "?"
        if self.kind is CellDefectKind.BRIDGE:
            what = f"{self.port}~{self.other_port}"
        if self.kind is CellDefectKind.SLOW_PATH:
            what = f"{what}+{self.stages}"
        return f"{self.kind.value}@{self.cell}.{what}"


@dataclass(frozen=True)
class Fault:
    """One injected fault on one execution.

    ``at_fraction`` locates a death within the service interval (the
    beats burned before the loss is noticed); ``extra_beats`` is the
    stall length for a stuck-beat fault.
    """

    kind: FaultKind
    at_fraction: float = 1.0
    extra_beats: int = 0


class FaultInjector:
    """Seeded random fault source; deterministic per seed.

    Probabilities are per *execution* (each shard assignment and each
    retry samples independently).
    """

    def __init__(
        self,
        seed: int = 0,
        p_death: float = 0.0,
        p_stuck: float = 0.0,
        stuck_beats: Tuple[int, int] = (1, 64),
        p_defect: float = 0.0,
    ):
        if not 0.0 <= p_death <= 1.0 or not 0.0 <= p_stuck <= 1.0:
            raise ServiceError("fault probabilities must be in [0, 1]")
        if p_death + p_stuck > 1.0:
            raise ServiceError("fault probabilities must sum to at most 1")
        if stuck_beats[0] < 0 or stuck_beats[1] < stuck_beats[0]:
            raise ServiceError("stuck_beats must be a non-negative range")
        if not 0.0 <= p_defect <= 1.0:
            raise ServiceError("fault probabilities must be in [0, 1]")
        self.p_death = p_death
        self.p_stuck = p_stuck
        self.stuck_beats = stuck_beats
        self.p_defect = p_defect
        self._rng = random.Random(seed)
        # Latent-defect sampling runs on its own stream so that turning
        # the health loop on/off never perturbs the execution fault
        # sequence (determinism audit: same seed, same deaths).
        self._defect_rng = random.Random((seed ^ 0x9E3779B9) & 0xFFFFFFFF)
        self.obs = None

    def attach_obs(self, obs) -> None:
        """Attach/detach an Observability bundle; injected faults count
        into ``faults.injected`` labelled by kind."""
        self.obs = obs

    def _count(self, kind: FaultKind) -> None:
        if self.obs is not None:
            self.obs.registry.counter("faults.injected", kind=kind.value).inc()

    def sample(self) -> Optional[Fault]:
        r = self._rng.random()
        if r < self.p_death:
            self._count(FaultKind.WORKER_DEATH)
            return Fault(FaultKind.WORKER_DEATH, at_fraction=self._rng.random())
        if r < self.p_death + self.p_stuck:
            self._count(FaultKind.STUCK_BEATS)
            return Fault(
                FaultKind.STUCK_BEATS,
                extra_beats=self._rng.randint(*self.stuck_beats),
            )
        return None

    #: (kind, weight) table for latent-defect sampling.  Stuck/bridge/open
    #: dominate (they are the yield-model defects); slow paths and
    #: misphased transfers are rarer process escapes.
    _DEFECT_WEIGHTS = (
        (CellDefectKind.STUCK_AT_0, 3),
        (CellDefectKind.STUCK_AT_1, 3),
        (CellDefectKind.BRIDGE, 3),
        (CellDefectKind.OPEN, 3),
        (CellDefectKind.SLOW_PATH, 1),
        (CellDefectKind.MISPHASE, 1),
    )
    _STUCK_PORTS = ("eq", "p_out", "s_out", "d_out", "p_store", "s_store")
    _BRIDGE_PAIRS = (("p_in", "s_in"), ("s_in", "d_in"), ("p_store", "s_store"))
    _OPEN_DEVICES = ("pass_p", "pass_s", "pass_d")

    def sample_defect(self, cols: int, rows: int) -> Optional["CellDefect"]:
        """Maybe grow a latent defect in a ``cols``x``rows`` array.

        Returns ``None`` (no defect, probability ``1 - p_defect``) or one
        :class:`CellDefect` placed uniformly over the array.  Uses a
        dedicated RNG stream -- see ``__init__``.
        """
        rng = self._defect_rng
        if rng.random() >= self.p_defect:
            return None
        kinds = [k for k, w in self._DEFECT_WEIGHTS for _ in range(w)]
        kind = rng.choice(kinds)
        col = rng.randrange(cols)
        row = rng.randrange(rows)
        if kind in (CellDefectKind.STUCK_AT_0, CellDefectKind.STUCK_AT_1):
            defect = CellDefect(kind, col, row, port=rng.choice(self._STUCK_PORTS))
        elif kind is CellDefectKind.BRIDGE:
            a, b = rng.choice(self._BRIDGE_PAIRS)
            defect = CellDefect(kind, col, row, port=a, other_port=b)
        elif kind is CellDefectKind.OPEN:
            defect = CellDefect(kind, col, row, device=rng.choice(self._OPEN_DEVICES))
        elif kind is CellDefectKind.SLOW_PATH:
            defect = CellDefect(
                kind, col, row, port="d_out", stages=rng.randrange(40, 60)
            )
        else:
            defect = CellDefect(CellDefectKind.MISPHASE, col, -1, device="t_xfer")
        if self.obs is not None:
            self.obs.registry.counter(
                "faults.injected", kind=f"defect-{kind.value}"
            ).inc()
        return defect


@dataclass(frozen=True)
class RetryPolicy:
    """How many times an execution may be reassigned before degrading."""

    max_retries: int = 2

    def should_retry(self, attempts: int) -> bool:
        """*attempts* = completed (failed) tries so far."""
        return attempts <= self.max_retries


class SoftwareFallback:
    """The host CPU serving any workload when the devices cannot.

    Match runs shift-or (the strongest streaming Section 3.3 software
    baseline in :mod:`repro.baselines`); every other workload evaluates
    its direct oracle definition.  Time comes from the host model's
    per-character instruction cost -- the same comparison the paper's
    introduction draws, now serving as the farm's pressure relief valve.
    """

    def __init__(self, host: Optional[HostSpec] = None):
        self.host = host or HostSpec()

    def match(
        self, pattern: Sequence[PatternChar], text: Sequence[str]
    ) -> List[bool]:
        if len(text) == 0:
            return []
        return shift_or_match(list(pattern), list(text))

    def kernel(self, spec, taps: Sequence, stream: Sequence) -> List:
        """Serve one workload window pass (or shard of one) from the host
        CPU: :meth:`match` for match, else the workload's *direct
        oracle* -- the behavioral ground truth -- so degraded jobs keep
        the same never-wrong guarantee whatever the workload."""
        if len(stream) == 0:
            return []
        if spec is MATCH:
            return self.match(taps, stream)
        return spec.oracle(taps, list(stream), None)

    def beats(self, pattern_len: int, text_len: int, beat_ns: float) -> int:
        """Software matching time, expressed in chip beats for apples-to-
        apples latency accounting."""
        if beat_ns <= 0:
            raise ServiceError("beat time must be positive")
        ns = self.host.software_match_time_ns(text_len, pattern_len)
        return int(math.ceil(ns / beat_ns))
