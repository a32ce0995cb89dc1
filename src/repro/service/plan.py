"""The admission planner the front door executes.

In the paper's Figure 1-1 system the host makes the bookkeeping
decisions once and the attached devices only stream.  This module is
that bookkeeping for one ``submit_many`` call: :func:`parse_request`
checks and prepares the whole call before any job is admitted, and
:func:`plan` routes every stream, for
:class:`~repro.service.frontdoor.FrontDoor` over any pool.

Each stream takes one route, decided in this order:

* ``empty``: no input; completes inline.
* ``cached``: its answer is in the result cache (``Route.hit``);
  completes inline.
* ``deduped``: same key as the earlier stream ``Route.rep``; it shares
  that representative's execution and gets a copy of its answer,
  whatever its fate (device, retry, deadline shed or saturation
  fallback).
* ``solo``: its own execution -- a wide text (from the pool's
  ``wide_threshold``; only the farm's shards) or a chunk of exactly one
  job.
* ``batch``: a member of one chunk of 2 to ``max_batch_jobs`` jobs.

Solo units keep stream order and the batch chunks follow them.  Keys
are computed only when a cache is attached or there is more than one
stream (dedup needs them).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from numbers import Real
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from ..alphabet import Alphabet
from ..errors import ServiceError
from ..workloads.registry import WorkloadSpec, get_workload
from .cache import ResultCache, canonical_params
from .scheduler import Priority

EMPTY, CACHED, DEDUPED, SOLO, BATCH = "empty", "cached", "deduped", "solo", "batch"
#: Routes that complete at admission; their kind is the result's mode.
INLINE = (EMPTY, CACHED)


class Prepared(NamedTuple):
    """One stream after validation: the validated input (typed once,
    see :meth:`~repro.workloads.WorkloadSpec.validate_stream`), and the
    kernel taps and feed that ``spec.prepare`` derives from it."""

    validated: Sequence
    taps: list
    feed: Sequence


class Request(NamedTuple):
    """A checked ``submit_many`` call: nothing in it can fail later."""

    spec: WorkloadSpec
    taps: list  # the parsed (pre-``prepare``) parameters
    priority: Priority
    timeout: Optional[float]
    streams: List[Prepared]


class Route(NamedTuple):
    """One stream's route and its cache/dedup key (None if none was
    computed)."""

    kind: str
    key: Optional[tuple] = None
    hit: Optional[list] = None
    rep: Optional[int] = None


class Plan(NamedTuple):
    """Every stream's route, plus the execution units in queue order:
    solo stream indices first, then the batch chunks."""

    routes: List[Route]
    solos: List[int]
    batches: List[List[int]]


def parse_request(
    workload, params, streams, alphabet: Optional[Alphabet], priority,
    timeout,
) -> Request:
    """Check and prepare one ``submit_many`` call.  Bad input anywhere
    raises a :class:`~repro.errors.ReproError` before any job is
    admitted."""
    if timeout is not None:
        try:  # float(10**400) overflows
            seconds = float(timeout) if isinstance(timeout, Real) else 0.0
        except OverflowError:
            seconds = math.inf
        if not 0.0 < seconds < math.inf:
            raise ServiceError(
                f"timeout must be a positive finite number, not {timeout!r}"
            )
        timeout = seconds
    try:
        priority = Priority(priority)
    except (TypeError, ValueError):
        known = ", ".join(f"{p.name}={p.value}" for p in Priority)
        raise ServiceError(f"unknown priority {priority!r} ({known})") from None
    if isinstance(streams, (str, bytes)) or not isinstance(streams, Iterable):
        raise ServiceError(
            f"streams must be a list of streams, not {type(streams).__name__}"
        )
    spec = get_workload(workload)
    taps = spec.parse_params(params, alphabet)
    prepared = []
    for stream in streams:
        validated = spec.validate_stream(stream, alphabet)
        prepared.append(Prepared(validated, *spec.prepare(taps, validated)))
    return Request(spec, taps, priority, timeout, prepared)


def plan(
    spec: WorkloadSpec,
    taps: list,
    streams: Sequence[Prepared],
    cache: Optional[ResultCache],
    now: float,
    max_batch_jobs: int,
    key: Callable[..., tuple],
    wide_threshold: Optional[int] = None,
    tenant: str = "default",
) -> Plan:
    """Route every prepared stream (see the module docstring).  *key* is
    the front door's ``result_cache_key``; the call's keys go to the
    cache in one lookup, with *now* (in the front door's clock units)
    and *tenant*."""
    keyed = cache is not None or len(streams) > 1
    params = canonical_params(taps) if keyed else None
    keys = [key(spec.name, taps, s.validated, spec.numeric, params=params)
            if keyed and len(s.validated) else None for s in streams]
    # One lookup for the whole call (empty streams are never keyed).
    hits = None if cache is None else iter(cache.get(
        [k for k in keys if k is not None], tenant=tenant, now=now))
    routes: List[Route] = []
    reps: Dict[tuple, int] = {}
    solos: List[int] = []
    batchable: List[int] = []
    for i, (stream, k) in enumerate(zip(streams, keys)):
        if k is None and len(stream.validated) == 0:
            routes.append(Route(EMPTY))
            continue
        hit = next(hits) if hits is not None else None
        if hit is not None:
            routes.append(Route(CACHED, k, hit=hit))
            continue
        if k in reps:
            routes.append(Route(DEDUPED, k, rep=reps[k]))
            continue
        if k is not None:
            reps[k] = i
        if wide_threshold is not None and \
                len(stream.feed) >= wide_threshold:
            routes.append(Route(SOLO, k))
            solos.append(i)
        else:
            routes.append(Route(BATCH, k))
            batchable.append(i)
    batches = []
    for lo in range(0, len(batchable), max_batch_jobs):
        chunk = batchable[lo:lo + max_batch_jobs]
        if len(chunk) > 1:
            batches.append(chunk)
            continue
        # A chunk of one job is a solo route: no batch for one member.
        routes[chunk[0]] = routes[chunk[0]]._replace(kind=SOLO)
        solos.append(chunk[0])
    solos.sort()
    return Plan(routes, solos, batches)
