"""The metrics registry: counters, gauges, and histograms with labels.

One registry instance collects every number the stack produces -- farm
telemetry, array fire counts, settle passes -- under stable dotted names
(``service.worker.busy_beats``, ``array.fires``, ``circuit.settle.passes``)
qualified by label sets (``worker="chip-3"``).  Layers publish into it
through cached metric handles so the hot paths pay one attribute check
when observability is off and one bound-method call when it is on.

The registry is deliberately small: no time series, no background
threads, just monotone counters, last-value gauges, and fixed-bucket
histograms, all snapshot-able to JSON for the ``python -m repro.obs``
replay tooling.

Concurrency: every mutation (``inc``/``set``/``observe`` and the
get-or-create paths) takes a lock, so one registry may be shared by the
event loop and the :mod:`repro.runtime` pool threads without losing
updates.  Worker *processes* do not share the registry: each keeps a
private one and ships :meth:`MetricsRegistry.snapshot` back with its
reply; the host folds it in with :meth:`MetricsRegistry.merge_snapshot`
(counters add, gauges last-write, histograms merge bucket-by-bucket).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotone accumulator (use a :class:`Gauge` for values that fall)."""

    __slots__ = ("name", "labels", "value", "_lock")
    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value: float = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        with self._lock:
            self.value += amount

    def inc_all(self, amounts: Iterable[float]) -> None:
        """Add each amount in order, under one lock: the same value, to
        the bit, as a loop of :meth:`inc` (a float sum depends on its
        order)."""
        with self._lock:
            value = self.value
            for amount in amounts:
                if amount < 0:
                    raise ObservabilityError(
                        f"counter {self.name!r} cannot decrease "
                        f"(amount={amount})"
                    )
                value += amount
            self.value = value

    def __repr__(self) -> str:
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class Gauge:
    """A last-value-wins instantaneous reading."""

    __slots__ = ("name", "labels", "value", "_lock")
    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name}{dict(self.labels)}={self.value})"


#: Default histogram buckets: powers of two cover beats and nanoseconds
#: alike without tuning.
DEFAULT_BUCKETS = tuple(float(2 ** k) for k in range(0, 24, 2))


class Histogram:
    """Fixed-bucket distribution: counts per upper bound, plus sum/count."""

    __slots__ = (
        "name", "labels", "bounds", "bucket_counts", "count", "total", "_lock",
    )
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(f"histogram {name!r} needs >= 1 bucket")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)  # +overflow
        self.count = 0
        self.total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Observe each value in order, under one lock: the same buckets,
        count and total, to the bit, as a loop of :meth:`observe`.  A
        value lands in the first bucket whose bound it does not exceed;
        NaN exceeds none, so it lands in the overflow bucket."""
        bounds, counts = self.bounds, self.bucket_counts
        overflow = len(bounds)
        with self._lock:
            total, n = self.total, 0
            for value in values:
                total += value
                n += 1
                # bisect_left would put NaN (never < a bound) first.
                counts[bisect_left(bounds, value)
                       if value == value else overflow] += 1
            self.total = total
            self.count += n

    def merge(
        self, bucket_counts: Sequence[int], count: int, total: float
    ) -> None:
        """Fold another histogram's buckets in (process-boundary merge).

        The incoming buckets must have been recorded against the same
        bounds (one slot per bound plus overflow)."""
        if len(bucket_counts) != len(self.bucket_counts):
            raise ObservabilityError(
                f"histogram {self.name!r}: cannot merge {len(bucket_counts)} "
                f"buckets into {len(self.bucket_counts)}"
            )
        with self._lock:
            for i, n in enumerate(bucket_counts):
                self.bucket_counts[i] += int(n)
            self.count += int(count)
            self.total += float(total)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}{dict(self.labels)}, n={self.count}, "
            f"mean={self.mean:.3g})"
        )


class MetricsRegistry:
    """Get-or-create registry of named, labelled metrics.

    A metric name is bound to one kind for the registry's lifetime;
    asking for ``counter("x")`` after ``gauge("x")`` is a programming
    error and raises :class:`~repro.errors.ObservabilityError`.
    """

    def __init__(self):
        self._kinds: Dict[str, str] = {}
        self._families: Dict[str, Dict[LabelKey, object]] = {}
        self._lock = threading.RLock()

    # -- get-or-create -----------------------------------------------------

    def _family(self, name: str, kind: str) -> Dict[LabelKey, object]:
        bound = self._kinds.get(name)
        if bound is None:
            self._kinds[name] = kind
            self._families[name] = {}
        elif bound != kind:
            raise ObservabilityError(
                f"metric {name!r} is a {bound}, not a {kind}"
            )
        return self._families[name]

    def counter(self, name: str, **labels) -> Counter:
        with self._lock:
            family = self._family(name, "counter")
            key = _label_key(labels)
            metric = family.get(key)
            if metric is None:
                metric = family[key] = Counter(name, dict(key))
            return metric

    def gauge(self, name: str, **labels) -> Gauge:
        with self._lock:
            family = self._family(name, "gauge")
            key = _label_key(labels)
            metric = family.get(key)
            if metric is None:
                metric = family[key] = Gauge(name, dict(key))
            return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        with self._lock:
            family = self._family(name, "histogram")
            key = _label_key(labels)
            metric = family.get(key)
            if metric is None:
                metric = family[key] = Histogram(
                    name, dict(key), buckets or DEFAULT_BUCKETS
                )
            return metric

    # -- queries -----------------------------------------------------------

    def get(self, name: str, **labels):
        """The metric if it exists, else None (never creates)."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.get(_label_key(labels))

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Scalar value of a counter/gauge, or *default* if absent."""
        metric = self.get(name, **labels)
        if metric is None:
            return default
        return metric.value

    def series(self, name: str) -> List[object]:
        """Every labelled instance of one metric name."""
        return list(self._families.get(name, {}).values())

    def names(self) -> List[str]:
        return sorted(self._families)

    def __iter__(self) -> Iterable[object]:
        for name in sorted(self._families):
            for key in sorted(self._families[name]):
                yield self._families[name][key]

    # -- merge (process boundary) -----------------------------------------

    def merge_snapshot(self, snapshot: Dict[str, List[Dict[str, object]]]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        This is how :mod:`repro.runtime` worker processes report: each
        worker accumulates into a private registry, ships the snapshot
        over the reply channel, and the host merges it here.  Counters
        and histograms are additive; gauges take the incoming value
        (last write wins, matching their in-process semantics).
        """
        for name, rows in snapshot.items():
            for row in rows:
                kind = row.get("kind")
                labels = {str(k): v for k, v in row.get("labels", {}).items()}
                if kind == "counter":
                    self.counter(name, **labels).inc(
                        float(row.get("value", 0.0))
                    )
                elif kind == "gauge":
                    self.gauge(name, **labels).set(
                        float(row.get("value", 0.0))
                    )
                elif kind == "histogram":
                    hist = self.histogram(
                        name, buckets=row.get("bounds"), **labels
                    )
                    hist.merge(
                        row.get("bucket_counts", []),
                        row.get("count", 0),
                        row.get("total", 0.0),
                    )
                else:
                    raise ObservabilityError(
                        f"cannot merge metric {name!r} of kind {kind!r}"
                    )

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """JSON-able dump: name -> list of {labels, kind, value...}."""
        out: Dict[str, List[Dict[str, object]]] = {}
        for name in sorted(self._families):
            rows: List[Dict[str, object]] = []
            for key in sorted(self._families[name]):
                m = self._families[name][key]
                row: Dict[str, object] = {
                    "labels": dict(m.labels),
                    "kind": m.kind,
                }
                if isinstance(m, Histogram):
                    row["count"] = m.count
                    row["total"] = m.total
                    row["bounds"] = list(m.bounds)
                    row["bucket_counts"] = list(m.bucket_counts)
                else:
                    row["value"] = m.value
                rows.append(row)
            out[name] = rows
        return out

    def render(self) -> str:
        """Fixed-width text dump (one row per labelled instance)."""
        from ..analysis.report import Table

        table = Table(["metric", "labels", "value"], title="metrics")
        for m in self:
            labels = ",".join(f"{k}={v}" for k, v in sorted(m.labels.items()))
            if isinstance(m, Histogram):
                value = f"n={m.count} mean={m.mean:.4g}"
            else:
                value = m.value
            table.row([m.name, labels, value])
        return table.render()
