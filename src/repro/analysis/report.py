"""Plain-text tables for the benchmark harness output."""

from __future__ import annotations

from typing import List, Mapping, Sequence


class Table:
    """Minimal fixed-width table formatter for bench reports.

    Floats print with trailing zeros stripped, so ``4.0`` reads ``4``:

    >>> t = Table(["n", "rate"])
    >>> t.row([8, 4.0])
    >>> print(t.render())          # doctest: +NORMALIZE_WHITESPACE
    n  rate
    -  ----
    8  4
    """

    def __init__(self, headers: Sequence[str], title: str = ""):
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def row(self, values: Sequence[object]) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} values for {len(self.headers)} columns"
            )
        self.rows.append([self._fmt(v) for v in values])

    @staticmethod
    def _fmt(v: object) -> str:
        if isinstance(v, float):
            if v != v:  # NaN
                return "n/a"
            if abs(v) >= 1000 or (v != 0 and abs(v) < 0.01):
                return f"{v:.3g}"
            return f"{v:.3f}".rstrip("0").rstrip(".")
        return str(v)

    def render(self) -> str:
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())


def kv_table(title: str, mapping: Mapping[str, object]) -> Table:
    """A two-column metric/value table from a mapping (insertion order).

    The shared shape of the telemetry summary and the trace-replay
    report sections.
    """
    t = Table(["metric", "value"], title=title)
    for key, value in mapping.items():
        t.row([str(key).replace("_", " "), value])
    return t
