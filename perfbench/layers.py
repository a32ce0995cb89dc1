"""Per-layer timing from the benchmark's own files.

:class:`LayerTimer` wraps named public calls of the program (methods,
properties, module functions and coroutines) and accumulates each
layer's *self* time: the wrapped call's duration minus the part of it
spent in other wrapped calls.  Self times of one thread therefore never
overlap, so on the thread that drives a request they add up to at most
the request's wall time; the remainder is reported as
``unattributed_ms``.  Calls made on other threads (the runtime's
dispatcher) are kept apart, because they overlap the driving thread.

``uninstall`` restores every original attribute, so a traced pass leaves
the program exactly as it found it.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


class LayerTimer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.side_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []
        #: Wrapped calls are timed only while this is set, so the
        #: benchmark's own calls into the same functions (oracle
        #: answers between requests) stay out of the layer totals.
        self.on = False

    # -- accounting ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list, items: int = 0,
              end: Optional[float] = None) -> None:
        elapsed = (time.perf_counter() if end is None else end) - frame[1]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += elapsed
        own = elapsed - frame[2]
        layer = frame[0]
        on_main = threading.current_thread() is self._main
        with self._lock:
            (self.self_s if on_main else self.side_s)[layer] += own
            self.calls[layer] += 1
            self.items[layer] += items

    @contextmanager
    def layer(self, name: str):
        """Time a block of the benchmark's own code as one layer call."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str,
              items: Optional[Callable] = None) -> Callable:
        if asyncio.iscoroutinefunction(fn):
            # Only valid for coroutines that do not suspend while timed
            # (the runtime's submit without rate limits): a suspension
            # would interleave other tasks' frames on this stack.
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                if not self.on:
                    return await fn(*args, **kwargs)
                frame = self._enter(layer)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(frame)
            return awrapper

        if items is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.on:
                    return fn(*args, **kwargs)
                frame = self._enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(frame)
            return wrapper

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            # items(args, result) runs after the clock stops, so sizing
            # the call (e.g. pickling a message) is not charged to it.
            if not self.on:
                return fn(*args, **kwargs)
            frame = self._enter(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._exit(frame, items(args, result), end)
        return counting

    def patch(self, owner, name: str, layer: str,
              items: Optional[Callable] = None) -> None:
        """Replace ``owner.name`` (class, module, or instance -- frozen
        dataclass fields included) by a timed twin; properties are timed
        through their getter."""
        raw = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        if isinstance(raw, property):
            new = property(self._wrap(raw.fget, layer), raw.fset, raw.fdel)
        else:
            new = self._wrap(raw, layer, items)
        _set(owner, name, new)
        self._undo.append((owner, name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            _set(owner, name, raw)

    # -- reading -------------------------------------------------------------

    def ms(self, *layers: str) -> float:
        """Summed self time of *layers* on the driving thread, in ms."""
        return 1e3 * sum(self.self_s.get(l, 0.0) for l in layers)

    def side_ms(self, *layers: str) -> float:
        return 1e3 * sum(self.side_s.get(l, 0.0) for l in layers)

    def n_calls(self, *layers: str) -> int:
        return sum(self.calls.get(l, 0) for l in layers)

    def n_items(self, *layers: str) -> int:
        return sum(self.items.get(l, 0) for l in layers)


def _set(owner, name: str, value) -> None:
    if isinstance(owner, type) or inspect.ismodule(owner):
        setattr(owner, name, value)
    else:
        object.__setattr__(owner, name, value)


def layer_table(timer: LayerTimer, groups: Dict[str, Tuple[str, ...]],
                wall_s: float, n_req: int,
                beats: Optional[Dict[str, float]] = None,
                side: Tuple[str, ...] = ()) -> Tuple[List[Dict[str, object]], float]:
    """Rows of per-request self time per reported layer group, plus the
    unattributed remainder (ms per request) of the driving thread.

    ``groups`` maps a reported layer name to the raw wrapped-layer names
    it sums.  Groups listed in ``side`` ran on another thread or process
    and are shown but left out of the sum.
    """
    beats = beats or {}
    wall_ms = 1e3 * wall_s
    rows = []
    attributed = 0.0
    for name, raw in groups.items():
        concurrent = name in side
        ms = timer.side_ms(*raw) if concurrent else timer.ms(*raw)
        if not concurrent:
            attributed += ms
        rows.append({
            "layer": name,
            "ms": ms / n_req,
            "share": ms / wall_ms if wall_ms else 0.0,
            "calls": timer.n_calls(*raw) / n_req,
            "beats": beats.get(name),
            "thread": "concurrent" if concurrent else "client",
        })
    rest = wall_ms - attributed
    rows.append({
        "layer": "unattributed", "ms": rest / n_req,
        "share": rest / wall_ms if wall_ms else 0.0, "calls": 0.0,
        "beats": None, "thread": "client",
    })
    rows.append({
        "layer": "wall", "ms": wall_ms / n_req, "share": 1.0, "calls": 0.0,
        "beats": beats.get("wall"), "thread": "client",
    })
    return rows, rest / n_req
