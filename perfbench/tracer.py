"""Span tracer for the benchmark's traced run.

The tracer wraps functions of the program from the outside (it patches
attributes on classes and modules and puts the originals back on
:meth:`Tracer.uninstall`), so the program itself carries no tracing
code.  Each wrapped call is a span: its *self time* is its duration
minus the time covered by the spans it directly contains.  Spans nest
per thread; a span that waits for work done on another thread counts
the wait as its own self time.
"""

from __future__ import annotations

import functools
import re
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class LayerStats:
    """Calls and self seconds recorded for one layer."""

    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Records calls and self time per layer for wrapped functions.

    ``clock`` is injectable so tests can drive the arithmetic with a
    synthetic clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: Dict[str, LayerStats] = defaultdict(LayerStats)
        self.counters: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> None:
        """Open a span of ``layer`` on the calling thread."""
        # frame: [layer, start, seconds covered by direct children]
        self._stack().append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost open span of the calling thread."""
        end = self.clock()
        stack = self._stack()
        layer, start, children = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            stats = self.layers[layer]
            stats.calls += 1
            stats.self_s += duration - children

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (thread-safe)."""
        with self._lock:
            self.counters[name] += amount

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str, layer: str,
             after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a ``layer``
        span around each call.

        ``owner`` is a class or a module.  ``after(tracer, args, kwargs,
        result)`` runs after a successful call, outside the span, to
        update counters.  Only attributes defined on ``owner`` itself
        are wrapped (a subclass inheriting a method is traced through
        its base class).
        """
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr}: wrap plain functions only")
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__perfbench_original__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Dict[str, Tuple[int, float]],
                                Dict[str, int]]:
        """``({layer: (calls, self_s)}, counters)`` copied under the lock."""
        with self._lock:
            layers = {name: (s.calls, s.self_s)
                      for name, s in self.layers.items()}
            return layers, dict(self.counters)

    def reset(self) -> None:
        with self._lock:
            self.layers.clear()
            self.counters.clear()


def is_wrapped(function: object) -> bool:
    """Whether ``function`` is a :class:`Tracer` wrapper."""
    return hasattr(function, "__perfbench_original__")
