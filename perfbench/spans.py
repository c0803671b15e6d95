"""In-memory span tracer that wraps functions of an already imported package.

The tracer replaces a function at every place it is bound: the module that
defines it, every module that imported it by name (``from .oracle import
alpha_exact``), and the class for a method.  Calls made through any of those
names then record a span.  ``uninstall`` puts every original binding back.

Self time of a span is its duration minus the time covered by its direct
children.  Calls are single-threaded and nested, so children never overlap,
and the self times of all spans of an operation add up to the duration of
its root span.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """Per-function extras: ``before(tracer, args) -> args`` may replace the
    positional arguments; ``after(tracer, args, result, exc)`` reads them."""

    before: Callable | None = None
    after: Callable | None = None


class Tracer:
    def __init__(self, package: str, span_cap: int = 200_000):
        self.package = package
        self.span_cap = span_cap
        self.stack: list[list] = []          # open spans: [span id, child seconds]
        self.agg: dict[str, list] = {}       # name -> [calls, self s, total s]
        self.counters: dict[str, float] = {}
        self.state: dict[str, int] = {}      # scratch for hooks (nesting depths)
        self.spans: list[tuple] = []         # (trace id, span id, parent id, name, start, end)
        self.dropped = 0
        self.trace_id = 0
        self.next_id = 0
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    # -- counters -----------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        stack, spans, clock, tracer = self.stack, self.spans, time.perf_counter, self
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        before = hook.before if hook else None
        after = hook.after if hook else None

        def traced(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            parent = stack[-1] if stack else None
            tracer.next_id += 1
            frame = [tracer.next_id, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                agg[0] += 1
                agg[1] += dur - frame[1]
                agg[2] += dur
                if len(spans) < tracer.span_cap:
                    spans.append((tracer.trace_id, frame[0], parent[0] if parent else None,
                                  name, start, end))
                else:
                    tracer.dropped += 1
                if after is not None:
                    after(tracer, args, result, exc)

        traced.__wrapped__ = fn
        return traced

    def run(self, trace_id: int, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of one operation."""
        self.trace_id = trace_id
        return self.wrap(name, fn)(*args)

    # -- installation -------------------------------------------------------

    def _modules(self):
        for modname, mod in list(sys.modules.items()):
            if mod is None:
                continue
            if modname == self.package or modname.startswith(self.package + "."):
                yield mod

    def install(self, targets: dict[str, Hook | None]) -> None:
        """Wrap each ``<module>.<qualname>`` (module relative to the package).

        A name that no longer resolves is recorded in ``absent``.
        """
        for name, hook in targets.items():
            modname, _, qual = name.partition(".")
            try:
                owner = importlib.import_module(f"{self.package}.{modname}")
            except ImportError:
                self.absent.append(name)
                continue
            *path, attr = qual.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
            except AttributeError:
                self.absent.append(name)
                continue
            if path:
                orig = owner.__dict__.get(attr)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, hook))
                continue
            orig = getattr(owner, attr, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, orig, hook)
            for mod in self._modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
