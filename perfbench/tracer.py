"""Boundary tracing for the traced benchmark run.

A :class:`Tracer` wraps functions and methods of ``repro`` from the
outside: each wrapped call becomes a span (layer name, start, end,
parent) kept in memory.  Generator functions -- the simulator's
processes -- get one span per resume, so a process's time lands in the
layer whose code runs, not in whatever step happened to resume it.

A span's self time is its duration minus the durations of its direct
children.  Spans are written out only when the run ends
(:meth:`Tracer.write`).

Names are patched where they are looked up: a function imported with
``from module import name`` is replaced in every module that holds it,
not only where it is defined.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        #: finished spans: (name, start, end, parent index or -1)
        self.spans: List[Tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.self_time: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: open spans: [index, start, child time]
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.enabled = False

    # -- span bookkeeping ------------------------------------------------
    def _enter(self, name: str) -> None:
        self.calls[name] += 1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1][0] if self._stack else -1))
        self._stack.append([index, _clock(), 0.0])

    def _exit(self) -> None:
        end = _clock()
        index, start, child = self._stack.pop()
        name, _, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        duration = end - start
        self.self_time[name] += duration - child
        self.durations[name].append(duration)
        if self._stack:
            self._stack[-1][2] += duration

    def reset(self) -> None:
        """Forget recorded spans and counts (patches stay installed)."""
        if self._stack:
            raise RuntimeError("reset() with open spans")
        self.spans.clear()
        self.calls.clear()
        self.self_time.clear()
        self.durations.clear()

    # -- wrappers --------------------------------------------------------
    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        """*fn* with every call (or generator resume) recorded as a span."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                if not tracer.enabled:
                    return (yield from fn(*args, **kwargs))
                gen = fn(*args, **kwargs)
                send_value, error = None, None
                while True:
                    tracer._enter(name)
                    try:
                        if error is None:
                            yielded = gen.send(send_value)
                        else:
                            yielded = gen.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._exit()
                    try:
                        send_value, error = (yield yielded), None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # re-thrown into fn's frame
                        send_value, error = None, exc

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        """*fn* with calls counted but not timed (for very hot leaves)."""
        calls = self.calls
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------
    def patch_attr(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr = value``, remembering the original."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(
        self, name: str, module: object, attr: str, count_only: bool = False
    ) -> None:
        """Replace function ``module.attr`` everywhere it is looked up.

        Every loaded ``repro`` module holding the same function object
        (``from module import attr``) gets the wrapper too; a stale
        copy would escape the trace.
        """
        original = getattr(module, attr)
        wrapper = (self.count_wrapper if count_only else self.span_wrapper)(name, original)
        holders = [
            loaded
            for loaded_name, loaded in sorted(sys.modules.items())
            if loaded_name.split(".")[0] == "repro"
            and loaded is not None
            and loaded.__dict__.get(attr) is original
        ]
        for holder in holders:
            self.patch_attr(holder, attr, wrapper)

    def patch_methods(self, name: str, cls: type, attrs: List[str]) -> None:
        """Wrap methods *attrs* defined on *cls* (functions, class- and
        static methods, property getters) as spans named *name*."""
        for attr in attrs:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                value: object = classmethod(self.span_wrapper(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                value = staticmethod(self.span_wrapper(name, raw.__func__))
            elif isinstance(raw, property):
                value = property(self.span_wrapper(name, raw.fget), raw.fset, raw.fdel)
            else:
                value = self.span_wrapper(name, raw)
            self.patch_attr(cls, attr, value)

    def unpatch(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------------
    def total_self(self, *names: str) -> float:
        return sum(self.self_time.get(name, 0.0) for name in names)

    def write(self, path: str, label: Optional[str] = None) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            if label is not None:
                handle.write(json.dumps({"label": label}) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent}
                    )
                    + "\n"
                )
