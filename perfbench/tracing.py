"""Spans recorded around calls into the program, from outside it.

The benchmark never passes a tracer into the program: a tracer turns off
the frozen sampling fast path and adds spans inside the program, so a
traced run would measure a different program.  Instead every object the
benchmark hands to the program is a :class:`Proxy` that times the calls
named in its hook table and forwards everything else untouched —
including a *missing* attribute, which stays missing, because the
samplers probe for optional fast paths with ``getattr``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "SpanLog", "Proxy", "self_times", "layer_of"]

#: The repository's layers, in the order reports list them.
LAYERS = ("core", "storage", "gnn", "distributed", "serving", "obs")

_now = time.perf_counter


class SpanLog:
    """In-memory span recorder; written out only when the run ends.

    A span is ``(name, start, end, parent, op_id)`` with ``parent`` the
    index of the enclosing span (-1 for a root) and ``op_id`` the train
    step or serving request the benchmark was on when it opened.  While
    ``enabled`` is False, :meth:`call` costs one attribute test.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = 0
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)


class Proxy:
    """Forward every attribute of ``target``; time the hooked methods.

    ``hooks`` maps a method name to ``(span_name, observe)``: the call
    runs inside a span of that name and, if ``observe`` is given, it is
    called afterwards as ``observe(result, seconds, *args, **kwargs)``
    with the call's wall time — outside the span, so recording outputs
    for the correctness checks is not billed to the layer.  Attribute
    writes go to the target.
    """

    def __init__(self, target, log: SpanLog, hooks: Dict[str, tuple]) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_hooks", hooks)

    def __getattr__(self, name: str):
        attr = getattr(self._target, name)  # AttributeError stays an error
        hook = self._hooks.get(name)
        if hook is None:
            return attr
        span_name, observe = hook
        log = self._log

        if observe is None:
            return lambda *args, **kwargs: log.call(
                span_name, attr, *args, **kwargs
            )

        def call(*args, **kwargs):
            start = _now()
            out = log.call(span_name, attr, *args, **kwargs)
            observe(out, _now() - start, *args, **kwargs)
            return out

        return call

    def __setattr__(self, name: str, value) -> None:
        setattr(self._target, name, value)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(spans) -> Dict[str, Tuple[float, int]]:
    """``{span name: (total self seconds, calls)}``.

    Self time is a span's duration minus what its direct children cover;
    calls are synchronous on one thread, so children never overlap.
    """
    child_cover = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    out: Dict[str, Tuple[float, int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - child_cover[i], calls + 1)
    return out
