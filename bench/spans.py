"""Span tracing of rotgram's public functions, applied from outside.

``Tracer.patch`` replaces every public function of the traced modules
with a wrapper that records one span (name, parent, start, end) per
call.  ``from ... import`` copies names, so every module attribute bound
to an original function is replaced, not only the defining module's.
Each wrapper also clocks its own entry and exit, and ``calibrate``
measures the little tracer work outside those clocks, so that a
caller's self time leaves out the tracer's work around its nested
calls.  Spans are kept in flat arrays in memory; ``take_pass`` folds
them into per-layer totals and ``save`` writes the last pass out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict

import numpy as np

# Arguments whose size is counted as a layer's ``.rows``.
ROWS_ARGUMENT = {
    "so3.from_axis_angle_batch": ("axes", len),
    "distributions.sample_x_values": ("n", int),
}
# The integrand handed to ``integrate`` is wrapped to count ``.evals``.
EVALS_ARGUMENT = {"moments.integrate": "f"}


def public_functions(module):
    """Public functions defined in ``module`` (not imported into it)."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self.last = None
        self.nested_cost = 0.0
        self.eval_cost = 0.0
        self._reset()

    def _reset(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.entered = array("d")   # wrapper entry
        self.start = array("d")     # span: the wrapped call alone
        self.end = array("d")
        self.left = array("d")      # wrapper exit

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        rows = ROWS_ARGUMENT.get(name)
        evals = EVALS_ARGUMENT.get(name)
        signature = inspect.signature(fn) if rows or evals else None
        counts, stack, clock = self.counts, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                if rows and rows[0] in bound.arguments:
                    counts[name + ".rows"] += rows[1](bound.arguments[rows[0]])
                if evals and evals in bound.arguments:
                    bound.arguments[evals] = self._counted(name + ".evals",
                                                           bound.arguments[evals])
                args, kwargs = bound.args, bound.kwargs
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            tracer.left.append(0.0)
            tracer.entered.append(entered)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
                tracer.left[idx] = clock()

        return wrapper

    def _counted(self, key: str, f):
        counts = self.counts

        def counted(*a, **kw):
            counts[key] += 1
            return f(*a, **kw)

        return counted

    def patch(self, modules: dict):
        """Wrap the public functions of ``modules`` (short name -> module)
        in every module attribute that binds them.  Returns a callable
        that restores the originals."""
        wrappers = {}
        for short, module in modules.items():
            for name, fn in public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap("%s.%s" % (short, name), fn))
        undo = []
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])
                    undo.append((module, attr, obj))

        def restore():
            for module, attr, obj in undo:
                setattr(module, attr, obj)

        return restore

    def calibrate(self, n: int = 20000, repeats: int = 5) -> None:
        """Measure, per call, the tracer work that self times would
        otherwise keep, as the least of ``repeats`` trials of ``n`` calls
        of a function that does nothing.  ``nested_cost`` is what a
        traced caller's self time holds per nested traced call beyond a
        plain call: the call into the child's wrapper, outside its entry
        and exit clocks.  ``eval_cost`` is what the ``.evals`` counter
        adds to each call of an integrand."""

        def child():
            pass

        def caller(f):
            for _ in range(n):
                f()

        def timed(f):
            t0 = time.perf_counter()
            caller(f)
            return time.perf_counter() - t0

        nested = evals = float("inf")
        for _ in range(repeats):
            plain = timed(child)
            probe = Tracer()
            probe._wrap("caller", caller)(probe._wrap("child", child))
            nested = min(nested, (probe.take_pass()["caller.self_s"] - plain) / n)
            evals = min(evals, (timed(probe._counted("child.evals", child)) - plain) / n)
        self.nested_cost = max(nested, 0.0)
        self.eval_cost = max(evals, 0.0)

    def take_pass(self) -> dict:
        """Per-layer totals of the spans and counters recorded since the
        last call: ``<layer>.calls``, ``.total_s``, ``.self_s`` and the
        argument counters.  Self time is a span's duration minus the
        time its direct children spent inside their wrappers, from
        entry to exit, minus ``nested_cost`` per direct child and
        ``eval_cost`` per counted integrand call, and never below 0.
        ``total_s`` is the span's duration and includes that tracer
        work."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        outer = np.frombuffer(self.left) - np.frombuffer(self.entered)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=outer[nested] + self.nested_cost,
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=np.maximum(dur - child, 0.0), minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = int(calls[i])
            out[name + ".total_s"] = float(total[i])
            evals = self.counts.get(name + ".evals", 0)
            out[name + ".self_s"] = max(float(own[i]) - self.eval_cost * evals, 0.0)
        out.update(self.counts)
        self.last = {"name_id": name_id.copy(), "parent": parent.copy(),
                     **{key: np.frombuffer(getattr(self, key)).copy()
                        for key in ("entered", "start", "end", "left")}}
        self.counts.clear()
        self._reset()
        return out

    def save(self, path, meta: dict) -> None:
        """Write the spans of the last pass taken, with ``meta`` as JSON."""
        np.savez_compressed(path, names=np.array(self.names), meta=np.array(json.dumps(meta)),
                            **self.last)
