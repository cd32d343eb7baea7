"""Traced runs: spans, call counts and self time per layer, recorded from
outside the library.

`Tracer.install` replaces every public function of the layer modules, in
every katsura namespace that binds it, with a wrapper; `uninstall` puts the
originals back.  The library source is untouched.  A layer is one module,
and its self time is the time spent in its functions minus the time of the
wrapped calls they make.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from collections import Counter, defaultdict
from itertools import count

from katsura.errors import DepthCapExceeded

LAYERS = ("cli", "parsing", "matrices", "semigroupoid", "invsemigroup", "pathspace", "decisions", "ktheory")


def is_hot(name: str) -> bool:
    """Row rescans and the partial-isometry arithmetic run thousands of times
    per operation: they add to the call counts and times, but get no span
    of their own."""
    return name == "matrices.out_vertices" or name.startswith("invsemigroup.")


def _fixed_cylinder(tracer, args, result, exc):
    if result is not None and result.value != "unknown":
        tracer.work["pathspace.has_fixed_cylinder.decided"] += 1


def _germ(tracer, args, result, exc):
    if result is not None and result != "unknown":
        tracer.work["pathspace.germ_equal.decided"] += 1


def _image(tracer, args, result, exc):
    if isinstance(exc, DepthCapExceeded):
        tracer.work["pathspace.image_point.cap_hits"] += 1


def _cycles(tracer, args, result, exc):
    if result is not None:
        tracer.work["matrices.simple_vertex_cycles.cycles"] += len(result)


def _exponents(tracer, args, result, exc):
    if result is not None:
        tracer.work["decisions.probe_exponents.exponents"] += len(result)


def _push(tracer, args, result, exc):
    tracer.work["invsemigroup.push_unitary.edges"] += len(args[3])


def _smith(tracer, args, result, exc):
    if result is not None:
        bits = max(abs(x).bit_length() for w in (result.u, result.v) for row in w for x in row)
        key = "ktheory.smith_normal_form.max_witness_bits"
        tracer.work[key] = max(tracer.work[key], bits)


# Work counters read from the arguments, the result or the exception.
OBSERVERS = {
    "pathspace.has_fixed_cylinder": _fixed_cylinder,
    "pathspace.germ_equal": _germ,
    "pathspace.image_point": _image,
    "matrices.simple_vertex_cycles": _cycles,
    "decisions.probe_exponents": _exponents,
    "invsemigroup.push_unitary": _push,
    "ktheory.smith_normal_form": _smith,
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, operation)
        self.op = None                # index of the operation being run
        self.active = True            # off while the benchmark checks outputs
        self._stack: list[list] = []  # per open call: [child time, span id]
        self._ids = count()
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        hot, observe, ids, clock = is_hot(name), OBSERVERS.get(name), self._ids, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            frame = [0.0, parent_id if hot else next(ids)]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if parent:
                    parent[0] += elapsed
                if not hot:
                    spans.append((frame[1], parent_id, name, start, end, tracer.op))
                if observe:
                    observe(tracer, args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items() if name == "katsura" or name.startswith("katsura.")]
        for layer in LAYERS:
            module = importlib.import_module(f"katsura.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                            self._undo.append((ns, key, fn))
        # The one method the metrics name: a rescan of a row of A.
        pair_cls = importlib.import_module("katsura.matrices").MatrixPair
        self._undo.append((pair_cls, "out_vertices", pair_cls.out_vertices))
        pair_cls.out_vertices = self._wrap("matrices.out_vertices", pair_cls.out_vertices)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo.clear()

    def layer_self_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.split(".")[0] == layer)

    def metric(self, name: str, ops: int) -> float:
        """A per-layer metric named `<layer>.self_s` or `<layer>.<function>.<stat>`.
        Counts and times are per operation; ratios have the calls as base and
        read 1.0 when there were none."""
        parts = name.split(".")
        if len(parts) == 2 and parts[1] == "self_s":
            return self.layer_self_s(parts[0]) / ops
        function = ".".join(parts[:2])
        stat = parts[2]
        if stat == "calls":
            return self.calls[function] / ops
        if stat == "self_s":
            return self.self_s[function] / ops
        if stat == "decided_ratio":
            calls = self.calls[function]
            return self.work[f"{function}.decided"] / calls if calls else 1.0
        if stat == "max_witness_bits":
            return float(self.work[name])
        return self.work[name] / ops
