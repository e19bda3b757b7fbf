"""Per-layer tracing by wrapping circforge's functions from outside.

A layer is one module of `circforge`.  `Tracer.install` replaces every
public function of each layer, and every public or arithmetic method of
the classes it defines, by a wrapper that records a span: its kind, its
parent span and its start and end times.  Spans stay in memory until the
pass is summarised.  A span's self time is its duration minus the
durations of its direct children, so each layer's self time excludes the
layers it calls; `cyclotomic` includes the `fractions` arithmetic below
it, and `jsonio` includes `json.dumps`.

Nothing in `circforge` changes: the wrappers are set on the modules'
attributes and the classes, and `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "cyclotomic", "polyring", "abelian", "smith", "gcirc", "splitting",
    "resinv", "blowup", "quotient_nc", "jsonio", "cli",
)
_METHOD_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__",
})
# The one private name traced: quotient_nc's candidate matcher.  Its misses
# are the factor matches quotient_nc tries and throws away.
_PRIVATE = {"quotient_nc": ("_match_scalar",)}


def _term_pairs(counters, args, _out):
    a, b = args
    counters["polyring.mul_term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _pipeline_steps(counters, _args, out):
    counters["blowup.pipeline_steps"] += len(out.steps)


def _match(counters, _args, out):
    counters["quotient_nc.match_attempts"] += 1
    if out is None:
        counters["quotient_nc.match_rejected"] += 1


def _bytes_out(counters, _args, out):
    counters["jsonio.bytes_out"] += len(out.encode())


_HOOKS = {
    "polyring:FracPoly.__mul__": _term_pairs,
    "polyring:FracPoly.__rmul__": _term_pairs,
    "blowup:gcirc_blowup_sequence": _pipeline_steps,
    "quotient_nc:_match_scalar": _match,
    "jsonio:json.dumps": _bytes_out,
}


def _defined_in(fn, module) -> bool:
    code = getattr(getattr(fn, "__wrapped__", fn), "__code__", None)
    return code is not None and code.co_filename == module.__file__


class Tracer:
    def __init__(self):
        self.kinds: list[str] = []  # kind index -> "layer:qualified name"
        self._kind_index: dict[str, int] = {}
        self._patches: list = []  # (owner, attribute, original)
        self._stack = [-1]
        self._new_pass()

    def _new_pass(self):
        self.kind_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()

    def _wrap(self, fn, kind_name: str):
        kind = self._kind_index.setdefault(kind_name, len(self.kinds))
        if kind == len(self.kinds):
            self.kinds.append(kind_name)
        hook = _HOOKS.get(kind_name)
        tracer, stack, clock = self, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.kind_of)
            tracer.kind_of.append(kind)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, out)
            return out

        return traced

    def install(self):
        modules = {name: importlib.import_module(f"circforge.{name}") for name in LAYERS}
        package = [m for name, m in sys.modules.items() if name == "circforge" or name.startswith("circforge.")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, mod, obj)
                elif callable(obj) and _defined_in(obj, mod) and (
                    not name.startswith("_") or name in _PRIVATE.get(layer, ())
                ):
                    wrapper = self._wrap(obj, f"{layer}:{name}")
                    for owner in package:  # every `from .x import f` binding too
                        for attr, value in list(vars(owner).items()):
                            if value is obj:
                                self._patches.append((owner, attr, obj))
                                setattr(owner, attr, wrapper)
        self._patches.append((json, "dumps", json.dumps))
        json.dumps = self._wrap(json.dumps, "jsonio:json.dumps")

    def _wrap_class(self, layer, mod, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _METHOD_DUNDERS:
                continue
            fn = attr.__func__ if isinstance(attr, staticmethod) else attr
            if not (callable(fn) and _defined_in(fn, mod)) or isinstance(attr, (property, classmethod)):
                continue
            wrapper = self._wrap(fn, f"{layer}:{cls.__name__}.{name}")
            self._patches.append((cls, name, attr))
            setattr(cls, name, staticmethod(wrapper) if isinstance(attr, staticmethod) else wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_pass(self) -> dict:
        """Summarise the spans and counters recorded since the last call."""
        n = len(self.kind_of)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        kinds = self.kinds
        for i, k in enumerate(self.kind_of):
            calls[kinds[k]] += 1
            self_s[kinds[k]] += end[i] - start[i] - child[i]
        summary = {"calls": dict(calls), "self_s": dict(self_s), "counters": dict(self.counters)}
        self._new_pass()
        return summary


def merge(summaries) -> dict:
    """Sum the summaries of several processes' passes."""
    out = {"calls": Counter(), "self_s": Counter(), "counters": Counter()}
    for s in summaries:
        for part in out:
            out[part].update(s[part])
    return {part: dict(values) for part, values in out.items()}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one pass, as {name: (value, unit)}."""
    calls, self_s, counters = Counter(summary["calls"]), Counter(summary["self_s"]), Counter(summary["counters"])

    def n(*kinds):
        return sum(calls[k] for k in kinds)

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + ":"))

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + ":"))

    attempts = counters["quotient_nc.match_attempts"]
    return {
        "cyclotomic.mul_calls": (n("cyclotomic:Cyclo.__mul__", "cyclotomic:Cyclo.__rmul__"), "count"),
        "cyclotomic.add_calls": (n("cyclotomic:Cyclo.__add__", "cyclotomic:Cyclo.__radd__"), "count"),
        "cyclotomic.self_s": (layer_self("cyclotomic"), "s"),
        "cyclotomic.inverse_calls": (n("cyclotomic:Cyclo.inverse"), "count"),
        "cyclotomic.inverse_self_s": (self_s["cyclotomic:Cyclo.inverse"], "s"),
        "polyring.mul_calls": (n("polyring:FracPoly.__mul__", "polyring:FracPoly.__rmul__"), "count"),
        "polyring.mul_term_pairs": (counters["polyring.mul_term_pairs"], "count"),
        "polyring.mul_self_s": (self_s["polyring:FracPoly.__mul__"] + self_s["polyring:FracPoly.__rmul__"], "s"),
        "polyring.substitute_calls": (n("polyring:FracPoly.substitute"), "count"),
        "polyring.divide_exact_calls": (n("polyring:divide_exact"), "count"),
        "polyring.self_s": (layer_self("polyring"), "s"),
        "gcirc.det_calls": (n("gcirc:gcirc_det"), "count"),
        "gcirc.self_s": (layer_self("gcirc"), "s"),
        "splitting.split_calls": (n("splitting:split_newton"), "count"),
        "splitting.self_s": (layer_self("splitting"), "s"),
        "blowup.pipeline_steps": (counters["blowup.pipeline_steps"], "count"),
        "blowup.self_s": (layer_self("blowup"), "s"),
        "quotient_nc.normal_form_calls": (n("quotient_nc:invariant_nc_normal_form"), "count"),
        "quotient_nc.rejected_ratio": (counters["quotient_nc.match_rejected"] / attempts if attempts else 0.0, "ratio"),
        "quotient_nc.self_s": (layer_self("quotient_nc"), "s"),
        "abelian.calls": (layer_calls("abelian"), "count"),
        "abelian.self_s": (layer_self("abelian"), "s"),
        "smith.calls": (layer_calls("smith"), "count"),
        "smith.self_s": (layer_self("smith"), "s"),
        "resinv.self_s": (layer_self("resinv"), "s"),
        "jsonio.bytes_out": (counters["jsonio.bytes_out"], "bytes"),
        "jsonio.self_s": (layer_self("jsonio"), "s"),
    }


def counts_only(summary: dict) -> dict:
    """The parts of a summary that must repeat exactly: calls and counters."""
    return {"calls": summary["calls"], "counters": summary["counters"]}
