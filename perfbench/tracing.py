"""Span tracing installed from outside the program.

``Tracer.install`` replaces the public functions of every layer module of
``harmext`` (and the public methods of its main classes) with wrappers that
record one span per call: name, start, end, parent span and a few counts.
Spans are kept in memory; ``Tracer.write`` dumps them when the run ends.
Every alias of a wrapped function is patched where it is looked up (for
example ``cli.from_description`` and ``poisson.phi``), because ``from ...
import`` copies the binding into the importing module.

Names that a future version of the program no longer has are skipped, so
the traced run keeps working while the code under it changes; the metric
of a span that never ran reads 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

# the layers of harmext (dyadic and errors do no measurable work)
LAYERS = ("circle_map", "cantor", "discrete", "poisson", "boundary",
          "orlicz", "weights", "report", "cli")

# classes whose public methods get spans, with the prefix of their span
# names: module-level helpers of a layer are named "<layer>.<function>"
# and so are the methods of the layer's main class; the geometry builders
# keep their class name
CLASSES = {
    "circle_map": {"CircleMap": ""},
    "report": {"EnergyReport": ""},
    "cantor": {"StaircaseLift": ""},
    "poisson": {"PoissonExtension": ""},
    "boundary": {"PairGeometry": "PairGeometry.",
                 "InverseGeometry": "InverseGeometry."},
}
# dunder methods that do work; all other dunders are plumbing
DUNDERS = ("__call__",)


def _size(x) -> int:
    try:
        return int(np.size(x))
    except (TypeError, ValueError):
        return 0


def nbytes(obj, depth: int = 2) -> int:
    """Bytes held by the numpy arrays inside ``obj`` (a few levels deep)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if depth <= 0:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(o, depth - 1) for o in obj)
    if isinstance(obj, dict):
        return sum(nbytes(o, depth - 1) for o in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(nbytes(o, depth - 1) for o in vars(obj).values())
    return 0


# ------------------------------------------------------------ counters
# Each counter hook receives (args, kwargs, result, extra) and returns a
# dict of counts for the span.  ``extra`` is filled before the call by a
# pre-hook where the count needs the state before the call.

def _size_of_arg(index, key):
    def hook(args, kwargs, result, extra):
        return {key: _size(args[index]) if len(args) > index else 0}
    return hook


def _level_samples_pre(args, kwargs):
    self, j = args[0], (args[1] if len(args) > 1 else kwargs.get("j"))
    cache = getattr(self, "_samples", None)
    hit = isinstance(cache, dict) and j in cache
    boundary = getattr(self, "boundary", None)
    return {"hit": hit, "key": (getattr(boundary, "description", ""), j)}


def _level_samples_post(args, kwargs, result, extra):
    if extra["hit"]:
        return {"key": extra["key"]}
    return {"misses": 1, "bytes": nbytes(result), "key": extra["key"]}


def _built_bytes(args, kwargs, result, extra):
    return {"bytes": nbytes(result)}


# span name -> (pre-hook or None, post-hook)
COUNTERS = {
    "circle_map.eval": (None, _size_of_arg(1, "points")),
    "circle_map.invert": (None, _size_of_arg(1, "points")),
    "orlicz.phi": (None, _size_of_arg(1, "elements")),
    "poisson.level_samples": (_level_samples_pre, _level_samples_post),
    "boundary.PairGeometry.build": (None, _built_bytes),
    "boundary.InverseGeometry.build": (None, _built_bytes),
    "poisson.extend": (None, _size_of_arg(1, "points")),
    "poisson.wirtinger": (None, _size_of_arg(1, "points")),
}


class Tracer:
    """Records spans of the wrapped calls while ``active``."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []       # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ---------------------------------------------------------- recording

    def _wrap(self, name, fn):
        pre, post = COUNTERS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            extra = pre(args, kwargs) if pre else None
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, {}]
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4]["failed"] = 1
                raise
            else:
                if post:
                    span[4].update(post(args, kwargs, result, extra))
                return result
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every public function and method of the layer modules."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"harmext.{layer}")
            except ImportError:
                continue
        originals = {}       # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, prefix in CLASSES.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                if cls is not None:
                    self._wrap_class(layer, cls, prefix)
        # patch every binding of a wrapped function, in every layer module
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _wrap_class(self, layer, cls, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{prefix}{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name,
                                                            raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name,
                                                             raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every patched binding back."""
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        self._stack.clear()
        return spans

    @staticmethod
    def write(path, rounds):
        """Write the spans of every traced round as JSON lines."""
        with open(path, "w") as fh:
            for r, spans in enumerate(rounds):
                for i, (name, start, end, parent, counts) in enumerate(spans):
                    rec = {"round": r, "id": i, "name": name,
                           "start": start, "end": end, "parent": parent}
                    rec.update({k: v for k, v in counts.items()
                                if k != "key"})
                    fh.write(json.dumps(rec) + "\n")


# --------------------------------------------------------------- analysis

def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus what its children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(children[i], start, end)
            for i, (name, start, end, parent, _) in enumerate(spans)]


def summarize(spans) -> dict:
    """Per-name totals of one round: self_s, calls and every counter."""
    out: dict = {}
    keys: dict = {}
    for span, self_s in zip(spans, self_times(spans)):
        name, _, _, _, counts = span
        agg = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        agg["self_s"] += self_s
        agg["calls"] += 1
        for k, v in counts.items():
            if k == "key":
                keys.setdefault(name, set()).add(v)
            else:
                agg[k] = agg.get(k, 0) + v
    for name, distinct in keys.items():
        out[name]["distinct"] = len(distinct)
    return out


# ------------------------------------------------------------- metrics
# (metric, unit); see README.md for the end-to-end metric each one should
# move and on which workload
PER_LAYER = (
    ("poisson.level_samples.self_s", "s"),
    ("poisson.level_samples.misses", "count"),
    ("poisson.level_samples.mb", "MB"),
    ("poisson.level_samples.reuse", "ratio"),
    ("poisson.kernel_weight_integral.self_s", "s"),
    ("poisson.kernel_gauge_integral.self_s", "s"),
    ("poisson.extend.self_s", "s"),
    ("poisson.extend.failed", "count"),
    ("poisson.wirtinger.self_s", "s"),
    ("poisson.wirtinger.failed", "count"),
    ("boundary.PairGeometry.build.self_s", "s"),
    ("boundary.PairGeometry.build.calls", "count"),
    ("boundary.PairGeometry.build.mb", "MB"),
    ("boundary.gauge_pair_energy.self_s", "s"),
    ("boundary.InverseGeometry.build.self_s", "s"),
    ("boundary.kernel_antiderivative.calls", "count"),
    ("boundary.kernel_antiderivative.self_s", "s"),
    ("boundary.inverse_kernel_energy.self_s", "s"),
    ("circle_map.invert.self_s", "s"),
    ("circle_map.invert.points", "count"),
    ("circle_map.eval.calls", "count"),
    ("circle_map.eval.points", "count"),
    ("circle_map.eval.self_s", "s"),
    ("circle_map.level_increments.self_s", "s"),
    ("circle_map.from_description.self_s", "s"),
    ("cantor.make_staircase_map.self_s", "s"),
    ("cantor.level_increment_groups.self_s", "s"),
    ("cantor.level_increment_groups.calls", "count"),
    ("cantor.certify_modulus.self_s", "s"),
    ("discrete.length_power_energy.self_s", "s"),
    ("discrete.gauge_ratio_energy.self_s", "s"),
    ("discrete.block_sums.self_s", "s"),
    ("orlicz.phi.self_s", "s"),
    ("orlicz.phi.elements", "count"),
    ("orlicz.verify_properties.self_s", "s"),
    ("weights.estimate_ap_constant.self_s", "s"),
    ("report.finalize.self_s", "s"),
    ("report.to_json_dict.self_s", "s"),
    ("cli.output_bytes", "bytes"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.overhead_frac", "ratio"),
)

_MB = float(1 << 20)


def layer_values(summary: dict, output_bytes: int) -> dict:
    """The per-layer metrics of one traced round (all but the overhead)."""
    out = {}
    for metric, _unit in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if metric == "cli.output_bytes":
            out[metric] = float(output_bytes)
        elif head in LAYERS and field == "self_s":
            out[metric] = sum(s["self_s"] for n, s in summary.items()
                              if n.split(".", 1)[0] == head)
        elif metric == "trace.overhead_frac":
            continue
        else:
            s = summary.get(head, {})
            if field == "mb":
                out[metric] = s.get("bytes", 0) / _MB
            elif field == "reuse":
                out[metric] = (s.get("distinct", 0) / s["misses"]
                               if s.get("misses") else 0.0)
            else:
                out[metric] = float(s.get(field, 0))
    return out
