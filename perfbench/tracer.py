"""Span tracer for the traced benchmark run.

`Tracer.install` replaces the functions in TARGETS with timing wrappers in
every ``mellin_edge`` module namespace that binds them (including names
bound by ``from .x import f`` and dispatch tables such as
``cli.COMMANDS``).  Each call records a span (name, layer, start, end,
parent span, invocation id) in memory; nothing is written until the run
ends.  `layer_metrics` turns the spans into the per-layer metrics of
BENCHMARK.json.

Self time of a span is its duration minus the part of it covered by its
child spans, so the self times of one invocation sum to its root span.
"""

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict, namedtuple

import numpy as np

LAYERS = ("mellin", "symbols", "cone", "functionals", "asym_types",
          "edge_ops", "edge_spaces", "cli")


def _size(path):
    return os.path.getsize(path)


def _points(args, kwargs):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return np.size(z) * args[0].grid.n_points


def _symbol_y(args, kwargs):
    f = args[0]
    y = args[1] if len(args) > 1 else kwargs["y"]
    return (f.num.tobytes(), f.den.tobytes(), None if y is None else float(y))


# (layer, attribute path, probe): a probe maps the call's arguments, after
# the call, to a number (summed) or a key (counted distinct).
TARGETS = (
    ("mellin", "op_mellin", None),
    ("mellin", "mellin_transform", None),
    ("mellin", "kappa", None),
    ("mellin", "mellin_eval", _points),
    ("symbols", "locate_poles", _symbol_y),
    ("symbols", "laurent_expand", None),
    ("symbols", "track_branches", None),
    ("cone", "solve", lambda a, kw: float(a[1])),
    ("cone", "extract_asymptotics", None),
    ("cone", "split_flat_singular", None),
    ("cone", "detect_branching", None),
    ("functionals", "singular_function", None),
    ("asym_types", "AsymptoticType.__init__", None),
    ("asym_types", "AsymptoticType.to_json", None),
    ("edge_ops", "weight_shift_green", None),
    ("edge_ops", "eval_mellin_edge_symbol", None),
    ("edge_spaces", "apply_edge_operator", None),
    ("edge_spaces", "field_from_binary",
     lambda a, kw: _size(a[0]) + _size(a[1])),
    ("edge_spaces", "field_to_binary",
     lambda a, kw: _size(a[1]) + _size(a[2])),
    ("cli", "main", None),
    ("cli", "cmd_poles", None),
    ("cli", "cmd_solve", None),
    ("cli", "cmd_green_check", None),
    ("cli", "cmd_edge_apply", None),
)

Span = namedtuple("Span", "sid name layer start end parent invocation value "
                           "error")


class Tracer:
    """Collects spans from the wrapped functions; one per process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.invocation = None
        self._stack = []
        self._undo = []
        self._error_type = Exception

    def wrap(self, layer, name, fn, probe=None):
        """A wrapper of fn that records one span per call."""
        spans, stack, clock = self.spans, self._stack, self.clock
        full = layer + "." + name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except self._error_type as e:
                error = e
                raise
            finally:
                end = clock()
                stack.pop()
                value = probe(args, kwargs) if probe and error is None else None
                spans[sid] = Span(sid, full, layer, start, end, parent,
                                  self.invocation, value, error)
        return traced

    def install(self, package="mellin_edge"):
        """Wrap every TARGETS entry wherever the package's modules bind it."""
        self._error_type = importlib.import_module(
            package + ".errors").MellinEdgeError
        modules = [m for n, m in list(sys.modules.items())
                   if (n == package or n.startswith(package + "."))
                   and m is not None]
        for layer, path, probe in TARGETS:
            owner = importlib.import_module(package + "." + layer)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapped = self.wrap(layer, path, orig, probe)
            self._set(owner, attr, wrapped)
            if outer:
                continue
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, name, wrapped)
                    elif isinstance(val, dict):
                        for key, v in list(val.items()):
                            if v is orig:
                                self._set(val, key, wrapped)

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self):
        """Restore every binding install replaced."""
        while self._undo:
            owner, key, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)


def self_times(spans):
    """Self time of each span: duration minus the union of its children's
    intervals clipped to the span.  Parents are referenced by sid."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


# per-layer metric definitions: (name, unit) in BENCHMARK.json order
CALLS = ("mellin.op_mellin", "mellin.mellin_transform", "mellin.kappa",
         "mellin.mellin_eval", "symbols.locate_poles", "symbols.laurent_expand",
         "cone.solve", "functionals.singular_function",
         "edge_ops.weight_shift_green", "edge_ops.eval_mellin_edge_symbol")
SELF = ("mellin.op_mellin", "mellin.mellin_transform", "mellin.kappa",
        "mellin.mellin_eval", "symbols.locate_poles", "symbols.laurent_expand",
        "symbols.track_branches", "cone.solve", "cone.extract_asymptotics",
        "cone.split_flat_singular", "cone.detect_branching",
        "edge_ops.weight_shift_green", "edge_ops.eval_mellin_edge_symbol",
        "edge_spaces.apply_edge_operator")
DISTINCT = ("symbols.locate_poles", "cone.solve")
FIELD_IO = ("edge_spaces.field_from_binary", "edge_spaces.field_to_binary")

PER_LAYER = (
    [(f + ".calls", "count") for f in CALLS]
    + [(f + ".self_s", "s") for f in SELF]
    + [(f + ".distinct_frac", "ratio") for f in DISTINCT]
    + [("mellin.mellin_eval.points", "count"),
       ("mellin.mellin_eval.share", "ratio"),
       ("edge_spaces.field_io_s", "s"),
       ("edge_spaces.field_io_bytes", "bytes"),
       ("cli.artifact_bytes", "bytes")]
    + [(layer + ".self_s", "s") for layer in LAYERS]
    + [(layer + ".share", "ratio") for layer in LAYERS]
    + [(layer + ".errors", "count") for layer in LAYERS]
    + [("trace.invocation_s", "s"), ("trace.unattributed_s", "s"),
       ("trace.overhead_s", "s"), ("trace.spans", "count")]
)


def _invocation_metrics(spans, wall):
    st = self_times(spans)
    m = defaultdict(float)
    keys = defaultdict(set)
    for s, t in zip(spans, st):
        m[s.layer + ".self_s"] += t
        m[s.name + ".self_s"] += t
        m[s.name + ".calls"] += 1
        if s.name in DISTINCT:
            keys[s.name].add(s.value)
        elif s.value is not None:
            m[s.name + ".value"] += s.value
    for f in DISTINCT:
        calls = m[f + ".calls"]
        m[f + ".distinct_frac"] = len(keys[f]) / calls if calls else 0.0
    m["mellin.mellin_eval.points"] = m["mellin.mellin_eval.value"]
    m["edge_spaces.field_io_s"] = sum(m[f + ".self_s"] for f in FIELD_IO)
    m["edge_spaces.field_io_bytes"] = sum(m[f + ".value"] for f in FIELD_IO)
    for layer in LAYERS:
        m[layer + ".share"] = m[layer + ".self_s"] / wall
    m["mellin.mellin_eval.share"] = m["mellin.mellin_eval.self_s"] / wall
    m["trace.invocation_s"] = wall
    m["trace.unattributed_s"] = wall - sum(st)
    m["trace.spans"] = len(spans)
    return m


def layer_metrics(spans, walls, artifact_bytes, overhead_s):
    """Per-layer metrics over the traced invocations.

    walls and artifact_bytes map invocation id to the invocation's wall
    time and artifact size.  Times, counts and ratios are medians over
    invocations; errors are summed, each typed error counted once per
    layer it passed through.
    """
    by_inv = defaultdict(list)
    for s in spans:
        by_inv[s.invocation].append(s)
    per = []
    for inv, wall in walls.items():
        m = _invocation_metrics(by_inv.get(inv, []), wall)
        m["cli.artifact_bytes"] = artifact_bytes[inv]
        per.append(m)
    errors = defaultdict(set)
    for s in spans:
        if s.error is not None:
            errors[s.layer].add(id(s.error))
    out = {}
    for name, unit in PER_LAYER:
        if name.endswith(".errors"):
            value = len(errors[name[:-len(".errors")]])
        elif name == "trace.overhead_s":
            value = overhead_s
        else:
            value = statistics.median(m[name] for m in per)
        out[name] = {"value": value, "unit": unit}
    return out
