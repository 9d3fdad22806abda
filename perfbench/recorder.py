"""Wrapper recorder for the traced run.

Wraps each layer module's public functions, a few named class methods and the
Bareiss determinant from outside the package: the module attribute, every
``from .x import y`` binding of it in the other conetower modules, and the
class attribute for methods.  Nothing under ``src/`` is edited.

Every wrapped call adds to an aggregate (call count and self time, which is
its duration minus the time of wrapped calls beneath it).  Coarse calls also
keep a span (id, name, start, end, parent span, op id) in memory; hot
arithmetic keeps aggregates only, so memory stays bounded.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

# Layers are the modules of src/conetower; cli only dispatches.
LAYERS = (
    "gaussian", "multipoly", "linalg", "laurent", "bundles", "singular",
    "quadric", "tower", "blowup", "charts", "lemma_square",
)

# Stable short names for the calls the per-layer metrics are about; any other
# public function keeps its own name under its layer.
RENAMES = {
    ("multipoly", "_bareiss_determinant"): "determinant",
    ("linalg", "row_echelon_gaussian"): "echelon",
    ("linalg", "matrix_rank"): "rank",
    ("singular", "certify_singular_locus"): "certify",
    ("singular", "float_min_abs_off_claimed"): "oracle",
    ("singular", "real_slice_bound"): "slice_bound",
    ("singular", "sample_real_slice"): "sample",
    ("tower", "build_tower"): "build",
    ("tower", "tower_to_json"): "to_json",
    ("tower", "tower_to_dict"): "to_dict",
}

# (layer, class name, {method: short name}) for hot or named methods.
METHODS = (
    ("gaussian", "GaussianRational", {
        "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
        "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div", "__rtruediv__": "div",
        "__neg__": "neg", "__pow__": "pow",
    }),
    ("multipoly", "MultiPoly", {
        "__add__": "add", "__sub__": "add", "__neg__": "neg", "__mul__": "mul",
        "__pow__": "pow", "scale": "scale", "evaluate": "evaluate",
        "evaluate_complex": "evaluate_complex", "set_variables": "set_variables",
        "coefficient_in": "coefficient_in",
    }),
    ("laurent", "LaurentPoly", {
        "__add__": "add", "__sub__": "add", "__neg__": "neg", "__mul__": "mul",
        "scale": "scale", "shift": "shift",
    }),
)

PROPERTIES = (("quadric", "QuadricSplit", "quadric_poly", "quadric_poly"),)

# Aggregates only: too many calls per op to keep a span each.
HOT_LAYERS = ("gaussian", "multipoly", "laurent")
COARSE_IN_HOT_LAYERS = ("multipoly.determinant", "multipoly.resultant")

MAX_SPANS = 500_000

# (child, ancestor): count child calls made while ancestor is open
NESTED = (("linalg.nullspace", "bundles.section_dim"),)


def _matrix_shape(args):
    rows = args[0] if args else []
    return len(rows), (len(rows[0]) if rows else 0)


# per-call size probes: key -> (args -> {maximum name: value})
PROBES = {
    "multipoly.determinant": lambda args: {"multipoly.determinant.max_dim": len(args[0])},
    "linalg.echelon": lambda args: dict(zip(("linalg.echelon.max_rows", "linalg.echelon.max_cols"), _matrix_shape(args))),
}


class Recorder:
    """Aggregates, maxima and spans of one traced run."""

    def __init__(self):
        self.calls = {}       # key -> count
        self.self_s = {}      # key -> seconds
        self.maxima = {}
        self.active = {}      # key -> current nesting depth
        self.nested = {f"{c}<{a}": 0 for c, a in NESTED}
        self.spans = []
        self.dropped_spans = 0
        self.op_id = None
        self._frames = []     # child time accumulated by each open wrapped call
        self._span_stack = []
        self._next_span = 0
        self._patches = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, key: str, fn, coarse: bool):
        frames = self._frames
        calls, self_s, active = self.calls, self.self_s, self.active
        calls.setdefault(key, 0)
        self_s.setdefault(key, 0.0)
        active.setdefault(key, 0)
        probe = PROBES.get(key)
        ancestors = [a for c, a in NESTED if c == key]
        rec = self

        if not coarse:
            def hot(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - start
                    frames.pop()
                    calls[key] += 1
                    self_s[key] += dt - frame[0]
                    if frames:
                        frames[-1][0] += dt

            hot.__wrapped__ = fn
            return hot

        def spanned(*args, **kwargs):
            if probe is not None:
                for name, value in probe(args).items():
                    if value > rec.maxima.get(name, 0):
                        rec.maxima[name] = value
            for ancestor in ancestors:
                if active.get(ancestor):
                    rec.nested[f"{key}<{ancestor}"] += 1
            span_id = rec._next_span
            rec._next_span += 1
            parent_span = rec._span_stack[-1] if rec._span_stack else None
            rec._span_stack.append(span_id)
            active[key] += 1
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dt = end - start
                frames.pop()
                active[key] -= 1
                rec._span_stack.pop()
                calls[key] += 1
                self_s[key] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if len(rec.spans) < MAX_SPANS:
                    rec.spans.append((span_id, key, start, end, parent_span, rec.op_id))
                else:
                    rec.dropped_spans += 1

        spanned.__wrapped__ = fn
        return spanned

    def install(self):
        """Patch every layer of the imported conetower package."""
        modules = [m for name, m in sys.modules.items() if name == "conetower" or name.startswith("conetower.")]
        replaced = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"conetower.{layer}"]
            for name, value in vars(module).items():
                if not isinstance(value, types.FunctionType) or value.__module__ != module.__name__:
                    continue
                if name.startswith("_") and (layer, name) not in RENAMES:
                    continue
                key = f"{layer}.{RENAMES.get((layer, name), name)}"
                coarse = layer not in HOT_LAYERS or key in COARSE_IN_HOT_LAYERS
                replaced[id(value)] = (value, self._wrap(key, value, coarse))
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    self._patch(module, name, replaced[id(value)][1])
        for layer, class_name, methods in METHODS:
            cls = getattr(sys.modules[f"conetower.{layer}"], class_name)
            for method, short in methods.items():
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(f"{layer}.{short}", original, False))
        for layer, class_name, prop, short in PROPERTIES:
            cls = getattr(sys.modules[f"conetower.{layer}"], class_name)
            original = cls.__dict__[prop]
            self._patch(cls, prop, property(self._wrap(f"{layer}.{short}", original.fget, False)))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------ ops and output

    def begin_op(self, op_id: int):
        """Open the root span of one benchmark op; its wrapped calls carry the id."""
        self.op_id = op_id
        self._span_stack.append(f"op{op_id}")

    def end_op(self, label: str, start: float, end: float):
        self._span_stack.pop()
        self.spans.append((f"op{self.op_id}", f"op:{label}", start, end, None, self.op_id))

    def layer_self_s(self, layer: str) -> float:
        return sum(s for key, s in self.self_s.items() if key.split(".")[0] == layer)

    def dump(self, path: str, stamp: dict):
        doc = {
            "stamp": stamp,
            "calls": self.calls,
            "self_s": self.self_s,
            "maxima": self.maxima,
            "nested": self.nested,
            "dropped_spans": self.dropped_spans,
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
