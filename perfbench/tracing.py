"""Spans around the calls into paravoa's layers, recorded from outside.

`install(tracer)` wraps the public functions of every paravoa module and
the public methods of its classes.  paravoa modules import one another's
functions by name (zhu holds vertexops.exp_mode, for example), so a
function's wrapper replaces it in every module namespace that holds it.

A span is opened when a call crosses into a layer from outside it, and
records its name, start, end and parent.  Calls inside a layer are only
counted.  Spans are kept in memory, in flat arrays, until `write`.  A
layer's self time is the summed duration of its spans minus the time their
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("exactnum", "lattice", "monoid", "fock", "vertexops", "linalg",
          "zhu", "modrep", "cli")

# public methods wrapped per class; dataclass-generated methods and the
# hash/bool/repr protocol are left alone
METHODS = {
    "exactnum": {"QuadScalar": (
        "__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
        "__mul__", "__rmul__", "inverse", "__truediv__", "__rtruediv__",
        "__eq__", "sign", "__lt__", "__le__", "__gt__", "__ge__",
        "is_rational", "as_fraction", "to_json", "from_json")},
    "lattice": {"GramLattice": ("scalar", "hvec", "lift", "inner_int", "norm",
                                "from_json")},
    "monoid": {"MonoidDescriptor": ("boundary_alpha", "validate", "to_json",
                                    "from_json")},
    "fock": {
        "FockState": ("__init__", "of", "__getitem__", "__add__", "__sub__",
                      "scale", "__eq__"),
        "FockSpace": ("__init__", "full_lattice", "hyperplane_adapted",
                      "rank_one_heisenberg", "rank_one_lattice", "label_coords",
                      "pair_coords", "label_inner", "pair_label_mode", "eps",
                      "word", "degree", "state_degree", "vacuum", "exp_state",
                      "virasoro", "basis"),
        "BasisWord": ("mode_degree", "to_str"),
    },
    "vertexops": {"TensorState": ("__init__", "of", "__add__", "__sub__",
                                  "scale", "__eq__")},
    "modrep": {"QSeries": ("build", "mul", "coeff", "to_json")},
    "cli": {"SessionConfig": ("__init__", "ctx", "descriptor")},
}


def _sized(x):
    return x if hasattr(x, "__len__") else list(x)


# result hooks: work counts that a call count alone does not give
def _closure(tr, args, res):
    tr.add("monoid.closure_points", len(res))


def _basis(tr, args, res):
    tr.add("fock.basis_words", len(res))


def _quotient(tr, args, res):
    tr.add("linalg.span_rows", len(args[1]))
    tr.add("linalg.rank", len(args[0]) - res)


def _in_span(tr, args, res):
    tr.add("linalg.span_rows", len(args[0]))


def _rank_of(tr, args, res):
    tr.add("linalg.rank", res)


def _character(tr, args, res):
    tr.add("modrep.character_terms", len(res.terms))


HOOKS = {
    "monoid.closure_box": _closure,
    "fock.FockSpace.basis": _basis,
    "fock.enumerate_basis": _basis,
    "linalg.quotient_dimension": _quotient,
    "linalg.in_span": _in_span,
    "linalg.rank_of": _rank_of,
    "modrep.character": _character,
}
# arguments a hook reads that may be one-shot iterators
SIZED_ARGS = {"linalg.quotient_dimension": (0, 1), "linalg.in_span": (0,),
              "linalg.rank_of": (0,)}


# inner calls that get a span of their own, for a metric of their duration
ALWAYS_SPAN = {"cli.load_config"}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list = []
        self.layer_of: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.values: dict = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._layers = [None]
        self._installed: list = []

    def intern(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
        return nid

    def add(self, key: str, value) -> None:
        self.values[key] = self.values.get(key, 0) + value

    def call_counts(self) -> dict:
        return dict(zip(self.names, self.calls))

    def wrap(self, layer: str, name: str, fn):
        nid = self.intern(name, layer)
        hook = HOOKS.get(name)
        sized = SIZED_ARGS.get(name, ())
        always = name in ALWAYS_SPAN
        calls, stack, layers = self.calls, self._stack, self._layers
        name_col, parent_col = self.span_name, self.span_parent
        start_col, end_col = self.span_start, self.span_end
        now = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if sized:
                args = tuple(_sized(a) if i in sized else a
                             for i, a in enumerate(args))
            if layers[-1] == layer and not always:
                res = fn(*args, **kwargs)
            else:
                idx = len(name_col)
                name_col.append(nid)
                parent_col.append(stack[-1])
                end_col.append(0.0)
                stack.append(idx)
                layers.append(layer)
                start_col.append(now())
                try:
                    res = fn(*args, **kwargs)
                finally:
                    end_col[idx] = now()
                    stack.pop()
                    layers.pop()
            if hook is not None:
                hook(self, args, res)
            return res

        return wrapper

    # -- spans -----------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def span_time(self, name: str, lo: int = 0, hi: int = None) -> float:
        """Summed duration of the spans of one wrapped call in [lo, hi)."""
        nid = self._ids.get(name)
        hi = len(self.span_name) if hi is None else hi
        return sum(self.span_end[i] - self.span_start[i] for i in range(lo, hi)
                   if self.span_name[i] == nid)

    def self_times(self, lo: int = 0, hi: int = None) -> dict:
        """Self time per layer over spans [lo, hi): duration minus the
        duration of the direct children (spans nest, so children never
        overlap one another)."""
        hi = len(self.span_name) if hi is None else hi
        dur = [self.span_end[i] - self.span_start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.span_parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        out = {layer: 0.0 for layer in LAYERS}
        for i in range(lo, hi):
            out[self.layer_of[self.span_name[i]]] += dur[i - lo] - child[i - lo]
        return out

    def write(self, path: str, meta: dict) -> None:
        """JSON lines: the names, counts and meta first, then one
        [name, parent, start, end] line per span, written as it goes."""
        with open(path, "w") as f:
            json.dump({**meta, "names": self.names, "layers": self.layer_of,
                       "calls": self.calls, "values": self.values}, f)
            f.write("\n")
            for span in zip(self.span_name, self.span_parent,
                            self.span_start, self.span_end):
                f.write("[%d,%d,%.9f,%.9f]\n" % span)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        import paravoa.cli  # noqa: F401  (imports every layer)

        modules = [sys.modules[f"paravoa.{layer}"] for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                w = self.wrap(layer, f"{layer}.{fname}", fn)
                for h in modules:
                    if vars(h).get(fname) is fn:
                        self._set(h, fname, w)
            for cname, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cname)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cname}.{meth}"
                    if isinstance(raw, classmethod):
                        w = classmethod(self.wrap(layer, name, raw.__func__))
                    else:
                        w = self.wrap(layer, name, raw)
                    self._set(cls, meth, w)

    def _set(self, obj, attr, value) -> None:
        self._installed.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._installed):
            setattr(obj, attr, old)
        self._installed.clear()
