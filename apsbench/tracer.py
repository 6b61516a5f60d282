"""Spans around the calls into each apslab layer, installed for the traced run only.

The hooks live entirely in the benchmark: ``install`` wraps the public
functions of every layer module, the constructors of its classes (``__init__``
and static or class factories) and their public methods, plus the numpy/scipy
``svd`` and ``qr`` entry points the program calls.  A module-level function is
replaced under every name that any ``apslab`` module binds it to, because
modules import each other's functions by name.  ``uninstall`` puts every
original back.

Spans are kept in memory as parallel arrays (name, parent span, operation,
start, end) and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; a layer's self time is
the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "spectral_core",
    "boundary_conditions",
    "cylinder_solver",
    "expoly",
    "index_calculus",
    "scenario_cli",
)

# (owner module, attribute) of the LAPACK entry points the program reaches
# through module attributes: ``np.linalg.svd`` and ``sla.qr``.
LINALG = (("numpy.linalg", "svd"), ("scipy.linalg", "qr"))

ROOT_SPAN = "bench.op"

# One-line lookups called tens of thousands of times per operation.  A span
# costs more than such a call, so wrapping them would mostly measure the
# wrapper; their time stays with the calling span.
UNWRAPPED = {
    "EigenmodeBasis.mode",
    "EigenmodeBasis.eigenvalue",
    "EigenmodeBasis.fiber_dim",
    "EigenmodeBasis.offset",
    "SigmaZero.tau",
    "SigmaZero.tau_inv",
    "BoundarySection.coeff",
    "Profile.is_zero",
}


class Tracer:
    def __init__(self):
        self.names: list = []  # span name table: "layer:qualname"
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = [-1]  # index of the running operation, -1 outside operations
        self.n_ops = 0
        self._undo: list = []
        self.wrapped: set = set()  # span names that have a hook
        self.on_result: dict = {}  # "layer:qualname" -> callback(result)
        self.capture: dict = {}  # "layer:qualname" -> list of (original, args, kwargs)

    # -- spans ---------------------------------------------------------------
    def _name_id(self, key: str) -> int:
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _wrap(self, key: str, fn):
        nid = self._name_id(key)
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end
        stack, current, clock = self._stack, self._op, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(current[0])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if key in tracer.on_result:
                tracer.on_result[key](result)
            if key in tracer.capture:
                tracer.capture[key].append((fn, args, kwargs))
            return result

        self.wrapped.add(key)
        return wrapper

    def run_op(self, fn, *args):
        """Run one benchmark operation under a root span tagged with its index."""
        self._op[0] = self.n_ops
        self.n_ops += 1
        try:
            return self._root(fn, *args)
        finally:
            self._op[0] = -1

    # -- patching ------------------------------------------------------------
    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_class(self, layer: str, cls):
        for attr, raw in list(vars(cls).items()):
            if (attr != "__init__" and attr.startswith("_")) or f"{cls.__name__}.{attr}" in UNWRAPPED:
                continue
            key = f"{layer}:{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(key, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(key, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(key, raw))

    def install(self):
        self._root = self._wrap(f"bench:{ROOT_SPAN}", lambda fn, *a: fn(*a))
        replace = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"apslab.{layer}")
            except ImportError:  # a removed layer leaves its metrics absent
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(layer, obj)
                elif inspect.isfunction(obj):
                    replace[id(obj)] = (obj, self._wrap(f"{layer}:{attr}", obj))
        for owner_name, attr in LINALG:
            owner = importlib.import_module(owner_name)
            fn = getattr(owner, attr)
            replace[id(fn)] = (fn, self._wrap(f"linalg:{attr}", fn))
        # rebind every name that refers to a wrapped function
        owners = {"apslab"} | {owner for owner, _ in LINALG}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name in owners or mod_name.startswith("apslab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: call count, total and self seconds; per layer: self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=self_time, minlength=n)
        by_name = {
            key: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, key in enumerate(self.names)
        }
        layers: dict = {}
        for key, row in by_name.items():
            layer = key.split(":", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return {"by_name": by_name, "layer_self_s": layers}

    def write(self, path: str):
        """Write every span (arrays) and the name table to one compressed file."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())
