"""Serial span tracing of hdvar's public functions, from outside the package.

`Tracer.install()` wraps every public function of the traced layers and
rebinds the wrapper in every hdvar module that binds the original (for
example `estimators` imports `lasso_path` and `ridge` by name).  Each call
records one span: name, start, end and the index of the enclosing span.
Spans stay in memory until `write()`.  `uninstall()` restores the originals.

Self time of a span is its duration minus the durations of its direct child
spans; because the run is serial, children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("var", "linalg", "solver", "estimators", "theory", "mc", "cli")


def _public_functions(module) -> dict:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.functions = {}  # span name -> original function
        # counters read off lasso_cd results: calls observed, sweeps, sweeps x m, non-converged
        self.cd = {"results": 0, "sweeps": 0, "coord_updates": 0, "nonconverged": 0}
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _wrap(self, span_name, fn, observe=None):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(span_name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return wrapper

    def _observe_lasso_cd(self, args, kwargs, result):
        iterations = getattr(result, "iterations", None)
        converged = getattr(result, "converged", None)
        X = args[0] if args else kwargs.get("X")
        if iterations is None or converged is None or X is None:
            return
        self.cd["results"] += 1
        self.cd["sweeps"] += int(iterations)
        self.cd["coord_updates"] += int(iterations) * int(np.shape(X)[1])
        self.cd["nonconverged"] += not converged

    def install(self, hdvar_modules: dict) -> None:
        """Wrap the public functions of each layer in ``hdvar_modules`` (name -> module)."""
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = hdvar_modules.get(layer)
            if module is None:
                continue
            for fname, fn in _public_functions(module).items():
                span = f"{layer}.{fname}"
                observe = self._observe_lasso_cd if span == "solver.lasso_cd" else None
                wrappers[id(fn)] = self._wrap(span, fn, observe)
                self.functions[span] = fn
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "hdvar" or modname.startswith("hdvar.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> dict:
        """span name -> (calls, total self seconds)."""
        starts = np.asarray(self.starts)
        durations = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(durations))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        selfs = durations - child
        out = {}
        for name, s in zip(self.names, selfs.tolist()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + s)
        return out

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans."""
        return float(sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0))

    def write(self, path: str) -> None:
        """One CSV line per span: index, name, start and end (s, from the first span), parent index."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{name},{s - t0:.9f},{e - t0:.9f},{p}\n")
