"""Spans around calls into oscwave, installed from outside the package.

Every public function of every ``oscwave`` module, the cross-module
private helpers in HELPERS and the registered verification checks are
wrapped by rebinding the name in *every* module that holds it: ``from
.grids import sample_at`` copies the binding into ``dirac``, so rebinding
``grids.sample_at`` alone would miss the calls made from ``dirac``.
Nothing inside the package changes.  A span records (name, start, end,
parent span, operation id); spans stay in memory until the run ends.
"""

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time

import numpy as np

# private helpers other modules import across the module boundary
HELPERS = ("_phase_sums", "_spectral_tail", "_damped", "_log_mehler")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _phase_sums(args, kwargs):
    n_x = _arg(args, kwargs, 1, "x_grid").n
    n_xi = len(_arg(args, kwargs, 2, "xi_targets"))
    return {"intertwine.phase_terms": n_xi * n_x, "intertwine.X_nodes": n_xi}


def _inverse(args, kwargs):
    p = _arg(args, kwargs, 1, "p")
    return {"intertwine.phase_terms": p.x_grid.n * p.X_grid.n,
            "intertwine.X_nodes": p.X_grid.n}


def _written(i):
    def count(args, kwargs):
        return {"csvio.bytes_written": os.path.getsize(_arg(args, kwargs, i, "path"))}
    return count


# work counts computed from argument shapes, or from the size of the file a
# call wrote, keyed by the span they belong to; the phase terms are those
# of the direct method: targets x samples per forward sum, n_x x n_X per
# inverse
COUNTERS = {
    "grids.sample_at": lambda args, kw: {
        "grids.sample_at.points": np.size(_arg(args, kw, 1, "targets"))},
    "intertwine.phase_sums": _phase_sums,
    "intertwine.apply_T_inverse": _inverse,
    "oscillator.heat_kernel": lambda args, kw: {
        "oscillator.heat_kernel.entries": np.broadcast(
            np.asarray(_arg(args, kw, 2, "x")),
            np.asarray(_arg(args, kw, 3, "xp"))).size},
    "csvio.write_function_csv": _written(1),
    "csvio.write_kernel_csv": _written(3),
    "csvio.write_report_csv": _written(1),
}


def _layer(name):
    return name.partition(".")[0]


class Tracer:
    """Installs span-recording wrappers into a package and removes them."""

    def __init__(self):
        # [name, start, end, parent index, op id, outermost of its name]
        self.spans = []
        self.counts = {}
        self.op = -1
        self._stack = []
        self._depth = {}
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            d = depth.get(name, 0)
            depth[name] = d + 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, d == 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                depth[name] = d
            if counter is not None:
                for key, v in counter(args, kwargs).items():
                    counts[key] = counts.get(key, 0) + int(v)
            return result

        return traced

    def install(self, package):
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        names = {}
        for mod in modules[1:]:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in HELPERS)):
                    names[obj] = f"{layer}.{attr.lstrip('_')}"
        # checks run through the registry; name them as registered
        checks = importlib.import_module(f"{package.__name__}.verify").CHECKS
        for key, fn in checks.items():
            names[fn] = f"verify.{key}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for key, fn in list(checks.items()):
            self._undo.append((checks, key, fn))
            checks[key] = wrappers[fn]

    def uninstall(self):
        for target, key, obj in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = obj
            else:
                setattr(target, key, obj)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "outermost"],
                       "spans": self.spans}, fh)


def aggregate(spans, base=0):
    """Calls, inclusive seconds and self seconds per span name.

    spans[i] has absolute index base + i.  Inclusive time sums the
    outermost span of each name, so recursion is not counted twice.  Self
    time subtracts the child spans of other layers (modules), looking
    through children of the same layer.
    """
    other = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, t0, t1, parent = spans[i][:4]
        p = parent - base
        if p >= 0:
            if _layer(spans[p][0]) != _layer(name):
                other[p] += t1 - t0
            else:
                other[p] += other[i]
    calls, incl, self_s = {}, {}, {}
    for i, (name, t0, t1, _, _, outermost) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if outermost:
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - other[i])
    return calls, incl, self_s


def _rate(n, seconds):
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(names, spans, base, counts):
    """Values of the span-derived per-layer metrics among names."""
    calls, incl, self_s = aggregate(spans, base)
    out = dict(counts)
    for key in ("grids.sample_at.points", "intertwine.phase_terms",
                "intertwine.X_nodes", "oscillator.heat_kernel.entries",
                "csvio.bytes_written"):
        out.setdefault(key, 0)
    for name in names:
        if name.endswith(".calls"):
            out[name] = calls.get(name[:-6], 0)
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-7], 0.0)
        elif name.endswith(".s"):
            out[name] = incl.get(name[:-2], 0.0)
    out["grids.sample_at.points_per_s"] = _rate(
        out["grids.sample_at.points"], incl.get("grids.sample_at", 0.0))
    out["intertwine.phase_terms_per_s"] = _rate(
        out["intertwine.phase_terms"],
        incl.get("intertwine.phase_sums", 0.0)
        + incl.get("intertwine.apply_T_inverse", 0.0))
    out["oscillator.heat_kernel.entries_per_s"] = _rate(
        out["oscillator.heat_kernel.entries"],
        incl.get("oscillator.heat_kernel", 0.0))
    out["csvio.bytes_per_s"] = _rate(
        out["csvio.bytes_written"],
        sum(incl.get(f"csvio.{w}", 0.0) for w in
            ("write_function_csv", "write_kernel_csv", "write_report_csv")))
    return out
