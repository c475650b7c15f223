"""Spans around the public functions of signed_balance, recorded from outside.

`Tracer.install()` replaces each function named in WRAPPED with a timing
wrapper in every ``signed_balance`` module that holds it (its own module and
every module that imported it by name), and `uninstall()` puts the originals
back.  Nothing under ``src/`` changes, and a process that never installs a
tracer runs the package untouched.

A span is a list ``[id, name, parent_id, op, thread, t0, t1, meta, error]``:
times are ``time.perf_counter()`` seconds, ``op`` is the op id the caller
set, ``meta`` holds a few facts about the call (census path, edge count) and
``error`` the exception class a call raised.  A span opened on a pool thread
with no open span of its own gets the innermost open span of the installing
thread as its parent, which is the call that submitted the work.
"""

import importlib
import itertools
import json
import sys
import threading
import time

WRAPPED = {
    "graph": ("parse_edge_list", "write_edge_list"),
    "graphon": ("sample_network", "population_moments"),
    "census": ("full_census",),
    "inference": (
        "sample_moments", "projections", "variance_estimator",
        "edgeworth_coefficients", "confidence_interval", "balance_test",
    ),
    "bootstrap": ("resample_network", "bootstrap_distribution", "bootstrap_ci"),
    "harness": ("run_coverage",),
}


def _meta(name, args, kwargs, result):
    """Facts the per-layer metrics need, read from the call or its result."""
    if name == "census.full_census":
        pairs = kwargs.get("with_pairs", args[1] if len(args) > 1 else True)
        return {"dense": bool(args[0].is_dense), "pairs": bool(pairs)}
    if name == "graph.parse_edge_list":
        return {"edges": result.edge_count()}
    if name == "harness.run_coverage":
        return {"threads": int(args[0].threads)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._main_stack = None
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, t0, t1, meta=None):
        """Add a finished span that did not come from a wrapped call."""
        self.spans.append([self._next_id(), name, None, self.op,
                           threading.get_ident(), t0, t1, meta, None])

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = [self._next_id(), name, parent, self.op,
                    threading.get_ident(), time.perf_counter(), None, None, None]
            self.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[8] = type(exc).__name__
                raise
            finally:
                span[6] = time.perf_counter()
                stack.pop()
            span[7] = _meta(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        self._main_stack = self._stack()
        package = importlib.import_module("signed_balance")
        for mod_name, funcs in WRAPPED.items():
            module = importlib.import_module(f"signed_balance.{mod_name}")
            for func_name in funcs:
                original = getattr(module, func_name)
                wrapper = self._wrap(f"{mod_name}.{func_name}", original)
                for holder in _package_modules(package):
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _package_modules(package):
    prefix = package.__name__ + "."
    return [package] + [
        mod for name, mod in sorted(sys.modules.items())
        if name.startswith(prefix) and mod is not None
    ]
