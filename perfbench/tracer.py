"""Span and counter recorder for the traced run.

The recorder wraps public functions of nilquant from the outside: each entry
in LAYERS names a module attribute (or a class method) and, optionally, a
counter computed from the call's arguments and result.  `install` swaps the
wrappers into every nilquant module that holds a reference to the original
object (functions are imported by name across modules), `uninstall` puts
the originals back.

A span's self time is its duration minus the time covered by the wrapped
calls it makes.  Nothing inside nilquant is modified.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

import numpy as np


def _points(*arrays) -> int:
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    return int(math.prod(shape[:-1]))


def _count_assemble(args, kwargs, out):
    nodes = len(args[1])
    return {"nodes": nodes, "entries": nodes * int(np.size(out))}


def _count_bch(args, kwargs, out):
    return {"points": _points(args[1], args[2])}


def _count_circulation(args, kwargs, out):
    return {"segments": _points(args[1], args[2])}


def _count_fourier_wigner(args, kwargs, out):
    # output samples times y-quadrature nodes: the size of the phase product
    return {"entries": args[4].size * args[3].size}


def _count_bargmann_adjoint(args, kwargs, out):
    return {"entries": len(args[3]) * args[2].xi_grid.size}


def _bytes(*paths) -> dict:
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _count_save_matrix(args, kwargs, out):
    return _bytes(*out)


def _count_path_arg(index):
    def count(args, kwargs, out):
        return _bytes(args[index])
    return count


# (module, attribute, class or None, counter or None); the layer is named
# "<module>.<attribute>"
LAYERS = [
    ("algebra", "bch", "LieAlgebra", _count_bch),
    ("symbols", "hat2_pair_exponent", "GaussianSymbol", None),
    ("berezin", "assemble_kernel", None, _count_assemble),
    ("berezin", "berezin_matrix", None, None),
    ("tau", "berezin_tau", None, None),
    ("magnetic", "mag_berezin", None, None),
    ("magnetic", "circulation", None, _count_circulation),
    ("coherent", "fourier_wigner", None, _count_fourier_wigner),
    ("coherent", "bargmann_adjoint", None, _count_bargmann_adjoint),
    ("coherent", "reproducing_apply", None, None),
    ("coherent", "coherent_state_bank", None, None),
    ("covariant", "cov_full", None, None),
    ("covariant", "square_compose", None, None),
    ("covariant", "kernel_from_cov", None, None),
    ("covariant", "berezin_transform_nodes", None, None),
    ("covariant", "norm_bound_check", None, None),
    ("pseudodiff", "berezin_symbol", None, None),
    ("pseudodiff", "symbol_from_kernel", None, None),
    ("pseudodiff", "op_quantize_samples", None, None),
    ("pseudodiff", "op_quantize", None, None),
    ("operators", "singular_values", "OperatorMatrix", None),
    ("exports", "save_matrix", None, _count_save_matrix),
    ("exports", "matrix_to_csv", None, _count_path_arg(1)),
    ("exports", "xi_field_to_csv", None, _count_path_arg(2)),
    ("exports", "field_to_csv", None, _count_path_arg(2)),
    ("config", "parse_config", None, None),
    ("cli", "cmd_quantize", None, None),
]

# per-layer metrics reported by the traced run: (name, unit); every value is
# a per-operation mean over the traced operations
METRICS = (
    [("berezin.assemble_kernel." + k, u) for k, u in
     (("self_s", "s"), ("calls", "count"), ("nodes", "count"), ("entries", "count"))]
    + [("symbols.hat2_pair_exponent.self_s", "s"), ("symbols.hat2_pair_exponent.calls", "count"),
       ("berezin.berezin_matrix.total_s", "s"), ("tau.berezin_tau.total_s", "s"),
       ("magnetic.mag_berezin.total_s", "s"), ("magnetic.circulation.self_s", "s"),
       ("magnetic.circulation.segments", "count"),
       ("algebra.bch.self_s", "s"), ("algebra.bch.calls", "count"), ("algebra.bch.points", "count"),
       ("coherent.fourier_wigner.self_s", "s"), ("coherent.fourier_wigner.entries", "count"),
       ("coherent.bargmann_adjoint.self_s", "s"), ("coherent.bargmann_adjoint.entries", "count"),
       ("coherent.reproducing_apply.total_s", "s"),
       ("coherent.coherent_state_bank.self_s", "s"),
       ("coherent.coherent_state_bank.calls", "count")]
    + [(f"covariant.{f}.self_s", "s") for f in
       ("cov_full", "square_compose", "kernel_from_cov", "berezin_transform_nodes",
        "norm_bound_check")]
    + [(f"pseudodiff.{f}.self_s", "s") for f in
       ("berezin_symbol", "symbol_from_kernel", "op_quantize_samples", "op_quantize")]
    + [("operators.singular_values.self_s", "s"), ("operators.singular_values.calls", "count")]
    + [(f"exports.{f}.self_s", "s") for f in
       ("save_matrix", "matrix_to_csv", "xi_field_to_csv", "field_to_csv")]
    + [("exports.bytes_written", "B"), ("config.parse_config.self_s", "s"),
       ("cli.cmd_quantize.total_s", "s")]
)


class Tracer:
    """Accumulates self time, total time, call counts and argument counters
    per wrapped layer while installed."""

    def __init__(self):
        self.stats = {f"{mod}.{attr}": {"self_s": 0.0, "total_s": 0.0, "calls": 0}
                      for mod, attr, *_ in LAYERS}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                stats["total_s"] += dt
                stats["self_s"] += dt - child
                stats["calls"] += 1
                if stack:
                    stack[-1] += dt
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    stats[key] = stats.get(key, 0) + value
            return out

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if (k == "nilquant" or k.startswith("nilquant.")) and m is not None]
        for mod_name, attr, cls_name, counter in LAYERS:
            name = f"{mod_name}.{attr}"
            home = sys.modules["nilquant." + mod_name]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, counter))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, n_ops: int) -> dict:
        """Per-operation means of every metric in METRICS."""
        out = {}
        for metric, unit in METRICS:
            if metric == "exports.bytes_written":
                total = sum(s.get("bytes", 0) for n, s in self.stats.items()
                            if n.startswith("exports."))
            else:
                layer, key = metric.rsplit(".", 1)
                total = self.stats[layer].get(key, 0)
            out[metric] = {"value": total / n_ops, "unit": unit}
        return out

    def self_seconds(self) -> float:
        """Sum of self times over the layers reported by self time; the entry
        points reported by total time (berezin_matrix, cmd_quantize, ...)
        are left out, since their self time is whatever the others miss."""
        return sum(self.stats[m[:-len(".self_s")]]["self_s"]
                   for m, _ in METRICS if m.endswith(".self_s"))
