"""Spans and counts around the library's public functions.

The traced run replaces each public function listed in ``TARGETS`` by a
timing wrapper, under every module attribute that refers to it: a
caller that did ``from .special import bvn_cdf_exp`` looks the function
up in its own module, so ``nnkernels.kernels.bvn_cdf_exp`` is wrapped as
well as ``nnkernels.special.bvn_cdf_exp``. A generator is timed per
resumption. Spans nest on a stack; a span's self time is its duration
minus the durations of the spans opened inside it. Spans are folded
into per-name totals as they close; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(*arrays):
    return np.broadcast(*arrays).size


def _kind_name(base):
    return lambda args, kwargs: f"{base}.{_arg(args, kwargs, 0, 'act').kind}"


def _pair_layers(args, kwargs, result):
    n = np.shape(_arg(args, kwargs, 1, "X"))[0]
    depths = list(_arg(args, kwargs, 4, "depths"))
    return {"deep.pair_layers": n * (n + 1) // 2 * max(depths)}


def _net_draws(args, kwargs, result):
    d_in, width, depth = (_arg(args, kwargs, i, n) for i, n in
                          ((1, "d_in"), (2, "width"), (3, "depth")))
    draws = width * d_in + (depth - 1) * width * width + depth * width
    return {"finite_width.draws": draws, "finite_width.weight_bytes": 8 * draws}


def _items(first, last, names):
    def count(args, kwargs, result):
        return {None: _size(*(_arg(args, kwargs, i, n)
                              for i, n in zip(range(first, last), names)))}
    return count


def _var_clamped(args, kwargs, result, before):
    return {"gp.var_clamped": args[0].n_var_clamped - before}


# (module, function, span name or callable(args, kwargs) -> name,
#  counters(args, kwargs, result[, before]) -> {counter: value}, where the
#  key None stands for "<span>.items" and ``before`` is the predicted
#  fit's clamp count before the call)
TARGETS = [
    ("special", "bvn_cdf_exp", "special.bvn_cdf_exp", _items(0, 4, ("h", "k", "rho", "q"))),
    ("quadrature", "pair_mean_quad", "quadrature.pair_mean_quad",
     _items(2, 5, ("s1", "s2", "rho"))),
    ("activations", "deriv", "activations.deriv", _items(1, 2, ("z",))),
    ("kernels", "pair_mean", _kind_name("kernels.pair_mean"), _items(1, 4, ("s1", "s2", "rho"))),
    ("kernels", "pair_dot_mean", _kind_name("kernels.pair_dot_mean"),
     _items(1, 4, ("s1", "s2", "rho"))),
    ("kernels", "diag_mean", _kind_name("kernels.diag_mean"), _items(1, 2, ("s",))),
    ("deep", "kernel_matrices_by_depth", "deep.kernel_matrices_by_depth", _pair_layers),
    ("deep", "deep_kernel_matrix", "deep.deep_kernel_matrix", None),
    ("deep", "iterate_state", "deep.iterate_state", None),
    ("gp", "fit", "gp.fit", None),
    ("gp", "predict", "gp.predict", _var_clamped),
    ("fixed_point", "sigma_star", "fixed_point.sigma_star", None),
    ("fixed_point", "find_fixed_point", "fixed_point.find_fixed_point",
     lambda a, k, r: {"fixed_point.find_fixed_point.iterations": r.iterations}),
    ("fixed_point", "lambda3_quad_grid", "fixed_point.lambda3_grid", None),
    ("finite_width", "sample_net", "finite_width.sample_net", _net_draws),
    ("finite_width", "hidden_activations", "finite_width.forward", None),
    ("data", "disc_task", "data.disc_task", None),
    ("data", "disc_grid", "data.disc_grid", None),
    ("data", "standardize", "data.standardize", None),
    ("data", "split", "data.split", None),
]


class Tracer:
    """Records spans while installed; ``stats`` maps span name to totals."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(float)
        self._open = []  # child time accumulated by each open span
        self._patched = []

    def reset(self):
        self.stats.clear()
        self.counters.clear()

    def _span(self, name, fn, args, kwargs):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = self._open.pop()
            st = self.stats[name]
            st.calls += 1
            st.total_s += dur
            st.self_s += dur - child
            if self._open:
                self._open[-1] += dur

    def _count(self, name, counters, *call):
        if counters is None:
            return
        for key, value in counters(*call).items():
            self.counters[f"{name}.items" if key is None else key] += value

    def _wrap(self, fn, name, counters):
        namer = name if callable(name) else (lambda args, kwargs: name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = namer(args, kwargs)
                self._count(span, counters, args, kwargs, None)
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._span(span, next, (gen,), {})
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = namer(args, kwargs)
            before = (args[0].n_var_clamped,) if counters is _var_clamped else ()
            result = self._span(span, fn, args, kwargs)
            self._count(span, counters, args, kwargs, result, *before)
            return result
        return wrapper

    def install(self, package="nnkernels"):
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for mod_name, fn_name, name, counters in TARGETS:
            original = getattr(importlib.import_module(f"{package}.{mod_name}"), fn_name)
            wrapper = self._wrap(original, name, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_s(self, prefix):
        """Summed self time of the spans whose name starts with ``prefix``."""
        return sum(st.self_s for name, st in self.stats.items() if name.startswith(prefix))


# Activations whose kernel functions some workload calls: tangent kernels
# (``pair_dot_mean``) are built for GELU and ELU only.
KERNEL_SPANS = {"pair_mean": ("gelu", "relu", "elu", "lrelu"),
                "pair_dot_mean": ("gelu", "elu"),
                "diag_mean": ("gelu", "relu", "elu", "lrelu")}


def per_layer(tracer: Tracer, cycles: int, data_self_s: float) -> dict:
    """Per-layer metrics, each per cycle of the operation list.

    Returns {name: (value, unit)}. Counts made from argument array sizes
    carry the unit ``computed``. Totals (times and counts) are divided by
    ``cycles``; ratios are not, and read 0 where their base is zero.
    """
    st, ct = tracer.stats, tracer.counters
    out = {}

    def put(name, value, unit):
        per_cycle = unit in ("s", "count", "computed")
        out[name] = (float(value) / cycles if per_cycle else float(value), unit)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    bvn = st["special.bvn_cdf_exp"]
    put("special.bvn_cdf_exp.items", ct["special.bvn_cdf_exp.items"], "computed")
    put("special.bvn_cdf_exp.self_s", bvn.self_s, "s")
    put("special.bvn_cdf_exp.ns_per_item",
        ratio(bvn.self_s, ct["special.bvn_cdf_exp.items"], 1e9), "ns")
    quad = st["quadrature.pair_mean_quad"]
    put("quadrature.pair_mean_quad.items", ct["quadrature.pair_mean_quad.items"], "computed")
    put("quadrature.pair_mean_quad.self_s", quad.self_s, "s")
    put("quadrature.pair_mean_quad.us_per_item",
        ratio(quad.self_s, ct["quadrature.pair_mean_quad.items"], 1e6), "us")
    put("activations.deriv.items", ct["activations.deriv.items"], "computed")
    for fn, kinds in KERNEL_SPANS.items():
        for kind in kinds:
            name = f"kernels.{fn}.{kind}"
            put(f"{name}.items", ct[f"{name}.items"], "computed")
            put(f"{name}.ns_per_item", ratio(st[name].self_s, ct[f"{name}.items"], 1e9), "ns")
    put("deep.pair_layers", ct["deep.pair_layers"], "computed")
    put("deep.self_s", tracer.self_s("deep."), "s")
    put("deep.ns_per_pair_layer", ratio(st["deep.kernel_matrices_by_depth"].total_s,
                                        ct["deep.pair_layers"], 1e9), "ns")
    put("deep.iterate_state.calls", st["deep.iterate_state"].calls, "count")
    put("deep.iterate_state.self_s", st["deep.iterate_state"].self_s, "s")
    for fn in ("fit", "predict"):
        put(f"gp.{fn}.calls", st[f"gp.{fn}"].calls, "count")
        put(f"gp.{fn}.self_s", st[f"gp.{fn}"].self_s, "s")
    put("gp.var_clamped", ct["gp.var_clamped"], "count")
    for fn in ("sigma_star", "find_fixed_point", "lambda3_grid"):
        put(f"fixed_point.{fn}.self_s", st[f"fixed_point.{fn}"].self_s, "s")
    put("fixed_point.find_fixed_point.iterations",
        ct["fixed_point.find_fixed_point.iterations"], "count")
    sampler = st["finite_width.sample_net"]
    put("finite_width.sample_net.self_s", sampler.self_s, "s")
    put("finite_width.draws", ct["finite_width.draws"], "computed")
    put("finite_width.draws_per_s", ratio(ct["finite_width.draws"], sampler.self_s, 1.0), "1/s")
    put("finite_width.forward.self_s", st["finite_width.forward"].self_s, "s")
    put("finite_width.weight_mb",
        ratio(ct["finite_width.weight_bytes"], sampler.calls, 1e-6), "MB")
    out["data.self_s"] = (float(data_self_s), "s")
    return out
