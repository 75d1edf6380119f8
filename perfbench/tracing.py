"""Span tracer for the traced run: wraps chaosbench functions at module boundaries.

The wrappers are installed from here, by replacing the name a module imported
(for example ``mappingzoo.sample_brownian``) with a wrapper that records a
span and, for some functions, a work count.  No program file changes.  Spans
stay in memory (name, start, end, parent index) and are written out once, at
the end of the run.  A span's self time is its duration minus the durations
of its direct children; the traced run is single-threaded, so children nest.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

DEFAULT_QUAD_POINTS = 10_000  # chaosreg.fit_chaos_kernel's quad_points default

# per-layer metrics reported by the traced run: (name, unit)
PER_LAYER = [
    ("pathlab.sample_brownian.calls", "count"),
    ("pathlab.sample_brownian.self_s", "s"),
    ("util.derive_seed.calls", "count"),
    ("util.derive_seed.self_s", "s"),
    ("mappingzoo.synthesize.paths", "count"),
    ("mappingzoo.synthesize.self_s", "s"),
    ("mappingzoo.evaluate_mapping.calls", "count"),
    ("mappingzoo.evaluate_mapping.self_s", "s"),
    ("kernelkit.slice_matrix.calls", "count"),
    ("kernelkit.slice_matrix.points", "count"),
    ("kernelkit.slice_matrix.self_s", "s"),
    ("chaoscalc.brute_multiple_integral.calls", "count"),
    ("chaoscalc.brute_multiple_integral.self_s", "s"),
    ("chaoscalc.hermite_chaos.calls", "count"),
    ("chaoscalc.hermite_chaos.self_s", "s"),
    ("chaoscalc.l2_inner.calls", "count"),
    ("chaoscalc.l2_inner.self_s", "s"),
    ("chaosreg.fit.calls", "count"),
    ("chaosreg.fit.order1.self_s", "s"),
    ("chaosreg.fit.order2.self_s", "s"),
    ("chaosreg.fit.order3.self_s", "s"),
    ("chaosreg.fit.gflop", "GFLOP"),
    ("chaosreg.fit.gflop_per_s", "GFLOP/s"),
    ("chaosreg.predict.calls", "count"),
    ("chaosreg.predict.self_s", "s"),
    ("chaosreg.risk_monte_carlo.draws", "count"),
    ("chaosreg.risk_monte_carlo.self_s", "s"),
    ("chaosreg.risk_isometry.self_s", "s"),
    ("chaosreg.model_to_json.self_s", "s"),
    ("chaosreg.model_from_json.self_s", "s"),
    ("chaosreg.model_json.bytes", "B"),
    ("glselect.adaptive_fit.self_s", "s"),
    ("glselect.candidates", "count"),
    ("glselect.bias_proxy.self_s", "s"),
    ("benchcli.cmd_simulate.self_s", "s"),
    ("benchcli.cmd_fit.self_s", "s"),
    ("benchcli.cmd_adapt.self_s", "s"),
    ("benchcli.cmd_risk.self_s", "s"),
    ("benchcli.cmd_rate.self_s", "s"),
    ("benchcli.load_dataset.self_s", "s"),
    ("benchcli.load_dataset.bytes", "B"),
    ("benchcli.bytes_written", "B"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

FIT_ORDERS = ("chaosreg.fit.order1", "chaosreg.fit.order2", "chaosreg.fit.order3")


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fit_gflop(args, kwargs, result) -> float:
    """Slice integrals 2GNn + quadrature gram 2G^2Q + order-l contraction 2G^l n."""
    sample, order = args[0], _arg(args, kwargs, 1, "order")
    g = _arg(args, kwargs, 3, "grid_size")
    q = _arg(args, kwargs, 5, "quad_points", DEFAULT_QUAD_POINTS)
    n, steps = sample.n, sample.grid.n_steps
    return (2.0 * g * steps * n + 2.0 * g * g * q + 2.0 * g**order * n) / 1e9


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``count`` maps (args, kwargs, result) to {counter: amount}.
        """
        orig = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = [name(args, kwargs) if callable(name) else name,
                   time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    counts[key] += amount
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self) -> dict[str, float]:
        """Calls, self seconds and inclusive seconds per span name, plus counters."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - inner
            out[f"{name}.total_s"] += end - start
        out.update(self.counts)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call the benchmark measures."""
    from chaosbench import benchcli, chaoscalc, chaosreg, glselect, mappingzoo

    w = tracer.wrap
    for mod in (mappingzoo, chaosreg):
        w(mod, "sample_brownian", "pathlab.sample_brownian")
    for mod in (mappingzoo, chaosreg, benchcli):
        w(mod, "derive_seed", "util.derive_seed")
    w(benchcli, "synthesize", "mappingzoo.synthesize",
      lambda a, k, r: {"mappingzoo.synthesize.paths": _arg(a, k, 1, "n")})
    w(mappingzoo, "evaluate_mapping", "mappingzoo.evaluate_mapping")
    w(chaosreg, "slice_matrix", "kernelkit.slice_matrix",
      lambda a, k, r: {"kernelkit.slice_matrix.points": r.shape[0] * r.shape[1]})
    for mod in (chaosreg, mappingzoo):
        w(mod, "brute_multiple_integral", "chaoscalc.brute_multiple_integral")
    w(mappingzoo, "hermite_chaos", "chaoscalc.hermite_chaos")
    for mod in (chaoscalc, mappingzoo):
        w(mod, "l2_inner", "chaoscalc.l2_inner")
    for mod in (benchcli, glselect):
        w(mod, "fit_chaos_kernel",
          lambda a, k: f"chaosreg.fit.order{_arg(a, k, 1, 'order')}",
          lambda a, k, r: {"chaosreg.fit.gflop": _fit_gflop(a, k, r)})
    w(chaosreg, "predict", "chaosreg.predict")
    w(benchcli, "risk_monte_carlo", "chaosreg.risk_monte_carlo",
      lambda a, k, r: {"chaosreg.risk_monte_carlo.draws": _arg(a, k, 3, "n_mc")})
    w(benchcli, "risk_isometry", "chaosreg.risk_isometry")
    w(benchcli, "model_to_json", "chaosreg.model_to_json",
      lambda a, k, r: {"chaosreg.model_json.bytes": len(r.encode())})
    w(benchcli, "model_from_json", "chaosreg.model_from_json")
    w(benchcli, "adaptive_fit", "glselect.adaptive_fit")
    w(glselect, "bias_proxy", "glselect.bias_proxy")
    w(glselect, "bandwidth_grid", "glselect.bandwidth_grid",
      lambda a, k, r: {"glselect.candidates": len(r.values)})
    w(benchcli, "load_dataset", "benchcli.load_dataset",
      lambda a, k, r: {"benchcli.load_dataset.bytes": sum(
          (Path(a[0]) / f).stat().st_size for f in ("responses.csv", "paths.csv"))})
    for cmd in ("simulate", "fit", "adapt", "risk", "rate"):
        w(benchcli, f"cmd_{cmd}", f"benchcli.cmd_{cmd}")


def layer_metrics(summary: dict[str, float], bytes_written: int, wall: float,
                  overhead: float) -> dict[str, float]:
    """The PER_LAYER values of one traced round."""
    values = dict(summary)
    values["chaosreg.fit.calls"] = sum(summary.get(f"{o}.calls", 0) for o in FIT_ORDERS)
    fit_s = sum(summary.get(f"{o}.total_s", 0.0) for o in FIT_ORDERS)
    gflop = summary.get("chaosreg.fit.gflop", 0.0)
    values["chaosreg.fit.gflop_per_s"] = gflop / fit_s if fit_s else 0.0
    values["benchcli.bytes_written"] = bytes_written
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = overhead
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}


def write_spans(rounds: list[Tracer], path: Path, t0: float) -> None:
    """All spans of the run: name table plus round, name, start, end, parent arrays."""
    names = sorted({s[0] for tr in rounds for s in tr.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [(r, index[s[0]], s[1] - t0, s[2] - t0, s[3])
            for r, tr in enumerate(rounds) for s in tr.spans]
    arr = np.array(rows, dtype=float).reshape(-1, 5)
    np.savez(path, names=np.array(names), round=arr[:, 0].astype(np.int32),
             name=arr[:, 1].astype(np.int32), start=arr[:, 2], end=arr[:, 3],
             parent=arr[:, 4].astype(np.int64))
