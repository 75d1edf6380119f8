"""Data-driven bandwidth selection for the chaos-kernel estimators.

For each order l the candidate bandwidths are the powers e^-k inside the
bracket [n^(-1/(2 s_* + l)), 1/log n].  Each candidate is scored by the sum
of a majorant

    M(l, h) = nu(l) (1 + 4 sqrt(log(1/h^l))) / sqrt(n h^l),
    nu(l)   = (mu4 + sum_{k=1..L} (3)^(k/2) M) sqrt(b_{l,2}) / 2,
    b_{l,2} = 3^l 2^l l! ||k||^(2l),

which penalizes the estimator's standard deviation, and an empirical bias
proxy

    B(l, h) = max_{h'} { ||fhat_{h'} - fhat_{h max h'}|| - M(l, h') - M(l, h max h') }_+ .

The selected bandwidth minimizes B + M, with ties broken toward the larger
(smoother) bandwidth.  The maximum in B ranges over the whole grid, and at
the smallest grid bandwidth every term collapses to 0.  Selection
(``select_model``) takes the candidate fits, so it serves path fits and drawn
ones alike (``benchcli._plan_model``); ``adaptive_fit`` fits one sample, every
candidate from one pass over its paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaoscalc import chaos_constant
from .chaosreg import ChaosKernelEstimate, FittedModel, Sample, estimate_mean, fit_from_parts
from .chaosreg import slice_rows
# fit_chaos_kernel is unused here but stays importable: the per-layer tracer in
# perfbench/tracing.py wraps it by name in this module
from .chaosreg import fit_chaos_kernel  # noqa: F401
from .errors import GridEmptyError
from .kernelkit import MomentKernel


@dataclass(frozen=True)
class BandwidthGrid:
    """Admissible bandwidths {e^-k} for one chaos order, sorted decreasing."""

    order: int
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("bandwidth grid may not be empty")
        if list(self.values) != sorted(self.values, reverse=True):
            raise ValueError("grid values must be sorted decreasing")

    @property
    def h_min(self) -> float:
        return self.values[-1]


@dataclass(frozen=True)
class MajorantParams:
    """Oracle constants entering the majorant."""

    mu4: float
    class_bound: float
    max_order: int
    kernel_l2: float

    def __post_init__(self):
        if min(self.mu4, self.class_bound, self.kernel_l2) <= 0 or self.max_order < 1:
            raise ValueError("majorant parameters must be strictly positive")


@dataclass(frozen=True)
class SelectionRecord:
    h: float
    majorant: float
    bias_proxy: float

    @property
    def objective(self) -> float:
        return self.majorant + self.bias_proxy


@dataclass(frozen=True)
class SelectionTrace:
    """Per-bandwidth diagnostics and the selected bandwidth for one order."""

    order: int
    records: tuple[SelectionRecord, ...]
    chosen: float

    def __post_init__(self):
        objectives = [r.objective for r in self.records]
        best = min(objectives)
        chosen_obj = next(r.objective for r in self.records if r.h == self.chosen)
        if chosen_obj != best:
            raise ValueError("chosen bandwidth must minimize the objective")


def bandwidth_grid(n: int, order: int, s_star_lo: float) -> BandwidthGrid:
    """All e^-k, k in N, inside [n^(-1/(2 s_* + l)), (log n)^(-1)].

    Raises GridEmptyError (reporting the bracket) when the intersection is
    empty; the bracket is never silently clamped.
    """
    if n < 3:
        raise ValueError("n must be >= 3 so that log n > 1")
    if s_star_lo <= 0:
        raise ValueError("s_star_lo must be positive")
    lower = n ** (-1.0 / (2.0 * s_star_lo + order))
    upper = 1.0 / math.log(n)
    k = 1
    values = []
    while True:
        h = math.exp(-k)
        if h < lower:
            break
        if h <= upper:
            values.append(h)
        k += 1
    if not values:
        raise GridEmptyError(order, lower, upper)
    return BandwidthGrid(order, tuple(values))


def majorant(order: int, h: float, n: int, params: MajorantParams) -> float:
    """Penalized standard-deviation bound M(l, h) for the order-l estimate."""
    if not 0.0 < h < 1.0:
        raise ValueError(f"bandwidth must lie in (0, 1), got {h}")
    b_l2 = (
        chaos_constant(order, 4) ** 2
        * 2.0**order
        * math.factorial(order)
        * params.kernel_l2 ** (2 * order)
    )
    nu = (
        params.mu4
        + sum(chaos_constant(k, 4) * params.class_bound for k in range(1, params.max_order + 1))
    ) * math.sqrt(b_l2) / 2.0
    log_term = order * math.log(1.0 / h)
    return nu * (1.0 + 4.0 * math.sqrt(log_term)) / math.sqrt(n * h**order)


def bias_proxy(
    h: float,
    fits: dict[float, ChaosKernelEstimate],
    majorants: dict[float, float],
) -> float:
    """Bias surrogate B(l, h) from one order's fits; 0 at the smallest grid bandwidth."""
    best = 0.0
    for h_prime in majorants:
        h_max = max(h, h_prime)
        diff = fits[h_prime].values - fits[h_max].values
        norm = math.sqrt(float(np.mean(diff**2)))
        term = norm - majorants[h_prime] - majorants[h_max]
        if term > best:
            best = term
    return best


def select_bandwidth(order: int, n: int, fits: dict[float, ChaosKernelEstimate],
                     params: MajorantParams) -> SelectionTrace:
    """Score one order's candidate fits {h: fit} at sample size n; the trace of B + M."""
    hs = sorted(fits, reverse=True)  # decreasing, so ties keep the largest h
    majorants = {h: majorant(order, h, n, params) for h in hs}
    records = [SelectionRecord(h, majorants[h], bias_proxy(h, fits, majorants)) for h in hs]
    chosen = records[0]
    for rec in records[1:]:
        if rec.objective < chosen.objective:
            chosen = rec
    return SelectionTrace(order, tuple(records), chosen.h)


def select_model(mean: float, n: int, candidates: dict[int, dict[float, ChaosKernelEstimate]],
                 params: MajorantParams) -> FittedModel:
    """Per-order selection among candidate fits {order: {h: fit}}, then plugin assembly.

    The model records one SelectionTrace per order.
    """
    traces = tuple(select_bandwidth(order, n, fits, params)
                   for order, fits in sorted(candidates.items()))
    return FittedModel(mean, tuple(candidates[t.order][t.chosen] for t in traces), traces)


def adaptive_fit(
    sample: Sample,
    max_order: int,
    params: MajorantParams,
    s_star_lo: float,
    grid_size: int,
    kernel: MomentKernel,
) -> FittedModel:
    """``select_model`` on the sample's fits at every candidate of its bandwidth grids.

    One pass over the sample's paths reduces the slice integrals of every
    distinct candidate h (``Sample.left_point_integrals``), as
    ``benchcli._fit_one`` does, so the two give the same model.  Raises
    GridEmptyError for the first order whose bandwidth bracket is empty,
    before any fit.
    """
    grids = {order: bandwidth_grid(sample.n, order, s_star_lo).values
             for order in range(1, max_order + 1)}
    hs = sorted({h for values in grids.values() for h in values}, reverse=True)
    parts = dict(zip(hs, sample.left_point_integrals(
        [slice_rows(kernel, h, grid_size, sample.grid) for h in hs])))
    candidates = {order: {h: fit_from_parts(*parts[h], sample.responses, order, h)
                          for h in values} for order, values in grids.items()}
    return select_model(estimate_mean(sample), sample.n, candidates, params)
