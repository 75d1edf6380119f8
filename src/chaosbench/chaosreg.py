"""Chaos-kernel regression: per-order surface estimates and the plugin model.

The order-l surface estimate at a grid node t of [0,1]^l is

    fhat(t) = (1/n) sum_i Y_i I_l(K_h(t, .))(W_i),

computed from single Ito integrals of the kernel slices and their inner
products (the same reduction as ``chaoscalc.tensor_chaos_values``,
vectorized over grid nodes and sample paths).  The plugin regression adds the
response mean and the per-order multiple integrals of the fitted surfaces,
evaluated with the batched gridded off-diagonal sum
(``chaoscalc.gridded_chaos_values``): ``predict_values`` predicts every row
of an (n, N) increment matrix at once, and ``predict`` is its row 0 for a
single path.

Risk against a known truth is computed two ways: the exact conditional
decomposition

    R_2^2 = (Ybar - a)^2 + sum_l ||fhat_l - f_l||^2 / l!

valid for p = 2, and a plain Monte Carlo prediction error for any p >= 2,
which predicts and evaluates the truth on all draws in one batch.
``truth`` arguments are duck-typed: they need ``a``, ``orders``,
``component_values(order, grid_size)`` and ``values(increments)`` (see
``mappingzoo.MappingSpec``).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Callable, Sequence

import numpy as np

from ._util import DEFAULT_QUAD_POINTS, midpoints
# derive_seed, brute_multiple_integral and sample_brownian are unused here but
# stay importable: the per-layer tracer in perfbench/tracing.py wraps them by
# name in this module
from ._util import derive_seed  # noqa: F401
from .chaoscalc import GriddedFunction, _chaos_from_parts, gridded_chaos_values
from .chaoscalc import brute_multiple_integral  # noqa: F401
from .errors import UnsupportedOrderError
from .kernelkit import MomentKernel, boundary_sign, slice_matrix
from .pathlab import BrownianPath, TimeGrid, sample_brownian_paths
from .pathlab import sample_brownian  # noqa: F401


@dataclass(frozen=True)
class Sample:
    """Regression sample: responses and Brownian covariates on one shared grid."""

    grid: TimeGrid
    responses: np.ndarray
    path_values: np.ndarray

    def __post_init__(self):
        responses = np.asarray(self.responses, dtype=float)
        values = np.asarray(self.path_values, dtype=float)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "path_values", values)
        if responses.ndim != 1 or len(responses) < 2:
            raise ValueError("need at least two observations")
        if values.shape != (len(responses), self.grid.n_steps + 1):
            raise ValueError(
                f"path_values must have shape {(len(responses), self.grid.n_steps + 1)}"
            )
        if np.any(values[:, 0] != 0.0):
            raise ValueError("all covariate paths must start at 0")
        if not np.all(np.isfinite(responses)):
            raise ValueError("responses must be finite")

    @property
    def n(self) -> int:
        return len(self.responses)

    @cached_property
    def increments(self) -> np.ndarray:
        """Path increments (n, N), computed once from ``path_values``.

        Always ``np.diff(path_values)``, whichever route built the sample, so
        fits from synthesized and from re-read datasets are bit-identical.
        """
        return np.diff(self.path_values, axis=1)

    def path(self, i: int) -> BrownianPath:
        return BrownianPath(self.grid, self.path_values[i])

    @classmethod
    def from_paths(cls, responses: Sequence[float], paths: Sequence[BrownianPath]) -> "Sample":
        paths = list(paths)
        if not paths:
            raise ValueError("need at least two observations")
        grid = paths[0].grid
        if any(p.grid != grid for p in paths):
            raise ValueError("all paths must share one grid")
        return cls(grid, np.asarray(responses, dtype=float), np.stack([p.values for p in paths]))


@dataclass(frozen=True)
class ChaosKernelEstimate:
    """Fitted order-l surface on the midpoint grid, with its bandwidth."""

    order: int
    bandwidth: float
    grid_size: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not 0.0 < self.bandwidth < 1.0:
            raise ValueError(f"bandwidth must lie in (0, 1), got {self.bandwidth}")
        if values.shape != (self.grid_size,) * self.order:
            raise ValueError(
                f"values must have shape {(self.grid_size,) * self.order}, got {values.shape}"
            )

    def as_gridded(self) -> GriddedFunction:
        return GriddedFunction(self.order, self.grid_size, self.values)

    def l2_norm_sq(self) -> float:
        return float(np.mean(self.values**2))


@dataclass(frozen=True)
class FittedModel:
    """Response mean plus one chaos-kernel estimate per order."""

    mean_hat: float
    estimates: tuple[ChaosKernelEstimate, ...]
    selection_traces: tuple = field(default=(), compare=False)

    def __post_init__(self):
        estimates = tuple(sorted(self.estimates, key=lambda e: e.order))
        object.__setattr__(self, "estimates", estimates)
        orders = [e.order for e in estimates]
        if len(set(orders)) != len(orders):
            raise ValueError("at most one estimate per order")

    @property
    def chaos_orders(self) -> tuple[int, ...]:
        return tuple(e.order for e in self.estimates)

    @property
    def bandwidths(self) -> tuple[float, ...]:
        return tuple(e.bandwidth for e in self.estimates)

    def estimate_for(self, order: int) -> ChaosKernelEstimate | None:
        for e in self.estimates:
            if e.order == order:
                return e
        return None


@dataclass(frozen=True)
class RiskReport:
    """Prediction risk R_p; ``breakdown`` holds the squared components for p = 2."""

    p: float
    value: float
    method: str
    mc_stderr: float
    breakdown: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "value": self.value,
                "method": self.method,
                "mc_stderr": self.mc_stderr,
                "breakdown": {str(k): v for k, v in self.breakdown.items()},
            },
            sort_keys=True,
        )


def estimate_mean(sample: Sample) -> float:
    """Arithmetic mean of the responses."""
    if sample.n < 1:
        raise ValueError("empty sample")
    return float(np.mean(sample.responses))


def _fit_parts(sample: Sample, bandwidth: float, grid_size: int,
               kernel: MomentKernel, quad_points: int):
    """Slice single-integrals X (G, n) and slice gram matrix (G, G)."""
    centers = midpoints(grid_size)
    t_left = sample.grid.points[:-1]
    sl = slice_matrix(kernel, centers, bandwidth, t_left)
    x = sl @ sample.increments.T
    q = midpoints(quad_points)
    qx = slice_matrix(kernel, centers, bandwidth, q)
    gram = (qx @ qx.T) / quad_points
    return x, gram


def _symmetrize(values: np.ndarray) -> np.ndarray:
    """Mean of all axis transposes, exactly symmetric.

    Every entry takes the value at its sorted index, so mirrored entries are
    equal whatever order the transposes were summed in.
    """
    dim = values.ndim
    if dim == 1:
        return values
    acc = np.zeros_like(values)
    for perm in itertools.permutations(range(dim)):
        acc += np.transpose(values, perm)
    acc /= math.factorial(dim)
    # the smallest index dtype keeps the index grid small next to the tensor
    idx = np.indices(values.shape, dtype=np.min_scalar_type(max(values.shape) - 1))
    idx.sort(axis=0)
    return acc[tuple(idx)]


def fit_chaos_kernel(
    sample: Sample,
    order: int,
    bandwidth: float,
    grid_size: int,
    kernel: MomentKernel,
    quad_points: int = DEFAULT_QUAD_POINTS,
) -> ChaosKernelEstimate:
    """Fit the order-l surface on the G-per-axis midpoint grid of [0,1]^l.

    Linear in the responses; the returned tensor is exactly symmetric.
    """
    if not 0.0 < bandwidth < 1.0:
        raise ValueError(f"bandwidth must lie in (0, 1), got {bandwidth}")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    x, gram = _fit_parts(sample, bandwidth, grid_size, kernel, quad_points)
    y = sample.responses
    n = sample.n
    if order == 1:
        values = x @ y / n
    elif order == 2:
        values = (x * y) @ x.T / n - np.mean(y) * gram
        values = _symmetrize(values)
    elif order == 3:
        g = grid_size
        u = x @ y / n
        xy = x * y
        values = np.empty((g, g, g))
        for a in range(g):
            values[a] = (xy * x[a]) @ x.T / n
        corr = gram[:, :, None] * u[None, None, :]
        values -= corr + np.transpose(corr, (0, 2, 1)) + np.transpose(corr, (2, 0, 1))
        values = _symmetrize(values)
    else:
        values = _fit_generic(x, gram, y, order, grid_size)
    return ChaosKernelEstimate(order, bandwidth, grid_size, values)


def _fit_generic(x, gram, y, order, grid_size):
    """Ordered-node evaluation with mirroring, for orders beyond the fast paths."""
    n = len(y)
    values = np.zeros((grid_size,) * order)
    for idx in itertools.combinations_with_replacement(range(grid_size), order):
        xi_rows = [x[i] for i in idx]
        sub = gram[np.ix_(idx, idx)]
        node_val = float(np.dot(_chaos_from_parts(xi_rows, sub), y) / n)
        for perm in set(itertools.permutations(idx)):
            values[perm] = node_val
    return values


def smoothed_truth(
    order: int,
    bandwidth: float,
    f: Callable,
    grid_size: int,
    kernel: MomentKernel,
    gl_nodes: int = 32,
) -> GriddedFunction:
    """Kernel-smoothed truth int f(u) K_h(t, u) du on the evaluation grid.

    This is the exact expectation of the fitted surface.  ``f`` must accept
    ``order`` broadcastable coordinate arrays.  Quadrature is Gauss-Legendre
    on each slice window, so the kernel factor is integrated to float
    precision and only the smoothness of ``f`` limits accuracy.
    """
    centers = midpoints(grid_size)
    signs = boundary_sign(centers)
    lo = np.where(signs > 0, centers - bandwidth, centers)
    hi = np.where(signs > 0, centers, centers + bandwidth)
    lo = np.clip(lo, 0.0, 1.0)
    hi = np.clip(hi, 0.0, 1.0)
    gx, gw = np.polynomial.legendre.leggauss(gl_nodes)
    half = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    u = mid[:, None] + half[:, None] * gx[None, :]  # (G, q) nodes per window
    w = half[:, None] * gw[None, :]
    slice_vals = slice_matrix(kernel, centers, bandwidth, u.ravel())
    # row a evaluated at its own window nodes
    a_idx = np.arange(grid_size)
    sv = slice_vals.reshape(grid_size, grid_size, gl_nodes)[a_idx, a_idx, :]
    aw = sv * w  # slice values times quadrature weights
    if order == 1:
        values = np.einsum("ar,ar->a", aw, np.asarray(f(u), dtype=float))
    elif order == 2:
        fv = np.asarray(f(u[:, :, None, None], u[None, None, :, :]), dtype=float)
        values = np.einsum("ar,bs,arbs->ab", aw, aw, fv)
    elif order == 3:
        g = grid_size
        values = np.empty((g, g, g))
        for a in range(g):
            fv = np.asarray(
                f(u[a][:, None, None, None, None], u[:, :, None, None], u[None, None]),
                dtype=float,
            )
            values[a] = np.einsum("r,bs,ct,rbsct->bc", aw[a], aw, aw, fv)
    else:
        raise UnsupportedOrderError("smoothed_truth supports order <= 3")
    return GriddedFunction(order, grid_size, values)


def _regrid(estimate: ChaosKernelEstimate, grid_size: int) -> GriddedFunction:
    if grid_size == estimate.grid_size:
        return estimate.as_gridded()
    # nearest-midpoint resampling per axis
    old = midpoints(estimate.grid_size)
    new = midpoints(grid_size)
    idx = np.clip(np.searchsorted(old, new), 1, len(old) - 1)
    idx = np.where(np.abs(old[idx - 1] - new) <= np.abs(old[idx] - new), idx - 1, idx)
    values = estimate.values
    for axis in range(estimate.order):
        values = np.take(values, idx, axis=axis)
    return GriddedFunction(estimate.order, grid_size, values)


def predict_values(model: FittedModel, increments: np.ndarray,
                   grid_size: int | None = None) -> np.ndarray:
    """Plugin prediction Ybar + sum_l I_l(fhat_l)(W) / l! per increment row (orders <= 3)."""
    values = np.full(len(increments), model.mean_hat)
    for est in model.estimates:
        gridded = _regrid(est, grid_size) if grid_size else est.as_gridded()
        values += gridded_chaos_values(gridded, increments) / math.factorial(est.order)
    return values


def predict(model: FittedModel, path: BrownianPath, grid_size: int | None = None) -> float:
    """Row 0 of ``predict_values`` for a single path."""
    return float(predict_values(model, path.increments[None], grid_size)[0])


def risk_isometry(model: FittedModel, truth, grid_size: int | None = None,
                  p: float = 2.0) -> RiskReport:
    """Exact conditional R_2 from the per-order surface errors.

    Orders present on only one side contribute the other side's norm.  Only
    p = 2 admits this decomposition.
    """
    if p != 2.0:
        raise ValueError("the isometry decomposition is only valid for p = 2")
    if grid_size is None:
        grid_size = model.estimates[0].grid_size if model.estimates else 64
    breakdown: dict = {}
    mean_term = (model.mean_hat - truth.a) ** 2
    breakdown["mean"] = float(mean_term)
    orders = sorted(set(model.chaos_orders) | set(truth.orders))
    total = mean_term
    for order in orders:
        est = model.estimate_for(order)
        model_vals = _regrid(est, grid_size).values if est is not None else None
        truth_vals = truth.component_values(order, grid_size)
        if model_vals is None and truth_vals is None:
            diff = None
        elif model_vals is None:
            diff = -np.asarray(truth_vals)
        elif truth_vals is None:
            diff = model_vals
        else:
            diff = model_vals - np.asarray(truth_vals)
        term = 0.0 if diff is None else float(np.mean(diff**2)) / math.factorial(order)
        breakdown[order] = term
        total += term
    return RiskReport(2.0, float(np.sqrt(total)), "isometry", 0.0, breakdown)


def risk_monte_carlo(
    model: FittedModel,
    truth,
    p: float,
    n_mc: int,
    seed: int,
    grid_size: int | None = None,
    n_steps: int = 512,
) -> RiskReport:
    """Monte Carlo prediction risk (E |mhat(W) - m(W)|^p)^(1/p) over fresh paths.

    The ``n_mc`` paths are one batch, ``sample_brownian_paths(grid, n_mc, seed)``,
    and model and truth are evaluated on all of them at once.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if n_mc < 100:
        raise ValueError("n_mc must be >= 100")
    increments = np.diff(sample_brownian_paths(TimeGrid(n_steps), n_mc, seed), axis=1)
    diffs = predict_values(model, increments, grid_size) - truth.values(increments)
    powered = np.abs(diffs) ** p
    mean_pow = float(np.mean(powered))
    value = mean_pow ** (1.0 / p)
    stderr_mean = float(np.std(powered, ddof=1) / np.sqrt(n_mc))
    stderr = stderr_mean / p * mean_pow ** (1.0 / p - 1.0) if mean_pow > 0 else 0.0
    return RiskReport(float(p), value, "monte_carlo", float(stderr), {})


MODEL_FORMAT = "chaosbench.fitted-model/1"


def model_to_json(model: FittedModel, fp: IO[str] | None = None) -> str:
    doc = {
        "format": MODEL_FORMAT,
        "mean_hat": model.mean_hat,
        "orders": [
            {
                "order": e.order,
                "bandwidth": e.bandwidth,
                "grid_size": e.grid_size,
                "values": e.values.ravel(order="C").tolist(),
            }
            for e in model.estimates
        ],
    }
    text = json.dumps(doc, sort_keys=True)
    if fp is not None:
        fp.write(text)
    return text


def model_from_json(text: str) -> FittedModel:
    doc = json.loads(text)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unknown model format {doc.get('format')!r}")
    estimates = []
    for entry in doc["orders"]:
        order = int(entry["order"])
        g = int(entry["grid_size"])
        values = np.asarray(entry["values"], dtype=float).reshape((g,) * order)
        estimates.append(ChaosKernelEstimate(order, float(entry["bandwidth"]), g, values))
    return FittedModel(float(doc["mean_hat"]), tuple(estimates))
