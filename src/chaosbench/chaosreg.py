"""Chaos-kernel regression: per-order surface estimates and the plugin model.

The order-l surface estimate at a grid node t of [0,1]^l is

    fhat(t) = (1/n) sum_i Y_i I_l(K_h(t, .))(W_i),

the Wick product of the slice integrals x_a = sum_j K_h(c_a, t_j) dW_j:

    fhat_l = Sym sum_{p <= l/2} (-1)^p l! / (2^p p! (l-2p)!) gram^(x p) x M_(l-2p),

with response moments M_k = (1/n) sum_i Y_i x_i^(x k), M_0 = Ybar, and the
slice gram sl sl^T / N taken on the same path grid as x, so the Ito
correction removes exactly the expected diagonal of the left-point sums.
``chaoscalc.left_point_integrals`` gives both from sl at the left points
(``_fit_parts``, for a sample of paths), ``chaoscalc.draw_left_point_integrals``
draws them without paths, and ``fit_from_parts`` is the one fit formula on
either.  The gram is therefore the exact covariance of x, and by Isserlis's theorem
the fit's mean is exactly S^(x l) f_l with S = sl / N at any n and N
(``fit_mean``); its continuum limit, the kernel smoothing of f_l, is not.

The plugin regression is the chaos expansion (``chaoscalc.ChaosExpansion``)
with Ybar in place of a and the fitted surfaces in place of f_l.  A fitted
surface, ``ChaosKernelEstimate``, is a ``chaoscalc.GriddedFunction`` with a
bandwidth, so its multiple integral is the exact step-function integral on
its cell increments (``GriddedFunction.chaos_from_functionals``).
``FittedModel.values`` predicts every row of an (n, N) increment matrix at
once, and ``predict`` is its row 0 for a single path.

Risk against a truth expansion (``mappingzoo.MappingSpec``) is computed two
ways: the exact conditional decomposition

    R_2^2 = (Ybar - a)^2 + sum_l ||fhat_l - f_l||^2 / l!

valid for p = 2 (norms on the G grid), and a plain Monte Carlo prediction error
E |mhat(W) - m(W)|^p for any p >= 2 (``chaoscalc.monte_carlo_mean`` over
batches of raw increment rows).

``model_to_json`` writes the text of ``json.dumps(doc, sort_keys=True)`` byte
for byte, but formats each distinct value of a surface once: a fitted
surface is exactly symmetric, so an order-3 one on G = 64 holds 45 760
distinct values among its 262 144 entries.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import midpoints
# derive_seed, brute_multiple_integral and sample_brownian are unused here but
# stay importable: the per-layer tracer in perfbench/tracing.py wraps them by
# name in this module
from ._util import derive_seed  # noqa: F401
from .chaoscalc import ChaosExpansion, GriddedFunction, _chaos_from_parts
from .chaoscalc import left_point_integrals, left_points, monte_carlo_mean
from .chaoscalc import brute_multiple_integral  # noqa: F401
from .kernelkit import MomentKernel, slice_matrix
from .pathlab import BrownianPath, TimeGrid
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
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
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


@dataclass(frozen=True)
class ChaosKernelEstimate(GriddedFunction):
    """Fitted order-l surface on the midpoint grid, with its bandwidth."""

    bandwidth: float = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.bandwidth < 1.0:
            raise ValueError(f"bandwidth must lie in (0, 1), got {self.bandwidth}")


@dataclass(frozen=True)
class FittedModel(ChaosExpansion):
    """Response mean ``a`` plus one chaos-kernel estimate per order in ``components``."""

    selection_traces: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class RiskReport:
    """Prediction risk R_p; ``breakdown`` holds the squared components for p = 2."""

    p: float
    value: float
    method: str
    mc_stderr: float
    breakdown: dict


def estimate_mean(sample: Sample) -> float:
    """Arithmetic mean of the responses (a Sample holds at least two)."""
    return float(np.mean(sample.responses))


def slice_rows(kernel: MomentKernel, bandwidth: float, grid_size: int, grid: TimeGrid):
    """The slice matrix sl (G, N): slice a at the left points of the path grid."""
    return slice_matrix(kernel, midpoints(grid_size), bandwidth, left_points(grid.n_steps))


def _fit_parts(sample: Sample, bandwidth: float, grid_size: int, kernel: MomentKernel):
    """Slice single-integrals X (G, n) and their path-grid gram sl sl^T / N (G, G)."""
    return left_point_integrals(slice_rows(kernel, bandwidth, grid_size, sample.grid),
                                sample.increments)


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


def _response_moment(x: np.ndarray, y: np.ndarray, k: int):
    """M_k = (1/n) sum_i y_i x_i^(x k); M_0 = Ybar.

    Orders k >= 2 are built one (k-2)-tuple of leading indices at a time as a
    (G, n) @ (n, G) product, so no (G^(k-1), n) temporary is formed.
    """
    n = len(y)
    if k == 0:
        return np.mean(y)
    if k == 1:
        return x @ y / n
    g = x.shape[0]
    out = np.empty((g,) * k)
    for lead in np.ndindex(*(g,) * (k - 2)):
        w = y
        for a in lead:
            w = w * x[a]
        out[lead] = (x * w) @ x.T / n
    return out


def fit_chaos_kernel(
    sample: Sample,
    order: int,
    bandwidth: float,
    grid_size: int,
    kernel: MomentKernel,
) -> ChaosKernelEstimate:
    """Fit the order-l surface on the G-per-axis midpoint grid of [0,1]^l.

    ``fit_from_parts`` on the sample's slice integrals.  The slice matrix
    rejects a bandwidth outside (0, 1) before any work is done.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    x, gram = _fit_parts(sample, bandwidth, grid_size, kernel)
    return fit_from_parts(x, gram, sample.responses, order, bandwidth)


def fit_from_parts(x: np.ndarray, gram: np.ndarray, y: np.ndarray, order: int,
                   bandwidth: float) -> ChaosKernelEstimate:
    """The order-l surface from slice integrals x (G, n), their gram (G, G) and responses y.

    Linear in the responses; the returned tensor is exactly symmetric.
    """
    values = _response_moment(x, y, order)
    for p in range(1, order // 2 + 1):
        term = _response_moment(x, y, order - 2 * p)
        for _ in range(p):
            term = np.multiply.outer(gram, term)
        coeff = (-1) ** p * math.factorial(order) // (
            2**p * math.factorial(p) * math.factorial(order - 2 * p))
        values = values + coeff * term
    return ChaosKernelEstimate(order, len(x), _symmetrize(values), bandwidth=bandwidth)


def _fit_generic(x, gram, y, order, grid_size):
    """Ordered-node product-formula evaluation with mirroring: the tests' oracle."""
    n = len(y)
    values = np.zeros((grid_size,) * order)
    for idx in itertools.combinations_with_replacement(range(grid_size), order):
        xi_rows = [x[i] for i in idx]
        sub = gram[np.ix_(idx, idx)]
        node_val = float(np.dot(_chaos_from_parts(xi_rows, sub), y) / n)
        for perm in set(itertools.permutations(idx)):
            values[perm] = node_val
    return values


def fit_mean(truth: ChaosExpansion, order: int, bandwidth: float, grid_size: int,
             kernel: MomentKernel, grid: TimeGrid) -> np.ndarray:
    """Exact expectation of the order-l fit on samples of ``truth``: S^(x l) f_l.

    S = sl / N is the fit's slice matrix over N.  Its rows are the covariances
    of the slice integrals x with the path increments, and the fit's gram is
    the exact covariance of x, so by Isserlis's theorem the Wick product
    removes every order but l at any n and N: the mean a, the noise and the
    other components drop out.  S maps the component's functional rows A_c
    (k_c, N) to P = S A_c^T (G, k_c), and f_l's coefficient tensor on those
    functionals, the values of a gridded component or scale on the one row
    of an equal-factor one, is contracted with P on each axis.  An order
    without a component gives zeros.  Exact for both forms: each lies in its
    own order's chaos on the path grid.
    """
    s = slice_rows(kernel, bandwidth, grid_size, grid) / grid.n_steps
    for c in truth.components:
        if c.order != order:
            continue
        proj = s @ c.functional_rows(grid.n_steps).T
        values = c.values if isinstance(c, GriddedFunction) else np.full((1,) * order, c.scale)
        for _ in range(order):  # each pass contracts the leading axis
            values = np.tensordot(values, proj, axes=(0, 1))
        return values
    return np.zeros((grid_size,) * order)


def predict(model: FittedModel, path: BrownianPath) -> float:
    """Row 0 of ``model.values`` for a single path."""
    return float(model.values(path.increments[None])[0])


def risk_isometry(model: FittedModel, truth: ChaosExpansion,
                  grid_size: int | None = None) -> RiskReport:
    """Exact conditional R_2, the isometry distance between two expansions.

    An order present on one side only contributes the other side's norm.
    Both sides are tabulated at ``grid_size`` (default: the model's grid), so
    every estimate must lie on that grid.
    """
    if grid_size is None:
        grid_size = model.components[0].grid_size if model.components else 64
    total = (model.a - truth.a) ** 2
    breakdown: dict = {"mean": float(total)}
    for order in sorted(set(model.orders) | set(truth.orders)):
        diff = model.component_values(order, grid_size) - truth.component_values(order, grid_size)
        breakdown[order] = float(np.mean(diff**2)) / math.factorial(order)
        total += breakdown[order]
    return RiskReport(2.0, float(np.sqrt(total)), "isometry", 0.0, breakdown)


def risk_monte_carlo(
    model: FittedModel,
    truth,
    p: float,
    n_mc: int,
    seed: int,
    n_steps: int = 512,
) -> RiskReport:
    """Monte Carlo prediction risk (E |mhat(W) - m(W)|^p)^(1/p) over fresh paths.

    ``chaoscalc.monte_carlo_mean`` with ``root=p`` evaluates model and truth on
    raw increment batches from ``default_rng(seed)``; ``mc_stderr`` is its stderr.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    value, stderr = monte_carlo_mean(
        lambda dw: np.abs(model.values(dw) - truth.values(dw)) ** p,
        n_mc, n_steps, seed, root=p)
    return RiskReport(float(p), value, "monte_carlo", stderr, {})


MODEL_FORMAT = "chaosbench.fitted-model/1"


def _float_list_json(values: np.ndarray) -> str:
    """The JSON list of ``values`` in C order, each distinct float formatted once.

    Distinct means distinct bit pattern: ``np.unique`` on the floats would merge
    -0.0 with 0.0.  Each pattern's ``float.__repr__``, the text ``json.dumps``
    writes for a finite float, is scattered back through the inverse index.
    """
    bits, inverse = np.unique(values.ravel().view(np.uint64), return_inverse=True)
    text = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    return "[" + ", ".join(text[inverse].tolist()) + "]"


def model_to_json(model: FittedModel) -> str:
    """The model document, byte for byte ``json.dumps(doc, sort_keys=True)``.

    Each surface goes through ``_float_list_json``, the scalars through
    ``json.dumps``.
    """
    orders = ", ".join(
        f'{{"bandwidth": {json.dumps(e.bandwidth)}, "grid_size": {json.dumps(e.grid_size)}, '
        f'"order": {json.dumps(e.order)}, "values": {_float_list_json(e.values)}}}'
        for e in model.components)
    return (f'{{"format": {json.dumps(MODEL_FORMAT)}, "mean_hat": {json.dumps(model.a)}, '
            f'"orders": [{orders}]}}')


def model_from_json(text: str) -> FittedModel:
    doc = json.loads(text)
    if doc["format"] != MODEL_FORMAT:
        raise ValueError(f"unknown model format {doc['format']!r}")
    estimates = []
    for entry in doc["orders"]:
        order = int(entry["order"])
        g = int(entry["grid_size"])
        values = np.asarray(entry["values"], dtype=float).reshape((g,) * order)
        estimates.append(ChaosKernelEstimate(order, g, values, bandwidth=float(entry["bandwidth"])))
    return FittedModel(float(doc["mean_hat"]), tuple(estimates))
