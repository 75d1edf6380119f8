"""Chaos-kernel regression: per-order surface estimates and the plugin model.

The order-l surface estimate at a grid node t of [0,1]^l is

    fhat(t) = (1/n) sum_i Y_i I_l(K_h(t, .))(W_i),

the Wick product of the slice integrals x_a = sum_j K_h(c_a, t_j) dW_j:

    fhat_l = Sym sum_{p <= l/2} (-1)^p l! / (2^p p! (l-2p)!) gram^(x p) x M_(l-2p),

with response moments M_k = (1/n) sum_i Y_i x_i^(x k), M_0 = Ybar, and the
slice gram sl sl^T / N taken on the same path grid as x, so the Ito
correction removes exactly the expected diagonal of the left-point sums.
``Sample.left_point_integrals`` gives both from sl at the left points, in one
pass over the sample's row blocks of increments, so no fit holds the (n, N)
increments; ``chaoscalc.draw_from_factor`` draws them without paths, and
``fit_from_parts`` is the one fit formula on either.  ``candidate_fits``, every
(order, h) of a bandwidth plan from one such pass, is the one route from a
sample to its fits.  At order 1 the fit is M_1 alone, a linear functional of
sum_i Y_i dW_i, so a slice block used at no other order can be drawn as the
one sum sum_i Y_i x_i (``benchcli._rate_setup``, which builds each n's
factor once for ``rate``'s replications).  The gram is the exact
covariance of x, and by Isserlis's theorem the fit's mean is exactly
S^(x l) f_l with S = sl / N at any n and N (``fit_mean``); its continuum
limit, the kernel smoothing of f_l, is not.

The plugin regression is the chaos expansion (``chaoscalc.ChaosExpansion``)
with Ybar in place of a and the fitted surfaces in place of f_l.  A fitted
surface, ``ChaosKernelEstimate``, is a ``chaoscalc.GriddedFunction`` with a
bandwidth, so its multiple integral is the exact step-function integral on
its cell increments (``GriddedFunction.chaos_from_functionals``).
``FittedModel.values`` predicts every row of an (n, N) increment matrix at
once, and ``predict`` is its row 0 for a single path.

Risk against a truth expansion (``mappingzoo.MappingSpec``) is computed two
ways: the exact conditional decomposition

    R_2^2 = (Ybar - a)^2 + sum_l ||fhat_l - f_l||_N^2 / l!

valid for p = 2 (norms over the N^l left-point tuples of the path grid), and a
plain Monte Carlo prediction error E |mhat(W) - m(W)|^p for any p >= 2
(``chaoscalc.monte_carlo_mean`` on drawn functionals of both, not on paths).

A fit computes only the C(G+l-1, l) distinct values of its surface, at the
sorted index tuples a_1 <= ... <= a_l (45 760 of 262 144 at G = 64, l = 3),
and fills the G^l tensor from them by one gather (``fit_from_parts``), so a
fitted surface is exactly symmetric.  ``model_to_json`` writes the model as
compact JSON with sorted keys through ``orjson``, each number the shortest
text that reads back to its bits; ``json.loads`` reads the same values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import midpoints
# derive_seed, brute_multiple_integral and sample_brownian are unused here but
# stay importable: the per-layer tracer in perfbench/tracing.py wraps them by
# name in this module
from ._util import derive_seed  # noqa: F401
from .chaoscalc import ChaosExpansion, GriddedFunction, _chaos_from_parts, _matchings
from .chaoscalc import block_left_point_integrals, left_points, monte_carlo_mean
from .chaoscalc import path_grid_inner, project, stack_rows
from .chaoscalc import brute_multiple_integral  # noqa: F401
from .kernelkit import MomentKernel, slice_matrix
from .pathlab import BrownianPath, BrownianPaths, TimeGrid, increment_blocks
from .pathlab import sample_brownian  # noqa: F401


@dataclass(frozen=True)
class Sample:
    """Regression sample: responses and Brownian covariates on one shared grid.

    ``paths`` is the (n, N+1) path matrix, or ``pathlab.BrownianPaths``, the
    seed of drawn paths, which are never held whole.  Either way a fit reads
    them as ``pathlab.increment_blocks``, the same row blocks on both routes,
    so fits from synthesized and from re-read datasets are bit-identical.
    ``reduced`` holds (weights, (x, cov)) pairs reduced with the responses at
    synthesis (``mappingzoo.synthesize``).
    """

    grid: TimeGrid
    responses: np.ndarray
    paths: np.ndarray | BrownianPaths
    reduced: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        responses = np.asarray(self.responses, dtype=float)
        object.__setattr__(self, "responses", responses)
        if responses.ndim != 1 or len(responses) < 2:
            raise ValueError("need at least two observations")
        if not np.all(np.isfinite(responses)):
            raise ValueError("responses must be finite")
        if isinstance(self.paths, BrownianPaths):
            if (self.paths.grid, self.paths.n) != (self.grid, len(responses)):
                raise ValueError("the drawn paths must match the grid and the responses")
            return
        values = np.asarray(self.paths, dtype=float)
        object.__setattr__(self, "paths", values)
        if values.shape != (len(responses), self.grid.n_steps + 1):
            raise ValueError(
                f"paths must have shape {(len(responses), self.grid.n_steps + 1)}"
            )
        if np.any(values[:, 0] != 0.0):
            raise ValueError("all covariate paths must start at 0")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")

    @property
    def n(self) -> int:
        return len(self.responses)

    def left_point_integrals(self, weights) -> list:
        """``chaoscalc.left_point_integrals`` of each weight matrix (k, N) on the sample.

        A weight matrix reduced at synthesis gives its reduced pair, and the
        others take one pass over the sample's increment blocks.  Each x is
        filled by its own products, so a pair is the same bits either way.
        """
        pairs = [next((pair for v, pair in self.reduced if np.array_equal(w, v)), None)
                 for w in weights]
        missing = [w for w, pair in zip(weights, pairs) if pair is None]
        if missing:
            reduced = iter(block_left_point_integrals(missing, increment_blocks(self.paths),
                                                      self.n))
            pairs = [next(reduced) if pair is None else pair for pair in pairs]
        return pairs


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


def _response_moment(x: np.ndarray, y: np.ndarray, k: int):
    """M_k = (1/n) sum_i y_i x_i^(x k), set at its sorted index tuples; M_0 = Ybar.

    Orders k >= 2 are built one sorted tuple of middle indices
    m_1 <= ... <= m_(k-2) at a time: with w = y x_(m_1) ... x_(m_(k-2)), the
    block (x[:m_1+1] * w) @ x[m_(k-2):].T / n holds exactly the sorted k-tuples
    (a, m_1, ..., m_(k-2), c), a <= m_1 and c >= m_(k-2).  Order 2 has no
    middle, and its one block is the whole (x * y) @ x.T / n.  Other entries
    are left unset, so M_k is read only at sorted tuples, and no
    (G^(k-1), n) temporary is formed.
    """
    n = len(y)
    if k == 0:
        return np.mean(y)
    if k == 1:
        return x @ y / n
    g = x.shape[0]
    out = np.empty((g,) * k)
    for middle in itertools.combinations_with_replacement(range(g), k - 2):
        first, last = (middle[0] + 1, middle[-1]) if middle else (g, 0)
        w = y
        for b in middle:
            w = w * x[b]
        out[(slice(first), *middle, slice(last, None))] = (x[:first] * w) @ x[last:].T / n
    return out


def fit_chaos_kernel(
    sample: Sample,
    order: int,
    bandwidth: float,
    grid_size: int,
    kernel: MomentKernel,
) -> ChaosKernelEstimate:
    """Fit the order-l surface on the G-per-axis midpoint grid of [0,1]^l.

    ``candidate_fits`` of the one candidate.  The slice matrix rejects a
    bandwidth outside (0, 1) before any work is done.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    rows = {bandwidth: slice_rows(kernel, bandwidth, grid_size, sample.grid)}
    return candidate_fits(sample, {order: (bandwidth,)}, rows)[order][bandwidth]


def candidate_fits(sample: Sample, plan: dict, rows: dict) -> dict:
    """The fit at every candidate of ``plan`` {order: hs}, as {order: {h: fit}}.

    ``rows`` maps each distinct h to its ``slice_rows``.  One
    ``Sample.left_point_integrals`` call reduces them all, then
    ``fit_from_parts`` runs once per (order, h).
    """
    parts = dict(zip(rows, sample.left_point_integrals(list(rows.values()))))
    return {order: {h: fit_from_parts(*parts[h], sample.responses, order, h) for h in hs}
            for order, hs in plan.items()}


def _sorted_positions(g: int, order: int) -> np.ndarray:
    """The flat C-order position of each (G,)^l entry's sorted index tuple.

    The l index rows are sorted by a network of elementwise min/max swaps,
    which is cheaper than ``np.sort`` along an axis of length l.
    """
    # the smallest index dtype keeps the index grid small next to the tensor
    rows = list(np.indices((g,) * order, dtype=np.min_scalar_type(g - 1)).reshape(order, -1))
    for last in range(order - 1, 0, -1):
        for i in range(last):
            low, high = rows[i], rows[i + 1]
            rows[i], rows[i + 1] = np.minimum(low, high), np.maximum(low, high)
    positions = np.zeros(g**order, dtype=np.intp)
    for row in rows:
        positions = positions * g + row
    return positions


def fit_from_parts(x: np.ndarray, gram: np.ndarray, y: np.ndarray, order: int,
                   bandwidth: float) -> ChaosKernelEstimate:
    """The order-l surface from slice integrals x (G, n), their gram (G, G) and responses y.

    Linear in the responses.  It is computed at the C(G+l-1, l) sorted index
    tuples a_1 <= ... <= a_l only.  There the Wick term gram^(x p) x M_(l-2p),
    averaged over its l! axis permutations and scaled by its coefficient, is
    (-1)^p times the sum over the partial matchings of p pairs of axes of
    prod gram[a_i, a_j] times M_(l-2p) at the unmatched axes: each matching
    stands for 2^p p! (l-2p)! of the permutations.  One gather through the
    sorted-index map then fills the G^l tensor, so it is exactly symmetric.
    At order 1 the surface is x @ y / n.
    """
    g, shape = len(x), (len(x),) * order
    positions = _sorted_positions(g, order)
    distinct = np.flatnonzero(positions == np.arange(g**order))
    at = np.unravel_index(distinct, shape)
    moments = {k: _response_moment(x, y, k) for k in range(order, -1, -2)}
    values = moments[order][at]
    for pairs in _matchings(tuple(range(order))):
        if not pairs:
            continue
        rest = [i for i in range(order) if all(i not in pair for pair in pairs)]
        term = moments[len(rest)][tuple(at[i] for i in rest)]
        for i, j in pairs:
            term = term * gram[at[i], at[j]]
        values = values - term if len(pairs) % 2 else values + term
    dense = np.empty(g**order)
    dense[distinct] = values
    return ChaosKernelEstimate(order, g, dense[positions].reshape(shape), bandwidth=bandwidth)


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
    other components drop out, for either integrand form.  What remains is
    f_l's ``chaoscalc.project`` on the slice rows, zeros without a component.
    """
    for c in truth.components:
        if c.order == order:
            return project(c, c.functional_rows(grid.n_steps),
                           slice_rows(kernel, bandwidth, grid_size, grid), grid.n_steps)
    return np.zeros((grid_size,) * order)


def predict(model: FittedModel, path: BrownianPath) -> float:
    """Row 0 of ``model.values`` for a single path."""
    return float(model.values(path.increments[None])[0])


def risk_isometry(model: FittedModel, truth: ChaosExpansion, n_steps: int) -> RiskReport:
    """Exact conditional R_2 = (E |mhat(W) - m(W)|^2)^(1/2) on the path grid of ``n_steps``.

    ||fhat_l - f_l||_N^2 = <fhat, fhat>_N - 2 <fhat, f>_N + <f, f>_N (``path_grid_inner``),
    each side's rows built once; an order on one side only gives that side's norm.
    """
    sides = [{c.order: (c, c.functional_rows(n_steps)) for c in e.components}
             for e in (model, truth)]
    total = (model.a - truth.a) ** 2
    breakdown: dict = {"mean": float(total)}
    for order in sorted(sides[0].keys() | sides[1].keys()):
        parts = [side[order] for side in sides if order in side]
        sq = sum(path_grid_inner(*part, *part, n_steps) for part in parts)
        if len(parts) == 2:
            sq -= 2.0 * path_grid_inner(*parts[0], *parts[1], n_steps)
        breakdown[order] = max(sq, 0.0) / math.factorial(order)  # rounding can leave sq < 0
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

    ``chaoscalc.monte_carlo_mean`` with ``root=p`` draws the model's and the
    truth's distinct ``functional_rows`` blocks, stacked once (``stack_rows``),
    so an exact model has risk exactly 0, and evaluates both with
    ``values_from_functionals``; ``mc_stderr`` is its stderr.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    rows, spans = stack_rows([c.functional_rows(n_steps)
                              for e in (model, truth) for c in e.components], n_steps)
    k = len(model.components)

    def statistic(xi, cov):
        parts, m = [(xi[s], cov[s, s]) for s in spans], xi.shape[1]
        return np.abs(model.values_from_functionals(m, parts[:k])
                      - truth.values_from_functionals(m, parts[k:])) ** p

    value, stderr = monte_carlo_mean(rows, statistic, n_mc, seed, root=p)
    return RiskReport(float(p), value, "monte_carlo", stderr, {})


MODEL_FORMAT = "chaosbench.fitted-model/1"


def model_to_json(model: FittedModel) -> str:
    """The model as compact JSON with sorted keys, each number the shortest text of its bits."""
    import orjson

    orders = [{"bandwidth": e.bandwidth, "grid_size": e.grid_size, "order": e.order,
               "values": e.values.ravel()} for e in model.components]
    doc = {"format": MODEL_FORMAT, "mean_hat": model.a, "orders": orders}
    return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_SORT_KEYS).decode()


def model_from_json(text: str | bytes) -> FittedModel:
    """The model of a ``model_to_json`` document, or of any JSON text of the same value.

    Files that earlier versions wrote with ``json.dumps``, compact or spaced, read the same.
    """
    import orjson

    doc = orjson.loads(text)
    if doc["format"] != MODEL_FORMAT:
        raise ValueError(f"unknown model format {doc['format']!r}")
    estimates = []
    for entry in doc["orders"]:
        order = int(entry["order"])
        g = int(entry["grid_size"])
        values = np.asarray(entry["values"], dtype=float).reshape((g,) * order)
        estimates.append(ChaosKernelEstimate(order, g, values, bandwidth=float(entry["bandwidth"])))
    return FittedModel(float(doc["mean_hat"]), tuple(estimates))
