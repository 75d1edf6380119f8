"""Multiple Wiener integrals against discretized Brownian paths.

``left_point_integrals`` alone decides the Ito correction: it returns the
single integrals xi = A dW^T of weight rows A (k, N), taken at the left points
t_j = j / N, with their exact path-grid covariance A A^T / N, on which every
multiple integral below pairs.  ``draw_left_point_integrals`` returns the same
pair for n fresh paths without building them: A dW = R^T (Q^T dW) for the
reduced QR A^T = Q R, and Q^T dW is r = min(k, N) independent N(0, 1/N)
normals.  Each expansion component owns its single integrals: its
``functional_rows(N)`` are the weight rows A, and its ``chaos_from_functionals``
evaluates I_l(f_l) from (xi, A A^T / N), whether xi came from paths or from
a draw:

* ``tensor_chaos_values`` reduces a product integrand to single Ito
  integrals and their covariance through the product-formula recursion

      I_{p+1}(g_1 x ... x g_{p+1})
          = I_p(g_1 x ... x g_p) I_1(g_{p+1})
            - sum_{j<=p} <g_j, g_{p+1}>_N I_{p-1}(x_{i!=j} g_i),

  with I_0 = 1 and <g, g'>_N = sum_j g(t_j) g'(t_j) / N.

* ``hermite_from_integral`` is the equal-factor case of the recursion, the
  Hermite identity I_l(g x ... x g) = ||g||^l He_l(I_1(g)/||g||), ||g||^2 = <g, g>_N,
  the evaluator of ``mappingzoo.EqualFactorComponent``.

* ``GriddedFunction.chaos_from_functionals`` is the exact multiple integral
  of a gridded integrand read as a step function on G cells: the
  Wick-ordered sum of the tabulated values against the coarse-cell
  increments (covariance 1/G each), the functionals of its cell indicator rows.
  Tabulating a smooth integrand on finer grids approaches its integral, so it
  is the oracle for the recursion.

``tensor_chaos``, ``hermite_chaos`` and ``brute_multiple_integral`` take one
``BrownianPath``: the first evaluates row 0 of ``tensor_chaos_values``, the
other two run the equal-factor and the gridded evaluator on the path's
single integrals.

``ChaosExpansion`` is a + sum_l I_l(f_l)(W) / l!, the one type of synthetic
truths and fitted models, and ``ChaosExpansion.values`` evaluates both.

``l2_inner``, a continuum quadrature, serves only the class-check norms.
``monte_carlo_mean``, the one Monte Carlo estimator, serves the validators
of the Ito isometry, orthogonality of distinct orders, hypercontractive
moment growth and the second-moment bound
(E xi^2r)^(1/r) <= c_l^2(2r) 2^l l! ||k||^2l h^-l, and the Monte Carlo risk.
``moment_bound_reports`` takes several moments of one draw of xi.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import hermite_e

from ._util import DEFAULT_QUAD_POINTS, midpoints
from .kernelkit import MomentKernel, slice_matrix
from .pathlab import BrownianPath, TimeGrid, brownian_increments

_ROW_BLOCK = 512  # rows per block: bounds the (rows, G^2) order-3 temporary


@dataclass(frozen=True)
class GriddedFunction:
    """An order-l integrand tabulated at the midpoint grid of [0,1]^l, G points per axis.

    It is an expansion component in the gridded form: its single integrals
    are the G cell increments, the functionals of the cell indicator rows.
    """

    order: int
    grid_size: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid_size,) * self.order:
            raise ValueError(
                f"values must have shape {(self.grid_size,) * self.order}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")

    def l2_norm_sq(self) -> float:
        """Midpoint tensor quadrature of the squared function (weight G^-l)."""
        return float(np.mean(self.values**2))

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        for perm in itertools.permutations(range(self.order)):
            if np.max(np.abs(self.values - np.transpose(self.values, perm))) > tol:
                return False
        return True

    def gridded(self, grid_size: int) -> np.ndarray:
        """The tabulated values; only its own grid can be asked for."""
        if grid_size != self.grid_size:
            raise ValueError(
                f"order-{self.order} surface on G={self.grid_size}, requested G={grid_size}")
        return self.values

    def functional_rows(self, n_steps: int) -> np.ndarray:
        """Cell indicators (G, N): row c sums the path increments of cell c."""
        if n_steps % self.grid_size != 0:
            raise ValueError(
                f"grid_size {self.grid_size} does not divide path resolution {n_steps}")
        return np.repeat(np.eye(self.grid_size), n_steps // self.grid_size, axis=1)

    def chaos_from_functionals(self, x: np.ndarray, cov: np.ndarray) -> np.ndarray:
        """Exact multiple integral I_l(F) from the cell increments x (G, n), one value per path.

        F is read as the step function equal to the values at the cell
        centres, and v = x^T holds the coarse-cell increments (covariance
        ``cov`` = 1/G times the identity).  I_l(F) is the Wick-ordered sum of
        F against v:

            l = 1:  v.F
            l = 2:  v.Fv - tr F / G
            l = 3:  sum_abc F_abc v_a v_b v_c - v.p / G,
                    p_c = sum_j (F_jjc + F_jcj + F_cjj).

        These hold for a non-symmetric F too, because I_l(F) = I_l(Sym F).
        Supports orders 1 to 3.
        """
        if not 1 <= self.order <= 3:
            raise ValueError(f"gridded integrals support orders 1 to 3, got {self.order}")
        g, n = x.shape
        if n > _ROW_BLOCK:
            return np.concatenate([self.chaos_from_functionals(x[:, i:i + _ROW_BLOCK], cov)
                                   for i in range(0, n, _ROW_BLOCK)])
        v, fv = x.T, self.values
        if self.order == 1:
            return v @ fv
        if self.order == 2:
            return np.einsum("nb,nb->n", v @ fv, v) - np.trace(fv) / g
        # sum_abc F_abc v_a v_b v_c as one matrix product and two small contractions
        full = np.einsum("nbc,nc->nb", (v @ fv.reshape(g, g * g)).reshape(n, g, g), v)
        full = np.einsum("nb,nb->n", full, v)
        p = np.einsum("jjc->c", fv) + np.einsum("jcj->c", fv) + np.einsum("cjj->c", fv)
        return full - v @ p / g

    @classmethod
    def from_callable(cls, order: int, grid_size: int, f: Callable) -> "GriddedFunction":
        c = midpoints(grid_size)
        grids = np.meshgrid(*([c] * order), indexing="ij", sparse=True)
        values = np.broadcast_to(
            np.asarray(f(*grids), dtype=float), (grid_size,) * order
        ).copy()
        return cls(order, grid_size, values)


@dataclass(frozen=True)
class ChaosExpansion:
    """a + sum_l I_l(f_l)(W) / l!, with at most one component per order l >= 1.

    A component is one of the two integrand forms, a ``GriddedFunction`` or a
    ``mappingzoo.EqualFactorComponent``.  It has an ``order``,
    ``gridded(grid_size)`` (f_l on the G-per-axis midpoint grid) and the one
    owner of its single integrals: ``functional_rows(N)`` gives their weight
    rows A_c (k_c, N), and ``chaos_from_functionals(x, cov)`` I_l(f_l) from
    x = A_c dW (k_c, n) and cov = A_c A_c^T / N.  Components are kept sorted
    by order.
    """

    a: float
    components: tuple

    def __post_init__(self):
        components = tuple(sorted(self.components, key=lambda c: c.order))
        object.__setattr__(self, "components", components)
        orders = self.orders
        if len(set(orders)) != len(orders):
            raise ValueError("at most one component per order")
        if orders and orders[0] < 1:
            raise ValueError("component orders must be >= 1")

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(c.order for c in self.components)

    def component_values(self, order: int, grid_size: int) -> np.ndarray:
        """f_l on the G-per-axis midpoint grid; zero for an order without a component."""
        for c in self.components:
            if c.order == order:
                return c.gridded(grid_size)
        return np.zeros((grid_size,) * order)

    def values(self, increments: np.ndarray) -> np.ndarray:
        """a + sum_l I_l(f_l)(W) / l! for each row of an (n, N) increment matrix."""
        n, n_steps = increments.shape
        return self.values_from_functionals(n, (
            left_point_integrals(c.functional_rows(n_steps), increments)
            for c in self.components))

    def values_from_functionals(self, n: int, parts) -> np.ndarray:
        """``values`` of n paths from each component's (A_c dW, A_c A_c^T / N), in order."""
        values = np.full(n, self.a)
        for c, (x, cov) in zip(self.components, parts):
            values += c.chaos_from_functionals(x, cov) / math.factorial(c.order)
        return values


def chaos_constant(order: int, q: float) -> float:
    """Hypercontractivity constant (q - 1)^(order/2); requires q >= 2."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return float((q - 1.0) ** (order / 2.0))


def l2_inner(g: Callable, g2: Callable, quad_points: int = DEFAULT_QUAD_POINTS) -> float:
    """Composite midpoint quadrature of int_0^1 g g2."""
    if quad_points < 2:
        raise ValueError("quad_points must be >= 2")
    x = midpoints(quad_points)
    return float(np.mean(np.asarray(g(x), dtype=float) * np.asarray(g2(x), dtype=float)))


def _chaos_from_parts(xi: Sequence, gram: np.ndarray):
    """Multiple integral value from single integrals and their covariance matrix.

    ``xi`` entries may be scalars or aligned arrays (vectorized across paths);
    the recursion only uses + and *, so it broadcasts.
    """
    n = len(xi)
    memo: dict[tuple[int, ...], object] = {(): 1.0}

    def rec(indices: tuple[int, ...]):
        if indices in memo:
            return memo[indices]
        *rest_l, last = indices
        rest = tuple(rest_l)
        value = rec(rest) * xi[last]
        for pos, j in enumerate(rest):
            reduced = rest[:pos] + rest[pos + 1 :]
            value = value - gram[j, last] * rec(reduced)
        memo[indices] = value
        return value

    return rec(tuple(range(n)))


def left_points(n_steps: int) -> np.ndarray:
    """Left grid points t_j = j / N, j = 0..N-1, where integrands are evaluated."""
    return np.arange(n_steps) / n_steps


def left_point_integrals(weights: np.ndarray, increments: np.ndarray):
    """xi = A dW^T (k, n) and its exact path-grid covariance A A^T / N (k, k).

    A holds k rows (k, N), or one row (N,), of integrands at the left points;
    the covariance is the pairing term of every Wick product of xi.
    """
    return weights @ increments.T, (weights @ weights.T) / increments.shape[1]


def _functional_factor(weights: np.ndarray) -> np.ndarray:
    """R (r, k), r = min(k, N), of the reduced QR A^T = Q R, so that R^T R = A A^T."""
    return np.linalg.qr(weights.T, mode="r")


def draw_left_point_integrals(weights: np.ndarray, n: int, rng: np.random.Generator):
    """``left_point_integrals`` of n fresh paths, drawn without the paths.

    With A^T = Q R the reduced QR of the weight rows A (k, N), A dW = R^T (Q^T dW),
    and Q^T dW is r = min(k, N) independent N(0, 1/N) normals, since Q has
    orthonormal columns.  So xi = R^T z for z drawn from ``rng`` as one
    (n, r) batch: exact in distribution for any A, rank-deficient or k >= N.
    The covariance returned is A A^T / N, as ``left_point_integrals`` gives.
    """
    n_steps = weights.shape[1]
    r = _functional_factor(weights)
    z = rng.normal(0.0, math.sqrt(1.0 / n_steps), (n, r.shape[0]))
    return r.T @ z.T, (weights @ weights.T) / n_steps


def _left_rows(gs: Sequence[Callable], n_steps: int) -> np.ndarray:
    """The factors g_i at the left points, one row (N,) each."""
    t = left_points(n_steps)
    return np.stack([np.asarray(g(t), dtype=float) for g in gs])


def tensor_chaos_values(gs: Sequence[Callable], increments: np.ndarray) -> np.ndarray:
    """Multiple Wiener integral of the (implicitly symmetrized) product g_1 x ... x g_l.

    One value per increment row: the recursion on the factors' ``left_point_integrals``.
    """
    if len(gs) < 1:
        raise ValueError("need at least one factor")
    rows = _left_rows(gs, increments.shape[1])
    return _chaos_from_parts(*left_point_integrals(rows, increments))


def hermite_from_integral(xi: np.ndarray, norm_sq: float, order: int) -> np.ndarray:
    """||g||^l He_l(xi/||g||) from the single integrals xi = I_1(g) and ||g||^2 = Var xi."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    norm = math.sqrt(norm_sq)
    try:
        scale = norm**order
    except OverflowError:  # a finite norm whose l-th power is not
        scale = math.inf
    if not (norm_sq > 0.0 and scale < math.inf):
        raise ValueError("hermite_chaos requires ||g|| > 0 and ||g||^l finite on the path grid")
    coeffs = np.zeros(order + 1)
    coeffs[order] = 1.0
    return scale * hermite_e.hermeval(xi / norm, coeffs)


def tensor_chaos(gs: Sequence[Callable], path: BrownianPath) -> float:
    """Row 0 of ``tensor_chaos_values`` for a single path."""
    return float(tensor_chaos_values(gs, path.increments[None])[0])


def hermite_chaos(g: Callable, order: int, path: BrownianPath) -> float:
    """I_l(g x ... x g) of a single path: ``hermite_from_integral`` on its I_1(g)."""
    x, cov = left_point_integrals(_left_rows([g], path.grid.n_steps), path.increments[None])
    return float(hermite_from_integral(x[0], cov[0, 0], order)[0])


def brute_multiple_integral(f: GriddedFunction, path: BrownianPath) -> float:
    """I_l(f) of a single path: ``f.chaos_from_functionals`` on its cell increments."""
    x, cov = left_point_integrals(f.functional_rows(path.grid.n_steps), path.increments[None])
    return float(f.chaos_from_functionals(x, cov)[0])


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo moment vs. its theoretical value, with the CLT error bar."""

    empirical: float
    theoretical: float
    mc_stderr: float
    n_mc: int
    seed: int

    def within(self, n_sigma: float = 3.0) -> bool:
        return abs(self.empirical - self.theoretical) <= n_sigma * self.mc_stderr


@dataclass(frozen=True)
class BoundReport:
    """Empirical moment against a theoretical upper bound."""

    empirical: float
    bound: float
    within_bound: bool
    mc_stderr: float
    n_mc: int
    seed: int


MIN_MC_DRAWS = 100
_MC_BATCH = 20_000  # rows per draw: bounds the (rows, N) increment matrix


def monte_carlo_mean(statistic: Callable[[np.ndarray], np.ndarray], n_mc: int, n_steps: int,
                     seed: int, root: float = 1.0) -> tuple[float, float]:
    """(E statistic(dW))^(1/root) over ``n_mc`` paths and its standard error.

    ``statistic`` maps (m, N) increments to m values.  The paths are batches of
    at most ``_MC_BATCH`` rows from one stream, ``default_rng(seed)``, so they
    equal one (n_mc, N) draw.  The stderr std(ddof=1)/sqrt(n_mc) goes through
    the delta method for x -> x^(1/root).
    """
    return _mean_and_stderr(_monte_carlo_values(statistic, n_mc, n_steps, seed), root)


def _monte_carlo_values(statistic, n_mc: int, n_steps: int, seed: int) -> np.ndarray:
    """``statistic`` on the ``n_mc`` paths of ``monte_carlo_mean``, one value per path."""
    if n_mc < MIN_MC_DRAWS:
        raise ValueError(f"n_mc must be >= {MIN_MC_DRAWS}, got {n_mc}")
    grid, rng = TimeGrid(n_steps), np.random.default_rng(seed)
    return np.concatenate([statistic(brownian_increments(grid, min(_MC_BATCH, n_mc - i), rng))
                           for i in range(0, n_mc, _MC_BATCH)])


def _mean_and_stderr(values: np.ndarray, root: float) -> tuple[float, float]:
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    if root != 1.0:
        stderr = stderr / root * mean ** (1.0 / root - 1.0) if mean > 0 else 0.0
        mean = mean ** (1.0 / root)
    return mean, stderr


def _sym_product_inner(gs, gs_prime, n_steps: int) -> float:
    """l! <sym tensor, sym tensor'>_N = permanent of the path-grid cross covariance."""
    cross = _left_rows(gs, n_steps) @ _left_rows(gs_prime, n_steps).T / n_steps
    total = 0.0
    for perm in itertools.permutations(range(len(gs))):
        total += float(np.prod(cross[np.arange(len(gs)), perm]))
    return total


def isometry_report(
    gs: Sequence[Callable],
    gs_prime: Sequence[Callable],
    n_mc: int,
    seed: int,
    n_steps: int = 512,
) -> MomentReport:
    """Monte Carlo estimate of E[I_l I_l'] against the isometry target.

    The target is 0 for distinct orders and otherwise l! times the path-grid
    inner product of the symmetrized tensors, the exact second moment of the
    left-point integrals (for equal-factor tensors, l! <g, g'>_N^l).
    """
    if not gs or not gs_prime:
        raise ValueError("both tensors need at least one factor")
    mean, stderr = monte_carlo_mean(
        lambda dw: tensor_chaos_values(gs, dw) * tensor_chaos_values(gs_prime, dw),
        n_mc, n_steps, seed)
    if len(gs) != len(gs_prime):
        theoretical = 0.0
    else:
        theoretical = _sym_product_inner(gs, gs_prime, n_steps)
    return MomentReport(mean, theoretical, stderr, n_mc, seed)


def moment_bound_reports(
    order: int,
    h: float,
    rs: Sequence[int],
    n_mc: int,
    seed: int,
    kernel: MomentKernel,
    t: Sequence[float] | None = None,
    n_steps: int = 512,
) -> tuple[BoundReport, ...]:
    """Check (E xi^2r)^(1/r) <= c_l^2(2r) 2^l l! ||k||^2l h^-l at an interior point.

    xi is the multiple integral of K_h(t, .) for a fixed t whose coordinates
    must lie in [h, 1-h]; the default is t = (0.45, ..., 0.45).  One report
    per r in ``rs``, all from the same ``n_mc`` draws of xi.
    """
    if not 0.0 < h < 1.0:
        raise ValueError("h must lie in (0, 1)")
    if t is None:
        t = [0.45] * order
    t = np.asarray(t, dtype=float)
    if np.any(t < h) or np.any(t > 1.0 - h):
        raise ValueError("t must be interior: all coordinates in [h, 1-h]")
    # the slice factorization of K_h(t, .), the integrand of the xi variates
    rows = slice_matrix(kernel, t, h, left_points(n_steps))
    xi = _monte_carlo_values(lambda dw: _chaos_from_parts(*left_point_integrals(rows, dw)),
                             n_mc, n_steps, seed)
    reports = []
    for r in rs:
        empirical, stderr = _mean_and_stderr(xi ** (2 * r), root=r)
        b_lr = chaos_constant(order, 2 * r) ** 2 * 2.0**order
        b_lr *= float(math.factorial(order)) * kernel.l2_norm ** (2 * order)
        bound = b_lr * h ** (-order)
        reports.append(BoundReport(empirical, bound, empirical <= bound, stderr, n_mc, seed))
    return tuple(reports)


def moment_bound_report(order: int, h: float, r: int, n_mc: int, seed: int,
                        kernel: MomentKernel, t: Sequence[float] | None = None,
                        n_steps: int = 512) -> BoundReport:
    """The ``moment_bound_reports`` entry of a single r."""
    return moment_bound_reports(order, h, (r,), n_mc, seed, kernel, t, n_steps)[0]
