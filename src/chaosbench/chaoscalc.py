"""Multiple Wiener integrals against discretized Brownian paths.

``left_point_integrals`` alone decides the Ito correction: it returns the
single integrals xi = A dW^T of weight rows A (k, N), taken at the left points
t_j = j / N, with their exact path-grid covariance A A^T / N, on which every
multiple integral below pairs.  ``block_left_point_integrals`` returns the
same pairs for several A in one pass over row blocks of the increments, so a
sample's paths need never be held whole.  ``draw_from_factor`` returns the
same pair for n fresh paths without building them, from A's
``left_point_factor``: A dW = R^T (Q^T dW) for the reduced QR A^T = Q R, and
Q^T dW is r = min(k, N) independent N(0, 1/N) normals.  Rows C needed only
through sum_i y_i C dW_i, for responses y that depend on the paths through
A dW alone, are drawn as that one sum per batch.  ``stack_rows`` stacks the
distinct row blocks of several owners for one draw, with each owner's slice
of the stack.  Each
expansion component owns its single integrals: its ``functional_rows(N)``
are the weight rows A, and its ``chaos_from_functionals`` evaluates I_l(f_l)
from (xi, A A^T / N), whether xi came from paths or from a draw:

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
  of a gridded integrand read as a step function on G cells, at any order:
  the Wick sum of the tabulated values against the coarse-cell increments,
  the functionals of its cell indicator rows, paired on the ``cov`` it is
  given.  Tabulating a smooth integrand on finer grids approaches its
  integral, so it is the oracle for the recursion.

``tensor_chaos``, ``hermite_chaos`` and ``brute_multiple_integral`` take one
``BrownianPath``: the first evaluates row 0 of ``tensor_chaos_values``, the
other two run the equal-factor and the gridded evaluator on the path's
single integrals.

``ChaosExpansion`` is a + sum_l I_l(f_l)(W) / l!, the one type of truths and
fitted models; ``ChaosExpansion.values`` evaluates both, and ``path_grid_inner``
pairs two components on the path grid through ``project``, as the fit's mean does.

``l2_inner``, a continuum quadrature, serves only the class-check norms.
``monte_carlo_mean``, the one Monte Carlo estimator, draws only the functionals
its statistic reads, never a path.  It serves the validators of the Ito
isometry, orthogonality of distinct orders, hypercontractive moment growth and
the second-moment bound (E xi^2r)^(1/r) <= c_l^2(2r) 2^l l! ||k||^2l h^-l (several
moments of one draw in ``moment_bound_reports``), and the Monte Carlo risk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import hermite_e

from ._util import DEFAULT_QUAD_POINTS, midpoints
from .kernelkit import MomentKernel, slice_matrix
from .pathlab import BrownianPath, block_rows

# the largest (rows, G^(l-1)) temporary of a gridded integral's row block, in
# float64 entries: 512 rows of an order-3 surface on G = 64
_BLOCK_ENTRIES = 2**21


def _matchings(axes: tuple) -> list:
    """Every partial matching of ``axes``, each a tuple of disjoint pairs."""
    if len(axes) < 2:
        return [()]
    first, rest = axes[0], axes[1:]
    return _matchings(rest) + [((first, b),) + m for i, b in enumerate(rest)
                               for m in _matchings(rest[:i] + rest[i + 1:])]


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
        """Whether swapping any two adjacent axes moves no value by more than ``tol``.

        The l - 1 adjacent transpositions generate every axis permutation, so
        ``tol`` bounds each generator; a permutation composed of k of them can
        move a value by up to k ``tol``.
        """
        for axis in range(self.order - 1):
            if np.max(np.abs(self.values - np.swapaxes(self.values, axis, axis + 1))) > tol:
                return False
        return True

    @property
    def coefficients(self) -> np.ndarray:
        """Its coefficient tensor on its functional rows: the tabulated values."""
        return self.values

    def functional_rows(self, n_steps: int) -> np.ndarray:
        """Cell indicators (G, N): row c sums the path increments of cell c."""
        if n_steps % self.grid_size != 0:
            raise ValueError(
                f"grid_size {self.grid_size} does not divide path resolution {n_steps}")
        return np.repeat(np.eye(self.grid_size), n_steps // self.grid_size, axis=1)

    def chaos_from_functionals(self, x: np.ndarray, cov: np.ndarray) -> np.ndarray:
        """Exact multiple integral I_l(F) from the cell increments x (G, n), one value per path.

        F is the step function equal to the values at the cell centres.  With
        v = x^T and ``cov`` the covariance of x, used as given at any order,

            I_l(F)(v) = sum_M (-1)^|M| <Tr_M F, v^(x (l - 2|M|))>

        over the partial matchings M of F's axes, where Tr_M contracts each
        matched pair of axes with ``cov``.  It holds for a non-symmetric F too.
        """
        g, n = x.shape
        rows = max(1, _BLOCK_ENTRIES * g // self.values.size)
        if n > rows:
            return np.concatenate([self.chaos_from_functionals(x[:, i:i + rows], cov)
                                   for i in range(0, n, rows)])
        axes, v, total = list(range(self.order)), x.T, np.zeros(n)
        for pairs in _matchings(tuple(axes)):
            rest = [a for a in axes if all(a not in p for p in pairs)]
            w = np.einsum(self.values, axes,  # Tr_M F, a view of F for the empty M
                          *itertools.chain(*((cov, list(p)) for p in pairs)), rest)
            if rest:  # <Tr_M F, v^(x k)>: the leading axis, then the trailing ones
                w = v @ w.reshape(g, -1)
                for _ in rest[1:]:
                    w = np.einsum("nji,ni->nj", w.reshape(n, -1, g), v)
                w = w[:, 0]
            total += (-1) ** len(pairs) * w
        return total

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
    ``mappingzoo.EqualFactorComponent``.  It has an ``order`` and owns its
    single integrals: ``functional_rows(N)`` gives their weight rows A_c
    (k_c, N), ``coefficients`` the tensor C_c (k_c,)^l of f_l on them, and
    ``chaos_from_functionals(x, cov)`` I_l(f_l) from x = A_c dW (k_c, n) and
    cov = A_c A_c^T / N.  Components are kept sorted by order.
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


def project(component, own_rows: np.ndarray, rows: np.ndarray, n_steps: int) -> np.ndarray:
    """C_c contracted on each axis with B A_c^T / N, A_c = ``own_rows``: (k,)^l for B (k, N)."""
    proj = rows @ own_rows.T / n_steps
    values = component.coefficients
    for _ in range(component.order):  # each pass contracts the leading axis
        values = np.tensordot(values, proj, axes=(0, 1))
    return values


def path_grid_inner(c, c_rows: np.ndarray, c2, c2_rows: np.ndarray, n_steps: int) -> float:
    """<f_l, f'_l>_N = (1/N^l) sum_j f_l(t_j) f'_l(t_j) over the left-point tuples j.

    Two equal-factor components (with a ``scale``) give scale scale' <g, g'>_N^l, no tensor.
    Two gridded ones on one grid give sum f f' / G^l: their cell rows A, with G
    dividing N, have A A^T / N = I / G.
    """
    if hasattr(c, "scale") and hasattr(c2, "scale"):
        return float(c.scale * c2.scale * (c_rows[0] @ c2_rows[0] / n_steps) ** c.order)
    if (isinstance(c, GriddedFunction) and isinstance(c2, GriddedFunction)
            and c.grid_size == c2.grid_size):
        return float(np.sum(c.values * c2.values)) / c.grid_size**c.order
    if len(c_rows) > len(c2_rows):  # project the one with more rows on the other's
        c, c_rows, c2, c2_rows = c2, c2_rows, c, c_rows
    return float(np.sum(c.coefficients * project(c2, c2_rows, c_rows, n_steps)))


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


def block_left_point_integrals(weights: Sequence[np.ndarray], blocks: Iterable[np.ndarray],
                               n: int) -> list:
    """``left_point_integrals`` of each weight matrix on n paths, in one pass over row blocks.

    ``blocks`` are consecutive row blocks of the (n, N) increments, each read
    once (``pathlab.increment_blocks``).  Each x (k, n) is filled block by
    block, by its own (k, N) @ (N, rows) product, so it does not depend on
    which other weights share the pass.
    """
    xs = [np.empty((len(w), n)) for w in weights]
    lo = 0
    for block in blocks:
        for w, x in zip(weights, xs):
            x[:, lo:lo + len(block)] = w @ block.T
        lo += len(block)
    if lo != n:
        raise ValueError(f"the blocks hold {lo} rows, not {n}")
    return [(x, (w @ w.T) / w.shape[1]) for w, x in zip(weights, xs)]


def _functional_factor(weights: np.ndarray) -> np.ndarray:
    """R (r, k), r = min(k, N), of the reduced QR A^T = Q R, so that R^T R = A A^T."""
    return np.linalg.qr(weights.T, mode="r")


def left_point_factor(weights: np.ndarray, summed: np.ndarray):
    """What ``draw_from_factor`` needs of [A; C] for any n: (R of [A; C]^T, k, N, A A^T / N)."""
    n_steps = weights.shape[1]
    return (_functional_factor(np.concatenate([weights, summed])), len(weights), n_steps,
            (weights @ weights.T) / n_steps)


def draw_from_factor(factor, n: int, rng: np.random.Generator):
    """``left_point_integrals`` of n fresh paths, and response-weighted sums, without the paths.

    ``factor`` is the ``left_point_factor`` of the per-pair rows A (k, N) over
    the summed rows C (k_C, N): [A; C]^T = Q R, r = min(k + k_C, N).  Split after
    r_A = min(k, N) columns, Q = [Q_A Q_perp], and R_A = R[:r_A, :k] is the
    factor of A^T alone, R[:r_A, k:]^T = C Q_A, and R_perp = R[r_A:, k:] is
    the factor of C - C Q_A Q_A^T, the part of C orthogonal to A's rows.
    (a, b) = Q^T dW are r independent N(0, 1/N) normals, since Q has
    orthonormal columns, so A dW = R_A^T a and C dW = R[:r_A, k:]^T a + R_perp^T b.
    For responses y that depend on the pairs only through A dW and on noise
    independent of the paths, b^T y given (a, y) is ||y|| z with z r - r_A
    independent N(0, 1/N) normals.  ``rng`` gives a as one (n, r_A) batch,
    then z.  Returns

    * xi = R_A^T a (k, n), A dW for each pair;
    * its covariance A A^T / N, as ``left_point_integrals`` gives;
    * the map y -> sum_i y_i C dW_i = R[:r_A, k:]^T (a^T y) + ||y|| R_perp^T z (k_C,).

    Exact in distribution for any rows, rank-deficient or k >= N.  Without
    summed rows z is empty, and xi is R^T a for the factor of A alone.
    """
    r, k, n_steps, cov = factor
    r_a = min(k, n_steps)
    sd = math.sqrt(1.0 / n_steps)
    a = rng.normal(0.0, sd, (n, r_a))
    z = rng.normal(0.0, sd, len(r) - r_a)
    cross, perp = r[:r_a, k:], r[r_a:, k:]
    return (r[:r_a, :k].T @ a.T, cov,
            lambda y: cross.T @ (a.T @ y) + math.sqrt(y @ y) * (perp.T @ z))


def stack_rows(blocks: Sequence[np.ndarray], n_steps: int) -> tuple[np.ndarray, list]:
    """The distinct row blocks (k_b, N) stacked in order, and each block's slice of the stack.

    Equal blocks share one slice, so the functionals drawn for them are the
    same bits.  Without blocks the stack is (0, N).
    """
    keys = [(b.shape, b.tobytes()) for b in blocks]
    distinct = dict(zip(keys, blocks))
    edges = np.cumsum([0] + [len(b) for b in distinct.values()])
    where = dict(zip(distinct, map(slice, edges[:-1], edges[1:])))
    stack = np.concatenate([np.empty((0, n_steps)), *distinct.values()])
    return stack, [where[key] for key in keys]


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


def monte_carlo_mean(weights: np.ndarray, statistic: Callable, n_mc: int, seed: int,
                     root: float = 1.0) -> tuple[float, float]:
    """(E statistic(xi, cov))^(1/root) over ``n_mc`` fresh paths and its standard error.

    ``statistic`` maps xi = A dW (k, m) for A = ``weights`` (k, N), drawn by
    ``draw_from_factor`` from ``default_rng(seed)`` in blocks of
    ``pathlab.block_rows(min(k, N))`` draws that equal one batch, and A A^T / N
    to m values.  The stderr std(ddof=1)/sqrt(n_mc) goes through the delta
    method for x -> x^(1/root).
    """
    return _mean_and_stderr(_monte_carlo_values(weights, statistic, n_mc, seed), root)


def _monte_carlo_values(weights, statistic, n_mc: int, seed: int) -> np.ndarray:
    """``statistic`` on the ``n_mc`` draws of ``monte_carlo_mean``, one value per draw."""
    if n_mc < MIN_MC_DRAWS:
        raise ValueError(f"n_mc must be >= {MIN_MC_DRAWS}, got {n_mc}")
    factor, rng = left_point_factor(weights, weights[:0]), np.random.default_rng(seed)
    rows = block_rows(len(factor[0]))
    return np.concatenate([statistic(*draw_from_factor(factor, min(rows, n_mc - lo), rng)[:2])
                           for lo in range(0, n_mc, rows)])


def _mean_and_stderr(values: np.ndarray, root: float) -> tuple[float, float]:
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    if root != 1.0:
        stderr = stderr / root * mean ** (1.0 / root - 1.0) if mean > 0 else 0.0
        mean = mean ** (1.0 / root)
    return mean, stderr


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
    left-point integrals (for equal-factor tensors, l! <g, g'>_N^l): the
    permanent of the cross covariance of the factors' single integrals.
    """
    if not gs or not gs_prime:
        raise ValueError("both tensors need at least one factor")
    k, rows = len(gs), _left_rows([*gs, *gs_prime], n_steps)
    mean, stderr = monte_carlo_mean(
        rows, lambda xi, cov: (_chaos_from_parts(xi[:k], cov[:k, :k])
                               * _chaos_from_parts(xi[k:], cov[k:, k:])), n_mc, seed)
    theoretical = 0.0
    if len(gs) == len(gs_prime):
        cross = rows[:k] @ rows[k:].T / n_steps
        theoretical = sum(float(np.prod(cross[np.arange(k), perm]))
                          for perm in itertools.permutations(range(k)))
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
    xi = _monte_carlo_values(rows, _chaos_from_parts, n_mc, seed)
    reports = []
    for r in rs:
        empirical, stderr = _mean_and_stderr(xi ** (2 * r), root=r)
        b_lr = chaos_constant(order, 2 * r) ** 2 * 2.0**order
        b_lr *= float(math.factorial(order)) * kernel.l2_norm ** (2 * order)
        bound = b_lr * h ** (-order)
        reports.append(BoundReport(empirical, bound, empirical <= bound, stderr, n_mc, seed))
    return tuple(reports)
