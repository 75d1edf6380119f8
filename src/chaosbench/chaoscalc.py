"""Multiple Wiener integrals against discretized Brownian paths.

Each integrand form has one evaluator; it takes an (n, N) matrix of path
increments and returns one value per path (row):

* ``tensor_chaos_values`` reduces a product integrand to single Ito
  integrals and L2 inner products through the product-formula recursion

      I_{p+1}(g_1 x ... x g_{p+1})
          = I_p(g_1 x ... x g_p) I_1(g_{p+1})
            - sum_{j<=p} <g_j, g_{p+1}> I_{p-1}(x_{i!=j} g_i),

  with I_0 = 1.

* ``hermite_chaos_values`` is the equal-factor case of the recursion, the
  Hermite identity I_l(g x ... x g) = ||g||^l He_l(I_1(g)/||g||).

* ``gridded_chaos_values`` sums a gridded integrand over multi-indices with
  pairwise-distinct coordinates against coarse-cell increments.  It is the
  off-diagonal Riemann discretization and the oracle for the recursion.

``tensor_chaos``, ``hermite_chaos`` and ``brute_multiple_integral`` take one
``BrownianPath`` and evaluate row 0 of the matching batch.

Monte Carlo validators check the Ito isometry, orthogonality of distinct
orders, hypercontractive moment growth, and the second-moment bound
(E xi^2r)^(1/r) <= c_l^2(2r) 2^l l! ||k||^2l h^-l for the estimator kernel.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import hermite_e

from ._util import DEFAULT_QUAD_POINTS, midpoints
from .errors import AlignmentError, DegenerateIntegrandError, UnsupportedOrderError
from .kernelkit import BandwidthedKernel, MomentKernel, kernel_slices
from .pathlab import BrownianPath


@dataclass(frozen=True)
class GriddedFunction:
    """A function on [0,1]^dim tabulated at the midpoint grid, G points per axis."""

    dim: int
    grid_size: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if values.shape != (self.grid_size,) * self.dim:
            raise ValueError(
                f"values must have shape {(self.grid_size,) * self.dim}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")

    @property
    def centers(self) -> np.ndarray:
        return midpoints(self.grid_size)

    def l2_norm_sq(self) -> float:
        """Midpoint tensor quadrature of the squared function (weight G^-dim)."""
        return float(np.mean(self.values**2))

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        for perm in itertools.permutations(range(self.dim)):
            if np.max(np.abs(self.values - np.transpose(self.values, perm))) > tol:
                return False
        return True

    @classmethod
    def from_callable(cls, dim: int, grid_size: int, f: Callable) -> "GriddedFunction":
        c = midpoints(grid_size)
        grids = np.meshgrid(*([c] * dim), indexing="ij", sparse=True)
        values = np.broadcast_to(
            np.asarray(f(*grids), dtype=float), (grid_size,) * dim
        ).copy()
        return cls(dim, grid_size, values)


def chaos_constant(order: int, q: float) -> float:
    """Hypercontractivity constant (q - 1)^(order/2); requires q >= 2."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return float((q - 1.0) ** (order / 2.0))


def ito_integral_1(g: Callable, path: BrownianPath) -> float:
    """Left-point Ito sum sum_j g(t_j) (W_{j+1} - W_j)."""
    t_left = path.grid.points[:-1]
    return float(np.dot(np.asarray(g(t_left), dtype=float), path.increments))


def l2_inner(g: Callable, g2: Callable, quad_points: int = DEFAULT_QUAD_POINTS) -> float:
    """Composite midpoint quadrature of int_0^1 g g2."""
    if quad_points < 2:
        raise ValueError("quad_points must be >= 2")
    x = midpoints(quad_points)
    return float(np.mean(np.asarray(g(x), dtype=float) * np.asarray(g2(x), dtype=float)))


def _chaos_from_parts(xi: Sequence, gram: np.ndarray):
    """Multiple integral value from single integrals and the inner-product matrix.

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


def tensor_chaos_values(
    gs: Sequence[Callable], increments: np.ndarray, quad_points: int = DEFAULT_QUAD_POINTS
) -> np.ndarray:
    """Multiple Wiener integral of the (implicitly symmetrized) product g_1 x ... x g_l.

    One value per row of the (n, N) increment matrix, built from single Ito
    integrals and pairwise inner products only, via the product-formula
    recursion.
    """
    if len(gs) < 1:
        raise ValueError("need at least one factor")
    t_left = np.arange(increments.shape[1]) / increments.shape[1]
    g_at_left = np.stack([np.asarray(g(t_left), dtype=float) for g in gs])
    xi = g_at_left @ increments.T  # (len(gs), n)
    gram = np.array([[l2_inner(g, g2, quad_points) for g2 in gs] for g in gs])
    return np.asarray(_chaos_from_parts(list(xi), gram))


def hermite_chaos_values(
    g: Callable, order: int, increments: np.ndarray, quad_points: int = DEFAULT_QUAD_POINTS
) -> np.ndarray:
    """Equal-factor form ||g||^l He_l(I_1(g)/||g||) per row, He_l probabilists' Hermite."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    norm_sq = l2_inner(g, g, quad_points)
    if norm_sq <= 0.0:
        raise DegenerateIntegrandError("hermite_chaos requires ||g|| > 0")
    norm = math.sqrt(norm_sq)
    t_left = np.arange(increments.shape[1]) / increments.shape[1]
    xi = increments @ np.asarray(g(t_left), dtype=float)
    coeffs = np.zeros(order + 1)
    coeffs[order] = 1.0
    return norm**order * hermite_e.hermeval(xi / norm, coeffs)


_ROW_BLOCK = 512  # rows per block: bounds the (rows, G^2) order-3 temporary


def gridded_chaos_values(f: GriddedFunction, increments: np.ndarray) -> np.ndarray:
    """Off-diagonal Riemann-Ito sum of the gridded integrand per increment row.

    Sums f at cell centers times products of coarse-cell increments (cell
    sums of the fine increments) over multi-indices with pairwise-distinct
    coordinates.  Supports dim <= 3; exact diagonals are excluded and no
    Ito-correction terms are added.
    """
    if f.dim > 3:
        raise UnsupportedOrderError(f"gridded integrals support order <= 3, got {f.dim}")
    n, n_steps = increments.shape
    g = f.grid_size
    if n_steps % g != 0:
        raise AlignmentError(f"grid_size {g} does not divide path resolution {n_steps}")
    if n > _ROW_BLOCK:
        return np.concatenate([gridded_chaos_values(f, increments[i:i + _ROW_BLOCK])
                               for i in range(0, n, _ROW_BLOCK)])
    v = increments.reshape(n, g, n_steps // g).sum(axis=2)
    fv = f.values
    if f.dim == 1:
        return v @ fv
    v2 = v**2
    if f.dim == 2:
        return np.einsum("nb,nb->n", v @ fv, v) - v2 @ np.diagonal(fv)
    # sum_abc f_abc v_a v_b v_c as one matrix product and two small contractions
    full = np.einsum("nbc,nc->nb", (v @ fv.reshape(g, g * g)).reshape(n, g, g), v)
    full = np.einsum("nb,nb->n", full, v)
    pairs = np.einsum("jjk->jk", fv) + np.einsum("jkj->jk", fv) + np.einsum("kjj->jk", fv)
    triple = (v2 * v) @ np.einsum("jjj->j", fv)
    return full - np.einsum("nk,nk->n", v2 @ pairs, v) + 2.0 * triple


def tensor_chaos(
    gs: Sequence[Callable], path: BrownianPath, quad_points: int = DEFAULT_QUAD_POINTS
) -> float:
    """Row 0 of ``tensor_chaos_values`` for a single path."""
    return float(tensor_chaos_values(gs, path.increments[None], quad_points)[0])


def hermite_chaos(
    g: Callable, order: int, path: BrownianPath, quad_points: int = DEFAULT_QUAD_POINTS
) -> float:
    """Row 0 of ``hermite_chaos_values`` for a single path."""
    return float(hermite_chaos_values(g, order, path.increments[None], quad_points)[0])


def brute_multiple_integral(f: GriddedFunction, path: BrownianPath) -> float:
    """Row 0 of ``gridded_chaos_values`` for a single path."""
    return float(gridded_chaos_values(f, path.increments[None])[0])


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "empirical": self.empirical,
                "theoretical": self.theoretical,
                "mc_stderr": self.mc_stderr,
                "n_mc": self.n_mc,
                "seed": self.seed,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class BoundReport:
    """Empirical moment against a theoretical upper bound."""

    empirical: float
    bound: float
    within_bound: bool
    mc_stderr: float
    n_mc: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "empirical": self.empirical,
                "theoretical": self.bound,
                "within_bound": self.within_bound,
                "mc_stderr": self.mc_stderr,
                "n_mc": self.n_mc,
                "seed": self.seed,
            },
            sort_keys=True,
        )


_MC_BATCH = 20_000


def _increment_batches(n_mc: int, n_steps: int, seed: int, batch: int = _MC_BATCH):
    """Batched N(0, 1/N) increment matrices from one seeded generator."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    remaining = n_mc
    scale = np.sqrt(1.0 / n_steps)
    while remaining > 0:
        size = min(batch, remaining)
        yield rng.normal(0.0, scale, (size, n_steps))
        remaining -= size


def _sym_product_inner(gs, gs_prime, quad_points: int) -> float:
    """l! <sym tensor, sym tensor'> = permanent of the cross inner-product matrix."""
    cross = np.array([[l2_inner(g, gp, quad_points) for gp in gs_prime] for g in gs])
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
    quad_points: int = DEFAULT_QUAD_POINTS,
) -> MomentReport:
    """Monte Carlo estimate of E[I_l I_l'] against the isometry target.

    The target is 0 for distinct orders and l! times the inner product of the
    symmetrized tensors otherwise (for equal-factor tensors, l! <g, g'>^l).
    """
    if n_mc < 100:
        raise ValueError("n_mc must be >= 100")
    if not gs or not gs_prime:
        raise ValueError("both tensors need at least one factor")
    total = 0.0
    total_sq = 0.0
    for dw in _increment_batches(n_mc, n_steps, seed):
        a = tensor_chaos_values(gs, dw, quad_points)
        b = tensor_chaos_values(gs_prime, dw, quad_points)
        prod = a * b
        total += float(np.sum(prod))
        total_sq += float(np.sum(prod**2))
    mean = total / n_mc
    var = max(total_sq / n_mc - mean**2, 0.0)
    stderr = float(np.sqrt(var / n_mc))
    if len(gs) != len(gs_prime):
        theoretical = 0.0
    else:
        theoretical = _sym_product_inner(gs, gs_prime, quad_points)
    return MomentReport(mean, theoretical, stderr, n_mc, seed)


def estimator_kernel_variate(
    kernel: MomentKernel, order: int, h: float, t: Sequence[float]
) -> list:
    """The slice factorization of K_h(t, .), the integrand of the xi variates."""
    return kernel_slices(BandwidthedKernel(kernel, h, order), t)


def moment_bound_report(
    order: int,
    h: float,
    r: int,
    n_mc: int,
    seed: int,
    kernel: MomentKernel,
    t: Sequence[float] | None = None,
    n_steps: int = 512,
    quad_points: int = DEFAULT_QUAD_POINTS,
) -> BoundReport:
    """Check (E xi^2r)^(1/r) <= c_l^2(2r) 2^l l! ||k||^2l h^-l at an interior point.

    xi is the multiple integral of K_h(t, .) for a fixed t whose coordinates
    must lie in [h, 1-h]; the default is t = (0.45, ..., 0.45).
    """
    if not 0.0 < h < 1.0:
        raise ValueError("h must lie in (0, 1)")
    if t is None:
        t = [0.45] * order
    t = np.asarray(t, dtype=float)
    if np.any(t < h) or np.any(t > 1.0 - h):
        raise ValueError("t must be interior: all coordinates in [h, 1-h]")
    gs = estimator_kernel_variate(kernel, order, h, t)
    total = 0.0
    total_sq = 0.0
    for dw in _increment_batches(n_mc, n_steps, seed):
        xi = tensor_chaos_values(gs, dw, quad_points)
        powed = xi ** (2 * r)
        total += float(np.sum(powed))
        total_sq += float(np.sum(powed**2))
    mean = total / n_mc
    var = max(total_sq / n_mc - mean**2, 0.0)
    # delta method for x -> x^(1/r)
    stderr_mean = np.sqrt(var / n_mc)
    empirical = mean ** (1.0 / r)
    stderr = float(stderr_mean / r * mean ** (1.0 / r - 1.0)) if mean > 0 else 0.0
    b_lr = chaos_constant(order, 2 * r) ** 2 * 2.0**order
    b_lr *= float(math.factorial(order)) * kernel.l2_norm ** (2 * order)
    bound = b_lr * h ** (-order)
    return BoundReport(empirical, bound, empirical <= bound, stderr, n_mc, seed)
