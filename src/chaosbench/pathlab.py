"""Brownian paths, diffusion covariates, and coprocess reconstruction.

Paths live on a uniform grid of [0, 1].  Diffusions are driven by a given
Brownian path; geometric Brownian motion uses its exact pathwise solution
while Ornstein-Uhlenbeck and generic diffusions use Euler-Maruyama with
left-point increments.  ``reconstruct_coprocess`` inverts a diffusion path
back into the driving Brownian path.

Many paths are read in row blocks of ``BLOCK_ENTRIES`` float64 entries
(``path_blocks``), from a path matrix or drawn from a seed
(``BrownianPaths``), so that fits and synthesis reduce their paths without
holding an (n, N) matrix of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = 1 with spacing 1/N."""

    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) / self.n_steps


@dataclass(frozen=True)
class BrownianPath:
    """A sampled Wiener path: levels at the grid points, starting at 0."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_steps + 1,):
            raise ValueError(
                f"values must have length {self.grid.n_steps + 1}, got {values.shape}"
            )
        if values[0] != 0.0:
            raise ValueError("a Brownian path must start at 0")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values)


@dataclass(frozen=True)
class OrnsteinUhlenbeck:
    """Mean-reverting diffusion dX = -theta (X - mu) dt + sigma dW."""

    theta: float
    mu: float
    sigma: float
    x0: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class GeometricBM:
    """Geometric Brownian motion dX = X (mu dt + sigma dW), X_0 = x0 > 0."""

    mu: float
    sigma: float
    x0: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.x0 <= 0:
            raise ValueError("GBM requires x0 > 0")


@dataclass(frozen=True)
class GenericDiffusion:
    """dX = b(t, X) dt + sigma(t, X) dW with user-supplied coefficients."""

    drift: Callable[[float, float], float]
    diffusion: Callable[[float, float], float]
    x0: float


DiffusionSpec = Union[OrnsteinUhlenbeck, GeometricBM, GenericDiffusion]


@dataclass(frozen=True)
class DiffusionPath:
    """A simulated diffusion path together with the spec that produced it."""

    grid: TimeGrid
    values: np.ndarray
    spec: DiffusionSpec = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_steps + 1,):
            raise ValueError(
                f"values must have length {self.grid.n_steps + 1}, got {values.shape}"
            )
        if values[0] != self.spec.x0:
            raise ValueError(f"path must start at x0 = {self.spec.x0}, got {values[0]}")


def make_grid(n_steps: int) -> TimeGrid:
    """Uniform grid of [0, 1] with ``n_steps`` intervals (n_steps >= 1)."""
    return TimeGrid(int(n_steps))


def brownian_increments(grid: TimeGrid, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, N) independent N(0, 1/N) increments, drawn row-major from ``rng`` in one call.

    Successive calls continue the stream: k rows then m rows equal one k + m call.
    """
    return rng.normal(0.0, np.sqrt(grid.dt), (n, grid.n_steps))


# The float64 entries of one row block: 256 paths at N = 512.  Fits and
# synthesis read paths, and Monte Carlo draws functionals, one block at a
# time; a constant, so the blocks, and every output, are the same at any
# number of workers.
BLOCK_ENTRIES = 2**17


def block_rows(width: int) -> int:
    """Rows of one block (at least 1) of paths of ``width`` steps, or draws of ``width`` normals."""
    return max(1, BLOCK_ENTRIES // max(1, width))


@dataclass(frozen=True)
class BrownianPaths:
    """The paths ``sample_brownian_paths(grid, n, seed)``, held as their seed.

    ``path_blocks`` draws them one row block at a time whenever they are read.
    """

    grid: TimeGrid
    n: int
    seed: int


def path_blocks(paths: Union[np.ndarray, BrownianPaths]) -> Iterator[np.ndarray]:
    """Consecutive (rows, N+1) row blocks of an (n, N+1) path matrix or of ``BrownianPaths``.

    Blocks hold ``block_rows(N)`` rows (the last one the rest).  A drawn block
    is 0 followed by the cumulative sum of its rows of
    ``brownian_increments(grid, n, default_rng(seed))``, drawn in turn from
    one stream, so it is its rows of ``sample_brownian_paths``, bit for bit.
    """
    if isinstance(paths, BrownianPaths):
        grid, n, rng = paths.grid, paths.n, np.random.default_rng(paths.seed)
        rows = block_rows(grid.n_steps)
        return (_levels(brownian_increments(grid, min(rows, n - lo), rng))
                for lo in range(0, n, rows))
    rows = block_rows(paths.shape[1] - 1)
    return (paths[lo:lo + rows] for lo in range(0, len(paths), rows))


def increment_blocks(paths: Union[np.ndarray, BrownianPaths]) -> Iterator[np.ndarray]:
    """The (rows, N) ``np.diff`` of each of ``path_blocks(paths)``.

    Row for row these are ``np.diff`` of the whole path matrix, whether the
    paths were drawn or read from a matrix.
    """
    return (np.diff(block, axis=1) for block in path_blocks(paths))


def _levels(dw: np.ndarray) -> np.ndarray:
    """Paths (rows, N+1) from their increments: 0, then the cumulative sum of each row."""
    values = np.empty((len(dw), dw.shape[1] + 1))
    values[:, 0] = 0.0
    np.cumsum(dw, axis=1, out=values[:, 1:])
    return values


def sample_brownian_paths(grid: TimeGrid, n: int, seed: int) -> np.ndarray:
    """Sample ``n`` standard Brownian paths on ``grid`` as an (n, N+1) array.

    Row i is 0 followed by the cumulative sum of row i of
    ``brownian_increments(grid, n, numpy.random.default_rng(seed))``; the
    matrix is filled from ``path_blocks(BrownianPaths(grid, n, seed))``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values = np.empty((n, grid.n_steps + 1))
    lo = 0
    for block in path_blocks(BrownianPaths(grid, n, seed)):
        values[lo:lo + len(block)] = block
        lo += len(block)
    return values


def sample_brownian(grid: TimeGrid, seed: int) -> BrownianPath:
    """Sample a standard Brownian path on ``grid``, deterministic given ``seed``.

    The path is row 0 of :func:`sample_brownian_paths` at the same seed: its
    increments are the first N draws of ``numpy.random.default_rng(seed)``.
    """
    return BrownianPath(grid, sample_brownian_paths(grid, 1, seed)[0])


def simulate_diffusion(spec: DiffusionSpec, w: BrownianPath) -> DiffusionPath:
    """Simulate the diffusion driven by the Brownian path ``w``.

    GBM uses the exact solution x0 * exp((mu - sigma^2/2) t + sigma W_t);
    OU and generic specs use Euler-Maruyama with left-point increments.
    """
    grid = w.grid
    if isinstance(spec, GeometricBM):
        t = grid.points
        values = spec.x0 * np.exp((spec.mu - 0.5 * spec.sigma**2) * t + spec.sigma * w.values)
        return DiffusionPath(grid, values, spec)
    if isinstance(spec, OrnsteinUhlenbeck):
        drift = lambda t, x: -spec.theta * (x - spec.mu)  # noqa: E731
        diffusion = lambda t, x: spec.sigma  # noqa: E731
        values = _euler_maruyama(drift, diffusion, spec.x0, grid, w.increments)
        return DiffusionPath(grid, values, spec)
    if isinstance(spec, GenericDiffusion):
        values = _euler_maruyama(spec.drift, spec.diffusion, spec.x0, grid, w.increments)
        return DiffusionPath(grid, values, spec)
    raise TypeError(f"unknown diffusion spec {type(spec).__name__}")


def _euler_maruyama(drift, diffusion, x0, grid: TimeGrid, dw):
    dt = grid.dt
    n = grid.n_steps
    increments = dw.tolist()
    values = np.empty(n + 1)
    x = float(x0)
    values[0] = x
    t = 0.0
    for j in range(n):
        s = diffusion(t, x)
        if s <= 0.0:
            raise ValueError(f"diffusion coefficient {s} <= 0 at (t={t}, x={x})")
        x = x + drift(t, x) * dt + s * increments[j]
        values[j + 1] = x
        t = (j + 1) * dt
    return values


def reconstruct_coprocess(spec: DiffusionSpec, x: DiffusionPath) -> BrownianPath:
    """Recover the driving Brownian path from a diffusion path.

    GBM and OU use their closed-form inversions (the OU time integral is
    computed with the trapezoid rule); generic specs accumulate left-point
    Riemann-Ito sums (dX - b dt) / sigma.  The reconstruction starts at 0.
    """
    grid = x.grid
    t = grid.points
    xv = x.values
    if isinstance(spec, GeometricBM):
        if np.any(xv <= 0):
            raise ValueError("GBM reconstruction requires strictly positive path values")
        w = (np.log(xv / spec.x0) + (0.5 * spec.sigma**2 - spec.mu) * t) / spec.sigma
        w[0] = 0.0
        return BrownianPath(grid, w)
    if isinstance(spec, OrnsteinUhlenbeck):
        integrand = xv - spec.mu
        # cumulative trapezoid of (X_s - mu) over [0, t_k]
        steps = 0.5 * grid.dt * (integrand[:-1] + integrand[1:])
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        w = (xv - spec.x0 + spec.theta * cum) / spec.sigma
        w[0] = 0.0
        return BrownianPath(grid, w)
    if isinstance(spec, GenericDiffusion):
        dx = np.diff(xv)
        left_t = t[:-1]
        b = np.array([spec.drift(tt, xx) for tt, xx in zip(left_t, xv[:-1])])
        sig = np.array([spec.diffusion(tt, xx) for tt, xx in zip(left_t, xv[:-1])])
        if np.any(sig <= 0):
            raise ValueError("diffusion coefficient <= 0 along the path")
        w = np.concatenate([[0.0], np.cumsum((dx - b * grid.dt) / sig)])
        return BrownianPath(grid, w)
    raise TypeError(f"unknown diffusion spec {type(spec).__name__}")
