"""Ground-truth mappings: finite-chaos specs, synthesis, class checks, bumps.

A mapping is a ``chaoscalc.ChaosExpansion``, a constant plus per-order f_l,

    m(W) = a + sum_l I_l(f_l)(W) / l!,

with each component in one of two integrand forms: ``EqualFactorComponent``,
a scaled equal-factor product scale g x ... x g of a univariate g (a
constant is scale 1 x ... x 1, built by ``ConstantComponent``), or
``GriddedComponent``, a symmetric tensor on the midpoint grid.
``MappingSpec.values`` evaluates m on every row of an (n, N) increment matrix
at once, each component from the single integrals of its ``functional_rows``:
the first form through the Hermite identity on I_1(g), the second through
the exact step-function integral on the cell increments.
``evaluate_mapping`` is its row 0 for a single path.

``synthesize`` draws a sample of paths and responses in row blocks, reducing
with the truth's functionals any the fit needs, so it never holds the
(n, N) paths.  ``synthesize_functionals``
draws only given linear functionals of the paths (the fit's slice integrals,
factored once by ``synthesis_factor``) jointly with the truth's own, and the
responses, without building a path; rows the fit needs only through their
order-1 moment sum_i Y_i x_i it draws as that one sum, not per pair.

The bump family implements the disjoint-support construction used for hard
instances: scaled copies of psi(u) = exp(-1/(1-u^2)) centered at
x_i = (2 r_i + 1) h, combined by a 0/1 selector and an amplitude rho.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from ._util import derive_seed, midpoints
from .chaoscalc import ChaosExpansion, GriddedFunction, draw_from_factor, left_point_factor
from .chaoscalc import _left_rows, block_left_point_integrals, hermite_from_integral, l2_inner
from .chaosreg import Sample
from .pathlab import BrownianPath, BrownianPaths, TimeGrid, increment_blocks
from .pathlab import sample_brownian_paths
# unused here but importable: the per-layer tracer in perfbench/tracing.py
# wraps these by name in this module
from .chaoscalc import brute_multiple_integral, hermite_chaos  # noqa: F401
from .pathlab import sample_brownian  # noqa: F401


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(0.0, self.sigma, n) if self.sigma > 0 else np.zeros(n)


@dataclass(frozen=True)
class UniformNoise:
    half_width: float

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.half_width == 0:
            return np.zeros(n)
        return rng.uniform(-self.half_width, self.half_width, n)


NoiseSpec = Union[GaussianNoise, UniformNoise]


@dataclass(frozen=True)
class EqualFactorComponent:
    """f_l = scale g x ... x g for a univariate g (vectorized callable)."""

    order: int
    g: Callable = field(compare=False)
    scale: float = 1.0

    def l2_norm_sq(self) -> float:
        return self.scale**2 * l2_inner(self.g, self.g) ** self.order

    @property
    def coefficients(self) -> np.ndarray:
        """Its coefficient tensor (1,)^l on its one functional row: the scale."""
        return np.full((1,) * self.order, self.scale)

    def functional_rows(self, n_steps: int) -> np.ndarray:
        """The one row g(t_left) (1, N) of its single integral xi = I_1(g)."""
        return _left_rows([self.g], n_steps)

    def chaos_from_functionals(self, x: np.ndarray, cov: np.ndarray) -> np.ndarray:
        """I_l(f_l) from xi = I_1(g) (1, n) and its variance ||g||^2 (1, 1)."""
        return self.scale * hermite_from_integral(x[0], cov[0, 0], self.order)


def ConstantComponent(order: int, value: float) -> EqualFactorComponent:  # noqa: N802
    """f_l identically equal to ``value`` on [0,1]^l: ``value`` times 1 x ... x 1."""
    return EqualFactorComponent(order, np.ones_like, value)


@dataclass(frozen=True)
class GriddedComponent(GriddedFunction):
    """f_l tabulated as a symmetric tensor on the midpoint grid."""

    def __post_init__(self):
        super().__post_init__()
        if not self.is_symmetric():
            raise ValueError("gridded components must be symmetric")


@dataclass(frozen=True)
class ClassParams:
    """Declared smoothness/size parameters of the mapping."""

    s: tuple[float, ...] = ()
    lam: tuple[float, ...] = ()
    max_order: int = 0
    class_bound: float = 1.0
    gamma: float | None = None


@dataclass(frozen=True)
class MappingSpec(ChaosExpansion):
    """Chaos expansion of the truth, its noise law and its declared class."""

    noise: NoiseSpec
    declared: ClassParams = ClassParams()


def quadratic_terminal(noise: NoiseSpec | None = None) -> MappingSpec:
    """The benchmark truth with a unit order-2 component.

    a = 1 and f_2 = 1, i.e. m(W) = 1 + I_2(1)(W)/2! = (1 + W(1)^2)/2: an
    affine function of the squared terminal value, discontinuous in the
    sup-norm sense yet of finite chaos order.  Its fitted order-2 surface
    converges to 1, and it sits in the order-2 mapping class with unit bound
    (||f_2||^2 = 1 <= 2! M^2 at M = 1).
    """
    return MappingSpec(
        a=1.0,
        components=(ConstantComponent(2, 1.0),),
        noise=noise if noise is not None else GaussianNoise(0.5),
        declared=ClassParams(s=(1.0, 1.0), lam=(1.0, 1.0), max_order=2, class_bound=1.0),
    )


def evaluate_mapping(spec: MappingSpec, path: BrownianPath) -> float:
    """Row 0 of ``MappingSpec.values`` for a single path."""
    return float(spec.values(path.increments[None])[0])


def synthesize(spec: MappingSpec, n: int, grid: TimeGrid, seed: int,
               weights: Sequence[np.ndarray] = (), hold_paths: bool = False) -> Sample:
    """Draw n independent (W_i, Y_i = m(W_i) + eps_i) pairs, deterministic given seed.

    The n paths are ``sample_brownian_paths(grid, n, derive_seed(seed, 0))``,
    kept as their seed (``pathlab.BrownianPaths``), or with ``hold_paths`` as
    that matrix, drawn once, for a caller that reads ``path_values``.  One pass
    over their increment blocks, the same bits on both, reduces the truth's
    ``functional_rows``, from which ``values_from_functionals`` gives m, and
    the rows of each of ``weights`` (k, N), whose (x, cov) the sample keeps as
    ``reduced`` for its fits.  The noise vector uses the stream (seed, 1).
    Noise is independent of the paths.
    """
    paths = BrownianPaths(grid, n, derive_seed(seed, 0))
    if hold_paths:
        paths = sample_brownian_paths(grid, n, paths.seed)
    rows = [c.functional_rows(grid.n_steps) for c in spec.components]
    parts = block_left_point_integrals([*weights, *rows], increment_blocks(paths), n)
    m_values = spec.values_from_functionals(n, parts[len(weights):])
    noise_rng = np.random.default_rng(derive_seed(seed, 1))
    responses = m_values + spec.noise.sample(noise_rng, n)
    return Sample(grid, responses, paths, tuple(zip(weights, parts)))


def synthesis_factor(spec: MappingSpec, weights: np.ndarray, summed: np.ndarray):
    """(edges, factor) of ``weights`` stacked over the truth's ``functional_rows``, for any n."""
    blocks = [weights, *(c.functional_rows(weights.shape[1]) for c in spec.components)]
    return (np.cumsum([0] + [len(b) for b in blocks]),
            left_point_factor(np.concatenate(blocks), summed))


def synthesize_functionals(spec: MappingSpec, factor, n: int, seed: int):
    """Functionals of n pairs and their responses, without paths: (x, cov, y, sum_i y_i x_C,i).

    ``synthesize`` followed by ``left_point_integrals`` without the paths.
    ``factor`` is ``synthesis_factor(spec, weights, summed)``: the rows of
    ``weights`` (k, N), stacked over the truth components'
    ``functional_rows``, are drawn per pair: x = weights dW (k, n) and its
    covariance (k, k).  The rows of ``summed`` (k_C, N) are drawn only as the
    response-weighted sum sum_i y_i summed dW_i (k_C,), the order-1 moment
    times n.  All of it comes from the stream (seed, 0) by
    ``chaoscalc.draw_from_factor``: n x r_P normals for the per-pair
    rows, r_P = min(k + k_t, N) with k_t the truth's, then min(k_C, N - r_P)
    for the summed rows.  The responses y are m from the truth's functionals
    plus noise from the stream (seed, 1).  Same law as the path route, not
    the same draws; with no summed rows, the draws of the per-pair rows alone.
    """
    edges, rows_factor = factor
    xi, cov, weighted_sum = draw_from_factor(
        rows_factor, n, np.random.default_rng(derive_seed(seed, 0)))
    parts = [(xi[lo:hi], cov[lo:hi, lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]
    noise_rng = np.random.default_rng(derive_seed(seed, 1))
    responses = spec.values_from_functionals(n, parts[1:]) + spec.noise.sample(noise_rng, n)
    return (*parts[0], responses, weighted_sum(responses))


@dataclass(frozen=True)
class ClassCheckEntry:
    order: int
    norm_sq: float
    norm_bound: float | None
    norm_ok: bool | None


@dataclass(frozen=True)
class ClassCheckReport:
    kind: str
    entries: tuple[ClassCheckEntry, ...]
    growth_sum: float | None
    growth_bound: float | None
    passed: bool


def class_check(
    spec: MappingSpec,
    kind: str,
    max_order: int | None = None,
    class_bound: float | None = None,
    gamma: float | None = None,
) -> ClassCheckReport:
    """Check membership conditions for the finite-order or growth-controlled class.

    ``kind`` is "finite" (per-order bound ||f_l||^2 <= M^2 l!, orders <= L) or
    "growth" (sum_l e^(2 gamma l) ||f_l||^2 / l! <= M^2).  Only the norms are
    checked; smoothness is not certified for any component.
    """
    if kind not in ("finite", "growth"):
        raise ValueError("kind must be 'finite' or 'growth'")
    d = spec.declared
    m_bound = class_bound if class_bound is not None else d.class_bound
    l_max = max_order if max_order is not None else d.max_order
    entries = []
    ok = True
    if kind == "finite":
        for comp in spec.components:
            norm_sq = comp.l2_norm_sq()
            bound = m_bound**2 * math.factorial(comp.order)
            norm_ok = norm_sq <= bound and comp.order <= l_max
            ok = ok and norm_ok
            entries.append(ClassCheckEntry(comp.order, norm_sq, bound, norm_ok))
        return ClassCheckReport(kind, tuple(entries), None, None, ok)
    g = gamma if gamma is not None else (d.gamma if d.gamma is not None else 0.0)
    total = 0.0
    for comp in spec.components:
        norm_sq = comp.l2_norm_sq()
        total += math.exp(2.0 * g * comp.order) * norm_sq / math.factorial(comp.order)
        entries.append(ClassCheckEntry(comp.order, norm_sq, None, None))
    ok = total <= m_bound**2
    return ClassCheckReport(kind, tuple(entries), total, m_bound**2, ok)


def bump_psi(u):
    """The smooth compactly supported bump exp(-1/(1-u^2)) on (-1, 1), 0 outside."""
    arr = np.asarray(u, dtype=float)
    out = np.zeros_like(arr)
    inside = np.abs(arr) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - arr[inside] ** 2))
    if np.isscalar(u) or arr.ndim == 0:
        return float(out)
    return out


def _selector_is_permutation_closed(selector: Iterable[tuple[int, ...]]) -> bool:
    cells = set(tuple(r) for r in selector)
    return all(tuple(p) in cells for r in cells for p in itertools.permutations(r))


def bump_instance(
    order: int,
    h: float,
    selector: Iterable[tuple[int, ...]],
    rho: float,
    grid_size: int,
    noise: NoiseSpec | None = None,
    s: float | None = None,
    lam: float | None = None,
) -> tuple[GriddedComponent, MappingSpec]:
    """Gridded bump combination g_w = rho sum_{r in w} prod_i psi((y_i - x_i^r)/h).

    1/(2h) must be an integer R; bump centers x_i = (2 r_i + 1) h are spaced
    2h apart so supports are disjoint.  The selector must be closed under
    coordinate permutations so the tensor is symmetric.  Returns the gridded
    component and a MappingSpec with it as its single order-l component.
    """
    r_cells = 1.0 / (2.0 * h)
    n_cells = round(r_cells)
    if abs(r_cells - n_cells) > 1e-9 or n_cells < 1:
        raise ValueError(f"1/(2h) must be a positive integer, got {r_cells}")
    cells = [tuple(int(i) for i in r) for r in selector]
    if any(len(r) != order for r in cells):
        raise ValueError("selector cells must have one index per coordinate")
    if any(min(r) < 0 or max(r) >= n_cells for r in cells):
        raise ValueError(f"selector indices must lie in 0..{n_cells - 1}")
    if not _selector_is_permutation_closed(cells):
        raise ValueError("selector must be permutation-closed so the bump tensor is symmetric")
    y = midpoints(grid_size)
    # per-axis profile of each 1d cell index: psi((y - x_r)/h)
    profiles = np.stack([bump_psi((y - (2 * r + 1) * h) / h) for r in range(n_cells)])
    values = np.zeros((grid_size,) * order)
    for r in set(cells):
        values += functools.reduce(np.multiply.outer, profiles[list(r)])
    values *= rho
    component = GriddedComponent(order, grid_size, values)
    declared = ClassParams(
        s=(float(s),) * order if s is not None else (),
        lam=(float(lam),) * order if lam is not None else (),
        max_order=order,
        class_bound=1.0,
    )
    spec = MappingSpec(
        a=0.0,
        components=(component,),
        noise=noise if noise is not None else GaussianNoise(0.0),
        declared=declared,
    )
    return component, spec
