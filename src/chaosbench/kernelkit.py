"""Vanishing-moment kernels on [0, 1] and their boundary-corrected products.

The univariate kernel of order m is the degree-m polynomial with unit mass
and vanishing moments 1..m.  It is the Legendre reproducing kernel at 0,

    k(x) = sum_{j=0}^{m} (2j+1) P~_j(0) P~_j(x),

where P~_j are Legendre polynomials shifted to [0, 1]; reproduction of
polynomials of degree <= m at the point 0 is exactly the moment property.
The multivariate kernel rescales by a bandwidth h and mirrors the window at
each coordinate via the sign flip s(t) = +1 on (1/2, 1), -1 otherwise, which
keeps all kernel mass inside [0, 1] near the edges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np
from numpy.polynomial import legendre

from ._util import gauss_legendre_panels


@dataclass(frozen=True)
class MomentKernel:
    """Polynomial kernel on [0, 1] with unit mass and m vanishing moments.

    ``poly_coeffs`` are coefficients in the shifted-Legendre basis on [0, 1];
    ``l2_norm`` caches the L2([0, 1]) norm.
    """

    moment_order: int
    poly_coeffs: np.ndarray
    l2_norm: float

    def __post_init__(self):
        object.__setattr__(self, "poly_coeffs", np.asarray(self.poly_coeffs, dtype=float))
        if self.moment_order < 0:
            raise ValueError("moment_order must be >= 0")
        if len(self.poly_coeffs) != self.moment_order + 1:
            raise ValueError("poly_coeffs must have length moment_order + 1")

    def __call__(self, x):
        return eval_univariate(self, x)


def build_kernel(s_star: float) -> MomentKernel:
    """Kernel for target smoothness ``s_star``: degree m = max{j in N0 : j < s_star}.

    s_star in (0, 1] gives the flat kernel k = 1; s_star in (1, 2] gives
    k(x) = 4 - 6x, and so on.
    """
    if s_star <= 0:
        raise ValueError(f"s_star must be positive, got {s_star}")
    m = math.ceil(s_star) - 1
    coeffs = np.array([(2 * j + 1) * (-1.0) ** j for j in range(m + 1)])
    # Parseval in the shifted-Legendre basis: ||P~_j||^2 = 1/(2j+1)
    norm_sq = float(np.sum(coeffs**2 / (2 * np.arange(m + 1) + 1)))
    return MomentKernel(m, coeffs, math.sqrt(norm_sq))


def eval_univariate(kernel: MomentKernel, x):
    """Evaluate the kernel; exactly 0 outside [0, 1].  Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    inside = (arr >= 0.0) & (arr <= 1.0)
    vals = np.where(inside, legendre.legval(2.0 * arr - 1.0, kernel.poly_coeffs), 0.0)
    if np.isscalar(x) or arr.ndim == 0:
        return float(vals)
    return vals


def boundary_sign(t):
    """Window flip s(t) = 2*1_{(1/2,1)}(t) - 1; +1 iff t in the open (1/2, 1)."""
    arr = np.asarray(t, dtype=float)
    sign = np.where((arr > 0.5) & (arr < 1.0), 1.0, -1.0)
    if np.isscalar(t) or arr.ndim == 0:
        return float(sign)
    return sign


@dataclass(frozen=True)
class BandwidthedKernel:
    """The order-l product kernel K_h(t, u) = h^-l prod_k k(s(t_k)(t_k - u_k)/h)."""

    base: MomentKernel
    h: float
    order: int

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"bandwidth must lie in (0, 1), got {self.h}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")


@dataclass(frozen=True)
class KernelSlice:
    """One univariate factor u -> h^-1 k(s(c)(c - u)/h) of the product kernel.

    ``support`` is the window [lo, hi] inside [0, 1] outside of which the
    slice vanishes.
    """

    base: MomentKernel
    center: float
    h: float

    @property
    def sign(self) -> float:
        return boundary_sign(self.center)

    @property
    def support(self) -> tuple[float, float]:
        if self.sign > 0:
            lo, hi = self.center - self.h, self.center
        else:
            lo, hi = self.center, self.center + self.h
        return max(lo, 0.0), min(hi, 1.0)

    def __call__(self, u):
        arg = self.sign * (self.center - np.asarray(u, dtype=float)) / self.h
        return eval_univariate(self.base, arg) / self.h

    def integral(self, nodes: int = 16) -> float:
        """Integral over [0, 1], computed exactly (Gauss-Legendre on the window)."""
        lo, hi = self.support
        if hi <= lo:
            return 0.0
        pts, wts = gauss_legendre_panels(lo, hi, panels=1, nodes=nodes)
        return float(np.dot(self(pts), wts))


def eval_multivariate(kernel: BandwidthedKernel, t: Sequence[float], u: Sequence[float]) -> float:
    """Evaluate K_h(t, u) at single points t, u of [0, 1]^l."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if t.shape != (kernel.order,) or u.shape != (kernel.order,):
        raise ValueError(f"t and u must have {kernel.order} coordinates")
    args = boundary_sign(t) * (t - u) / kernel.h
    return float(np.prod(eval_univariate(kernel.base, args))) / kernel.h**kernel.order


def kernel_slices(kernel: BandwidthedKernel, t: Sequence[float]) -> list[KernelSlice]:
    """Factor K_h(t, .) into univariate slices: K(t, u) = prod_k slice_k(u_k)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (kernel.order,):
        raise ValueError(f"t must have {kernel.order} coordinates")
    return [KernelSlice(kernel.base, float(c), kernel.h) for c in t]


#: Evaluation points per block in :func:`slice_matrix`.
_SLICE_BLOCK = 2048


def slice_matrix(kernel: MomentKernel, centers: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """Values of the slices at all ``centers`` on the points ``x``.

    Returns an array of shape (len(centers), len(x)); row a holds
    h^-1 k(s(c_a)(c_a - x)/h).  This is the vectorized form of
    :class:`KernelSlice` used by the estimator loops.
    """
    centers = np.asarray(centers, dtype=float)
    signs = boundary_sign(centers)
    out = np.empty((len(centers), len(x)))
    # blocks of columns bound the polynomial evaluation's temporaries, which
    # sit next to the sample's paths and increments during a fit; every value
    # is elementwise, so blocking changes no bit
    for lo in range(0, len(x), _SLICE_BLOCK):
        block = x[None, lo:lo + _SLICE_BLOCK]
        args = signs[:, None] * (centers[:, None] - block) / h
        inside = (args >= 0.0) & (args <= 1.0)
        vals = np.where(inside, legendre.legval(2.0 * args - 1.0, kernel.poly_coeffs), 0.0)
        np.divide(vals, h, out=out[:, lo:lo + _SLICE_BLOCK])
    return out


def kernel_moment(kernel: MomentKernel, s: int, n_points: int = 10_000) -> float:
    """Moment int_0^1 x^s k(x) dx under an ``n_points``-node composite quadrature.

    Composite Gauss-Legendre panels are used so polynomial integrands are
    integrated to float precision.
    """
    nodes = 8
    pts, wts = gauss_legendre_panels(0.0, 1.0, panels=max(1, n_points // nodes), nodes=nodes)
    return float(np.dot(pts**s * eval_univariate(kernel, pts), wts))


def kernel_to_json(kernel: MomentKernel, fp: IO[str] | None = None) -> str:
    doc = {
        "moment_order": kernel.moment_order,
        "poly_coeffs": kernel.poly_coeffs.tolist(),
        "l2_norm": kernel.l2_norm,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if fp is not None:
        fp.write(text)
    return text


def kernel_from_json(text: str) -> MomentKernel:
    doc = json.loads(text)
    return MomentKernel(
        int(doc["moment_order"]), np.asarray(doc["poly_coeffs"]), float(doc["l2_norm"])
    )
