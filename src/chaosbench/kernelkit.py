"""Vanishing-moment kernels on [0, 1] and their boundary-corrected slices.

The univariate kernel of order m is the degree-m polynomial with unit mass
and vanishing moments 1..m.  It is the Legendre reproducing kernel at 0,

    k(x) = sum_{j=0}^{m} (2j+1) P~_j(0) P~_j(x),

where P~_j are Legendre polynomials shifted to [0, 1]; reproduction of
polynomials of degree <= m at the point 0 is exactly the moment property.
The order-l product kernel K_h(t, u) = prod_k h^-1 k(s(t_k)(t_k - u_k)/h)
factors into one slice per coordinate; ``slice_matrix`` tabulates the slices
at a set of centres on a set of points.  The window flip s(t) = +1 on
(1/2, 1), -1 otherwise, keeps all slice mass inside [0, 1] near the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


#: Largest accepted ``s_star``.  Its kernel, of degree 231, is the highest whose
#: mass and moments 1..m still hold to 1e-10 under ``kernel_moment`` (the mass
#: error is 8.3e-11 there and 1.1e-10 at degree 232); the coefficients also
#: cost memory linear in ``s_star``.
MAX_S_STAR = 232.0


def build_kernel(s_star: float) -> MomentKernel:
    """Kernel for target smoothness ``s_star``: degree m = max{j in N0 : j < s_star}.

    s_star in (0, 1] gives the flat kernel k = 1; s_star in (1, 2] gives
    k(x) = 4 - 6x, and so on, up to ``MAX_S_STAR``.
    """
    if s_star <= 0:
        raise ValueError(f"s_star must be positive, got {s_star}")
    if s_star > MAX_S_STAR:
        raise ValueError(f"s_star must be at most {MAX_S_STAR:g}, got {s_star:g}")
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


def slice_matrix(kernel: MomentKernel, centers: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """Values of the slices at all ``centers`` on the points ``x``.

    Returns an array of shape (len(centers), len(x)); row a holds
    h^-1 k(s(c_a)(c_a - x)/h), which vanishes outside the window between
    c_a and c_a - s(c_a) h.  The bandwidth must lie in (0, 1).
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"bandwidth must lie in (0, 1), got {h}")
    centers = np.asarray(centers, dtype=float)
    signs = boundary_sign(centers)
    return eval_univariate(kernel, signs[:, None] * (centers[:, None] - x) / h) / h


def kernel_moment(kernel: MomentKernel, s: int, n_points: int = 10_000) -> float:
    """Moment int_0^1 x^s k(x) dx under an ``n_points``-node composite quadrature.

    Composite Gauss-Legendre panels are used so polynomial integrands are
    integrated to float precision.
    """
    nodes = 8
    pts, wts = gauss_legendre_panels(0.0, 1.0, panels=max(1, n_points // nodes), nodes=nodes)
    return float(np.dot(pts**s * eval_univariate(kernel, pts), wts))
