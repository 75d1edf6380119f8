import numpy as np
import pytest

from chaosbench._util import gauss_legendre_panels
from chaosbench.chaoscalc import l2_inner
from chaosbench.kernelkit import (
    MAX_S_STAR,
    boundary_sign,
    build_kernel,
    eval_univariate,
    kernel_moment,
    slice_matrix,
)


def _window(c, h):
    """The slice window [lo, hi] inside [0, 1]: left of c where s(c) = +1, else right."""
    lo, hi = (c - h, c) if boundary_sign(c) > 0 else (c, c + h)
    return max(lo, 0.0), min(hi, 1.0)


def _slice_mass(kernel, c, h):
    """Integral of the slice at c over [0, 1], exact by Gauss-Legendre on its window."""
    lo, hi = _window(c, h)
    pts, wts = gauss_legendre_panels(lo, hi, panels=1, nodes=16)
    return float(slice_matrix(kernel, [c], h, pts)[0] @ wts)


def test_flat_kernel_for_small_smoothness():
    for s_star in (0.2, 0.7, 1.0):
        k = build_kernel(s_star)
        assert k.moment_order == 0
        x = np.linspace(0, 1, 11)
        assert np.allclose(eval_univariate(k, x), 1.0)


def test_order_one_kernel_matches_linear_moment_system():
    # oracle: solve the 2x2 system int (a + b x) = 1, int x (a + b x) = 0
    a, b = np.linalg.solve([[1.0, 0.5], [0.5, 1.0 / 3.0]], [1.0, 0.0])
    k = build_kernel(2.0)
    assert k.moment_order == 1
    probe = np.linspace(0.0, 1.0, 100)
    assert np.max(np.abs(eval_univariate(k, probe) - (a + b * probe))) <= 1e-12


@pytest.mark.parametrize("m", range(6))
def test_moment_identities(m):
    k = build_kernel(m + 0.5)
    assert k.moment_order == m
    assert abs(kernel_moment(k, 0) - 1.0) <= 1e-10
    for s in range(1, m + 1):
        assert abs(kernel_moment(k, s)) <= 1e-10


def test_degree_boundaries_of_smoothness_bracket():
    assert build_kernel(1.0).moment_order == 0
    assert build_kernel(1.0001).moment_order == 1
    assert build_kernel(2.0).moment_order == 1
    assert build_kernel(3.5).moment_order == 3


def test_build_kernel_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_kernel(0.0)


def test_largest_kernel_keeps_its_moments_and_larger_is_rejected():
    k = build_kernel(MAX_S_STAR)
    # the mass is the worst of the moments at this degree
    assert abs(kernel_moment(k, 0) - 1.0) <= 1e-10
    for s in (1, k.moment_order):
        assert abs(kernel_moment(k, s)) <= 1e-10
    with pytest.raises(ValueError, match="at most"):
        build_kernel(np.nextafter(MAX_S_STAR, np.inf))


def test_l2_norm_of_order_one_kernel():
    k = build_kernel(2.0)
    assert k.l2_norm == pytest.approx(2.0, abs=1e-12)
    # independent quadrature oracle for int (4 - 6x)^2 = 4
    assert l2_inner(k, k, quad_points=100_000) == pytest.approx(4.0, abs=1e-8)


def test_eval_outside_support_is_zero():
    k = build_kernel(2.0)
    assert eval_univariate(k, -0.1) == 0.0
    assert eval_univariate(k, 1.5) == 0.0
    assert eval_univariate(k, 0.0) == pytest.approx(4.0)


def test_boundary_sign_values():
    assert boundary_sign(0.25) == -1.0
    assert boundary_sign(0.75) == 1.0
    # indicator of the open interval: 1/2 and 1 map to -1
    assert boundary_sign(0.5) == -1.0
    assert boundary_sign(0.0) == -1.0
    assert boundary_sign(1.0) == -1.0


def test_flip_keeps_left_boundary_mass_inside():
    base = build_kernel(2.0)
    # argument s(0) (0 - 0.25) / 0.5 = 0.5 lands inside the support
    row = slice_matrix(base, [0.0], 0.5, np.array([0.25, 0.75]))[0]
    assert row[0] != 0.0
    assert row[1] == 0.0
    # the flipped windows of edge centres lie inside [0, 1] and keep unit mass
    for c in (0.0, 0.01, 0.99):
        assert abs(_slice_mass(base, c, 0.25) - 1.0) <= 1e-12


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("h", [0.3, np.exp(-2)])
def test_unit_mass_at_interior_points(order, h):
    base = build_kernel(2.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        t = rng.uniform(h, 1 - h, order)
        mass = np.prod([_slice_mass(base, c, h) for c in t])
        assert abs(mass - 1.0) <= 1e-8


def test_slice_support_width_and_location():
    base = build_kernel(2.0)
    h = 0.25
    for c in (0.1, 0.9, 0.45, 0.55):
        lo, hi = _window(c, h)
        assert 0.0 <= lo <= hi <= 1.0
        assert hi - lo <= h + 1e-15
        row = slice_matrix(base, [c], h, np.array([lo - 1e-6, hi + 1e-6, (lo + hi) / 2]))[0]
        # vanishes outside the window, not inside it
        assert row[0] == 0.0
        assert row[1] == 0.0
        assert row[2] != 0.0


def test_slice_matrix_equals_univariate_kernel_across_blocks():
    # a long row of points: bit for bit the kernel evaluated directly
    base = build_kernel(2.0)
    centers = (np.arange(16) + 0.5) / 16
    x = (np.arange(5001) + 0.5) / 5001
    h = 0.2
    direct = eval_univariate(
        base, boundary_sign(centers)[:, None] * (centers[:, None] - x[None, :]) / h
    ) / h
    assert np.array_equal(slice_matrix(base, centers, h, x), direct)


def test_bandwidth_validation():
    base = build_kernel(1.0)
    for h in (1.0, 0.0):
        with pytest.raises(ValueError):
            slice_matrix(base, [0.5], h, np.array([0.5]))

