import numpy as np
import pytest

from chaosbench.chaoscalc import l2_inner
from chaosbench.kernelkit import (
    BandwidthedKernel,
    boundary_sign,
    build_kernel,
    eval_multivariate,
    eval_univariate,
    kernel_from_json,
    kernel_moment,
    kernel_slices,
    kernel_to_json,
    slice_matrix,
)


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
    k = BandwidthedKernel(build_kernel(2.0), 0.5, 1)
    # argument s(0) (0 - 0.25) / 0.5 = 0.5 lands inside the support
    assert eval_multivariate(k, [0.0], [0.25]) != 0.0
    assert eval_multivariate(k, [0.0], [0.75]) == 0.0


def test_multivariate_is_product_of_slices():
    base = build_kernel(2.0)
    k = BandwidthedKernel(base, 0.3, 2)
    t = [0.2, 0.8]
    slices = kernel_slices(k, t)
    rng = np.random.default_rng(3)
    for u in rng.uniform(0, 1, size=(20, 2)):
        direct = eval_multivariate(k, t, u)
        via_slices = slices[0](u[0]) * slices[1](u[1])
        assert direct == pytest.approx(via_slices, rel=1e-12, abs=1e-12)


def test_multivariate_symmetry_under_simultaneous_permutation():
    base = build_kernel(3.0)
    k = BandwidthedKernel(base, 0.2, 3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        t = rng.uniform(0, 1, 3)
        u = rng.uniform(0, 1, 3)
        perm = rng.permutation(3)
        assert eval_multivariate(k, t, u) == pytest.approx(
            eval_multivariate(k, t[perm], u[perm]), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("h", [0.3, np.exp(-2)])
def test_unit_mass_at_interior_points(order, h):
    base = build_kernel(2.0)
    k = BandwidthedKernel(base, h, order)
    rng = np.random.default_rng(4)
    for _ in range(5):
        t = rng.uniform(h, 1 - h, order)
        mass = np.prod([s.integral() for s in kernel_slices(k, t)])
        assert abs(mass - 1.0) <= 1e-8


def test_slice_support_width_and_location():
    base = build_kernel(2.0)
    k = BandwidthedKernel(base, 0.25, 2)
    for t in ([0.1, 0.9], [0.45, 0.55]):
        for s, c in zip(kernel_slices(k, t), t):
            lo, hi = s.support
            assert 0.0 <= lo <= hi <= 1.0
            assert hi - lo <= 0.25 + 1e-15
            # vanishes outside the window
            assert s(lo - 1e-6) == 0.0
            assert s(hi + 1e-6) == 0.0


def test_single_slice_equals_multivariate():
    base = build_kernel(1.0)
    k = BandwidthedKernel(base, 0.4, 1)
    (s,) = kernel_slices(k, [0.3])
    u = np.linspace(0, 1, 50)
    direct = np.array([eval_multivariate(k, [0.3], [uu]) for uu in u])
    assert np.allclose(s(u), direct)


def test_slice_matrix_equals_univariate_kernel_across_blocks():
    # more points than one evaluation block, so block edges are crossed
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
    with pytest.raises(ValueError):
        BandwidthedKernel(base, 1.0, 1)
    with pytest.raises(ValueError):
        BandwidthedKernel(base, 0.5, 0)


def test_json_round_trip():
    k = build_kernel(3.0)
    back = kernel_from_json(kernel_to_json(k))
    assert back.moment_order == k.moment_order
    assert np.array_equal(back.poly_coeffs, k.poly_coeffs)
    assert back.l2_norm == k.l2_norm
