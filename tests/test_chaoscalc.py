import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from chaosbench import chaoscalc
from chaosbench.chaoscalc import (
    GriddedFunction,
    brute_multiple_integral,
    chaos_constant,
    draw_from_factor,
    hermite_chaos,
    isometry_report,
    l2_inner,
    left_point_factor,
    left_point_integrals,
    moment_bound_reports,
    monte_carlo_mean,
    path_grid_inner,
    project,
    tensor_chaos,
    tensor_chaos_values,
)
from chaosbench.chaosreg import fit_from_parts, slice_rows
from chaosbench.kernelkit import build_kernel, slice_matrix
from chaosbench.mappingzoo import EqualFactorComponent
from chaosbench.pathlab import block_rows, make_grid, sample_brownian, sample_brownian_paths

ONE = np.polynomial.Polynomial([1.0])
RAMP = np.polynomial.Polynomial([0.0, 1.0])


def _slice(kernel, c, h):
    """The kernel slice at centre c as a callable."""
    return lambda u: slice_matrix(kernel, [c], h, np.atleast_1d(u))[0]


@pytest.fixture(scope="module")
def path():
    return sample_brownian(make_grid(512), 2024)


def _chaos(component, rows):
    """I_l(f_l) per increment row: the component's evaluator on its own single integrals."""
    return component.chaos_from_functionals(
        *left_point_integrals(component.functional_rows(rows.shape[1]), rows))


def _grid_norm_sq(g, path):
    """sum_j g(t_j)^2 / N over the left points, the variance of the Ito sum of g."""
    return np.mean(g(path.grid.points[:-1]) ** 2)


def test_ito_integral_of_one_telescopes(path):
    assert tensor_chaos([ONE], path) == pytest.approx(path.values[-1], abs=1e-12)


def test_ito_integral_of_half_indicator(path):
    g = lambda u: np.where(u < 0.5, 1.0, 0.0)  # noqa: E731
    assert tensor_chaos([g], path) == pytest.approx(path.values[256], abs=1e-12)


def test_ito_isometry_for_ramp():
    report = isometry_report([RAMP], [RAMP], n_mc=10_000, seed=31, n_steps=512)
    # the path-grid target sum_j (j / N)^2 / N, not the continuum 1/3
    assert report.theoretical == pytest.approx(0.3323574, abs=1e-8)
    assert report.within(3.0)


def test_l2_inner_values():
    assert l2_inner(ONE, ONE) == pytest.approx(1.0, abs=1e-15)
    assert l2_inner(RAMP, ONE, quad_points=10_000) == pytest.approx(0.5, abs=1e-10)
    k = build_kernel(2.0)
    assert l2_inner(k, k, quad_points=100_000) == pytest.approx(4.0, abs=1e-8)


def test_tensor_chaos_order_one_is_ito(path):
    # the left-point Ito sum sum_j g(t_j) (W_{j+1} - W_j)
    left_sum = np.dot(RAMP(path.grid.points[:-1]), path.increments)
    assert tensor_chaos([RAMP], path) == pytest.approx(left_sum, abs=1e-14)


def test_tensor_chaos_hermite_identities(path):
    g = np.polynomial.Polynomial([0.5, 1.0])
    xi = tensor_chaos([g], path)
    norm_sq = _grid_norm_sq(g, path)
    assert tensor_chaos([g, g], path) == pytest.approx(xi**2 - norm_sq, rel=1e-12)
    assert tensor_chaos([g, g, g], path) == pytest.approx(
        xi**3 - 3 * norm_sq * xi, rel=1e-12
    )


def test_tensor_chaos_matches_hermite_up_to_order_five():
    grid = make_grid(256)
    rng = np.random.default_rng(12)
    for seed in range(100):
        w = sample_brownian(grid, seed)
        g = np.polynomial.Polynomial(rng.uniform(-1, 1, 3))
        for order in range(1, 6):
            a = tensor_chaos([g] * order, w)
            b = hermite_chaos(g, order, w)
            assert abs(a - b) <= 1e-10, (order, seed)


def test_hermite_chaos_base_cases(path):
    g = np.polynomial.Polynomial([1.0, -0.5])
    xi = tensor_chaos([g], path)
    assert hermite_chaos(g, 1, path) == pytest.approx(xi, rel=1e-12)
    assert hermite_chaos(g, 2, path) == pytest.approx(xi**2 - _grid_norm_sq(g, path), rel=1e-12)


@pytest.mark.parametrize("evaluator", ["equal_factor", "tensor"])
@pytest.mark.parametrize("order", [2, 3])
def test_equal_factor_chaos_is_centred_and_orthogonal_to_first_chaos(order, evaluator):
    # Both evaluators depend on the path only through xi = sum_j g(t_j) dW_j,
    # which is N(0, v) with v the grid norm.  Rows dW = x w / (w.w), w = g(t_j),
    # make xi take the 20 Gauss-Hermite nodes x of N(0, v), so the weighted sums
    # are exact Gaussian expectations of these polynomials in xi.
    g = np.polynomial.Polynomial([1.0, 0.5])
    n_steps = 512
    w = g(np.arange(n_steps) / n_steps)
    v = w @ w / n_steps
    nodes, weights = hermite_e.hermegauss(20)
    weights = weights / math.sqrt(2.0 * math.pi)
    xi = math.sqrt(v) * nodes
    rows = np.outer(xi, w / (w @ w))
    if evaluator == "equal_factor":
        values = _chaos(EqualFactorComponent(order, g), rows)
    else:
        values = tensor_chaos_values([g] * order, rows)
    assert abs(weights @ values) <= 1e-12
    assert abs(weights @ (values * xi)) <= 1e-12


def test_hermite_chaos_rejects_zero_integrand(path):
    zero = np.polynomial.Polynomial([0.0])
    with pytest.raises(ValueError, match=r"hermite_chaos requires \|\|g\|\| > 0"):
        hermite_chaos(zero, 2, path)


def test_brute_order_one_equals_left_sum(path):
    f = GriddedFunction.from_callable(1, 64, lambda u: 1.0 + u / 2)
    # piecewise-constant representative of the gridded function
    g = lambda u: f.values[np.minimum((np.asarray(u) * 64).astype(int), 63)]  # noqa: E731
    assert brute_multiple_integral(f, path) == pytest.approx(
        tensor_chaos([g], path), abs=1e-12
    )
    assert np.array_equal(f.values, 1.0 + (np.arange(64) + 0.5) / 64 / 2)


def test_brute_quadratic_variation_limit():
    # order 2, f = 1: the step-function integral is W(1)^2 - 1 on every grid
    grid = make_grid(512)
    for seed in range(100):
        w = sample_brownian(grid, seed)
        target = w.values[-1] ** 2 - 1.0
        for g_size in (16, 256):
            f = GriddedFunction(2, g_size, np.ones((g_size, g_size)))
            assert brute_multiple_integral(f, w) == pytest.approx(target, abs=1e-12)


def test_brute_alignment_and_order_errors(path):
    with pytest.raises(ValueError, match="grid_size 100 does not divide path resolution"):
        brute_multiple_integral(GriddedFunction(1, 100, np.ones(100)), path)


def test_gridded_functional_rows_are_cell_indicators():
    rows = GriddedFunction(1, 4, np.ones(4)).functional_rows(8)
    assert np.array_equal(rows, np.repeat(np.eye(4), 2, axis=1))
    with pytest.raises(ValueError, match="grid_size 3 does not divide path resolution 8"):
        GriddedFunction(1, 3, np.ones(3)).functional_rows(8)


def test_tensor_vs_brute_converges_in_grid():
    g = np.polynomial.Polynomial([1.0, 0.5])
    grid = make_grid(256)
    means = []
    for g_size in (16, 64, 256):
        f = GriddedFunction.from_callable(2, g_size, lambda a, b: g(a) * g(b))
        gaps = []
        for seed in range(50):
            w = sample_brownian(grid, seed)
            gaps.append(abs(tensor_chaos([g, g], w) - brute_multiple_integral(f, w)))
        means.append(np.mean(gaps))
    assert means[2] < means[1] < means[0]


def test_chaos_constants():
    assert chaos_constant(0, 2) == 1.0
    assert chaos_constant(5, 2) == 1.0
    assert chaos_constant(2, 4) == pytest.approx(3.0)
    assert chaos_constant(1, 4) == pytest.approx(math.sqrt(3.0))
    with pytest.raises(ValueError):
        chaos_constant(1, 1.5)


def test_isometry_report_order_two_target():
    report = isometry_report([ONE, ONE], [ONE, ONE], n_mc=10_000, seed=5, n_steps=256)
    assert report.theoretical == pytest.approx(2.0, abs=1e-12)
    assert report.within(3.0)


def test_isometry_report_distinct_orders_orthogonal():
    report = isometry_report([ONE], [ONE, ONE], n_mc=10_000, seed=6, n_steps=256)
    assert report.theoretical == 0.0
    assert report.within(3.0)


def test_isometry_report_input_validation():
    with pytest.raises(ValueError):
        isometry_report([ONE], [ONE], n_mc=50, seed=0)
    with pytest.raises(ValueError):
        isometry_report([], [ONE], n_mc=200, seed=0)


def test_monte_carlo_mean_batches_continue_one_stream():
    # a run just over one block of factor draws equals the statistics of a
    # single (n_mc, r) draw, bit for bit
    n_steps, seed = 4, 2718
    weights = np.random.default_rng(5).normal(size=(3, n_steps))
    n_mc = block_rows(3) + 37
    blocks = []

    def statistic(xi, cov):
        blocks.append(xi)
        return xi.sum(axis=0) ** 2 * cov[0, 0]

    mean, stderr = monte_carlo_mean(weights, statistic, n_mc, seed)
    assert [len(b[0]) for b in blocks] == [block_rows(3), 37]
    drawn = np.concatenate(blocks, axis=1)
    once = draw_from_factor(left_point_factor(weights, weights[:0]), n_mc,
                            np.random.default_rng(seed))
    assert np.array_equal(drawn.view(np.uint64), once[0].view(np.uint64))
    values = statistic(*once[:2])
    assert mean == np.mean(values)
    assert stderr == np.std(values, ddof=1) / np.sqrt(n_mc)
    # the root goes through the delta method for x -> x^(1/root)
    root_mean, root_stderr = monte_carlo_mean(weights, statistic, n_mc, seed, root=2.0)
    assert root_mean == mean**0.5
    assert root_stderr == pytest.approx(stderr / 2.0 / mean**0.5, rel=1e-15)
    with pytest.raises(ValueError, match=">= 100"):
        monte_carlo_mean(weights, statistic, 99, seed)


def _path_increments(n, n_steps, seed):
    return np.diff(sample_brownian_paths(make_grid(n_steps), n, seed), axis=1)


def _agree(drawn, drawn_se, path, path_se):
    """Two independent estimates of one mean within 3 standard errors of their gap."""
    return abs(drawn - path) <= 3.0 * math.hypot(drawn_se, path_se)


@pytest.mark.parametrize("gs, gs_prime", [([ONE, ONE], [ONE, ONE]), ([ONE], [ONE, ONE]),
                                          ([RAMP], [RAMP])], ids=["I2_sq", "orthogonal", "I1_sq"])
def test_isometry_report_draws_match_the_path_route(gs, gs_prime):
    # the functionals drawn from seed 2024 against the product of tensor_chaos_values
    # on 10^4 paths of seed 2025
    n_mc, n_steps = 10_000, 256
    report = isometry_report(gs, gs_prime, n_mc, 2024, n_steps)
    dw = _path_increments(n_mc, n_steps, 2025)
    path = tensor_chaos_values(gs, dw) * tensor_chaos_values(gs_prime, dw)
    assert _agree(report.empirical, report.mc_stderr,
                  *chaoscalc._mean_and_stderr(path, 1.0))


@pytest.mark.parametrize("order", [1, 2])
def test_moment_bound_reports_draws_match_the_path_route(order):
    # (E xi^2r)^(1/r), r = 1, 2, at h = e^-2: drawn from seed 3030 against the
    # slice integrals of 10^4 paths of seed 3031
    n_mc, n_steps, h, kernel = 10_000, 256, math.exp(-2), build_kernel(2.0)
    reports = moment_bound_reports(order, h, (1, 2), n_mc, 3030, kernel, n_steps=n_steps)
    rows = slice_matrix(kernel, [0.45] * order, h, np.arange(n_steps) / n_steps)
    xi = chaoscalc._chaos_from_parts(
        *left_point_integrals(rows, _path_increments(n_mc, n_steps, 3031)))
    for r, report in zip((1, 2), reports):
        assert _agree(report.empirical, report.mc_stderr,
                      *chaoscalc._mean_and_stderr(xi ** (2 * r), r))


def test_orthogonality_of_kernel_slice_tensors():
    # distinct orders built from the m = 1 kernel slices are orthogonal
    kernel = build_kernel(2.0)
    g = _slice(kernel, 0.45, 0.25)
    report = isometry_report([g], [g, g], n_mc=20_000, seed=41, n_steps=512)
    assert report.theoretical == 0.0
    assert report.within(3.0)


def test_isometry_order_three_equal_factor():
    # E[I_3(g x g x g)^2] = 3! ||g||^6
    g = np.polynomial.Polynomial([0.8, 0.4])
    report = isometry_report([g] * 3, [g] * 3, n_mc=20_000, seed=43, n_steps=512)
    norm_sq = np.mean(g(np.arange(512) / 512) ** 2)  # the path-grid norm
    assert report.theoretical == pytest.approx(6.0 * norm_sq**3, rel=1e-10)
    assert report.within(3.0)


def test_moment_bound_order_one_with_quadrature_oracle():
    kernel = build_kernel(2.0)
    h = 0.25
    (report,) = moment_bound_reports(1, h, (1,), n_mc=10_000, seed=9, kernel=kernel)
    # b_{1,1} h^-1 = 2 ||k||^2 / h = 32
    assert report.bound == pytest.approx(2.0 * 4.0 / h)
    assert report.within_bound
    # oracle: E xi^2 = || K_h(t, .) ||^2 by direct quadrature
    slice_ = _slice(kernel, 0.45, h)
    norm_sq = l2_inner(slice_, slice_, quad_points=100_000)
    assert abs(report.empirical - norm_sq) <= 3 * report.mc_stderr


@pytest.mark.parametrize("r", [1, 2])
def test_moment_bound_order_two(r):
    kernel = build_kernel(2.0)
    (report,) = moment_bound_reports(2, math.exp(-2), (r,), n_mc=10_000, seed=17, kernel=kernel)
    assert report.within_bound


def test_moment_bound_interior_requirement():
    kernel = build_kernel(1.0)
    with pytest.raises(ValueError):
        moment_bound_reports(1, 0.25, (1,), 200, 0, kernel, t=[0.1])


def test_gridded_function_symmetry_helper():
    sym = GriddedFunction.from_callable(2, 8, lambda a, b: a + b)
    assert sym.is_symmetric()
    asym = GriddedFunction.from_callable(2, 8, lambda a, b: a + 2 * b)
    assert not asym.is_symmetric()


def test_symmetry_check_swaps_every_adjacent_axis_pair():
    # a + b + 2c is symmetric in its first two axes only
    partial = GriddedFunction.from_callable(3, 4, lambda a, b, c: a + b + 2 * c)
    assert not partial.is_symmetric()
    assert GriddedFunction.from_callable(4, 3, lambda a, b, c, d: a * b * c * d).is_symmetric()


def test_gridded_pairs_on_one_grid_match_the_cell_row_projection():
    # sum f f' / G^l against f contracted with f' projected on the cell rows
    rng = np.random.default_rng(21)
    for order, g, n_steps in ((1, 64, 512), (2, 16, 64), (3, 4, 64)):
        f, f2 = (GriddedFunction(order, g, rng.normal(size=(g,) * order)) for _ in range(2))
        rows = f.functional_rows(n_steps)
        assert path_grid_inner(f, rows, f2, rows, n_steps) == pytest.approx(
            float(np.sum(f.values * project(f2, rows, rows, n_steps))), rel=1e-12)


def test_gridded_function_validation():
    with pytest.raises(ValueError):
        GriddedFunction(2, 4, np.ones((4, 3)))
    with pytest.raises(ValueError):
        GriddedFunction(1, 3, np.array([1.0, np.nan, 0.0]))


def _increment_rows(n_rows, n_steps, seed):
    return np.random.default_rng(seed).normal(0.0, np.sqrt(1.0 / n_steps), (n_rows, n_steps))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_gridded_batch_matches_explicit_distinct_index_sum(order):
    # I_l(F) = sum over all index tuples of F_idx times the multiple integral of
    # the product of the cell indicators, whose pairwise inner products are
    # diag(1/G)
    g_size, n_steps = 4, 8
    rng = np.random.default_rng(order)
    f = GriddedFunction(order, g_size, rng.normal(size=(g_size,) * order))  # not symmetric
    rows = _increment_rows(5, n_steps, 10 + order)
    batch = _chaos(f, rows)
    gram = np.eye(g_size) / g_size
    for row, value in zip(rows, batch):
        levels = np.concatenate([[0.0], np.cumsum(row)])
        v = levels[2::2] - levels[:-2:2]  # coarse increments over two fine steps
        expected = sum(
            f.values[idx] * chaoscalc._chaos_from_parts(v[list(idx)], gram[np.ix_(idx, idx)])
            for idx in itertools.product(range(g_size), repeat=order)
        )
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("g_size", [4, 8])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_gridded_form_equals_hermite_form_on_a_step_function(order, g_size):
    # g is the step function with value u_a on cell a; the midpoint quadrature
    # of ||g||^2 is exact for it, so the two integrand forms of g^(x l) agree
    u = np.random.default_rng(g_size).uniform(0.5, 1.5, g_size)

    def g(t):
        return u[np.minimum((np.asarray(t) * g_size).astype(int), g_size - 1)]

    f = GriddedFunction.from_callable(order, g_size, lambda *xs: math.prod(g(x) for x in xs))
    rows = _increment_rows(50, 64, 20 + order)
    assert np.allclose(_chaos(f, rows), _chaos(EqualFactorComponent(order, g), rows),
                       rtol=0.0, atol=1e-12)


def test_batches_match_single_path_wrappers_row_by_row():
    grid = make_grid(128)
    paths = [sample_brownian(grid, 300 + i) for i in range(6)]
    rows = np.stack([w.increments for w in paths])
    g = np.polynomial.Polynomial([0.3, -1.0, 0.5])
    rng = np.random.default_rng(4)
    for order in (1, 2, 3):
        herm = _chaos(EqualFactorComponent(order, g), rows)
        tens = tensor_chaos_values([RAMP, g, ONE][:order], rows)
        values = rng.normal(size=(16,) * order)
        grid_vals = _chaos(GriddedFunction(order, 16, values), rows)
        for i, w in enumerate(paths):
            assert herm[i] == pytest.approx(hermite_chaos(g, order, w), rel=1e-12)
            assert tens[i] == pytest.approx(tensor_chaos([RAMP, g, ONE][:order], w), rel=1e-12)
            assert grid_vals[i] == pytest.approx(
                brute_multiple_integral(GriddedFunction(order, 16, values), w), rel=1e-12
            )


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_gridded_batch_is_adjoint_to_the_fit_on_the_slice_gram(order):
    # <F, fit_from_parts(x, cov, y, l)> = mean(y I_l(F)): the fit is the Wick
    # product of the same functionals, here slice integrals with a
    # non-diagonal covariance, which the evaluator must pair on
    g_size, n_steps, n = 4, 16, 30
    rows = slice_rows(build_kernel(2.0), 0.3, g_size, make_grid(n_steps))
    x, cov = left_point_integrals(rows, _increment_rows(n, n_steps, 40 + order))
    assert np.max(np.abs(cov - np.diag(np.diag(cov)))) > 0.1 * np.max(cov)
    rng = np.random.default_rng(50 + order)
    f = GriddedFunction(order, g_size, rng.normal(size=(g_size,) * order))
    y = rng.normal(size=n)
    fit = fit_from_parts(x, cov, y, order, 0.3)
    assert np.sum(f.values * fit.values) == pytest.approx(
        np.mean(y * f.chaos_from_functionals(x, cov)), rel=1e-12)


def test_gridded_batch_row_blocks_match_one_block():
    # an order-3 surface on G = 64 is evaluated 512 rows at a time
    rows = _increment_rows(1100, 64, 8)
    f = GriddedFunction(3, 64, np.random.default_rng(9).normal(size=(64, 64, 64)))
    batch = _chaos(f, rows)
    assert batch.shape == (1100,)
    for i in (0, 511, 512, 1099):
        assert batch[i] == pytest.approx(_chaos(f, rows[i:i + 1])[0], rel=1e-12)


def _weights(case, n_steps, rng):
    if case == "k < N":
        return rng.normal(size=(6, n_steps))
    if case == "rank-deficient":
        a = rng.normal(size=(4, n_steps))
        return np.vstack([a, a[0] + a[1], 2.0 * a[2] - a[3]])
    return rng.normal(size=(24, n_steps))  # k > N


@pytest.mark.parametrize("case", ["k < N", "rank-deficient", "k > N"])
def test_drawn_left_point_integrals_are_exact_in_distribution(case):
    n_steps, n = 16, 20_000
    a = _weights(case, n_steps, np.random.default_rng(31))
    target = a @ a.T
    xi, cov, _ = draw_from_factor(left_point_factor(a, np.empty((0, n_steps))), n,
                                  np.random.default_rng(32))
    assert xi.shape == (len(a), n)
    # one factor drawn twice gives the bits of two one-shot draws from the
    # same generator states, the summed rows' sums included
    summed, y = _weights("k < N", n_steps, np.random.default_rng(33))[:3], np.arange(50.0)
    factor = left_point_factor(a, summed)
    once, reused = np.random.default_rng(34), np.random.default_rng(34)
    for _ in range(2):
        want = draw_from_factor(left_point_factor(a, summed), 50, once)
        got = draw_from_factor(factor, 50, reused)
        for w, g in zip((*want[:2], want[2](y)), (*got[:2], got[2](y))):
            assert np.array_equal(w.view(np.uint64), g.view(np.uint64))
    # the covariance is the one left_point_integrals pairs on, A A^T / N
    assert np.array_equal(cov, target / n_steps)
    assert np.array_equal(cov, left_point_integrals(a, np.zeros((1, n_steps)))[1])
    r = chaoscalc._functional_factor(a)
    assert r.shape == (min(len(a), n_steps), len(a))
    assert np.max(np.abs(r.T @ r - target)) <= 1e-12 * np.max(np.abs(target))
    # zero-mean Gaussian: Var(x_i x_j) = S_ii S_jj + S_ij^2
    empirical = xi @ xi.T / n
    stderr = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    assert np.max(np.abs(empirical - cov) / stderr) <= 5.0
    if case == "rank-deficient":
        # the draws keep the rows' linear relations
        scale = np.max(np.abs(xi))
        assert np.max(np.abs(xi[4] - xi[0] - xi[1])) <= 1e-12 * scale
        assert np.max(np.abs(xi[5] - 2.0 * xi[2] + xi[3])) <= 1e-12 * scale
