import functools
import itertools
import json
import math

import numpy as np
import pytest

from chaosbench._util import derive_seed, midpoints
from chaosbench.benchcli import _parse_truth
from chaosbench.chaoscalc import GriddedFunction, draw_from_factor, left_point_factor
from chaosbench.chaosreg import (
    MODEL_FORMAT,
    ChaosKernelEstimate,
    FittedModel,
    Sample,
    _fit_generic,
    _fit_parts,
    estimate_mean,
    fit_chaos_kernel,
    fit_from_parts,
    fit_mean,
    model_from_json,
    model_to_json,
    predict,
    risk_isometry,
    risk_monte_carlo,
    slice_rows,
)
from chaosbench.kernelkit import build_kernel, slice_matrix
from chaosbench.mappingzoo import (
    ConstantComponent,
    EqualFactorComponent,
    GaussianNoise,
    GriddedComponent,
    MappingSpec,
    evaluate_mapping,
    quadratic_terminal,
    synthesize,
    synthesis_factor,
    synthesize_functionals,
)
from chaosbench.pathlab import BrownianPath, make_grid, sample_brownian, sample_brownian_paths

K0 = build_kernel(1.0)
K1 = build_kernel(2.0)


def _symmetric(values):
    """The symmetric tensor that takes each entry of ``values`` at its sorted index tuple."""
    return values[tuple(np.sort(np.indices(values.shape), axis=0))]


def _toy_sample(n=16, n_steps=64, seed=0, responses=None):
    grid = make_grid(n_steps)
    rows = np.stack([sample_brownian(grid, derive_seed(seed, i)).values for i in range(n)])
    if responses is None:
        responses = np.arange(n, dtype=float)
    return Sample(grid, responses, rows)


def test_estimate_mean_examples():
    assert estimate_mean(_toy_sample(3, responses=np.array([1.0, 1.0, 1.0]))) == 1.0
    assert estimate_mean(_toy_sample(2, responses=np.array([0.0, 2.0]))) == 1.0


def test_estimate_mean_is_clt_consistent():
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.normal(3.0, 1.0, 400)
        sample = _toy_sample(400, 8, 1, responses=y)
        assert abs(estimate_mean(sample) - 3.0) <= 3.0 / np.sqrt(400) + 3 * 1.0 / np.sqrt(400)


def test_sample_validation():
    grid = make_grid(8)
    with pytest.raises(ValueError):
        Sample(grid, np.array([1.0]), np.zeros((1, 9)))
    with pytest.raises(ValueError):
        Sample(grid, np.array([1.0, 2.0]), np.ones((2, 9)))  # paths must start at 0


def test_sample_reuses_each_reduced_pair_and_reduces_the_rest():
    # pairs reduced at synthesis, asked for in any subset and order, and the
    # pairs of weights it did not reduce are the bits of a pass over the paths
    grid = make_grid(64)
    a, b, c = (slice_rows(K1, h, 8, grid) for h in (0.4, 0.3, 0.2))
    sample = synthesize(quadratic_terminal(), 50, grid, 3, [a, b])
    got = sample.left_point_integrals([c, b, a])
    assert got[1] is sample.reduced[1][1] and got[2] is sample.reduced[0][1]
    paths = sample_brownian_paths(grid, sample.n, sample.paths.seed)
    want = Sample(grid, sample.responses, paths).left_point_integrals([c, b, a])
    for (x, cov), (x0, cov0) in zip(got, want):
        assert np.array_equal(x, x0) and np.array_equal(cov, cov0)


def test_fit_zero_responses_gives_zero_surface():
    sample = _toy_sample(8, responses=np.zeros(8))
    est = fit_chaos_kernel(sample, 2, 0.25, 8, K1)
    assert np.all(est.values == 0.0)


def test_fit_is_linear_in_responses():
    sample = _toy_sample(10, seed=3)
    scaled = Sample(sample.grid, 2.5 * sample.responses, sample.paths)
    a = fit_chaos_kernel(sample, 2, 0.3, 8, K1)
    b = fit_chaos_kernel(scaled, 2, 0.3, 8, K1)
    assert np.allclose(b.values, 2.5 * a.values, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order", [2, 3])
def test_fitted_surface_is_symmetric(order):
    sample = _toy_sample(12, seed=7)
    assert fit_chaos_kernel(sample, order, 0.3, 6, K1).is_symmetric(tol=1e-10)


def test_order_three_fit_is_exactly_symmetric():
    sample = synthesize(quadratic_terminal(), 400, make_grid(128), 17)
    values = fit_chaos_kernel(sample, 3, 0.25, 16, K1).values
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(values, np.transpose(values, perm))


@pytest.mark.parametrize("g", [2, 5])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_fit_is_exactly_symmetric_under_every_transpose(order, g):
    # every entry is read from its sorted index tuple, on the smallest grid too
    sample = _toy_sample(12, seed=5)
    values = fit_chaos_kernel(sample, order, 0.3, g, K1).values
    for perm in itertools.permutations(range(order)):
        assert np.array_equal(values, np.transpose(values, perm))


def test_order_one_fit_is_the_first_moment_bit_for_bit():
    sample = _toy_sample(11, seed=4)
    x, gram = _fit_parts(sample, 0.3, 8, K1)
    values = fit_from_parts(x, gram, sample.responses, 1, 0.3).values
    assert np.array_equal(values, x @ sample.responses / sample.n)


def test_order_three_matches_generic_route():
    # the sorted-tuple fit and the ordered-node recursion on the path-grid
    # gram must agree at every order, on grids of 2 and 4 points per axis
    sample = _toy_sample(9, seed=11)
    for g in (2, 4):
        x, gram = _fit_parts(sample, 0.4, g, K1)
        for order in (1, 2, 3, 4):
            est = fit_chaos_kernel(sample, order, 0.4, g, K1)
            generic = _fit_generic(x, gram, sample.responses, order, g)
            np.testing.assert_allclose(est.values, generic, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(generic)))


@pytest.mark.parametrize("order", [2, 3])
def test_fit_mean_is_path_grid_smoothed_constant(order):
    # For unit constant components, E[fhat_l] = s^(x l) exactly, where
    # s_a = sum_j sl_a(t_j) / N is the left-point sum of slice a: the Ito
    # correction removes the expected diagonal of x_a x_b only when its gram
    # is the path-grid gram sl sl^T / N.  The order-2 correction is scaled by
    # a and the order-3 one by f_1, so each truth switches its own one on.  At
    # h = 0.1 the kernel-4 gram on 256 steps is up to 3.0 away from the exact
    # L2 gram, many standard errors of the ensemble mean.
    h, g, grid = 0.1, 4, make_grid(256)
    if order == 2:
        truth = MappingSpec(1.0, (ConstantComponent(2, 1.0),), GaussianNoise(0.0))
        reps, n = 50, 1000
    else:
        truth = MappingSpec(
            0.0, (ConstantComponent(1, 1.0), ConstantComponent(3, 1.0)), GaussianNoise(0.0)
        )
        reps, n = 100, 4000
    rows = [slice_rows(K1, h, g, grid)]  # reduced at synthesis: no fit redraws the paths
    fits = np.array([
        fit_chaos_kernel(synthesize(truth, n, grid, 7000 + r, rows), order, h, g, K1).values
        for r in range(reps)
    ])
    s = slice_matrix(K1, midpoints(g), h, grid.points[:-1]).sum(axis=1) / grid.n_steps
    target = s
    for _ in range(order - 1):
        target = np.multiply.outer(target, s)
    assert np.allclose(fit_mean(truth, order, h, g, K1, grid), target, rtol=0.0, atol=1e-12)
    z = (fits.mean(axis=0) - target) / (fits.std(axis=0, ddof=1) / np.sqrt(reps))
    # 3.5 sigma over the at most 20 distinct entries: family-wise level about 1 %
    assert np.max(np.abs(z)) <= 3.5


def test_fit_is_centered_on_smoothed_truth():
    # estimator mean matches the kernel-smoothed surface on the path grid,
    # fit_mean, within MC resolution, with noise in the responses
    truth = quadratic_terminal(noise=GaussianNoise(2.0))
    grid = make_grid(512)
    smoothed = fit_mean(truth, 2, 0.25, 8, K0, grid)
    reps, n = 200, 100
    fits = np.empty((reps, 8, 8))
    for r in range(reps):
        sample = synthesize(truth, n, grid, 5000 + r)
        fits[r] = fit_chaos_kernel(sample, 2, 0.25, 8, K0).values
    stderr = fits.std(axis=0, ddof=1) / np.sqrt(reps)
    z = (fits.mean(axis=0) - smoothed) / stderr
    assert np.max(np.abs(z)) <= 3.0
    gaps = (fits - smoothed).mean(axis=(1, 2))
    assert abs(gaps.mean()) <= 3.0 * gaps.std(ddof=1) / np.sqrt(reps)


def test_fit_bandwidth_validation():
    sample = _toy_sample(4)
    with pytest.raises(ValueError):
        fit_chaos_kernel(sample, 2, 1.2, 8, K1)


def _fit_mean_truth(form):
    """Noise-free truth of orders 1-3 in one component form, a = 0.7."""
    if form == "equal_factor":
        ramp = np.polynomial.Polynomial([1.0, 0.5])
        comps = (EqualFactorComponent(1, ramp), EqualFactorComponent(2, ramp),
                 ConstantComponent(3, 1.5))
    else:
        wave = lambda *u: 1.0 + np.sin(3.0 * sum(u))  # noqa: E731
        comps = tuple(GriddedComponent.from_callable(order, 8, wave) for order in (1, 2, 3))
    return MappingSpec(0.7, comps, GaussianNoise(0.0))


def _assert_centered_on_fit_mean(fits, truth, h, g, grid):
    for order, out in fits.items():
        reps = len(out)
        target = fit_mean(truth, order, h, g, K1, grid)
        z = (out.mean(axis=0) - target) / (out.std(axis=0, ddof=1) / np.sqrt(reps))
        # 3.5 sigma over the at most 20 distinct entries: family-wise level about 1 %
        assert np.max(np.abs(z)) <= 3.5, (order, z)
        gaps = (out - target).reshape(reps, -1).mean(axis=1)
        assert abs(gaps.mean()) <= 3.0 * gaps.std(ddof=1) / np.sqrt(reps), order


@pytest.mark.parametrize("form", ["equal_factor", "gridded"])
def test_fit_is_centered_on_fit_mean(form):
    # Noise-free truths, so no noise hides a gap between the fits' ensemble
    # mean and the exact mean S^(x l) f_l.  a != 0 switches the order-2 Ito
    # correction on and the order-1 component the order-3 one.  The order-3
    # equal-factor component is a constant: its Hermite norm is its grid norm,
    # so it adds nothing to order 1.  At N = 64 the left-point sums move the
    # mean well away from its continuum limit int f_l K_h, which fails here.
    g, n_steps, h, reps, n = 4, 64, 0.25, 100, 2000
    truth = _fit_mean_truth(form)
    grid = make_grid(n_steps)
    fits = {order: np.empty((reps,) + (g,) * order) for order in (1, 2, 3)}
    for r in range(reps):
        sample = synthesize(truth, n, grid, 9100 + r)
        for order, out in fits.items():
            out[r] = fit_chaos_kernel(sample, order, h, g, K1).values
    _assert_centered_on_fit_mean(fits, truth, h, g, grid)


@pytest.mark.parametrize("form, summed", [("equal_factor", False), ("gridded", False),
                                          ("gridded", True)],
                         ids=["equal_factor", "gridded", "gridded_summed"])
def test_direct_route_fit_is_centered_on_fit_mean(form, summed):
    # the same design with fits from drawn slice integrals, no paths: the
    # draw keeps the joint law of the slice integrals and the truth's own.
    # Summed, the slice rows are drawn only as sum_i Y_i x_i, n times the
    # order-1 fit
    g, n_steps, h, reps, n = 4, 64, 0.25, 100, 2000
    truth = _fit_mean_truth(form)
    grid = make_grid(n_steps)
    rows, none = slice_rows(K1, h, g, grid), np.empty((0, n_steps))
    fits = {order: np.empty((reps,) + (g,) * order) for order in ((1,) if summed else (1, 2, 3))}
    factor = synthesis_factor(truth, *((none, rows) if summed else (rows, none)))
    for r in range(reps):
        if summed:
            fits[1][r] = synthesize_functionals(truth, factor, n, 9100 + r)[3] / n
            continue
        x, gram, y, _ = synthesize_functionals(truth, factor, n, 9100 + r)
        for order, out in fits.items():
            out[r] = fit_from_parts(x, gram, y, order, h).values
    _assert_centered_on_fit_mean(fits, truth, h, g, grid)


class _Normals:
    """Stands in for a Generator: ``normal`` returns the given arrays in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def normal(self, loc, scale, size):
        out = self.draws.pop(0)
        assert out.shape == np.empty(size).shape
        return out


# (per-pair rows, summed rows) at N = 64: both, no per-pair rows, no summed
# rows, and per-pair rows k >= N that span every path direction
@pytest.mark.parametrize("k_pair, k_summed", [(5, 8), (0, 8), (5, 0), (70, 8)])
def test_summed_route_is_the_per_pair_moment_for_the_same_coordinates(k_pair, k_summed):
    # Per pair, the summed rows C are x = (C Q_P) a + r, with a = Q_P^T dW the
    # pairs' coordinates and r = (C - C Q_P Q_P^T) dW; that is exactly C dW.
    # Given the same a and the residual sum sum_i y_i r_i, the summed route's
    # sum equals x . y
    n_steps, n = 64, 300
    rng = np.random.default_rng(41)
    weights, summed = rng.normal(size=(k_pair, n_steps)), rng.normal(size=(k_summed, n_steps))
    dw = rng.normal(0.0, math.sqrt(1.0 / n_steps), (n, n_steps))
    y = 1.0 + rng.normal(size=n)
    q, _ = np.linalg.qr(np.concatenate([weights, summed]).T)
    q_p, q_perp = q[:, :min(k_pair, n_steps)], q[:, min(k_pair, n_steps):]
    a = dw @ q_p
    x = (summed @ q_p) @ a.T + (summed - (summed @ q_p) @ q_p.T) @ dw.T

    def close(got, want):
        return np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=1.0)

    assert close(x, summed @ dw.T)
    # the residual sum as ||y|| times coordinates of the orthogonal rest
    z = (dw @ q_perp).T @ y / np.linalg.norm(y)
    xi, cov, weighted_sum = draw_from_factor(left_point_factor(weights, summed), n,
                                             _Normals(a, z))
    assert close(xi, weights @ dw.T)
    assert np.array_equal(cov, weights @ weights.T / n_steps)
    assert weighted_sum(y).shape == (k_summed,)
    assert close(weighted_sum(y) / n, x @ y / n)


def test_summed_route_matches_the_per_pair_route_in_variance():
    # M_1 = sum_i y_i x_i / n and Ybar on G = 8, N = 64, n = 200, drawn per
    # pair (seeds 7000 + r) and summed (seeds 17000 + r), 4000 replications
    # each, noise sigma = 0.5.  Each variance gap is measured in standard
    # errors of the two sample variances, sqrt(Var((m - mbar)^2) / reps)
    # each, and each mean gap in those of the means: at most 4 over the 18
    g, n_steps, n, reps, h = 8, 64, 200, 4000, 0.25
    truth = MappingSpec(0.7, _fit_mean_truth("equal_factor").components, GaussianNoise(0.5))
    rows, none = slice_rows(K1, h, g, make_grid(n_steps)), np.empty((0, n_steps))
    per_pair, summed = np.empty((reps, g + 1)), np.empty((reps, g + 1))
    drawn, moments = synthesis_factor(truth, rows, none), synthesis_factor(truth, none, rows)
    for r in range(reps):
        x, _, y, _ = synthesize_functionals(truth, drawn, n, 7000 + r)
        per_pair[r] = [*(x @ y / n), y.mean()]
        _, _, y, sums = synthesize_functionals(truth, moments, n, 17000 + r)
        summed[r] = [*(sums / n), y.mean()]
    sq = [(m - m.mean(axis=0)) ** 2 for m in (per_pair, summed)]
    var_z = (sq[0].mean(axis=0) - sq[1].mean(axis=0)) / np.sqrt(
        (sq[0].var(axis=0, ddof=1) + sq[1].var(axis=0, ddof=1)) / reps)
    mean_z = (per_pair.mean(axis=0) - summed.mean(axis=0)) / np.sqrt(
        (per_pair.var(axis=0, ddof=1) + summed.var(axis=0, ddof=1)) / reps)
    ratio = summed.var(axis=0) / per_pair.var(axis=0)
    assert np.max(np.abs(var_z)) <= 4.0, (var_z, ratio)
    assert np.max(np.abs(mean_z)) <= 4.0, mean_z


@pytest.mark.parametrize("s_star, h, g, n_steps",
                         [(1.0, 0.2, 64, 512), (2.0, math.exp(-2), 16, 128), (3.5, 0.3, 8, 64)])
def test_fit_mean_order_one_matches_benchmark_moments(s_star, h, g, n_steps, perfbench):
    # the benchmark's own order-1 means E[Y x_a], from a Gauss-Hermite rule
    # on (W(1), I_1(g), x_a) and a kernel solved from its moment system
    checks, workloads = perfbench("checks"), perfbench("workloads")
    coeffs, _ = checks.kernel_poly(s_star)
    for doc in (workloads.RATE_TRUTH, "quadratic_terminal"):
        means, _ = checks.order1_moments(doc, coeffs, h, g, n_steps)
        exact = fit_mean(_parse_truth(doc, n_steps), 1, h, g, build_kernel(s_star),
                         make_grid(n_steps))
        assert np.max(np.abs(exact - means)) <= 1e-12, doc


# flat kernel, G = 8, N = 100, h = 0.2: every window holds N h = 20 left points
FLAT = dict(bandwidth=0.2, grid_size=8, kernel=K0, grid=make_grid(100))


def test_fit_mean_constant_is_exact_on_whole_windows():
    for order in (1, 2, 3):
        truth = MappingSpec(0.0, (ConstantComponent(order, 2.5),), GaussianNoise(0.0))
        assert np.max(np.abs(fit_mean(truth, order, **FLAT) - 2.5)) <= 1e-12
        # an order the expansion lacks has mean zero
        assert np.all(fit_mean(truth, order + 1, **FLAT) == 0.0)


def test_fit_mean_flat_kernel_is_left_point_window_average():
    # the window is [t, t + h] on the left half and [t - h, t] on the right
    truth = MappingSpec(0.0, (EqualFactorComponent(1, lambda u: u),), GaussianNoise(0.0))
    h, t, t_left = FLAT["bandwidth"], midpoints(FLAT["grid_size"]), FLAT["grid"].points[:-1]
    lo = np.where(t <= 0.5, t, t - h)
    inside = (t_left >= lo[:, None]) & (t_left <= lo[:, None] + h)
    assert np.all(inside.sum(axis=1) == 20)
    mean = fit_mean(truth, 1, **FLAT)
    assert np.allclose(mean, (inside * t_left).sum(axis=1) / 20, rtol=0.0, atol=1e-12)
    # and within half a path step of the continuum window average t +- h/2
    assert np.max(np.abs(mean - np.where(t <= 0.5, t + h / 2, t - h / 2))) <= 0.5 / 100


def test_fit_mean_bias_shrinks_with_bandwidth():
    # at N = 1024 the left-point error stays below the smoothing bias down to h = 0.05
    f = np.polynomial.Polynomial([0.0, 1.0, -1.0])  # u - u^2, curvature everywhere
    truth = MappingSpec(0.0, (EqualFactorComponent(1, f),), GaussianNoise(0.0))
    t = midpoints(16)
    errors = []
    for h in (0.4, 0.2, 0.1, 0.05):
        mean = fit_mean(truth, 1, h, 16, K0, make_grid(1024))
        errors.append(np.sqrt(np.mean((mean - f(t)) ** 2)))
    assert errors == sorted(errors, reverse=True)


def _model_with(values_by_order: dict, a: float, h=0.25) -> FittedModel:
    estimates = tuple(
        ChaosKernelEstimate(order, values.shape[0], values, bandwidth=h)
        for order, values in values_by_order.items()
    )
    return FittedModel(a, estimates)


def test_predict_mean_only():
    model = FittedModel(3.25, ())
    w = sample_brownian(make_grid(64), 1)
    assert predict(model, w) == 3.25


def test_predict_order_one_telescopes():
    model = _model_with({1: np.ones(16)}, 1.5)
    w = sample_brownian(make_grid(64), 2)
    assert predict(model, w) == pytest.approx(1.5 + w.values[-1], abs=1e-10)


def test_predict_order_two_quadratic_variation():
    # the unit order-2 surface integrates exactly to W(1)^2 - 1 on every grid
    w = sample_brownian(make_grid(512), 3)
    target = (w.values[-1] ** 2 - 1.0) / 2.0
    for g in (8, 64, 512):
        model = _model_with({2: np.ones((g, g))}, 0.0)
        assert predict(model, w) == pytest.approx(target, abs=1e-12)


def test_predict_order_four_unit_surface_is_hermite():
    # the unit order-4 surface integrates exactly to He_4(W(1)) on every grid
    w = sample_brownian(make_grid(64), 0)
    w1 = w.values[-1]
    target = (w1**4 - 6.0 * w1**2 + 3.0) / math.factorial(4)
    for g in (4, 8):
        model = _model_with({4: np.ones((g,) * 4)}, 0.0)
        assert predict(model, w) == pytest.approx(target, abs=1e-12)


def test_risk_isometry_zero_for_exact_model():
    truth = quadratic_terminal()
    model = _model_with({2: np.ones((16, 16))}, truth.a)
    report = risk_isometry(model, truth, 512)
    assert report.value == 0.0
    assert report.mc_stderr == 0.0


def test_risk_isometry_missing_order_breakdown():
    truth = quadratic_terminal()
    model = FittedModel(truth.a, ())
    report = risk_isometry(model, truth, 512)
    # || f_2 ||^2 / 2! = 1/2 for the unit constant component
    assert report.breakdown[2] == pytest.approx(0.5, abs=1e-12)
    assert report.value == pytest.approx(np.sqrt(0.5), abs=1e-12)


# criterion 7's two-order mix: a non-constant order-1 factor, whose path-grid
# norm is not its norm on the G midpoints
TWO_ORDER_MIX = MappingSpec(1.0, (EqualFactorComponent(1, np.polynomial.Polynomial([0.0, 1.0])),
                                  ConstantComponent(2, 0.5)), GaussianNoise(0.5))


@pytest.mark.parametrize("truth", [quadratic_terminal(), TWO_ORDER_MIX], ids=["quadratic", "mix"])
def test_risk_monte_carlo_agrees_with_isometry(truth):
    sample = synthesize(truth, 2000, make_grid(512), 424242)
    model = FittedModel(estimate_mean(sample), tuple(
        fit_chaos_kernel(sample, order, 0.25, 64, K1) for order in truth.orders))
    iso = risk_isometry(model, truth, 512)
    # 20 000 draws put 3 se at about 2 % of the risk
    mc = risk_monte_carlo(model, truth, 2.0, 20_000, 777, 512)
    assert abs(iso.value - mc.value) <= 3 * mc.mc_stderr


def test_risk_monte_carlo_self_comparison_is_discretization_floor():
    # a constant surface integrates exactly on any grid, so a perfect model of
    # a constant-surface truth has no discretization floor under Monte Carlo risk
    for order, g in ((2, 64), (3, 64), (4, 16)):
        truth = MappingSpec(1.0, (ConstantComponent(order, 1.0),), GaussianNoise(0.0))
        perfect = _model_with({order: np.ones((g,) * order)}, truth.a)
        assert risk_monte_carlo(perfect, truth, 2.0, 300, 11, 512).value < 1e-12


def test_risk_monte_carlo_of_constants_draws_nothing():
    # no component on either side: no row to draw, and the risk is |a - a'|
    truth = MappingSpec(1.0, (), GaussianNoise(0.0))
    report = risk_monte_carlo(FittedModel(0.25, ()), truth, 4.0, 200, 3, 64)
    assert (report.value, report.mc_stderr) == (0.75, 0.0)


def test_risk_monte_carlo_moment_monotonicity():
    truth = quadratic_terminal()
    sample = synthesize(truth, 500, make_grid(256), 9)
    est = fit_chaos_kernel(sample, 2, 0.25, 32, K1)
    model = FittedModel(estimate_mean(sample), (est,))
    r2 = risk_monte_carlo(model, truth, 2.0, 200, 4, 256)
    r4 = risk_monte_carlo(model, truth, 4.0, 200, 4, 256)
    assert r4.value >= r2.value


def test_risk_decreases_with_sample_size():
    truth = quadratic_terminal()
    grid = make_grid(256)
    means = {}
    for n in (400, 1600):
        risks = []
        for rep in range(10):
            sample = synthesize(truth, n, grid, derive_seed(33, n, rep))
            est = fit_chaos_kernel(sample, 2, 0.25, 16, K1)
            model = FittedModel(estimate_mean(sample), (est,))
            risks.append(risk_isometry(model, truth, grid.n_steps).value)
        means[n] = np.mean(risks)
    assert means[1600] < means[400]


def test_model_json_round_trip():
    values = np.arange(16.0).reshape(4, 4)
    values = (values + values.T) / 2
    model = _model_with({1: np.arange(4.0), 2: values}, 1.25)
    back = model_from_json(model_to_json(model))
    assert back.a == model.a
    assert back.orders == (1, 2)
    for a, b in zip(back.components, model.components):
        assert a.order == b.order and a.bandwidth == b.bandwidth
        assert np.array_equal(a.values, b.values)


def _model_json_oracle(model: FittedModel) -> str:
    """The whole model document through ``json.dumps`` with compact separators."""
    doc = {
        "format": MODEL_FORMAT,
        "mean_hat": model.a,
        "orders": [
            {"order": e.order, "bandwidth": e.bandwidth, "grid_size": e.grid_size,
             "values": e.values.ravel(order="C").tolist()}
            for e in model.components
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _same_bits(a, b) -> bool:
    """Whether two JSON documents hold the same keys, types and float bits."""
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return type(b) is list and len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, float):
        return type(b) is float and _bits(a) == _bits(b)
    return type(a) is type(b) and a == b


# -0.0 and 0.0 differ only in their bits; the smallest subnormal, a huge
# value, the largest finite values, values whose text differs between writers
# (1e-05, 1.5e-7) and integral values
SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
                    -1.7976931348623157e308, 1e-05, 1.5e-7, 1.0, 2.0, -3.0])


def _random_finite(rng, shape):
    """Random finite float64 bit patterns, any exponent, subnormals included."""
    values = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    return np.where(np.isfinite(values), values, 0.5)


@pytest.mark.parametrize("case", ["symmetrized", "non_symmetric", "special_values",
                                  "random_bits"])
def test_model_json_equals_json_dumps(case):
    rng = np.random.default_rng(23)
    surfaces = {}
    for order in (1, 2, 3, 4):
        shape = (5,) * order
        if case == "special_values":
            values = rng.choice(SPECIAL, size=shape)
            values.flat[:2] = SPECIAL[:2]
        elif case == "random_bits":
            values = _random_finite(rng, shape)
        else:
            values = rng.normal(size=shape)
            if case == "symmetrized":
                values = _symmetric(values)
        surfaces[order] = values
    model = _model_with(surfaces, -0.0 if case == "special_values" else 1.25, h=0.1)
    text = model_to_json(model)
    # a json reader (the benchmark's checker) sees the json.dumps document's values
    assert _same_bits(json.loads(text), json.loads(_model_json_oracle(model)))
    # and the files that json.dumps wrote read back to the same bits
    for back in (model_from_json(text), model_from_json(_model_json_oracle(model))):
        assert _bits(back.a) == _bits(model.a)
        assert back.orders == model.orders
        for a, b in zip(back.components, model.components):
            assert (a.order, a.grid_size, a.bandwidth) == (b.order, b.grid_size, b.bandwidth)
            assert np.array_equal(_bits(a.values), _bits(b.values))


@pytest.mark.parametrize("build, component", [
    (lambda comps: MappingSpec(0.0, comps, GaussianNoise(0.0)),
     lambda order: ConstantComponent(order, 1.0)),
    (lambda comps: FittedModel(0.0, comps),
     lambda order: ChaosKernelEstimate(order, 4, np.ones((4,) * order), bandwidth=0.25)),
], ids=["MappingSpec", "FittedModel"])
def test_expansion_order_rules(build, component):
    with pytest.raises(ValueError, match="at most one component per order"):
        build((component(1), component(1)))
    with pytest.raises(ValueError, match="orders must be >= 1"):
        build((component(0),))
    assert build((component(3), component(1), component(2))).orders == (1, 2, 3)


def test_model_of_a_gridded_truth_reproduces_it_exactly():
    g = 8
    rng = np.random.default_rng(3)
    surfaces = {order: _symmetric(rng.normal(size=(g,) * order)) for order in (1, 2, 3)}
    truth = MappingSpec(0.5, tuple(
        GriddedComponent(order, g, values)
        for order, values in surfaces.items()), GaussianNoise(0.0))
    model = FittedModel(truth.a, tuple(
        ChaosKernelEstimate(order, g, values, bandwidth=0.25)
        for order, values in surfaces.items()))
    increments = np.diff(sample_brownian_paths(make_grid(64), 50, 5), axis=1)
    assert np.array_equal(model.values(increments), truth.values(increments))
    assert risk_isometry(model, truth, 64).value == 0.0
    assert risk_monte_carlo(model, truth, 2.0, 200, 9, 64).value == 0.0


def test_risk_isometry_of_an_exact_model_is_zero_on_every_path_grid():
    # the unit surface is the unit truth on every path grid its cells divide
    truth = quadratic_terminal()
    model = _model_with({2: np.ones((16, 16))}, truth.a)
    for n_steps in (16, 64, 512):
        assert risk_isometry(model, truth, n_steps).value == 0.0
    with pytest.raises(ValueError, match="grid_size 16 does not divide"):
        risk_isometry(model, truth, 8)


def _on_left_tuples(component, n_steps):
    """f_l at all N^l left-point tuples (t_j1, ..., t_jl), tabulated directly."""
    if isinstance(component, GriddedFunction):
        cell = np.arange(n_steps) * component.grid_size // n_steps  # the cell holding t_j
        return component.values[np.ix_(*[cell] * component.order)]
    row = np.asarray(component.g(np.arange(n_steps) / n_steps), dtype=float)
    return component.scale * functools.reduce(np.multiply.outer, [row] * component.order)


def _symmetric_surface(rng, order, g):
    return _symmetric(rng.normal(size=(g,) * order))


@pytest.mark.parametrize("form", ["equal_factor", "gridded"])
def test_risk_isometry_is_the_brute_path_grid_second_moment(form):
    # R_2^2 = (Ybar - a)^2 + sum_l mean_j (fhat_l(t_j) - f_l(t_j))^2 / l! over
    # all N^l left-point tuples j; the model's G is 8, a gridded truth's 16 and 4
    n_steps, rng = 64, np.random.default_rng(11)
    if form == "equal_factor":  # order 2 only in the truth
        model_orders = (1, 3)
        comps = tuple(EqualFactorComponent(order, np.polynomial.Polynomial(coeffs), scale)
                      for order, coeffs, scale in ((1, [1.0, 0.5], 0.8),
                                                   (2, [0.2, -1.0, 2.0], 1.5),
                                                   (3, [0.5, 1.0], -0.7)))
    else:  # order 1 only in the model
        model_orders = (1, 2, 3)
        comps = (GriddedComponent(2, 16, _symmetric_surface(rng, 2, 16)),
                 GriddedComponent(3, 4, _symmetric_surface(rng, 3, 4)))
    truth = MappingSpec(0.4, comps, GaussianNoise(0.0))
    model = _model_with({order: _symmetric_surface(rng, order, 8) for order in model_orders}, 0.3)
    brute = (model.a - truth.a) ** 2
    for order in range(1, 4):
        sides = [sum((_on_left_tuples(c, n_steps) for c in e.components if c.order == order),
                     np.zeros((n_steps,) * order)) for e in (model, truth)]
        brute += np.mean((sides[0] - sides[1]) ** 2) / math.factorial(order)
    assert risk_isometry(model, truth, n_steps).value ** 2 == pytest.approx(brute, rel=1e-12)


def test_sample_rejects_non_finite_responses():
    grid = make_grid(8)
    rows = np.zeros((2, 9))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            Sample(grid, np.array([1.0, bad]), rows)


def _order_three_model(g=16):
    rng = np.random.default_rng(12)
    sym = {}
    for order in (1, 2, 3):
        sym[order] = _symmetric(rng.normal(size=(g,) * order))
    return _model_with(sym, 0.7)


def test_model_values_match_predict_row_by_row():
    model = _order_three_model()
    grid = make_grid(128)
    rows = sample_brownian_paths(grid, 7, 31)
    batch = model.values(np.diff(rows, axis=1))
    for values, value in zip(rows, batch):
        assert value == pytest.approx(predict(model, BrownianPath(grid, values)), rel=1e-12)


def _order_one_and_three_truth():
    return MappingSpec(0.5, (EqualFactorComponent(1, np.polynomial.Polynomial([1.0, 0.5])),
                             ConstantComponent(3, 1.0)), GaussianNoise(0.0))


def test_risk_monte_carlo_equals_explicit_per_draw_formula():
    # the draw is one factor draw from default_rng(seed) of the model's cell
    # rows, which its three surfaces share and so are stacked once, over the
    # truth's rows g and 1; each draw's error is the per-draw formula on them
    model, truth = _order_three_model(), _order_one_and_three_truth()
    n_mc, seed, p, n_steps = 300, 77, 4.0, 128
    cells = model.components[0].functional_rows(n_steps)
    g = len(cells)
    rows = np.vstack([cells, 1.0 + 0.5 * np.arange(n_steps) / n_steps, np.ones(n_steps)])
    xi, cov, _ = draw_from_factor(left_point_factor(rows, rows[:0]), n_mc,
                                  np.random.default_rng(seed))
    diffs = []
    for x in xi.T[:, :, None]:
        fitted = model.a + sum(c.chaos_from_functionals(x[:g], cov[:g, :g])[0]
                               / math.factorial(c.order) for c in model.components)
        # I_3(1) = u^3 - 3 u, since ||1||_N^2 = 1
        u = x[g + 1, 0]
        diffs.append(fitted - (0.5 + x[g, 0] + (u**3 - 3.0 * u) / 6.0))
    report = risk_monte_carlo(model, truth, p, n_mc, seed, n_steps=n_steps)
    powered = np.abs(diffs) ** p
    mean = np.mean(powered)
    assert report.value == pytest.approx(mean ** (1 / p), rel=1e-12)
    # delta method for x -> x^(1/p) applied to the ddof-1 standard error of the mean
    stderr = np.std(powered, ddof=1) / np.sqrt(n_mc) / p * mean ** (1 / p - 1)
    assert report.mc_stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_risk_monte_carlo_draws_match_the_path_route(p):
    # drawn from seed 77 against predict - evaluate_mapping on 2000 paths of seed 78
    model, truth = _order_three_model(), _order_one_and_three_truth()
    n_mc, grid = 2000, make_grid(128)
    report = risk_monte_carlo(model, truth, p, n_mc, 77, n_steps=128)
    paths = [BrownianPath(grid, v) for v in sample_brownian_paths(grid, n_mc, 78)]
    powered = np.abs([predict(model, w) - evaluate_mapping(truth, w) for w in paths]) ** p
    mean = np.mean(powered)
    stderr = np.std(powered, ddof=1) / np.sqrt(n_mc) / p * mean ** (1 / p - 1)
    assert abs(report.value - mean ** (1 / p)) <= 3.0 * math.hypot(report.mc_stderr, stderr)
