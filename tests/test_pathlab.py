import numpy as np
import pytest

from chaosbench.pathlab import (
    BrownianPath,
    GenericDiffusion,
    GeometricBM,
    OrnsteinUhlenbeck,
    brownian_increments,
    make_grid,
    reconstruct_coprocess,
    sample_brownian,
    sample_brownian_paths,
    simulate_diffusion,
)


def test_make_grid_smallest():
    grid = make_grid(1)
    assert np.array_equal(grid.points, [0.0, 1.0])


def test_make_grid_four_steps():
    grid = make_grid(4)
    assert np.array_equal(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_make_grid_rejects_zero():
    with pytest.raises(ValueError):
        make_grid(0)


def test_sample_brownian_deterministic():
    grid = make_grid(64)
    a = sample_brownian(grid, 123)
    b = sample_brownian(grid, 123)
    assert np.array_equal(a.values, b.values)
    assert a.values[0] == 0.0


def test_sample_brownian_single_step_is_standard_gaussian():
    # N = 1: the only increment has variance dt = 1, i.e. it is the raw draw
    grid = make_grid(1)
    for seed in (0, 5, 99):
        path = sample_brownian(grid, seed)
        expected = np.random.default_rng(seed).normal(0.0, 1.0)
        assert path.values[1] == expected


def test_sample_brownian_is_row_zero_of_batch():
    grid = make_grid(64)
    for seed in (0, 123, 2**40 + 7):
        batch = sample_brownian_paths(grid, 5, seed)
        assert np.array_equal(sample_brownian(grid, seed).values, batch[0])


def test_batch_shape_and_validation():
    batch = sample_brownian_paths(make_grid(16), 3, 1)
    assert batch.shape == (3, 17)
    assert np.all(batch[:, 0] == 0.0)
    assert np.array_equal(batch, sample_brownian_paths(make_grid(16), 3, 1))
    dw = brownian_increments(make_grid(16), 3, np.random.default_rng(1))
    assert np.array_equal(batch[:, 1:], np.cumsum(dw, axis=1))
    with pytest.raises(ValueError):
        sample_brownian_paths(make_grid(16), 0, 1)


def test_batch_pooled_increment_variance():
    # E dW^2 = 1/N, and N dW^2 has variance 2, so the pooled mean of N dW^2
    # over n*N increments has standard error sqrt(2/(nN))
    n, steps = 2000, 64
    increments = np.diff(sample_brownian_paths(make_grid(steps), n, 8), axis=1)
    pooled = float(np.mean(increments**2)) * steps
    assert abs(pooled - 1.0) <= 5.0 * np.sqrt(2.0 / (n * steps))


def test_batch_adjacent_rows_uncorrelated():
    n = 4000
    terminal = sample_brownian_paths(make_grid(32), n, 9)[:, -1]
    corr = float(np.corrcoef(terminal[:-1], terminal[1:])[0, 1])
    assert abs(corr) <= 3.0 / np.sqrt(n)


def test_terminal_variance_over_many_seeds():
    grid = make_grid(8)
    terminal = np.array([sample_brownian(grid, s).values[-1] for s in range(10_000)])
    assert 0.94 <= terminal.var() <= 1.06


def test_covariance_matches_brownian_kernel():
    # Cov(W(s), W(t)) = min(s, t) at grid points, within 3 MC standard errors
    grid = make_grid(16)
    n = 10_000
    paths = np.stack([sample_brownian(grid, s).values for s in range(n)])
    points = [0.25, 0.5, 0.75, 1.0]
    idx = [int(round(p * 16)) for p in points]
    for i, s in zip(idx, points):
        for j, t in zip(idx, points):
            cov = float(np.mean(paths[:, i] * paths[:, j]))
            target = min(s, t)
            # Gaussian case: Var(hat cov) = (var_s var_t + cov^2) / n
            stderr = np.sqrt((s * t + target**2) / n)
            assert abs(cov - target) <= 3 * stderr, (s, t, cov)


def test_identity_diffusion_reproduces_driver():
    grid = make_grid(128)
    w = sample_brownian(grid, 11)
    spec = GenericDiffusion(lambda t, x: 0.0, lambda t, x: 1.0, 0.0)
    x = simulate_diffusion(spec, w)
    assert np.allclose(x.values, w.values, atol=1e-12)


def test_gbm_on_zero_path_is_deterministic_exponential():
    grid = make_grid(32)
    w = BrownianPath(grid, np.zeros(33))
    spec = GeometricBM(mu=0.3, sigma=0.7, x0=2.0)
    x = simulate_diffusion(spec, w)
    expected = 2.0 * np.exp((0.3 - 0.7**2 / 2) * grid.points)
    assert np.allclose(x.values, expected, rtol=1e-12)


def test_generic_diffusion_singular_sigma_raises():
    grid = make_grid(16)
    w = sample_brownian(grid, 0)
    spec = GenericDiffusion(lambda t, x: 0.0, lambda t, x: -1.0, 0.0)
    with pytest.raises(ValueError, match=r"diffusion coefficient -1\.0 <= 0"):
        simulate_diffusion(spec, w)


def test_spec_validation():
    with pytest.raises(ValueError):
        OrnsteinUhlenbeck(theta=0.0, mu=0.0, sigma=1.0, x0=0.0)
    with pytest.raises(ValueError):
        GeometricBM(mu=0.0, sigma=1.0, x0=0.0)
    with pytest.raises(ValueError):
        GeometricBM(mu=0.0, sigma=-1.0, x0=1.0)


def test_diffusion_path_must_start_at_x0():
    from chaosbench.pathlab import DiffusionPath

    spec = GeometricBM(mu=0.0, sigma=1.0, x0=2.0)
    with pytest.raises(ValueError):
        DiffusionPath(make_grid(4), np.ones(5), spec)


def _coarsen(path: BrownianPath, n_coarse: int) -> BrownianPath:
    step = path.grid.n_steps // n_coarse
    return BrownianPath(make_grid(n_coarse), path.values[::step])


def test_ou_euler_strong_convergence():
    # Euler error vs a fine reference halves (within [1.5, 3]) when N doubles.
    spec = OrnsteinUhlenbeck(theta=1.0, mu=0.0, sigma=1.0, x0=1.0)
    n_ref = 2**16
    errors = {512: [], 1024: []}
    for seed in range(100):
        fine = sample_brownian(make_grid(n_ref), seed)
        ref = simulate_diffusion(spec, fine)
        for n in (512, 1024):
            coarse = simulate_diffusion(spec, _coarsen(fine, n))
            step = n_ref // n
            errors[n].append(np.max(np.abs(coarse.values - ref.values[::step])))
    ratio = np.mean(errors[512]) / np.mean(errors[1024])
    assert 1.5 <= ratio <= 3.0, ratio


def test_generic_reconstruction_identity():
    grid = make_grid(256)
    w = sample_brownian(grid, 21)
    spec = GenericDiffusion(lambda t, x: 0.0, lambda t, x: 1.0, 0.0)
    x = simulate_diffusion(spec, w)
    back = reconstruct_coprocess(spec, x)
    assert back.values[0] == 0.0
    assert np.allclose(back.values, x.values, atol=1e-12)


def test_gbm_round_trip_is_float_exact():
    grid = make_grid(512)
    spec = GeometricBM(mu=0.2, sigma=0.5, x0=1.5)
    for seed in range(5):
        w = sample_brownian(grid, seed)
        back = reconstruct_coprocess(spec, simulate_diffusion(spec, w))
        assert np.max(np.abs(back.values - w.values)) <= 1e-9


def test_gbm_reconstruction_rejects_nonpositive_values():
    grid = make_grid(8)
    spec = GeometricBM(mu=0.0, sigma=1.0, x0=1.0)
    from chaosbench.pathlab import DiffusionPath

    bad = DiffusionPath(grid, np.linspace(1.0, -0.5, 9), spec)
    with pytest.raises(ValueError):
        reconstruct_coprocess(spec, bad)


def test_ou_round_trip_error_halves_with_resolution():
    spec = OrnsteinUhlenbeck(theta=1.2, mu=0.5, sigma=0.8, x0=0.0)
    sup_err = {512: [], 1024: []}
    for seed in range(100):
        for n in (512, 1024):
            w = sample_brownian(make_grid(n), seed)
            back = reconstruct_coprocess(spec, simulate_diffusion(spec, w))
            sup_err[n].append(np.max(np.abs(back.values - w.values)))
    ratio = np.mean(sup_err[512]) / np.mean(sup_err[1024])
    assert 1.5 <= ratio <= 3.0, ratio

