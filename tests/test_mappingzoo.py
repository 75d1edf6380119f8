import math

import numpy as np
import pytest

from chaosbench._util import midpoints
from chaosbench.chaoscalc import GriddedFunction, brute_multiple_integral
from chaosbench.mappingzoo import (
    ClassParams,
    ConstantComponent,
    EqualFactorComponent,
    GaussianNoise,
    GriddedComponent,
    MappingSpec,
    UniformNoise,
    bump_instance,
    bump_psi,
    class_check,
    evaluate_mapping,
    quadratic_terminal,
    synthesize,
)
from chaosbench.pathlab import BrownianPath, make_grid, sample_brownian, sample_brownian_paths


def test_quadratic_terminal_shape():
    spec = quadratic_terminal()
    assert spec.a == 1.0
    assert spec.orders == (2,)
    assert np.all(spec.component_values(2, 8) == 1.0)


def test_quadratic_terminal_evaluates_to_affine_square_of_terminal():
    # a + I_2(1)/2! = 1 + (W(1)^2 - 1)/2: exact at any resolution because the
    # order-1 integral of the flat slice telescopes
    spec = quadratic_terminal()
    for seed in range(5):
        w = sample_brownian(make_grid(256), seed)
        expected = (1.0 + w.values[-1] ** 2) / 2.0
        assert evaluate_mapping(spec, w) == pytest.approx(expected, rel=1e-12)


def test_constant_only_mapping():
    spec = MappingSpec(5.0, (), GaussianNoise(0.0))
    w = sample_brownian(make_grid(32), 3)
    assert evaluate_mapping(spec, w) == 5.0


def test_order_one_constant_adds_terminal_value():
    spec = MappingSpec(2.0, (ConstantComponent(1, 1.0),), GaussianNoise(0.0))
    w = sample_brownian(make_grid(128), 4)
    assert evaluate_mapping(spec, w) == pytest.approx(2.0 + w.values[-1], rel=1e-12)


def test_mean_of_mapping_matches_constant_term():
    # E m(W) = a; checked through synthesize with zero noise
    spec = quadratic_terminal(noise=GaussianNoise(0.0))
    sample = synthesize(spec, 10_000, make_grid(64), 99)
    stderr = sample.responses.std(ddof=1) / np.sqrt(sample.n)
    assert abs(sample.responses.mean() - 1.0) <= 3 * stderr


def test_synthesize_zero_noise_and_determinism():
    spec = quadratic_terminal(noise=GaussianNoise(0.0))
    grid = make_grid(64)
    a = synthesize(spec, 16, grid, 5)
    b = synthesize(spec, 16, grid, 5)
    assert np.array_equal(a.responses, b.responses)
    assert np.array_equal(a.path_values, b.path_values)
    for i in range(16):
        assert a.responses[i] == pytest.approx(evaluate_mapping(spec, a.path(i)), rel=1e-12)


def test_synthesize_batch_matches_per_path_evaluation_for_poly():
    g = np.polynomial.Polynomial([0.3, 1.0])
    spec = MappingSpec(0.5, (EqualFactorComponent(2, g),), GaussianNoise(0.0))
    sample = synthesize(spec, 8, make_grid(128), 21)
    for i in range(8):
        assert sample.responses[i] == pytest.approx(
            evaluate_mapping(spec, sample.path(i)), rel=1e-10
        )


def test_synthesize_noise_independent_of_paths():
    spec = quadratic_terminal(noise=GaussianNoise(1.0))
    n = 4000
    sample = synthesize(spec, n, make_grid(32), 17)
    m_values = np.array([evaluate_mapping(spec, sample.path(i)) for i in range(n)])
    eps = sample.responses - m_values
    terminal = sample.path_values[:, -1]
    corr = np.corrcoef(eps, terminal)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(n)


def test_noise_mu4_values():
    assert GaussianNoise(0.5).mu4 == pytest.approx(0.5 * 3**0.25)
    assert UniformNoise(1.0).mu4 == pytest.approx((1.0 / 5.0) ** 0.25)


def test_class_check_finite_pass():
    report = class_check(quadratic_terminal(), "finite", max_order=2, class_bound=1.0)
    assert report.passed
    (entry,) = report.entries
    assert entry.norm_sq == pytest.approx(1.0)
    assert entry.norm_bound == pytest.approx(2.0)


def test_class_check_finite_fail_on_large_component():
    spec = MappingSpec(0.0, (ConstantComponent(2, 3.0),), GaussianNoise(0.1))
    report = class_check(spec, "finite", max_order=2, class_bound=1.0)
    assert not report.passed
    assert report.entries[0].norm_sq == pytest.approx(9.0)


def test_class_check_growth_geometric_norms():
    # ||f_l|| = C^l: the weighted sum converges for any gamma at finite order
    c = 1.5
    comps = tuple(ConstantComponent(order, c**order) for order in (1, 2, 3, 4))
    spec = MappingSpec(0.0, comps, GaussianNoise(0.1))
    total = sum(
        math.exp(2 * 0.4 * o) * c ** (2 * o) / math.factorial(o) for o in (1, 2, 3, 4)
    )
    report = class_check(spec, "growth", gamma=0.4, class_bound=math.sqrt(total) + 0.01)
    assert report.passed
    assert report.growth_sum == pytest.approx(total, rel=1e-12)


def test_bump_psi_values():
    assert bump_psi(0.0) == pytest.approx(math.exp(-1.0))
    assert bump_psi(1.0) == 0.0
    assert bump_psi(-1.0) == 0.0
    u = np.linspace(-2, 2, 41)
    assert np.allclose(bump_psi(u), bump_psi(-u))


def test_bump_instance_zero_selector():
    gridded, spec = bump_instance(1, 0.125, [], rho=1.0, grid_size=64)
    assert np.all(gridded.values == 0.0)
    assert spec.orders == (1,)


def test_bump_instance_single_cell_peak():
    # grid chosen so a node lands exactly on the bump center (odd multiple of R)
    h = 0.125  # R = 4
    rho = 0.7
    gridded, _ = bump_instance(2, h, [(0, 0)], rho=rho, grid_size=12)
    assert gridded.values.max() == pytest.approx(rho * bump_psi(0.0) ** 2, rel=1e-12)
    # peak sits at the center (2*0+1)h = 0.125 on both axes
    idx = np.unravel_index(np.argmax(gridded.values), gridded.values.shape)
    c = midpoints(12)
    assert c[idx[0]] == pytest.approx(0.125) and c[idx[1]] == pytest.approx(0.125)


def test_bump_instance_norm_formula():
    # ||g_w||^2 = |w| ||psi||^(2 l) rho^2 h^l; psi norm from an independent
    # high-resolution quadrature
    u = (np.arange(200_000) + 0.5) / 200_000 * 2.0 - 1.0
    psi_norm_sq = float(np.mean(bump_psi(u) ** 2)) * 2.0
    h, rho = 0.125, 0.6
    gridded, _ = bump_instance(1, h, [(0,), (2,)], rho=rho, grid_size=4096)
    expected = 2 * psi_norm_sq * rho**2 * h
    assert gridded.l2_norm_sq() == pytest.approx(expected, rel=1e-6)
    g2, _ = bump_instance(2, 0.25, [(0, 0), (1, 1)], rho=rho, grid_size=1024)
    expected2 = 2 * psi_norm_sq**2 * rho**2 * 0.25**2
    assert g2.l2_norm_sq() == pytest.approx(expected2, rel=1e-6)


def test_bump_supports_are_disjoint():
    h = 0.125
    a, _ = bump_instance(1, h, [(0,)], rho=1.0, grid_size=512)
    b, _ = bump_instance(1, h, [(1,)], rho=1.0, grid_size=512)
    assert np.all(a.values * b.values == 0.0)


def test_bump_norm_linear_in_selector_size():
    h = 0.0625  # R = 8
    single, _ = bump_instance(1, h, [(0,)], rho=1.0, grid_size=1024)
    triple, _ = bump_instance(1, h, [(0,), (3,), (6,)], rho=1.0, grid_size=1024)
    ratio = triple.l2_norm_sq() / single.l2_norm_sq()
    assert ratio == pytest.approx(3.0, rel=1e-8)


def test_bump_instance_errors():
    with pytest.raises(ValueError):
        bump_instance(1, 0.3, [(0,)], rho=1.0, grid_size=64)  # 1/(2h) not integer
    with pytest.raises(ValueError):
        bump_instance(2, 0.125, [(0, 1)], rho=1.0, grid_size=64)  # not perm-closed
    with pytest.raises(ValueError):
        bump_instance(1, 0.125, [(7,)], rho=1.0, grid_size=64)  # index out of range


def test_bump_symmetric_selector_gives_symmetric_tensor():
    gridded, spec = bump_instance(2, 0.25, [(0, 1), (1, 0)], rho=1.0, grid_size=128)
    assert gridded.is_symmetric()
    assert isinstance(spec.components[0], GriddedComponent)


def test_equal_factor_matches_gridded_brute_as_grid_refines():
    g = np.polynomial.Polynomial([1.0, 0.5])
    spec = MappingSpec(0.0, (EqualFactorComponent(2, g),), GaussianNoise(0.0))
    grid = make_grid(256)
    gaps = {}
    for g_size in (16, 256):
        f = GriddedFunction.from_callable(2, g_size, lambda a, b: g(a) * g(b))
        gap = []
        for seed in range(40):
            w = sample_brownian(grid, seed)
            direct = evaluate_mapping(spec, w)
            via_grid = brute_multiple_integral(f, w) / 2.0
            gap.append(abs(direct - via_grid))
        gaps[g_size] = np.mean(gap)
    assert gaps[256] < gaps[16]


def test_mapping_spec_validation():
    with pytest.raises(ValueError):
        MappingSpec(0.0, (ConstantComponent(1, 1.0), ConstantComponent(1, 2.0)),
                    GaussianNoise(0.1))
    with pytest.raises(ValueError):
        GriddedComponent(2, GriddedFunction.from_callable(2, 8, lambda a, b: a + 2 * b))


def test_declared_class_params_round_trip():
    spec = quadratic_terminal()
    assert spec.declared.max_order == 2
    assert spec.declared.class_bound == 1.0
    assert isinstance(spec.declared, ClassParams)


def test_mapping_values_match_evaluate_mapping_row_by_row():
    g = np.polynomial.Polynomial([0.2, -0.4, 1.0])
    gridded, _ = bump_instance(2, 0.25, [(0, 1), (1, 0)], rho=2.0, grid_size=16)
    spec = MappingSpec(
        0.3,
        (EqualFactorComponent(1, g), GriddedComponent(2, gridded), ConstantComponent(3, -1.5)),
        GaussianNoise(0.0),
    )
    grid = make_grid(128)
    rows = sample_brownian_paths(grid, 6, 41)
    batch = spec.values(np.diff(rows, axis=1))
    for values, value in zip(rows, batch):
        direct = evaluate_mapping(spec, BrownianPath(grid, values))
        assert value == pytest.approx(direct, rel=1e-12)
