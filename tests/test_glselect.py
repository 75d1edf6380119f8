import math
import pickle

import numpy as np
import pytest

from chaosbench._util import derive_seed
from chaosbench.benchcli import cmd_adapt, parse_config
from chaosbench.chaosreg import fit_chaos_kernel, risk_isometry
from chaosbench.errors import GridEmptyError
from chaosbench.glselect import (
    BandwidthGrid,
    MajorantParams,
    adaptive_fit,
    bandwidth_grid,
    bias_proxy,
    majorant,
    select_bandwidth,
)
from chaosbench.kernelkit import build_kernel
from chaosbench.mappingzoo import GaussianNoise, quadratic_terminal, synthesize
from chaosbench.pathlab import make_grid

K0 = build_kernel(1.0)
K1 = build_kernel(2.0)


def test_bandwidth_grid_single_value():
    grid = bandwidth_grid(1000, 1, 1.0)
    # bracket [0.1, 0.1448] admits only e^-2
    assert grid.values == (math.exp(-2),)


def test_bandwidth_grid_two_values():
    grid = bandwidth_grid(10**6, 1, 1.0)
    assert grid.values == (math.exp(-3), math.exp(-4))


def test_bandwidth_grid_empty_bracket_raises():
    # (log 10)^-1 ~ 0.434 < 10^(-1/4) ~ 0.562: nothing fits
    with pytest.raises(GridEmptyError) as err:
        bandwidth_grid(10, 3, 0.5)
    assert err.value.order == 3
    assert err.value.lower > err.value.upper


def test_grid_empty_error_survives_pickling():
    # a worker's exception reaches the parent pickled
    err = pickle.loads(pickle.dumps(GridEmptyError(1, 0.1, 0.2)))
    assert isinstance(err, GridEmptyError)
    assert (err.order, err.lower, err.upper) == (1, 0.1, 0.2)
    assert str(err) == str(GridEmptyError(1, 0.1, 0.2))


def test_bandwidth_grid_values_sorted_decreasing():
    grid = bandwidth_grid(5000, 1, 0.5)
    assert list(grid.values) == sorted(grid.values, reverse=True)
    assert all(math.isclose(-math.log(h) % 1, 0.0, abs_tol=1e-12) for h in grid.values)


def test_majorant_matches_closed_form():
    # independent arithmetic for nu(l) with mu4=0.5, M=1, L=2, ||k||=2
    params = MajorantParams(mu4=0.5, class_bound=1.0, max_order=2, kernel_l2=2.0)
    b_12 = 3.0 * 2.0 * 1.0 * 2.0**2  # c_1(4)^2 2^1 1! ||k||^2 = 24
    nu = (0.5 + (math.sqrt(3.0) + 3.0) * 1.0) * math.sqrt(b_12) / 2.0
    h = math.exp(-2)
    expected = nu * (1.0 + 4.0 * math.sqrt(2.0)) / math.sqrt(100 * h)
    assert majorant(1, h, 100, params) == pytest.approx(expected, rel=1e-14)
    # normalized form from direct evaluation: (1 + 4 sqrt(2)) / sqrt(100 e^-2)
    assert expected / nu == pytest.approx(1.8095205941095514, rel=1e-12)


def test_majorant_decreasing_in_h():
    params = MajorantParams(mu4=1.0, class_bound=1.0, max_order=2, kernel_l2=1.0)
    hs = [math.exp(-k) for k in range(1, 6)]
    values = [majorant(2, h, 5000, params) for h in hs]
    assert values == sorted(values)  # h decreasing -> majorant increasing


def test_majorant_rejects_h_out_of_range():
    params = MajorantParams(mu4=1.0, class_bound=1.0, max_order=1, kernel_l2=1.0)
    with pytest.raises(ValueError):
        majorant(1, 1.0, 100, params)


def _fits_for(grid_values, sample, order=1, grid_size=8):
    return {h: fit_chaos_kernel(sample, order, h, grid_size, K0) for h in grid_values}


def test_bias_proxy_zero_at_smallest_bandwidth():
    truth = quadratic_terminal()
    sample = synthesize(truth, 50, make_grid(128), 3)
    grid_values = (math.exp(-2), math.exp(-3))
    fits = _fits_for(grid_values, sample)
    majorants = {h: 1.0 for h in grid_values}
    assert bias_proxy(grid_values[-1], fits, majorants) == 0.0


def test_bias_proxy_zero_for_singleton_grid():
    truth = quadratic_terminal()
    sample = synthesize(truth, 50, make_grid(128), 4)
    fits = _fits_for((math.exp(-2),), sample)
    assert bias_proxy(math.exp(-2), fits, {math.exp(-2): 0.5}) == 0.0


def test_bias_proxy_nonnegative():
    truth = quadratic_terminal()
    sample = synthesize(truth, 60, make_grid(128), 5)
    grid_values = (math.exp(-2), math.exp(-3), math.exp(-4))
    fits = _fits_for(grid_values, sample)
    majorants = {h: 0.0 for h in grid_values}
    for h in grid_values:
        assert bias_proxy(h, fits, majorants) >= 0.0


def test_select_singleton_grid_returns_it():
    truth = quadratic_terminal()
    sample = synthesize(truth, 100, make_grid(128), 6)
    grid = BandwidthGrid(1, (math.exp(-2),))
    params = MajorantParams(mu4=0.66, class_bound=1.0, max_order=1, kernel_l2=1.0)
    trace = select_bandwidth(1, sample.n, _fits_for(grid.values, sample), params)
    assert trace.chosen == math.exp(-2)
    assert len(trace.records) == 1


def test_select_prefers_largest_h_on_easy_truth():
    # constant component, no noise: objective is dominated by the majorant,
    # which decreases in h, so the largest bandwidth wins
    truth = quadratic_terminal(noise=GaussianNoise(0.0))
    params = MajorantParams(mu4=0.66, class_bound=1.0, max_order=1, kernel_l2=1.0)
    grid = BandwidthGrid(1, (math.exp(-2), math.exp(-3)))
    votes = []
    for rep in range(20):
        sample = synthesize(truth, 400, make_grid(128), derive_seed(70, rep))
        trace = select_bandwidth(1, sample.n, _fits_for(grid.values, sample), params)
        votes.append(trace.chosen)
    assert votes.count(math.exp(-2)) > 10


def test_trace_argmin_consistency():
    truth = quadratic_terminal()
    sample = synthesize(truth, 200, make_grid(128), 8)
    grid = bandwidth_grid(1000, 1, 0.5)
    params = MajorantParams(mu4=0.66, class_bound=1.0, max_order=1, kernel_l2=1.0)
    trace = select_bandwidth(1, sample.n, _fits_for(grid.values, sample), params)
    objectives = {r.h: r.objective for r in trace.records}
    assert objectives[trace.chosen] == min(objectives.values())
    assert trace.chosen in grid.values


def test_adaptive_fit_is_deterministic():
    truth = quadratic_terminal()
    sample = synthesize(truth, 1000, make_grid(256), 12)
    params = MajorantParams(mu4=0.66, class_bound=1.0, max_order=2, kernel_l2=1.0)
    a = adaptive_fit(sample, 2, params, 0.5, 16, K0)
    b = adaptive_fit(sample, 2, params, 0.5, 16, K0)
    assert [e.bandwidth for e in a.components] == [e.bandwidth for e in b.components]
    for ea, eb in zip(a.components, b.components):
        assert np.array_equal(ea.values, eb.values)


def test_adaptive_fit_membership_and_traces():
    truth = quadratic_terminal()
    sample = synthesize(truth, 1000, make_grid(256), 13)
    params = MajorantParams(mu4=0.66, class_bound=1.0, max_order=2, kernel_l2=1.0)
    model = adaptive_fit(sample, 2, params, 0.5, 16, K0)
    assert model.orders == (1, 2)
    for order, trace in zip((1, 2), model.selection_traces):
        grid = bandwidth_grid(1000, order, 0.5)
        assert trace.chosen in grid.values
        h_min = grid.h_min
        (rec,) = [r for r in trace.records if r.h == h_min]
        assert rec.bias_proxy == 0.0


def test_adaptive_fit_propagates_empty_grid():
    truth = quadratic_terminal()
    sample = synthesize(truth, 10, make_grid(64), 14)
    params = MajorantParams(mu4=0.66, class_bound=1.0, max_order=3, kernel_l2=1.0)
    with pytest.raises(GridEmptyError):
        adaptive_fit(sample, 3, params, 0.5, 8, K0)


def test_adaptive_second_order_reduces_risk_on_quadratic_truth():
    truth = quadratic_terminal()
    grid = make_grid(256)
    params = MajorantParams(mu4=0.66, class_bound=1.0, max_order=2, kernel_l2=1.0)
    risks = {1: [], 2: []}
    for rep in range(10):
        sample = synthesize(truth, 1000, grid, derive_seed(15, rep))
        for max_order in (1, 2):
            model = adaptive_fit(sample, max_order, params, 0.5, 16, K0)
            risks[max_order].append(risk_isometry(model, truth, 16).value)
    # without order 2 the (missing) unit component dominates: risk ~ sqrt(1/2)
    assert np.mean(risks[2]) < np.mean(risks[1])
    assert np.mean(risks[1]) >= np.sqrt(0.5) * 0.9


def test_trace_csv_format(tmp_path):
    config = parse_config({
        "n_list": [1000], "path_steps": 128, "grid_size": 8, "max_order": 1,
        "s_star_hi": 1.0, "s_star_lo": 0.5, "majorant": {"mu4": 0.66, "class_bound": 1.0},
        "bandwidths": {"mode": "adaptive"}, "replications": 1, "seed": 16,
    })
    out = cmd_adapt(config, tmp_path / "adapted")
    grid = bandwidth_grid(1000, 1, 0.5)
    lines = (out / "n_001000" / "rep_000" / "trace_order1.csv").read_text().splitlines()
    assert lines[0] == "ell,h,majorant,bias_proxy,objective,chosen"
    assert len(lines) == 1 + len(grid.values)
    chosen_flags = [int(line.split(",")[-1]) for line in lines[1:]]
    assert sum(chosen_flags) == 1
