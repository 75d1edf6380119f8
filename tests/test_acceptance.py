"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints one line `[criterion N] PASS/FAIL - detail` (visible with `pytest -s`
or in captured output).  Monte Carlo sizes, grids, and tolerances are fixed
here; seeds are frozen so every run is deterministic.
"""

import itertools
import math
import time

import numpy as np

from chaosbench._util import derive_seed, midpoints
from chaosbench.benchcli import cmd_rate, parse_config
from chaosbench.chaoscalc import (
    GriddedFunction,
    brute_multiple_integral,
    chaos_constant,
    hermite_chaos,
    isometry_report,
    left_point_integrals,
    moment_bound_reports,
    tensor_chaos,
)
from chaosbench.chaosreg import (
    FittedModel,
    estimate_mean,
    fit_chaos_kernel,
    risk_isometry,
    slice_rows,
)
from chaosbench.errors import GridEmptyError
from chaosbench.glselect import MajorantParams, adaptive_fit, bandwidth_grid
from chaosbench.kernelkit import build_kernel, eval_univariate, kernel_moment
from chaosbench.mappingzoo import (
    ClassParams,
    ConstantComponent,
    EqualFactorComponent,
    GaussianNoise,
    MappingSpec,
    quadratic_terminal,
    synthesize,
)
from chaosbench.pathlab import (
    GeometricBM,
    OrnsteinUhlenbeck,
    make_grid,
    reconstruct_coprocess,
    sample_brownian,
    simulate_diffusion,
)

ONE = np.polynomial.Polynomial([1.0])
RAMP = np.polynomial.Polynomial([0.0, 1.0])


def _report(criterion: int, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded runtime budget"


def test_criterion_1_kernel_correctness():
    started = time.time()
    worst = 0.0
    for m in range(4):
        kernel = build_kernel(m + 0.5)
        worst = max(worst, abs(kernel_moment(kernel, 0, 10_000) - 1.0))
        for s in range(1, m + 1):
            worst = max(worst, abs(kernel_moment(kernel, s, 10_000)))
    probe = np.linspace(0.0, 1.0, 100)
    k1 = build_kernel(2.0)
    probe_err = float(np.max(np.abs(eval_univariate(k1, probe) - (4.0 - 6.0 * probe))))
    passed = worst <= 1e-10 and probe_err <= 1e-12
    _report(1, passed, f"max moment error {worst:.2e}, probe error {probe_err:.2e}",
            time.time() - started, 1.0)


def test_criterion_2_ito_isometry():
    started = time.time()
    n_mc, n_steps = 100_000, 512
    r22 = isometry_report([ONE, ONE], [ONE, ONE], n_mc, seed=2201, n_steps=n_steps)
    r12 = isometry_report([ONE], [ONE, ONE], n_mc, seed=2202, n_steps=n_steps)
    r11 = isometry_report([RAMP], [RAMP], n_mc, seed=2203, n_steps=n_steps)
    checks = [
        (abs(r22.empirical - 2.0) <= 3 * r22.mc_stderr, f"E[I2(1)^2]={r22.empirical:.4f}"),
        (abs(r12.empirical) <= 3 * r12.mc_stderr, f"E[I1 I2]={r12.empirical:.4f}"),
        (
            abs(r11.empirical - r11.theoretical) <= 3 * r11.mc_stderr,
            f"E[I1(u)^2]={r11.empirical:.5f} vs {r11.theoretical:.5f}",
        ),
    ]
    passed = all(ok for ok, _ in checks)
    _report(2, passed, "; ".join(d for _, d in checks), time.time() - started, 120.0)


def test_criterion_3_chaos_evaluator_equivalence():
    started = time.time()
    grid = make_grid(512)
    rng = np.random.default_rng(33)
    worst_gap = 0.0
    for seed in range(100):
        w = sample_brownian(grid, seed)
        g = np.polynomial.Polynomial(rng.uniform(-0.8, 0.8, 3))
        for order in range(1, 6):
            gap = abs(tensor_chaos([g] * order, w) - hermite_chaos(g, order, w))
            worst_gap = max(worst_gap, gap)
    equiv_ok = worst_gap <= 1e-10

    g = np.polynomial.Polynomial([1.0, 0.5])

    def rank_one(*xs):
        value = g(xs[0])
        for x in xs[1:]:
            value = value * g(x)
        return value

    monotone_ok = oracle_ok = True
    trend_detail = []
    paths = [sample_brownian(grid, seed) for seed in range(100)]
    increments = np.stack([w.increments for w in paths])
    for order in (2, 3):
        means = []
        for g_size in (32, 64, 128, 256):
            f = GriddedFunction.from_callable(order, g_size, rank_one)
            # the 100 paths in one batch; the single-path oracle agrees on the first 3
            batch = f.chaos_from_functionals(*left_point_integrals(f.functional_rows(512),
                                                                   increments))
            oracle_ok = oracle_ok and all(
                abs(brute_multiple_integral(f, w) - value) <= 1e-12
                for w, value in zip(paths[:3], batch)
            )
            gaps = [abs(tensor_chaos([g] * order, w) - value) for w, value in zip(paths, batch)]
            means.append(float(np.mean(gaps)))
        monotone_ok = monotone_ok and all(a > b for a, b in zip(means, means[1:]))
        trend_detail.append(f"l={order}: " + "->".join(f"{m:.3f}" for m in means))
    passed = equiv_ok and monotone_ok and oracle_ok
    _report(
        3, passed,
        f"max tensor/hermite gap {worst_gap:.1e}; " + "; ".join(trend_detail),
        time.time() - started, 300.0,
    )


def test_criterion_4_hypercontractivity_and_moment_bound():
    started = time.time()
    kernel = build_kernel(2.0)
    n_mc = 10_000
    all_ok = True
    details = []
    for order in (1, 2):
        for h in (math.exp(-2), math.exp(-3)):
            seed = derive_seed(44, order, round(-math.log(h)))
            second, fourth = moment_bound_reports(order, h, (1, 2), n_mc, seed, kernel,
                                                  n_steps=512)
            bound_ok = second.within_bound
            lhs = fourth.empirical**0.5  # (E xi^4)^(1/4)
            lhs_stderr = 0.5 * fourth.mc_stderr / max(lhs, 1e-12)
            rhs = chaos_constant(order, 4) * second.empirical**0.5
            hyper_ok = lhs <= rhs + 3 * lhs_stderr
            all_ok = all_ok and bound_ok and hyper_ok
            details.append(
                f"l={order},h=e^{math.log(h):.0f}: Exi2={second.empirical:.1f}"
                f"<={second.bound:.1f}, (Exi4)^1/4={lhs:.2f}<=c(4)(Exi2)^1/2={rhs:.2f}"
            )
    _report(4, all_ok, "; ".join(details), time.time() - started, 120.0)


def test_criterion_5_quadratic_terminal_recovery():
    started = time.time()
    truth = quadratic_terminal(noise=GaussianNoise(0.5))
    kernel = build_kernel(2.0)
    grid = make_grid(512)
    g_size, h = 64, 0.25

    # synthesis reduces the slice rows with the responses, so no fit redraws the paths
    rows = [slice_rows(kernel, h, g_size, grid)]
    rep_means = []
    for rep in range(20):
        sample = synthesize(truth, 5000, grid, derive_seed(55, 0, rep), rows)
        est = fit_chaos_kernel(sample, 2, h, g_size, kernel)
        c = midpoints(g_size)
        interior = (c >= h) & (c <= 1 - h)
        rep_means.append(float(np.mean(est.values[np.ix_(interior, interior)])))
    rep_means = np.asarray(rep_means)
    stderr = rep_means.std(ddof=1) / np.sqrt(len(rep_means))
    recovery_ok = abs(rep_means.mean() - 1.0) <= 3 * stderr

    mean_risk = {}
    for n in (1000, 4000):
        risks = []
        for rep in range(20):
            sample = synthesize(truth, n, grid, derive_seed(55, n, rep), rows)
            estimates = tuple(
                fit_chaos_kernel(sample, order, h, g_size, kernel) for order in (1, 2)
            )
            model = FittedModel(estimate_mean(sample), estimates)
            risks.append(risk_isometry(model, truth, grid.n_steps).value)
        mean_risk[n] = float(np.mean(risks))
    decrease_ok = mean_risk[4000] < mean_risk[1000]
    passed = recovery_ok and decrease_ok
    _report(
        5, passed,
        f"interior mean {rep_means.mean():.4f} (3se={3 * stderr:.4f}); "
        f"R2(1000)={mean_risk[1000]:.4f} > R2(4000)={mean_risk[4000]:.4f}",
        time.time() - started, 600.0,
    )


def test_criterion_6_rate_reproduction(tmp_path):
    started = time.time()
    doc = {
        "truth": {
            "a": 1.0,
            "components": [{"order": 1, "kind": "poly", "coeffs": [1.0, 0.5]}],
            "noise": {"kind": "gaussian", "sigma": 0.5},
            "class": {"s": [1.0], "lam": [1.0], "max_order": 1, "class_bound": 1.3},
        },
        "n_list": [500, 1000, 2000, 4000, 8000, 16000],
        "path_steps": 512,
        "grid_size": 64,
        "max_order": 1,
        "s_star_hi": 1.0,
        "s_star_lo": 0.5,
        "majorant": {"mu4": 0.66, "class_bound": 1.3},
        "bandwidths": {"mode": "theoretical", "s": [1.0], "lam": [1.0]},
        "risk_p": 2.0,
        "risk": {"method": "isometry"},
        "replications": 20,
        "seed": 4242,
    }
    report = cmd_rate(parse_config(doc), tmp_path / "rate")
    gap = abs(report["slope"] - (-1.0 / 3.0))
    passed = gap <= 0.15
    _report(
        6, passed,
        f"slope {report['slope']:.4f} vs -1/3 (gap {gap:.4f}, "
        f"stderr {report['slope_stderr']:.4f})",
        time.time() - started, 900.0,
    )


def test_criterion_7_oracle_behavior():
    started = time.time()
    kernel = build_kernel(1.0)
    grid = make_grid(512)
    n, g_size, reps = 1000, 64, 20
    truths = {
        "quadratic": quadratic_terminal(),
        "single-order": MappingSpec(
            0.5, (EqualFactorComponent(1, RAMP),), GaussianNoise(0.5),
            ClassParams(s=(1.0,), lam=(1.0,), max_order=1, class_bound=1.0),
        ),
        "two-order-mix": MappingSpec(
            1.0,
            (EqualFactorComponent(1, RAMP), ConstantComponent(2, 0.5)),
            GaussianNoise(0.5),
            ClassParams(s=(1.0, 1.0), lam=(1.0, 1.0), max_order=2, class_bound=1.0),
        ),
    }
    all_ok = True
    details = []
    for key, (name, truth) in enumerate(truths.items()):
        max_order = truth.declared.max_order
        params = MajorantParams(0.66, 1.0, max_order, kernel.l2_norm)
        grids = {o: bandwidth_grid(n, o, 0.5) for o in range(1, max_order + 1)}
        combos = list(itertools.product(*[grids[o].values for o in range(1, max_order + 1)]))
        # synthesis reduces every candidate's slice rows with the responses,
        # so neither the adaptive fit nor the fixed ones redraw the paths
        rows = [slice_rows(kernel, h, g_size, grid)
                for h in {h for bw in grids.values() for h in bw.values}]
        adaptive_risks = []
        fixed_risks = {combo: [] for combo in combos}
        for rep in range(reps):
            sample = synthesize(truth, n, grid, derive_seed(77, key, rep), rows)
            model = adaptive_fit(sample, max_order, params, 0.5, g_size, kernel)
            adaptive_risks.append(risk_isometry(model, truth, grid.n_steps).value)
            fits = {
                (o, h): fit_chaos_kernel(sample, o, h, g_size, kernel)
                for o in range(1, max_order + 1)
                for h in grids[o].values
            }
            mean_hat = estimate_mean(sample)
            for combo in combos:
                fixed = FittedModel(
                    mean_hat, tuple(fits[(o, combo[o - 1])] for o in range(1, max_order + 1))
                )
                fixed_risks[combo].append(risk_isometry(fixed, truth, grid.n_steps).value)
        mean_adaptive = float(np.mean(adaptive_risks))
        best_fixed = min(float(np.mean(v)) for v in fixed_risks.values())
        ok = mean_adaptive <= 4.0 * best_fixed
        all_ok = all_ok and ok
        details.append(f"{name}: adaptive {mean_adaptive:.4f} vs best fixed {best_fixed:.4f}")
    _report(7, all_ok, "; ".join(details), time.time() - started, 1200.0)


def test_criterion_8_coprocess_reconstruction():
    started = time.time()
    gbm = GeometricBM(mu=0.2, sigma=0.5, x0=1.5)
    gbm_err = 0.0
    for seed in range(10):
        w = sample_brownian(make_grid(512), seed)
        back = reconstruct_coprocess(gbm, simulate_diffusion(gbm, w))
        gbm_err = max(gbm_err, float(np.max(np.abs(back.values - w.values))))
    gbm_ok = gbm_err <= 1e-9

    ou = OrnsteinUhlenbeck(theta=1.2, mu=0.5, sigma=0.8, x0=0.0)
    sup_err = {512: [], 1024: []}
    for seed in range(100):
        for n in (512, 1024):
            w = sample_brownian(make_grid(n), seed)
            back = reconstruct_coprocess(ou, simulate_diffusion(ou, w))
            sup_err[n].append(np.max(np.abs(back.values - w.values)))
    ratio = float(np.mean(sup_err[512]) / np.mean(sup_err[1024]))
    ou_ok = 1.5 <= ratio <= 3.0
    _report(
        8, gbm_ok and ou_ok,
        f"GBM sup-error {gbm_err:.1e}; OU error ratio {ratio:.3f}",
        time.time() - started, 60.0,
    )


def test_criterion_9_selection_mechanics():
    started = time.time()
    truth = quadratic_terminal()
    kernel = build_kernel(1.0)
    grid = make_grid(256)
    params = MajorantParams(0.66, 1.0, 2, kernel.l2_norm)
    bias_zero = True
    membership = True
    for rep in range(5):
        sample = synthesize(truth, 1000, grid, derive_seed(99, rep))
        model = adaptive_fit(sample, 2, params, 0.5, 16, kernel)
        for order, trace in zip((1, 2), model.selection_traces):
            h_grid = bandwidth_grid(1000, order, 0.5)
            membership = membership and trace.chosen in h_grid.values
            (rec,) = [r for r in trace.records if r.h == h_grid.h_min]
            bias_zero = bias_zero and rec.bias_proxy == 0.0
    try:
        bandwidth_grid(10, 3, 0.5)
        empty_raises = False
    except GridEmptyError:
        empty_raises = True
    passed = bias_zero and membership and empty_raises
    _report(
        9, passed,
        f"B(l,h_min)=0: {bias_zero}; chosen in grid: {membership}; "
        f"empty bracket raises: {empty_raises}",
        time.time() - started, 60.0,
    )


def test_criterion_10_boundary_behavior():
    started = time.time()
    kernel = build_kernel(2.0)
    grid = make_grid(512)
    f1 = np.polynomial.Polynomial([1.0, 1.0, -1.0])  # 1 + u(1 - u)
    truth = MappingSpec(
        1.0, (EqualFactorComponent(1, f1),), GaussianNoise(0.5),
        ClassParams(s=(2.0,), lam=(2.0,), max_order=1, class_bound=1.3),
    )
    h, g_size, n, reps = 0.25, 32, 5000, 20
    fits = np.empty((reps, g_size))
    for rep in range(reps):
        sample = synthesize(truth, n, grid, derive_seed(1010, rep))
        fits[rep] = fit_chaos_kernel(sample, 1, h, g_size, kernel).values
    c = midpoints(g_size)
    bias = np.abs(fits.mean(axis=0) - f1(c))
    boundary = c < h
    interior = (c >= h) & (c <= 1 - h)
    ratio = float(bias[boundary].mean() / bias[interior].mean())
    passed = ratio <= 2.0
    _report(
        10, passed,
        f"boundary/interior abs-bias ratio {ratio:.3f} "
        f"({bias[boundary].mean():.4f} vs {bias[interior].mean():.4f})",
        time.time() - started, 300.0,
    )
