import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chaosbench import benchcli, chaoscalc, chaosreg, pathlab
from chaosbench.benchcli import (
    cmd_adapt,
    cmd_check,
    cmd_fit,
    cmd_plot,
    cmd_rate,
    cmd_risk,
    cmd_simulate,
    growing_order_bandwidth,
    load_config,
    load_dataset,
    main,
    parse_config,
    theoretical_bandwidth,
    truncation_order,
)
from chaosbench.chaoscalc import BoundReport, moment_bound_reports
from chaosbench.chaosreg import (
    ChaosKernelEstimate,
    FittedModel,
    estimate_mean,
    fit_chaos_kernel,
    model_from_json,
    model_to_json,
)
from chaosbench.errors import ConfigError
from chaosbench.glselect import adaptive_fit
from chaosbench.kernelkit import MomentKernel, build_kernel
from chaosbench._util import derive_seed
from chaosbench.mappingzoo import synthesize
from chaosbench.pathlab import block_rows, make_grid, sample_brownian_paths


def _base_doc(**overrides):
    doc = {
        "truth": "quadratic_terminal",
        "n_list": [40],
        "path_steps": 128,
        "grid_size": 16,
        "max_order": 2,
        "s_star_hi": 2.0,
        "s_star_lo": 0.5,
        "majorant": {"mu4": 0.66, "class_bound": 1.0},
        "bandwidths": {"mode": "fixed", "values": {"1": 0.25, "2": 0.25}},
        "risk_p": 2.0,
        "replications": 2,
        "seed": 42,
        "check": {"n_mc": 1500},
    }
    doc.update(overrides)
    return doc


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_documented_config_examples_parse():
    # the README's JSON example and the benchcli module docstring's example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for text, marker in ((readme, "```json"), (benchcli.__doc__, "Example config::")):
        example = text.split(marker, 1)[1].lstrip()
        parse_config(json.JSONDecoder().raw_decode(example)[0])


def test_parse_config_valid():
    config = parse_config(_base_doc())
    assert config.n_list == (40,)
    assert config.kernel().moment_order == 1
    assert config.majorant.kernel_l2 == 2.0
    # isometry risk draws no paths, so its n_mc is not held to the Monte Carlo minimum
    assert parse_config(_base_doc(risk={"n_mc": 50})).risk_n_mc == 50


def _truth(**overrides):
    """A valid inline order-2 truth with ``overrides`` applied."""
    doc = {
        "a": 1.0,
        "components": [{"order": 2, "kind": "constant", "value": 1.0}],
        "noise": {"kind": "gaussian", "sigma": 0.5},
        "class": {"s": [1.0, 1.0], "lam": [1.0, 1.0], "max_order": 2, "class_bound": 1.0},
    }
    doc.update(overrides)
    return doc


def _gridded(order, g, values):
    return {"order": order, "kind": "gridded", "grid_size": g, "values": values}


# malformed configs that must exit 1 in every command, before any output
MALFORMED = [
    ({"bandwidths": {"mode": "theorem41", "s": [1.0], "lam": [1.0], "practical": "no"}},
     r"bandwidths\.practical: expected true or false"),
    ({"s_star_lo": True}, r"s_star_lo: expected a number, got True"),
    ({"risk_p": "four"}, r"risk_p: expected a number"),
    ({"s_star_lo": "half"}, r"s_star_lo: expected a number"),
    ({"bandwidths": {"mode": "fixed", "values": {"one": 0.25, "2": 0.25}}},
     r"bandwidths\.values\[one\]: keys must be orders"),
    ({"bandwidths": {"mode": "fixed", "values": {"1": "x", "2": 0.25}}},
     r"bandwidths\.values\[1\]: expected a number"),
    ({"bandwidths": {"mode": "fixed", "values": {"1": 0.25, "2": 0.25, "5": 0.25}}},
     r"bandwidths\.values\[5\]: keys must be orders in 1\.\.max_order = 2"),
    ({"bandwidths": {"mode": "theoretical", "s": ["a"], "lam": [1.0]}},
     r"bandwidths\.s\[0\]: expected a number"),
    ({"truth": _truth(**{"class": [1]})}, r"truth\.class: expected an object"),
    ({"truth": _truth(**{"class": {"class_bound": "x"}})},
     r"truth\.class\.class_bound: expected a number"),
    ({"truth": _truth(**{"class": {"s": "ab"}})}, r"truth\.class\.s: expected a list"),
    ({"truth": _truth(**{"class": {"max_order": "3"}})},
     r"truth\.class\.max_order: expected an integer"),
    ({"truth": _truth(**{"class": {"gamma": "x"}})}, r"truth\.class\.gamma: expected a number"),
    ({"truth": _truth(components=[{"order": 2, "kind": "poly", "coeffs": ["a"]}])},
     r"truth\.components\[0\]\.coeffs\[0\]: expected a number"),
    ({"truth": _truth(components=[{"order": 2, "kind": "poly", "coeffs": [[1.0]]}])},
     r"truth\.components\[0\]\.coeffs\[0\]: expected a number"),
    ({"truth": _truth(components=[_gridded(1, 2, ["a", 1])])},
     r"truth\.components\[0\]\.values\[0\]: expected a number"),
    ({"truth": _truth(noise={"kind": "gaussian", "sigma": -1})},
     r"truth\.noise: sigma must be >= 0"),
    ({"truth": _truth(components=[{"order": 1, "kind": "constant", "value": 1.0}] * 2)},
     r"truth\.components: at most one component per order"),
    ({"truth": _truth(components=[{"order": 0, "kind": "constant", "value": 1.0}])},
     r"truth\.components\[0\]\.order: must be >= 1"),
    ({"truth": _truth(components=[_gridded(2, 2, [1.0, 2.0, 3.0, 4.0])])},
     r"truth\.components\[0\]: gridded components must be symmetric"),
    ({"seed": -1}, r"seed: must be >= 0"),
    ({"bandwidths": {"mode": "fixed", "values": {"1": 0.1, "01": 0.2, "2": 0.25}}},
     r"bandwidths\.values: keys '1' and '01' name one order"),
    ({"truth": _truth(components=[_gridded(1, 3, [1.0] * 3)]), "path_steps": 64},
     r"truth\.components\[0\]\.grid_size: 3 does not divide path_steps 64"),
    ({"s_star_hi": math.inf}, r"s_star_hi: expected a number, got inf"),
    # Monte Carlo risk takes any order, up to the surface budget
    ({"risk_p": 4.0, "max_order": 6,
      "bandwidths": {"mode": "fixed", "values": {str(o): 0.25 for o in range(1, 7)}}},
     r"^grid_size: an order-6 surface on grid_size 16 takes"),
    ({"truth": _truth(components=[{"order": 2, "kind": "constant", "value": 1.0},
                                  _gridded(1, 3, [1.0] * 3)]), "path_steps": 64},
     r"truth\.components\[1\]\.grid_size: 3 does not divide path_steps 64"),
    ({"majorant": {"mu4": 0, "class_bound": 1.0}}, "majorant:"),
    ({"majorant": {"mu4": 0.66, "class_bound": -1}}, "majorant:"),
    ({"s_star_hi": 1e7}, r"s_star_hi: s_star must be at most 232"),
    # the factor's path-grid norm overflows, or is 0 though the factor is not
    ({"truth": _truth(components=[{"order": 1, "kind": "poly", "coeffs": [1e200, 0.5]}])},
     r"truth\.components\[0\]\.coeffs: hermite_chaos requires"),
    ({"truth": _truth(components=[{"order": 2, "kind": "poly",
                                   "coeffs": [0.0, -0.5, 1.0]}]),
      "path_steps": 2, "grid_size": 2},
     r"truth\.components\[0\]\.coeffs: hermite_chaos requires"),
    # the norm is finite, its fourth power is not
    ({"truth": _truth(components=[{"order": 4, "kind": "poly", "coeffs": [1e100]}])},
     r"truth\.components\[0\]\.coeffs: hermite_chaos requires"),
    # a key that no reader takes, at the top level and in each block
    ({"gird_size": 8}, r"^gird_size: unknown key"),
    ({"risk": {"nmc": 5}}, r"^risk\.nmc: unknown key"),
    ({"check": {"n_mc": 1500, "kernel_coeff_perturbation": 0.1}},
     r"^check\.kernel_coeff_perturbation: unknown key"),
    ({"majorant": {"mu4": 0.66, "class_bound": 1.0, "mu_4": 0.5}},
     r"^majorant\.mu_4: unknown key"),
    ({"bandwidths": {"mode": "theoretical", "s": [1.0], "lam": [1.0], "practical": True}},
     r"^bandwidths\.practical: unknown key"),
    ({"bandwidths": {"mode": "fixed", "values": {"1": 0.25, "2": 0.25}, "s": [1.0]}},
     r"^bandwidths\.s: unknown key"),
    ({"truth": _truth(sigma=0.5)}, r"^truth\.sigma: unknown key"),
    ({"truth": _truth(noise={"kind": "gaussian", "sigma": 0.5, "half_width": 1.0})},
     r"^truth\.noise\.half_width: unknown key"),
    ({"truth": _truth(**{"class": {"max_order": 2, "bound": 1.0}})},
     r"^truth\.class\.bound: unknown key"),
    ({"truth": _truth(components=[{"order": 2, "kind": "constant", "value": 1.0,
                                   "coeffs": [1.0]}])},
     r"^truth\.components\[0\]\.coeffs: unknown key"),
    # an empty factor, a surface of more axes than numpy allows, two keys of one order
    ({"truth": _truth(components=[{"order": 1, "kind": "poly", "coeffs": []}])},
     r"truth\.components\[0\]\.coeffs: Coefficient array is empty"),
    ({"truth": _truth(components=[_gridded(70, 1, [1.0])])},
     r"truth\.components\[0\]\.values: "),
    ({"bandwidths": {"mode": "fixed", "values": {"1": 0.1, "\u0661": 0.2, "2": 0.25}}},
     r"bandwidths\.values: keys '1' and '\u0661' name one order"),
]


def test_surface_budget_counts_fitted_orders_only():
    fixed = {"mode": "fixed", "values": {str(o): 0.25 for o in range(1, 6)}}
    with pytest.raises(ConfigError, match=r"^grid_size: an order-5 surface on grid_size 64 "
                                          r"takes 8589934592 bytes, more than MAX_SURFACE"):
        parse_config(_base_doc(path_steps=512, grid_size=64, max_order=5, bandwidths=fixed))
    # neither risk builds a G^l tensor of an order only the truth has
    order6 = _truth(components=[{"order": 6, "kind": "constant", "value": 1.0}])
    for risk_p in (2.0, 4.0):
        parse_config(_base_doc(path_steps=512, grid_size=64, truth=order6, risk_p=risk_p))
    # the budget admits an order-3 fit on 128 points per axis
    largest = parse_config(_base_doc(path_steps=512, grid_size=128, max_order=3, bandwidths={
        "mode": "fixed", "values": {"1": 0.25, "2": 0.25, "3": 0.25}}))
    assert largest.grid_size**3 * 8 == benchcli.MAX_SURFACE_BYTES


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"grid_size": 15}, "does not divide"),
        ({"n_list": []}, "non-empty"),
        ({"n_list": [100, 50]}, "increasing"),
        ({"s_star_hi": -1.0}, "positive"),
        ({"replications": 0}, "replications"),
        ({"risk_p": 1.0}, "risk_p"),
        ({"risk_p": 4.0, "risk": {"method": "isometry"}}, "isometry"),
        ({"bandwidths": {"mode": "fixed", "values": {"1": 0.25}}}, "missing orders"),
        ({"bandwidths": {"mode": "warp"}}, "unknown mode"),
        ({"truth": "unknown_truth"}, "unknown named truth"),
        ({"risk_p": 4.0, "risk": {"n_mc": 50}}, r"risk\.n_mc: Monte Carlo risk needs >= 100"),
        ({"check": {"n_mc": 50}}, r"check\.n_mc: .* >= 100"),
        ({"risk": "isometry"}, "risk: expected an object"),
        ({"check": []}, "check: expected an object"),
        ({"risk": {"n_mc": "many"}}, r"risk\.n_mc: expected an integer"),
        ({"majorant": {"mu4": "x", "class_bound": 1.0}}, "expected a number"),
        *MALFORMED,
    ],
)
def test_parse_config_rejects(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(_base_doc(**overrides))


def test_inline_truth_parsing():
    doc = _base_doc(
        truth={
            "a": 0.5,
            "components": [
                {"order": 1, "kind": "poly", "coeffs": [0.0, 1.0]},
                {"order": 2, "kind": "constant", "value": 0.5},
            ],
            "noise": {"kind": "gaussian", "sigma": 0.25},
            "class": {"s": [1.0, 1.0], "lam": [1.0, 1.0], "max_order": 2},
        }
    )
    config = parse_config(doc)
    assert config.truth.a == 0.5
    assert config.truth.orders == (1, 2)


def test_theoretical_bandwidth_example():
    assert theoretical_bandwidth(1, 1000, 1.0, 1.0) == pytest.approx(0.1, abs=1e-15)
    assert theoretical_bandwidth(2, 4096, 2.0, 1.0) == pytest.approx(4096 ** (-1 / 6))


def test_truncation_order_around_e_nine():
    # exp(9) = 8103.08...; the integer part of sqrt(log n) reaches 3 at 8104
    assert truncation_order(8104) == 3
    assert truncation_order(400) == 2


def test_growing_order_bandwidth_practical_mode_drops_factor():
    full = growing_order_bandwidth(1, 1000, 1.0, 1.0, l_n=2, p=2.0, kernel_l2=2.0)
    practical = growing_order_bandwidth(
        1, 1000, 1.0, 1.0, l_n=2, p=2.0, kernel_l2=2.0, practical=True
    )
    assert practical == pytest.approx(theoretical_bandwidth(1, 1000, 1.0, 1.0))
    c2 = math.sqrt(6.0) * 2.0
    assert full == pytest.approx((c2**4 / 1000) ** (1.0 / 3.0))


def test_simulate_writes_datasets_and_manifest(tmp_path):
    config = parse_config(_base_doc())
    out = cmd_simulate(config, tmp_path / "sim")
    for rep in (0, 1):
        rep_dir = out / "n_000040" / f"rep_{rep:03d}"
        assert (rep_dir / "responses.csv").exists()
        assert (rep_dir / "paths.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert len(manifest["outputs"]) == 4
    # replication datasets use distinct derived seeds
    a = (out / "n_000040" / "rep_000" / "responses.csv").read_text()
    b = (out / "n_000040" / "rep_001" / "responses.csv").read_text()
    assert a != b


def test_simulate_reproducible_digests(tmp_path):
    config = parse_config(_base_doc())
    out1 = cmd_simulate(config, tmp_path / "sim1")
    out2 = cmd_simulate(config, tmp_path / "sim2")
    d1 = json.loads((out1 / "manifest.json").read_text())["outputs"]
    d2 = json.loads((out2 / "manifest.json").read_text())["outputs"]
    assert d1 == d2


def test_simulate_draws_each_replication_once(tmp_path, monkeypatch):
    # the responses and paths.csv come from one draw of each replication's
    # paths: n rows of increments per replication, not 2n
    config = parse_config(_base_doc(n_list=[40, 60]))
    rows = []
    inner = pathlab.brownian_increments

    def counted(grid, n, rng):
        rows.append(n)
        return inner(grid, n, rng)
    monkeypatch.setattr(pathlab, "brownian_increments", counted)
    cmd_simulate(config, tmp_path / "sim", threads=1)
    assert sum(rows) == (40 + 60) * config.replications


def test_dataset_round_trip(tmp_path):
    config = parse_config(_base_doc())
    out = cmd_simulate(config, tmp_path / "sim")
    sample = load_dataset(out / "n_000040" / "rep_000", config.path_steps)
    assert sample.n == 40
    assert sample.paths.shape == (40, 129)
    assert np.all(sample.paths[:, 0] == 0.0)


def test_fit_and_risk_pipeline(tmp_path):
    config = parse_config(_base_doc())
    fits = cmd_fit(config, tmp_path / "fits")
    model_path = fits / "n_000040" / "rep_000" / "model.json"
    model = model_from_json(model_path.read_text())
    assert model.orders == (1, 2)
    risks = cmd_risk(config, fits, tmp_path / "risks")
    rows = (risks / "risk.csv").read_text().splitlines()
    assert rows[0] == "n,rep,p,method,value,mc_stderr"
    assert len(rows) == 3
    agg = (risks / "aggregates.csv").read_text().splitlines()
    values = [float(r.split(",")[4]) for r in rows[1:]]
    assert float(agg[1].split(",")[1]) == pytest.approx(np.mean(values))


def test_spaced_model_json_gives_the_same_risk(tmp_path):
    # model.json files in the spaced layout of json.dumps' default separators,
    # which earlier versions wrote, give the risk output of the compact ones
    config = parse_config(_base_doc())
    fits = cmd_fit(config, tmp_path / "fits")
    spaced = tmp_path / "spaced"
    for path in fits.glob("n_*/rep_*/model.json"):
        text = json.dumps(json.loads(path.read_text()), sort_keys=True)
        assert ", " in text and ", " not in path.read_text()
        target = spaced / path.relative_to(fits)
        target.parent.mkdir(parents=True)
        target.write_text(text)
    risks = [cmd_risk(config, models, tmp_path / f"risk_{models.name}")
             for models in (fits, spaced)]
    for name in ("risk.csv", "aggregates.csv"):
        assert (risks[0] / name).read_bytes() == (risks[1] / name).read_bytes()


def test_risk_zero_for_perfect_model(tmp_path):
    config = parse_config(_base_doc(replications=1))
    truth = config.truth
    # the unit surface of the quadratic_terminal truth
    estimate = ChaosKernelEstimate(2, config.grid_size, np.ones((config.grid_size,) * 2),
                                   bandwidth=0.25)
    model = FittedModel(truth.a, (estimate,))
    rep_dir = tmp_path / "models" / "n_000040" / "rep_000"
    rep_dir.mkdir(parents=True)
    (rep_dir / "model.json").write_text(model_to_json(model))
    risks = cmd_risk(config, tmp_path / "models", tmp_path / "risks")
    row = (risks / "risk.csv").read_text().splitlines()[1]
    assert float(row.split(",")[4]) == 0.0


def test_adapt_writes_traces(tmp_path):
    config = parse_config(
        _base_doc(
            n_list=[500],
            path_steps=256,
            s_star_hi=1.0,
            bandwidths={"mode": "adaptive"},
            replications=1,
        )
    )
    out = cmd_adapt(config, tmp_path / "adapted")
    rep_dir = out / "n_000500" / "rep_000"
    assert (rep_dir / "model.json").exists()
    for order in (1, 2):
        lines = (rep_dir / f"trace_order{order}.csv").read_text().splitlines()
        assert lines[0] == "ell,h,majorant,bias_proxy,objective,chosen"
        assert sum(int(line.split(",")[-1]) for line in lines[1:]) == 1


def test_rate_requires_enough_points():
    config = parse_config(_base_doc(n_list=[100, 200, 400]))
    with pytest.raises(ConfigError, match="at least 4"):
        cmd_rate(config, None)


def _rate_doc(**overrides):
    doc = _base_doc(
        truth={
            "a": 1.0,
            "components": [{"order": 1, "kind": "poly", "coeffs": [1.0, 0.5]}],
            "noise": {"kind": "gaussian", "sigma": 0.5},
            "class": {"s": [1.0], "lam": [1.0], "max_order": 1},
        },
        n_list=[50, 100, 200, 500],
        max_order=1,
        s_star_hi=1.0,
        bandwidths={"mode": "theoretical", "s": [1.0], "lam": [1.0]},
        replications=2,
    )
    doc.update(overrides)
    return doc


def test_rate_smoke(tmp_path):
    report = cmd_rate(parse_config(_rate_doc()), tmp_path / "rate")
    assert report["theoretical_slope"] == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert "slope" in report and "slope_stderr" in report
    assert (tmp_path / "rate" / "risk_by_n.csv").exists()
    assert (tmp_path / "rate" / "rate.json").exists()


def _sabotage_kernels(monkeypatch):
    """Shift every kernel coefficient the checks build by 0.1."""
    def shifted(s_star):
        kernel = build_kernel(s_star)
        return MomentKernel(kernel.moment_order, kernel.poly_coeffs + 0.1, kernel.l2_norm)

    monkeypatch.setattr(benchcli, "build_kernel", shifted)


def test_check_passes_and_sabotage_fails(tmp_path, monkeypatch):
    config = parse_config(_base_doc())
    report = cmd_check(config, tmp_path / "check")
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert any(name.startswith("kernel_m3") for name in names)
    assert any(name.startswith("hypercontractivity") for name in names)
    _sabotage_kernels(monkeypatch)
    bad = cmd_check(config, tmp_path / "check_bad")
    assert not bad["passed"]
    failed = [c["name"] for c in bad["checks"] if not c["passed"]]
    assert any("mass" in name for name in failed)


def test_check_writes_a_manifest_with_the_check_digest(tmp_path, capsys):
    cfg = _write_config(tmp_path, _base_doc())
    out = tmp_path / "check"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "check.json").read_text())
    assert capsys.readouterr().out.splitlines() == [
        f"pass {c['name']}: {c['measured']:.6g}" for c in report["checks"]]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "check"
    assert manifest["outputs"] == {"check.json": benchcli._sha256(out / "check.json")}
    # the manifest replays as the config, to the same check.json
    replay = tmp_path / "replay"
    assert main(["check", "--config", str(out / "manifest.json"), "--out", str(replay)]) == 0
    assert (replay / "check.json").read_bytes() == (out / "check.json").read_bytes()


def test_hypercontractivity_slack_is_in_lhs_units(monkeypatch):
    # lhs = (E xi^4)^(1/4) = 1.25 exceeds rhs = sqrt(3) (E xi^2)^(1/2) = 1 by five
    # delta-method standard errors, 0.5 * 0.125 / 1.25 = 0.05 each, but by less
    # than 3 * 0.125, the standard error of (E xi^4)^(1/2)
    def fake_reports(order, h, rs, n_mc, seed, kernel, t=None, n_steps=512):
        reports = {1: BoundReport(1.0 / 3.0, math.inf, True, 0.0, n_mc, seed),
                   2: BoundReport(1.25**2, math.inf, True, 0.125, n_mc, seed)}
        return tuple(reports[r] for r in rs)

    monkeypatch.setattr(benchcli, "moment_bound_reports", fake_reports)
    report = benchcli.run_checks(parse_config(_base_doc()))
    hyper = {c["name"]: c for c in report["checks"]}["hypercontractivity_l1"]
    assert hyper["measured"] == 1.25 and hyper["target"] == pytest.approx(1.0, rel=1e-12)
    assert 1.25 - 1.0 < 3 * 0.125
    assert not hyper["passed"]


def test_check_draws_once_per_order_and_bandwidth(monkeypatch):
    # h = e^-2 serves the second-moment bound and hypercontractivity from one draw
    draws = []

    def counted(order, h, rs, *args, **kwargs):
        draws.append((order, h))
        return moment_bound_reports(order, h, rs, *args, **kwargs)

    monkeypatch.setattr(benchcli, "moment_bound_reports", counted)
    report = benchcli.run_checks(parse_config(_base_doc(check={"n_mc": 200})))
    assert sorted(draws) == [(o, math.exp(-k)) for o in (1, 2) for k in (3, 2)]
    names = [c["name"] for c in report["checks"] if "moment_bound" in c["name"]]
    assert names == [f"second_moment_bound_l{o}_h_e-{k}" for o in (1, 2) for k in (2, 3)]


def test_main_exit_codes(tmp_path, monkeypatch):
    good = _write_config(tmp_path, _base_doc(check={"n_mc": 1500}))
    assert main(["check", "--config", str(good), "--out", str(tmp_path / "ok")]) == 0
    bad_cfg = _write_config(tmp_path, _base_doc(grid_size=15), "bad.json")
    assert main(["check", "--config", str(bad_cfg), "--out", str(tmp_path / "no")]) == 1
    with monkeypatch.context() as patch:
        _sabotage_kernels(patch)
        assert main(["check", "--config", str(good), "--out", str(tmp_path / "sab")]) == 2
    # risk checks its models tree before it writes anything
    assert main(["risk", "--config", str(good), "--out", str(tmp_path / "risk"),
                 "--models", str(tmp_path / "no_models")]) == 1
    assert not (tmp_path / "risk").exists()
    # malformed or too small risk and check blocks, and every malformed value,
    # fail validation in every command
    bad_blocks = [
        {"risk_p": 4.0, "risk": {"n_mc": 50}},
        {"check": {"n_mc": 50}},
        {"risk": "isometry"},
        {"check": []},
        {"risk": {"n_mc": "many"}},
        *(overrides for overrides, _ in MALFORMED),
    ]
    runs = [(_base_doc(**overrides), []) for overrides in bad_blocks]
    runs.append(([_base_doc()], ["--seed", "5"]))  # a top-level list, with --seed
    for i, (doc, seed) in enumerate(runs):
        cfg = _write_config(tmp_path, doc, f"block{i}.json")
        for command in ("simulate", "fit", "adapt", "risk", "rate", "check"):
            out = tmp_path / f"out_{i}_{command}"
            argv = [command, "--config", str(cfg), "--out", str(out), *seed]
            if command == "risk":
                argv += ["--models", str(tmp_path / "ok")]
            assert main(argv) == 1, (doc, command)
            assert not out.exists()

    # check writes nothing when its checks raise
    def broken(config):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(benchcli, "run_checks", broken)
    assert main(["check", "--config", str(good), "--out", str(tmp_path / "raised")]) == 3
    assert not (tmp_path / "raised").exists()


def test_unfittable_bandwidth_plan_is_rejected_before_any_output(tmp_path):
    # h = (1 / (lam^2 n))^(1/(2s + 1)) = 200^(1/3) = 5.85 at n = 50
    doc = _rate_doc(bandwidths={"mode": "theoretical", "s": [1.0], "lam": [0.01]})
    with pytest.raises(ConfigError, match=r"order 1 at n=50 "):
        parse_config(doc)
    cfg = _write_config(tmp_path, doc)
    for command in ("simulate", "fit", "rate"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()


def test_seed_override_changes_outputs(tmp_path):
    cfg = _write_config(tmp_path, _base_doc(n_list=[20], replications=1))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "7"]
    ) == 0
    a = (tmp_path / "a" / "n_000020" / "rep_000" / "responses.csv").read_text()
    b = (tmp_path / "b" / "n_000020" / "rep_000" / "responses.csv").read_text()
    assert a != b


def test_plot_risk_curve_deterministic(tmp_path):
    csv = tmp_path / "risk_by_n.csv"
    csv.write_text(
        "n,mean_risk,std_risk,replications\n"
        "500,0.24,0.01,20\n1000,0.17,0.01,20\n2000,0.13,0.01,20\n4000,0.11,0.01,20\n"
    )
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    cmd_plot(csv, out1)
    cmd_plot(csv, out2)
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "<polyline" in text and "slope" in text


def test_plot_trace_series(tmp_path):
    csv = tmp_path / "trace.csv"
    csv.write_text(
        "ell,h,majorant,bias_proxy,objective,chosen\n"
        "1,0.135,3.77,0,3.77,1\n1,0.0498,7.42,0,7.42,0\n"
    )
    out = tmp_path / "trace.svg"
    cmd_plot(csv, out)
    text = out.read_text()
    assert text.count("<polyline") == 3
    assert "majorant" in text and "bias_proxy" in text and "objective" in text


def test_plot_rejects_unknown_header(tmp_path):
    csv = tmp_path / "junk.csv"
    csv.write_text("foo,bar\n1,2\n")
    assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "x.svg")]) == 1


def test_plot_rejects_a_missing_csv(tmp_path):
    out = tmp_path / "x.svg"
    assert main(["plot", "--csv", str(tmp_path / "missing.csv"), "--out", str(out)]) == 1
    assert not out.exists()


def _output_digests(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())["outputs"]


@pytest.mark.parametrize("command",
                         ["simulate", "fit", "adapt", "rate", "fit_order3", "rate_order1"])
def test_replications_parallel_match_serial(tmp_path, command):
    if command == "rate_order1":
        # every slice row is drawn as one response-weighted sum per replication
        config = parse_config(_base_doc(n_list=[30, 60, 120, 300], replications=2, max_order=1,
                                        bandwidths={"mode": "fixed", "values": {"1": 0.25}}))
    elif command == "fit_order3":
        # workers serialize their own models
        config = parse_config(_base_doc(
            n_list=[30], max_order=3, replications=3,
            bandwidths={"mode": "fixed", "values": {"1": 0.25, "2": 0.25, "3": 0.25}}))
    elif command == "rate":
        config = parse_config(_base_doc(n_list=[30, 60, 120, 300], replications=2))
    elif command == "adapt":
        config = parse_config(
            _base_doc(n_list=[500], path_steps=256, s_star_hi=1.0,
                      bandwidths={"mode": "adaptive"}, replications=2)
        )
    else:
        config = parse_config(_base_doc(n_list=[30], replications=3))
    if command.startswith("rate"):
        # --threads reaches rate only as a CLI flag, which it ignores
        cfg = str(_write_config(tmp_path, config.doc))

        def run(config, out, threads):
            assert main(["rate", "--config", cfg, "--out", str(out),
                         "--threads", str(threads)]) == 0
    else:
        run = {"simulate": cmd_simulate, "fit": cmd_fit, "adapt": cmd_adapt,
               "fit_order3": cmd_fit}[command]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    run(config, serial, threads=1)
    run(config, parallel, threads=2)
    assert _output_digests(serial) == _output_digests(parallel)


def test_monte_carlo_risk_parallel_matches_serial(tmp_path, monkeypatch):
    config = parse_config(
        _base_doc(n_list=[30], replications=3, risk_p=4.0, risk={"n_mc": 100})
    )
    assert config.risk_method == "monte_carlo"
    models = cmd_fit(config, tmp_path / "fits")
    serial = cmd_risk(config, models, tmp_path / "serial", threads=1)
    parallel = cmd_risk(config, models, tmp_path / "parallel", threads=2)
    assert _output_digests(serial) == _output_digests(parallel)
    # isometry risk runs in process whatever --threads says: starting a pool
    # would fail here
    iso = parse_config(_base_doc(n_list=[30], replications=3))
    assert iso.risk_method == "isometry"
    serial = cmd_risk(iso, models, tmp_path / "iso_serial", threads=1)
    monkeypatch.setattr(benchcli, "_pool", None)
    parallel = cmd_risk(iso, models, tmp_path / "iso_parallel", threads=2)
    assert _output_digests(serial) == _output_digests(parallel)
    # and with one thread every other command runs in process too
    cmd_fit(config, tmp_path / "refit", threads=1)
    cmd_simulate(config, tmp_path / "data", threads=1)
    cmd_rate(parse_config(_rate_doc()), tmp_path / "rate")


def _count_calls(monkeypatch, calls, module, name):
    """Count in ``calls[name]`` each call of ``module.name``."""
    inner = getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        return inner(*args)
    monkeypatch.setattr(module, name, wrapper)


def test_rate_runs_in_process_and_builds_each_n_once(tmp_path, monkeypatch):
    # rate starts no pool whatever --threads says (starting one would fail
    # here), and each n's slice rows and their QR factor are built once, not
    # once per replication: two distinct bandwidths at each of four n
    doc = _base_doc(n_list=[30, 60, 120, 300], replications=3,
                    bandwidths={"mode": "fixed", "values": {"1": 0.25, "2": 0.2}})
    cfg = str(_write_config(tmp_path, doc))

    def rate(out, threads):
        assert main(["rate", "--config", cfg, "--out", str(out), "--threads", threads]) == 0

    serial = tmp_path / "serial"
    rate(serial, "1")
    calls = {"slice_matrix": 0, "_functional_factor": 0}
    _count_calls(monkeypatch, calls, chaosreg, "slice_matrix")
    _count_calls(monkeypatch, calls, chaoscalc, "_functional_factor")
    monkeypatch.setattr(benchcli, "_pool", None)
    rate(tmp_path / "parallel", "2")
    assert _output_digests(tmp_path / "parallel") == _output_digests(serial)
    assert calls == {"slice_matrix": 4 * 2, "_functional_factor": 4}


def test_fit_and_adapt_build_each_distinct_bandwidth_once(tmp_path, monkeypatch):
    # orders that share a bandwidth share its slice integrals.  In adaptive
    # mode order 1's candidates (e^-2, e^-3) hold order 2's one (e^-2) at both
    # n: 2 blocks per replication, not 3 (one per order and candidate)
    adapt = parse_config(_base_doc(n_list=[500, 1000], path_steps=512, grid_size=64,
                                   bandwidths={"mode": "adaptive"}))
    for n in adapt.n_list:
        plan = benchcli.plan_bandwidths(adapt, n)
        assert plan == {1: (math.exp(-2), math.exp(-3)), 2: (math.exp(-2),)}
    calls = {"slice_matrix": 0}
    _count_calls(monkeypatch, calls, chaosreg, "slice_matrix")
    cmd_adapt(adapt, tmp_path / "adapt", threads=1)
    assert calls["slice_matrix"] == 2 * 2 * 2
    # the fixed plan gives both orders h = 0.25: one block per replication
    calls["slice_matrix"] = 0
    cmd_fit(parse_config(_base_doc()), tmp_path / "fit", threads=1)
    assert calls["slice_matrix"] == 2


@pytest.mark.parametrize("route", ["seed", "data"])
@pytest.mark.parametrize("mode", ["fixed", "theoretical", "theorem41", "adaptive"])
def test_fit_one_matches_the_per_order_fits(tmp_path, mode, route):
    # one fit per (order, h) from its own slice integrals, and selection by
    # adaptive_fit, give the models _fit_one builds from shared ones, bit for bit
    bandwidths = {"fixed": {"mode": "fixed", "values": {"1": 0.25, "2": 0.25}},
                  "theoretical": {"mode": "theoretical", "s": [1.0, 1.0], "lam": [1.0, 1.0]},
                  "theorem41": {"mode": "theorem41", "s": [1.0], "lam": [1.0],
                                "practical": True},
                  "adaptive": {"mode": "adaptive"}}[mode]
    config = parse_config(_base_doc(n_list=[500], path_steps=256, replications=1,
                                    bandwidths=bandwidths))
    data = cmd_simulate(config, tmp_path / "data") if route == "data" else None
    model = benchcli._fit_one(config, 0, 500, 0, data)
    sample = benchcli._sample_for(config, 0, 500, 0, data)
    kernel = config.kernel()
    if mode == "adaptive":
        expected = adaptive_fit(sample, config.max_order, config.majorant, config.s_star_lo,
                                config.grid_size, kernel)
    else:
        expected = FittedModel(estimate_mean(sample), tuple(
            fit_chaos_kernel(sample, order, h, config.grid_size, kernel)
            for order, (h,) in sorted(benchcli.plan_bandwidths(config, 500).items())))
    assert len(expected.components) == 2
    assert model_to_json(model) == model_to_json(expected)
    assert model.selection_traces == expected.selection_traces


def test_routes_agree_on_a_sample_that_ends_in_a_part_block(tmp_path):
    # n = 1300 at N = 256 is two blocks of block_rows(256) = 512 rows and 276:
    # the seed route, the --data route and fit_chaos_kernel give one model.json
    config = parse_config(_base_doc(
        n_list=[1300], path_steps=256, replications=1,
        bandwidths={"mode": "fixed", "values": {"1": 0.25, "2": 0.2}}))
    assert 1300 % block_rows(256) != 0
    data = cmd_simulate(config, tmp_path / "data")
    texts = [(cmd_fit(config, tmp_path / route, data_dir=data_dir)
              / "n_001300" / "rep_000" / "model.json").read_text()
             for route, data_dir in (("seeds", None), ("data", data))]
    grid, seed = make_grid(256), config.rep_seed(0, 0)
    paths = sample_brownian_paths(grid, 1300, derive_seed(seed, 0))
    kernel = config.kernel()
    synthesized = synthesize(config.truth, 1300, grid, seed)
    loaded = load_dataset(data / "n_001300" / "rep_000", 256)
    assert np.array_equal(sample_brownian_paths(grid, 1300, synthesized.paths.seed), paths)
    assert np.array_equal(loaded.paths, paths)
    for sample in (synthesized, loaded):
        texts.append(model_to_json(FittedModel(estimate_mean(sample), tuple(
            fit_chaos_kernel(sample, order, h, config.grid_size, kernel)
            for order, (h,) in sorted(benchcli.plan_bandwidths(config, 1300).items())))))
    assert texts[1:] == texts[:-1]


def test_seed_route_fit_holds_no_path_matrix():
    # one (n, N) float64 matrix at n = 20 000 and N = 512 is 82 MB; the fit
    # holds x (G, n) per bandwidth and one row block of paths
    n, n_steps = 20_000, 512
    config = parse_config(_base_doc(
        n_list=[n], path_steps=n_steps, replications=1,
        bandwidths={"mode": "fixed", "values": {"1": 0.25, "2": 0.2}}))
    tracemalloc.start()
    try:
        model = benchcli._fit_one(config, 0, n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.orders == (1, 2)
    assert peak < n * n_steps * 8 / 5


def test_high_order_gridded_truth_parses_in_adjacent_swaps():
    # all 9! axis permutations take seconds to compare; 8 adjacent swaps generate them
    doc = _base_doc(truth=_truth(components=[_gridded(9, 1, [1.0])]))
    started = time.perf_counter()
    parse_config(doc)
    assert time.perf_counter() - started < 0.1


def test_empty_adaptive_bracket_is_rejected_before_any_output(tmp_path):
    # the README config in adaptive mode: the order-2 bracket at n = 2000,
    # [0.0794, 0.1316], holds no e^-k
    doc = _base_doc(
        n_list=[500, 1000, 2000, 5000], path_steps=512, grid_size=64,
        bandwidths={"mode": "adaptive"}, risk_p=2.0, risk={}, replications=20,
        seed=20240801, check={},
    )
    with pytest.raises(ConfigError, match=r"n=2000, order 2"):
        parse_config(doc)
    cfg = _write_config(tmp_path, doc)
    for command in ("rate", "adapt"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
    # adapt selects bandwidths whatever the configured mode, and checks first
    cfg = _write_config(
        tmp_path, dict(doc, bandwidths={"mode": "theoretical", "s": [1.0], "lam": [1.0]}),
        "theoretical.json",
    )
    out = tmp_path / "adapt_theoretical"
    assert main(["adapt", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_theorem41_mode_fits_growing_orders(tmp_path):
    doc = _base_doc(
        n_list=[8104],
        path_steps=128,
        grid_size=8,
        max_order=3,
        bandwidths={"mode": "theorem41", "s": [1.0], "lam": [1.0], "practical": True},
        replications=1,
    )
    config = parse_config(doc)
    out = cmd_fit(config, tmp_path / "t41")
    model = model_from_json((out / "n_008104" / "rep_000" / "model.json").read_text())
    # L_n = integer part of sqrt(log 8104) = 3
    assert model.orders == (1, 2, 3)
    risks = cmd_risk(config, out, tmp_path / "t41risk")
    row = (risks / "risk.csv").read_text().splitlines()[1]
    assert row.split(",")[3] == "isometry"


def test_fit_from_simulated_data_matches_seed_route(tmp_path):
    config = parse_config(_base_doc(n_list=[30], replications=2))
    data = cmd_simulate(config, tmp_path / "data")
    from_seeds = cmd_fit(config, tmp_path / "fit_seeds")
    from_data = cmd_fit(config, tmp_path / "fit_data", data_dir=data)
    for rep in range(2):
        a = (from_seeds / "n_000030" / f"rep_{rep:03d}" / "model.json").read_text()
        b = (from_data / "n_000030" / f"rep_{rep:03d}" / "model.json").read_text()
        assert a == b


def test_data_tree_that_does_not_match_the_config_is_rejected(tmp_path, capsys):
    data = cmd_simulate(parse_config(_base_doc(path_steps=64)), tmp_path / "data")
    # n = 40 paths filed under n = 50
    wrong_n = tmp_path / "wrong_n"
    shutil.copytree(data / "n_000040", wrong_n / "n_000050")
    # the last response of replication 1 cut off
    short = tmp_path / "short"
    shutil.copytree(data, short)
    responses = short / "n_000040" / "rep_001" / "responses.csv"
    responses.write_text("".join(responses.read_text().splitlines(keepends=True)[:-1]))
    cases = [
        (_base_doc(path_steps=128), data, "rep_000"),
        (_base_doc(path_steps=64, n_list=[50]), wrong_n, "rep_000"),
        (_base_doc(path_steps=64), short, "rep_001"),
    ]
    for i, (doc, data_dir, rep) in enumerate(cases):
        cfg = _write_config(tmp_path, doc, f"cfg{i}.json")
        out = tmp_path / f"fit{i}"
        assert main(["fit", "--config", str(cfg), "--out", str(out),
                     "--data", str(data_dir)]) == 1
        assert not out.exists()
        assert rep in capsys.readouterr().err


def test_malformed_dataset_in_a_worker_exits_1_and_writes_nothing(tmp_path, capsys):
    doc = _base_doc(n_list=[30], replications=3)
    data = cmd_simulate(parse_config(doc), tmp_path / "data")
    responses = data / "n_000030" / "rep_001" / "responses.csv"
    responses.write_text(responses.read_text().replace("\n1,", "\n1,x", 1))
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "fits"
    capsys.readouterr()
    assert main(["fit", "--config", str(cfg), "--out", str(out), "--data", str(data),
                 "--threads", "2"]) == 1
    assert not out.exists()
    assert str(responses) in capsys.readouterr().err


def test_manifest_replays_as_config(tmp_path):
    cfg = _write_config(tmp_path, _base_doc(n_list=[20], replications=1))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "first")]) == 0
    manifest = tmp_path / "first" / "manifest.json"
    assert main(["simulate", "--config", str(manifest), "--out", str(tmp_path / "replay")]) == 0
    a = json.loads((tmp_path / "first" / "manifest.json").read_text())["outputs"]
    b = json.loads((tmp_path / "replay" / "manifest.json").read_text())["outputs"]
    assert a == b


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"bandwidths": {"mode": "theoretical", "s": [1.0], "lam": [1.0]}},
        {"bandwidths": {"mode": "theorem41", "s": [1.0], "lam": [1.0], "practical": True}},
        {"bandwidths": {"mode": "adaptive"}, "n_list": [500]},
        {"risk_p": 4.0},
    ],
    ids=["fixed", "theoretical", "theorem41", "adaptive", "monte_carlo_risk"],
)
def test_manifest_config_records_applied_defaults_and_replays(tmp_path, overrides):
    doc = _base_doc(**overrides)
    for key in ("truth", "grid_size", "s_star_lo", "check"):
        del doc[key]
    given = json.dumps(doc)
    config = parse_config(doc)
    assert json.dumps(doc) == given  # the parser records defaults in its own copy
    manifest = cmd_simulate(config, tmp_path / "sim") / "manifest.json"
    recorded = json.loads(manifest.read_text())["config"]
    assert recorded == config.doc
    assert load_config(manifest) == config
    method = "isometry" if config.risk_p == 2.0 else "monte_carlo"
    assert recorded == dict(doc, truth="quadratic_terminal", grid_size=64, s_star_lo=0.5,
                            risk={"method": method, "n_mc": 400}, check={"n_mc": 10_000})


def test_parsed_truth_class_records_defaults_in_json_form():
    truth = _truth()
    del truth["class"]
    config = parse_config(_base_doc(truth=truth))
    # the declared class defaults to empty lists; a None gamma stays absent
    assert config.doc["truth"]["class"] == {"s": [], "lam": [], "max_order": 2,
                                            "class_bound": 1.0}
    assert parse_config(json.loads(json.dumps(config.doc))) == config


def test_truth_config_round_trip_including_gridded():
    from chaosbench.mappingzoo import bump_instance

    bump, _ = bump_instance(2, 0.25, [(0, 1), (1, 0)], rho=0.5, grid_size=16)
    truth = _truth(a=0.0, components=[_gridded(2, 16, bump.values.ravel().tolist())],
                   noise={"kind": "gaussian", "sigma": 0.0})
    config = parse_config(_base_doc(truth=truth, grid_size=16, max_order=2))
    assert config.truth.orders == (2,)
    assert np.array_equal(config.truth.components[0].values, bump.values)
    back = parse_config(_base_doc(truth=_truth()))
    assert back.truth == parse_config(_base_doc()).truth


def test_gridded_order_4_truth_runs(tmp_path):
    # the unit order-4 surface on any grid: m(W) = a + He_4(W(1)) / 4!
    truth = _truth(a=0.5, components=[_gridded(4, 4, [1.0] * 4**4)],
                   noise={"kind": "gaussian", "sigma": 0.0}, **{"class": {"max_order": 4}})
    orders = {str(o): 0.25 for o in range(1, 5)}
    doc = _base_doc(truth=truth, grid_size=4, max_order=4, risk_p=4.0, replications=1,
                    bandwidths={"mode": "fixed", "values": orders})
    config = parse_config(doc)
    sample = synthesize(config.truth, 50, make_grid(config.path_steps), 7)
    w1 = sample_brownian_paths(sample.grid, sample.n, sample.paths.seed)[:, -1]
    assert np.allclose(sample.responses, 0.5 + (w1**4 - 6.0 * w1**2 + 3.0) / 24.0,
                       rtol=0.0, atol=1e-12)
    cfg = _write_config(tmp_path, doc)
    for argv in (["simulate", "--out", str(tmp_path / "data")],
                 ["fit", "--out", str(tmp_path / "fits")],
                 ["risk", "--out", str(tmp_path / "risk"), "--models", str(tmp_path / "fits")]):
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 0


def test_isometry_risk_pairs_a_gridded_truth_on_another_grid(tmp_path):
    # the unit order-2 surface on G = 32 is the quadratic_terminal truth on the
    # path grid, so models on the config's G = 16 score the same against both
    models = cmd_fit(parse_config(_base_doc()), tmp_path / "fits")
    gridded = _truth(components=[_gridded(2, 32, [1.0] * 32**2)])
    risks = []
    for i, truth in enumerate(("quadratic_terminal", gridded)):
        cfg = _write_config(tmp_path, _base_doc(truth=truth), f"cfg{i}.json")
        out = tmp_path / f"risk{i}"
        assert main(["risk", "--config", str(cfg), "--out", str(out),
                     "--models", str(models)]) == 0
        rows = (out / "risk.csv").read_text().splitlines()[1:]
        risks.append([float(row.split(",")[4]) for row in rows])
    assert np.allclose(risks[0], risks[1], rtol=1e-12, atol=0.0)


def test_order_70_constant_truth_runs_under_isometry_risk(tmp_path):
    # isometry risk pairs the truth's order 70 in closed form, so no (1,)^70
    # or G^70 tensor is built
    truth = _truth(components=[{"order": 70, "kind": "constant", "value": 1.0}],
                   **{"class": {"max_order": 70}})
    cfg = _write_config(tmp_path, _base_doc(truth=truth, replications=1))
    for argv in (["simulate", "--out", str(tmp_path / "data")],
                 ["fit", "--out", str(tmp_path / "fits")],
                 ["risk", "--out", str(tmp_path / "risk"), "--models", str(tmp_path / "fits")]):
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 0
    assert parse_config(_base_doc(truth=truth)).risk_method == "isometry"


def test_theorem41_mode_runs_monte_carlo_risk(tmp_path):
    # L_n = integer part of sqrt(log n): 1 at n = 50, 2 at 100 and 1000, 3 at 8104
    doc = _base_doc(
        n_list=[50, 100, 1000, 8104], path_steps=64, grid_size=8, max_order=3, replications=2,
        bandwidths={"mode": "theorem41", "s": [1.0], "lam": [1.0], "practical": True},
        risk={"method": "monte_carlo", "n_mc": 200},
    )
    assert parse_config(doc).risk_method == "monte_carlo"
    cfg = _write_config(tmp_path, doc)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"rate{threads}"
        assert main(["rate", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
    assert outputs[0] == outputs[1]


def test_zero_poly_factor_is_rejected_before_any_output(tmp_path):
    # a zero factor has ||g|| = 0, so its Hermite form would divide by zero
    truth = {
        "a": 1.0,
        "components": [{"order": 1, "kind": "poly", "coeffs": [0.0]}],
        "noise": {"kind": "gaussian", "sigma": 0.5},
    }
    doc = _base_doc(truth=truth, n_list=[200], max_order=1,
                    bandwidths={"mode": "fixed", "values": {"1": 0.25}})
    with pytest.raises(ConfigError, match=r"components\[0\].coeffs"):
        parse_config(doc)
    cfg = _write_config(tmp_path, doc)
    for command in ("simulate", "fit"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()


def test_adapt_manifest_records_the_configured_bandwidth_mode(tmp_path):
    config = parse_config(_base_doc(n_list=[500], path_steps=256, s_star_hi=1.0,
                                    replications=1))
    out = cmd_adapt(config, tmp_path / "adapted")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "adapt"
    assert manifest["config"]["bandwidths"]["mode"] == "fixed"
    assert "n_000500/rep_000/trace_order2.csv" in manifest["outputs"]


def test_rate_with_a_malformed_class_writes_nothing(tmp_path):
    # the declared class feeds only the theoretical rate curve, after every fit
    truth = dict(_rate_doc()["truth"], **{"class": {"s": "ab"}})
    doc = _rate_doc(truth=truth, bandwidths={"mode": "fixed", "values": {"1": 0.25}})
    cfg = _write_config(tmp_path, doc)
    assert main(["rate", "--config", str(cfg), "--out", str(tmp_path / "rate")]) == 1
    assert not (tmp_path / "rate").exists()


def test_risk_rejects_models_fit_at_another_grid_size(tmp_path, capsys):
    coarse = parse_config(_base_doc(grid_size=8))
    models = cmd_fit(coarse, tmp_path / "fits")
    for i, overrides in enumerate([{}, {"risk_p": 4.0, "risk": {"n_mc": 100}}]):
        cfg = _write_config(tmp_path, _base_doc(**overrides), f"cfg{i}.json")
        out = tmp_path / f"risk{i}"
        assert main(["risk", "--config", str(cfg), "--out", str(out),
                     "--models", str(models), "--threads", "2"]) == 1
        assert not out.exists()
        assert "grid_size 8, the config has grid_size 16" in capsys.readouterr().err


def test_monte_carlo_risk_of_order_4_models_agrees_with_isometry(tmp_path):
    orders = {str(o): 0.25 for o in range(1, 5)}
    fit_doc = _base_doc(grid_size=8, max_order=4,
                        bandwidths={"mode": "fixed", "values": orders})
    models = cmd_fit(parse_config(fit_doc), tmp_path / "fits")
    risks = {}
    for method in ("isometry", "monte_carlo"):
        # the square of I_4 of a noisy surface is heavy-tailed: at a few
        # thousand draws its standard error is itself too noisy to test with
        cfg = _write_config(tmp_path, _base_doc(grid_size=8, risk={"method": method,
                                                                   "n_mc": 100_000}),
                            f"{method}.json")
        out = tmp_path / method
        assert main(["risk", "--config", str(cfg), "--out", str(out),
                     "--models", str(models)]) == 0
        rows = (out / "risk.csv").read_text().splitlines()[1:]
        risks[method] = np.array([[float(v) for v in r.split(",")[4:]] for r in rows])
    (iso, _), (mc, se) = risks["isometry"].T, risks["monte_carlo"].T
    assert np.all(se > 0)
    assert np.all(np.abs(mc - iso) <= 3 * se), (iso, mc, se)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A config, its simulated datasets, fitted models and risk table."""
    root = tmp_path_factory.mktemp("small_run")
    cfg = _write_config(root, _base_doc(n_list=[30], replications=1))
    for argv in (["simulate", "--out", str(root / "data")],
                 ["fit", "--out", str(root / "fits")],
                 ["risk", "--out", str(root / "risk"), "--models", str(root / "fits")]):
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 0
    return root


def _edit_lines(path, index, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines))


def _edit_model(doc):
    return lambda path: path.write_text(json.dumps(doc(json.loads(path.read_text()))))


def _drop_last_value(doc):
    doc["orders"][0]["values"].pop()
    return doc


def _first_path_cell(text):
    """Edit paths.csv: the first path's cell at line 3 set to ``text``."""
    return lambda path: _edit_lines(path, 3, lambda s: ",".join(
        (s.split(",", 2)[0], text, s.split(",", 2)[2])))


# (command, tree copied from the small run, file edited in it, edit); a plot
# case gives a file of the small run's risk output, or the CSV text to plot
MALFORMED_INPUTS = {
    "missing config": ("simulate", None, None, None),
    "paths ragged row": ("fit", "data", "paths.csv",
                         lambda p: _edit_lines(p, 3, lambda s: s.rsplit(",", 1)[0] + "\n")),
    "paths non-numeric cell": ("fit", "data", "paths.csv",
                               lambda p: _edit_lines(p, 3, lambda s: "abc" + s[s.index(","):])),
    # JSON values that are not numbers, and a number that is not JSON
    "paths cell true": ("fit", "data", "paths.csv", _first_path_cell("true")),
    "paths cell null": ("fit", "data", "paths.csv", _first_path_cell("null")),
    "paths cell +1": ("fit", "data", "paths.csv", _first_path_cell("+1")),
    "paths wrong header": ("fit", "data", "paths.csv",
                           lambda p: _edit_lines(p, 0, lambda s: s.replace("w_", "v_"))),
    "paths not starting at 0": ("fit", "data", "paths.csv",
                                lambda p: _edit_lines(p, 1, lambda s: s.replace(",0", ",1"))),
    "responses row without comma": ("fit", "data", "responses.csv",
                                    lambda p: _edit_lines(p, 2, lambda s: s.replace(",", ""))),
    "model truncated": ("risk", "fits", "model.json",
                        lambda p: p.write_text(p.read_text()[:100])),
    "model format /9": ("risk", "fits", "model.json",
                        lambda p: p.write_text(p.read_text().replace("model/1", "model/9"))),
    "model without mean_hat": ("risk", "fits", "model.json",
                               _edit_model(lambda d: {k: v for k, v in d.items()
                                                      if k != "mean_hat"})),
    "model value count": ("risk", "fits", "model.json", _edit_model(_drop_last_value)),
    "model not an object": ("risk", "fits", "model.json", lambda p: p.write_text("[1]")),
    "plot non-numeric": ("plot", None, "n,mean_risk,std_risk,replications\n40,x,0.1,2\n", None),
    "plot short trace header": ("plot", None, "ell,h,majorant\n1,0.1,2\n", None),
    "plot risk.csv": ("plot", None, "risk.csv", None),
    "plot zero mean risk": ("plot", None,
                            "n,mean_risk,std_risk,replications\n40,0,0,2\n80,0.1,0,2\n", None),
    "plot zero bandwidth": ("plot", None,
                            "ell,h,majorant,bias_proxy,objective,chosen\n1,0,1,0,1,1\n", None),
    "responses header only": ("fit", "data", "responses.csv",
                              lambda p: p.write_text("index,y\n")),
}


@pytest.mark.filterwarnings("error")  # a malformed file is reported, not warned about
@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_files_exit_1_and_write_nothing(case, small_run, tmp_path, capsys):
    command, tree, target, edit = MALFORMED_INPUTS[case]
    out = tmp_path / "out"
    cfg = small_run / "cfg.json"
    if command == "plot":
        csv = small_run / "risk" / target
        if not csv.exists():
            csv = tmp_path / "input.csv"
            csv.write_text(target)
        argv, named = ["plot", "--csv", str(csv)], csv
    elif tree is None:
        cfg = named = tmp_path / "missing.json"
        argv = [command, "--config", str(cfg)]
    else:
        shutil.copytree(small_run / tree, tmp_path / tree)
        named = tmp_path / tree / "n_000030" / "rep_000" / target
        edit(named)
        flag = "--data" if tree == "data" else "--models"
        argv = [command, "--config", str(cfg), flag, str(tmp_path / tree)]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    # a dataset that parses but is not a valid sample is named by its directory
    named = named.parent if case == "paths not starting at 0" else named
    assert str(named) in capsys.readouterr().err


@pytest.fixture(scope="module")
def adaptive_data(tmp_path_factory):
    """A config whose adaptive brackets are non-empty, and its simulated datasets."""
    root = tmp_path_factory.mktemp("adaptive_data")
    cfg = _write_config(root, _base_doc(n_list=[500], path_steps=64, replications=1))
    assert main(["simulate", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return root


def _set_cell(row, column, text):
    """Edit paths.csv: the cell at ``column`` of line ``row`` (line 1 is t = 0) set to ``text``."""
    def edit(lines):
        cells = lines[row].rstrip("\n").split(",")
        cells[column] = text
        lines[row] = ",".join(cells) + "\n"
    return edit


def _set_t_column(lines):
    for i in range(1, len(lines)):
        lines[i] = "7" + lines[i][lines[i].index(","):]


PATH_DEFECTS = {"nan": _set_cell(3, 5, "nan"), "inf": _set_cell(9, 1, "-inf"),
                "t column": _set_t_column}


@pytest.mark.parametrize("command", ["fit", "adapt"])
@pytest.mark.parametrize("defect", list(PATH_DEFECTS))
def test_defective_path_tables_exit_1_and_write_nothing(defect, command, adaptive_data,
                                                        tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(adaptive_data / "data", data)
    paths = data / "n_000500" / "rep_000" / "paths.csv"
    lines = paths.read_text().splitlines(keepends=True)
    PATH_DEFECTS[defect](lines)
    paths.write_text("".join(lines))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(adaptive_data / "cfg.json"), "--data", str(data),
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert str(paths.parent) in capsys.readouterr().err


def test_process_pool_is_bounded_by_the_job_count(tmp_path, monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            return map(fn, *columns)

    config = parse_config(_base_doc(n_list=[30], replications=2))
    serial = cmd_simulate(config, tmp_path / "serial", threads=1)
    monkeypatch.setattr(benchcli, "_pool", InProcessPool)
    wide = cmd_simulate(config, tmp_path / "wide", threads=64)
    assert started == [2]
    assert _output_digests(wide) == _output_digests(serial)
    cmd_fit(parse_config(_base_doc(n_list=[30], replications=3)), tmp_path / "fit", threads=2)
    assert started == [2, 2]


def test_table_writer_matches_fstrings_and_reader_returns_the_bits(tmp_path):
    values = np.array([-0.0, 5e-324, 1e308, 0.1, -1.0 / 3.0])
    rows = [(i, v, i * 10**12) for i, v in enumerate(values)]
    path = benchcli._write_table(tmp_path / "t.csv", "i,x,k", "%d,%.17g,%d", rows)
    assert path.read_text().splitlines() == ["i,x,k", *(f"{i},{v:.17g},{k}" for i, v, k in rows)]
    header, table = benchcli._read_table(path, "j,x,k", "i,x,k")
    assert header == "i,x,k"
    assert np.array_equal(table[:, 1].view(np.uint64), values.view(np.uint64))
    assert np.array_equal(table[:, 0], np.arange(5)) and table[4, 2] == 4e12


def _finite_bits(rng, shape):
    """Random finite float64 bit patterns, with the values a text writer gets wrong first."""
    values = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    values = np.where(np.isfinite(values), values, 0.0)
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-05, 1.0000000000000001e-05, 1.5e-7, 1e16, -3.0]
    values.flat[:len(special)] = special
    values.flat[len(special):2 * len(special)] = np.round(rng.normal(size=len(special)) * 1e6)
    return values


def test_paths_writer_and_table_reader_return_the_bits(tmp_path):
    grid = make_grid(16)
    paths = _finite_bits(np.random.default_rng(8), (40, grid.n_steps + 1))
    path = benchcli._write_paths(tmp_path / "paths.csv", grid, paths)
    header, table = benchcli._read_table(path, benchcli._paths_header(40))
    assert header == benchcli._paths_header(40) and table.shape == (17, 41)
    assert np.array_equal(table[:, 0], grid.points)
    assert np.array_equal(table[:, 1:].T.view(np.uint64), paths.view(np.uint64))
    # the shortest text that reads back to the bits, never %.17g's padding
    assert "0.00001" in path.read_text() and "1.5e-7" in path.read_text()


def test_table_reader_returns_the_bits_of_legacy_17g_text(tmp_path):
    values = _finite_bits(np.random.default_rng(9), (60, 5))
    path = benchcli._write_table(tmp_path / "t.csv", "a,b,c,d,e", ",".join(["%.17g"] * 5),
                                 values)
    assert path.read_text().startswith("a,b,c,d,e\n-0,0,4.9406564584124654e-324,")
    _, table = benchcli._read_table(path, "a,b,c,d,e")
    assert np.array_equal(table.view(np.uint64), values.view(np.uint64))
    # -0 first, inside and last in a row, and two texts of 1e-05
    path.write_text("a,b,c\n-0,1e-05,1.0000000000000001e-05\n1e-05,-0,-0\n")
    _, table = benchcli._read_table(path, "a,b,c")
    expected = np.array([[-0.0, 1e-05, 1e-05], [1e-05, -0.0, -0.0]])
    assert np.array_equal(table.view(np.uint64), expected.view(np.uint64))


def test_rate_leaves_orjson_unimported(tmp_path):
    # orjson serves the dataset and model files; rate writes neither
    cfg = _write_config(tmp_path, dict(_RATE_DOC, n_list=[500, 1000, 2000, 5000], replications=2))
    code = ("import sys; from pathlib import Path; import chaosbench.benchcli as cli; "
            "cli.cmd_rate(cli.load_config(sys.argv[1]), Path(sys.argv[2])); "
            "sys.exit('orjson' in sys.modules)")
    src = str(Path(benchcli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get(
        "PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out")], env=env,
                   check=True)
    assert (tmp_path / "out" / "rate.json").exists()


# acceptance criterion 6's config, with fewer replications
_RATE_DOC = {
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
    "replications": 8,
    "seed": 4242,
}


def _rate_case_doc(mode):
    """Criterion 6's config, or a smaller design for one shape of the rate draw."""
    doc = dict(_RATE_DOC)
    if mode == "theoretical":
        return doc
    # 20 replications: the risks are heavy-tailed, so a 3-SE test at 6 fails
    # now and then by chance (the rank-deficient case's n = 500 gap was 3.5 SE
    # at 6 replications and -0.3 SE at 200)
    doc.update(n_list=[500, 1000, 2000, 5000], path_steps=128, grid_size=16, replications=20)
    truth = dict(doc["truth"])
    if mode == "adaptive":
        # every order-1 bracket [n^-1/2, 1/log n] holds e^-3 at these n
        doc.update(bandwidths={"mode": "adaptive"})
    elif mode == "no_components":
        # no per-pair rows at all: every slice row is summed
        truth.update(components=[])
    elif mode == "gridded":
        # the per-pair rows are the truth's G cell rows
        values = (1.0 + np.sin(3.0 * (np.arange(16) + 0.5) / 16)).tolist()
        truth.update(components=[{"order": 1, "kind": "gridded", "grid_size": 16,
                                  "values": values}])
    elif mode == "rank_deficient":
        # two order-1 candidates at each n: G H + 1 = 65 rows on N = 64, so the
        # slice rows' part orthogonal to the truth's row has rank below G H
        doc.update(n_list=[500, 1000, 5000, 10000], path_steps=64, grid_size=32,
                   bandwidths={"mode": "adaptive"})
    else:  # mixed: order 1 at h = n^-1/3 is summed, order 2 at n^-1/4 drawn per pair
        truth.update(components=[*truth["components"],
                                 {"order": 2, "kind": "constant", "value": 1.0}],
                     **{"class": dict(truth["class"], s=[1.0, 1.0], lam=[1.0, 1.0],
                                      max_order=2)})
        doc.update(max_order=2, bandwidths={"mode": "theoretical", "s": [1.0, 1.0],
                                            "lam": [1.0, 1.0]})
    doc.update(truth=truth)
    return doc


@pytest.mark.parametrize("mode", ["theoretical", "adaptive", "no_components", "gridded",
                                  "rank_deficient", "mixed"])
def test_rate_draws_match_the_path_route(tmp_path, monkeypatch, mode):
    # rate fits from drawn slice integrals; fits from paths (the fit command's
    # route) must give the same per-n mean risk within 3 SE
    config = parse_config(_rate_case_doc(mode))
    # slice rows drawn per pair and summed at n = 500
    shapes, factor = [], benchcli.synthesis_factor
    monkeypatch.setattr(benchcli, "synthesis_factor", lambda truth, rows, summed: (
        shapes.append((rows.shape, summed.shape)) or factor(truth, rows, summed)))
    benchcli._rate_setup(config, 500)
    monkeypatch.undo()
    assert shapes == [{"theoretical": ((0, 512), (64, 512)), "adaptive": ((0, 128), (32, 128)),
                       "no_components": ((0, 128), (16, 128)),
                       "gridded": ((0, 128), (16, 128)),
                       "rank_deficient": ((0, 64), (64, 64)),
                       "mixed": ((16, 128), (16, 128))}[mode]]
    reps = config.replications
    setups = [benchcli._rate_setup(config, n) for n in config.n_list]
    direct, paths = (np.empty((len(config.n_list), reps)) for _ in range(2))
    for i, n in enumerate(config.n_list):
        direct[i] = [benchcli._rate_risk(config, i, n, rep, setups).value for rep in range(reps)]
        for rep in range(reps):
            model = benchcli._fit_one(config, i, n, rep)
            paths[i, rep] = benchcli._risk_of_model(config, model, i, rep).value
    se = np.sqrt((direct.var(axis=1, ddof=1) + paths.var(axis=1, ddof=1)) / reps)
    gap = np.abs(direct.mean(axis=1) - paths.mean(axis=1))
    assert np.all(gap <= 3.0 * se), (gap, se)
    # the command reports the means of the drawn route
    report = cmd_rate(config, tmp_path / "rate")
    assert report["mean_risk"] == direct.mean(axis=1).tolist()
    if mode == "adaptive":
        models = []
        monkeypatch.setattr(benchcli, "_risk_of_model",
                            lambda config, model, n_index, rep: models.append(model))
        benchcli._rate_risk(config, 0, 500, 0, setups)
        (trace,) = models[0].selection_traces
        assert [r.h for r in trace.records] == list(benchcli.plan_bandwidths(config, 500)[1])
        assert len(trace.records) > 1


@pytest.mark.parametrize("mode", ["adaptive", "mixed"])
def test_rate_replication_alone_equals_its_sweep_entry(tmp_path, monkeypatch, mode):
    # every rate replication is an independent task: computed alone from its
    # (n_index, rep) and its n's setup, or in a worker pool, it is its entry
    # in the sweep bit for bit
    config = parse_config(_rate_case_doc(mode))
    sweeps, replicate = [], benchcli._replicate
    monkeypatch.setattr(benchcli, "_replicate", lambda task, config, threads: (
        sweeps.append((task, threads, replicate(task, config, threads))) or sweeps[-1][2]))
    cmd_rate(config, tmp_path / "rate")
    ((task, threads, reports),) = sweeps
    assert threads == 1
    for (i, n, rep), report in zip(benchcli._replications(config), reports):
        setup = {i: benchcli._rate_setup(config, n)}
        assert benchcli._rate_risk(config, i, n, rep, setup) == report
    assert replicate(task, config, 2) == reports
