"""Tests of the benchmark's own checkers, tracer and result line.

Each checker must pass on a real round and fail, with its own message, on a
corrupted copy of that round's outputs.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _round(tmp_path_factory, name: str, seed: int = 5, **overrides):
    wl = WORKLOADS[name]
    doc = dict(wl.config(seed), **overrides)
    root = tmp_path_factory.mktemp(name)
    cfg = run.write_config(doc, root / "config.json")
    out = run.out_dirs(wl, root / "out")
    codes, _ = run.round_inprocess(wl, cfg, out)
    assert all(code == 0 for code in codes.values()), codes
    return wl, doc, out


@pytest.fixture(scope="module")
def rate_round(tmp_path_factory):
    return _round(tmp_path_factory, "rate_order1", replications=2)


@pytest.fixture(scope="module")
def fit3_round(tmp_path_factory):
    return _round(tmp_path_factory, "fit3_mc_risk")


@pytest.fixture(scope="module")
def adapt_round(tmp_path_factory):
    return _round(tmp_path_factory, "adapt_data_roundtrip")


def _copy(out: dict[str, Path], tmp_path: Path) -> dict[str, Path]:
    copy = {}
    for cmd, path in out.items():
        copy[cmd] = tmp_path / cmd
        shutil.copytree(path, copy[cmd])
    return copy


def _messages(fails, key) -> str:
    return " | ".join(fails.get(key, []))


def test_kernel_matches_known_kernels():
    coeffs, norm = checks.kernel_poly(1.0)
    assert np.allclose(coeffs, [1.0]) and math.isclose(norm, 1.0)
    coeffs, norm = checks.kernel_poly(2.0)
    assert np.allclose(coeffs, [4.0, -6.0]) and math.isclose(norm, 2.0)


def test_rate_checker(rate_round, tmp_path):
    wl, doc, out = rate_round
    assert run.evaluate(wl, doc, out, {"rate": 0}) == {}
    bad = _copy(out, tmp_path)
    report = json.loads((bad["rate"] / "rate.json").read_text())
    report["slope"] += 0.01
    (bad["rate"] / "rate.json").write_text(json.dumps(report))
    fails = checks.check_rate(doc, bad)
    assert "rate.json slope" in _messages(fails, ("rate", 500, 0))
    assert len(fails) == len(wl.op_keys(doc))


def test_fit3_checker_passes_and_catches_perturbed_surface(fit3_round, tmp_path):
    wl, doc, out = fit3_round
    assert run.evaluate(wl, doc, out, {"fit": 0, "risk": 0}) == {}
    bad = _copy(out, tmp_path)
    path = checks.rep_dir(bad["fit"], 4000, 0) / "model.json"
    model = json.loads(path.read_text())
    order3 = next(e for e in model["orders"] if e["order"] == 3)
    order3["values"][1 * 64 + 2] += 1e-6  # entry (0, 1, 2) only, not its mirrors
    path.write_text(json.dumps(model))
    fails = checks.check_fit3(doc, bad)
    assert "order 3: asymmetry" in _messages(fails, ("fit", 4000, 0))
    assert ("fit", 4000, 1) not in fails


def test_fit3_checker_catches_biased_order1_mean(fit3_round, tmp_path):
    wl, doc, out = fit3_round
    bad = _copy(out, tmp_path)
    for rep in range(doc["replications"]):
        path = checks.rep_dir(bad["fit"], 4000, rep) / "model.json"
        model = json.loads(path.read_text())
        next(e for e in model["orders"] if e["order"] == 1)["values"][32] += 2.0
        path.write_text(json.dumps(model))
    fails = checks.check_fit3(doc, bad)
    assert "standard errors from smoothed truth" in _messages(fails, ("fit", 4000, 0))


def test_fit3_checker_catches_risk_below_lyapunov_bound(fit3_round, tmp_path):
    wl, doc, out = fit3_round
    bad = _copy(out, tmp_path)
    path = bad["risk"] / "risk.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[4] = "0.001"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    fails = checks.check_fit3(doc, bad)
    assert "below R_2" in _messages(fails, ("risk", 4000, 0))


def test_adapt_checker_passes_and_seed_route_matches(adapt_round, tmp_path):
    wl, doc, out = adapt_round
    assert run.evaluate(wl, doc, out, {"simulate": 0, "adapt": 0, "risk": 0}) == {}
    from chaosbench import benchcli

    assert run.seed_route_check(doc, out, tmp_path, benchcli.main) == {}


def test_adapt_checker_catches_swapped_chosen_flag(adapt_round, tmp_path):
    wl, doc, out = adapt_round
    bad = _copy(out, tmp_path)
    path = checks.rep_dir(bad["adapt"], 500, 0) / "trace_order1.csv"
    header, *rows = path.read_text().splitlines()
    assert len(rows) == 2
    flags = [r.rsplit(",", 1) for r in rows]
    rows = [f"{flags[0][0]},{flags[1][1]}", f"{flags[1][0]},{flags[0][1]}"]
    path.write_text("\n".join([header, *rows]) + "\n")
    fails = checks.check_adapt_roundtrip(doc, bad)
    assert "chosen flags" in _messages(fails, ("adapt", 500, 0))


def test_adapt_checker_catches_truncated_paths_csv(adapt_round, tmp_path):
    wl, doc, out = adapt_round
    bad = _copy(out, tmp_path)
    path = checks.rep_dir(bad["simulate"], 1000, 1) / "paths.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    fails = checks.check_adapt_roundtrip(doc, bad)
    assert "paths.csv shape" in _messages(fails, ("simulate", 1000, 1))
    assert ("simulate", 1000, 0) not in fails


def test_tracer_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                       ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 3.0, 1]]
    summary = tracer.summary()
    assert summary["outer.self_s"] == 6.0
    assert summary["inner.self_s"] == 3.0 and summary["inner.calls"] == 2
    assert summary["leaf.self_s"] == 1.0


def test_tracer_restores_program_functions():
    from chaosbench import benchcli, mappingzoo

    before = (mappingzoo.sample_brownian, benchcli.cmd_fit)
    with tracing.Tracer():
        assert mappingzoo.sample_brownian is not before[0]
    assert (mappingzoo.sample_brownian, benchcli.cmd_fit) == before


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    specs = {m["name"]: m for m in section}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit3_mc_risk", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(specs)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == specs[name]["unit"]
        assert specs[name]["better"] in ("higher", "lower")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate_order1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
