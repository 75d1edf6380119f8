"""The benchmark's per-layer tracer (perfbench/tracing.py) against the package.

The tracer wraps functions by the names modules import them under and reads
some arguments by position.  A refactor that drops or renames one of those
names fails here rather than in a traced benchmark run.
"""

from chaosbench import benchcli, chaosreg, mappingzoo
from chaosbench.benchcli import cmd_fit, cmd_risk, cmd_simulate, parse_config


def test_tracer_wraps_and_restores_program_names(tmp_path, perfbench):
    tracing = perfbench("tracing")
    config = parse_config({
        "truth": "quadratic_terminal",
        "n_list": [30],
        "path_steps": 128,
        "grid_size": 16,
        "max_order": 2,
        "s_star_hi": 2.0,
        "majorant": {"mu4": 0.66, "class_bound": 1.0},
        "bandwidths": {"mode": "fixed", "values": {"1": 0.25, "2": 0.25}},
        "risk_p": 4.0,
        "risk": {"method": "monte_carlo", "n_mc": 100},
        "replications": 2,
        "seed": 3,
    })
    def wrapped_names():
        return (mappingzoo.sample_brownian, chaosreg.sample_brownian,
                chaosreg.derive_seed, benchcli.synthesize, benchcli.risk_monte_carlo)

    before = wrapped_names()
    with tracing.Tracer() as tracer:
        assert all(a is not b for a, b in zip(wrapped_names(), before))
        models = cmd_fit(config, tmp_path / "fits")
        cmd_risk(config, models, tmp_path / "risk")
    assert wrapped_names() == before
    summary = tracer.summary()
    assert summary["mappingzoo.synthesize.paths"] == 60
    assert summary["chaosreg.risk_monte_carlo.draws"] == 200
    # the CLI fits from shared slice integrals, not through the wrapped
    # fit_chaos_kernel, which it keeps only as a name
    assert not any(key.startswith("chaosreg.fit.") for key in summary)
    # each replication's task serializes its model through the wrapped name
    assert summary["chaosreg.model_to_json.calls"] == 2
    assert summary["chaosreg.model_json.bytes"] == sum(
        p.stat().st_size for p in models.glob("n_*/rep_*/model.json"))
    # one slice build per replication, on the path grid only: both orders
    # have h = 0.25, so 2 builds x G = 16 x N = 128
    assert summary["kernelkit.slice_matrix.calls"] == 2
    assert summary["kernelkit.slice_matrix.points"] == 2 * 16 * 128
    # Monte Carlo risk predicts and evaluates the truth on all draws at once:
    # no per-draw prediction, and no quadrature (the truth pairs on its path-grid
    # single integrals)
    with tracing.Tracer() as tracer:
        cmd_risk(config, models, tmp_path / "risk_again")
    summary = tracer.summary()
    assert summary["chaosreg.risk_monte_carlo.draws"] == 200
    assert summary.get("chaosreg.predict.calls", 0) == 0
    assert summary.get("chaoscalc.l2_inner.calls", 0) == 0
    # the --data route reads every dataset and synthesizes none: all paths
    # come from simulate, n x reps = 30 x 2
    with tracing.Tracer() as tracer:
        data = cmd_simulate(config, tmp_path / "data")
        cmd_fit(config, tmp_path / "fits_from_data", data_dir=data)
    summary = tracer.summary()
    assert summary["mappingzoo.synthesize.paths"] == 60
    assert summary["benchcli.load_dataset.calls"] == 2
