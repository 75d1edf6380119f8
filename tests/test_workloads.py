"""The benchmark's workload configs (perfbench/workloads.py) against the parser.

A stricter config parser must not reject a benchmark config unnoticed: every
workload config parses, and the config block its manifests record parses
back to the same experiment.
"""

import json

from chaosbench.benchcli import load_config, parse_config


def test_workload_configs_parse_and_replay_from_their_manifests(tmp_path, perfbench):
    workloads = perfbench("workloads")
    assert set(workloads.WORKLOADS) == {"rate_order1", "fit3_mc_risk", "adapt_data_roundtrip"}
    for name, workload in workloads.WORKLOADS.items():
        for round_index in range(3):
            seed = workloads.config_seed(12345, workload, round_index)
            config = parse_config(workload.config(seed))
            manifest = tmp_path / f"{name}_{round_index}.json"
            manifest.write_text(json.dumps({"command": workload.commands[-1],
                                            "config": config.doc}))
            assert load_config(manifest) == config, name
