"""The benchmark's workload configs (perfbench/workloads.py) against the parser.

A stricter config parser must not reject a benchmark config unnoticed: every
workload config parses, and the config block its manifests record parses
back to the same experiment.
"""

import importlib.util
import json
import sys
from pathlib import Path

from chaosbench.benchcli import _config_doc, load_config, parse_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_workload_configs_parse_and_replay_from_their_manifests(tmp_path):
    workloads = _workloads()
    assert set(workloads.WORKLOADS) == {"rate_order1", "fit3_mc_risk", "adapt_data_roundtrip"}
    for name, workload in workloads.WORKLOADS.items():
        for round_index in range(3):
            seed = workloads.config_seed(12345, workload, round_index)
            config = parse_config(workload.config(seed))
            manifest = tmp_path / f"{name}_{round_index}.json"
            manifest.write_text(json.dumps({"command": workload.commands[-1],
                                            "config": _config_doc(config)}))
            assert load_config(manifest) == config, name
