"""Workload definitions: generated configs, command sequences and path counts.

A workload is a fixed sequence of ``chaosbench`` commands run on one
generated config.  Each round of a run draws a fresh config seed from the
workload seed (``config_seed``); everything else in the config is fixed, so
every round does the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PATH_STEPS = 512
GRID_SIZE = 64
THREADS = 2

# acceptance criterion 6: order-1 polynomial truth, theoretical bandwidths
RATE_TRUTH = {
    "a": 1.0,
    "components": [{"order": 1, "kind": "poly", "coeffs": [1.0, 0.5]}],
    "noise": {"kind": "gaussian", "sigma": 0.5},
    "class": {"s": [1.0], "lam": [1.0], "max_order": 1, "class_bound": 1.3},
}

# order-1 polynomial plus an order-3 constant; no order-2 term
FIT3_TRUTH = {
    "a": 1.0,
    "components": [
        {"order": 1, "kind": "poly", "coeffs": [1.0, 0.5]},
        {"order": 3, "kind": "constant", "value": 1.0},
    ],
    "noise": {"kind": "gaussian", "sigma": 0.5},
    "class": {"s": [1.0, 1.0, 1.0], "lam": [1.0, 1.0, 1.0], "max_order": 3,
              "class_bound": 1.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    commands: tuple[str, ...]
    base: dict

    def config(self, seed: int) -> dict:
        return dict(self.base, seed=seed)

    def op_keys(self, doc: dict) -> list[tuple[str, int, int]]:
        """One operation per (command, n, rep)."""
        return [
            (cmd, n, rep)
            for cmd in self.commands
            for n in doc["n_list"]
            for rep in range(doc["replications"])
        ]

    def paths(self, doc: dict) -> int:
        """Covariate paths the commands synthesize, read or draw in one round."""
        per_dataset = sum(doc["n_list"]) * doc["replications"]
        count = 0
        for cmd in self.commands:
            if cmd in ("rate", "fit", "simulate", "adapt"):
                count += per_dataset
            elif cmd == "risk" and doc["risk"]["method"] == "monte_carlo":
                count += doc["risk"]["n_mc"] * len(doc["n_list"]) * doc["replications"]
        return count


def _common(**overrides) -> dict:
    doc = {
        "path_steps": PATH_STEPS,
        "grid_size": GRID_SIZE,
        "s_star_lo": 0.5,
        "majorant": {"mu4": 0.66, "class_bound": 1.0},
        "risk_p": 2.0,
        "risk": {"method": "isometry"},
    }
    doc.update(overrides)
    return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rate_order1", 0, ("rate",),
            _common(
                truth=RATE_TRUTH,
                n_list=[500, 1000, 2000, 4000, 8000, 16000],
                max_order=1,
                s_star_hi=1.0,
                majorant={"mu4": 0.66, "class_bound": 1.3},
                bandwidths={"mode": "theoretical", "s": [1.0], "lam": [1.0]},
                replications=4,
            ),
        ),
        Workload(
            "fit3_mc_risk", 1, ("fit", "risk"),
            _common(
                truth=FIT3_TRUTH,
                n_list=[4000],
                max_order=3,
                s_star_hi=2.0,
                bandwidths={"mode": "fixed", "values": {"1": 0.1, "2": 0.2, "3": 0.25}},
                risk_p=4.0,
                risk={"method": "monte_carlo", "n_mc": 400},
                replications=2,
            ),
        ),
        Workload(
            "adapt_data_roundtrip", 2, ("simulate", "adapt", "risk"),
            _common(
                truth="quadratic_terminal",
                n_list=[500, 1000],
                max_order=2,
                s_star_hi=2.0,
                bandwidths={"mode": "adaptive"},
                replications=2,
            ),
        ),
    )
}


def config_seed(workload_seed: int, workload: Workload, round_index: int) -> int:
    """Config seed of one round: SeedSequence(workload_seed, (workload, round))."""
    ss = np.random.SeedSequence(workload_seed, spawn_key=(workload.index, round_index))
    return int(ss.generate_state(1, np.uint32)[0] & 0x7FFFFFFF)


def command_argv(cmd: str, cfg: str, out: dict[str, str], threads: int) -> list[str]:
    """CLI arguments of one command; ``out`` maps command names to output dirs."""
    argv = [cmd, "--config", cfg, "--out", out[cmd], "--threads", str(threads)]
    if cmd == "adapt":
        argv += ["--data", out["simulate"]]
    if cmd == "risk":
        argv += ["--models", out["adapt" if "adapt" in out else "fit"]]
    return argv
