#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the chaosbench CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rate_order1 --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's ``chaosbench`` commands one after another
as separate processes (a closed loop, ``--threads 2``, BLAS pinned to one
thread), in whole rounds until ``--seconds`` of command time has passed, and
reports the end-to-end metrics as medians over rounds.  ``--trace 1`` drives
the same rounds in process (``--threads 1``), each once untraced and once
with span wrappers installed, and reports the per-layer metrics.  Every round's
outputs are checked (see checks.py).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from checks import CHECKERS, Failures, rep_dir  # noqa: E402
from workloads import THREADS, WORKLOADS, Workload, command_argv, config_seed  # noqa: E402

RUNS_DIR = Path(".perfbench_runs")
SETUP_REPEATS = 9
COMMAND_TIMEOUT_S = 120.0
LAST_ROUND_START_S = 120.0  # no round starts after this much run time

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("paths_per_s", "paths/s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
]

SETUP_SNIPPET = "import sys; import chaosbench.benchcli as b; b.load_config(sys.argv[1])"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def program_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv: list[str], env: dict, log_path: Path) -> tuple[int, float, float, float]:
    """Run one process to its end; (exit code, wall s, user+sys CPU s, peak RSS MB).

    ``wait4`` reports the process's own usage plus that of the children it
    waited for (the replication pool), and the largest resident set among them.
    """
    with open(log_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)

        def kill():
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        # a command that failed may leave pool workers in its process group
        kill()
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def write_config(doc: dict, path: Path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def out_dirs(wl: Workload, root: Path) -> dict[str, Path]:
    return {cmd: root / cmd for cmd in wl.commands}


def measure_setup(cfg: str, env: dict, logs: Path) -> float:
    """Median wall time of fresh processes that import benchcli and load the config."""
    walls = []
    for i in range(SETUP_REPEATS):
        code, wall, _, _ = run_process([sys.executable, "-c", SETUP_SNIPPET, cfg], env,
                                       logs / f"setup_{i}.log")
        if code != 0:
            raise RuntimeError(f"set-up process exited {code}; see {logs}/setup_{i}.log")
        walls.append(wall)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# one round, as separate processes or in process
# ---------------------------------------------------------------------------


def round_cli(wl: Workload, cfg: str, out: dict[str, Path], env: dict, logs: Path):
    """Run the command sequence; stop at the first command that fails."""
    codes, wall, cpu, rss = {}, 0.0, 0.0, 0.0
    for cmd in wl.commands:
        argv = command_argv(cmd, cfg, {k: str(v) for k, v in out.items()}, THREADS)
        code, w, c, r = run_process([sys.executable, "-m", "chaosbench.benchcli", *argv], env,
                                    logs / f"{cmd}.log")
        codes[cmd] = code
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        if code != 0:
            break
    return codes, wall, cpu, rss


def round_inprocess(wl: Workload, cfg: str, out: dict[str, Path], tracer=None):
    """The same command sequence through ``benchcli.main`` in this process."""
    from chaosbench import benchcli

    codes = {}
    started = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr), (tracer or contextlib.nullcontext()):
        for cmd in wl.commands:
            argv = command_argv(cmd, cfg, {k: str(v) for k, v in out.items()}, 1)
            codes[cmd] = benchcli.main(argv)
            if codes[cmd] != 0:
                break
    return codes, time.perf_counter() - started


def manifest_digests(out: dict[str, Path]) -> dict:
    digests = {}
    for cmd, root in out.items():
        path = root / "manifest.json"
        digests[cmd] = json.loads(path.read_text())["outputs"] if path.is_file() else None
    return digests


# ---------------------------------------------------------------------------
# checks of one round
# ---------------------------------------------------------------------------


def evaluate(wl: Workload, doc: dict, out: dict[str, Path], codes: dict[str, int]) -> Failures:
    """Failed operations of a round: failed or skipped commands, then output checks."""
    fails = Failures()
    broken = False
    for cmd in wl.commands:
        if broken or codes.get(cmd) != 0:
            broken = True
            fails.add([k for k in wl.op_keys(doc) if k[0] == cmd],
                      f"{cmd}: exit code {codes.get(cmd)}")
    if not broken:
        try:
            fails.merge(CHECKERS[wl.name](doc, out))
        except Exception:  # noqa: BLE001 - malformed output must fail the round, not the run
            log(traceback.format_exc())
            fails.add(wl.op_keys(doc), "checker raised on malformed output")
    return fails


def seed_route_check(doc: dict, out: dict[str, Path], round_dir: Path, refit) -> Failures:
    """Refit replication (n_list[0], rep 0) by the seed route; it must equal the --data fit.

    A config restricted to the first n and one replication derives the same
    replication seed, so ``adapt`` without ``--data`` reproduces that dataset.
    """
    fails = Failures()
    n = doc["n_list"][0]
    one = dict(doc, n_list=[n], replications=1)
    cfg = write_config(one, round_dir / "config_seed_route.json")
    target = round_dir / "seed_route"
    code = refit(["adapt", "--config", cfg, "--out", str(target), "--threads", "1"])
    if code != 0:
        fails.add([("adapt", n, 0)], f"seed route: adapt exited {code}")
        return fails
    names = ["model.json"] + [f"trace_order{o}.csv" for o in range(1, doc["max_order"] + 1)]
    for name in names:
        a, b = rep_dir(out["adapt"], n, 0) / name, rep_dir(target, n, 0) / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            fails.add([("adapt", n, 0)], f"seed route: {name} differs from the --data fit")
    return fails


def report_failures(round_index: int, fails: Failures, logs: Path) -> None:
    for key, msgs in sorted(fails.items()):
        log(f"round {round_index}: FAILED {key}: {'; '.join(msgs)}")
    for path in sorted(logs.glob("*.log")):
        text = path.read_text(errors="replace").strip()
        if text:
            log(f"--- {path.name} ---\n{text[-2000:]}")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_untraced(wl: Workload, seed: int, seconds: float, src: Path, run_dir: Path) -> dict:
    env = program_env(src)
    run_start = time.perf_counter()
    setup_dir = run_dir / "setup"
    setup_cfg = write_config(wl.config(config_seed(seed, wl, 0)), setup_dir / "config.json")
    setup = measure_setup(setup_cfg, env, setup_dir)
    rounds, attempted, failed, timed = [], 0, 0, 0.0
    while not rounds or (timed < seconds
                         and time.perf_counter() - run_start < LAST_ROUND_START_S):
        i = len(rounds)
        doc = wl.config(config_seed(seed, wl, i))
        round_dir = run_dir / f"round_{i:03d}"
        cfg = write_config(doc, round_dir / "config.json")
        out = out_dirs(wl, round_dir / "out")
        codes, wall, cpu, rss = round_cli(wl, cfg, out, env, round_dir)
        timed += wall
        output = sum(tree_bytes(p) for p in out.values() if p.exists())
        fails = evaluate(wl, doc, out, codes)
        if wl.name == "adapt_data_roundtrip" and "adapt" not in {k[0] for k in fails}:
            def refit(argv):
                return run_process([sys.executable, "-m", "chaosbench.benchcli", *argv], env,
                                   round_dir / "seed_route.log")[0]
            fails.merge(seed_route_check(doc, out, round_dir, refit))
        attempted += len(wl.op_keys(doc))
        failed += len(fails)
        if fails:
            report_failures(i, fails, round_dir)
        log(f"round {i}: wall {wall:.3f}s cpu {cpu:.3f}s rss {rss:.1f}MB "
            f"out {output / 1e6:.2f}MB failed {len(fails)}")
        rounds.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                       "output_mb": output / 1e6, "paths_per_s": wl.paths(doc) / wall})
        shutil.rmtree(round_dir, ignore_errors=True)
    metrics = {"setup_s": setup}
    for name in ("wall_s", "cpu_s", "paths_per_s", "peak_rss_mb", "output_mb"):
        metrics[name] = statistics.median(r[name] for r in rounds)
    units = dict(END_TO_END)
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k, _ in END_TO_END}}


def run_traced(wl: Workload, seed: int, seconds: float, src: Path, run_dir: Path) -> dict:
    sys.path.insert(0, str(src))
    from chaosbench import benchcli

    run_start = time.perf_counter()
    tracers, per_round, attempted, failed, timed = [], [], 0, 0, 0.0
    while not tracers or (timed < seconds
                          and time.perf_counter() - run_start < LAST_ROUND_START_S):
        i = len(tracers)
        doc = wl.config(config_seed(seed, wl, i))
        round_dir = run_dir / f"round_{i:03d}"
        cfg = write_config(doc, round_dir / "config.json")
        dirs = {p: out_dirs(wl, round_dir / p) for p in ("plain", "traced")}
        tracer = tracing.Tracer()
        results = {}
        # alternate which pass runs first so neither always gets warm caches
        for p in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            results[p] = round_inprocess(wl, cfg, dirs[p], tracer if p == "traced" else None)
        codes, wall = results["traced"]
        wall_plain = results["plain"][1]
        timed += wall + wall_plain
        traced = dirs["traced"]
        fails = evaluate(wl, doc, traced, codes)
        if manifest_digests(dirs["plain"]) != manifest_digests(traced):
            fails.add(wl.op_keys(doc), "traced outputs differ from the untraced run")
        if wl.name == "adapt_data_roundtrip" and "adapt" not in {k[0] for k in fails}:
            with contextlib.redirect_stdout(sys.stderr):
                fails.merge(seed_route_check(doc, traced, round_dir, benchcli.main))
        attempted += len(wl.op_keys(doc))
        failed += len(fails)
        if fails:
            report_failures(i, fails, round_dir)
        output = sum(tree_bytes(p) for p in traced.values() if p.exists())
        per_round.append(tracing.layer_metrics(tracer.summary(), output, wall, wall - wall_plain))
        log(f"round {i}: traced {wall:.3f}s untraced {wall_plain:.3f}s "
            f"spans {len(tracer.spans)} failed {len(fails)}")
        tracers.append(tracer)
        shutil.rmtree(round_dir, ignore_errors=True)
    tracing.write_spans(tracers, run_dir / "spans.npz", run_start)
    metrics = {
        name: {"value": statistics.median(r[name] for r in per_round), "unit": unit}
        for name, unit in tracing.PER_LAYER
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "chaosbench" / "benchcli.py").is_file():
        log(f"no chaosbench sources under {src}; run from the root of a checkout")
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = RUNS_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = run_traced if args.trace else run_untraced
    result = runner(wl, args.seed, args.seconds, src, run_dir)
    if not args.trace:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
