"""Correctness checks on the outputs of one round, independent of the program.

Nothing here imports ``chaosbench``.  Every check compares an output with a
computation made here from the config (kernel, smoothed truth, isometry risk,
majorant, log-log slope) or with a property the method must have (symmetry,
paths starting at 0, increment variance 1/N, the selection rule).

Each checker returns ``{(command, n, rep): [message, ...]}`` for the
operations whose outputs failed; an empty dict means every check passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from numpy.polynomial import hermite_e

# probabilists' Gauss-Hermite rule, exact for polynomial integrands of degree <= 11
_GH_X, _GH_W = hermite_e.hermegauss(6)
_GH_W = _GH_W / math.sqrt(2.0 * math.pi)


class Failures(defaultdict):
    """Messages per failed operation key ``(command, n, rep)``."""

    def __init__(self):
        super().__init__(list)

    def add(self, keys, message: str) -> None:
        for key in keys:
            self[key].append(message)

    def merge(self, other: dict) -> None:
        for key, msgs in other.items():
            self[key].extend(msgs)


def rep_dir(root: Path, n: int, rep: int) -> Path:
    return root / f"n_{n:06d}" / f"rep_{rep:03d}"


def _keys(doc: dict, cmd: str, n: int | None = None, rep: int | None = None):
    ns = doc["n_list"] if n is None else [n]
    reps = range(doc["replications"]) if rep is None else [rep]
    return [(cmd, nn, r) for nn in ns for r in reps]


# ---------------------------------------------------------------------------
# independent reference computations
# ---------------------------------------------------------------------------


def midpoints(g: int) -> np.ndarray:
    return (np.arange(g) + 0.5) / g


def kernel_poly(s_star: float) -> tuple[np.ndarray, float]:
    """Power-basis coefficients and L2 norm of the degree-m kernel on [0, 1].

    m = ceil(s_star) - 1; the kernel is the degree-m polynomial with unit mass
    and vanishing moments 1..m, solved from the Hilbert moment system.
    """
    m = math.ceil(s_star) - 1
    hilbert = 1.0 / (np.arange(m + 1)[:, None] + np.arange(m + 1)[None, :] + 1.0)
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    coeffs = np.linalg.solve(hilbert, rhs)
    return coeffs, math.sqrt(float(coeffs @ hilbert @ coeffs))


def slice_rows(coeffs: np.ndarray, centers: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """h^-1 k(s(c)(c - x)/h) with the window flip s(c) = +1 iff c in (1/2, 1)."""
    sign = np.where((centers > 0.5) & (centers < 1.0), 1.0, -1.0)
    u = sign[:, None] * (centers[:, None] - x[None, :]) / h
    vals = np.polynomial.polynomial.polyval(u, coeffs)
    return np.where((u >= 0.0) & (u <= 1.0), vals, 0.0) / h


def truth_parts(truth) -> tuple[float, dict, float]:
    """(a, {order: component doc}, noise variance) of a config truth."""
    if truth == "quadratic_terminal":
        return 1.0, {2: {"kind": "constant", "value": 1.0}}, 0.25
    comps = {c["order"]: c for c in truth["components"]}
    noise = truth["noise"]
    var = noise["sigma"] ** 2 if noise["kind"] == "gaussian" else noise["half_width"] ** 2 / 3
    return float(truth["a"]), comps, var


def truth_gridded(comp: dict | None, order: int, g: int) -> np.ndarray | None:
    if comp is None:
        return None
    if comp["kind"] == "constant":
        return np.full((g,) * order, float(comp["value"]))
    row = np.polynomial.polynomial.polyval(midpoints(g), comp["coeffs"])
    values = row
    for _ in range(order - 1):
        values = np.multiply.outer(values, row)
    return values


def response_variance(truth) -> float:
    """Var Y = sum_l ||f_l||^2 / l! + noise variance."""
    _, comps, noise_var = truth_parts(truth)
    total = noise_var
    for order, comp in comps.items():
        if comp["kind"] == "constant":
            norm_sq = float(comp["value"]) ** 2
        else:
            sq = np.polynomial.polynomial.polymul(comp["coeffs"], comp["coeffs"])
            norm_sq = float(np.sum(sq / (np.arange(len(sq)) + 1.0))) ** order
        total += norm_sq / math.factorial(order)
    return total


def isometry_risk(model: dict, truth, g: int) -> float:
    """R_2 = sqrt((mean_hat - a)^2 + sum_l ||fhat_l - f_l||^2 / l!) on the G-grid."""
    a, comps, _ = truth_parts(truth)
    total = (model["mean_hat"] - a) ** 2
    for order in sorted(set(model["orders"]) | set(comps)):
        est = model["orders"].get(order)
        tru = truth_gridded(comps.get(order), order, g)
        diff = (est[1] if est is not None else 0.0) - (tru if tru is not None else 0.0)
        total += float(np.mean(np.square(diff))) / math.factorial(order)
    return math.sqrt(total)


def order1_moments(truth, coeffs, h: float, g: int, n_steps: int):
    """Mean and variance of Y * x_a for each node a, on the left-point path grid.

    ``x_a`` is the left-point Ito sum of slice a.  The truth must consist of
    constant components (functions of W(1)) and at most one order-1
    polynomial; (W(1), I_1(g), x_a) is Gaussian, so both moments follow from
    a 3-D Gauss-Hermite rule that is exact for these polynomial integrands.
    """
    a, comps, noise_var = truth_parts(truth)
    t = np.arange(n_steps) / n_steps
    dt = 1.0 / n_steps
    poly = comps.get(1) if comps.get(1, {}).get("kind") == "poly" else None
    if any(c["kind"] != "constant" for o, c in comps.items() if c is not poly):
        raise ValueError("order1_moments supports constant components and one order-1 poly")
    gv = np.polynomial.polynomial.polyval(t, poly["coeffs"]) if poly else np.zeros_like(t)
    slices = slice_rows(coeffs, midpoints(g), h, t)
    z = np.stack(np.meshgrid(_GH_X, _GH_X, _GH_X, indexing="ij")).reshape(3, -1)
    w = np.einsum("i,j,k->ijk", _GH_W, _GH_W, _GH_W).ravel()
    means, variances = np.empty(g), np.empty(g)
    for i, k in enumerate(slices):
        basis = np.stack([np.ones_like(t), gv, k])
        cov = basis @ basis.T * dt
        lam, vec = np.linalg.eigh(cov)
        w1, xi, x = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ z
        m = np.full_like(x, a) + xi
        for order, comp in comps.items():
            if comp is poly:
                continue
            he = hermite_e.hermeval(w1, [0.0] * order + [1.0])
            m = m + float(comp["value"]) * he / math.factorial(order)
        means[i] = float(w @ (m * x))
        second = float(w @ (m * x) ** 2) + noise_var * float(w @ x**2)
        variances[i] = second - means[i] ** 2
    return means, variances


def majorant(order: int, h: float, n: int, mu4: float, bound: float, max_order: int,
             kernel_l2: float) -> float:
    """M(l, h) = nu (1 + 4 sqrt(l log 1/h)) / sqrt(n h^l), C_k = 3^(k/2) (q = 4)."""
    c = [3.0 ** (k / 2.0) for k in range(max_order + 1)]
    b_sq = c[order] ** 2 * 2.0**order * math.factorial(order) * kernel_l2 ** (2 * order)
    nu = (mu4 + sum(c[k] * bound for k in range(1, max_order + 1))) * math.sqrt(b_sq) / 2.0
    return nu * (1.0 + 4.0 * math.sqrt(order * math.log(1.0 / h))) / math.sqrt(n * h**order)


def loglog_slope(n: np.ndarray, y: np.ndarray) -> float:
    x, ly = np.log(n), np.log(y)
    xc = x - x.mean()
    return float(xc @ (ly - ly.mean()) / (xc @ xc))


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def read_model(path: Path) -> dict:
    """{'mean_hat': float, 'orders': {order: (bandwidth, values)}} from model.json."""
    doc = json.loads(path.read_text())
    if doc.get("format") != "chaosbench.fitted-model/1":
        raise ValueError(f"unknown model format {doc.get('format')!r}")
    orders = {}
    for entry in doc["orders"]:
        order, g = int(entry["order"]), int(entry["grid_size"])
        values = np.asarray(entry["values"], dtype=float)
        if values.size != g**order:
            raise ValueError(f"order {order}: {values.size} values, expected {g**order}")
        orders[order] = (float(entry["bandwidth"]), values.reshape((g,) * order))
    return {"mean_hat": float(doc["mean_hat"]), "orders": orders}


def read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: unexpected header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:] if line]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def check_manifest(doc: dict, cmd: str, out: Path, fails: Failures) -> None:
    """The manifest names the command and seed and its digests match the files."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        fails.add(_keys(doc, cmd), f"{cmd}: unreadable manifest ({exc})")
        return
    if manifest.get("command") != cmd or manifest.get("seed") != doc["seed"]:
        fails.add(_keys(doc, cmd), f"{cmd}: manifest command/seed mismatch")
    outputs = manifest.get("outputs") or {}
    if not outputs:
        fails.add(_keys(doc, cmd), f"{cmd}: manifest lists no outputs")
    for rel, digest in outputs.items():
        path = out / rel
        if not path.is_file() or _sha256(path) != digest:
            parts = Path(rel).parts
            if len(parts) == 3 and parts[0].startswith("n_") and parts[1].startswith("rep_"):
                keys = [(cmd, int(parts[0][2:]), int(parts[1][4:]))]
            else:
                keys = _keys(doc, cmd)
            fails.add(keys, f"{cmd}: digest mismatch for {rel}")


def check_surfaces(model: dict, g: int, bandwidths: dict | None) -> list[str]:
    """Shape (G,)*l, finite, symmetric; bandwidths as planned when given.

    Orders 1 and 2 must be exactly symmetric.  The order-3 symmetrization
    averages six transposes in an order that differs between mirrored
    entries, so order 3 is held to a rounding tolerance of 64 ulp of the
    largest entry.
    """
    msgs = []
    if not math.isfinite(model["mean_hat"]):
        msgs.append("mean_hat is not finite")
    for order, (h, values) in model["orders"].items():
        if values.shape != (g,) * order:
            msgs.append(f"order {order}: shape {values.shape}")
            continue
        if not np.all(np.isfinite(values)):
            msgs.append(f"order {order}: non-finite surface values")
            continue
        tol = 0.0 if order <= 2 else 64 * np.finfo(float).eps * float(np.max(np.abs(values)))
        for perm in itertools.permutations(range(order)):
            gap = float(np.max(np.abs(values - np.transpose(values, perm))))
            if gap > tol:
                msgs.append(f"order {order}: asymmetry {gap:.3g} under {perm}")
                break
        if bandwidths is not None and h != bandwidths.get(order):
            msgs.append(f"order {order}: bandwidth {h} != planned {bandwidths.get(order)}")
    return msgs


# ---------------------------------------------------------------------------
# workload checkers
# ---------------------------------------------------------------------------


def check_rate(doc: dict, out: dict[str, Path]) -> Failures:
    """Slope within 0.15 of -1/3, risk falls with n, rate.json agrees with its CSV."""
    fails = Failures()
    root = out["rate"]
    check_manifest(doc, "rate", root, fails)
    keys = _keys(doc, "rate")
    try:
        rows = read_csv(root / "risk_by_n.csv", "n,mean_risk,std_risk,replications")
        report = json.loads((root / "rate.json").read_text())
    except (OSError, ValueError) as exc:
        fails.add(keys, f"rate: unreadable outputs ({exc})")
        return fails
    n = np.array([int(r[0]) for r in rows], dtype=float)
    means = np.array([float(r[1]) for r in rows])
    if list(n) != list(doc["n_list"]) or any(int(r[3]) != doc["replications"] for r in rows):
        fails.add(keys, "rate: risk_by_n.csv rows do not match n_list/replications")
        return fails
    if not np.all(np.isfinite(means) & (means > 0)):
        fails.add(keys, "rate: mean risks must be finite and positive")
        return fails
    slope = loglog_slope(n, means)
    if abs(slope - report["slope"]) > 1e-9 or report["mean_risk"] != means.tolist():
        fails.add(keys, f"rate: rate.json slope {report['slope']} != recomputed {slope}")
    if abs(slope + 1.0 / 3.0) > 0.15:
        fails.add(keys, f"rate: slope {slope:.4f} more than 0.15 from -1/3")
    if not means[-1] < means[0]:
        fails.add(keys, "rate: mean risk at the largest n is not below the smallest n")
    return fails


def check_fit3(doc: dict, out: dict[str, Path]) -> Failures:
    """Order-3 fit surfaces, Monte Carlo R_4 against recomputed R_2, ensemble mean."""
    fails = Failures()
    check_manifest(doc, "fit", out["fit"], fails)
    check_manifest(doc, "risk", out["risk"], fails)
    g = doc["grid_size"]
    planned = {int(k): float(v) for k, v in doc["bandwidths"]["values"].items()}
    try:
        risk_rows = read_csv(out["risk"] / "risk.csv", "n,rep,p,method,value,mc_stderr")
        agg_rows = read_csv(out["risk"] / "aggregates.csv", "n,mean_risk,std_risk,replications")
    except (OSError, ValueError) as exc:
        fails.add(_keys(doc, "risk"), f"risk: unreadable outputs ({exc})")
        risk_rows, agg_rows = [], []
    risk = {(int(r[0]), int(r[1])): r for r in risk_rows}
    coeffs, _ = kernel_poly(doc["s_star_hi"])
    for n in doc["n_list"]:
        order1 = []
        for rep in range(doc["replications"]):
            try:
                model = read_model(rep_dir(out["fit"], n, rep) / "model.json")
            except (OSError, ValueError, KeyError) as exc:
                fails.add([("fit", n, rep), ("risk", n, rep)], f"fit: unreadable model ({exc})")
                continue
            msgs = check_surfaces(model, g, planned)
            if sorted(model["orders"]) != list(range(1, doc["max_order"] + 1)):
                msgs.append(f"orders {sorted(model['orders'])}")
            if msgs:
                fails.add([("fit", n, rep)], "fit: " + "; ".join(msgs))
                continue
            order1.append(model["orders"][1][1])
            row = risk.get((n, rep))
            if row is None:
                fails.add([("risk", n, rep)], "risk: missing risk.csv row")
                continue
            p, method, value, stderr = float(row[2]), row[3], float(row[4]), float(row[5])
            if p != doc["risk_p"] or method != "monte_carlo":
                fails.add([("risk", n, rep)], f"risk: p={p} method={method}")
            elif not (math.isfinite(value) and value > 0 and math.isfinite(stderr) and stderr > 0):
                fails.add([("risk", n, rep)], f"risk: value {value} stderr {stderr}")
            else:
                r2 = isometry_risk(model, doc["truth"], g)
                if value < r2 - 3.0 * stderr:  # Lyapunov: R_4 >= R_2
                    fails.add([("risk", n, rep)],
                              f"risk: R_4 {value:.4g} below R_2 {r2:.4g} - 3 se {stderr:.3g}")
        reps = [r for (nn, r) in risk if nn == n]
        agg = [r for r in agg_rows if int(r[0]) == n]
        if reps and (len(agg) != 1 or not math.isclose(
                float(agg[0][1]), float(np.mean([float(risk[(n, r)][4]) for r in reps])),
                rel_tol=1e-12)):
            fails.add(_keys(doc, "risk", n), "risk: aggregates.csv mean disagrees with risk.csv")
        if len(order1) == doc["replications"]:
            msg = check_order1_mean(doc, n, np.mean(order1, axis=0), len(order1), coeffs)
            if msg:
                fails.add(_keys(doc, "fit", n), msg)
    return fails


def check_order1_mean(doc: dict, n: int, mean_surface: np.ndarray, reps: int,
                      coeffs: np.ndarray, z_max: float = 5.0) -> str | None:
    """Replication mean of the order-1 surface vs the path-grid smoothed truth.

    At interior nodes (centres in [h, 1 - h]) each standardized gap must stay
    within ``z_max`` standard errors, sd = sqrt(Var(Y x_a) / (n reps)).
    """
    h = float(doc["bandwidths"]["values"]["1"])
    g = doc["grid_size"]
    mu, var = order1_moments(doc["truth"], coeffs, h, g, doc["path_steps"])
    centers = midpoints(g)
    inner = (centers >= h) & (centers <= 1.0 - h)
    z = (mean_surface - mu)[inner] / np.sqrt(var[inner] / (n * reps))
    worst = float(np.max(np.abs(z)))
    if not worst <= z_max:
        return f"fit: order-1 ensemble mean {worst:.2f} standard errors from smoothed truth"
    return None


def check_dataset(doc: dict, n: int, rdir: Path) -> list[str]:
    """paths.csv shape and time column, paths start at 0, increment and response moments."""
    steps = doc["path_steps"]
    try:
        with open(rdir / "paths.csv") as fp:
            header = fp.readline().rstrip("\n")
            matrix = np.loadtxt(fp, delimiter=",", ndmin=2)
        responses = np.array([float(r[1]) for r in read_csv(rdir / "responses.csv", "index,y")])
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable dataset ({exc})"]
    msgs = []
    if header != "t," + ",".join(f"w_{i:04d}" for i in range(n)):
        msgs.append("paths.csv header")
    if matrix.shape != (steps + 1, n + 1) or len(responses) != n:
        return msgs + [f"paths.csv shape {matrix.shape}, {len(responses)} responses"]
    if not np.allclose(matrix[:, 0], np.arange(steps + 1) / steps, rtol=0.0, atol=1e-12):
        msgs.append("paths.csv time column is not j/N")
    paths = matrix[:, 1:]
    if np.any(paths[0] != 0.0):
        msgs.append("a path does not start at 0")
    inc_var = float(np.mean(np.diff(paths, axis=0) ** 2)) * steps
    if abs(inc_var - 1.0) > 5.0 * math.sqrt(2.0 / (n * steps)):
        msgs.append(f"pooled increment variance x N = {inc_var:.5f}, expected 1")
    a, _, _ = truth_parts(doc["truth"])
    if abs(responses.mean() - a) > 5.0 * math.sqrt(response_variance(doc["truth"]) / n):
        msgs.append(f"response mean {responses.mean():.4f}, expected {a}")
    return msgs


def check_trace(doc: dict, n: int, order: int, path: Path,
                kernel_l2: float) -> tuple[list[str], float | None]:
    """Selection trace: e^-k grid inside the bracket, GL rule and majorant formula."""
    try:
        rows = read_csv(path, "ell,h,majorant,bias_proxy,objective,chosen")
    except (OSError, ValueError) as exc:
        return [f"order {order}: unreadable trace ({exc})"], None
    msgs = []
    lower = n ** (-1.0 / (2.0 * doc["s_star_lo"] + order))
    upper = 1.0 / math.log(n)
    expected = [math.exp(-k) for k in range(1, 60) if lower <= math.exp(-k) <= upper]
    h = [float(r[1]) for r in rows]
    if h != expected or any(int(r[0]) != order for r in rows):
        return [f"order {order}: bandwidths {h} != e^-k grid {expected}"], None
    maj = np.array([float(r[2]) for r in rows])
    bias = np.array([float(r[3]) for r in rows])
    flags = [int(r[5]) for r in rows]
    mj = doc["majorant"]
    ref = np.array([majorant(order, hh, n, mj["mu4"], mj["class_bound"], doc["max_order"],
                             kernel_l2) for hh in h])
    if not np.allclose(maj, ref, rtol=1e-12, atol=0.0):
        msgs.append(f"order {order}: majorant column differs from the formula")
    if bias[-1] != 0.0 or np.any(bias < 0.0):
        msgs.append(f"order {order}: bias proxy must be >= 0 and 0 at the smallest h")
    objective = maj + bias
    best = int(np.argmin(objective))  # first minimizer: ties keep the largest h
    if flags != [1 if i == best else 0 for i in range(len(rows))]:
        msgs.append(f"order {order}: chosen flags {flags} do not mark the minimizer {best}")
    return msgs, h[best]


def check_adapt_roundtrip(doc: dict, out: dict[str, Path]) -> Failures:
    """Datasets, selection traces, adaptive models and isometry risks."""
    fails = Failures()
    for cmd in ("simulate", "adapt", "risk"):
        check_manifest(doc, cmd, out[cmd], fails)
    g = doc["grid_size"]
    _, kernel_l2 = kernel_poly(doc["s_star_hi"])
    try:
        risk_rows = read_csv(out["risk"] / "risk.csv", "n,rep,p,method,value,mc_stderr")
    except (OSError, ValueError) as exc:
        fails.add(_keys(doc, "risk"), f"risk: unreadable risk.csv ({exc})")
        risk_rows = []
    risk = {(int(r[0]), int(r[1])): r for r in risk_rows}
    for n in doc["n_list"]:
        for rep in range(doc["replications"]):
            msgs = check_dataset(doc, n, rep_dir(out["simulate"], n, rep))
            if msgs:
                fails.add([("simulate", n, rep)], "simulate: " + "; ".join(msgs))
            adir = rep_dir(out["adapt"], n, rep)
            chosen, msgs = {}, []
            for order in range(1, doc["max_order"] + 1):
                trace_msgs, h = check_trace(doc, n, order, adir / f"trace_order{order}.csv",
                                            kernel_l2)
                msgs += trace_msgs
                chosen[order] = h
            try:
                model = read_model(adir / "model.json")
            except (OSError, ValueError, KeyError) as exc:
                fails.add([("adapt", n, rep), ("risk", n, rep)], f"adapt: unreadable model ({exc})")
                continue
            msgs += check_surfaces(model, g, chosen)
            if msgs:
                fails.add([("adapt", n, rep)], "adapt: " + "; ".join(msgs))
            row = risk.get((n, rep))
            if row is None:
                fails.add([("risk", n, rep)], "risk: missing risk.csv row")
                continue
            ref = isometry_risk(model, doc["truth"], g)
            if (float(row[2]) != 2.0 or row[3] != "isometry" or float(row[5]) != 0.0
                    or not math.isclose(float(row[4]), ref, rel_tol=1e-9, abs_tol=1e-12)):
                fails.add([("risk", n, rep)], f"risk: row {row} != isometry risk {ref:.17g}")
    return fails


CHECKERS = {
    "rate_order1": check_rate,
    "fit3_mc_risk": check_fit3,
    "adapt_data_roundtrip": check_adapt_roundtrip,
}
