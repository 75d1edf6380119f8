"""Config-driven benchmark CLI: simulate, fit, adapt, risk, rate, check, plot.

Experiments are described by a single JSON file (a documented key-value
tree, see :class:`ExperimentConfig`); every command resolves replication
seeds from the master seed via ``SeedSequence`` spawn keys, so re-running a
command with the same config and seed reproduces primary outputs
byte-identically.  Exit codes: 0 success, 1 config validation error,
2 diagnostic check failure, 3 runtime error.

Example config::

    {
      "truth": "quadratic_terminal",
      "n_list": [500, 1000, 2000, 4000],
      "path_steps": 512,
      "grid_size": 64,
      "max_order": 2,
      "s_star_hi": 2.0,
      "s_star_lo": 0.5,
      "majorant": {"mu4": 0.66, "class_bound": 1.0},
      "bandwidths": {"mode": "theoretical", "s": [1.0, 1.0], "lam": [1.0, 1.0]},
      "risk_p": 2.0,
      "risk": {"method": "isometry", "n_mc": 400},
      "replications": 20,
      "seed": 20240801
    }

Inline truths replace the string by an object with ``a``, ``components``
(entries ``{"order", "kind": "constant"|"poly"|"gridded", ...}``), ``noise``
and ``class``; polynomial components give power-basis coefficients of the
univariate factor g, whose path-grid norm ||g||^2 = sum_j g(j / N)^2 / N
must be positive and ||g||^l finite.  ``bandwidths.practical`` is read in
``theorem41`` mode only.  A key that no reader takes, at the top level or in
any block (a misspelling, or ``practical`` in another mode), is a
ConfigError naming it.  A gridded component's ``grid_size`` must divide
``path_steps``, and may differ from the config's.  The optional
``risk`` and ``check`` objects take an integer ``n_mc``, at least
``chaoscalc.MIN_MC_DRAWS`` (100) wherever it sets a Monte Carlo draw count:
always for ``check``, for ``risk`` when its method is ``monte_carlo``.
Every value is read through one typed reader (``_require``/``_optional``/
``_block``; a bool is never a number) and each rule is checked once, by its
owner (``MajorantParams``, the component parser, ``plan_bandwidths`` for
every mode and n), so any config that cannot run is a ConfigError before a
command writes anything.  The parser works on its own copy of the document
and ``_optional`` writes each default it applies into it; the config keeps
that copy as ``doc``, which every manifest records as its ``config``, so a
manifest replays the run it describes.

Every file a command reads (config, datasets, models, plot input) goes
through one reader, ``_read``: a missing file, or one that does not parse,
is a ConfigError naming it, as is a dataset that is not a ``Sample`` on the
config's path grid.  ``_read_table`` reads every CSV table, bit-exactly, under
the exact header its writer wrote: ``_write_paths`` (``paths.csv``, through
``orjson``) or ``_write_table`` (the others, as ``%.17g``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from ._util import derive_seed
from .chaoscalc import MIN_MC_DRAWS, chaos_constant
from .chaoscalc import isometry_report, left_point_integrals, moment_bound_reports
from .chaosreg import (
    ChaosKernelEstimate,
    FittedModel,
    Sample,
    candidate_fits,
    estimate_mean,
    fit_from_parts,
    model_from_json,
    model_to_json,
    risk_isometry,
    risk_monte_carlo,
    slice_rows,
)
from .errors import ConfigError
from .glselect import MajorantParams, bandwidth_grid, select_model
# tracer shims: unused here, but perfbench/tracing.py wraps them by name in this module
from .chaosreg import fit_chaos_kernel  # noqa: F401
from .glselect import adaptive_fit  # noqa: F401
from .kernelkit import MomentKernel, build_kernel, kernel_moment
from .mappingzoo import (
    ClassParams,
    ConstantComponent,
    EqualFactorComponent,
    GaussianNoise,
    GriddedComponent,
    MappingSpec,
    UniformNoise,
    quadratic_terminal,
    synthesize,
    synthesis_factor,
    synthesize_functionals,
)
from .pathlab import make_grid


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandwidthPlan:
    mode: str  # fixed | theoretical | theorem41 | adaptive
    fixed: dict = field(default_factory=dict)  # order -> h
    s: tuple[float, ...] = ()
    lam: tuple[float, ...] = ()
    practical: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    truth: MappingSpec
    n_list: tuple[int, ...]
    path_steps: int
    grid_size: int
    max_order: int
    s_star_hi: float
    s_star_lo: float
    majorant: MajorantParams
    bandwidths: BandwidthPlan
    risk_p: float
    risk_method: str
    risk_n_mc: int
    replications: int
    seed: int
    check_n_mc: int
    doc: dict  # the document as parsed, each default applied recorded in it

    def kernel(self) -> MomentKernel:
        return build_kernel(self.s_star_hi)

    def rep_seed(self, n_index: int, rep: int) -> int:
        return derive_seed(self.seed, n_index, rep)


_KINDS = {float: "a number", int: "an integer", bool: "true or false", str: "a string",
          dict: "an object", list: "a list"}


def _typed(value, kind, name: str):
    """``value`` checked as a ``_KINDS`` key, or as a list of one (``[float]``, a tuple).

    A number is a finite int or float, returned as a float; a bool is never one.
    """
    if isinstance(kind, list):
        items = _typed(value, list, name)
        return tuple(_typed(v, kind[0], f"{name}[{i}]") for i, v in enumerate(items))
    if isinstance(value, bool):
        ok = kind is bool
    elif kind is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{name}: expected {_KINDS[kind]}, got {value!r}")
    return float(value) if kind is float else value


class _Block(dict):
    """An object of the config document that records, in ``read``, each key read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read: set[str] = set()


def _tracked(value):
    """A copy of a JSON value in which every object is a ``_Block``."""
    if isinstance(value, dict):
        return _Block((k, _tracked(v)) for k, v in value.items())
    if isinstance(value, list):
        return [_tracked(v) for v in value]
    return value


def _untracked(value, name: str = ""):
    """``value`` with plain dicts for its blocks; a key no reader took is a ConfigError."""
    if isinstance(value, list):
        return [_untracked(v, f"{name}[{i}]") for i, v in enumerate(value)]
    if not isinstance(value, _Block):
        return value
    for key in value:
        if key not in value.read:
            raise ConfigError(
                f"{_join(name, key)}: unknown key (no reader of this config takes it)")
    return {k: _untracked(v, _join(name, k)) for k, v in value.items()}


def _join(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _take(doc: dict, key: str):
    """``doc[key]``, recorded as read when ``doc`` is a ``_Block``."""
    if isinstance(doc, _Block):
        doc.read.add(key)
    return doc[key]


def _require(doc: dict, key: str, kind, where: str = ""):
    name = _join(where, key)
    if key not in doc:
        raise ConfigError(f"{name}: missing required key")
    return _typed(_take(doc, key), kind, name)


def _optional(doc: dict, key: str, kind, where: str, default):
    """``_require``, an absent key first set to ``default`` in JSON form (None stays absent)."""
    if key not in doc:
        if default is None:
            return None
        doc[key] = default
    return _require(doc, key, kind, where)


def _block(doc: dict, key: str, where: str = "") -> dict:
    """The optional sub-object ``doc[key]``, recorded empty when absent."""
    return _optional(doc, key, dict, where, {})


def _build(name: str, constructor, *args):
    """``constructor(*args)``, with its ValueError raised as a ConfigError naming ``name``."""
    try:
        return constructor(*args)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _parse_noise(doc: dict):
    kind = _require(doc, "kind", str, "truth.noise")
    if kind == "gaussian":
        return _build("truth.noise", GaussianNoise, _require(doc, "sigma", float, "truth.noise"))
    if kind == "uniform":
        return _build("truth.noise", UniformNoise,
                      _require(doc, "half_width", float, "truth.noise"))
    raise ConfigError(f"truth.noise.kind: unknown noise '{kind}'")


def _parse_component(doc: dict, where: str, path_steps: int):
    order = _require(doc, "order", int, where)
    if order < 1:
        raise ConfigError(f"{where}.order: must be >= 1")
    kind = _require(doc, "kind", str, where)
    if kind == "constant":
        return ConstantComponent(order, _require(doc, "value", float, where))
    if kind == "poly":
        component = EqualFactorComponent(order, _build(
            f"{where}.coeffs", np.polynomial.Polynomial, _require(doc, "coeffs", [float], where)))
        # synthesis divides by the factor's path-grid norm: its functionals on one
        # zero row check it
        with np.errstate(over="ignore", invalid="ignore"):
            _build(f"{where}.coeffs", component.chaos_from_functionals, *left_point_integrals(
                component.functional_rows(path_steps), np.zeros((1, path_steps))))
        return component
    if kind == "gridded":
        g = _require(doc, "grid_size", int, where)
        if g < 1:
            raise ConfigError(f"{where}: gridded components need grid_size >= 1")
        values = _build(f"{where}.values", np.reshape, _require(doc, "values", [float], where),
                        (g,) * order)
        component = _build(where, GriddedComponent, order, g, values)
        if path_steps % g != 0:  # its single integrals sum the path increments of each cell
            raise ConfigError(f"{where}.grid_size: {g} does not divide path_steps {path_steps}")
        return component
    raise ConfigError(f"{where}.kind: unknown component kind '{kind}'")


def _parse_truth(doc, path_steps: int) -> MappingSpec:
    if isinstance(doc, str):
        if doc == "quadratic_terminal":
            return quadratic_terminal()
        raise ConfigError(f"truth: unknown named truth '{doc}'")
    if not isinstance(doc, dict):
        raise ConfigError("truth: expected a name or an object")
    a = _require(doc, "a", float, "truth")
    comps = tuple(_parse_component(c, f"truth.components[{i}]", path_steps)
                  for i, c in enumerate(_require(doc, "components", [dict], "truth")))
    noise = _parse_noise(_require(doc, "noise", dict, "truth"))
    cls = _block(doc, "class", "truth")
    s = _optional(cls, "s", [float], "truth.class", [])
    lam = _optional(cls, "lam", [float], "truth.class", [])
    if any(v <= 0 for v in s + lam):
        raise ConfigError("truth.class: 's' and 'lam' entries must be positive")
    declared = ClassParams(
        s=s,
        lam=lam,
        max_order=_optional(cls, "max_order", int, "truth.class",
                            max((c.order for c in comps), default=0)),
        class_bound=_optional(cls, "class_bound", float, "truth.class", 1.0),
        gamma=_optional(cls, "gamma", float, "truth.class", None),
    )
    return _build("truth.components", MappingSpec, a, comps, noise, declared)


def _parse_bandwidths(doc: dict, max_order: int) -> BandwidthPlan:
    mode = _require(doc, "mode", str, "bandwidths")
    if mode == "fixed":
        raw = _require(doc, "values", dict, "bandwidths")
        fixed = {}
        for key in raw:
            name = f"bandwidths.values[{key}]"
            if not str(key).isdecimal() or not 1 <= int(key) <= max_order:
                raise ConfigError(f"{name}: keys must be orders in 1..max_order = {max_order}")
            if int(key) in fixed:  # every earlier key is decimal
                first = next(k for k in raw if int(k) == int(key))
                raise ConfigError(f"bandwidths.values: keys {first!r} and {key!r} name one order")
            fixed[int(key)] = _typed(_take(raw, key), float, name)
        missing = [o for o in range(1, max_order + 1) if o not in fixed]
        if missing:
            raise ConfigError(f"bandwidths.values: missing orders {missing}")
        return BandwidthPlan("fixed", fixed=fixed)
    if mode in ("theoretical", "theorem41"):
        s = _require(doc, "s", [float], "bandwidths")
        lam = _require(doc, "lam", [float], "bandwidths")
        if not s or not lam:
            raise ConfigError("bandwidths: 's' and 'lam' must be non-empty")
        if any(v <= 0 for v in s) or any(v <= 0 for v in lam):
            raise ConfigError("bandwidths: 's' and 'lam' entries must be positive")
        practical = mode == "theorem41" and _optional(doc, "practical", bool, "bandwidths", False)
        return BandwidthPlan(mode, s=s, lam=lam, practical=practical)
    if mode == "adaptive":
        return BandwidthPlan("adaptive")
    raise ConfigError(f"bandwidths.mode: unknown mode '{mode}'")


# The largest G^l surface of float64 a config may fit (risk builds no larger
# tensor): 16 MiB, an order-3 surface on 128 points per axis or an order-4 one
# on 38.  A fit holds a few temporaries of its surface's size and the model's
# JSON text about 2.5 times it, so this keeps a replication within a few
# hundred MB; an order-5 fit on 64 points would take 8.6 GB per surface.
MAX_SURFACE_BYTES = 2**24


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document; raises ConfigError with field-level messages.

    The config keeps, as ``doc``, a copy of the document with every default
    the parser applied written into it.  A key that no reader took, at the
    top level or in any block, is a ConfigError naming it.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    doc = _tracked(doc)
    n_list = _require(doc, "n_list", [int])
    if not n_list:
        raise ConfigError("n_list: must be non-empty")
    if any(n < 2 for n in n_list):
        raise ConfigError("n_list: entries must be integers >= 2")
    if list(n_list) != sorted(set(n_list)):
        raise ConfigError("n_list: must be strictly increasing")
    path_steps = _require(doc, "path_steps", int)
    grid_size = _optional(doc, "grid_size", int, "", 64)  # default evaluation grid, 64 per axis
    if path_steps < 1 or grid_size < 2:
        raise ConfigError("path_steps must be >= 1 and grid_size >= 2")
    if path_steps % grid_size != 0:
        raise ConfigError(
            f"grid_size: {grid_size} does not divide path_steps {path_steps}"
        )
    max_order = _require(doc, "max_order", int)
    if max_order < 1:
        raise ConfigError("max_order: must be >= 1")
    s_star_hi = _require(doc, "s_star_hi", float)
    s_star_lo = _optional(doc, "s_star_lo", float, "", 0.5)
    if s_star_hi <= 0 or s_star_lo <= 0:
        raise ConfigError("s_star_hi and s_star_lo must be positive")
    maj = _require(doc, "majorant", dict)
    majorant = _build("majorant", MajorantParams, _require(maj, "mu4", float, "majorant"),
                      _require(maj, "class_bound", float, "majorant"), max_order,
                      _build("s_star_hi", build_kernel, s_star_hi).l2_norm)
    plan = _parse_bandwidths(_require(doc, "bandwidths", dict), max_order)
    risk_p = _optional(doc, "risk_p", float, "", 2.0)
    if risk_p < 2:
        raise ConfigError("risk_p: must be >= 2")
    risk = _block(doc, "risk")
    risk_method = _optional(risk, "method", str, "risk",
                            "isometry" if risk_p == 2.0 else "monte_carlo")
    if risk_method not in ("isometry", "monte_carlo"):
        raise ConfigError(f"risk.method: unknown method '{risk_method}'")
    if risk_method == "isometry" and risk_p != 2.0:
        raise ConfigError("risk.method: isometry risk is only available for p = 2")
    risk_n_mc = _optional(risk, "n_mc", int, "risk", 400)
    if risk_method == "monte_carlo" and risk_n_mc < MIN_MC_DRAWS:
        raise ConfigError(f"risk.n_mc: Monte Carlo risk needs >= {MIN_MC_DRAWS} draws")
    doc.setdefault("truth", "quadratic_terminal")
    truth = _parse_truth(_take(doc, "truth"), path_steps)
    replications = _require(doc, "replications", int)
    if replications < 1:
        raise ConfigError("replications: must be >= 1")
    seed = _require(doc, "seed", int)
    if seed < 0:
        raise ConfigError("seed: must be >= 0")
    check = _block(doc, "check")
    check_n_mc = _optional(check, "n_mc", int, "check", 10_000)
    if check_n_mc < MIN_MC_DRAWS:
        raise ConfigError(f"check.n_mc: the Monte Carlo checks need >= {MIN_MC_DRAWS} draws")
    config = ExperimentConfig(
        truth=truth,
        n_list=n_list,
        path_steps=path_steps,
        grid_size=grid_size,
        max_order=max_order,
        s_star_hi=s_star_hi,
        s_star_lo=s_star_lo,
        majorant=majorant,
        bandwidths=plan,
        risk_p=risk_p,
        risk_method=risk_method,
        risk_n_mc=risk_n_mc,
        replications=replications,
        seed=seed,
        check_n_mc=check_n_mc,
        doc=_untracked(doc),
    )
    top = max(order for n in n_list for order in plan_bandwidths(config, n))
    if grid_size**top * 8 > MAX_SURFACE_BYTES:
        raise ConfigError(
            f"grid_size: an order-{top} surface on grid_size {grid_size} takes "
            f"{grid_size**top * 8} bytes, more than MAX_SURFACE_BYTES = {MAX_SURFACE_BYTES}")
    return config


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    """Load a config file; a RunManifest is accepted and replays its config."""
    doc = _read(Path(path), json.load)
    if isinstance(doc, dict) and "command" in doc and "config" in doc:
        doc = doc["config"]
    if seed_override is not None and isinstance(doc, dict):
        doc = dict(doc, seed=seed_override)
    return parse_config(doc)


# ---------------------------------------------------------------------------
# bandwidth rules
# ---------------------------------------------------------------------------


def theoretical_bandwidth(order: int, n: int, s: float, lam: float) -> float:
    """Optimal fixed-order bandwidth (1 / (lam^2 n))^(1/(2s + l))."""
    return (1.0 / (lam**2 * n)) ** (1.0 / (2.0 * s + order))


def truncation_order(n: int) -> int:
    """Growing truncation level: integer part of sqrt(log n)."""
    return int(math.floor(math.sqrt(math.log(n))))


def growing_order_bandwidth(
    order: int, n: int, s: float, lam: float, l_n: int, p: float,
    kernel_l2: float, practical: bool = False,
) -> float:
    """Bandwidth for the growing-truncation regime, (C^(2 L_n) / (lam^2 n))^(1/(2s+l)).

    C = sqrt(6 (p - 1)) ||k||; the conservative C^(2 L_n) factor is dropped in
    practical mode.
    """
    c2 = math.sqrt(6.0 * (p - 1.0)) * kernel_l2
    numerator = 1.0 if practical else c2 ** (2 * l_n)
    return (numerator / (lam**2 * n)) ** (1.0 / (2.0 * s + order))


def _per_order(seq: Sequence[float], order: int) -> float:
    return seq[order - 1] if order - 1 < len(seq) else seq[-1]


def plan_bandwidths(config: ExperimentConfig, n: int) -> dict[int, tuple[float, ...]]:
    """The candidate bandwidths of each order at sample size n.

    The fixed, theoretical and theorem41 modes give one candidate per order,
    the adaptive mode its e^-k selection grid.  Raises ConfigError unless
    every order has a candidate and every candidate lies in (0, 1).
    """
    plan = config.bandwidths
    if plan.mode == "adaptive":
        grids = {}
        for order in range(1, config.max_order + 1):
            try:
                grids[order] = bandwidth_grid(n, order, config.s_star_lo).values
            except ValueError as exc:  # GridEmptyError, or n < 3
                raise ConfigError(
                    f"bandwidths: no adaptive candidate at n={n}, order {order}, "
                    f"s_star_lo={config.s_star_lo}: {exc}"
                ) from exc
        return grids
    if plan.mode == "fixed":
        hs = dict(plan.fixed)
    elif plan.mode == "theoretical":
        hs = {
            o: theoretical_bandwidth(o, n, _per_order(plan.s, o), _per_order(plan.lam, o))
            for o in range(1, config.max_order + 1)
        }
    else:  # theorem41
        l_n = max(1, truncation_order(n))
        hs = {
            o: growing_order_bandwidth(
                o, n, _per_order(plan.s, o), _per_order(plan.lam, o), l_n,
                config.risk_p, config.majorant.kernel_l2, plan.practical,
            )
            for o in range(1, l_n + 1)
        }
    for order, h in hs.items():
        if not 0.0 < h < 1.0:
            raise ConfigError(
                f"bandwidths: resolved h={h:.6g} for order {order} at n={n} "
                "lies outside (0, 1)"
            )
    return {order: (h,) for order, h in hs.items()}


# ---------------------------------------------------------------------------
# shared replication machinery
# ---------------------------------------------------------------------------


def _rep_dir(root: Path, n: int, rep: int) -> Path:
    return root / f"n_{n:06d}" / f"rep_{rep:03d}"


def _replications(config: ExperimentConfig) -> list[tuple[int, int, int]]:
    """(n_index, n, rep) of every replication, n-major."""
    return [(i, n, rep) for i, n in enumerate(config.n_list)
            for rep in range(config.replications)]


def _pool(workers: int):
    """A process pool; its module is imported only here, when a pool starts."""
    from concurrent.futures.process import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _replicate(task, config: ExperimentConfig, threads: int) -> list:
    """``task(config, n_index, n, rep)`` for every replication, results n-major.

    In this process when ``threads <= 1``, else in a ``_pool``, so ``task``
    must pickle (a module-level function or a ``functools.partial`` of one).
    Every command's replications run here.  ``rate`` (each n's factor built
    once, ``_rate_setup``) and isometry ``risk`` pass ``threads`` 1.
    """
    jobs = _replications(config)
    columns = [[config] * len(jobs), *zip(*jobs)]
    if threads <= 1:
        return list(map(task, *columns))
    with _pool(min(threads, len(jobs))) as pool:
        return list(pool.map(task, *columns))


def _sample_for(config: ExperimentConfig, n_index: int, n: int, rep: int,
                data_dir: Path | None = None, weights=()) -> Sample:
    """The replication's dataset from ``data_dir``, or synthesized from its seed.

    A synthesized sample has ``weights``' integrals reduced with its responses.
    """
    if data_dir is not None:
        rep_dir = _rep_dir(data_dir, n, rep)
        sample = load_dataset(rep_dir, config.path_steps)
        if sample.n != n:
            raise ConfigError(f"dataset {rep_dir} holds {sample.n} paths, the config n is {n}")
        return sample
    grid = make_grid(config.path_steps)
    return synthesize(config.truth, n, grid, config.rep_seed(n_index, rep), weights)


def _distinct_bandwidths(plan: dict) -> list[float]:
    """Every distinct h of a ``plan_bandwidths`` plan, largest first."""
    return sorted({h for hs in plan.values() for h in hs}, reverse=True)


def _plan_model(config: ExperimentConfig, n: int, mean: float, fits: dict) -> FittedModel:
    """The model at n with mean ``mean`` from the candidate fits {order: {h: fit}} of its plan.

    Adaptive mode selects among each order's candidates; the other modes
    assemble the one fit of each order.
    """
    if config.bandwidths.mode == "adaptive":
        return select_model(mean, n, fits, config.majorant)
    return FittedModel(mean, tuple(fit for order in sorted(fits) for fit in fits[order].values()))


def _fit_one(config: ExperimentConfig, n_index: int, n: int, rep: int,
             data_dir: Path | None = None) -> FittedModel:
    """The replication's model from one pass over its paths, one row block at a time.

    The slice rows of every distinct bandwidth of the plan are built once.
    The pass fills their integrals (on the seed route with the truth's
    functionals for the responses, ``synthesize``), and ``candidate_fits``
    fits every (order, h) from them.  No (n, N) matrix of increments is formed.
    """
    grid, kernel = make_grid(config.path_steps), config.kernel()
    plan = plan_bandwidths(config, n)
    rows = {h: slice_rows(kernel, h, config.grid_size, grid) for h in _distinct_bandwidths(plan)}
    sample = _sample_for(config, n_index, n, rep, data_dir, list(rows.values()))
    return _plan_model(config, n, estimate_mean(sample), candidate_fits(sample, plan, rows))


def _risk_of_model(config: ExperimentConfig, model: FittedModel, n_index: int, rep: int):
    if config.risk_method == "isometry":
        return risk_isometry(model, config.truth, config.path_steps)
    return risk_monte_carlo(
        model, config.truth, config.risk_p, config.risk_n_mc,
        derive_seed(config.seed, 1_000_000 + n_index, rep), config.path_steps,
    )


_AGGREGATES_HEADER = "n,mean_risk,std_risk,replications"
_TRACE_HEADER = "ell,h,majorant,bias_proxy,objective,chosen"


def _read(path: Path, parse):
    """``parse`` applied to the open text file ``path``.

    A file that cannot be opened, and any ValueError, KeyError or TypeError
    raised while parsing it, is a ConfigError naming the file.
    """
    try:
        with open(path) as fp:
            return parse(fp)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed ({exc!r})") from exc


_NOT_NUMBERS = '{["tfn \t\r'  # how every non-number JSON value starts, and JSON whitespace


def _json_rows(lines, columns: int):
    """Each non-blank line as ``columns`` float64 numbers, parsed bit-exactly by ``orjson``."""
    import orjson

    for line in filter(None, map(str.strip, lines)):
        if any(c in line for c in _NOT_NUMBERS):
            raise ValueError(f"a cell that is not a number in {line[:60]!r}")
        row = np.array(orjson.loads("[" + line + "]"), dtype=float)
        if len(row) != columns:
            raise ValueError(f"{len(row)} cells under a header of {columns}")
        if not row.all():  # -0.0 in %.17g is -0, the integer 0 in JSON
            row[[cell == "-0" for cell in line.split(",")]] = -0.0
        yield row


def _read_table(path: Path, *headers: str) -> tuple[str, np.ndarray]:
    """The header of a CSV table, which must be one of ``headers``, and its rows (at least one)."""

    def parse(fp):
        header = fp.readline().rstrip("\n")
        if header not in headers:
            raise ValueError(f"unexpected header {header[:60]!r}")
        columns = header.count(",") + 1
        table = np.fromiter(_json_rows(fp, columns), dtype=(float, columns))
        if not len(table):
            raise ValueError("no rows under the header")
        return header, table

    return _read(path, parse)


def _write_table(path: Path, header: str, fmt: str, rows) -> Path:
    """Write a CSV table: ``header``, then ``fmt % tuple(row)`` for each row."""
    with open(path, "w") as fp:
        fp.write(header + "\n")
        fp.writelines(fmt % tuple(row) + "\n" for row in rows)
    return path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: ExperimentConfig,
                    started: float, outputs: list[Path]) -> Path:
    manifest = {
        "command": command,
        "library_version": __version__,
        "seed": config.seed,
        "config": config.doc,
        "replication_seeds": {
            f"n={n}": [config.rep_seed(i, r) for r in range(config.replications)]
            for i, n in enumerate(config.n_list)
        },
        "wall_clock_s": round(time.time() - started, 3),
        "outputs": {str(p.relative_to(out_dir)): _sha256(p) for p in sorted(outputs)},
    }
    return _write_json(out_dir / "manifest.json", manifest)


def _write_json(path: Path, doc: dict) -> Path:
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _paths_header(n: int) -> str:
    return "t," + ",".join(f"w_{i:04d}" for i in range(n))


def _write_paths(path: Path, grid, paths: np.ndarray) -> Path:
    """Write ``paths.csv``: one ``orjson`` row per grid time, t then every path's value."""
    import orjson

    row = np.empty(len(paths) + 1)  # C-contiguous float64, as orjson requires
    with open(path, "wb") as fp:
        fp.write(_paths_header(len(paths)).encode() + b"\n")
        for t, column in zip(grid.points, paths.T):
            row[0], row[1:] = t, column
            fp.write(orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b"\n")
    return path


def _simulate_one(config: ExperimentConfig, n_index: int, n: int, rep: int,
                  out_dir: Path) -> tuple[Path, Path]:
    """Write the replication's two CSV files from one draw of its paths."""
    sample = synthesize(config.truth, n, make_grid(config.path_steps),
                        config.rep_seed(n_index, rep), hold_paths=True)
    rep_dir = _rep_dir(out_dir, n, rep)
    rep_dir.mkdir(parents=True, exist_ok=True)
    responses = _write_table(rep_dir / "responses.csv", "index,y", "%d,%.17g",
                             enumerate(sample.responses))
    return responses, _write_paths(rep_dir / "paths.csv", sample.grid, sample.paths)


def cmd_simulate(config: ExperimentConfig, out_dir: Path, threads: int = 1) -> Path:
    """Write per-replication datasets (responses + paths CSV) and a manifest.

    Each replication's worker writes its own two CSV files.
    """
    started = time.time()
    written = _replicate(partial(_simulate_one, out_dir=out_dir), config, threads)
    _write_manifest(out_dir, "simulate", config, started, [p for pair in written for p in pair])
    return out_dir


def load_dataset(rep_dir: Path, grid_steps: int) -> Sample:
    """Read a dataset written by ``cmd_simulate``.

    Raises ConfigError unless it holds one path of ``grid_steps`` steps per
    response and makes a valid Sample.
    """
    _, table = _read_table(rep_dir / "responses.csv", "index,y")
    responses = np.ascontiguousarray(table[:, 1])
    _, matrix = _read_table(rep_dir / "paths.csv", _paths_header(len(responses)))
    # a view, not a copy: a fit reads C-contiguous increments of its row blocks
    # (pathlab.increment_blocks), so fits equal the seed route's bit for bit
    values = matrix[:, 1:].T
    if values.shape != (len(responses), grid_steps + 1):
        raise ConfigError(
            f"dataset {rep_dir} holds {len(responses)} responses and {values.shape[0]} "
            f"paths of {values.shape[1] - 1} steps, the config has path_steps {grid_steps}"
        )
    grid = make_grid(grid_steps)
    if not np.array_equal(matrix[:, 0], grid.points):
        raise ConfigError(f"{rep_dir / 'paths.csv'}: t is not the grid of path_steps {grid_steps}")
    return _build(f"dataset {rep_dir}", Sample, grid, responses, values)


def _fit_encoded(config: ExperimentConfig, n_index: int, n: int, rep: int,
                 data_dir: Path | None = None) -> tuple[str, tuple]:
    """The replication's model as ``model.json`` text, and its selection traces."""
    model = _fit_one(config, n_index, n, rep, data_dir)
    return model_to_json(model), model.selection_traces


def _fit_and_write(command: str, config: ExperimentConfig, out_dir: Path, threads: int,
                   data_dir: Path | None) -> Path:
    """Fit every replication; write models, selection traces, manifest.

    Each worker fits and serializes its replication's model, so only text
    and traces come back.  Nothing is written unless every fit succeeded.
    """
    started = time.time()
    fitted = _replicate(partial(_fit_encoded, data_dir=data_dir), config, threads)
    outputs = []
    for (_, n, rep), (text, traces) in zip(_replications(config), fitted):
        rep_dir = _rep_dir(out_dir, n, rep)
        rep_dir.mkdir(parents=True, exist_ok=True)
        path = rep_dir / "model.json"
        path.write_text(text)
        outputs.append(path)
        for trace in traces:
            outputs.append(_write_table(
                rep_dir / f"trace_order{trace.order}.csv", _TRACE_HEADER,
                "%d,%.17g,%.17g,%.17g,%.17g,%d",
                ((trace.order, r.h, r.majorant, r.bias_proxy, r.objective, r.h == trace.chosen)
                 for r in trace.records)))
    _write_manifest(out_dir, command, config, started, outputs)
    return out_dir


def cmd_fit(config: ExperimentConfig, out_dir: Path, threads: int = 1,
            data_dir: Path | None = None) -> Path:
    """Fit per-replication models with the configured bandwidth rule.

    Datasets are read from ``data_dir`` (a ``cmd_simulate`` output tree) when
    given, otherwise re-synthesized from the replication seeds; a fit reads
    the same row blocks of paths on both routes, so their models are identical.
    """
    if config.bandwidths.mode == "adaptive":
        return cmd_adapt(config, out_dir, threads, data_dir)
    return _fit_and_write("fit", config, out_dir, threads, data_dir)


def cmd_adapt(config: ExperimentConfig, out_dir: Path, threads: int = 1,
              data_dir: Path | None = None) -> Path:
    """Adaptive per-order bandwidth selection; writes models and selection traces.

    Selection runs whatever the configured bandwidth mode; every bracket is
    checked before anything is written.  The manifest records the config as
    given: the adaptive plan keeps its ``doc``.
    """
    adaptive = replace(config, bandwidths=BandwidthPlan("adaptive"))
    for n in config.n_list:
        plan_bandwidths(adaptive, n)
    return _fit_and_write("adapt", adaptive, out_dir, threads, data_dir)


def _stored_risk(config: ExperimentConfig, n_index: int, n: int, rep: int, models_dir: Path):
    path = _rep_dir(models_dir, n, rep) / "model.json"
    model = _read(path, lambda fp: model_from_json(fp.read()))
    for est in model.components:
        if est.grid_size != config.grid_size:
            raise ConfigError(f"{path}: order-{est.order} surface on grid_size "
                              f"{est.grid_size}, the config has grid_size {config.grid_size}")
    return _risk_of_model(config, model, n_index, rep)


def _write_aggregates(path: Path, config: ExperimentConfig, values) -> np.ndarray:
    """Write the per-n mean and std of n-major replication values; return the means."""
    table = np.reshape(values, (len(config.n_list), config.replications))
    means = np.array([float(np.mean(row)) for row in table])
    _write_table(path, _AGGREGATES_HEADER, "%d,%.17g,%.17g,%d",
                 ((n, mean, np.std(row, ddof=1) if len(row) > 1 else 0.0, len(row))
                  for n, mean, row in zip(config.n_list, means, table)))
    return means


def cmd_risk(config: ExperimentConfig, models_dir: Path, out_dir: Path,
             threads: int = 1) -> Path:
    """Per-replication risks of stored models against the configured truth.

    Nothing is written unless every model exists and every risk succeeded.
    Isometry risk, about a millisecond of closed-form work per replication
    (less than a worker pool costs to start), runs in this process.
    """
    started = time.time()
    reports = _replicate(partial(_stored_risk, models_dir=models_dir), config,
                         threads if config.risk_method == "monte_carlo" else 1)
    out_dir.mkdir(parents=True, exist_ok=True)
    risk_csv = _write_table(
        out_dir / "risk.csv", "n,rep,p,method,value,mc_stderr", "%d,%d,%.17g,%s,%.17g,%.17g",
        ((n, rep, r.p, r.method, r.value, r.mc_stderr)
         for (_, n, rep), r in zip(_replications(config), reports)))
    agg_csv = out_dir / "aggregates.csv"
    _write_aggregates(agg_csv, config, [report.value for report in reports])
    _write_manifest(out_dir, "risk", config, started, [risk_csv, agg_csv])
    return out_dir


def _rate_setup(config: ExperimentConfig, n: int):
    """(factor, {h: rows}, per-pair bandwidths, plan) that every replication at n draws from.

    Every distinct bandwidth of the plan ``plan_bandwidths(config, n)`` (every
    candidate in adaptive mode) gets one slice block of the
    ``synthesis_factor``.  A bandwidth that some order >= 2 uses is drawn
    per pair and fitted from its block and gram, one used at order 1 alone as
    its response moment sum_i Y_i x_i, whose fit is that over n.
    """
    plan = plan_bandwidths(config, n)
    per_pair = sorted({h for order, hs in plan.items() if order > 1 for h in hs}, reverse=True)
    summed = [h for h in _distinct_bandwidths(plan) if h not in per_pair]
    g, kernel, grid = config.grid_size, config.kernel(), make_grid(config.path_steps)
    # one G-row slice block per bandwidth, largest h first in each set
    rows = {h: slice(i * g, (i + 1) * g) for hs in (per_pair, summed) for i, h in enumerate(hs)}
    factor = synthesis_factor(
        config.truth,
        *(np.reshape([slice_rows(kernel, h, g, grid) for h in hs], (-1, grid.n_steps))
          for hs in (per_pair, summed)))
    return factor, rows, per_pair, plan


def _rate_risk(config: ExperimentConfig, n_index: int, n: int, rep: int, setups):
    """The replication's risk, from slice integrals drawn from ``setups[n_index]``, not paths."""
    factor, rows, per_pair, plan = setups[n_index]
    x, gram, y, sums = synthesize_functionals(config.truth, factor, n,
                                              config.rep_seed(n_index, rep))
    g = config.grid_size
    fits = {o: {h: fit_from_parts(x[rows[h]], gram[rows[h], rows[h]], y, o, h) if h in per_pair
                else ChaosKernelEstimate(o, g, sums[rows[h]] / n, bandwidth=h) for h in hs}
            for o, hs in plan.items()}
    return _risk_of_model(config, _plan_model(config, n, float(np.mean(y)), fits), n_index, rep)


def theoretical_rate_curve(config: ExperimentConfig) -> np.ndarray:
    """phi_n = max_l lam^(2l/(2s+l)) n^(-s/(2s+l)) over the configured orders."""
    plan = config.bandwidths
    if plan.mode in ("theoretical", "theorem41"):
        s, lam = plan.s, plan.lam
    else:
        d = config.truth.declared
        s = d.s or (config.s_star_hi,)
        lam = d.lam or (1.0,)
    orders = range(1, config.max_order + 1)
    return np.array([max(_per_order(lam, o) ** (2 * o / (2 * _per_order(s, o) + o))
                         * n ** (-_per_order(s, o) / (2 * _per_order(s, o) + o)) for o in orders)
                     for n in config.n_list])


def _loglog_slope(n_values: np.ndarray, y_values: np.ndarray) -> tuple[float, float]:
    x = np.log(np.asarray(n_values, dtype=float))
    y = np.log(np.asarray(y_values, dtype=float))
    design = np.column_stack([np.ones_like(x), x])
    coef, residuals, *_ = np.linalg.lstsq(design, y, rcond=None)
    dof = len(x) - 2
    if dof > 0:
        resid = y - design @ coef
        sigma_sq = float(resid @ resid) / dof
        cov = sigma_sq * np.linalg.inv(design.T @ design)
        stderr = float(np.sqrt(cov[1, 1]))
    else:
        stderr = float("nan")
    return float(coef[1]), stderr


def cmd_rate(config: ExperimentConfig, out_dir: Path) -> dict:
    """Full rate sweep: draw, fit, and evaluate risk for every n; fit the slope.

    Each n's slice rows and their factor are built once (``_rate_setup``),
    and ``_replicate`` runs every replication's ``_rate_risk`` from them, in
    this process, since a pool costs more to start than all of them.
    Nothing is written unless every one succeeded.
    """
    if len(config.n_list) < 4:
        raise ConfigError("rate: n_list needs at least 4 sample sizes")
    if max(config.n_list) < 10 * min(config.n_list):
        raise ConfigError("rate: n_list should span at least one decade")
    started = time.time()
    setups = [_rate_setup(config, n) for n in config.n_list]
    values = [r.value for r in _replicate(partial(_rate_risk, setups=setups), config, 1)]
    out_dir.mkdir(parents=True, exist_ok=True)
    risk_csv = out_dir / "risk_by_n.csv"
    means = _write_aggregates(risk_csv, config, values)
    slope, slope_stderr = _loglog_slope(np.array(config.n_list), means)
    theory = theoretical_rate_curve(config)
    theory_slope, _ = _loglog_slope(np.array(config.n_list), theory)
    report = {
        "slope": slope,
        "slope_stderr": slope_stderr,
        "theoretical_slope": theory_slope,
        "slope_gap": slope - theory_slope,
        "n_list": list(config.n_list),
        "mean_risk": means.tolist(),
    }
    rate_json = _write_json(out_dir / "rate.json", report)
    _write_manifest(out_dir, "rate", config, started, [risk_csv, rate_json])
    return report


def run_checks(config: ExperimentConfig) -> dict:
    """Kernel moments, isometry, hypercontractivity, and second-moment bounds."""
    checks = []

    def record(name: str, passed: bool, measured: float, target: float):
        checks.append(
            {"name": name, "passed": bool(passed), "measured": measured, "target": target}
        )

    # kernel moment identities for m = 0..3
    for m in range(4):
        kernel = build_kernel(m + 0.5)
        mass = kernel_moment(kernel, 0)
        record(f"kernel_m{m}_mass", abs(mass - 1.0) <= 1e-10, mass, 1.0)
        for s in range(1, m + 1):
            mom = kernel_moment(kernel, s)
            record(f"kernel_m{m}_moment{s}", abs(mom) <= 1e-10, mom, 0.0)

    n_mc = config.check_n_mc
    ones = np.polynomial.Polynomial([1.0])
    ramp = np.polynomial.Polynomial([0.0, 1.0])
    rep = isometry_report([ones, ones], [ones, ones], n_mc, derive_seed(config.seed, 7, 0),
                          config.path_steps)
    record("isometry_E_I2_sq", rep.within(3.0), rep.empirical, rep.theoretical)
    rep = isometry_report([ones], [ones, ones], n_mc, derive_seed(config.seed, 7, 1),
                          config.path_steps)
    record("isometry_orthogonality", rep.within(3.0), rep.empirical, rep.theoretical)
    rep = isometry_report([ramp], [ramp], n_mc, derive_seed(config.seed, 7, 2),
                          config.path_steps)
    record("isometry_E_I1_sq", rep.within(3.0), rep.empirical, rep.theoretical)

    kernel = config.kernel()
    for order in (1, 2):
        # one draw per h: at e^-2 its second and fourth moments also serve
        # hypercontractivity
        second, fourth = moment_bound_reports(order, math.exp(-2), (1, 2), n_mc,
                                              derive_seed(config.seed, 9, order), kernel,
                                              n_steps=config.path_steps)
        (narrow,) = moment_bound_reports(order, math.exp(-3), (1,), n_mc,
                                         derive_seed(config.seed, 8, order, 3), kernel,
                                         n_steps=config.path_steps)
        for k_exp, bound in ((2, second), (3, narrow)):
            record(
                f"second_moment_bound_l{order}_h_e-{k_exp}",
                bound.within_bound, bound.empirical, bound.bound,
            )
        lhs = fourth.empirical ** 0.5  # (E xi^4)^(1/4)
        rhs = chaos_constant(order, 4) * second.empirical**0.5
        # fourth.mc_stderr is in units of (E xi^4)^(1/2); carry it to lhs units
        lhs_stderr = 0.5 * fourth.mc_stderr / lhs if lhs > 0 else 0.0
        record(
            f"hypercontractivity_l{order}",
            lhs <= rhs + 3.0 * lhs_stderr,
            lhs, rhs,
        )
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


def cmd_check(config: ExperimentConfig, out_dir: Path) -> dict:
    started = time.time()
    report = run_checks(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    check_json = _write_json(out_dir / "check.json", report)
    _write_manifest(out_dir, "check", config, started, [check_json])
    return report


# ---------------------------------------------------------------------------
# SVG plotting (hand-rolled so output bytes are deterministic)
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H, _SVG_PAD = 640, 440, 60
_SERIES_COLORS = ("#1f6fb2", "#d95f02", "#1b9e77")


def _svg_header() -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_SVG_PAD}" y="{_SVG_PAD}" width="{_SVG_W - 2 * _SVG_PAD}" '
        f'height="{_SVG_H - 2 * _SVG_PAD}" fill="none" stroke="black"/>',
    ]


def _scale(vals: np.ndarray, lo_px: float, hi_px: float):
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin

    def to_px(v):
        return lo_px + (v - vmin) / span * (hi_px - lo_px)

    return to_px, vmin, vmax


def _polyline(xs, ys, color: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def _text(x: float, y: float, s: str, size: int = 12, color: str = "black") -> str:
    return f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" fill="{color}">{s}</text>'


def plot_risk(table: np.ndarray, out_path: Path) -> None:
    """Log-log risk-vs-n chart of an aggregates table, with the fitted slope annotated."""
    n, risk = table[:, 0], table[:, 1]
    slope, stderr = _loglog_slope(n, risk)
    lx, ly = np.log10(n), np.log10(risk)
    to_x, *_ = _scale(lx, _SVG_PAD, _SVG_W - _SVG_PAD)
    to_y, *_ = _scale(ly, _SVG_H - _SVG_PAD, _SVG_PAD)
    parts = _svg_header()
    xs, ys = [to_x(v) for v in lx], [to_y(v) for v in ly]
    parts.append(_polyline(xs, ys, _SERIES_COLORS[0]))
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{_SERIES_COLORS[0]}"/>')
    parts.append(_text(_SVG_PAD, _SVG_PAD - 20, f"log-log risk vs n, slope {slope:.4f}"))
    parts.append(_text(_SVG_PAD, _SVG_H - _SVG_PAD + 30, "log10 n"))
    parts.append(_text(12, _SVG_PAD - 20, "log10 R"))
    for v, x in zip(n, xs):
        parts.append(_text(x - 10, _SVG_H - _SVG_PAD + 15, f"{v:g}", size=10))
    parts.append("</svg>")
    out_path.write_text("\n".join(parts) + "\n")


def plot_trace(table: np.ndarray, out_path: Path) -> None:
    """Selection-trace chart: majorant, bias proxy, and objective vs bandwidth."""
    h, chosen = table[:, 1], table[:, 5]
    series = {"majorant": table[:, 2], "bias_proxy": table[:, 3], "objective": table[:, 4]}
    lx = np.log10(h)
    to_x, *_ = _scale(lx, _SVG_PAD, _SVG_W - _SVG_PAD)
    all_y = np.concatenate(list(series.values()))
    to_y, *_ = _scale(all_y, _SVG_H - _SVG_PAD, _SVG_PAD)
    parts = _svg_header()
    for (name, ys), color in zip(series.items(), _SERIES_COLORS):
        parts.append(_polyline([to_x(v) for v in lx], [to_y(v) for v in ys], color))
    for i, flag in enumerate(chosen):
        if flag:
            parts.append(
                f'<circle cx="{to_x(lx[i]):.2f}" cy="{to_y(series["objective"][i]):.2f}" '
                f'r="5" fill="none" stroke="black" stroke-width="1.5"/>'
            )
    for (name, _), color, dy in zip(series.items(), _SERIES_COLORS, (0, 16, 32)):
        parts.append(_text(_SVG_W - _SVG_PAD - 120, _SVG_PAD + 16 + dy, name, color=color))
    parts.append(_text(_SVG_PAD, _SVG_PAD - 20, "bandwidth selection trace"))
    parts.append(_text(_SVG_PAD, _SVG_H - _SVG_PAD + 30, "log10 h"))
    parts.append("</svg>")
    out_path.write_text("\n".join(parts) + "\n")


def cmd_plot(csv_path: Path, out_path: Path) -> Path:
    """Chart an aggregates table (``aggregates.csv``, ``risk_by_n.csv``) or a selection trace.

    Its log-axis columns (n and mean_risk, or h) must be positive and finite.
    """
    plots = {_AGGREGATES_HEADER: (plot_risk, [0, 1]), _TRACE_HEADER: (plot_trace, [1])}
    header, table = _read_table(csv_path, *plots)
    plot, logged = plots[header]
    if not np.all((table[:, logged] > 0) & (table[:, logged] < np.inf)):
        raise ConfigError(f"{csv_path}: log-axis values must be positive and finite")
    plot(table, out_path)
    return out_path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaosbench",
        description="Chaos-expansion regression benchmarks on Brownian-path covariates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="replication workers (rate, check and isometry risk run in process)")

    for name in ("simulate", "rate", "check"):
        common(sub.add_parser(name))
    for name in ("fit", "adapt"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--data", default=None, help="dataset tree from 'simulate'")
    risk = sub.add_parser("risk")
    common(risk)
    risk.add_argument("--models", required=True, help="directory written by fit/adapt")
    plot = sub.add_parser("plot")
    plot.add_argument("--csv", required=True, help="risk or trace CSV")
    plot.add_argument("--out", required=True, help="output SVG path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            cmd_plot(Path(args.csv), Path(args.out))
            return 0
        config = load_config(args.config, args.seed)
        out_dir = Path(args.out)
        if args.command == "simulate":
            cmd_simulate(config, out_dir, args.threads)
        elif args.command in ("fit", "adapt"):
            command = cmd_fit if args.command == "fit" else cmd_adapt
            command(config, out_dir, args.threads, Path(args.data) if args.data else None)
        elif args.command == "risk":
            cmd_risk(config, Path(args.models), out_dir, args.threads)
        elif args.command == "rate":
            report = cmd_rate(config, out_dir)
            print(
                f"slope {report['slope']:.4f} +- {report['slope_stderr']:.4f} "
                f"(theory {report['theoretical_slope']:.4f})"
            )
        elif args.command == "check":
            report = cmd_check(config, out_dir)
            for check in report["checks"]:
                status = "pass" if check["passed"] else "FAIL"
                print(f"{status} {check['name']}: {check['measured']:.6g}")
            if not report["passed"]:
                return 2
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
