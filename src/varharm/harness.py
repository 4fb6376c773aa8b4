"""Batch experiment runner: every inequality becomes a seeded ratio sweep.

Each experiment walks a battery of test functions / weights, records
(lhs, rhs, ratio) rows, and emits a CSV table plus a JSON summary. Runs
are deterministic under a fixed seed; only the JSON header carries a
timestamp.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .atoms import make_atom, sgn_atom
from .grid import Domain1D, GridFunction, KernelSpec, ScaleFamily, lp_norm, weak_l1_norm
from .lattice import cube_domain_ranges, default_lattices
from .oscillation import (Ball, WitnessPlacementError, bmo_nu_norm,
                          cal_bmo_omega_norm, oscillation_witness)
from .sparse import domination_check
from .variation import commutator_variation, kernel_difference_variation, variation_operator
from .weights import Weight, a1_constant, ainf_constant, ap_constant, bloom_weight, power_weight

EXPERIMENT_IDS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


_FLOAT_FIELDS = {"left", "right", "t_max", "scale_ratio", "rho"}
_INT_FIELDS = {"cells", "function_count", "seed", "refine", "scale_count"}
_TUPLE_FIELDS = {"p_list", "weight_params"}


@dataclass
class ExperimentConfig:
    experiment: str
    left: float = -8.0
    right: float = 8.0
    cells: int = 3072
    kernel: str = "gaussian-heat"
    t_max: float = 4.0
    scale_ratio: float = 0.85
    scale_count: int = 48
    rho: float = 3.0
    p_list: tuple = (1.2, 2.0, 4.0)
    weight_params: tuple = (-0.3, 0.0, 0.3, 0.6)
    function_battery: str = "mixed"
    function_count: int = 12
    seed: int = 20240901
    out_dir: str = "."
    refine: int = 0

    def validate(self) -> None:
        if self.experiment not in EXPERIMENT_IDS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for name in sorted(_FLOAT_FIELDS):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        for name in sorted(_TUPLE_FIELDS):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ConfigError(f"{name} entries must be finite")
        if not self.left < self.right:
            raise ConfigError("domain requires left < right")
        if self.cells < 16 or (3 * self.cells) % 2 != 0:
            raise ConfigError("cells must be >= 16 with 3N even for the lattices")
        if self.kernel not in ("gaussian-heat", "poisson", "compact-bump"):
            raise ConfigError(f"kernel {self.kernel!r} not usable as approximate identity")
        if self.rho <= 2:
            raise ConfigError("experiments require rho > 2")
        if not 0 < self.scale_ratio < 1:
            raise ConfigError("scale_ratio must lie in (0, 1)")
        if any(p <= 1 for p in self.p_list) and self.experiment in ("E1", "E5", "E6"):
            raise ConfigError("p_list entries must exceed 1 for this experiment")
        if self.refine < 0:
            raise ConfigError("refine must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.function_battery not in _FUNCTION_BATTERIES:
            raise ConfigError(f"unknown function battery {self.function_battery!r}")
        if self.function_count < 1:
            raise ConfigError("function_count must be positive")
        try:
            self.scales()
        except ValueError as exc:
            raise ConfigError(f"no usable scale family at t >= 2h: {exc}") from None

    def domain(self) -> Domain1D:
        return Domain1D(self.left, self.right, self.cells)

    def kernel_spec(self) -> KernelSpec:
        return KernelSpec(self.kernel)

    def scales(self, domain: Domain1D | None = None) -> ScaleFamily:
        d = domain or self.domain()
        return ScaleFamily.for_domain(d, t_max=self.t_max, ratio=self.scale_ratio,
                                      count=self.scale_count)


def _float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def parse_config(text: str) -> ExperimentConfig:
    """Flat key = value lines, '#' comments, comma-separated lists."""
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in kwargs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in _FLOAT_FIELDS:
            parse = float
        elif key in _INT_FIELDS:
            parse = int
        elif key in _TUPLE_FIELDS:
            parse = _float_list
        elif key in ("experiment", "kernel", "function_battery", "out_dir"):
            parse = str
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            kwargs[key] = parse(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse {key} = {val!r}") from None
    if "experiment" not in kwargs:
        raise ConfigError("config must name an experiment")
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# batteries

def _indicator_battery(domain: Domain1D, count: int, rng) -> list:
    fixed = [("ind[-1,1]", GridFunction.indicator(domain, -1.0, 1.0)),
             ("ind[0,1]", GridFunction.indicator(domain, 0.0, 1.0)),
             ("ind[-4,-2]", GridFunction.indicator(domain, -4.0, -2.0))]
    out = fixed[:count]
    span = domain.length
    while len(out) < count:
        a = domain.left + 0.1 * span + 0.8 * span * rng.random()
        width = 0.05 * span + 0.3 * span * rng.random()
        b = min(a + width, domain.right - 0.05 * span)
        out.append((f"ind{len(out)}", GridFunction.indicator(domain, a, b)))
    return out


def _bump_battery(domain: Domain1D, count: int, rng) -> list:
    x = domain.x()
    span = domain.length
    out = []
    for i in range(count):
        vals = np.zeros(domain.cells)
        for _ in range(3):
            c = domain.left + span * (0.2 + 0.6 * rng.random())
            w = span * (0.02 + 0.08 * rng.random())
            a = -1.0 + 2.0 * rng.random()
            vals += a * np.exp(-((x - c) / w) ** 2)
        out.append((f"bump{i}", GridFunction(domain, vals)))
    return out


def _oscillatory_battery(domain: Domain1D, count: int, rng) -> list:
    # sums of dilated sign steps inside a window
    x = domain.x()
    span = domain.length
    window = (x >= domain.left + 0.125 * span) & (x < domain.right - 0.125 * span)
    out = []
    for i in range(count):
        vals = np.zeros(domain.cells)
        for k in range(4):
            c = domain.left + span * (0.25 + 0.5 * rng.random())
            a = (-1.0 + 2.0 * rng.random()) / (k + 1)
            vals += a * np.sign(x - c)
        vals *= window
        out.append((f"osc{i}", GridFunction(domain, vals)))
    return out


def _mixed_battery(domain: Domain1D, count: int, rng) -> list:
    n_ind = (count + 2) // 3
    n_bump = (count + 1) // 3
    n_osc = count - n_ind - n_bump
    return (_indicator_battery(domain, n_ind, rng)
            + _bump_battery(domain, n_bump, rng)
            + _oscillatory_battery(domain, n_osc, rng))


def _power_weight_battery(domain: Domain1D, params) -> list:
    return [(f"pow{a:+g}", power_weight(a, domain)) for a in params]


def _perturbed_weight_battery(domain: Domain1D, count: int, rng) -> list:
    x = domain.x()
    span = domain.length
    out = []
    for i in range(count):
        phase = 2.0 * math.pi * rng.random()
        freq = 1.0 + 3.0 * rng.random()
        eps = 0.2 + 0.4 * rng.random()
        vals = np.exp(eps * np.cos(freq * 2.0 * math.pi * (x - domain.left) / span + phase))
        out.append((f"pert{i}", Weight(GridFunction(domain, vals), tag=f"pert{i}")))
    return out


_FUNCTION_BATTERIES = {
    "indicators": _indicator_battery,
    "random-bumps": _bump_battery,
    "oscillatory": _oscillatory_battery,
    "mixed": _mixed_battery,
}


def battery_generate(spec: str, seed: int, domain: Domain1D,
                     count: int = 12, params=None) -> list:
    """Seeded battery of test functions or weights, keyed by spec name."""
    rng = np.random.default_rng(seed)
    if spec in _FUNCTION_BATTERIES:
        return _FUNCTION_BATTERIES[spec](domain, count, rng)
    if spec == "power-weights":
        return _power_weight_battery(domain, params or (-0.3, 0.0, 0.3, 0.6))
    if spec == "perturbed-constant-weights":
        return _perturbed_weight_battery(domain, count, rng)
    raise ConfigError(f"unknown battery spec {spec!r}")


# ---------------------------------------------------------------------------
# ratio table

@dataclass
class RatioRow:
    case_id: str
    params: dict
    lhs: float
    rhs: float
    ratio: float
    flag: str = ""


@dataclass
class RatioTable:
    experiment: str
    rows: list = field(default_factory=list)
    refinement_factor: float | None = None

    def add(self, case_id: str, params: dict, lhs: float, rhs: float,
            flag: str = "") -> None:
        if lhs == 0.0 and rhs == 0.0:
            ratio, flag = 0.0, flag or "0/0"
        elif rhs == 0.0:
            ratio, flag = math.inf, flag or "zero-denominator"
        else:
            ratio = lhs / rhs
        self.rows.append(RatioRow(case_id, params, lhs, rhs, ratio, flag))

    def add_failure(self, case_id: str, params: dict, message: str) -> None:
        self.rows.append(RatioRow(case_id, params, math.nan, math.nan,
                                  math.nan, flag=f"failure:{message}"))

    @property
    def param_keys(self) -> list:
        keys = set()
        for row in self.rows:
            keys.update(row.params)
        return sorted(keys)

    def finite_ratios(self) -> list:
        return [r.ratio for r in self.rows if math.isfinite(r.ratio)]

    def n_failures(self) -> int:
        return sum(1 for r in self.rows
                   if r.flag.startswith(("failure", "zero-denominator")))

    def write_csv(self, path) -> None:
        keys = self.param_keys
        rows = sorted(self.rows, key=lambda r: r.case_id)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["case_id", *keys, "lhs", "rhs", "ratio", "flag"]) + "\n")
            for r in rows:
                cells = [r.case_id]
                for k in keys:
                    v = r.params.get(k, "")
                    cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
                cells += [f"{r.lhs:.17g}", f"{r.rhs:.17g}", f"{r.ratio:.17g}", r.flag]
                fh.write(",".join(cells) + "\n")

    def summary(self) -> dict:
        finite = self.finite_ratios()
        return {
            "experiment": self.experiment,
            "max_ratio": max(finite) if finite else None,
            "min_ratio": min(finite) if finite else None,
            "n_cases": len(self.rows),
            "n_failures": self.n_failures(),
            "refinement_factor": self.refinement_factor,
        }

    def write_json(self, path, timestamp: bool = True) -> None:
        payload = dict(self.summary())
        if timestamp:
            payload["generated_at"] = datetime.datetime.now(
                datetime.timezone.utc).isoformat()
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# experiments

def _strong_exponent(p: float) -> float:
    return max(1.0, 1.0 / (p - 1.0))


def _admissible_power_params(params, p: float):
    return [a for a in params if -1.0 < a < p - 1.0]


def _run_e1(cfg: ExperimentConfig) -> RatioTable:
    table = RatioTable("E1")
    d = cfg.domain()
    scales = cfg.scales(d)
    kernel = cfg.kernel_spec()
    lattices = default_lattices(d)
    funcs = battery_generate(cfg.function_battery, cfg.seed, d, cfg.function_count)
    profiles = {fid: variation_operator(f, kernel, scales, cfg.rho).grid_function()
                for fid, f in funcs}
    for p in cfg.p_list:
        for a in _admissible_power_params(cfg.weight_params, p):
            w = power_weight(a, d)
            apc = ap_constant(w, p, lattices)
            for fid, f in funcs:
                lhs = lp_norm(profiles[fid], p, w)
                rhs = apc ** _strong_exponent(p) * lp_norm(f, p, w)
                table.add(f"{fid}|p={p}|a={a:+g}",
                          {"p": p, "power": a, "ap": apc}, lhs, rhs)
    return table


def _run_e2(cfg: ExperimentConfig) -> RatioTable:
    table = RatioTable("E2")
    d = cfg.domain()
    scales = cfg.scales(d)
    kernel = cfg.kernel_spec()
    lattices = default_lattices(d)
    funcs = battery_generate(cfg.function_battery, cfg.seed, d, cfg.function_count)
    a1_params = [a for a in cfg.weight_params if -1.0 < a <= 0.0]
    profiles = {fid: variation_operator(f, kernel, scales, cfg.rho).grid_function()
                for fid, f in funcs}
    for a in a1_params:
        w = power_weight(a, d)
        a1c = a1_constant(w, lattices)
        ainfc = ainf_constant(w, lattices)
        factor = a1c * math.log(math.e + ainfc)
        for fid, f in funcs:
            lhs = weak_l1_norm(profiles[fid], w)
            rhs = factor * lp_norm(f, 1.0, w)
            table.add(f"{fid}|a={a:+g}",
                      {"power": a, "a1": a1c, "ainf": ainfc}, lhs, rhs)
    return table


def _run_e3(cfg: ExperimentConfig) -> RatioTable:
    table = RatioTable("E3")
    d = cfg.domain()
    scales = cfg.scales(d)
    kernel = cfg.kernel_spec()
    radii = [2.0 ** e for e in (-4, -3, -2, -1, 0, 1, 2)]
    ps = [p for p in cfg.p_list if 0.5 < p <= 1.0] or [0.7, 1.0]
    weights = [("lebesgue", Weight.constant(d)),
               ("pow+0.3", power_weight(0.3, d))]
    rng = np.random.default_rng(cfg.seed)
    for i, r in enumerate(radii):
        center = float((-1.0 + 2.0 * rng.random()) * min(1.0, 8.0 - r))
        ball = Ball(center, r)
        for p in ps:
            for wid, w in weights:
                case = f"atom|r=2^{math.log2(r):+.0f}|p={p}|{wid}"
                try:
                    atom = make_atom(p, 2.0, 0, w, ball, seed=cfg.seed + i)
                except Exception as exc:  # noqa: BLE001 - failure rows by contract
                    table.add_failure(case, {"radius": r, "p": p}, str(exc))
                    continue
                prof = variation_operator(atom.values, kernel, scales,
                                          cfg.rho).grid_function()
                lhs = lp_norm(prof, p, w)
                table.add(case, {"radius": r, "p": p}, lhs, 1.0)
    return table


def _run_e4(cfg: ExperimentConfig) -> RatioTable:
    table = RatioTable("E4")
    d = cfg.domain()
    scales = cfg.scales(d)
    kernel = cfg.kernel_spec()
    lattices = default_lattices(d)
    funcs = battery_generate(cfg.function_battery, cfg.seed, d, cfg.function_count)
    for fid, f in funcs:
        if not np.any(f.values):
            table.add(fid, {}, 0.0, 1.0)
            continue
        try:
            rep = domination_check(f, kernel, scales, cfg.rho, lattices=lattices)
        except Exception as exc:  # noqa: BLE001
            table.add_failure(fid, {}, str(exc))
            continue
        flag = "" if rep.n_failures == 0 else f"denominator-zero:{rep.n_failures}"
        table.add(fid, {"n_cubes": float(sum(rep.family_sizes))},
                  rep.max_ratio, 1.0, flag=flag)
    return table


def _run_e5(cfg: ExperimentConfig) -> RatioTable:
    table = RatioTable("E5")
    d = cfg.domain()
    scales = cfg.scales(d)
    kernel = cfg.kernel_spec()
    lattices = default_lattices(d)
    ranges = cube_domain_ranges(lattices)
    rng = np.random.default_rng(cfg.seed)
    bs = _oscillatory_battery(d, 3, rng) + [("b=x", GridFunction(d, d.x()))]
    funcs = battery_generate(cfg.function_battery, cfg.seed + 1, d,
                             max(cfg.function_count // 3, 2))
    pairs = [(-0.3, 0.3), (0.0, 0.3), (-0.3, 0.0)]
    # the profile depends on (b, f) only, not on p or the weights
    profiles = {(bid, fid): commutator_variation(f, b, kernel, scales,
                                                 cfg.rho).grid_function()
                for bid, b in bs for fid, f in funcs}
    for p in cfg.p_list:
        for amu, alam in pairs:
            if not (-1.0 < amu < p - 1.0 and -1.0 < alam < p - 1.0):
                continue
            mu, lam = power_weight(amu, d), power_weight(alam, d)
            nu = bloom_weight(mu, lam, p)
            factor = (ap_constant(mu, p, lattices)
                      * ap_constant(lam, p, lattices)) ** _strong_exponent(p)
            for bid, b in bs:
                bnorm = bmo_nu_norm(b, nu, ranges)
                for fid, f in funcs:
                    case = f"{bid}|{fid}|p={p}|mu={amu:+g}|lam={alam:+g}"
                    lhs = lp_norm(profiles[bid, fid], p, lam)
                    rhs = factor * bnorm * lp_norm(f, p, mu)
                    table.add(case, {"p": p, "mu_pow": amu, "lam_pow": alam},
                              lhs, rhs)
    return table


def _witness_geometry(cells: int, delta_param: float = 2.5,
                      tau: float = 0.125) -> tuple[int, int]:
    """A cube near the right of the domain whose companion stays inside."""
    kq = max(16, cells // 8)
    kq -= kq % 16  # tau |Q| must be an even cell count for tau = 1/8
    shift = int(round(10.0 * kq / delta_param))
    qs = shift + cells // 16
    return qs, qs + kq


def _run_e6(cfg: ExperimentConfig) -> RatioTable:
    table = RatioTable("E6")
    d = cfg.domain()
    tau = 0.125
    delta_param = 2.5
    rng = np.random.default_rng(cfg.seed)
    bs = (_oscillatory_battery(d, 6, rng)
          + [("b=x", GridFunction(d, d.x())),
             ("b=saw", GridFunction(d, np.abs((d.x() * 0.5) % 2.0 - 1.0)))])
    qs, qe = _witness_geometry(d.cells, delta_param, tau)
    for p in cfg.p_list:
        for amu, alam in [(-0.3, 0.3), (0.3, -0.3), (0.0, 0.0)]:
            if not (-1.0 < amu < p - 1.0 and -1.0 < alam < p - 1.0):
                continue
            mu, lam = power_weight(amu, d), power_weight(alam, d)
            pprime = p / (p - 1.0)
            qvals_mu = mu.values[qs:qe]
            qvals_lam = lam.values[qs:qe]
            rhs = (float(qvals_mu.mean()) ** (1.0 / p)
                   * float((qvals_lam ** (-pprime / p)).mean()) ** (1.0 / pprime))
            for bid, b in bs:
                case = f"{bid}|p={p}|mu={amu:+g}|lam={alam:+g}"
                try:
                    wit = oscillation_witness(b, (qs, qe), tau, delta_param,
                                              mu=mu, p=p)
                except (WitnessPlacementError, ValueError) as exc:
                    table.add_failure(case, {"p": p}, str(exc))
                    continue
                flag = "degenerate" if wit.degenerate else ""
                table.add(case, {"p": p, "mu_pow": amu, "lam_pow": alam},
                          wit.a_tau, rhs, flag=flag)
    return table


def _run_e7(cfg: ExperimentConfig) -> RatioTable:
    table = RatioTable("E7")
    d = cfg.domain()
    scales = cfg.scales(d)
    kernel = cfg.kernel_spec()
    rng = np.random.default_rng(cfg.seed)
    bs = _oscillatory_battery(d, 4, rng)
    balls = [Ball(0.0, 1.0), Ball(-2.0, 0.5), Ball(1.0, 2.0)]
    norm_balls = [Ball(c, r) for c in (-4.0, -2.0, 0.0, 2.0, 4.0)
                  for r in (0.25, 0.5, 1.0, 2.0)]
    a1_params = [a for a in cfg.weight_params if -1.0 < a <= 0.0] or [0.0]
    for a in a1_params:
        w = power_weight(a, d)
        for bid, b in bs:
            rhs = cal_bmo_omega_norm(b, w, norm_balls).norm
            for ball in balls:
                atoms = []
                sa = sgn_atom(b, ball, w)
                if not sa.degenerate:
                    atoms.append(("sgn", sa.values))
                try:
                    ra = make_atom(1.0, 2.0, 0, w, ball, seed=cfg.seed)
                    atoms.append(("rand", ra.values))
                except Exception as exc:  # noqa: BLE001
                    table.add_failure(f"{bid}|rand|{ball.center}|a={a:+g}",
                                      {"power": a}, str(exc))
                for kind, avals in atoms:
                    case = f"{bid}|{kind}|c={ball.center:g}|r={ball.radius:g}|a={a:+g}"
                    prof = commutator_variation(avals, b, kernel, scales,
                                                cfg.rho).grid_function()
                    lhs = lp_norm(prof, 1.0, w)
                    table.add(case, {"power": a, "center": ball.center,
                                     "radius": ball.radius}, lhs, rhs)
    return table


def _run_e8(cfg: ExperimentConfig) -> RatioTable:
    table = RatioTable("E8")
    d = cfg.domain()
    scales = cfg.scales(d)
    kernel = cfg.kernel_spec()
    rng = np.random.default_rng(cfg.seed)
    count = max(cfg.function_count, 50)
    for i in range(count):
        xi = float(-2.0 + 4.0 * rng.random())
        dz = float(0.01 + 0.2 * rng.random())
        z = xi - dz
        side = 1.0 if rng.random() < 0.5 else -1.0
        y = xi + side * (4.0 * dz + 4.0 * rng.random())
        lhs = kernel_difference_variation(kernel, xi, z, y, scales, cfg.rho)
        rhs = abs(z - xi) / (xi - y) ** 2
        table.add(f"triple{i:03d}", {"xi": xi, "z": z, "y": y}, lhs, rhs)
    return table


_RUNNERS = {"E1": _run_e1, "E2": _run_e2, "E3": _run_e3, "E4": _run_e4,
            "E5": _run_e5, "E6": _run_e6, "E7": _run_e7, "E8": _run_e8}


def run_experiment(cfg: ExperimentConfig) -> RatioTable:
    """Run one experiment; with cfg.refine > 0 also run doubled grids and
    record the worst consecutive max-ratio drift as the refinement factor."""
    cfg.validate()
    table = _RUNNERS[cfg.experiment](cfg)
    if cfg.refine > 0:
        maxima = [table.summary()["max_ratio"]]
        for k in range(1, cfg.refine + 1):
            finer = replace(cfg, cells=cfg.cells * 2 ** k, refine=0)
            maxima.append(_RUNNERS[cfg.experiment](finer).summary()["max_ratio"])
        factors = []
        for a, b in zip(maxima, maxima[1:]):
            if a and b:
                factors.append(max(a / b, b / a))
        table.refinement_factor = max(factors) if factors else None
    return table
