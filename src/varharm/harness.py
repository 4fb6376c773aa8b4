"""Batch experiment runner: every inequality becomes a seeded ratio sweep.

The table `EXPERIMENTS` pairs each experiment's case list for a config with
its runner. `ExperimentConfig.validate` refuses a config whose case list
raises ConfigError or is empty, so every refusal comes before any work. A
runner walks its cases over a battery of test functions / weights, records
(lhs, rhs, ratio) rows, and emits a CSV table plus a JSON summary. Runs
are deterministic under a fixed seed; only the JSON header carries a
timestamp. One `RunContext` per run holds what the cases share; each case
runs inside `RatioTable.case`, which turns any exception it raises into a
`failure:` row with that case's id and parameters.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .atoms import make_atom, sgn_atom
from .grid import (KERNEL_KINDS, Domain1D, GridFunction, KernelSpec, ScaleFamily,
                   convolve_family, lp_norm, weak_l1_norm)
from .lattice import cube_domain_ranges, default_lattices
from .oscillation import (Ball, bmo_nu_norm, cal_bmo_omega_norm, cube_measures,
                          cube_oscillations, oscillation_witness)
from .sparse import domination_check
from .variation import commutator_variation, kernel_difference_variation, variation_operator
from .weights import Weight, a1_constant, ainf_constant, ap_constant, bloom_weight, power_weight

_RHO_MAX = 64.0  # above it |difference|^rho underflows: E7 writes lhs = 0 at rho = 128
_MAX_FINEST_CELLS = 65536  # the finest grid, cells * 2**refine, a run may allocate
_MAX_ENTRIES = 1 << 22  # floats (32 MB) in one battery or scale stack on the finest grid
_UNSET = object()  # no value stored yet, in RunContext.once
# E3's radii; E7's balls and the balls of its rhs norm, as (offset of the
# centre from the domain's midpoint, radius)
_E3_RADII = tuple(2.0 ** e for e in range(-4, 3))
_E7_BALLS = ((0.0, 1.0), (-2.0, 0.5), (1.0, 2.0))
_E7_NORM_BALLS = tuple((c, r) for c in (-4.0, -2.0, 0.0, 2.0, 4.0) for r in (0.25, 0.5, 1.0, 2.0))
_E7_REACH = max(abs(c) + r for c, r in _E7_BALLS + _E7_NORM_BALLS)  # 6


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


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
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
            if f.type == "tuple" and not all(math.isfinite(v) for v in value):
                raise ConfigError(f"{f.name} entries must be finite")
        if not self.left < self.right:
            raise ConfigError("domain requires left < right")
        if self.cells < 16 or (3 * self.cells) % 2 != 0:
            raise ConfigError("cells must be >= 16 with 3N even for the lattices")
        if self.refine < 0:
            raise ConfigError("refine must be nonnegative")
        # cells * 2**refine > cap, without building 2**refine for a huge refine
        if self.cells > _MAX_FINEST_CELLS >> self.refine:
            raise ConfigError(f"cells * 2**refine must not exceed {_MAX_FINEST_CELLS}")
        if self.kernel not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if not 2 < self.rho <= _RHO_MAX:
            raise ConfigError(f"experiments require 2 < rho <= {_RHO_MAX:g}")
        if not 0 < self.scale_ratio < 1:
            raise ConfigError("scale_ratio must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.function_battery not in _FUNCTION_BATTERIES:
            raise ConfigError(f"unknown function battery {self.function_battery!r}")
        if self.function_count < 1:
            raise ConfigError("function_count must be positive")
        # checked before self.scales(), which lists all scale_count scales, then clips
        limit = _MAX_ENTRIES // (self.cells << self.refine)
        if max(self.function_count, self.scale_count) > limit:
            raise ConfigError(f"function_count and scale_count must not exceed {limit} on this grid")
        try:
            self.scales()
        except ValueError as exc:
            raise ConfigError(f"no usable scale family at t >= 2h: {exc}") from None
        if not EXPERIMENTS[self.experiment][0](self):  # the case list
            raise ConfigError(f"the config leaves {self.experiment} no case to run")

    def domain(self) -> Domain1D:
        return Domain1D(self.left, self.right, self.cells)

    def scales(self) -> ScaleFamily:
        return ScaleFamily.for_domain(self.domain(), t_max=self.t_max,
                                      ratio=self.scale_ratio, count=self.scale_count)


def _float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


# value parser per field annotation of ExperimentConfig (a string, see __future__)
_PARSERS = {"str": str, "int": int, "float": float, "tuple": _float_list}


def parse_config(text: str) -> ExperimentConfig:
    """Flat key = value lines, '#' comments, comma-separated lists."""
    parsers = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}
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
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            kwargs[key] = parsers[key](val)
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


_FUNCTION_BATTERIES = {
    "indicators": _indicator_battery,
    "random-bumps": _bump_battery,
    "oscillatory": _oscillatory_battery,
    "mixed": _mixed_battery,
}


def _uniform_stream(seed: int):
    """The uniforms of np.random.default_rng(seed).random(), from the in-repo
    copy of its PCG64 stream, so that no run loads numpy.random."""
    from .pcg64 import Uniforms  # on first use, not when varharm.cli is imported
    return Uniforms(seed)


def battery_generate(spec: str, seed: int, domain: Domain1D, count: int = 12) -> list:
    """Seeded battery of test functions, keyed by spec name."""
    if spec not in _FUNCTION_BATTERIES:
        raise ConfigError(f"unknown battery spec {spec!r}")
    return _FUNCTION_BATTERIES[spec](domain, count, _uniform_stream(seed))


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
            if rhs == math.inf:  # an overflowed bound, not a clean ratio 0
                flag = flag or "infinite-rhs"
        self.rows.append(RatioRow(case_id, params, lhs, rhs, ratio, flag))

    def add_failure(self, case_id: str, params: dict, message: str) -> None:
        self.rows.append(RatioRow(case_id, params, math.nan, math.nan,
                                  math.nan, flag=f"failure:{message}"))

    @contextlib.contextmanager
    def case(self, case_id: str, params: dict):
        """Guard one case: the block ends by recording its row with the yielded
        `add(lhs, rhs, flag="", **more_params)`; an exception records a failure."""
        def add(lhs: float, rhs: float, flag: str = "", **more) -> None:
            self.add(case_id, {**params, **more}, lhs, rhs, flag)
        try:
            yield add
        except Exception as exc:  # noqa: BLE001 - failure rows by contract
            self.add_failure(case_id, params, str(exc))

    @property
    def param_keys(self) -> list:
        return sorted({k for row in self.rows for k in row.params})

    def finite_ratios(self) -> list:
        return [r.ratio for r in self.rows if math.isfinite(r.ratio)]

    def n_failures(self) -> int:
        return sum(1 for r in self.rows if r.flag.startswith(
            ("failure", "zero-denominator", "denominator-zero")))

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
                flag = r.flag
                if any(c in flag for c in ',"\r\n'):  # RFC 4180 quoting
                    flag = '"' + flag.replace('"', '""') + '"'
                cells += [f"{r.lhs:.17g}", f"{r.rhs:.17g}", f"{r.ratio:.17g}", flag]
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

    def write_json(self, path) -> None:
        # strict JSON: a refinement factor that overflowed is written as null
        payload = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                   for k, v in self.summary().items()}
        payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")


# ---------------------------------------------------------------------------
# run context

class RunContext:
    """What the cases of one run share: the domain, scales and kernel, plus the
    function battery and the `once` values, built on first use and keyed by
    the call that builds them, so equal inputs share one value."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.domain = cfg.domain()
        self.scales = cfg.scales()
        self.kernel = KernelSpec(cfg.kernel)
        self._memo = {}
        self._conv = (None, None)  # (f.key, phi_t * f) of the last commutator's f

    def once(self, fn, *args):
        """fn(*args) on the first call, the stored value after, keyed by fn and
        each argument, a GridFunction by its `key`. A call that raises stores
        nothing: each case that needs it retries it and records its own failure."""
        key = (fn, *[a.key if isinstance(a, GridFunction) else a for a in args])
        value = self._memo.get(key, _UNSET)  # a hit hashes the key once
        if value is _UNSET:
            value = self._memo[key] = fn(*args)
        return value

    @cached_property
    def funcs(self) -> list:
        return battery_generate(self.cfg.function_battery, self.cfg.seed,
                                self.domain, self.cfg.function_count)

    def weight(self, a: float) -> Weight:
        return self.once(power_weight, a, self.domain)

    def variation(self, f) -> GridFunction:
        return self.once(variation_operator, f, self.kernel, self.scales, self.cfg.rho)

    def commutator(self, f, b) -> GridFunction:
        return self.once(self._commutator, f, b, self.kernel, self.scales, self.cfg.rho)

    def _commutator(self, f, b, kernel, scales, rho) -> GridFunction:
        # the b's of one f come in a row and share phi_t * f; the old family is
        # freed only once its successor is built, so its pages are reused
        if self._conv[0] != f.key:
            self._conv = (f.key, convolve_family(f, kernel, scales))
        return commutator_variation(f, b, kernel, scales, rho, self._conv[1])

    def bmo(self, b, nu) -> float:
        """bmo_nu_norm(b, nu) over the lattice ranges, from one oscillation
        array per b and one measure array per nu."""
        return self.once(self._bmo, b, nu)

    def _bmo(self, b, nu) -> float:
        return bmo_nu_norm(b, nu, self._ranges, self.once(self._swept, cube_oscillations, b),
                           self.once(self._swept, cube_measures, nu))

    def _swept(self, per_range, g) -> np.ndarray:
        return per_range(g, self._ranges)

    @cached_property
    def _ranges(self) -> np.ndarray:
        return cube_domain_ranges(default_lattices(self.domain))


# ---------------------------------------------------------------------------
# experiments

def _strong_exponent(p: float) -> float:
    return max(1.0, 1.0 / (p - 1.0))


def _scaled(factor: float, prof: GridFunction) -> GridFunction:
    """factor * prof: for factor > 0, the profile of factor * f when prof is f's.

    Both profile operators are positively homogeneous. The family scales,
    phi_t * (c f) = c (phi_t * f) and C_b(c f) = c C_b f; _zero_noise's floor
    is relative to max|family|, so it commutes with the scaling; and the DP
    gives V_rho(c a) = c V_rho(a). Only the rounding differs from the profile
    of factor * f itself, in the last bits.
    """
    return GridFunction(prof.domain, factor * prof.values)


def _admissible(cfg: ExperimentConfig, powers) -> list:
    """(p, *pw) for p in cfg.p_list, all > 1 (strong type), and pw in powers
    with each |x|^a in A_p."""
    if any(p <= 1 for p in cfg.p_list):
        raise ConfigError("p_list entries must exceed 1 for this experiment")
    return [(p, *pw) for p in cfg.p_list for pw in powers if all(-1.0 < a < p - 1.0 for a in pw)]


def _a1_powers(cfg: ExperimentConfig) -> list:  # |x|^a in A_1
    return [a for a in cfg.weight_params if -1.0 < a <= 0.0]


def _run_e1(ctx: RunContext, table: RatioTable, pairs: list) -> None:
    for p, a in pairs:
        for fid, f in ctx.funcs:
            with table.case(f"{fid}|p={p}|a={a:+g}", {"p": p, "power": a}) as add:
                w = ctx.weight(a)
                apc = ctx.once(ap_constant, w, p)
                lhs = lp_norm(ctx.variation(f), p, w)
                rhs = apc ** _strong_exponent(p) * lp_norm(f, p, w)
                add(lhs, rhs, ap=apc)


def _run_e2(ctx: RunContext, table: RatioTable, powers: list) -> None:
    for a in powers:
        for fid, f in ctx.funcs:
            with table.case(f"{fid}|a={a:+g}", {"power": a}) as add:
                w = ctx.weight(a)
                a1c = ctx.once(a1_constant, w)
                ainfc = ctx.once(ainf_constant, w)
                lhs = weak_l1_norm(ctx.variation(f), w)
                rhs = a1c * math.log(math.e + ainfc) * lp_norm(f, 1.0, w)
                add(lhs, rhs, a1=a1c, ainf=ainfc)


def _e3_radii(cfg: ExperimentConfig) -> list:
    """(i, r) for the radii r = _E3_RADII[i] with r <= R, the domain's half-width,
    and 2r/h >= s + 3 = 3: Ball.cell_range rounds each end of a ball by at most
    half a cell, ties included, so make_atom keeps its s + 2 cells at any centre."""
    d = cfg.domain()
    return [(i, r) for i, r in enumerate(_E3_RADII)
            if r <= 0.5 * d.length and 2.0 * r * d.cells >= 3.0 * d.length]


def _run_e3(ctx: RunContext, table: RatioTable, radii: list) -> None:
    cfg, d = ctx.cfg, ctx.domain
    ps = [p for p in cfg.p_list if 0.5 < p <= 1.0] or [0.7, 1.0]
    lebesgue = Weight.constant(d)
    weights = [("lebesgue", lebesgue), ("pow+0.3", power_weight(0.3, d))]
    rng = _uniform_stream(cfg.seed)
    draws = [rng.random() for _ in _E3_RADII]  # kept or not: a kept radius keeps its centre
    for i, r in radii:
        # within 1 of the midpoint, the ball inside the domain
        ball = Ball(d.midpoint + float((-1.0 + 2.0 * draws[i]) * min(1.0, 0.5 * d.length - r)), r)
        for p in ps:
            for wid, w in weights:
                case = f"atom|r=2^{math.log2(r):+.0f}|p={p}|{wid}"
                with table.case(case, {"radius": r, "p": p}) as add:
                    # the shape depends on the radius only: the p's and weights share
                    # it, and each case normalizes it for its own (p, w)
                    atom = ctx.once(make_atom, ps[0], 2.0, 0, lebesgue, ball,
                                    cfg.seed + i).normalized(p, w)
                    prof = ctx.variation(atom.shape)
                    add(lp_norm(_scaled(atom.factor, prof), p, w), 1.0)


def _run_e4(ctx: RunContext, table: RatioTable, indices: range) -> None:
    for fid, f in (ctx.funcs[i] for i in indices):
        with table.case(fid, {}) as add:
            if not np.any(f.values):
                add(0.0, 1.0)
            else:
                rep = domination_check(f, ctx.kernel, ctx.scales, ctx.cfg.rho)
                flag = "" if rep.n_failures == 0 else f"denominator-zero:{rep.n_failures}"
                add(rep.max_ratio, 1.0, flag=flag, n_cubes=float(sum(rep.family_sizes)))


def _run_e5(ctx: RunContext, table: RatioTable, triples: list) -> None:
    cfg, d = ctx.cfg, ctx.domain
    rng = _uniform_stream(cfg.seed)
    bs = _oscillatory_battery(d, 3, rng) + [("b=x", GridFunction(d, d.x()))]
    funcs = battery_generate(cfg.function_battery, cfg.seed + 1, d,
                             max(cfg.function_count // 3, 2))
    for p, amu, alam in triples:
        for fid, f in funcs:
            for bid, b in bs:
                case = f"{bid}|{fid}|p={p}|mu={amu:+g}|lam={alam:+g}"
                with table.case(case, {"p": p, "mu_pow": amu, "lam_pow": alam}) as add:
                    mu, lam = ctx.weight(amu), ctx.weight(alam)
                    ap_mu = ctx.once(ap_constant, mu, p)
                    ap_lam = ctx.once(ap_constant, lam, p)
                    bnorm = ctx.bmo(b, ctx.once(bloom_weight, mu, lam, p))
                    # the profile depends on (f, b) only, not on p or the weights
                    prof = ctx.commutator(f, b)
                    f_norm = ctx.once(lp_norm, f, p, mu)
                    rhs = (ap_mu * ap_lam) ** _strong_exponent(p) * bnorm * f_norm
                    add(lp_norm(prof, p, lam), rhs)


def _witness_geometry(cells: int, delta_param: float = 2.5) -> tuple[int, int]:
    """A cube near the right of the domain whose companion stays inside."""
    kq = max(16, cells // 8)
    kq -= kq % 16  # tau |Q| must be an even cell count for tau = 1/8
    qs = int(round(10.0 * kq / delta_param)) + cells // 16  # P, left of Q, at cell N // 16
    return qs, qs + kq


def _e6_cases(cfg: ExperimentConfig) -> list:  # a witness cube off the grid fails every case
    qs, qe = _witness_geometry(cfg.cells)
    if qe > cfg.cells:
        raise ConfigError(f"E6's witness cube cells [{qs}, {qe}) leave "
                          f"a grid of {cfg.cells} cells")
    return _admissible(cfg, ((-0.3, 0.3), (0.3, -0.3), (0.0, 0.0)))


def _run_e6(ctx: RunContext, table: RatioTable, triples: list) -> None:
    cfg, d = ctx.cfg, ctx.domain
    rng = _uniform_stream(cfg.seed)
    bs = (_oscillatory_battery(d, 6, rng)
          + [("b=x", GridFunction(d, d.x())),
             ("b=saw", GridFunction(d, np.abs((d.x() * 0.5) % 2.0 - 1.0)))])
    qs, qe = _witness_geometry(d.cells)
    for p, amu, alam in triples:
        for bid, b in bs:
            case = f"{bid}|p={p}|mu={amu:+g}|lam={alam:+g}"
            with table.case(case, {"p": p, "mu_pow": amu, "lam_pow": alam}) as add:
                mu, lam = ctx.weight(amu), ctx.weight(alam)
                wit = oscillation_witness(b, (qs, qe), 0.125, 2.5, mu=mu, p=p)  # tau, delta
                pprime = p / (p - 1.0)
                rhs = (float(mu.values[qs:qe].mean()) ** (1.0 / p)
                       * float((lam.values[qs:qe] ** (-pprime / p)).mean())
                       ** (1.0 / pprime))
                add(wit.a_tau, rhs, flag="degenerate" if wit.degenerate else "")


def _e7_powers(cfg: ExperimentConfig) -> list:
    """E7's weight powers, if each ball lies in the domain, each norm ball has a cell
    by Ball.cell_range and each atom ball the 2 cells make_atom needs at s = 0."""
    if cfg.right - cfg.left < 2.0 * _E7_REACH:
        raise ConfigError(f"E7 needs right - left >= {2.0 * _E7_REACH:g} to hold its balls")
    d = cfg.domain()
    for (c, r), need in [(b, 2) for b in _E7_BALLS] + [(b, 1) for b in _E7_NORM_BALLS]:
        ball = Ball(d.midpoint + c, r)
        try:
            s, e = ball.cell_range(d)
        except ValueError:
            s = e = 0
        if e - s < need:
            raise ConfigError(f"E7's ball of centre {ball.center:g} and radius {r:g} "
                              f"needs {need} cell(s) and has {e - s} on this grid")
    return _a1_powers(cfg) or [0.0]


def _run_e7(ctx: RunContext, table: RatioTable, powers: list) -> None:
    cfg, d = ctx.cfg, ctx.domain
    rng = _uniform_stream(cfg.seed)
    bs = _oscillatory_battery(d, 4, rng)
    lebesgue = Weight.constant(d)
    balls = [Ball(d.midpoint + c, r) for c, r in _E7_BALLS]
    norm_balls = tuple(Ball(d.midpoint + c, r) for c, r in _E7_NORM_BALLS)
    for a in powers:
        for ball in balls:
            params = {"power": a, "center": ball.center, "radius": ball.radius}
            # the sign shape depends on (b, ball), the random one on the ball only, so
            # it is built once per ball and normalized for each weight, as in E3:
            # the weights share their profiles, and the b's the random phi_t * shape.
            # Either order gives the same rows and convolutions; E7's peak RSS
            # with sign atoms first was within 0.05 MB at N = 768 and 3072
            # (BENCH_normals.json), so the random atoms stay first.
            for kind in ("rand", "sgn"):
                for bid, b in bs:
                    case = f"{bid}|{kind}|c={ball.center:g}|r={ball.radius:g}|a={a:+g}"
                    with table.case(case, params) as add:
                        w = ctx.weight(a)
                        rhs = ctx.once(cal_bmo_omega_norm, b, w, norm_balls).norm
                        if kind == "sgn":
                            atom = sgn_atom(b, ball, w)
                            if atom.degenerate:
                                continue
                        else:
                            atom = ctx.once(make_atom, 1.0, 2.0, 0, lebesgue, ball,
                                            cfg.seed).normalized(1.0, w)
                        prof = ctx.commutator(atom.shape, b)
                        add(lp_norm(_scaled(atom.factor, prof), 1.0, w), rhs)


def _run_e8(ctx: RunContext, table: RatioTable, indices: range) -> None:
    rng = _uniform_stream(ctx.cfg.seed)
    for i in indices:
        xi = float(-2.0 + 4.0 * rng.random())
        dz = float(0.01 + 0.2 * rng.random())
        z = xi - dz
        side = 1.0 if rng.random() < 0.5 else -1.0
        y = xi + side * (4.0 * dz + 4.0 * rng.random())
        with table.case(f"triple{i:03d}", {"xi": xi, "z": z, "y": y}) as add:
            lhs = kernel_difference_variation(ctx.kernel, xi, z, y, ctx.scales, ctx.cfg.rho)
            add(lhs, abs(z - xi) / (xi - y) ** 2)


EXPERIMENTS = {
    "E1": (lambda cfg: _admissible(cfg, [(a,) for a in cfg.weight_params]), _run_e1),
    "E2": (_a1_powers, _run_e2), "E3": (_e3_radii, _run_e3),
    "E4": (lambda cfg: range(cfg.function_count), _run_e4),  # the battery's functions
    "E5": (lambda cfg: _admissible(cfg, ((-0.3, 0.3), (0.0, 0.3), (-0.3, 0.0))), _run_e5),
    "E6": (_e6_cases, _run_e6), "E7": (_e7_powers, _run_e7),
    "E8": (lambda cfg: range(max(cfg.function_count, 50)), _run_e8),  # the kernel triples
}
EXPERIMENT_IDS = tuple(EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> RatioTable:
    """Run one experiment; with cfg.refine > 0 also run doubled grids and
    record the worst consecutive max-ratio drift as the refinement factor.
    Raises ConfigError when cfg.validate() does."""
    cfg.validate()
    cases, run = EXPERIMENTS[cfg.experiment]
    tables = []
    for k in range(cfg.refine + 1):
        grid = replace(cfg, cells=cfg.cells * 2 ** k)
        tables.append(RatioTable(cfg.experiment))
        run(RunContext(grid), tables[-1], cases(grid))
    maxima = [t.summary()["max_ratio"] for t in tables]
    factors = [max(a / b, b / a) for a, b in zip(maxima, maxima[1:]) if a and b]
    tables[0].refinement_factor = max(factors, default=None)
    return tables[0]
