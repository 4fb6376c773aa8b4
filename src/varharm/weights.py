"""Muckenhoupt weight classes and their constants on the grid.

All suprema over cubes are realized over the three shifted dyadic lattices,
with cubes clipped to the computational domain; an exhaustive all-intervals
mode is available as a slow oracle for small grids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import Domain1D, GridFunction
from .lattice import cube_domain_ranges, default_lattices, hl_maximal


@dataclass
class Weight:
    """Strictly positive grid function, optionally tagged with its analytic form."""

    base: GridFunction
    tag: str | None = None

    def __post_init__(self):
        if np.any(self.base.values <= 0):
            raise ValueError("weight values must be strictly positive")

    @property
    def domain(self) -> Domain1D:
        return self.base.domain

    @property
    def values(self) -> np.ndarray:
        return self.base.values

    def measure(self, start: int, stop: int) -> float:
        """w([start, stop)) = h * sum of samples over the cell range."""
        return float(self.values[start:stop].sum() * self.domain.h)

    @classmethod
    def constant(cls, domain: Domain1D, c: float = 1.0) -> "Weight":
        return cls(GridFunction(domain, np.full(domain.cells, float(c))),
                   tag=f"const:{c}")


@dataclass
class WeightConstants:
    ap: dict  # p -> [w]_{A_p}
    a1: float
    ainf: float
    lattice_shifts: list

    def to_json(self) -> str:
        return json.dumps({
            "ap": {str(p): v for p, v in sorted(self.ap.items())},
            "a1": self.a1,
            "ainf": self.ainf,
            "lattice_shifts": self.lattice_shifts,
        }, indent=2)


def _interval_ranges(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n + 1)]


def _ranges(w: Weight, lattices, exhaustive: bool) -> list[tuple[int, int]]:
    if exhaustive:
        if w.domain.cells > 512:
            raise ValueError("exhaustive interval mode limited to N <= 512")
        return _interval_ranges(w.domain.cells)
    if lattices is None:
        lattices = default_lattices(w.domain)
    return cube_domain_ranges(lattices)


def ap_constant(w: Weight, p: float, lattices=None, exhaustive: bool = False) -> float:
    """[w]_{A_p} = sup_Q <w>_Q <w^{1-p'}>_Q^{p-1} over the lattice cube set."""
    if p <= 1:
        raise ValueError("A_p constant requires p > 1")
    pprime = p / (p - 1.0)
    vals = w.values
    with np.errstate(over="ignore"):
        dual = vals ** (1.0 - pprime)
    if np.any(np.isinf(dual)):
        # the dual density overflows double precision; the constant is
        # beyond any threshold of interest
        return math.inf
    cw = np.concatenate([[0.0], np.cumsum(vals)])
    with np.errstate(over="ignore"):
        cd = np.concatenate([[0.0], np.cumsum(dual)])
    if not np.all(np.isfinite(cd)):
        return math.inf
    best = 0.0
    for s, e in _ranges(w, lattices, exhaustive):
        k = e - s
        avg_w = (cw[e] - cw[s]) / k
        avg_d = (cd[e] - cd[s]) / k
        best = max(best, avg_w * avg_d ** (p - 1.0))
    return best


def a1_constant(w: Weight, lattices=None, exhaustive: bool = False) -> float:
    """[w]_{A_1} = sup of M w / w over the grid."""
    m = hl_maximal(w.base, lattices=lattices, exhaustive=exhaustive)
    return float((m.values / w.values).max())


def ainf_constant(w: Weight, lattices=None, max_level: int | None = None) -> float:
    """Fujii-Wilson constant sup_Q (1/w(Q)) int_Q M(chi_Q w) over lattice cubes.

    The supremum runs over cubes of level at most max_level (default: every
    level). M is the lattice maximal function of hl_maximal, evaluated on
    the cells of Q only, for all cubes of one (lattice, level) at once.
    """
    if lattices is None:
        lattices = default_lattices(w.domain)
    if max_level is None:
        max_level = lattices[0].depth
    vals = w.values
    idx = np.arange(w.domain.cells)

    def runs(lat, level):
        """True where a cell starts a new cube of (lat, level)."""
        cube = (idx - lat.offset_cells) // lat.width_cells(level)
        return np.diff(cube, prepend=cube[0] - 1) != 0

    parts = [(runs(lat, level), lat.width_cells(level))
             for lat in lattices for level in range(lat.depth + 1)]
    best = 0.0
    for lat in lattices:
        for level in range(min(max_level, lat.depth) + 1):
            new_q = runs(lat, level)
            m = np.zeros(len(vals))
            for new_p, width in parts:
                # one bin per nonempty Q cap P; bincount adds in cell order,
                # as hl_maximal does for chi_Q w
                key = np.cumsum(new_q | new_p) - 1
                sums = np.bincount(key, weights=vals)
                np.maximum(m, sums[key] / width, out=m)
            bounds = np.append(np.flatnonzero(new_q), len(vals)).tolist()
            for s, e in zip(bounds[:-1], bounds[1:]):
                best = max(best, m[s:e].sum() / vals[s:e].sum())
    return best


def compute_constants(w: Weight, ps=(1.5, 2.0, 4.0), lattices=None) -> WeightConstants:
    if lattices is None:
        lattices = default_lattices(w.domain)
    return WeightConstants(
        ap={p: ap_constant(w, p, lattices) for p in ps},
        a1=a1_constant(w, lattices),
        ainf=ainf_constant(w, lattices),
        lattice_shifts=[lat.shift for lat in lattices],
    )


def bloom_weight(mu: Weight, lam: Weight, p: float) -> Weight:
    """Bloom weight nu = (mu / lambda)^{1/p}."""
    if p <= 1:
        raise ValueError("Bloom weight requires p > 1")
    if mu.domain != lam.domain:
        raise ValueError("weights must share a domain")
    vals = (mu.values / lam.values) ** (1.0 / p)
    return Weight(GridFunction(mu.domain, vals), tag=f"bloom:p={p}")


def power_weight(a: float, domain: Domain1D, floor: float | None = None) -> Weight:
    """w(x) = max(|x|, floor)^a; the floor keeps grid samples finite at 0."""
    if floor is None:
        floor = 2.0 * domain.h
    if floor <= 0:
        raise ValueError("floor must be positive")
    vals = np.maximum(np.abs(domain.x()), floor) ** a
    return Weight(GridFunction(domain, vals), tag=f"power:{a}")


def critical_index_estimate(w: Weight, lattices=None, blow_up: float = 1e6,
                            p_hi: float = 64.0, iters: int = 40) -> float:
    """Bisection estimate of inf{p : [w]_{A_p} stays below a blow-up threshold}.

    The critical index is not exactly computable from grid data; this only
    brackets where the discrete constant explodes.
    """
    if lattices is None:
        lattices = default_lattices(w.domain)

    def bounded(p):
        return ap_constant(w, p, lattices) <= blow_up

    if bounded(1.0 + 1e-9):
        return 1.0
    lo, hi = 1.0, p_hi
    if not bounded(hi):
        return math.inf
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if bounded(mid):
            hi = mid
        else:
            lo = mid
    return hi


def truncated_tail_integral(w: Weight) -> float:
    """int_domain w(x) / (1 + |x|) dx; grows with the domain if the global
    integrability condition fails."""
    x = w.domain.x()
    return float((w.values / (1.0 + np.abs(x))).sum() * w.domain.h)
