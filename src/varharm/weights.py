"""Muckenhoupt weight classes and their constants on the grid.

All suprema over cubes are realized over the three shifted dyadic lattices
of the weight's grid, with cubes clipped to the computational domain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import Domain1D, GridFunction
from .lattice import (_lattice_maximal, _level_starts, _runs, _width_groups,
                      cube_domain_ranges, default_lattices, hl_maximal)


@dataclass
class Weight:
    """Strictly positive grid function."""

    base: GridFunction

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
        return cls(GridFunction(domain, np.full(domain.cells, float(c))))


@dataclass
class WeightConstants:
    ap: dict  # p -> [w]_{A_p}
    a1: float
    ainf: float
    lattice_shifts: list

    def to_json(self) -> str:
        """Strict JSON: a constant that is not finite (a weight too close to 0
        overflows it) is written as null and named in "non_finite"."""
        non_finite = []

        def finite(name: str, v: float) -> float | None:
            if math.isfinite(v):
                return v
            non_finite.append(name)
            return None

        return json.dumps({
            "ap": {str(p): finite(f"ap[{p}]", v) for p, v in sorted(self.ap.items())},
            "a1": finite("a1", self.a1),
            "ainf": finite("ainf", self.ainf),
            "non_finite": non_finite,
            "lattice_shifts": self.lattice_shifts,
        }, indent=2, allow_nan=False)


def ap_constant(w: Weight, p: float) -> float:
    """[w]_{A_p} = sup_Q <w>_Q <w^{1-p'}>_Q^{p-1} over the lattice cube set."""
    if p <= 1:
        raise ValueError("A_p constant requires p > 1")
    pprime = p / (p - 1.0)
    vals = w.values
    with np.errstate(over="ignore"):
        cd = np.concatenate([[0.0], np.cumsum(vals ** (1.0 - pprime))])
    if not np.all(np.isfinite(cd)):
        # the dual density or its sums overflow double precision; the
        # constant is beyond any threshold of interest
        return math.inf
    cw = np.concatenate([[0.0], np.cumsum(vals)])
    s, e = cube_domain_ranges(default_lattices(w.domain)).T
    avg_w = (cw[e] - cw[s]) / (e - s)
    avg_d = (cd[e] - cd[s]) / (e - s)
    # Python float powers: numpy's array power can differ from C pow by an ulp
    try:
        return max([0.0] + [a * d ** (p - 1.0)
                            for a, d in zip(avg_w.tolist(), avg_d.tolist())])
    except OverflowError:
        return math.inf


def a1_constant(w: Weight) -> float:
    """[w]_{A_1} = sup of M w / w over the grid."""
    m = hl_maximal(w.base)
    return float((m.values / w.values).max())


def ainf_constant(w: Weight) -> float:
    """Fujii-Wilson constant sup_Q (1/w(Q)) int_Q M(chi_Q w) over the cubes
    of every lattice level.

    M is the lattice maximal function of hl_maximal, evaluated on the cells
    of Q only, for all cubes Q of one (lattice, level) at once: cutting the
    sweep at the cube starts of that level sums w over each Q cap P. Only
    the cubes P that can win need a cut sweep. Each finer level of Q's own
    lattice starts a cube wherever Q's level does, so its cut sweep is its
    uncut one, and one running max over the own lattice's levels, finest
    first, serves each of its levels in turn. A cube P at least as wide as
    Q gives w(P cap Q)/|P| <= w(Q)/|Q|, which the level of Q itself gives,
    also in floats: bincount adds each bin in cell order, every term is
    >= 0, so a sub-run of Q's cells never sums above all of them under
    monotone rounding. That leaves the narrower cubes of the other
    lattices. The ratio sums are width-grouped row sums, which add as slice
    sums do.
    """
    vals = w.values
    parts = [_level_starts([lat]) for lat in default_lattices(w.domain)]
    best = 0.0
    for k, own in enumerate(parts):
        others = [part for j, ps in enumerate(parts) if j != k for part in ps]
        m_own = np.zeros(len(vals))
        for cut, width in reversed(own):  # levels finest first
            np.maximum(m_own, _lattice_maximal(vals, [(cut, width)]), out=m_own)
            narrower = [(starts, wd) for starts, wd in others if wd < width]
            m = np.maximum(m_own, _lattice_maximal(vals, narrower, cut))
            for _, _, cells in _width_groups(_runs(cut)):
                best = max(best, (m[cells].sum(axis=1) / vals[cells].sum(axis=1)).max())
    return float(best)


def compute_constants(w: Weight) -> WeightConstants:
    return WeightConstants(
        ap={p: ap_constant(w, p) for p in (1.5, 2.0, 4.0)},
        a1=a1_constant(w),
        ainf=ainf_constant(w),
        lattice_shifts=[lat.shift for lat in default_lattices(w.domain)],
    )


def bloom_weight(mu: Weight, lam: Weight, p: float) -> Weight:
    """Bloom weight nu = (mu / lambda)^{1/p}."""
    if p <= 1:
        raise ValueError("Bloom weight requires p > 1")
    if mu.domain != lam.domain:
        raise ValueError("weights must share a domain")
    vals = (mu.values / lam.values) ** (1.0 / p)
    return Weight(GridFunction(mu.domain, vals))


def power_weight(a: float, domain: Domain1D, floor: float | None = None) -> Weight:
    """w(x) = max(|x|, floor)^a; the floor keeps grid samples finite at 0."""
    if floor is None:
        floor = 2.0 * domain.h
    if floor <= 0:
        raise ValueError("floor must be positive")
    vals = np.maximum(np.abs(domain.x()), floor) ** a
    return Weight(GridFunction(domain, vals))
