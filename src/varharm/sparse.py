"""Sparse families via a stopping-time construction and the sparse operators.

Below each selected cube (the lattice root first) the builder selects the
maximal subcubes whose tripled averages exceed a fixed multiple of that
cube's. The cube (level, j) has heap id 2^level - 1 + j and parent
(id - 1) // 2; the walk runs level by level on arrays over these ids. If the
cubes selected below a cube cover more than half of it, the threshold
multiplier is doubled and the walk reruns on the same averages, which pins
eta at 1/2. A family is the selected rows of that walk: each cube's
root-grid cell range, in heap order, and its set E_Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, KernelSpec, ScaleFamily, _recentred
from .lattice import DyadicLattice, _width_groups, default_lattices
from .variation import variation_operator


class SparseConstructionError(RuntimeError):
    """Threshold escalation exceeded its cap without reaching eta = 1/2."""


@dataclass
class SparseFamily:
    """The cubes of one lattice with disjoint subsets E_Q of cells, |E_Q| >= eta |Q|.

    The cubes and E_Q cell sets are stored in root-grid coordinates (3N cells),
    so cube measures are exact cell counts even where cubes leave the domain.
    """

    lattice: DyadicLattice
    cubes: np.ndarray  # (K, 2) intp root-grid ranges [start, stop), ancestors first
    e_sets: list  # row k: np.ndarray of the root-grid cells of E_Q for cubes[k]
    eta: float
    c0: float | None = None  # threshold multiplier the builder ended with


@dataclass
class SparseReport:
    ok: bool
    violations: list = field(default_factory=list)


def validate_sparse(family: SparseFamily) -> SparseReport:
    """Exact cell-count check of E_Q in Q, disjointness and |E_Q| >= eta |Q|.
    Violations name rows of family.cubes, a shared cell the pair of rows."""
    violations = []
    seen = {}
    for k, (s, t) in enumerate(family.cubes.tolist()):
        e = np.asarray(family.e_sets[k])
        if len(e) and (e.min() < s or e.max() >= t):
            violations.append((k, "E_Q not contained in Q"))
        if len(e) < family.eta * (t - s):
            violations.append((k, f"|E_Q| = {len(e)} < eta |Q| = "
                                  f"{family.eta * (t - s)}"))
        for c in e.tolist():
            if c in seen:
                violations.append(((seen[c], k), f"shared cell {c}"))
                break
            seen[c] = k
    return SparseReport(ok=not violations, violations=violations)


def build_sparse_family(f: GridFunction, lattice: DyadicLattice,
                        c0: float = 2.0, max_escalations: int = 10) -> SparseFamily:
    """Stopping-time sparse family for f on one lattice; eta = 1/2 guaranteed.

    avg[id] is the mean of |f| over 3Q clipped to the domain (0 off it), as
    width-grouped row means: equal to slice means bit for bit, so the exact
    `>` ties of the stopping rule resolve as on slices."""
    if not np.any(f.values):
        raise ValueError("sparse construction requires f not identically zero")
    if c0 <= 1:
        raise ValueError("threshold multiplier must exceed 1")
    levels = np.arange(lattice.depth + 1)
    level = np.repeat(levels, 1 << levels)
    ids = np.arange(len(level))
    index = ids + 1 - (1 << level)
    width = lattice.root_cells >> level
    start = lattice.offset_cells + (index - 1) * width
    s, e = np.maximum(start, 0), np.minimum(start + 3 * width, lattice.domain.cells)
    live = np.flatnonzero(e > s)
    avg = np.zeros(len(ids))
    for _, rows, cells in _width_groups(np.stack([s[live], e[live]], axis=1)):
        avg[live[rows]] = np.abs(f.values[cells]).mean(axis=1)
    for _ in range(max_escalations + 1):
        # stop[id]: the last selected cube on the path from the root to id
        stop = np.zeros(len(ids), dtype=np.intp)
        for lv in levels[1:]:
            i = ids[level == lv]
            up = stop[(i - 1) // 2]
            stop[i] = np.where(avg[i] > c0 * avg[up], i, up)
        sel = np.flatnonzero(stop == ids)
        covered = np.bincount(stop[(sel[1:] - 1) // 2], weights=width[sel[1:]],
                              minlength=len(ids))
        if np.all(covered <= width // 2):
            break
        c0 *= 2.0
    else:
        raise SparseConstructionError(f"threshold escalation exceeded {max_escalations} doublings")
    # root cells go to E_Q of the last selected Q above their leaf; ancestors have smaller ids
    owner = stop[len(ids) // 2 + np.arange(lattice.root_cells) // width[-1]]
    cubes = np.stack([index[sel] * width[sel], (index[sel] + 1) * width[sel]], axis=1)
    e_sets = [np.flatnonzero(owner == i) for i in sel]
    return SparseFamily(lattice, cubes, e_sets, eta=0.5, c0=c0)


def _sum_over_cubes(family: SparseFamily, f: GridFunction, term) -> GridFunction:
    """sum over Q of term(s, e, |Q|) on the domain cells [s, e) of Q, added
    row by row in family order; cubes off the domain add nothing."""
    n = f.domain.cells
    off = family.lattice.offset_cells
    out = np.zeros(n)
    for start, stop in family.cubes.tolist():
        s, e = max(start + off, 0), min(stop + off, n)
        if e > s:
            out[s:e] += term(s, e, stop - start)
    return GridFunction(f.domain, out)


def sparse_operator(family: SparseFamily, f: GridFunction) -> GridFunction:
    """T_S f(x) = sum_{Q in S} <|f|>_Q chi_Q(x) on the domain grid.

    Averages use the full cube measure with f extended by zero.
    """
    return _sum_over_cubes(family, f, lambda s, e, w: np.abs(f.values[s:e]).sum() / w)


def sparse_commutator(family: SparseFamily, b: GridFunction,
                      f: GridFunction) -> GridFunction:
    """T_{S,b} f(x) = sum_Q |b(x) - <b>_Q| <|f|>_Q chi_Q(x), with <b>_Q taken
    over the cells of Q inside the domain, where b lives."""
    if b.domain != f.domain:
        raise ValueError("b and f must share a domain")
    return _sum_over_cubes(family, f, lambda s, e, w: (
        np.abs(_recentred(b.values[s:e])) * (np.abs(f.values[s:e]).sum() / w)))


def sparse_commutator_star(family: SparseFamily, b: GridFunction,
                           f: GridFunction) -> GridFunction:
    """T*_{S,b} f(x) = sum_Q <|(b - <b>_Q) f|>_Q chi_Q(x)."""
    if b.domain != f.domain:
        raise ValueError("b and f must share a domain")
    return _sum_over_cubes(family, f, lambda s, e, w: (
        np.abs(_recentred(b.values[s:e]) * f.values[s:e]).sum() / w))


@dataclass
class DominationReport:
    max_ratio: float
    n_failures: int  # points with zero denominator but positive variation
    family_sizes: list
    c0_used: list  # threshold multiplier per lattice, after escalation


def domination_check(f: GridFunction, kernel: KernelSpec, scales: ScaleFamily,
                     rho: float) -> DominationReport:
    """max_x V_rho(Phi * f)(x) / sum_j T_{S_j} f(x) over the grid.

    Points where the denominator vanishes while the variation exceeds 1e-9
    count as failures rather than being skipped.
    """
    num = variation_operator(f, kernel, scales, rho).values
    fams = [build_sparse_family(f, lat) for lat in default_lattices(f.domain)]
    total = sum((sparse_operator(fam, f).values for fam in fams), np.zeros(f.domain.cells))
    pos = total > 0
    ratios = np.zeros_like(num)
    ratios[pos] = num[pos] / total[pos]
    failures = int(np.count_nonzero(~pos & (num > 1e-9)))
    return DominationReport(max_ratio=float(ratios.max(initial=0.0)), n_failures=failures,
                            family_sizes=[len(fam.cubes) for fam in fams],
                            c0_used=[fam.c0 for fam in fams])
