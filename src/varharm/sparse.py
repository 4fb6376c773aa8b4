"""Sparse families via a stopping-time construction and the sparse operators.

The builder starts at the lattice root and recursively selects the maximal
subcubes whose tripled averages exceed a fixed multiple of the parent's
tripled average; if selected subcubes ever cover more than half of their
parent, the threshold multiplier is doubled and the build restarts, which
pins the sparsity parameter at eta = 1/2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, KernelSpec, ScaleFamily, _recentred
from .lattice import Cube, DyadicLattice, default_lattices
from .variation import variation_operator


class SparseConstructionError(RuntimeError):
    """Threshold escalation exceeded its cap without reaching eta = 1/2."""


@dataclass
class SparseFamily:
    """Cubes of one lattice with disjoint subsets E_Q of cells, |E_Q| >= eta |Q|.

    E_Q cell sets are stored in root-grid coordinates (3N cells), so cube
    measures are exact cell counts even where cubes leave the domain.
    """

    lattice: DyadicLattice
    cubes: list  # list[Cube]
    e_sets: dict  # Cube -> np.ndarray of root-grid cell indices
    eta: float

    def to_json(self) -> str:
        def ranges(cells):
            cells = np.sort(np.asarray(cells))
            out = []
            if len(cells) == 0:
                return out
            start = prev = int(cells[0])
            for c in cells[1:]:
                c = int(c)
                if c == prev + 1:
                    prev = c
                    continue
                out.append([start, prev + 1])
                start = prev = c
            out.append([start, prev + 1])
            return out

        return json.dumps({
            "lattice": {"shift": self.lattice.shift, "depth": self.lattice.depth},
            "eta": self.eta,
            "cubes": [{"level": q.level, "index": q.index} for q in self.cubes],
            "E": {f"{q.level}:{q.index}": ranges(self.e_sets[q]) for q in self.cubes},
        }, indent=2)


@dataclass
class SparseReport:
    ok: bool
    violations: list = field(default_factory=list)


def validate_sparse(family: SparseFamily) -> SparseReport:
    """Exact cell-count check of disjointness and |E_Q| >= eta |Q|."""
    violations = []
    seen = {}
    for cube in family.cubes:
        e = np.asarray(family.e_sets[cube])
        s, t = cube.root_cell_range()
        if len(e) and (e.min() < s or e.max() >= t):
            violations.append((cube, "E_Q not contained in Q"))
        if len(e) < family.eta * cube.width_cells:
            violations.append((cube, f"|E_Q| = {len(e)} < eta |Q| = "
                                     f"{family.eta * cube.width_cells}"))
        for c in e:
            c = int(c)
            if c in seen:
                violations.append(((seen[c], cube), f"shared cell {c}"))
                break
            seen[c] = cube
    return SparseReport(ok=not violations, violations=violations)


def _tripled_avg(f_root: np.ndarray, cube: Cube) -> float:
    """Average of |f| over 3Q clipped to the domain (zero if 3Q misses it)."""
    s, e = cube.tripled_domain_cell_range()
    if e <= s:
        return 0.0
    return float(np.abs(f_root[s:e]).mean())


def build_sparse_family(f: GridFunction, lattice: DyadicLattice,
                        c0: float = 2.0, max_escalations: int = 10) -> SparseFamily:
    """Stopping-time sparse family for f on one lattice; eta = 1/2 guaranteed."""
    if not np.any(f.values):
        raise ValueError("sparse construction requires f not identically zero")
    if c0 <= 1:
        raise ValueError("threshold multiplier must exceed 1")
    vals = f.values

    for _ in range(max_escalations + 1):
        root = lattice.cube(0, 0)
        cubes = [root]
        e_sets = {}
        ok = True
        stack = [root]
        while stack and ok:
            q = stack.pop()
            thr = c0 * _tripled_avg(vals, q)
            selected = []
            if q.level < lattice.depth:
                scan = list(q.children())
                while scan:
                    p = scan.pop()
                    if _tripled_avg(vals, p) > thr:
                        selected.append(p)
                    elif p.level < lattice.depth:
                        scan.extend(p.children())
            covered = sum(p.width_cells for p in selected)
            if covered > q.width_cells // 2:
                ok = False
                break
            qs, qe = q.root_cell_range()
            mask = np.ones(qe - qs, dtype=bool)
            for p in selected:
                ps, pe = p.root_cell_range()
                mask[ps - qs:pe - qs] = False
            e_sets[q] = np.flatnonzero(mask) + qs
            cubes.extend(selected)
            stack.extend(selected)
        if ok:
            return SparseFamily(lattice, cubes, e_sets, eta=0.5)
        c0 *= 2.0

    raise SparseConstructionError(
        f"threshold escalation exceeded {max_escalations} doublings")


def sparse_operator(family: SparseFamily, f: GridFunction) -> GridFunction:
    """T_S f(x) = sum_{Q in S} <|f|>_Q chi_Q(x) on the domain grid.

    Averages use the full cube measure with f extended by zero.
    """
    n = f.domain.cells
    out = np.zeros(n)
    for cube in family.cubes:
        s, e = cube.domain_cell_range()
        if e <= s:
            continue
        avg = np.abs(f.values[s:e]).sum() / cube.width_cells
        out[s:e] += avg
    return GridFunction(f.domain, out)


def sparse_commutator(family: SparseFamily, b: GridFunction,
                      f: GridFunction) -> GridFunction:
    """T_{S,b} f(x) = sum_Q |b(x) - <b>_Q| <|f|>_Q chi_Q(x)."""
    if not b.same_domain(f):
        raise ValueError("b and f must share a domain")
    n = f.domain.cells
    out = np.zeros(n)
    for cube in family.cubes:
        s, e = cube.domain_cell_range()
        if e <= s:
            continue
        avg_f = np.abs(f.values[s:e]).sum() / cube.width_cells
        # <b>_Q is taken over the cells of Q inside the domain, where b lives
        out[s:e] += np.abs(_recentred(b.values[s:e])) * avg_f
    return GridFunction(f.domain, out)


def sparse_commutator_star(family: SparseFamily, b: GridFunction,
                           f: GridFunction) -> GridFunction:
    """T*_{S,b} f(x) = sum_Q <|(b - <b>_Q) f|>_Q chi_Q(x)."""
    if not b.same_domain(f):
        raise ValueError("b and f must share a domain")
    n = f.domain.cells
    out = np.zeros(n)
    for cube in family.cubes:
        s, e = cube.domain_cell_range()
        if e <= s:
            continue
        avg = np.abs(_recentred(b.values[s:e]) * f.values[s:e]).sum() / cube.width_cells
        out[s:e] += avg
    return GridFunction(f.domain, out)


@dataclass
class DominationReport:
    max_ratio: float
    n_failures: int  # points with zero denominator but positive variation
    family_sizes: list
    c0_used: float


def domination_check(f: GridFunction, kernel: KernelSpec, scales: ScaleFamily,
                     rho: float, c0: float = 2.0, lattices=None) -> DominationReport:
    """max_x V_rho(Phi * f)(x) / sum_j T_{S_j} f(x) over the grid.

    Points where the denominator vanishes while the variation exceeds 1e-9
    count as failures rather than being skipped.
    """
    if lattices is None:
        lattices = default_lattices(f.domain)
    prof = variation_operator(f, kernel, scales, rho)
    total = np.zeros(f.domain.cells)
    sizes = []
    for lat in lattices:
        fam = build_sparse_family(f, lat, c0=c0)
        sizes.append(len(fam.cubes))
        total += sparse_operator(fam, f).values
    num = prof.values
    pos = total > 0
    ratios = np.zeros_like(num)
    ratios[pos] = num[pos] / total[pos]
    failures = int(np.count_nonzero(~pos & (num > 1e-9)))
    return DominationReport(max_ratio=float(ratios.max(initial=0.0)),
                            n_failures=failures, family_sizes=sizes, c0_used=c0)
