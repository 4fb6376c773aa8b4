"""Oscillation functionals: BMO-type norms, medians, local mean oscillation,
the quantile equivalence, and the oscillation-witness construction.

The cube arguments are half-open grid cell ranges (start, stop). The sweeps
run over the range set their caller passes, usually the lattice cubes of
`cube_domain_ranges`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Domain1D, GridFunction, ResolutionError, _recentred
from .lattice import _width_groups
from .weights import Weight


@dataclass(frozen=True)
class Ball:
    """Interval [center - radius, center + radius) snapped to grid cells."""

    center: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def cell_range(self, domain: Domain1D) -> tuple[int, int]:
        h = domain.h
        s = int(round((self.center - self.radius - domain.left) / h))
        e = int(round((self.center + self.radius - domain.left) / h))
        s, e = max(s, 0), min(e, domain.cells)
        if e <= s:
            raise ValueError("ball has no cells inside the domain")
        return s, e


def cube_oscillations(b: GridFunction, ranges) -> np.ndarray:
    """int_Q |b - <b>_Q| for each range Q, in the order of ranges."""
    return _per_range(b, ranges, lambda v: np.abs(_recentred(v)).sum(axis=1))


def cube_measures(w: Weight, ranges) -> np.ndarray:
    """w(Q) = h sum_Q w for each range Q, in the order of ranges."""
    return _per_range(w, ranges, lambda v: v.sum(axis=1))


def _per_range(f, ranges, row_sums) -> np.ndarray:
    """h row_sums(f.values[cells]) over the width groups of ranges."""
    r = np.asarray(ranges, dtype=np.intp).reshape(-1, 2)
    out = np.empty(len(r))
    for _, rows, cells in _width_groups(r):
        out[rows] = row_sums(f.values[cells]) * f.domain.h
    return out


def bmo_nu_norm(b: GridFunction, nu: Weight, ranges, osc=None, measure=None) -> float:
    """sup over the cube set of (1/nu(Q)) int_Q |b - <b>_Q|.

    osc and measure, when given, are cube_oscillations(b, ranges) and
    cube_measures(nu, ranges), for a caller that weighs several b's against
    several nu; the result is the same float."""
    if osc is None:
        osc = cube_oscillations(b, ranges)
    if measure is None:
        measure = cube_measures(nu, ranges)
    return float(np.max(osc / measure, initial=0.0))


@dataclass
class TailNormReport:
    norm: float
    truncated: bool = True  # outer integral clipped to the domain


def cal_bmo_omega_norm(b: GridFunction, w: Weight, balls) -> TailNormReport:
    """sup_B (1/w(B)) int_{B^c} w(x)/|x - x_B| dx * int_B |b - <b>_B|.

    The outer integral runs over the computational domain minus B only;
    the report carries the truncation caveat.
    """
    d = b.domain
    x = d.x()
    h = d.h
    best = 0.0
    for ball in balls:
        s, e = ball.cell_range(d)
        mask = np.ones(d.cells, dtype=bool)
        mask[s:e] = False
        tail = float((w.values[mask] / np.abs(x[mask] - ball.center)).sum() * h)
        osc = float(np.abs(_recentred(b.values[s:e])).sum() * h)
        best = max(best, tail * osc / w.measure(s, e))
    return TailNormReport(norm=best)


def median(f: GridFunction, cells) -> float:
    """Lower sample median over a cell set (index ceil(K/2) - 1 in sorted order)."""
    vals = np.sort(f.values[np.asarray(cells)])
    k = len(vals)
    if k == 0:
        raise ValueError("median over an empty cell set")
    return float(vals[(k + 1) // 2 - 1])


def is_median(f: GridFunction, cells, m: float) -> bool:
    """Exact cell-count check that neither strict level set exceeds half."""
    vals = f.values[np.asarray(cells)]
    k = len(vals)
    return (2 * int((vals > m).sum()) <= k) and (2 * int((vals < m).sum()) <= k)


def _rearrangement_index(tau: float, k_cells: int) -> int:
    """1-based order index of the right-continuous rearrangement at s = tau |Q|."""
    return int(math.floor(tau * k_cells + 1e-12)) + 1


def local_mean_oscillation(f: GridFunction, cell_range: tuple[int, int],
                           tau: float) -> float:
    """a_tau(f; Q) = inf_c ((f - c) chi_Q)^*(tau |Q|) over the cells of Q.

    The infimum is exact: the k-th largest of |f - c| is at most r iff the
    window [c - r, c + r] captures all but k - 1 samples, so the optimum is
    half the minimal width of a sorted-sample window holding K - k + 1
    samples.
    """
    s, e = cell_range
    return float(_window_oscillation(f.values[None, s:e], tau)[0])


def _window_oscillation(rows: np.ndarray, tau: float) -> np.ndarray:
    """a_tau of each row of a (k, K) sample matrix, as local_mean_oscillation."""
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    k_cells = rows.shape[1]
    if tau * k_cells < 1.0 - 1e-12:
        raise ResolutionError("tau |Q| below one cell measure")
    k = min(_rearrangement_index(tau, k_cells), k_cells)
    m = k_cells - k + 1
    svals = np.sort(rows, axis=1)
    widths = svals[:, m - 1:] - svals[:, :k_cells - m + 1]
    return widths.min(axis=1) / 2.0


@dataclass
class EquivalenceReport:
    lhs: float  # BMO_nu norm
    rhs: float  # sup_Q (|Q| / nu(Q)) a_tau
    ratio: float  # nan sentinel when 0/0
    tau: float
    degenerate: bool


def bmo_nu_equivalence(b: GridFunction, nu: Weight, ranges,
                       tau: float = 0.125) -> EquivalenceReport:
    """Both sides of the quantile equivalence over a shared cube set.

    Ranges too small to resolve tau |Q| are dropped from both sides to keep
    the comparison on a common footing.
    """
    r = np.asarray(ranges, dtype=np.intp).reshape(-1, 2)
    usable = r[tau * (r[:, 1] - r[:, 0]) >= 1.0]
    measure = cube_measures(nu, usable)
    lhs = bmo_nu_norm(b, nu, usable, measure=measure)
    h = b.domain.h
    rhs = 0.0
    for width, rows, cells in _width_groups(usable):
        a = _window_oscillation(b.values[cells], tau)
        rhs = max(rhs, float((width * h / measure[rows] * a).max()))
    if lhs == 0.0 and rhs == 0.0:
        return EquivalenceReport(lhs, rhs, math.nan, tau, degenerate=True)
    ratio = lhs / rhs if rhs > 0 else math.inf
    return EquivalenceReport(lhs, rhs, ratio, tau, degenerate=False)


class WitnessPlacementError(ValueError):
    """The companion cube P falls outside the computational domain."""


@dataclass
class WitnessResult:
    p_range: tuple  # companion cube P as a cell range
    e_cells: np.ndarray  # E subset of Q, |E| = tau |Q| / 2 cells
    f_cells: np.ndarray  # F subset of P, |F| = |P| / 2 cells
    f_test: GridFunction  # normalized indicator of F
    a_tau: float
    median_p: float
    sign: int  # sign of b(x) - b(y) on E x F (+1 / -1), 0 when degenerate
    degenerate: bool
    pair_gap: float  # min over E x F of sign * (b(x) - b(y))


def oscillation_witness(b: GridFunction, q_range: tuple[int, int], tau: float,
                        delta_param: float, mu: Weight | None = None,
                        p: float = 1.0, verify: bool = True) -> WitnessResult:
    """Companion-cube witness for the oscillation lower bound.

    P sits 10 / delta_param cube lengths to the left of Q (direction z0 = +1).
    E collects the tau |Q| / 2 cells of Q deepest into the majority sign
    class of b - m_b(P); F is the matching half of P. When verify is set the
    postconditions |b(x) - b(y)| >= a_tau and constant sign are checked over
    every pair.
    """
    d = b.domain
    qs, qe = q_range
    kq = qe - qs
    if kq <= 0:
        raise ValueError("empty witness cube")
    n_tilde = tau * kq
    if abs(n_tilde - round(n_tilde)) > 1e-9 or int(round(n_tilde)) % 2 != 0:
        raise ValueError(f"tau |Q| = {n_tilde} must be an even cell count")
    n_tilde = int(round(n_tilde))

    shift_cells = int(round(10.0 * kq / delta_param))
    ps, pe = qs - shift_cells, qe - shift_cells
    if ps < 0 or pe > d.cells:
        raise WitnessPlacementError(
            f"companion cube cells [{ps}, {pe}) leave the domain")

    m_p = median(b, np.arange(ps, pe))
    a_tau = local_mean_oscillation(b, q_range, tau)

    dev = b.values[qs:qe] - m_p
    order = np.lexsort((np.arange(kq), -np.abs(dev)))  # |dev| desc, index asc
    tilde = order[:n_tilde]
    pos = tilde[dev[tilde] > 0]
    neg = tilde[dev[tilde] < 0]
    zero = tilde[dev[tilde] == 0]
    if a_tau == 0.0:
        # proof only uses cubes where b oscillates; fall back to any split
        pos = np.concatenate([pos, zero])
    if len(pos) >= len(neg):
        sign, cls = 1, pos
    else:
        sign, cls = -1, neg
    if len(cls) < n_tilde // 2:
        raise ValueError("sign-class selection impossible (degenerate split)")
    e_cells = np.sort(cls[:n_tilde // 2] + qs)

    kp = pe - ps
    pvals = b.values[ps:pe]
    porder = np.lexsort((np.arange(kp), sign * pvals))  # matching side first
    f_cells = np.sort(porder[:kp // 2] + ps)

    weight_vals = mu.values if mu is not None else np.ones(d.cells)
    mass = float(weight_vals[f_cells].sum() * d.h)
    fv = np.zeros(d.cells)
    fv[f_cells] = mass ** (-1.0 / p)
    f_test = GridFunction(d, fv)

    degenerate = a_tau == 0.0
    pair_gap = math.inf
    if verify:
        diff = sign * (b.values[e_cells][:, None] - b.values[f_cells][None, :])
        pair_gap = float(diff.min())
        if not degenerate and pair_gap < a_tau - 1e-12:
            raise AssertionError(
                f"witness postcondition failed: min gap {pair_gap} < a_tau {a_tau}")
    return WitnessResult((ps, pe), e_cells, f_cells, f_test, a_tau, m_p,
                         0 if degenerate else sign, degenerate, pair_gap)
