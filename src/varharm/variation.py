"""rho-variation of finite scale families and the operators built on it.

Over a finite decreasing scale grid the supremum defining the variation
equals the maximum over index subsequences, which a quadratic dynamic
program computes exactly; a brute-force enumeration over all subsequences
serves as the independent oracle for short inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (Domain1D, GridFunction, KernelSpec, ScaleFamily,
                   convolve_family, eval_kernel_dilated)
from .lattice import DyadicLattice


def _variation_dp_batch(a: np.ndarray, rho: float) -> np.ndarray:
    """Exact variation along the last axis of a; returns shape a.shape[:-1]."""
    m = a.shape[-1]
    if m < 2:
        return np.zeros(a.shape[:-1])
    # scale-major copy: each step reduces over contiguous rows, in place
    a = np.ascontiguousarray(np.moveaxis(a, -1, 0))
    best = np.zeros(a.shape)
    work = np.empty(a.shape)
    for i in range(1, m):
        inc = work[:i]
        np.subtract(a[:i], a[i], out=inc)
        np.abs(inc, out=inc)
        inc **= rho
        inc += best[:i]
        best[i] = inc.max(axis=0)
    return best.max(axis=0) ** (1.0 / rho)


def seq_variation_dp(a, rho: float) -> float:
    """Maximum over index subsequences of (sum |a_{i_j} - a_{i_{j+1}}|^rho)^{1/rho}."""
    if rho <= 1:
        raise ValueError("variation exponent must exceed 1")
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ValueError("expected a 1-D sequence")
    return float(_variation_dp_batch(a, rho))


@lru_cache(maxsize=None)
def _subsequence_pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask, i, j) for every consecutive index pair i < j of every subset mask
    of range(m), ordered by mask and then by i."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    # nxt[:, i] = the smallest set index above i, or m when there is none
    nxt = np.full(bits.shape, m)
    for i in range(m - 2, -1, -1):
        nxt[:, i] = np.where(bits[:, i + 1], i + 1, nxt[:, i + 1])
    mask, i = np.nonzero(bits & (nxt < m))
    return mask, i, nxt[mask, i]


def seq_variation_bruteforce(a, rho: float) -> float:
    """Exhaustive maximum over all index subsequences (m <= 15)."""
    if rho <= 1:
        raise ValueError("variation exponent must exceed 1")
    a = np.asarray(a, dtype=float)
    m = len(a)
    if m > 15:
        raise ValueError("brute-force oracle limited to sequences of length <= 15")
    mask, i, j = _subsequence_pairs(m)
    if len(mask) == 0:
        return 0.0
    totals = np.bincount(mask, weights=np.abs(a[i] - a[j]) ** rho, minlength=1 << m)
    return float(totals.max()) ** (1.0 / rho)


@dataclass
class VariationProfile:
    """Pointwise rho-variation of a convolution family on a grid."""

    domain: Domain1D
    values: np.ndarray
    rho: float
    scale_family: ScaleFamily
    kernel: KernelSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.cells,):
            raise ValueError("profile length must equal the cell count")
        if np.any(self.values < 0):
            raise ValueError("variation values must be nonnegative")

    def grid_function(self) -> GridFunction:
        return GridFunction(self.domain, self.values)

    def to_csv(self, path) -> None:
        self.grid_function().to_csv(path)

    def sidecar(self) -> dict:
        return {
            "rho": self.rho,
            "kernel": self.kernel.kind,
            "scales": list(self.scale_family.scales),
        }


def variation_operator(f: GridFunction, kernel: KernelSpec, scales: ScaleFamily,
                       rho: float) -> VariationProfile:
    """V_rho of the family {phi_t * f}_{t in S}, pointwise on the grid."""
    if rho <= 1:
        raise ValueError("variation exponent must exceed 1")
    convs = convolve_family(f, kernel, scales)
    vals = _variation_dp_batch(convs, rho)
    return VariationProfile(f.domain, vals, rho, scales, kernel)


def commutator_family(f: GridFunction, b: GridFunction, kernel: KernelSpec,
                      scales: ScaleFamily) -> np.ndarray:
    """Columns c_t(x) = b(x)(phi_t * f)(x) - (phi_t * (b f))(x)."""
    if not f.same_domain(b):
        raise ValueError("f and b must share a domain")
    # recentering b leaves the commutator unchanged but makes the
    # constant-b case cancel bit-exactly
    b0 = b.values - b.values[0]
    conv_f = convolve_family(f, kernel, scales)
    bf = GridFunction(f.domain, b0 * f.values)
    conv_bf = convolve_family(bf, kernel, scales)
    return b0[:, None] * conv_f - conv_bf


def commutator_family_direct(f: GridFunction, b: GridFunction, kernel: KernelSpec,
                             t: float) -> np.ndarray:
    """Slow per-pair assembly h sum_j phi_t(x_i - x_j)(b(x_i) - b(x_j)) f(x_j)."""
    if not f.same_domain(b):
        raise ValueError("f and b must share a domain")
    d = f.domain
    x = d.x()
    kmat = eval_kernel_dilated(kernel, t, x[:, None] - x[None, :])
    diff = b.values[:, None] - b.values[None, :]
    return d.h * (kmat * diff * f.values[None, :]).sum(axis=1)


def commutator_variation(f: GridFunction, b: GridFunction, kernel: KernelSpec,
                         scales: ScaleFamily, rho: float) -> VariationProfile:
    """V_rho of the commutator family of b with the approximate identity."""
    if rho <= 1:
        raise ValueError("variation exponent must exceed 1")
    fam = commutator_family(f, b, kernel, scales)
    vals = _variation_dp_batch(fam, rho)
    return VariationProfile(f.domain, vals, rho, scales, kernel)


def kernel_difference_variation(kernel: KernelSpec, xi: float, z: float, y: float,
                                scales: ScaleFamily, rho: float) -> float:
    """Variation over t of phi_t(xi - y) - phi_t(z - y).

    The regularity estimate compares this against C |z - xi| / |xi - y|^2.
    """
    if y == xi or y == z:
        raise ValueError("evaluation point y must differ from xi and z")
    t = scales.array()
    seq = kernel.profile((xi - y) / t) / t - kernel.profile((z - y) / t) / t
    return seq_variation_dp(seq, rho)


def grand_maximal_variation(f: GridFunction, kernel: KernelSpec, scales: ScaleFamily,
                            rho: float, lattices: list[DyadicLattice]) -> GridFunction:
    """sup over lattice cubes Q containing x of max_{xi in Q} V_rho(Phi * (f chi_{3Q^c}))(xi).

    Cost grows like #cubes * N * m^2; intended for desk-scale grids.
    """
    n = f.domain.cells
    out = np.zeros(n)
    for lat in lattices:
        for cube in lat.cubes():
            qs, qe = cube.domain_cell_range()
            if qe <= qs:
                continue
            ts, te = cube.tripled_domain_cell_range()
            g = f.values.copy()
            g[ts:te] = 0.0
            if np.any(g):
                prof = variation_operator(GridFunction(f.domain, g), kernel,
                                          scales, rho)
                val = prof.values[qs:qe].max()
            else:
                val = 0.0
            np.maximum(out[qs:qe], val, out=out[qs:qe])
    return GridFunction(f.domain, out)
