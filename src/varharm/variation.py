"""rho-variation of finite scale families and the operators built on it.

Over a finite decreasing scale grid the supremum defining the variation
equals the maximum over index subsequences, which a quadratic dynamic
program computes exactly. For rho >= 1 an optimal subsequence visits only
the ends and the strict local extrema of the sequence (Butkus & Norvaisa,
"Computation of p-variation", Lith. Math. J. 58 (2018)), so the batched DP
runs on those turning points alone, with the same arithmetic; the DP over
every index stays as its exactness oracle and as the 1-D path. A
brute-force enumeration over all subsequences serves as the independent
oracle for short inputs. The variation and commutator operators zero the
FFT round-off of their family before the DP (_zero_noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (Domain1D, GridFunction, KernelSpec, ScaleFamily,
                   convolve_family, eval_kernel_dilated)
from .lattice import DyadicLattice


def _variation_dp_full(a: np.ndarray, rho: float) -> np.ndarray:
    """Exact variation along the last axis of a by the DP over every index;
    returns shape a.shape[:-1]."""
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


def _turning_points(a: np.ndarray) -> np.ndarray:
    """Turning points of the sequences in the columns of a (m, n), as a keep
    mask of shape (n, m): the two ends, and the first entry of each run of
    equal neighbours that is a strict local extremum."""
    step = a[1:] != a[:-1]
    rising = a[1:] > a[:-1]
    # a run starts wherever step holds; walk the run starts column by column
    step = step.T.copy()
    rising = rising.T[step]
    turn = np.empty(rising.shape, dtype=bool)
    turn[:-1] = rising[:-1] != rising[1:]
    # a column's last run has no next run in that column; the end keeps it
    runs = step.sum(axis=1)
    turn[np.cumsum(runs)[runs > 0] - 1] = False
    keep = np.zeros(a.shape[::-1], dtype=bool)
    keep[:, 1:][step] = turn
    keep[:, 0] = keep[:, -1] = True
    # inf - inf is NaN and NaN compares false: such columns keep every entry
    keep[~np.isfinite(a).all(axis=0)] = True
    return keep


def _variation_dp_batch(a: np.ndarray, rho: float) -> np.ndarray:
    """Exact variation along the last axis of a; returns shape a.shape[:-1].

    Runs the DP of _variation_dp_full on the turning points of each sequence
    only: its two ends and its strict local extrema, after merging runs of
    equal neighbours. For rho >= 1 an optimal subsequence visits only those
    points (Butkus & Norvaisa, "Computation of p-variation", Lith. Math. J. 58
    (2018)): a repeated value adds |0|^rho = 0, and since
    |x + y|^rho >= |x|^rho + |y|^rho when x and y share a sign, a point inside
    a monotone stretch can be dropped, and a path can be stretched to the
    ends, without lowering the sum. The kept points go through the same
    subtract, abs, power, add and max as in the full DP, and the tests check
    the two for exact equality.

    Sequences are sorted by their turning count k, most first, so step i of
    the DP runs over the prefix of those with k > i: sum(k^2)/2 pairs in all.
    """
    shape, m = a.shape[:-1], a.shape[-1]
    if m < 2 or a.size == 0:
        return np.zeros(shape)
    # scale-major, like the full DP: a view of an F-ordered family
    a = np.ascontiguousarray(np.moveaxis(a, -1, 0)).reshape(m, -1)
    n = a.shape[1]
    # each index array is freed before the next one grows, so the peak
    # memory stays near that of the full DP
    idx = np.flatnonzero(_turning_points(a))
    # idx = point * m + scale; turn it into the flat index scale * n + point
    point = idx // m
    idx -= point * m
    idx *= n
    idx += point
    k = np.bincount(point, minlength=n)
    del point
    kept = a.ravel().take(idx)
    del idx
    order = np.argsort(-k, kind="stable")
    starts = (np.cumsum(k) - k)[order]
    # count[i] = the number of sequences with k > i: a prefix of the order
    count = n - np.cumsum(np.bincount(k))
    vals = np.empty((k.max(), n))
    for i in range(len(vals)):
        vals[i, :count[i]] = kept[starts[:count[i]] + i]
    del kept, starts
    best = np.zeros(vals.shape)
    work = np.empty(max(i * count[i] for i in range(1, len(vals))))
    for i in range(1, len(vals)):
        c = count[i]
        inc = work[:i * c].reshape(i, c)
        np.subtract(vals[:i, :c], vals[i, :c], out=inc)
        np.abs(inc, out=inc)
        inc **= rho
        inc += best[:i, :c]
        best[i, :c] = inc.max(axis=0)
    out = np.empty(n)
    out[order] = best.max(axis=0) ** (1.0 / rho)
    return out.reshape(shape)


# sqrt(3k) eps for three FFTs of length 2^k, k <= 17; see _zero_noise
_NOISE_FLOOR = np.sqrt(3 * 17) * np.finfo(float).eps


def _zero_noise(fam: np.ndarray) -> np.ndarray:
    """Zero, in place, the entries with |v| <= _NOISE_FLOOR * max|fam|, the
    FFT round-off of a convolution family; a non-finite max leaves fam as is.

    Each entry h * irfft(spectrum_t * rfft(f)) passes three radix-2
    transforms of length 2^k (kernel spectra, rfft of f, inverse), k <= 17
    as a run's grid has at most 65,536 cells. Each of the k stages rounds
    with relative error <= u = eps/2: O(k u) per transform in the worst case
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 24.2), sqrt(k) u rms for independent unbiased roundings (Schatzman,
    SIAM J. Sci. Comput. 17 (1996)). Three transforms give sqrt(3k) u, spread
    evenly over the outputs, so relative to max|fam|; twice that rms is the
    floor, sqrt(51) eps ~= 1.6e-15. On the mixed battery |fft - direct| stays
    below 3.7 eps * max (N = 3072, k = 13). Without the floor, this noise makes
    strict local extrema where the exact family is zero or flat, and the
    turning-point DP keeps them.
    """
    # no array of |v|: a float temporary of the family's size raises the
    # peak RSS of E1 and E2 at N = 3072 by 0.7 MB
    top = np.maximum(fam.max(initial=0.0), -fam.min(initial=0.0))
    if np.isfinite(top):
        floor = _NOISE_FLOOR * top
        np.putmask(fam, (fam <= floor) & (fam >= -floor), 0.0)
    return fam


def seq_variation_dp(a, rho: float) -> float:
    """Maximum over index subsequences of (sum |a_{i_j} - a_{i_{j+1}}|^rho)^{1/rho}."""
    if rho <= 1:
        raise ValueError("variation exponent must exceed 1")
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ValueError("expected a 1-D sequence")
    # the full DP takes its root of a numpy scalar; the root of a length-1
    # array, as the batched DP would take it, can differ in the last bit
    return float(_variation_dp_full(a, rho))


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


def variation_operator(f: GridFunction, kernel: KernelSpec, scales: ScaleFamily,
                       rho: float) -> VariationProfile:
    """V_rho of the family {phi_t * f}_{t in S}, pointwise on the grid."""
    if rho <= 1:
        raise ValueError("variation exponent must exceed 1")
    convs = _zero_noise(convolve_family(f, kernel, scales))
    vals = _variation_dp_batch(convs, rho)
    return VariationProfile(f.domain, vals, rho, scales, kernel)


def commutator_family(f: GridFunction, b: GridFunction, kernel: KernelSpec,
                      scales: ScaleFamily, conv_f: np.ndarray | None = None) -> np.ndarray:
    """Columns c_t(x) = b(x)(phi_t * f)(x) - (phi_t * (b f))(x).

    conv_f: convolve_family(f, kernel, scales), when the caller already holds
    it (several b's with one f); the result is the same to the bit.
    """
    if not f.same_domain(b):
        raise ValueError("f and b must share a domain")
    # recentering b leaves the commutator unchanged but makes the
    # constant-b case cancel bit-exactly
    b0 = b.values - b.values[0]
    if conv_f is None:
        conv_f = convolve_family(f, kernel, scales)
    elif conv_f.shape != (f.domain.cells, len(scales)):
        raise ValueError(f"conv_f has shape {conv_f.shape}, expected "
                         f"{(f.domain.cells, len(scales))}")
    bf = GridFunction(f.domain, b0 * f.values)
    conv_bf = convolve_family(bf, kernel, scales)
    # into conv_bf's buffer: the same floats, one (N, m) array fewer at the peak
    return np.subtract(b0[:, None] * conv_f, conv_bf, out=conv_bf)


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
                         scales: ScaleFamily, rho: float,
                         conv_f: np.ndarray | None = None) -> VariationProfile:
    """V_rho of the commutator family of b with the approximate identity;
    conv_f as in commutator_family."""
    if rho <= 1:
        raise ValueError("variation exponent must exceed 1")
    fam = _zero_noise(commutator_family(f, b, kernel, scales, conv_f))
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
