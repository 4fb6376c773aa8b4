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

from functools import lru_cache

import numpy as np

from .grid import GridFunction, KernelSpec, ScaleFamily, convolve_family

# bytes of vals + best in one chunk of the batched DP's columns: 655 columns
# at k = 25 turning points. The whole family's would hold 1.2-1.8 MB at
# N = 3072, the largest buffers of a variation or commutator call
_DP_BYTES = 1 << 18


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


def _turns(a: np.ndarray) -> np.ndarray:
    """Interior turning points of the columns of a (m, n), a mask of shape
    (m - 2, n): turn[i - 1, j] when a[i, j] ends a run of equal entries and
    the next step reverses the last nonzero one, a strict local extremum."""
    # rise[i]: the last nonzero step a[j + 1] - a[j] with j <= i is positive;
    # bool arrays only, as int8 ones would page in more of numpy's code
    rise = a[1:] > a[:-1]
    flat = a[1:] == a[:-1]
    for i in range(1, len(rise)):
        np.copyto(rise[i], rise[i - 1], where=flat[i])
    turn = rise[1:] != rise[:-1]
    # rise reads False through a leading run of flat steps, but the first
    # nonzero step after it reverses nothing
    c = np.flatnonzero(flat[0])
    turn[:, c] &= ~np.logical_and.accumulate(flat[:-1, c], axis=0)
    # inf - inf is NaN and NaN compares false: such columns keep every entry
    turn[:, ~np.isfinite(a).all(axis=0)] = True
    return turn


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

    _turns keeps the last entry of each such run, equal to its first. The
    sequences are sorted by their count k of turning points, most first, so
    step i of the DP runs over the prefix of those with k > i: sum(k^2)/2
    pairs in all. They run through _dp_chunk in chunks of consecutive
    sequences of that order: at least one, and as many as keep the chunk's
    vals and best, (k, columns) floats each, within _DP_BYTES. A sequence
    takes the same operations in whichever chunk it falls, so its bits do
    not depend on the chunking.
    """
    shape, m = a.shape[:-1], a.shape[-1]
    if m < 2 or a.size == 0:
        return np.zeros(shape)
    # scale-major, like the full DP: a view of an F-ordered family
    a = np.ascontiguousarray(np.moveaxis(a, -1, 0)).reshape(m, -1)
    turn = _turns(a)
    k = turn.sum(axis=0) + 2
    c = np.argsort(-k, kind="stable")
    k = k[c]
    out = np.empty(len(c))
    # a chunk at a time, so that its vals + best take at most _DP_BYTES: the
    # order is descending, so k[s] is the largest k of the chunk from s
    s = 0
    while s < len(c):
        e = s + max(1, _DP_BYTES // (16 * k[s]))
        out[c[s:e]] = _dp_chunk(rho, a, turn, c[s:e], k[s:e])
        s = e
    return out.reshape(shape)


def _dp_chunk(rho: float, a: np.ndarray, turn: np.ndarray, c: np.ndarray,
              k: np.ndarray) -> np.ndarray:
    """The DP of _variation_dp_batch on the columns c of a (m, n), whose
    turning-point counts k are sorted with the most first; returns their
    variations in the order of c."""
    m = len(a)
    keep = np.empty((len(c), m), dtype=bool)
    keep[:, 0] = keep[:, -1] = True
    keep[:, 1:-1] = turn.T[c]
    # the flat indices j * m + i of the kept points, made into i * n + c[j] in
    # place: each index array is freed before the next one, or the DP's, grows
    idx = np.flatnonzero(keep)
    del keep
    j = idx // m
    idx -= j * m
    idx *= a.shape[1]
    idx += c.take(j)
    del j
    # vals[:k[j], j]: the points of column c[j] in order, taken from a itself
    vals = np.empty((k[0], len(c)))
    vals.T[np.arange(k[0]) < k[:, None]] = a.ravel().take(idx)
    del idx
    # count[i] = the number of sequences with k > i: a prefix of the order
    count = len(c) - np.cumsum(np.bincount(k))
    best = np.zeros(vals.shape)
    work = np.empty(max(i * count[i] for i in range(1, len(vals))))
    for i in range(1, len(vals)):
        n = count[i]
        inc = work[:i * n].reshape(i, n)
        np.subtract(vals[:i, :n], vals[i, :n], out=inc)
        np.abs(inc, out=inc)
        inc **= rho
        inc += best[:i, :n]
        best[i, :n] = inc.max(axis=0)
    return best.max(axis=0) ** (1.0 / rho)


# sqrt(3 * 17) eps for three FFTs of at most log2 L <= 17 passes; see _zero_noise
_NOISE_FLOOR = np.sqrt(3 * 17) * np.finfo(float).eps


def _zero_noise(fam: np.ndarray) -> np.ndarray:
    """Zero, in place, the entries with |v| <= _NOISE_FLOOR * max|fam|, the
    FFT round-off of a convolution family; a non-finite max leaves fam as is.

    Each entry h * irfft(spectrum_t * rfft(f)) passes three transforms
    (kernel spectra, rfft of f, inverse) of length L = 2^a 3^b <= 2^17, as a
    run's grid has at most 65,536 cells. Each runs in a + b <= log2 L <= 17
    radix-2 and radix-3 passes, and each pass rounds with relative error
    O(u), u = eps/2: O(17 u) per transform in the worst case (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2),
    sqrt(17) u rms for independent unbiased roundings (Schatzman, SIAM J.
    Sci. Comput. 17 (1996)). Three transforms give sqrt(51) u, spread evenly
    over the outputs, so relative to max|fam|; twice that rms is the floor,
    sqrt(51) eps ~= 1.6e-15. On the mixed battery, over the three kernels,
    |fft - direct| stays below 3.7 eps * max (N = 768, L = 1536 = 3 * 2^9)
    and 3.3 eps * max (N = 3072, L = 6144 = 3 * 2^11). Without the floor,
    this noise makes strict local extrema where the exact family is zero or
    flat, and the turning-point DP keeps them.
    """
    # no array of |v|: a float temporary of the family's size raises the
    # peak RSS of E1 and E2 at N = 3072 by 0.7 MB
    top = np.maximum(fam.max(initial=0.0), -fam.min(initial=0.0))
    if np.isfinite(top):
        floor = _NOISE_FLOOR * top
        # copyto walks fam in memory order, putmask across an F-ordered fam's rows
        np.copyto(fam, 0.0, where=(fam <= floor) & (fam >= -floor))
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


class VariationProfile(GridFunction):
    """Pointwise rho-variation of a convolution family on a grid."""

    def __post_init__(self):
        super().__post_init__()
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
    return VariationProfile(f.domain, vals)


def commutator_family(f: GridFunction, b: GridFunction, kernel: KernelSpec,
                      scales: ScaleFamily, conv_f: np.ndarray | None = None) -> np.ndarray:
    """Columns c_t(x) = b(x)(phi_t * f)(x) - (phi_t * (b f))(x).

    conv_f: convolve_family(f, kernel, scales), when the caller already holds
    it (several b's with one f); the result is the same to the bit.
    """
    if f.domain != b.domain:
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
    # into conv_bf, eight scales at a time: the same floats, no (N, m) temporary
    tmp = np.empty((len(b0), 8), order="F")
    for s in range(0, len(scales), 8):
        t = tmp[:, :min(8, len(scales) - s)]
        np.multiply(b0[:, None], conv_f[:, s:s + 8], out=t)
        np.subtract(t, conv_bf[:, s:s + 8], out=conv_bf[:, s:s + 8])
    return conv_bf


def commutator_variation(f: GridFunction, b: GridFunction, kernel: KernelSpec,
                         scales: ScaleFamily, rho: float,
                         conv_f: np.ndarray | None = None) -> VariationProfile:
    """V_rho of the commutator family of b with the approximate identity;
    conv_f as in commutator_family."""
    if rho <= 1:
        raise ValueError("variation exponent must exceed 1")
    fam = _zero_noise(commutator_family(f, b, kernel, scales, conv_f))
    vals = _variation_dp_batch(fam, rho)
    return VariationProfile(f.domain, vals)


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

