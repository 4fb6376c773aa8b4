"""Uniform 1-D grids, analytic kernels, convolution quadrature and norms.

Functions live on a uniform grid of cell midpoints and are identically
zero outside their domain (compact support model). All convolutions use
midpoint quadrature, evaluated on one cached rFFT plan at every grid size,
with transforms of the shortest length 2^a 3^b >= 2N - 1 (6144 at
N = 3072); scales below twice the grid spacing are rejected to keep
aliasing under control. The plan carries a small workspace that the
inverse transforms run through, a block of scales at a time, so a family
allocates only its result; the workspace makes `convolve_family` not
reentrant (one thread at a time per plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class ResolutionError(ValueError):
    """A requested scale is below the resolvable limit of the grid."""


@dataclass(frozen=True)
class Domain1D:
    """Uniform grid on [left, right) with N cells; samples at cell midpoints."""

    left: float
    right: float
    cells: int

    def __post_init__(self):
        if not self.left < self.right:
            raise ValueError("domain requires left < right")
        if self.cells < 2:
            raise ValueError("domain requires at least 2 cells")

    @property
    def h(self) -> float:
        return (self.right - self.left) / self.cells

    @property
    def length(self) -> float:
        return self.right - self.left

    def x(self) -> np.ndarray:
        """Cell midpoints x_i = left + (i + 1/2) h."""
        return self.left + (np.arange(self.cells) + 0.5) * self.h

    def cell_of(self, x: float) -> int:
        """Index of the cell containing x (clipped to the valid range)."""
        i = int(math.floor((x - self.left) / self.h))
        return min(max(i, 0), self.cells - 1)


@dataclass
class GridFunction:
    """Real samples on a uniform grid; zero outside the domain."""

    domain: Domain1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.cells,):
            raise ValueError("values length must equal the cell count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @cached_property
    def key(self) -> tuple:
        """(domain, 16-byte blake2b digest of the values): equal for equal samples
        on one grid. It is taken once per object, so it holds only while the
        values are not written after construction."""
        # hashlib.blake2b is _blake2.blake2b, but importing hashlib loads OpenSSL
        from _blake2 import blake2b
        return self.domain, blake2b(np.ascontiguousarray(self.values).data,
                                    digest_size=16).digest()

    @classmethod
    def indicator(cls, domain: Domain1D, a: float, b: float) -> "GridFunction":
        x = domain.x()
        return cls(domain, ((x >= a) & (x < b)).astype(float))

    @classmethod
    def zero(cls, domain: Domain1D) -> "GridFunction":
        return cls(domain, np.zeros(domain.cells))

    def same_domain(self, other: "GridFunction") -> bool:
        return self.domain == other.domain

    def to_csv(self, path) -> None:
        x = self.domain.x()
        with open(path, "w", newline="") as fh:
            fh.write("x,value\n")
            for xi, vi in zip(x, self.values):
                fh.write(f"{xi:.17g},{vi:.17g}\n")

    @classmethod
    def read_csv(cls, path) -> "GridFunction":
        """Read a file written by to_csv: the header 'x,value', then one
        'x,value' row per cell; blank lines are skipped."""
        xs, vs = [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "x,value":
                raise ValueError(f"expected header 'x,value', got {header!r}")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.split(",")
                if len(cells) != 2:
                    raise ValueError(f"line {lineno}: expected 2 comma-separated "
                                     f"values, got {len(cells)}")
                try:
                    xs.append(float(cells[0]))
                    vs.append(float(cells[1]))
                except ValueError:
                    raise ValueError(f"line {lineno}: not a number in "
                                     f"{line.strip()!r}") from None
        if len(xs) < 2:
            raise ValueError(f"need at least 2 rows, got {len(xs)}")
        xs = np.asarray(xs)
        vs = np.asarray(vs)
        h = xs[1] - xs[0]
        domain = Domain1D(xs[0] - h / 2, xs[-1] + h / 2, len(xs))
        # written so that a NaN or an overflowed midpoint also fails
        if not np.all(np.abs(xs - domain.x()) <= 1e-3 * domain.h):
            raise ValueError("x values are not a uniform grid of cell midpoints")
        return cls(domain, vs)


# integral of exp(-1/(1-x^2)) over (-1, 1) by QUADPACK quadrature (epsrel 1e-13)
_BUMP_MASS = 0.44399381616807937


def _bump_raw(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


KERNEL_KINDS = ("gaussian-heat", "poisson", "compact-bump")


@dataclass(frozen=True)
class KernelSpec:
    """Mother kernel for the dilation family phi_t(x) = t^{-1} phi(x/t).

    Each kind has unit mass: gaussian-heat and poisson analytically,
    compact-bump as the normalized smooth bump on [-1, 1].
    """

    kind: str

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    def profile(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian-heat":
            return np.exp(-x * x) / math.sqrt(math.pi)
        if self.kind == "poisson":
            return (1.0 / math.pi) / (1.0 + x * x)
        return _bump_raw(x) / _BUMP_MASS


def eval_kernel_dilated(kernel: KernelSpec, t: float, x) -> np.ndarray | float:
    """t^{-1} phi(x/t) for t > 0."""
    if t <= 0:
        raise ValueError("dilation scale must be positive")
    x = np.asarray(x, dtype=float)
    out = kernel.profile(x / t) / t
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScaleFamily:
    """Finite strictly decreasing set of scales t_1 > ... > t_m > 0."""

    scales: tuple

    def __post_init__(self):
        s = tuple(float(t) for t in self.scales)
        if len(s) < 1:
            raise ValueError("scale family must be nonempty")
        if any(t <= 0 for t in s):
            raise ValueError("scales must be positive")
        if any(a <= b for a, b in zip(s, s[1:])):
            raise ValueError("scales must be strictly decreasing")
        object.__setattr__(self, "scales", s)

    def __len__(self) -> int:
        return len(self.scales)

    def __iter__(self):
        return iter(self.scales)

    def array(self) -> np.ndarray:
        return np.asarray(self.scales)

    @classmethod
    def geometric(cls, t_max: float, ratio: float, count: int,
                  t_min: float | None = None) -> "ScaleFamily":
        """t_max * ratio^j, j = 0..count-1, dropping scales below t_min."""
        if not 0 < ratio < 1:
            raise ValueError("ratio must lie in (0, 1)")
        scales = [t_max * ratio ** j for j in range(count)]
        if t_min is not None:
            scales = [t for t in scales if t >= t_min]
        return cls(tuple(scales))

    @classmethod
    def for_domain(cls, domain: Domain1D, t_max: float = 4.0,
                   ratio: float = 0.85, count: int = 48) -> "ScaleFamily":
        return cls.geometric(t_max, ratio, count, t_min=2.0 * domain.h)

    def refine(self) -> "ScaleFamily":
        """Insert the geometric midpoint between each consecutive pair."""
        s = list(self.scales)
        out = []
        for a, b in zip(s, s[1:]):
            out.append(a)
            out.append(math.sqrt(a * b))
        out.append(s[-1])
        return ScaleFamily(tuple(out))


def convolve(f: GridFunction, kernel: KernelSpec, t: float) -> GridFunction:
    """Midpoint-quadrature convolution (phi_t * f)(x_i) = h sum_j phi_t(x_i - x_j) f(x_j).

    The one-scale case of convolve_family.
    """
    values = convolve_family(f, kernel, ScaleFamily((t,)))[:, 0]
    return GridFunction(f.domain, values)


def _kernel_samples(kernel: KernelSpec, scales: tuple, domain: Domain1D) -> np.ndarray:
    """Row k holds phi_{t_k}(d h) for the 2N - 1 offsets d = -(N-1) .. N-1.

    Each kernel is sampled at the N offsets d >= 0 and mirrored: every
    profile is even to the bit, as (-d) h = -(d h) in floating point and
    the profiles see x only through x * x or |x|."""
    n = domain.cells
    diffs = np.arange(n) * domain.h
    out = np.empty((len(scales), 2 * n - 1))
    for row, t in zip(out, scales):
        row[n - 1:] = eval_kernel_dilated(kernel, t, diffs)
        row[:n - 1] = row[:n - 1:-1]
    return out


def _fft_length(cells: int) -> int:
    """Smallest 2^a 3^b >= 2N - 1: the circular wrap then misses the N
    central outputs of the linear convolution, and the transform runs in
    radix-2 and radix-3 passes (6144 = 3 * 2^11 at N = 3072)."""
    need = 2 * cells - 1
    best = 1 << (need - 1).bit_length()
    three = 3
    while three < best:
        # the smallest power of two 2^a with three * 2^a >= need
        best = min(best, three << (-(-need // three) - 1).bit_length())
        three *= 3
    return best


# bytes of real transform output per block of scales: 5 rows at N = 3072, 21
# at N = 768. The plan keeps its block buffers, so a call allocates (and the
# OS faults in) only its (m, N) result, not two temporaries of the whole family
_BLOCK_BYTES = 1 << 18


@lru_cache(maxsize=8)
def _kernel_spectra(kernel: KernelSpec, scales: tuple,
                    domain: Domain1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plan of one (kernel, scales, domain): the read-only stack of kernel
    spectra, one row per scale, and the block workspace, one complex and one
    real buffer of `rows` rows that every call on the plan overwrites."""
    size = _fft_length(domain.cells)
    spectra = np.fft.rfft(_kernel_samples(kernel, scales, domain), n=size, axis=-1)
    spectra.flags.writeable = False
    rows = min(len(scales), max(1, _BLOCK_BYTES // (8 * size)))
    return spectra, np.empty((rows, spectra.shape[1]), complex), np.empty((rows, size))


def convolve_family(f: GridFunction, kernel: KernelSpec, scales: ScaleFamily,
                    method: str = "fft") -> np.ndarray:
    """Matrix of shape (N, m): column k holds phi_{t_k} * f.

    method: "fft" (one rFFT of f, then per block of scales the product with
    the cached kernel spectra and one inverse transform, both into the
    plan's workspace; each row's arithmetic is that of one transform of the
    whole family) or "direct" (exact summation, scale by scale, kept as the
    reference the FFT path is tested against; the two agree up to
    round-off). Not reentrant: calls on one plan share its workspace.
    """
    d = f.domain
    n = d.cells
    ts = tuple(scales)
    if min(ts) < 2.0 * d.h:
        raise ResolutionError(f"scale t={min(ts)} below the resolution limit 2h={2 * d.h}")
    if method == "direct":
        cols = [d.h * np.convolve(f.values, k)[n - 1:2 * n - 1]
                for k in _kernel_samples(kernel, ts, d)]
        return np.stack(cols, axis=1)
    if method == "fft":
        size = _fft_length(n)
        spectra, prod, full = _kernel_spectra(kernel, ts, d)
        spectrum = np.fft.rfft(f.values, n=size)
        result = np.empty((len(ts), n))
        for s in range(0, len(ts), len(full)):
            k = min(len(full), len(ts) - s)
            np.multiply(spectra[s:s + k], spectrum, out=prod[:k])
            np.fft.irfft(prod[:k], n=size, axis=-1, out=full[:k])
            np.multiply(d.h, full[:k, n - 1:2 * n - 1], out=result[s:s + k])
        return result.T
    raise ValueError(f"unknown convolution method {method!r}")


def _recentred(vals: np.ndarray) -> np.ndarray:
    """vals minus its mean along the last axis, the mean taken about the
    first entry so that a constant input yields exact zeros."""
    first = vals[..., :1]
    return vals - (first + (vals - first).mean(axis=-1, keepdims=True))


def lp_norm(f: GridFunction, p: float, weight=None) -> float:
    """(sum_i |f(x_i)|^p w(x_i) h)^{1/p}; Lebesgue measure when weight is None."""
    if p <= 0:
        raise ValueError("p must be positive")
    a = np.abs(f.values) ** p
    if weight is not None:
        a = a * weight.values
    return float((a.sum() * f.domain.h) ** (1.0 / p))


def weak_l1_norm(f: GridFunction, weight=None) -> float:
    """sup_alpha alpha * w({|f| >= alpha}) over the sample values of |f|."""
    w = np.ones(f.domain.cells) if weight is None else weight.values
    a = np.abs(f.values)
    order = np.argsort(a)[::-1]
    sorted_a = a[order]
    cum_w = np.cumsum(w[order]) * f.domain.h
    # alpha = k-th largest sample value; w({|f| >= alpha}) >= cum_w[k]
    vals = sorted_a * cum_w
    return float(vals.max(initial=0.0))

