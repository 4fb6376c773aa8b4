"""Weighted Hardy-space atoms: construction, validation, and the sign atom.

Atoms are supported in a ball, normalized in the weighted L^q norm against
the weighted ball measure, and orthogonal to polynomials up to the moment
degree. Moment orthogonality is enforced in the plain Lebesgue inner
product on the ball, using monomials centered at the ball center for
conditioning (the spanned polynomial space is the same).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, KernelSpec, ScaleFamily, _bump_raw, _recentred, smooth_maximal
from .oscillation import Ball
from .weights import Weight

_RESAMPLES = 8  # seeded candidates make_atom draws before it gives up


class AtomConstructionError(RuntimeError):
    """Moment projection annihilated every resampled candidate."""


@dataclass
class Atom:
    values: GridFunction
    ball: Ball
    p: float
    q: float  # may be math.inf
    s: int
    weight: Weight

    def norm_target(self) -> float:
        """w(B)^{1/q - 1/p}; the normalization bound of the definition."""
        d = self.values.domain
        s, e = self.ball.cell_range(d)
        wb = self.weight.measure(s, e)
        inv_q = 0.0 if math.isinf(self.q) else 1.0 / self.q
        return wb ** (inv_q - 1.0 / self.p)

    def weighted_norm(self) -> float:
        d = self.values.domain
        s, e = self.ball.cell_range(d)
        a = np.abs(self.values.values[s:e])
        if math.isinf(self.q):
            return float(a.max(initial=0.0))
        wv = self.weight.values[s:e]
        return float(((a ** self.q * wv).sum() * d.h) ** (1.0 / self.q))

    def moment_residuals(self) -> np.ndarray:
        """|int a (x - x_B)^j dx| for j = 0..s."""
        d = self.values.domain
        s, e = self.ball.cell_range(d)
        x = d.x()[s:e] - self.ball.center
        a = self.values.values[s:e]
        return np.array([abs((a * x ** j).sum() * d.h) for j in range(self.s + 1)])


@dataclass
class AtomReport:
    ok: bool
    issues: list = field(default_factory=list)


def validate_atom(atom: Atom, tol: float = 1e-9) -> AtomReport:
    issues = []
    d = atom.values.domain
    s, e = atom.ball.cell_range(d)
    outside = atom.values.values.copy()
    outside[s:e] = 0.0
    if np.any(outside != 0.0):
        issues.append("support leaks outside the ball")
    target = atom.norm_target()
    norm = atom.weighted_norm()
    if norm > target * (1.0 + tol):
        issues.append(f"weighted norm {norm} exceeds target {target}")
    l1 = float(np.abs(atom.values.values).sum() * d.h)
    for j, res in enumerate(atom.moment_residuals()):
        if res > tol * l1 * atom.ball.radius ** j:
            issues.append(f"moment {j} residual {res} too large")
    return AtomReport(ok=not issues, issues=issues)


def make_atom(p: float, q: float, s: int, w: Weight, ball: Ball, seed: int) -> Atom:
    """Seeded random atom: smooth bump minus its polynomial projection,
    rescaled so the weighted norm meets the target exactly."""
    if not (q > 1 or math.isinf(q)):
        raise ValueError("atom exponent q must exceed 1")
    if s < 0:
        raise ValueError("moment degree must be nonnegative")
    d = w.domain
    cs, ce = ball.cell_range(d)
    if ce - cs < s + 2:
        raise ValueError("ball too small for the requested moment degree")
    x = d.x()[cs:ce]
    u = (x - ball.center) / ball.radius
    bump = _bump_raw(u)

    rng = np.random.default_rng(seed)
    for _ in range(_RESAMPLES):
        coeffs = rng.standard_normal(8)
        g = np.zeros_like(u)
        for k in range(4):
            g += coeffs[2 * k] * np.cos((k + 1) * math.pi * u)
            g += coeffs[2 * k + 1] * np.sin((k + 1) * math.pi * u)
        raw = g * bump
        # project out polynomials of degree <= s in L^2(B, dx)
        basis = np.stack([u ** j for j in range(s + 1)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, raw, rcond=None)
        a = raw - basis @ coef
        scale_ref = float(np.abs(raw).max(initial=0.0))
        if float(np.abs(a).max(initial=0.0)) <= 1e-12 * max(scale_ref, 1.0):
            continue
        vals = np.zeros(d.cells)
        vals[cs:ce] = a
        atom = Atom(GridFunction(d, vals), ball, p, q, s, w)
        norm = atom.weighted_norm()
        atom.values.values *= atom.norm_target() / norm
        return atom
    raise AtomConstructionError(
        f"projection annihilated the sample {_RESAMPLES} times")


@dataclass
class SgnAtomResult:
    values: GridFunction
    degenerate: bool  # b constant on B up to its mean: a vanishes identically


def sgn_atom(b: GridFunction, ball: Ball, w: Weight) -> SgnAtomResult:
    """a = (1 / (2 w(B))) (sgn(b - <b>_B) - <sgn(b - <b>_B)>_B) chi_B.

    Guarantees supp a in B, |a| <= w(B)^{-1} and int_B a = 0; uses the
    sgn(0) = 0 convention, so a constant b yields the flagged zero atom.
    """
    d = b.domain
    s, e = ball.cell_range(d)
    bb = b.values[s:e]
    # recentred mean: constant b gives exact zeros, hence sgn(0) = 0
    hvals = np.sign(_recentred(bb))
    wb = w.measure(s, e)
    av = (hvals - hvals.mean()) / (2.0 * wb)
    vals = np.zeros(d.cells)
    vals[s:e] = av
    return SgnAtomResult(GridFunction(d, vals), degenerate=not np.any(av))


class SupportError(ValueError):
    """Input function leaks outside the prescribed ball."""


@dataclass
class FarFieldReport:
    max_ratio: float
    lhs: np.ndarray  # |int_B f| / |x - x_B| at points outside B
    maximal: np.ndarray  # M_phi-tilde f at the same points
    kernel: KernelSpec  # flat-bump; mass deliberately not normalized


def far_field_maximal_bound_check(f: GridFunction, ball: Ball,
                                  k_tilde: KernelSpec | None = None,
                                  scales: ScaleFamily | None = None) -> FarFieldReport:
    """max over x outside B of (|int_B f| / |x - x_B|) / M_phi-tilde f(x).

    The cutoff kernel equals 1 on [-1, 1]; the bound needs no unit mass, so
    the kernel is flagged rather than renormalized. The scale family must
    reach scales comparable to the distances probed (default: up to the
    domain length).
    """
    d = f.domain
    s, e = ball.cell_range(d)
    outside_support = f.values.copy()
    outside_support[s:e] = 0.0
    if np.any(outside_support != 0.0):
        raise SupportError("f must be supported in the ball")
    if k_tilde is None:
        k_tilde = KernelSpec("flat-bump")
    if scales is None:
        scales = ScaleFamily.for_domain(d, t_max=d.length, ratio=0.8)
    integral = abs(float(f.values[s:e].sum() * d.h))
    x = d.x()
    mask = np.ones(d.cells, dtype=bool)
    mask[s:e] = False
    lhs = integral / np.abs(x[mask] - ball.center)
    m = smooth_maximal(f, k_tilde, scales).values[mask]
    if integral == 0.0:
        return FarFieldReport(0.0, lhs, m, k_tilde)
    pos = m > 0
    ratio = float((lhs[pos] / m[pos]).max(initial=0.0))
    if np.any(~pos & (lhs > 0)):
        ratio = math.inf
    return FarFieldReport(ratio, lhs, m, k_tilde)
