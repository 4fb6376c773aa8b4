"""Weighted Hardy-space atoms: construction, validation, and the sign atom.

Atoms are supported in a ball, normalized in the weighted L^q norm against
the weighted ball measure, and orthogonal to polynomials up to the moment
degree. Moment orthogonality is enforced in the plain Lebesgue inner
product on the ball, using monomials centered at the ball center for
conditioning (the spanned polynomial space is the same).

Both builders also return the unnormalized shape and the positive factor
that normalizes it: the shape depends on the ball (and the seed or b) only,
the factor on (p, q, w) as well, so a positively homogeneous operator needs
to see each shape once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import GridFunction, _bump_raw, _recentred
from .oscillation import Ball
from .weights import Weight

_RESAMPLES = 8  # seeded candidates make_atom draws before it gives up
_TOL = 1e-9  # relative slack of validate_atom's norm and moment checks


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
    # set by make_atom: values = factor * shape, shape as projected
    shape: GridFunction | None = None
    factor: float = 1.0

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

    def normalized(self, p: float, w: Weight) -> "Atom":
        """The atom of this shape for exponent p and weight w: values =
        factor * shape with factor = norm_target() / weighted_norm() of the
        unscaled shape, so that the weighted norm meets the target."""
        atom = replace(self, values=GridFunction(self.shape.domain, self.shape.values.copy()),
                       p=p, weight=w)
        atom.factor = atom.norm_target() / atom.weighted_norm()
        atom.values.values *= atom.factor
        return atom

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


def validate_atom(atom: Atom) -> AtomReport:
    issues = []
    d = atom.values.domain
    s, e = atom.ball.cell_range(d)
    outside = atom.values.values.copy()
    outside[s:e] = 0.0
    if np.any(outside != 0.0):
        issues.append("support leaks outside the ball")
    target = atom.norm_target()
    norm = atom.weighted_norm()
    if norm > target * (1.0 + _TOL):
        issues.append(f"weighted norm {norm} exceeds target {target}")
    l1 = float(np.abs(atom.values.values).sum() * d.h)
    for j, res in enumerate(atom.moment_residuals()):
        if res > _TOL * l1 * atom.ball.radius ** j:
            issues.append(f"moment {j} residual {res} too large")
    return AtomReport(ok=not issues, issues=issues)


def make_atom(p: float, q: float, s: int, w: Weight, ball: Ball, seed: int) -> Atom:
    """Seeded random atom: smooth bump minus its polynomial projection,
    rescaled so the weighted norm meets the target exactly.

    The projected bump is kept as `shape` and the rescaling as `factor`;
    the shape depends on (ball, s, seed) only, not on p, q or w.
    """
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
        shape = GridFunction(d, vals)
        return Atom(shape, ball, p, q, s, w, shape).normalized(p, w)
    raise AtomConstructionError(
        f"projection annihilated the sample {_RESAMPLES} times")


@dataclass
class SgnAtomResult:
    values: GridFunction
    degenerate: bool  # b constant on B up to its mean: a vanishes identically
    shape: GridFunction  # (h - <h>_B) chi_B with h = sgn(b - <b>_B)
    factor: float  # 1 / (2 w(B)); values equals factor * shape to a few ulp


def sgn_atom(b: GridFunction, ball: Ball, w: Weight) -> SgnAtomResult:
    """a = (1 / (2 w(B))) (sgn(b - <b>_B) - <sgn(b - <b>_B)>_B) chi_B.

    Guarantees supp a in B, |a| <= w(B)^{-1} and int_B a = 0; uses the
    sgn(0) = 0 convention, so a constant b yields the flagged zero atom.
    The shape depends on (b, ball) only and the factor on (ball, w) only.
    """
    d = b.domain
    s, e = ball.cell_range(d)
    bb = b.values[s:e]
    # recentred mean: constant b gives exact zeros, hence sgn(0) = 0
    hvals = np.sign(_recentred(bb))
    wb = w.measure(s, e)
    hvals -= hvals.mean()
    av = hvals / (2.0 * wb)
    shape, vals = np.zeros(d.cells), np.zeros(d.cells)
    shape[s:e], vals[s:e] = hvals, av
    return SgnAtomResult(GridFunction(d, vals), not np.any(av),
                         GridFunction(d, shape), 1.0 / (2.0 * wb))
