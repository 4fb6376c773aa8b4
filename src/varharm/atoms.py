"""Weighted Hardy-space atoms: construction, normalization, and the sign atom.

Atoms are supported in a ball, normalized in the weighted L^q norm against
the weighted ball measure, and orthogonal to polynomials up to the moment
degree. Moment orthogonality is enforced in the plain Lebesgue inner
product on the ball, using monomials centered at the ball center for
conditioning (the spanned polynomial space is the same).

Every atom is stored as its unnormalized shape and a positive factor, and
its values are factor * shape: the shape depends on the ball (and the seed
or b) only, the factor on (p, q, w) as well, so a positively homogeneous
operator needs to see each shape once. The sign atom that tests the
commutator is a (1, inf, 0)-atom like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridFunction, _bump_raw, _recentred
from .oscillation import Ball
from .weights import Weight

_RESAMPLES = 8  # seeded candidates make_atom draws before it gives up


class AtomConstructionError(RuntimeError):
    """Moment projection annihilated every resampled candidate."""


@dataclass
class Atom:
    shape: GridFunction
    ball: Ball
    p: float
    q: float  # may be math.inf
    s: int
    weight: Weight
    factor: float = 1.0  # values = factor * shape

    @property
    def values(self) -> GridFunction:
        return GridFunction(self.shape.domain, self.factor * self.shape.values)

    @property
    def degenerate(self) -> bool:
        """The zero atom: its values vanish identically."""
        return not np.any(self.values.values)

    def norm_target(self) -> float:
        """w(B)^{1/q - 1/p}; the normalization bound of the definition."""
        s, e = self.ball.cell_range(self.shape.domain)
        wb = self.weight.measure(s, e)
        inv_q = 0.0 if math.isinf(self.q) else 1.0 / self.q
        return wb ** (inv_q - 1.0 / self.p)

    def weighted_norm(self) -> float:
        d = self.shape.domain
        s, e = self.ball.cell_range(d)
        a = np.abs(self.factor * self.shape.values[s:e])
        if math.isinf(self.q):
            return float(a.max(initial=0.0))
        wv = self.weight.values[s:e]
        return float(((a ** self.q * wv).sum() * d.h) ** (1.0 / self.q))

    def normalized(self, p: float, w: Weight) -> "Atom":
        """The atom of this shape for exponent p and weight w: its factor is
        norm_target() / weighted_norm() of the unscaled shape, so that the
        weighted norm meets the target."""
        atom = replace(self, p=p, weight=w, factor=1.0)
        atom.factor = atom.norm_target() / atom.weighted_norm()
        return atom


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
    # orthonormal polynomials of degree <= s in L^2(B, dx): modified Gram-Schmidt on
    # u^j, two sweeps ("twice is enough"), sums of products, so no BLAS or LAPACK call
    basis = []
    for j in range(s + 1):
        v = u ** j
        for e in 2 * basis:
            v = v - (v * e).sum() * e
        basis.append(v / math.sqrt((v * v).sum()))

    from .pcg64 import Uniforms  # on first use, not when varharm.cli is imported
    rng = Uniforms(seed)  # the normals of np.random.default_rng(seed)
    for _ in range(_RESAMPLES):
        coeffs = np.array([rng.standard_normal() for _ in range(8)])
        g = np.zeros_like(u)
        for k in range(4):
            g += coeffs[2 * k] * np.cos((k + 1) * math.pi * u)
            g += coeffs[2 * k + 1] * np.sin((k + 1) * math.pi * u)
        raw = g * bump
        # project out polynomials of degree <= s in L^2(B, dx)
        a = raw
        for e in 2 * basis:
            a = a - (a * e).sum() * e
        scale_ref = float(np.abs(raw).max(initial=0.0))
        if float(np.abs(a).max(initial=0.0)) <= 1e-12 * max(scale_ref, 1.0):
            continue
        vals = np.zeros(d.cells)
        vals[cs:ce] = a
        return Atom(GridFunction(d, vals), ball, p, q, s, w).normalized(p, w)
    raise AtomConstructionError(
        f"projection annihilated the sample {_RESAMPLES} times")


def sgn_atom(b: GridFunction, ball: Ball, w: Weight) -> Atom:
    """The (1, inf, 0)-atom a = (1 / (2 w(B))) (h - <h>_B) chi_B with
    h = sgn(b - <b>_B).

    Guarantees supp a in B, |a| <= w(B)^{-1} and int_B a = 0; uses the
    sgn(0) = 0 convention, so a constant b yields the degenerate zero atom.
    The shape depends on (b, ball) only and the factor on (ball, w) only.
    """
    d = b.domain
    s, e = ball.cell_range(d)
    # recentred mean: constant b gives exact zeros, hence sgn(0) = 0
    hvals = np.sign(_recentred(b.values[s:e]))
    hvals -= hvals.mean()
    shape = np.zeros(d.cells)
    shape[s:e] = hvals
    return Atom(GridFunction(d, shape), ball, 1.0, math.inf, 0, w,
                1.0 / (2.0 * w.measure(s, e)))
