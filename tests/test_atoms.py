import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from varharm import (Atom, Ball, Domain1D, GridFunction, Weight, make_atom,
                     power_weight, sgn_atom)
from varharm.grid import _bump_raw
from varharm.harness import _oscillatory_battery

_TOL = 1e-9  # relative slack of validate_atom's norm and moment checks


def moment_residuals(atom: Atom) -> np.ndarray:
    """|int a (x - x_B)^j dx| for j = 0..s."""
    d = atom.shape.domain
    s, e = atom.ball.cell_range(d)
    x = d.x()[s:e] - atom.ball.center
    a = atom.factor * atom.shape.values[s:e]
    return np.array([abs((a * x ** j).sum() * d.h) for j in range(atom.s + 1)])


@dataclass
class AtomReport:
    ok: bool
    issues: list = field(default_factory=list)


def validate_atom(atom: Atom) -> AtomReport:
    """The atom's support, weighted norm and moments against the definition."""
    issues = []
    d = atom.shape.domain
    s, e = atom.ball.cell_range(d)
    vals = atom.values.values
    if np.any(vals[:s]) or np.any(vals[e:]):
        issues.append("support leaks outside the ball")
    target = atom.norm_target()
    norm = atom.weighted_norm()
    if norm > target * (1.0 + _TOL):
        issues.append(f"weighted norm {norm} exceeds target {target}")
    l1 = float(np.abs(vals).sum() * d.h)
    for j, res in enumerate(moment_residuals(atom)):
        if res > _TOL * l1 * atom.ball.radius ** j:
            issues.append(f"moment {j} residual {res} too large")
    return AtomReport(ok=not issues, issues=issues)


def test_manual_sign_atom_validates():
    # a = (1/2) sgn(x) on B = [-1, 1): an (1, inf, 0) atom for w = 1 since
    # ||a||_inf = 1/2 = w(B)^{0 - 1} and the zeroth moment vanishes
    d = Domain1D(-8.0, 8.0, 384)
    ball = Ball(0.0, 1.0)
    s, e = ball.cell_range(d)
    vals = np.zeros(d.cells)
    vals[s:e] = 0.5 * np.sign(d.x()[s:e])
    atom = Atom(GridFunction(d, vals), ball, p=1.0, q=math.inf, s=0,
                weight=Weight.constant(d))
    assert atom.norm_target() == pytest.approx(0.5, rel=1e-12)
    assert atom.weighted_norm() == 0.5
    rep = validate_atom(atom)
    assert rep.ok, rep.issues


def test_validate_atom_flags_violations():
    d = Domain1D(-8.0, 8.0, 384)
    ball = Ball(0.0, 1.0)
    s, e = ball.cell_range(d)
    w = Weight.constant(d)
    # support leak
    vals = np.zeros(d.cells)
    vals[s:e] = 0.5 * np.sign(d.x()[s:e])
    vals[0] = 1.0
    leak = Atom(GridFunction(d, vals), ball, 1.0, math.inf, 0, w)
    assert any("support" in msg for msg in validate_atom(leak).issues)
    # missing zeroth moment
    vals = np.zeros(d.cells)
    vals[s:e] = 0.5
    biased = Atom(GridFunction(d, vals), ball, 1.0, math.inf, 0, w)
    assert any("moment 0" in msg for msg in validate_atom(biased).issues)
    # norm above the target
    vals = np.zeros(d.cells)
    vals[s:e] = 5.0 * np.sign(d.x()[s:e])
    loud = Atom(GridFunction(d, vals), ball, 1.0, math.inf, 0, w)
    assert any("norm" in msg for msg in validate_atom(loud).issues)


@pytest.mark.parametrize("q,s", [(2.0, 0), (2.0, 2), (math.inf, 1)])
def test_make_atom_validates(q, s):
    d = Domain1D(-8.0, 8.0, 3072)
    w = power_weight(0.3, d)
    atom = make_atom(p=1.0, q=q, s=s, w=w, ball=Ball(0.5, 0.5), seed=7)
    rep = validate_atom(atom)
    assert rep.ok, rep.issues
    # the weighted norm is pinned to the target exactly by rescaling
    assert atom.weighted_norm() == pytest.approx(atom.norm_target(), rel=1e-12)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_make_atom_projection_equals_least_squares(s):
    # The shape is the raw sample minus its L^2(B, dx) projection on the
    # polynomials of degree <= s: the residual of the least-squares fit by the
    # monomials u^j, with LAPACK's lstsq as the oracle. lstsq and modified
    # Gram-Schmidt on [basis, raw] are both backward stable, with backward error
    # gamma = m (s + 1) u for m cells and unit roundoff u (constant c = 1), and
    # least-squares perturbation theory puts each residual within
    # gamma (1 + 2 kappa) ||raw||_2 of the exact one, so the two lie within twice
    # that of each other; kappa is the 2-norm condition number of the sampled
    # basis (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # ch. 19-20; Bjorck & Paige, SIMAX 13 (1992)).
    d = Domain1D(-8.0, 8.0, 3072)
    w = power_weight(0.3, d)
    x = d.x()
    for m in sorted({s + 2, s + 3, 7, 16, 45, 128, 301, 600}):
        # centred on a cell edge (m even) or midpoint (m odd): exactly m cells
        ball = Ball((m % 2) * d.h / 2, m * d.h / 2)
        cs, ce = ball.cell_range(d)
        assert ce - cs == m
        u = (x[cs:ce] - ball.center) / ball.radius
        basis = np.stack([u ** j for j in range(s + 1)], axis=1)
        kappa = np.linalg.cond(basis)
        for seed in (3, 20240901):
            coeffs = np.random.default_rng(seed).standard_normal(8)
            g = np.zeros_like(u)
            for k in range(4):
                g += coeffs[2 * k] * np.cos((k + 1) * math.pi * u)
                g += coeffs[2 * k + 1] * np.sin((k + 1) * math.pi * u)
            raw = g * _bump_raw(u)
            ref = raw - basis @ np.linalg.lstsq(basis, raw, rcond=None)[0]
            atom = make_atom(1.0, 2.0, s, w, ball, seed)
            shape = atom.shape.values[cs:ce]
            bound = 2 * m * (s + 1) * (np.finfo(float).eps / 2) * (1 + 2 * kappa)
            assert np.linalg.norm(shape - ref) <= bound * np.linalg.norm(raw), (m, seed)
            rep = validate_atom(atom)
            assert rep.ok, (m, seed, rep.issues)
            a = atom.factor * shape
            for j, res in enumerate(moment_residuals(atom)):
                assert res <= _TOL * (np.abs(a * (x[cs:ce] - ball.center) ** j)).sum() * d.h


def test_make_atom_deterministic():
    d = Domain1D(-8.0, 8.0, 768)
    w = Weight.constant(d)
    a1 = make_atom(1.0, 2.0, 1, w, Ball(0.0, 1.0), seed=99)
    a2 = make_atom(1.0, 2.0, 1, w, Ball(0.0, 1.0), seed=99)
    assert np.array_equal(a1.values.values, a2.values.values)
    a3 = make_atom(1.0, 2.0, 1, w, Ball(0.0, 1.0), seed=100)
    assert not np.array_equal(a1.values.values, a3.values.values)


def test_make_atom_rejects_bad_parameters():
    d = Domain1D(-8.0, 8.0, 384)
    w = Weight.constant(d)
    with pytest.raises(ValueError):
        make_atom(1.0, 1.0, 0, w, Ball(0.0, 1.0), seed=1)
    with pytest.raises(ValueError):
        make_atom(1.0, 2.0, -1, w, Ball(0.0, 1.0), seed=1)
    with pytest.raises(ValueError):
        make_atom(1.0, 2.0, 3, w, Ball(0.0, 2 * d.h), seed=1)


def test_sgn_atom_properties():
    d = Domain1D(-8.0, 8.0, 384)
    w = Weight.constant(d)
    ball = Ball(0.0, 1.0)
    b = GridFunction(d, d.x())
    res = sgn_atom(b, ball, w)
    assert not res.degenerate
    s, e = ball.cell_range(d)
    # a = sgn(x) / (2 w(B)) = sgn(x)/4 here (the sign average vanishes)
    assert np.allclose(res.values.values[s:e], np.sign(d.x()[s:e]) / 4.0,
                       atol=1e-15)
    assert abs(res.values.values.sum() * d.h) < 1e-12
    assert np.max(np.abs(res.values.values)) <= 1.0 / w.measure(s, e) + 1e-15
    outside = res.values.values.copy()
    outside[s:e] = 0.0
    assert not np.any(outside)


def test_sgn_atom_constant_b_degenerate():
    d = Domain1D(-8.0, 8.0, 384)
    w = Weight.constant(d)
    b = GridFunction(d, np.full(d.cells, 0.1))
    res = sgn_atom(b, Ball(0.0, 1.0), w)
    assert res.degenerate
    assert not np.any(res.values.values)


@pytest.mark.parametrize("cells", [96, 768])
def test_sgn_atoms_are_valid_atoms(cells):
    # E7's four functions b, b = x and a constant b; the last ball is clipped
    # by the domain edge
    # (b, whether its atoms are degenerate, or None where that varies)
    d = Domain1D(-8.0, 8.0, cells)
    bs = [(b, None) for _, b in _oscillatory_battery(d, 4, np.random.default_rng(20240901))]
    bs += [(GridFunction(d, d.x()), False), (GridFunction(d, np.full(cells, 0.1)), True)]
    balls = [Ball(0.0, 1.0), Ball(-2.0, 0.5), Ball(1.0, 2.0), Ball(7.9, 0.3)]
    weights = [Weight.constant(d), power_weight(-0.3, d), power_weight(0.6, d)]
    for b, degenerate in bs:
        for ball in balls:
            for w in weights:
                atom = sgn_atom(b, ball, w)
                assert (atom.p, atom.q, atom.s) == (1.0, math.inf, 0)
                rep = validate_atom(atom)
                assert rep.ok, rep.issues
                assert atom.degenerate == (not np.any(atom.shape.values))
                assert degenerate in (None, atom.degenerate)
