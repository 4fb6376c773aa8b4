import json
import math

import numpy as np
import pytest

from varharm import (Domain1D, GridFunction, Weight, a1_constant,
                     ainf_constant, ap_constant, bloom_weight,
                     compute_constants, default_lattices, hl_maximal,
                     power_weight)
from varharm.lattice import _level_starts, _runs, _width_groups


def _random_weight(domain, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    vals = np.exp(spread * rng.standard_normal(domain.cells))
    return Weight(domain, vals)


def _ap_naive_all_intervals(w, p):
    """Independent slow oracle: direct double loop over every cell interval."""
    vals = w.values
    dual = vals ** (1.0 - p / (p - 1.0))
    n = len(vals)
    best = 0.0
    for a in range(n):
        sw = sd = 0.0
        for b in range(a, n):
            sw += vals[b]
            sd += dual[b]
            k = b - a + 1
            best = max(best, (sw / k) * (sd / k) ** (p - 1.0))
    return best


def test_weight_requires_positivity():
    d = Domain1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Weight(d, np.array([1.0, 0.0, 1.0, 1.0]))


def test_weight_is_a_positive_grid_function(tmp_path):
    d = Domain1D(0.0, 1.0, 4)
    for w in (Weight.constant(d), power_weight(0.3, d),
              bloom_weight(power_weight(0.3, d), Weight.constant(d), 2.0)):
        assert isinstance(w, Weight) and isinstance(w, GridFunction)
    power_weight(0.3, d).to_csv(tmp_path / "w.csv")
    assert isinstance(Weight.read_csv(tmp_path / "w.csv"), Weight)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Weight(d, np.array([1.0, bad, 1.0, 1.0]))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="strictly positive"):
            Weight(d, np.array([1.0, bad, 1.0, 1.0]))


def test_weight_measure():
    d = Domain1D(0.0, 1.0, 8)
    w = Weight.constant(d, 3.0)
    assert w.measure(0, 8) == pytest.approx(3.0, abs=1e-12)
    assert w.measure(2, 6) == pytest.approx(1.5, abs=1e-12)


def test_ap_constant_of_constant_weight():
    d = Domain1D(-8.0, 8.0, 96)
    for c in (1.0, 3.0, 0.25):
        w = Weight.constant(d, c)
        for p in (1.5, 2.0, 4.0):
            assert ap_constant(w, p) == pytest.approx(1.0, rel=1e-12)


def test_ap_scale_invariance():
    d = Domain1D(-8.0, 8.0, 96)
    w = _random_weight(d, 21)
    scaled = Weight(d, 7.0 * w.values)
    for p in (1.5, 2.0):
        assert ap_constant(scaled, p) == pytest.approx(ap_constant(w, p),
                                                       rel=1e-12)


def test_ap_at_least_one_and_nested():
    d = Domain1D(-8.0, 8.0, 96)
    for seed in range(5):
        w = _random_weight(d, 30 + seed)
        c15 = ap_constant(w, 1.5)
        c2 = ap_constant(w, 2.0)
        c4 = ap_constant(w, 4.0)
        assert c4 >= 1.0 - 1e-9
        # A_p constants are nonincreasing in p
        assert c4 <= c2 * (1.0 + 1e-12)
        assert c2 <= c15 * (1.0 + 1e-12)


def test_ap_rejects_bad_exponent():
    d = Domain1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        ap_constant(Weight.constant(d), 1.0)


@pytest.mark.parametrize("cells", [96, 384])
@pytest.mark.parametrize("kind", ["lognormal", "power+", "power-"])
def test_ap_constant_equals_python_cube_sums(cells, kind):
    # independent oracle: left-to-right Python float sums of w and of the
    # dual density w^{1-p'} over each lattice cube's domain cells
    d = Domain1D(-8.0, 8.0, cells)
    w = {"lognormal": lambda: _random_weight(d, cells, spread=1.5),
         "power+": lambda: power_weight(0.5, d),
         "power-": lambda: power_weight(-0.6, d)}[kind]()
    vals = w.values.tolist()
    for p in (1.5, 2.0, 4.0):
        dual = [v ** (1.0 - p / (p - 1.0)) for v in vals]
        best = 0.0
        for lat in default_lattices(d):
            for cube in lat.cubes():
                s, e = cube.domain_cell_range()
                sw = sd = 0.0
                for i in range(s, e):
                    sw += vals[i]
                    sd += dual[i]
                best = max(best, (sw / (e - s)) * (sd / (e - s)) ** (p - 1.0))
        assert ap_constant(w, p) == pytest.approx(best, rel=1e-12)


def test_ap_lattice_dominated_by_exhaustive():
    d = Domain1D(-8.0, 8.0, 96)
    w = _random_weight(d, 23)
    lat = ap_constant(w, 2.0)
    full = _ap_naive_all_intervals(w, 2.0)
    assert lat <= full * (1.0 + 1e-12)


def test_ap_overflow_reports_infinity():
    # a weight whose dual density overflows must not report a finite constant
    d = Domain1D(-1.0, 1.0, 48)
    vals = np.full(d.cells, 1.0)
    vals[0] = 1e-300
    w = Weight(d, vals)
    assert ap_constant(w, 1.0 + 1e-9) == math.inf


def test_ap_overflowing_power_reports_infinity():
    # finite dual averages whose (p - 1)-th power overflows: a subnormal
    # sample at p = 4 pushes <w^{1-p'}>_Q^3 past the double range
    d = Domain1D(-8.0, 8.0, 96)
    vals = np.full(d.cells, 1.0)
    vals[40] = 5e-324
    w = Weight(d, vals)
    with np.errstate(over="ignore"):
        assert ap_constant(w, 4.0) == math.inf


def test_constants_reject_weights_whose_sums_leave_the_double_range():
    d = Domain1D(0.0, 1.0, 2)
    for vals in ([1e308, 1e308], [1e308, 0.041564281988291658]):
        w = Weight(d, np.array(vals))
        for fn in (lambda w: ap_constant(w, 2.0), a1_constant, ainf_constant,
                   compute_constants):
            with pytest.raises(ValueError, match="double range"):
                fn(w)
    # a total below the bound still gives finite constants
    c = compute_constants(Weight(d, np.array([1e307, 1.0])))
    assert all(math.isfinite(v) for v in [c.a1, c.ainf, *c.ap.values()])


def test_a1_overflow_reports_infinity():
    d = Domain1D(-8.0, 8.0, 96)
    vals = np.full(d.cells, 1.0)
    vals[40] = 5e-324
    assert a1_constant(Weight(d, vals)) == math.inf


def test_a1_constant():
    d = Domain1D(-8.0, 8.0, 96)
    assert a1_constant(Weight.constant(d, 5.0)) == pytest.approx(1.0, abs=1e-12)
    w = _random_weight(d, 24)
    assert a1_constant(w) >= 1.0 - 1e-12
    # scale invariance
    scaled = Weight(d, 3.0 * w.values)
    assert a1_constant(scaled) == pytest.approx(a1_constant(w), rel=1e-12)


def test_ainf_constant():
    d = Domain1D(-8.0, 8.0, 96)
    assert ainf_constant(Weight.constant(d)) == pytest.approx(1.0, abs=1e-12)
    w = power_weight(0.5, d)
    c = ainf_constant(w)
    assert 1.0 - 1e-12 <= c < 50.0


def test_bloom_weight():
    d = Domain1D(-8.0, 8.0, 96)
    mu = power_weight(0.6, d)
    assert np.allclose(bloom_weight(mu, mu, 2.0).values, 1.0, atol=1e-15)
    lam = power_weight(0.2, d)
    nu = bloom_weight(mu, lam, 2.0)
    expect = power_weight(0.2, d)  # (a - b) / p = (0.6 - 0.2)/2
    assert np.max(np.abs(nu.values - expect.values)) < 1e-12
    with pytest.raises(ValueError):
        bloom_weight(mu, lam, 1.0)


def test_power_weight():
    d = Domain1D(-8.0, 8.0, 96)
    assert np.all(power_weight(0.0, d).values == 1.0)
    w = power_weight(0.6, d)
    x = d.x()
    away = np.abs(x) > 1.0
    assert np.allclose(w.values[away], np.abs(x[away]) ** 0.6)
    # floor caps the singularity of negative powers
    wn = power_weight(-0.5, d, floor=0.5)
    assert np.max(wn.values) == pytest.approx(0.5 ** -0.5, rel=1e-12)
    with pytest.raises(ValueError):
        power_weight(1.0, d, floor=0.0)


def test_compute_constants_json():
    d = Domain1D(-8.0, 8.0, 96)
    wc = compute_constants(power_weight(0.3, d))
    data = json.loads(wc.to_json())
    assert set(data["ap"]) == {"1.5", "2.0", "4.0"}
    assert data["a1"] >= 1.0
    assert data["ainf"] >= 1.0 - 1e-12
    assert data["lattice_shifts"] == [lat.shift for lat in default_lattices(d)]


def _ainf_per_cube(w, lattices):
    """The definition cube by cube: a full maximal function of chi_Q w per Q."""
    best = 0.0
    for lat in lattices:
        for cube in lat.cubes():
            s, e = cube.domain_cell_range()
            g = np.zeros(w.domain.cells)
            g[s:e] = w.values[s:e]
            m = hl_maximal(GridFunction(w.domain, g))
            best = max(best, m.values[s:e].sum() / w.values[s:e].sum())
    return best


@pytest.mark.parametrize("cells", [96, 384])
@pytest.mark.parametrize("kind", ["constant", "power+", "power-", "lognormal"])
def test_ainf_constant_equals_per_cube_definition(cells, kind):
    d = Domain1D(-8.0, 8.0, cells)
    w = {"constant": lambda: Weight.constant(d, 2.5),
         "power+": lambda: power_weight(0.7, d),
         "power-": lambda: power_weight(-0.6, d),
         "lognormal": lambda: _random_weight(d, 5, spread=1.5)}[kind]()
    assert ainf_constant(w) == _ainf_per_cube(w, default_lattices(d))


def _ainf_all_parts(w, lattices):
    """The sweep over every (lattice, level) part for every cut, pruning
    nothing: each cut's maximal function takes the running max over all
    parts, each summing w over the runs of starts | cut by bincount."""
    vals = w.values
    parts = _level_starts(lattices)
    best = 0.0
    for cut, _ in parts:
        m = np.zeros(len(vals))
        for starts, width in parts:
            key = np.cumsum(starts | cut) - 1
            np.maximum(m, np.bincount(key, weights=vals)[key] / width, out=m)
        for _, _, cells in _width_groups(_runs(cut)):
            best = max(best, (m[cells].sum(axis=1) / vals[cells].sum(axis=1)).max())
    return float(best)


@pytest.mark.parametrize("cells", [96, 768, 3072])
@pytest.mark.parametrize("kind", ["constant", "power+", "power-", "lognormal1.5",
                                  "lognormal4"])
def test_ainf_constant_equals_all_parts_sweep(cells, kind):
    # the pruned sweep drops only cubes that cannot win, so the floats agree
    d = Domain1D(-8.0, 8.0, cells)
    w = {"constant": lambda: Weight.constant(d, 2.5),
         "power+": lambda: power_weight(0.6, d),
         "power-": lambda: power_weight(-0.6, d),
         "lognormal1.5": lambda: _random_weight(d, cells, spread=1.5),
         "lognormal4": lambda: _random_weight(d, cells + 1, spread=4.0)}[kind]()
    assert ainf_constant(w) == _ainf_all_parts(w, default_lattices(d))
