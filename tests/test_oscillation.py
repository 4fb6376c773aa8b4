import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varharm import (Ball, Domain1D, GridFunction, ResolutionError, Weight,
                     WitnessPlacementError, bmo_nu_equivalence, bmo_nu_norm,
                     cal_bmo_omega_norm, cube_domain_ranges, cube_measures,
                     cube_oscillations, default_lattices, harness, is_median,
                     local_mean_oscillation, median, oscillation_witness,
                     parse_config, power_weight)


def _cells_of(domain, left, right):
    return domain.cell_of(left), domain.cell_of(right - domain.h / 2) + 1


def test_ball_cell_range():
    d = Domain1D(-8.0, 8.0, 384)
    assert Ball(0.0, 1.0).cell_range(d) == (168, 216)
    assert Ball(8.0, 2.0).cell_range(d) == (336, 384)  # clipped at the edge
    with pytest.raises(ValueError):
        Ball(0.0, -1.0)
    with pytest.raises(ValueError):
        Ball(100.0, 1.0).cell_range(d)


def test_bmo_nu_norm():
    d = Domain1D(-8.0, 8.0, 384)
    step = GridFunction.indicator(d, 0.0, 1.0)
    q = _cells_of(d, 0.0, 2.0)
    # with nu = 1 the weighted norm over Q is osc integral / |Q| = 1/2... times
    # |Q|/nu(Q) = 1, matching the unweighted value
    one = Weight.constant(d)
    assert bmo_nu_norm(step, one, [q]) == pytest.approx(0.5, abs=1e-12)
    # general nu: value is (integral of |b - mean|) / nu(Q) = 1 / nu(Q)
    nu = power_weight(0.5, d)
    expect = 1.0 / nu.measure(*q)
    assert bmo_nu_norm(step, nu, [q]) == pytest.approx(expect, rel=1e-12)
    assert bmo_nu_norm(GridFunction.zero(d), nu, [q]) == 0.0


def test_cal_bmo_omega_closed_form():
    # b = chi_[0,1], w = 1, B = [0,2) centered at 1 on [-8, 8]:
    # tail integral = ln 9 + ln 7, oscillation integral = 1, w(B) = 2
    d = Domain1D(-8.0, 8.0, 3072)
    b = GridFunction.indicator(d, 0.0, 1.0)
    w = Weight.constant(d)
    rep = cal_bmo_omega_norm(b, w, [Ball(1.0, 1.0)])
    expect = math.log(9.0 * 7.0) / 2.0
    assert rep.norm == pytest.approx(expect, abs=1e-4)
    assert rep.truncated
    const = GridFunction(d, np.ones(d.cells))
    assert cal_bmo_omega_norm(const, w, [Ball(1.0, 1.0)]).norm == 0.0


def test_median_examples():
    d = Domain1D(0.0, 4.0, 4)
    f = GridFunction(d, np.array([3.0, 1.0, 2.0, 5.0]))
    m = median(f, np.arange(4))
    assert m == 2.0  # lower median of {1,2,3,5}
    assert is_median(f, np.arange(4), m)
    g = GridFunction(d, np.array([0.0, 0.0, 1.0, 1.0]))
    assert median(g, np.arange(4)) == 0.0  # lower convention on ties
    assert is_median(g, np.arange(4), 0.0)
    assert is_median(g, np.arange(4), 0.5)
    assert not is_median(g, np.arange(4), 2.0)
    with pytest.raises(ValueError):
        median(f, np.array([], dtype=int))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_median_is_always_a_median(vals):
    d = Domain1D(0.0, 1.0, max(len(vals), 2))
    arr = np.zeros(d.cells)
    arr[:len(vals)] = vals
    f = GridFunction(d, arr)
    cells = np.arange(len(vals))
    assert is_median(f, cells, median(f, cells))


def test_local_mean_oscillation_examples():
    d = Domain1D(-8.0, 8.0, 384)
    const = GridFunction(d, np.full(d.cells, 3.0))
    q = _cells_of(d, 0.0, 2.0)
    assert local_mean_oscillation(const, q, 0.125) == 0.0
    # chi_[0,1] on [0,2): any c leaves half the cells at distance >= 1/2,
    # and tau |Q| with tau = 1/8 falls inside that half, so a_tau = 1/2
    step = GridFunction.indicator(d, 0.0, 1.0)
    assert local_mean_oscillation(step, q, 0.125) == pytest.approx(0.5, abs=1e-12)
    # monotone nonincreasing in tau
    rng = np.random.default_rng(41)
    f = GridFunction(d, rng.standard_normal(d.cells))
    a_small = local_mean_oscillation(f, q, 0.0625)
    a_big = local_mean_oscillation(f, q, 0.25)
    assert a_big <= a_small + 1e-12
    with pytest.raises(ResolutionError):
        local_mean_oscillation(f, (0, 4), 0.125)
    with pytest.raises(ValueError):
        local_mean_oscillation(f, q, 0.0)


def test_local_mean_oscillation_matches_slow_scan():
    # independent oracle: dense c-grid refinement around the sample range
    d = Domain1D(0.0, 1.0, 24)
    rng = np.random.default_rng(42)
    f = GridFunction(d, rng.standard_normal(d.cells))
    q = (0, 24)
    tau = 0.25
    got = local_mean_oscillation(f, q, tau)
    vals = f.values
    k = int(math.floor(tau * 24 + 1e-12)) + 1
    lo, hi = vals.min() - 1.0, vals.max() + 1.0
    best = math.inf
    for c in np.linspace(lo, hi, 200001):
        a = np.abs(vals - c)
        best = min(best, float(np.partition(a, 24 - k)[24 - k]))
    assert got <= best + 1e-12
    assert got == pytest.approx(best, abs=1e-4)


def test_bmo_nu_equivalence_reports():
    d = Domain1D(-8.0, 8.0, 384)
    ranges = cube_domain_ranges(default_lattices(d))
    nu = Weight.constant(d)
    const = GridFunction(d, np.full(d.cells, 1.5))
    rep = bmo_nu_equivalence(const, nu, ranges)
    assert rep.degenerate and math.isnan(rep.ratio)
    step = GridFunction.indicator(d, 0.0, 1.0)
    rep = bmo_nu_equivalence(step, nu, ranges)
    assert not rep.degenerate
    assert rep.lhs > 0 and rep.rhs > 0
    # scaling b leaves the ratio unchanged
    rep2 = bmo_nu_equivalence(GridFunction(d, 5.0 * step.values), nu, ranges)
    assert rep2.ratio == pytest.approx(rep.ratio, rel=1e-10)


def test_oscillation_witness_step_function():
    d = Domain1D(-8.0, 8.0, 512)
    b = GridFunction(d, np.where(d.x() > 4.0, 3.0, 0.0))
    # Q = 64 cells straddling the jump at x = 4; P = Q shifted 256 cells left
    qs = d.cell_of(4.0) - 32
    q = (qs, qs + 64)
    res = oscillation_witness(b, q, tau=0.125, delta_param=2.5)
    assert not res.degenerate
    assert res.p_range == (qs - 256, qs + 64 - 256)
    assert len(res.e_cells) == 4    # tau |Q| / 2
    assert len(res.f_cells) == 32   # |P| / 2
    assert res.a_tau > 0
    assert res.sign in (-1, 1)
    # exhaustive independent pair check
    for xe in res.e_cells:
        for yf in res.f_cells:
            gap = res.sign * (b.values[xe] - b.values[yf])
            assert gap >= res.a_tau - 1e-12
    # the test function is a normalized indicator of F
    assert np.count_nonzero(res.f_test.values) == 32
    mass = res.f_test.values[res.f_cells[0]]
    assert mass == pytest.approx(1.0 / (32 * d.h), rel=1e-12)


def test_oscillation_witness_weighted_test_function():
    d = Domain1D(-8.0, 8.0, 512)
    rng = np.random.default_rng(43)
    b = GridFunction(d, np.cumsum(rng.standard_normal(d.cells)) * 0.1)
    qs = d.cell_of(4.0) - 32
    q = (qs, qs + 64)
    mu = power_weight(0.3, d)
    res = oscillation_witness(b, q, tau=0.125, delta_param=2.5, mu=mu, p=2.0)
    mu_f = float(mu.values[res.f_cells].sum() * d.h)
    got = res.f_test.values[res.f_cells[0]]
    assert got == pytest.approx(mu_f ** -0.5, rel=1e-12)


def test_oscillation_witness_errors():
    d = Domain1D(-8.0, 8.0, 512)
    b = GridFunction(d, np.sin(d.x()))
    with pytest.raises(ValueError):
        # tau |Q| not an even integer
        oscillation_witness(b, (300, 320), tau=0.125, delta_param=2.5)
    with pytest.raises(WitnessPlacementError):
        # P would start left of the domain
        oscillation_witness(b, (0, 64), tau=0.125, delta_param=2.5)
    const = GridFunction(d, np.ones(d.cells))
    res = oscillation_witness(const, (300, 364), tau=0.125, delta_param=2.5)
    assert res.degenerate and res.sign == 0 and res.a_tau == 0.0


def _sweeps_per_range(b, nu, ranges, tau):
    """Range-by-range oracle for cube_oscillations, bmo_nu_norm and the rhs
    of bmo_nu_equivalence: the recentred mean and the sorted-sample window
    minimum taken on each slice on its own. Each range is also checked
    alone, since a last-bit change need not move the sup."""
    h = b.domain.h
    bmo_nu = rhs = 0.0
    for s, e in ranges:
        v = b.values[s:e]
        dev = np.abs(v - (v[0] + (v - v[0]).mean()))
        assert cube_oscillations(b, [(s, e)]).tolist() == [dev.sum() * h]
        assert cube_measures(nu, [(s, e)]).tolist() == [nu.measure(s, e)]
        assert bmo_nu_norm(b, nu, [(s, e)]) == max(0.0, dev.sum() * h / nu.measure(s, e))
        bmo_nu = max(bmo_nu, dev.sum() * h / nu.measure(s, e))
        k_cells = e - s
        if tau * k_cells >= 1.0:
            k = min(int(math.floor(tau * k_cells + 1e-12)) + 1, k_cells)
            m = k_cells - k + 1
            sv = np.sort(v)
            a = float((sv[m - 1:] - sv[:k_cells - m + 1]).min()) / 2.0
            assert local_mean_oscillation(b, (s, e), tau) == a
            rhs = max(rhs, k_cells * h / nu.measure(s, e) * a)
    return bmo_nu, rhs


@pytest.mark.parametrize("cells, all_intervals", [(384, False), (48, True)])
@pytest.mark.parametrize("tau", [0.125, 0.3])
def test_range_sweeps_equal_per_range_loops(cells, all_intervals, tau):
    d = Domain1D(-8.0, 8.0, cells)
    if all_intervals:
        ranges = [(s, e) for s in range(cells) for e in range(s + 1, cells + 1)]
    else:
        ranges = cube_domain_ranges(default_lattices(d))
    rng = np.random.default_rng(cells)
    nu = Weight(d, np.exp(rng.standard_normal(cells)))
    x = d.x()
    for b in (GridFunction(d, rng.standard_normal(cells)),
              GridFunction(d, np.sin(3.0 * x) + 0.1 * x),
              GridFunction.indicator(d, 0.0, 1.0)):
        bmo_nu, rhs = _sweeps_per_range(b, nu, ranges, tau)
        assert bmo_nu_norm(b, nu, ranges) == bmo_nu
        # a precomputed oscillation gives the same floats, for list and array ranges
        for rs in (ranges, np.array(ranges)):
            assert bmo_nu_norm(b, nu, rs, osc=cube_oscillations(b, rs)) == bmo_nu
            assert bmo_nu_norm(b, nu, rs, measure=cube_measures(nu, rs)) == bmo_nu
        usable = [(s, e) for s, e in ranges if tau * (e - s) >= 1.0]
        rep = bmo_nu_equivalence(b, nu, ranges, tau=tau)
        assert rep.lhs == bmo_nu_norm(b, nu, usable)
        assert rep.rhs == rhs


def test_e5_bmo_norms_from_shared_measures_equal_range_by_range_oracle(monkeypatch):
    # E5 at N = 768: 7 Bloom weights and 4 b's, each oscillation and each
    # nu(Q) computed once and shared by the 28 norms
    norms, calls = [], {cube_oscillations: 0, cube_measures: 0}

    def recorded(b, nu, ranges, *shared):
        norms.append((b, nu, ranges, bmo_nu_norm(b, nu, ranges, *shared)))
        return norms[-1][-1]

    def counted(fn):
        def call(*args):
            calls[fn] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(harness, "bmo_nu_norm", recorded)
    for fn in calls:
        monkeypatch.setattr(harness, fn.__name__, counted(fn))
    cfg = parse_config("experiment = E5\ncells = 768\n")
    harness._run_e5(harness.RunContext(cfg), harness.RatioTable("E5"))
    d = cfg.domain()
    bs = dict(harness._oscillatory_battery(d, 3, np.random.default_rng(cfg.seed))
              + [("b=x", GridFunction(d, d.x()))])
    assert len(bs) == 4
    assert {b.values.tobytes() for b, *_ in norms} == {b.values.tobytes() for b in bs.values()}
    assert len({nu.values.tobytes() for _, nu, *_ in norms}) == 7 and len(norms) == 28
    assert len({(b.values.tobytes(), nu.values.tobytes()) for b, nu, *_ in norms}) == 28
    assert calls == {cube_oscillations: 4, cube_measures: 7}
    # the recentred mean and nu(Q) taken on each slice on its own, as in
    # _sweeps_per_range
    for b, nu, ranges, got in norms:
        osc = [np.abs(v - (v[0] + (v - v[0]).mean())).sum() * d.h
               for v in (b.values[s:e] for s, e in ranges)]
        assert got == max(o / nu.measure(s, e) for o, (s, e) in zip(osc, ranges))


def test_range_sweeps_over_no_ranges():
    d = Domain1D(-8.0, 8.0, 48)
    b = GridFunction(d, d.x())
    nu = Weight.constant(d)
    assert bmo_nu_norm(b, nu, []) == 0.0
    assert cube_oscillations(b, []).shape == (0,)
    assert bmo_nu_norm(b, nu, [], osc=cube_oscillations(b, [])) == 0.0
    assert cube_measures(nu, []).shape == (0,)
    rep = bmo_nu_equivalence(b, nu, [])
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.degenerate
