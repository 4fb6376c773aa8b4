import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varharm import (Ball, Domain1D, GridFunction, KernelSpec, ScaleFamily,
                     commutator_family, commutator_family_direct,
                     commutator_variation, convolve_family,
                     kernel_difference_variation, make_atom, power_weight,
                     seq_variation_bruteforce, seq_variation_dp, sgn_atom,
                     variation_operator)
from varharm.grid import KERNEL_KINDS
from varharm.harness import battery_generate
from varharm.variation import (_NOISE_FLOOR, _turning_points,
                               _variation_dp_batch, _variation_dp_full,
                               _zero_noise)


def test_seq_variation_hand_examples():
    assert seq_variation_dp([5.0], 2.0) == 0.0
    assert seq_variation_dp([1.0, 1.0, 1.0], 3.0) == 0.0
    # monotone sequence: best subsequence is the endpoints, value 3
    assert seq_variation_dp([0.0, 1.0, 2.0, 3.0], 2.0) == pytest.approx(3.0, abs=1e-12)
    # alternating: take all four points, (3 * 1^2)^(1/2)
    assert seq_variation_dp([1.0, 0.0, 1.0, 0.0], 2.0) == \
        pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_seq_variation_bruteforce_matches_hand_examples():
    assert seq_variation_bruteforce([0.0, 1.0, 2.0, 3.0], 2.0) == \
        pytest.approx(3.0, abs=1e-12)
    assert seq_variation_bruteforce([1.0, 0.0, 1.0, 0.0], 2.0) == \
        pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_seq_variation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        seq_variation_dp([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        seq_variation_bruteforce([1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        seq_variation_bruteforce(list(range(16)), 2.0)
    with pytest.raises(ValueError):
        seq_variation_dp(np.zeros((2, 2)), 2.0)


def test_seq_variation_dp_matches_bruteforce_random():
    rng = np.random.default_rng(20240901)
    for _ in range(120):
        m = rng.integers(2, 13)
        a = rng.standard_normal(m)
        rho = rng.choice([1.5, 2.5, 4.0])
        dp = seq_variation_dp(a, rho)
        bf = seq_variation_bruteforce(a, rho)
        assert dp == pytest.approx(bf, rel=1e-12, abs=1e-12)


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=10),
       st.floats(1.1, 6.0))
@settings(max_examples=60, deadline=None)
def test_seq_variation_properties(a, rho):
    v = seq_variation_dp(a, rho)
    # reversal invariance
    assert seq_variation_dp(a[::-1], rho) == pytest.approx(v, rel=1e-10, abs=1e-10)
    # monotone nonincreasing in rho
    assert seq_variation_dp(a, rho + 0.5) <= v + 1e-9 * (1.0 + v)
    # dominated below by the total spread (two-point subsequence)
    spread = max(a) - min(a)
    assert v >= spread - 1e-9 * (1.0 + spread)
    # homogeneity
    assert seq_variation_dp([3.0 * x for x in a], rho) == \
        pytest.approx(3.0 * v, rel=1e-10, abs=1e-10)


def _dp_last_axis(a, rho):
    """The DP in its earlier last-axis layout: the same arithmetic."""
    best = np.zeros(a.shape)
    for i in range(1, a.shape[-1]):
        inc = np.abs(a[..., i:i + 1] - a[..., :i]) ** rho
        best[..., i] = (best[..., :i] + inc).max(axis=-1)
    return best.max(axis=-1) ** (1.0 / rho)


def test_variation_dp_batch_equals_rows_exactly():
    rng = np.random.default_rng(21)
    for a in (rng.standard_normal((40, 9)), rng.standard_normal((3, 40, 9))):
        rows = a.reshape(-1, a.shape[-1])
        for rho in (1.5, 3.0):
            got = _variation_dp_batch(a, rho)
            assert got.shape == a.shape[:-1]
            assert np.array_equal(got, _dp_last_axis(a, rho))
            flat = got.reshape(-1)
            assert np.array_equal(flat, [_variation_dp_batch(r[None], rho)[0]
                                         for r in rows])
            # seq_variation_dp takes its final root of a numpy scalar, which
            # may round differently from the array loop in the last bit
            seq = np.array([seq_variation_dp(r, rho) for r in rows])
            assert np.max(np.abs(flat - seq) / seq) <= 4 * np.finfo(float).eps


def _turning_point_rows(rng, m):
    """Rows that stress the turning-point reduction, 240 of length m."""
    ties = rng.integers(0, 3, (40, m)).astype(float)
    ties[::2] = np.repeat(ties[::2, ::4], 4, axis=1)[:, :m]  # long plateaus
    return np.concatenate([
        rng.standard_normal((40, m)),
        ties,
        rng.integers(-1, 2, (40, m)) * 1e-17,
        # one-ulp wiggles on a plateau at 1, as FFT round-off leaves them
        1.0 + rng.integers(-2, 3, (40, m)) * np.finfo(float).eps,
        np.cumsum(rng.standard_normal((40, m)), axis=1),
        np.sin(np.linspace(0.0, 9.0, m) + rng.random((40, 1))),
    ])


def test_turning_points_keep_ends_and_first_entries_of_extrema():
    rows = np.array([[0, 1, 1, 2, 1, 1, 1, 3],
                     [3, 1, 1, 1, 1, 1, 1, 1],
                     [0, 2, 2, 2, 2, 2, 2, 2],
                     [5, 5, 5, 5, 5, 5, 5, 5],
                     [0, 1, 2, 3, 4, 5, 6, 7],
                     [0, 1, 0, 1, 0, 1, 0, 1]], dtype=float)
    keep = _turning_points(rows.T)
    assert [np.flatnonzero(r).tolist() for r in keep] == [
        [0, 3, 4, 7], [0, 7], [0, 7], [0, 7], [0, 7], list(range(8))]


@pytest.mark.parametrize("m", [0, 1, 2, 3, 37])
def test_variation_dp_batch_equals_full_dp_exactly(m):
    rng = np.random.default_rng(60 + m)
    rows = _turning_point_rows(rng, m)
    for rho in (1.5, 2.5, 3.0):
        for a in (rows, np.asfortranarray(rows), rows.reshape(4, 60, m),
                  np.asfortranarray(rows.reshape(4, 60, m))):
            got = _variation_dp_batch(a, rho)
            assert got.shape == a.shape[:-1]
            assert np.array_equal(got, _variation_dp_full(a, rho))
        # |x|^rho overflows to inf on both paths alike
        with np.errstate(over="ignore"):
            huge = _variation_dp_batch(rows * 1e300, rho)
            assert np.array_equal(huge, _variation_dp_full(rows * 1e300, rho))
        assert m < 2 or np.isinf(huge).any()


def test_variation_dp_batch_keeps_every_point_of_nonfinite_rows():
    rng = np.random.default_rng(66)
    a = rng.standard_normal((6, 9))
    a[0, 4] = np.nan
    a[1, 2:4] = np.inf  # adjacent equal infinities: inf - inf is NaN
    a[2, [1, 6]] = -np.inf
    a[3, [0, 8]] = np.inf
    with np.errstate(invalid="ignore"):
        got = _variation_dp_batch(a, 3.0)
        assert np.array_equal(got, _variation_dp_full(a, 3.0), equal_nan=True)
    assert np.isnan(got[:2]).all() and np.isfinite(got[4:]).all()


@pytest.mark.parametrize("cells", [768, 3072])
def test_variation_dp_batch_equals_full_dp_on_fft_families(cells):
    d = Domain1D(-8.0, 8.0, cells)
    fam = ScaleFamily.for_domain(d)
    rng = np.random.default_rng(67)
    # phi_t * 1_[-1,1] is a plateau at 1 for small t, wiggling in the last bit
    funcs = (GridFunction.indicator(d, -1.0, 1.0),
             GridFunction(d, rng.standard_normal(cells)))
    for kind in KERNEL_KINDS:
        for f in funcs:
            convs = convolve_family(f, KernelSpec(kind), fam)
            assert convs.flags.f_contiguous
            for rho in (2.5, 3.0):
                assert np.array_equal(_variation_dp_batch(convs, rho),
                                      _variation_dp_full(convs, rho))


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_variation_dp_batch_memory_stays_near_full_dp():
    d = Domain1D(-8.0, 8.0, 3072)
    fam = ScaleFamily.for_domain(d)
    f = GridFunction.indicator(d, -1.0, 1.0)
    for kind in KERNEL_KINDS:
        convs = convolve_family(f, KernelSpec(kind), fam)
        assert convs.shape == (3072, 37) and convs.flags.f_contiguous
        full = _traced_peak(_variation_dp_full, convs, 3.0)
        assert _traced_peak(_variation_dp_batch, convs, 3.0) <= 1.25 * full


def test_seq_variation_pointwise_bound():
    # sup_t |a_t| <= |a_{t0}| + V_rho(a) for any anchor t0
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.standard_normal(10)
        v = seq_variation_dp(a, 3.0)
        assert np.max(np.abs(a)) <= np.min(np.abs(a)) + v + 1e-12


def test_variation_operator_zero_and_constant():
    d = Domain1D(-8.0, 8.0, 192)
    k = KernelSpec("gaussian-heat")
    fam = ScaleFamily.for_domain(d, t_max=1.0, count=8)
    z = variation_operator(GridFunction.zero(d), k, fam, 3.0)
    assert not np.any(z.values)
    # unit-mass kernel on a constant: family is near-constant in t away from
    # the boundary, so the variation is tiny there
    c = variation_operator(GridFunction(d, np.ones(d.cells)), k, fam, 3.0)
    interior = np.abs(d.x()) <= 2.0
    assert np.max(c.values[interior]) < 1e-6


def test_variation_operator_homogeneity_and_subadditivity():
    d = Domain1D(-8.0, 8.0, 192)
    k = KernelSpec("gaussian-heat")
    fam = ScaleFamily.for_domain(d, count=10)
    rng = np.random.default_rng(9)
    f = GridFunction(d, rng.standard_normal(d.cells))
    g = GridFunction(d, rng.standard_normal(d.cells))
    vf = variation_operator(f, k, fam, 3.0).values
    vg = variation_operator(g, k, fam, 3.0).values
    v2f = variation_operator(GridFunction(d, -2.0 * f.values), k, fam, 3.0).values
    assert np.max(np.abs(v2f - 2.0 * vf)) < 1e-10 * (1.0 + np.max(vf))
    vsum = variation_operator(GridFunction(d, f.values + g.values), k, fam, 3.0).values
    assert np.all(vsum <= vf + vg + 1e-10)


def test_variation_refinement_monotonicity():
    d = Domain1D(-8.0, 8.0, 192)
    k = KernelSpec("gaussian-heat")
    coarse = ScaleFamily.geometric(4.0, 0.6, 6, t_min=2 * d.h)
    fine = ScaleFamily(tuple(sorted(set(coarse.scales) |
                                    {0.5 * (a + b) for a, b in
                                     zip(coarse.scales, coarse.scales[1:])},
                                    reverse=True)))
    f = GridFunction.indicator(d, -1.0, 1.0)
    va = variation_operator(f, k, coarse, 3.0).values
    vb = variation_operator(f, k, fine, 3.0).values
    assert np.all(va <= vb + 1e-12)


def test_variation_pointwise_family_bound():
    # max_t |phi_t * f| <= min_t |phi_t * f| + V_rho pointwise
    d = Domain1D(-8.0, 8.0, 192)
    k = KernelSpec("poisson")
    fam = ScaleFamily.for_domain(d, count=12)
    rng = np.random.default_rng(10)
    f = GridFunction(d, rng.standard_normal(d.cells))
    convs = convolve_family(f, k, fam)
    v = variation_operator(f, k, fam, 3.0).values
    slack = np.abs(convs).max(axis=1) - np.abs(convs).min(axis=1)
    assert np.all(slack <= v + 1e-9)


def test_commutator_constant_b_annihilates_exactly():
    d = Domain1D(-8.0, 8.0, 192)
    k = KernelSpec("gaussian-heat")
    fam = ScaleFamily.for_domain(d, count=8)
    rng = np.random.default_rng(13)
    f = GridFunction(d, rng.standard_normal(d.cells))
    b = GridFunction(d, np.full(d.cells, 2.7))
    cf = commutator_family(f, b, k, fam)
    assert not np.any(cf)  # bit-exact zero
    v = commutator_variation(f, b, k, fam, 3.0)
    assert not np.any(v.values)


def test_commutator_zero_f():
    d = Domain1D(-8.0, 8.0, 96)
    k = KernelSpec("gaussian-heat")
    fam = ScaleFamily.for_domain(d, count=6)
    b = GridFunction(d, d.x())
    cf = commutator_family(GridFunction.zero(d), b, k, fam)
    assert not np.any(cf)


def test_commutator_matches_direct_assembly():
    d = Domain1D(-8.0, 8.0, 192)
    k = KernelSpec("gaussian-heat")
    fam = ScaleFamily((2.0, 1.0, 0.5))
    rng = np.random.default_rng(14)
    f = GridFunction(d, rng.standard_normal(d.cells))
    b = GridFunction(d, np.sin(d.x()))
    cf = commutator_family(f, b, k, fam)
    for col, t in enumerate(fam):
        direct = commutator_family_direct(f, b, k, t)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(cf[:, col] - direct)) < 1e-10 * scale


def test_commutator_with_precomputed_family_is_bit_identical():
    d = Domain1D(-8.0, 8.0, 3072)
    k = KernelSpec("gaussian-heat")
    fam = ScaleFamily.for_domain(d)
    rng = np.random.default_rng(16)
    f = GridFunction(d, rng.standard_normal(d.cells))
    conv_f = convolve_family(f, k, fam)
    for b in (GridFunction(d, np.sin(d.x())), GridFunction(d, d.x())):
        assert np.array_equal(commutator_family(f, b, k, fam, conv_f=conv_f),
                              commutator_family(f, b, k, fam))
        assert np.array_equal(commutator_variation(f, b, k, fam, 3.0, conv_f=conv_f).values,
                              commutator_variation(f, b, k, fam, 3.0).values)
    with pytest.raises(ValueError, match="conv_f has shape"):
        commutator_family(f, b, k, fam, conv_f=conv_f[:, 1:])


def test_commutator_bilinearity():
    d = Domain1D(-8.0, 8.0, 96)
    k = KernelSpec("gaussian-heat")
    fam = ScaleFamily.for_domain(d, count=6)
    rng = np.random.default_rng(15)
    f = GridFunction(d, rng.standard_normal(d.cells))
    b = GridFunction(d, np.cos(d.x()))
    one = commutator_family(f, b, k, fam)
    scaled = commutator_family(GridFunction(d, 3.0 * f.values), b, k, fam)
    assert np.max(np.abs(scaled - 3.0 * one)) < 1e-12


def test_kernel_difference_variation():
    k = KernelSpec("gaussian-heat")
    fam = ScaleFamily.geometric(8.0, 0.8, 24, t_min=0.05)
    # z = xi: the difference sequence vanishes identically
    assert kernel_difference_variation(k, 1.0, 1.0, 4.0, fam, 2.0) == 0.0
    with pytest.raises(ValueError):
        kernel_difference_variation(k, 1.0, 1.1, 1.0, fam, 2.0)
    v_lo = kernel_difference_variation(k, 1.0, 1.2, 5.0, fam, 4.0)
    v_hi = kernel_difference_variation(k, 1.0, 1.2, 5.0, fam, 1.5)
    assert 0.0 < v_lo <= v_hi + 1e-12  # nonincreasing in rho


# the floor may only zero entries that the direct sum puts within twice it
# of zero; fewer functions and columns at N = 3072 keep the direct sums quick
@pytest.mark.parametrize("cells, count", [(96, 12), (768, 12), (3072, 3)])
def test_noise_floor_zeroes_only_unresolved_convolutions(cells, count):
    d = Domain1D(-8.0, 8.0, cells)
    fam = ScaleFamily.for_domain(d)
    zeroed, noise = 0, 0.0
    for kind in KERNEL_KINDS:
        for _, f in battery_generate("mixed", 20240901, d, count):
            convs = convolve_family(f, KernelSpec(kind), fam)
            floor = _NOISE_FLOOR * np.abs(convs).max()
            gone = (_zero_noise(convs.copy()) == 0) & (convs != 0)
            direct = convolve_family(f, KernelSpec(kind), fam, method="direct")
            assert np.all(np.abs(direct[gone]) <= 2.0 * floor)
            zeroed += gone.sum()
            noise = max(noise, np.abs(convs - direct).max() / floor)
    # the FFT's round-off stays under the floor, and within a factor 8 of it
    assert zeroed > 0 and 0.125 <= noise <= 1.0


@pytest.mark.parametrize("cells, count, step", [(96, 3, 1), (768, 3, 6), (3072, 1, 18)])
def test_noise_floor_zeroes_only_unresolved_commutators(cells, count, step):
    d = Domain1D(-8.0, 8.0, cells)
    fam = ScaleFamily.for_domain(d)
    x = d.x()
    bs = [GridFunction(d, v) for v in (np.log(np.abs(x)), np.sign(x), np.sin(3.0 * x))]
    # an indicator, a bump and an oscillatory function
    funcs = [f for _, f in battery_generate("mixed", 20240901, d, 12)[::4][:count]]
    zeroed = 0
    for kind in ("gaussian-heat", "poisson", "compact-bump"):
        k = KernelSpec(kind)
        for f in funcs:
            for b in bs:
                cf = commutator_family(f, b, k, fam)
                floor = _NOISE_FLOOR * np.abs(cf).max()
                gone = (_zero_noise(cf.copy()) == 0) & (cf != 0)
                # the finest scale, where the floor zeroes most, and every step-th
                for col in range(len(fam) - 1, -1, -step):
                    if gone[:, col].any():
                        direct = commutator_family_direct(f, b, k, fam.scales[col])
                        assert np.all(np.abs(direct[gone[:, col]]) <= 2.0 * floor)
                        zeroed += gone[:, col].sum()
    assert zeroed > 0


def test_noise_floor_keeps_zero_families_and_constant_b_commutators():
    assert not np.any(_zero_noise(np.zeros((96, 7))))
    assert _zero_noise(np.zeros((0, 3))).shape == (0, 3)
    d = Domain1D(-8.0, 8.0, 3072)
    fam = ScaleFamily.for_domain(d)
    f = GridFunction.indicator(d, -1.0, 1.0)
    b = GridFunction(d, np.full(d.cells, 3.5))
    for kind in ("gaussian-heat", "poisson", "compact-bump"):
        k = KernelSpec(kind)
        assert not np.any(_zero_noise(commutator_family(f, b, k, fam)))
        assert not np.any(commutator_variation(f, b, k, fam, 3.0).values)


def test_noise_floor_leaves_nonfinite_families_untouched():
    rng = np.random.default_rng(68)
    fam = rng.standard_normal((40, 9))
    fam[::3] *= 1e-20  # far below the floor of a finite max
    assert np.any(_zero_noise(fam.copy()) == 0)
    for bad in (np.nan, np.inf, -np.inf):
        a = fam.copy()
        a[5, 4] = a[17, 2] = bad
        got = _zero_noise(a.copy())
        assert np.array_equal(got.view(np.int64), a.view(np.int64))  # bit for bit
        # the DP keeps every entry of the sequences that hold them
        assert _turning_points(got.T)[[5, 17]].all()


def test_noise_floor_is_applied_before_the_dp():
    d = Domain1D(-8.0, 8.0, 768)
    fam = ScaleFamily.for_domain(d)
    f = GridFunction.indicator(d, -1.0, 1.0)
    b = GridFunction(d, np.sin(3.0 * d.x()))
    k = KernelSpec("compact-bump")
    convs = convolve_family(f, k, fam)
    assert np.array_equal(variation_operator(f, k, fam, 3.0).values,
                          _variation_dp_batch(_zero_noise(convs.copy()), 3.0))
    cf = commutator_family(f, b, k, fam)
    assert np.array_equal(commutator_variation(f, b, k, fam, 3.0).values,
                          _variation_dp_batch(_zero_noise(cf.copy()), 3.0))
    # the floor removes turning points: the noise it zeroes is not resolved
    assert _turning_points(_zero_noise(convs.copy()).T).sum() < _turning_points(convs.T).sum()


@pytest.mark.parametrize("cells", [96, 768])
def test_profiles_are_positively_homogeneous_on_atom_shapes(cells):
    # the harness scales one profile per atom shape by each atom's factor
    d = Domain1D(-8.0, 8.0, cells)
    fam = ScaleFamily.for_domain(d)
    w = power_weight(0.3, d)
    ball = Ball(0.5, 1.0)
    b = GridFunction(d, np.sin(3.0 * d.x()))
    shapes = (make_atom(1.0, 2.0, 0, w, ball, seed=5).shape, sgn_atom(b, ball, w).shape)
    for kind in ("gaussian-heat", "poisson", "compact-bump"):
        k = KernelSpec(kind)
        for f in shapes:
            if kind != "poisson":  # the Poisson tails stay above the floor
                for fam_f in (convolve_family(f, k, fam), commutator_family(f, b, k, fam)):
                    assert np.any((_zero_noise(fam_f.copy()) == 0) & (fam_f != 0))
            v = variation_operator(f, k, fam, 3.0).values
            cv = commutator_variation(f, b, k, fam, 3.0).values
            for c in (1e-3, 0.125, 7.5):
                cf = GridFunction(d, c * f.values)
                got = variation_operator(cf, k, fam, 3.0).values
                assert np.abs(got - c * v).max() <= 1e-12 * c * v.max()
                got = commutator_variation(cf, b, k, fam, 3.0).values
                assert np.abs(got - c * cv).max() <= 1e-12 * c * cv.max()
