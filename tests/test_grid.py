import bisect
import copy
import dataclasses
import math
import pickle
import subprocess
import sys

import numpy as np
import pytest

from varharm import (Domain1D, GridFunction, KernelSpec, ResolutionError,
                     ScaleFamily, convolve, convolve_family,
                     eval_kernel_dilated, lp_norm, power_weight, weak_l1_norm)
from varharm import grid
from varharm.grid import KERNEL_KINDS
from varharm.harness import _MAX_FINEST_CELLS


def test_domain_midpoints():
    d = Domain1D(0.0, 1.0, 4)
    assert d.h == 0.25
    assert np.allclose(d.x(), [0.125, 0.375, 0.625, 0.875])


def test_domain_invalid():
    with pytest.raises(ValueError):
        Domain1D(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        Domain1D(0.0, 1.0, 1)


def test_gridfunction_rejects_nonfinite():
    d = Domain1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        GridFunction(d, np.array([1.0, np.nan, 0.0, 0.0]))


def test_kernel_dilated_values():
    assert eval_kernel_dilated(KernelSpec("gaussian-heat"), 1.0, 0.0) == \
        pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)
    assert eval_kernel_dilated(KernelSpec("poisson"), 2.0, 0.0) == \
        pytest.approx(0.5 / math.pi, abs=1e-12)
    assert eval_kernel_dilated(KernelSpec("gaussian-heat"), 0.5, 0.5) == \
        pytest.approx(2.0 * math.exp(-1.0) / math.sqrt(math.pi), abs=1e-12)


def test_kernel_dilated_rejects_bad_scale():
    with pytest.raises(ValueError):
        eval_kernel_dilated(KernelSpec("poisson"), 0.0, 1.0)


def test_kernel_masses():
    # analytic unit mass, dense quadrature as the check
    x = np.linspace(-30, 30, 600001)
    for kind in ("gaussian-heat", "poisson", "compact-bump"):
        mass = np.trapezoid(KernelSpec(kind).profile(x), x)
        tol = 1e-6 if kind != "poisson" else 0.025  # poisson tail beyond +-30
        assert mass == pytest.approx(1.0, abs=tol)


def test_bump_mass_matches_gauss_legendre():
    # 100-point Gauss-Legendre, independent of the adaptive quadrature that
    # gave the constant; the two agree to 2.5e-16
    x, w = np.polynomial.legendre.leggauss(100)
    mass = float(np.sum(w * np.exp(-1.0 / (1.0 - x * x))))
    assert grid._BUMP_MASS == pytest.approx(mass, rel=1e-15, abs=0.0)


def test_convolve_unit_mass_gaussian():
    d = Domain1D(-8.0, 8.0, 768)
    f = GridFunction(d, np.ones(d.cells))
    c = convolve(f, KernelSpec("gaussian-heat"), 0.5)
    x = d.x()
    interior = np.abs(x) <= 8.0 - 5 * 0.5
    assert np.max(np.abs(c.values[interior] - 1.0)) < 1e-6


def test_convolve_zero():
    d = Domain1D(-8.0, 8.0, 96)
    c = convolve(GridFunction.zero(d), KernelSpec("gaussian-heat"), 1.0)
    assert not np.any(c.values)


def test_convolve_poisson_halfmass():
    d = Domain1D(-8.0, 8.0, 1536)
    f = GridFunction.indicator(d, -1.0, 1.0)
    c = convolve(f, KernelSpec("poisson"), 1.0)
    # closed form: (2/pi) arctan(1) = 1/2 at x = 0
    i = d.cell_of(0.0)
    assert c.values[i] == pytest.approx(0.5, abs=1e-3)


def test_convolve_resolution_error():
    d = Domain1D(-8.0, 8.0, 96)
    with pytest.raises(ResolutionError):
        convolve(GridFunction.zero(d), KernelSpec("gaussian-heat"), d.h)


def test_convolve_linearity():
    d = Domain1D(-8.0, 8.0, 192)
    rng = np.random.default_rng(3)
    f = GridFunction(d, rng.standard_normal(d.cells))
    g = GridFunction(d, rng.standard_normal(d.cells))
    k = KernelSpec("gaussian-heat")
    lhs = convolve(GridFunction(d, 2.0 * f.values - 3.0 * g.values), k, 0.5)
    rhs = 2.0 * convolve(f, k, 0.5).values - 3.0 * convolve(g, k, 0.5).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12


# 1100 takes a 9 * 2^8 FFT length (2N - 1 = 2199 just above 2^11); 768 is the
# benchmark's small grid, 96 a coarse one
@pytest.mark.parametrize("cells", [3072, 1100, 768, 96])
def test_convolve_family_fft_matches_direct_every_kernel(cells):
    d = Domain1D(-8.0, 8.0, cells)
    rng = np.random.default_rng(cells)
    f = GridFunction(d, rng.standard_normal(d.cells))
    fam = ScaleFamily((4.0, math.sqrt(8.0 * d.h), 2.0 * d.h))
    for kind in KERNEL_KINDS:
        k = KernelSpec(kind)
        a = convolve_family(f, k, fam, method="direct")
        b = convolve_family(f, k, fam, method="fft")
        assert a.shape == b.shape == (cells, 3)
        for col in range(3):
            scale = np.max(np.abs(a[:, col]))
            assert np.max(np.abs(a[:, col] - b[:, col])) < 1e-10 * scale


def test_fft_length_is_the_smallest_2a3b_above_2n_minus_1():
    smooth = sorted(2 ** a * 3 ** b for a in range(19) for b in range(12)
                    if 2 ** a * 3 ** b <= 2 ** 18)
    for cells in range(16, 4097, 2):
        assert grid._fft_length(cells) == smooth[bisect.bisect_left(smooth, 2 * cells - 1)]
    assert [grid._fft_length(n) for n in (3072, 768, 1100)] == [6144, 1536, 2304]
    # the noise floor's log2 L <= 17 bound (variation._NOISE_FLOOR)
    assert all(grid._fft_length(n) <= 2 ** 17 for n in range(2, _MAX_FINEST_CELLS + 1))


@pytest.mark.parametrize("cells", [96, 768, 1100, 3072])
def test_kernel_samples_mirror_the_nonnegative_offsets_bit_for_bit(cells):
    d = Domain1D(-8.0, 8.0, cells)
    diffs = np.arange(-(cells - 1), cells) * d.h
    scales = (4.0, math.sqrt(8.0 * d.h), 2.0 * d.h)
    for kind in KERNEL_KINDS:
        k = KernelSpec(kind)
        expect = np.stack([eval_kernel_dilated(k, t, diffs) for t in scales])
        assert np.array_equal(grid._kernel_samples(k, scales, d), expect)


def _block_rows(length: int) -> int:
    return grid._BLOCK_BYTES // (8 * length)


def _block_counts(cells: int) -> list:
    # rows - 1, rows, rows + 1 at the transform length, and at the power-of-two
    # length 2^ceil(log2(2N - 1)), whose boundaries fall inside a single block
    counts = {1}
    for length in (grid._fft_length(cells), 1 << (2 * cells - 2).bit_length()):
        rows = _block_rows(length)
        counts.update((rows - 1, rows, rows + 1))
    return sorted(counts) + [None]


# scale counts around the block boundaries and the default family's
@pytest.mark.parametrize("cells,count", [
    (cells, count) for cells in (96, 768, 3072) for count in _block_counts(cells)])
def test_convolve_family_blocks_equal_one_transform(cells, count):
    d = Domain1D(-8.0, 8.0, cells)
    fam = (ScaleFamily.for_domain(d) if count is None
           else ScaleFamily(tuple(np.geomspace(4.0, 3.0 * d.h, count))))
    rng = np.random.default_rng(cells)
    f = GridFunction(d, rng.standard_normal(cells))
    size, n = grid._fft_length(cells), cells
    for kind in ("gaussian-heat", "poisson"):
        k = KernelSpec(kind)
        spectra = np.fft.rfft(grid._kernel_samples(k, fam.scales, d), n=size, axis=-1)
        full = np.fft.irfft(spectra * np.fft.rfft(f.values, n=size), n=size, axis=-1)
        expect = (d.h * full[:, n - 1:2 * n - 1]).T
        assert np.array_equal(convolve_family(f, k, fam), expect)


def test_convolve_family_result_does_not_alias_the_workspace():
    d = Domain1D(-8.0, 8.0, 768)
    rng = np.random.default_rng(5)
    f, g = (GridFunction(d, rng.standard_normal(d.cells)) for _ in range(2))
    k, fam = KernelSpec("gaussian-heat"), ScaleFamily.for_domain(d)
    first = convolve_family(f, k, fam)
    kept = first.copy()
    second = convolve_family(g, k, fam)
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)
    for buf in grid._kernel_spectra(k, fam.scales, d)[1:]:
        assert not np.shares_memory(first, buf)
        assert not np.shares_memory(second, buf)


@pytest.mark.parametrize("method", ["direct", "fft"])
def test_convolve_family_resolution_error(method):
    d = Domain1D(-8.0, 8.0, 96)
    f = GridFunction.indicator(d, -1.0, 1.0)
    fam = ScaleFamily((1.0, 1.9 * d.h))
    with pytest.raises(ResolutionError):
        convolve_family(f, KernelSpec("gaussian-heat"), fam, method=method)


def test_convolve_family_rejects_unknown_method():
    d = Domain1D(-8.0, 8.0, 96)
    f = GridFunction.indicator(d, -1.0, 1.0)
    fam = ScaleFamily((1.0, 0.5))
    with pytest.raises(ValueError, match="unknown convolution method"):
        convolve_family(f, KernelSpec("gaussian-heat"), fam, method="auto")


def test_import_loads_no_scipy():
    code = ("import sys, varharm.cli; "
            "varharm.KernelSpec('compact-bump').profile(0.0); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_lp_norm_indicator():
    d = Domain1D(-2.0, 2.0, 64)
    f = GridFunction.indicator(d, 0.0, 1.0)
    assert lp_norm(f, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert lp_norm(GridFunction.zero(d), 1.0) == 0.0


def test_lp_norm_power_weight():
    d = Domain1D(-2.0, 2.0, 8192)
    f = GridFunction.indicator(d, 0.0, 1.0)
    w = power_weight(0.5, d, floor=1e-9)
    assert lp_norm(f, 1.0, w) == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_lp_norm_homogeneity_and_monotonicity():
    d = Domain1D(-2.0, 2.0, 64)
    rng = np.random.default_rng(5)
    f = GridFunction(d, rng.standard_normal(d.cells))
    g = GridFunction(d, np.abs(f.values) + 0.5)
    for p in (0.7, 1.0, 2.0, 4.0):
        assert lp_norm(GridFunction(d, 3.0 * f.values), p) == \
            pytest.approx(3.0 * lp_norm(f, p), rel=1e-12)
        assert lp_norm(f, p) <= lp_norm(g, p)


def test_weak_l1_examples():
    d = Domain1D(0.0, 4.0, 4)  # unit cells
    f = GridFunction(d, np.array([3.0, 1.0, 1.0, 1.0]))
    assert weak_l1_norm(f) == pytest.approx(4.0, abs=1e-12)
    ind = GridFunction(d, np.array([1.0, 1.0, 0.0, 0.0]))
    assert weak_l1_norm(ind) == pytest.approx(2.0, abs=1e-12)
    assert weak_l1_norm(GridFunction.zero(d)) == 0.0


def test_scale_family_validation():
    with pytest.raises(ValueError):
        ScaleFamily((1.0, 2.0))
    with pytest.raises(ValueError):
        ScaleFamily((1.0, -0.5))
    fam = ScaleFamily.geometric(4.0, 0.5, 6, t_min=0.2)
    assert all(t >= 0.2 for t in fam)
    assert len(fam.refine()) == 2 * len(fam) - 1


def test_equal_grids_kernels_and_scales_compare_and_hash_equal():
    # equal instances built apart must compare and hash equal, also when
    # rebuilt by copy, pickle or dataclasses.replace
    d, d2 = Domain1D(-8.0, 8.0, 768), Domain1D(-8, 8, 768)
    fam = ScaleFamily.for_domain(d)
    pairs = [(d, d2), (KernelSpec("poisson"), KernelSpec("poisson")),
             (fam, ScaleFamily.for_domain(d2)), (fam, ScaleFamily(list(fam))),
             (fam.refine(), ScaleFamily.for_domain(d2).refine()),
             (ScaleFamily.geometric(4.0, 0.85, 48, t_min=2.0 * d.h), fam)]
    for a, b in pairs:
        for c in (b, copy.deepcopy(b), pickle.loads(pickle.dumps(b)), dataclasses.replace(b)):
            assert a == c and hash(a) == hash(c) and c is not a
        assert {a: 1}[b] == 1
    assert fam != fam.refine() and d != Domain1D(-8.0, 8.0, 384)
    assert KernelSpec("poisson") != KernelSpec("gaussian-heat")
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.cells = 96


def test_csv_round_trip(tmp_path):
    d = Domain1D(-1.0, 1.0, 16)
    rng = np.random.default_rng(7)
    f = GridFunction(d, rng.standard_normal(d.cells))
    path = tmp_path / "f.csv"
    f.to_csv(path)
    g = GridFunction.read_csv(path)
    assert np.array_equal(f.values, g.values)
    assert g.domain.cells == d.cells
    assert g.domain.left == pytest.approx(d.left, abs=1e-12)


def test_read_csv_skips_blank_lines_and_names_bad_rows(tmp_path):
    path = tmp_path / "w.csv"
    path.write_bytes(b"x,value\r\n0.1,1\r\n\r\n0.3,2\r\n0.5,3\n\n  \n")
    g = GridFunction.read_csv(path)
    assert np.array_equal(g.values, [1.0, 2.0, 3.0])
    assert g.domain.cells == 3
    for body, message in [("0.1,1\n0.3\n", "line 3: expected 2 comma-separated values, got 1"),
                          ("0.1,1,2\n0.3,1\n", "line 2: expected 2 comma-separated values, got 3"),
                          ("0.1,1\n\n0.3,abc\n", "line 4: not a number in '0.3,abc'"),
                          ("0.1,1\n0.3,1\nnan,1\n0.7,1\n", "not a uniform grid")]:
        path.write_text("x,value\n" + body)
        with pytest.raises(ValueError, match=message):
            GridFunction.read_csv(path)
