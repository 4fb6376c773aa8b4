import math
import subprocess
import sys

import numpy as np
import pytest

from varharm import (Domain1D, GridFunction, KernelSpec, ResolutionError,
                     ScaleFamily, convolve, convolve_family,
                     eval_kernel_dilated, lp_norm, power_weight, weak_l1_norm)
from varharm import grid
from varharm.grid import KERNEL_KINDS


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


def test_convolve_fft_matches_direct():
    d = Domain1D(-8.0, 8.0, 3072)
    rng = np.random.default_rng(4)
    f = GridFunction(d, rng.standard_normal(d.cells))
    for kind in ("gaussian-heat", "poisson"):
        k = KernelSpec(kind)
        a = convolve(f, k, 0.7, method="direct").values
        b = convolve(f, k, 0.7, method="fft").values
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) < 1e-10 * scale


# 2N - 1 just above 2^11 at 1100; 768 is the benchmark's small grid, 96 a coarse one
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


def _block_rows(cells: int) -> int:
    return grid._BLOCK_BYTES // (8 * grid._fft_length(cells))


# scale counts 1, rows - 1, rows, rows + 1 and the default family's
@pytest.mark.parametrize("cells,count", [
    (cells, count) for cells in (96, 768, 3072)
    for count in (1, _block_rows(cells) - 1, _block_rows(cells),
                  _block_rows(cells) + 1, None)])
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
    with pytest.raises(ResolutionError):
        convolve(f, KernelSpec("gaussian-heat"), 1.9 * d.h, method=method)


def test_convolve_family_rejects_unknown_method():
    d = Domain1D(-8.0, 8.0, 96)
    f = GridFunction.indicator(d, -1.0, 1.0)
    fam = ScaleFamily((1.0, 0.5))
    with pytest.raises(ValueError, match="unknown convolution method"):
        convolve_family(f, KernelSpec("gaussian-heat"), fam, method="auto")


def test_import_loads_no_scipy():
    code = ("import sys, varharm.cli; "
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
