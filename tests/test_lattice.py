import subprocess
import sys

import numpy as np
import pytest

from varharm import (AlignmentError, Domain1D, GridFunction,
                     cube_domain_ranges, default_lattices, hl_maximal,
                     lattices_for_domain, max_aligned_depth)
from varharm.lattice import _sorted_unique


def test_alignment_error():
    d = Domain1D(-8.0, 8.0, 100)  # 3N = 300 not divisible by 32
    with pytest.raises(AlignmentError):
        lattices_for_domain(d, 5)


def test_max_aligned_depth():
    assert max_aligned_depth(Domain1D(0.0, 1.0, 96)) == 5   # 288 = 2^5 * 9
    assert max_aligned_depth(Domain1D(0.0, 1.0, 3)) == 0    # 9 odd
    assert max_aligned_depth(Domain1D(0.0, 1.0, 3072)) == 10


def test_roots_contain_domain_and_relative_shifts():
    d = Domain1D(-8.0, 8.0, 96)
    lats = lattices_for_domain(d, 5)
    root_len = 3 * d.length
    for lat in lats:
        assert lat.root_left <= d.left
        assert lat.root_left + root_len >= d.left + d.length
    # mutual shifts are one third of the root length
    assert lats[1].root_left - lats[0].root_left == pytest.approx(root_len / 3)
    assert lats[2].root_left - lats[1].root_left == pytest.approx(root_len / 3)


def test_cube_geometry_and_children_partition():
    d = Domain1D(-8.0, 8.0, 96)
    lat = lattices_for_domain(d, 5)[1]
    q = lat.cube(2, 1)
    a, b = q.children()
    assert a.root_cell_range()[0] == q.root_cell_range()[0]
    assert a.root_cell_range()[1] == b.root_cell_range()[0]
    assert b.root_cell_range()[1] == q.root_cell_range()[1]
    assert a.length == pytest.approx(q.length / 2)
    with pytest.raises(ValueError):
        lat.cube(2, 4)
    with pytest.raises(ValueError):
        lat.cube(6, 0)


def test_one_third_trick_exhaustive():
    # every grid interval of moderate width sits inside some cube of at most
    # six times its length, across the three shifted lattices
    d = Domain1D(0.0, 3.0, 24)  # 3N = 72 = 2^3 * 9, depth 3, deepest width 9
    lats = lattices_for_domain(d, 3)
    n = d.cells
    cube_spans = []  # in domain cell coordinates, unclipped
    for lat in lats:
        for level in range(lat.depth + 1):
            w = lat.width_cells(level)
            for j in range(1 << level):
                s = lat.offset_cells + j * w
                cube_spans.append((s, s + w))
    for width in range(5, 19):  # >= deepest_width/2, <= root_cells/4
        for s in range(0, n - width + 1):
            e = s + width
            ok = any(cs <= s and e <= ce and (ce - cs) <= 6 * width
                     for cs, ce in cube_spans)
            assert ok, f"interval [{s},{e}) has no 6x covering cube"


def test_hl_maximal_of_constant_is_one():
    d = Domain1D(-8.0, 8.0, 96)
    f = GridFunction(d, np.ones(d.cells))
    m = hl_maximal(f)
    assert np.all(m.values == 1.0)


def test_hl_maximal_indicator_at_distance():
    # chi_[0,1] evaluated at x = 2: the best lattice cube is [0, 3) from the
    # shifted system, giving average exactly 1/3
    d = Domain1D(-8.0, 8.0, 384)
    f = GridFunction.indicator(d, 0.0, 1.0)
    m = hl_maximal(f)
    assert m.values[d.cell_of(2.0)] == pytest.approx(1.0 / 3.0, abs=1e-12)
    # the all-intervals oracle does better: best interval is [0, 2 + h],
    # 24 mass cells out of 49
    mo = hl_maximal(f, exhaustive=True)
    assert mo.values[d.cell_of(2.0)] == pytest.approx(24.0 / 49.0, abs=1e-12)


def test_hl_maximal_dominated_by_exhaustive():
    d = Domain1D(-8.0, 8.0, 192)
    rng = np.random.default_rng(11)
    f = GridFunction(d, rng.standard_normal(d.cells))
    a = hl_maximal(f).values
    b = hl_maximal(f, exhaustive=True).values
    assert np.all(a <= b + 1e-12)
    assert np.all(b >= np.abs(f.values) - 1e-12)  # single cells are intervals


def test_hl_maximal_dominates_cube_averages():
    d = Domain1D(-8.0, 8.0, 96)
    rng = np.random.default_rng(12)
    f = GridFunction(d, rng.standard_normal(d.cells))
    m = hl_maximal(f).values
    a = np.abs(f.values)
    for lat in default_lattices(d):
        for cube in lat.cubes():
            s, e = cube.domain_cell_range()
            avg = a[s:e].sum() / cube.width_cells
            assert np.all(m[s:e] >= avg - 1e-12)


@pytest.mark.parametrize("cells", [96, 384])
@pytest.mark.parametrize("kind", ["signed", "lognormal", "indicator"])
def test_hl_maximal_equals_python_cube_sums(cells, kind):
    # independent exact oracle: left-to-right Python float sums of |f| over
    # each cube's domain cells, divided by the full cube width
    d = Domain1D(-8.0, 8.0, cells)
    rng = np.random.default_rng(cells)
    f = {"signed": lambda: GridFunction(d, rng.standard_normal(cells)),
         "lognormal": lambda: GridFunction(d, np.exp(1.5 * rng.standard_normal(cells))),
         "indicator": lambda: GridFunction.indicator(d, -1.0, 1.0)}[kind]()
    a = np.abs(f.values).tolist()
    expect = np.zeros(cells)
    for lat in default_lattices(d):
        for cube in lat.cubes():
            s, e = cube.domain_cell_range()
            total = 0.0
            for v in a[s:e]:
                total += v
            expect[s:e] = np.maximum(expect[s:e], total / cube.width_cells)
    assert np.array_equal(hl_maximal(f).values, expect)


def test_exhaustive_oracle_rejects_large_grids():
    d = Domain1D(-8.0, 8.0, 3072)
    with pytest.raises(ValueError):
        hl_maximal(GridFunction.zero(d), exhaustive=True)


def test_cube_domain_ranges_dedup_and_bounds():
    d = Domain1D(-8.0, 8.0, 96)
    lats = default_lattices(d)
    ranges = cube_domain_ranges(lats)
    assert ranges.dtype == np.intp and ranges.shape[1] == 2
    ranges = ranges.tolist()
    assert len(ranges) == len(set(map(tuple, ranges)))
    assert all(0 <= s < e <= d.cells for s, e in ranges)


@pytest.mark.parametrize("cells", [96, 768, 3072])
def test_cube_domain_ranges_equal_cube_enumeration(cells):
    d = Domain1D(-8.0, 8.0, cells)
    lats = default_lattices(d)
    seen = {cube.domain_cell_range() for lat in lats for cube in lat.cubes()}
    expect = sorted(seen, key=lambda r: (r[1] - r[0], r[0]))
    got = cube_domain_ranges(lats)
    assert got.dtype == np.intp
    assert got.tolist() == [list(r) for r in expect]


@pytest.mark.parametrize("cells", [96, 3072])
def test_cube_domain_ranges_equal_np_unique_dedupe(cells):
    # the sort-and-compare dedupe returns what np.unique of the keys returned
    d = Domain1D(-8.0, 8.0, cells)
    lats = default_lattices(d)
    n = d.cells
    keys = [(e - s) * (n + 1) + s for lat in lats for cube in lat.cubes()
            for s, e in [cube.domain_cell_range()]]
    key = np.unique(np.array(keys))
    start = key % (n + 1)
    expect = list(zip(start.tolist(), (start + key // (n + 1)).tolist()))
    got = cube_domain_ranges(lats)
    assert got.dtype == np.intp
    assert got.tolist() == [list(r) for r in expect]
    rng = np.random.default_rng(3)
    for a in (np.array([], dtype=np.intp), np.array([7]), rng.integers(0, 40, 500),
              rng.integers(-10**12, 10**12, 300)):
        assert np.array_equal(_sorted_unique(a), np.unique(a))


def test_cube_domain_ranges_is_one_cached_read_only_array():
    d = Domain1D(-8.0, 8.0, 96)
    ranges = cube_domain_ranges(default_lattices(d))
    # a new list of equal lattices hits the cache, and no caller can change it
    assert cube_domain_ranges(default_lattices(d)) is ranges
    assert ranges.dtype == np.intp and not ranges.flags.writeable
    with pytest.raises(ValueError):
        ranges[0, 0] = 1
    other = cube_domain_ranges(default_lattices(Domain1D(-8.0, 8.0, 48)))
    assert other is not ranges and other[-1, 1] == 48


def test_cube_sweeps_load_no_numpy_ma():
    # np.unique imports numpy.ma on its first call; the cube sweeps avoid it
    code = ("import sys, varharm as v; d = v.Domain1D(-8.0, 8.0, 96); "
            "lats = v.default_lattices(d); f = v.GridFunction.indicator(d, -1.0, 1.0); "
            "v.bmo_nu_norm(f, v.Weight.constant(d), v.cube_domain_ranges(lats)); "
            "v.build_sparse_family(f, lats[0]); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
