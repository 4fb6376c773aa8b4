"""Shifted dyadic lattices and the lattice-restricted maximal function.

Three lattices with mutual shifts of one third of the cube length at every
level make every interval comparable to some lattice cube (the one-third
trick), so suprema over "all cubes" are realized over the union of the
three cube sets. The grid alone fixes the lattices: `default_lattices`
builds them at the finest depth whose cube boundaries stay on cell
boundaries, and every cube sweep derives them from its function's domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import Domain1D, GridFunction


@dataclass(frozen=True)
class DyadicLattice:
    """One shifted dyadic system over an enlarged root containing the domain.

    The root has length 3 * len(domain); the three shifts delta in
    {0, 1/3, 2/3} of the root length all keep the domain inside the root.
    Cube boundaries land on grid cell boundaries by construction.
    """

    domain: Domain1D
    shift_index: int  # 0, 1 or 2, shift = shift_index / 3 of the root length

    @property
    def depth(self) -> int:
        """The finest level; the grid fixes it, see max_aligned_depth."""
        return max_aligned_depth(self.domain)

    @property
    def shift(self) -> float:
        return self.shift_index / 3.0

    @property
    def root_cells(self) -> int:
        return 3 * self.domain.cells

    @property
    def root_left(self) -> float:
        # base root [left - 2 len, left + len), shifted right by shift * 3 len
        d = self.domain
        return d.left - 2.0 * d.length + self.shift * 3.0 * d.length

    @property
    def offset_cells(self) -> int:
        """Domain-grid cell index of the root's left edge (<= 0)."""
        return -2 * self.domain.cells + self.shift_index * self.domain.cells

    def width_cells(self, level: int) -> int:
        return self.root_cells // (1 << level)

    def cube(self, level: int, index: int) -> "Cube":
        return Cube(self, level, index)

    def cubes(self):
        """Iterate the cubes meeting the domain, level by level."""
        for level in range(self.depth + 1):
            for j in range(1 << level):
                cube = Cube(self, level, j)
                s, e = cube.domain_cell_range()
                if s < e:
                    yield cube


@dataclass(frozen=True)
class Cube:
    lattice: DyadicLattice
    level: int
    index: int

    def __post_init__(self):
        if not 0 <= self.level <= self.lattice.depth:
            raise ValueError("cube level outside lattice depth")
        if not 0 <= self.index < (1 << self.level):
            raise ValueError("cube index outside level range")

    @property
    def width_cells(self) -> int:
        return self.lattice.width_cells(self.level)

    @property
    def length(self) -> float:
        return self.width_cells * self.lattice.domain.h

    @property
    def left(self) -> float:
        return self.lattice.root_left + self.index * self.length

    @property
    def right(self) -> float:
        return self.left + self.length

    def children(self) -> tuple["Cube", "Cube"]:
        if self.level >= self.lattice.depth:
            raise ValueError("cube at maximum depth has no recorded children")
        return (Cube(self.lattice, self.level + 1, 2 * self.index),
                Cube(self.lattice, self.level + 1, 2 * self.index + 1))

    def root_cell_range(self) -> tuple[int, int]:
        """Half-open cell range in root-grid coordinates (3N cells)."""
        w = self.width_cells
        start = self.index * w
        return start, start + w

    def domain_cell_range(self) -> tuple[int, int]:
        """Half-open cell range in domain coordinates, clipped to [0, N)."""
        w = self.width_cells
        start = self.lattice.offset_cells + self.index * w
        n = self.lattice.domain.cells
        return max(start, 0), min(start + w, n)

    def tripled_domain_cell_range(self) -> tuple[int, int]:
        """Cell range of the concentric tripling 3Q, clipped to the domain."""
        w = self.width_cells
        start = self.lattice.offset_cells + self.index * w - w
        n = self.lattice.domain.cells
        return max(start, 0), min(start + 3 * w, n)


def max_aligned_depth(domain: Domain1D) -> int:
    """Largest depth whose cube boundaries stay on cell boundaries."""
    n3 = 3 * domain.cells
    depth = 0
    while n3 % 2 == 0:
        n3 //= 2
        depth += 1
    return depth


def default_lattices(domain: Domain1D) -> list[DyadicLattice]:
    """The three shifted lattices over an enlarged root containing the domain,
    at the finest depth whose cube boundaries stay on cell boundaries."""
    if max_aligned_depth(domain) == 0:
        raise ValueError(f"3N = {3 * domain.cells} is odd, so no dyadic lattice "
                         "level aligns with the grid")
    return [DyadicLattice(domain, k) for k in range(3)]


def _level_starts(lattices) -> list[tuple[np.ndarray, int]]:
    """(starts, width) per (lattice, level): starts is True on each domain
    cell where a cube of that level begins, the first cell included."""
    parts = []
    for lat in lattices:
        for level in range(lat.depth + 1):
            w = lat.width_cells(level)
            starts = np.zeros(lat.domain.cells, dtype=bool)
            starts[0] = True
            starts[lat.offset_cells % w::w] = True
            parts.append((starts, w))
    return parts


def _runs(starts: np.ndarray) -> np.ndarray:
    """(K, 2) half-open cell ranges into which a start mask cuts the domain."""
    b = np.append(np.flatnonzero(starts), len(starts))
    return np.stack([b[:-1], b[1:]], axis=1)


def cube_domain_ranges(lattices) -> np.ndarray:
    """Deduplicated clipped cell ranges of all lattice cubes meeting the domain,
    as a read-only (K, 2) intp array sorted by (width, start). It is built
    once per tuple of lattices and shared by every caller."""
    return _cube_domain_ranges(tuple(lattices))


@functools.lru_cache(maxsize=4)
def _cube_domain_ranges(lattices: tuple) -> np.ndarray:
    n = lattices[0].domain.cells
    s, e = np.concatenate([_runs(starts) for starts, _ in _level_starts(lattices)]).T
    key = _sorted_unique((e - s) * (n + 1) + s)
    s = key % (n + 1)
    e = s + key // (n + 1)
    assert np.all((0 <= s) & (s < e) & (e <= n))
    ranges = np.stack([s, e], axis=1).astype(np.intp, copy=False)
    ranges.flags.writeable = False
    return ranges


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique by sort and compare: np.unique imports numpy.ma on first call."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _width_groups(ranges):
    """Yields (width, rows, cells) per range width: row i of the index matrix
    cells holds the cells of range rows[i]. Row reductions along axis 1 add
    in the same order as a reduction over the slice of one range."""
    r = np.asarray(ranges, dtype=np.intp).reshape(-1, 2)
    widths = r[:, 1] - r[:, 0]
    for width in _sorted_unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        yield width, rows, r[rows, 0][:, None] + np.arange(width)


def hl_maximal(f: GridFunction) -> GridFunction:
    """Hardy-Littlewood maximal function over shifted-lattice cubes.

    M f(x_i) = max over lattice cubes Q containing x_i of the average of |f|
    over Q (f extended by zero outside the domain, full cube measure).
    """
    parts = _level_starts(default_lattices(f.domain))
    return GridFunction(f.domain, _lattice_maximal(np.abs(f.values), parts))


def _lattice_maximal(a: np.ndarray, parts, cut: np.ndarray | None = None) -> np.ndarray:
    """Running max over the (starts, width) parts of the sum of a over each
    cell's cube over its full width; bincount adds each bin in cell order.
    A start mask cut splits the cubes P further, into Q cap P."""
    out = np.zeros(len(a))
    for starts, width in parts:
        key = np.cumsum(starts if cut is None else starts | cut)  # bin 0 stays empty
        np.maximum(out, (np.bincount(key, weights=a) / width)[key], out=out)
    return out

