"""Lattice cubes one by one, from level and index arithmetic alone: the cube
enumeration of the oracles, independent of the mask sweeps of varharm.lattice."""


def lattice_cubes(lat):
    """Yields (s, e, width) for each cube of lat that meets the domain, level by
    level: cube j of a level covers the domain cells offset_cells + j * width +
    [0, width), and [s, e) is that range clipped to the domain."""
    n = lat.domain.cells
    for level in range(lat.depth + 1):
        w = lat.width_cells(level)
        for j in range(1 << level):
            start = lat.offset_cells + j * w
            s, e = max(start, 0), min(start + w, n)
            if s < e:
                yield s, e, w
