import numpy as np
import pytest

from varharm import (ETA, Domain1D, GridFunction, KernelSpec, ScaleFamily,
                     SparseConstructionError, SparseFamily, build_sparse_family,
                     default_lattices, domination_check, sparse_commutator,
                     sparse_commutator_star, sparse_operator, validate_sparse)


def _unit_cube_family():
    """Single-cube family whose cube is exactly [0, 1) on the domain grid."""
    d = Domain1D(-1.0 / 3.0, 1.0, 12)  # h = 1/9, 3N = 36 = 4 * 9
    lat = default_lattices(d)[0]
    w = lat.width_cells(2)
    q = (3 * w, 4 * w)  # cube (2, 3) in root cells
    assert (lat.offset_cells + q[0], lat.offset_cells + q[1]) == (3, 12)
    assert d.left + (lat.offset_cells + q[0]) * d.h == pytest.approx(0.0, abs=1e-12)
    assert w * d.h == pytest.approx(1.0, abs=1e-12)
    fam = SparseFamily(lat, np.array([q]), _owner_map(lat, [range(*q)]))
    return d, q, fam


def _owner_map(lattice, sets):
    """The owner map of the root cells: row k for the cells of sets[k], -1 elsewhere."""
    owner = np.full(lattice.root_cells, -1, dtype=np.intp)
    for k, e in enumerate(sets):
        owner[list(e)] = k
    return owner


def _sets_by_cube(family):
    """Each cube's E_Q as read off the owner map, keyed by its root-grid range."""
    return {tuple(q): np.flatnonzero(family.owner == k)
            for k, q in enumerate(family.cubes.tolist())}


def test_validate_sparse_accepts_and_rejects():
    d, q, fam = _unit_cube_family()
    assert validate_sparse(fam) == []
    s, e = q
    # a cell of E_Q placed outside the cube, next to it and at the far end of the root
    for cell in (s - 1, 0):
        owner = fam.owner.copy()
        owner[cell] = 0
        bad = SparseFamily(fam.lattice, fam.cubes, owner)
        assert validate_sparse(bad) == [(0, "E_Q not contained in Q")]
    # E_Q too small for eta = 1/2, and emptied
    for cells, size in ((range(s, s + 3), 3), ((), 0)):
        small = SparseFamily(fam.lattice, fam.cubes, _owner_map(fam.lattice, [cells]))
        assert validate_sparse(small) == [(0, f"|E_Q| = {size} < eta |Q| = {ETA * (e - s)}")]
    # both faults on one row, and a sound row beside it
    parent = (18, 36)  # cube (1, 1) in root cells, holds q = [27, 36)
    owner = _owner_map(fam.lattice, [range(18, s), [0, *range(s + 6, e)]])
    both = SparseFamily(fam.lattice, np.array([parent, q]), owner)
    assert validate_sparse(both) == [(1, "E_Q not contained in Q"),
                                     (1, f"|E_Q| = 4 < eta |Q| = {ETA * (e - s)}")]


def test_sparse_operator_single_cube():
    d, q, fam = _unit_cube_family()
    f = GridFunction.indicator(d, 0.0, 1.0)
    out = sparse_operator(fam, f)
    assert np.array_equal(out.values[:3], np.zeros(3))
    assert np.allclose(out.values[3:], 1.0, atol=1e-12)
    assert not np.any(sparse_operator(fam, GridFunction.zero(d)).values)
    doubled = sparse_operator(fam, GridFunction(d, 2.0 * f.values))
    assert np.max(np.abs(doubled.values - 2.0 * out.values)) < 1e-12


def test_sparse_commutator_single_cube_closed_form():
    # S = {Q}, Q = [0,1), b = x, f = chi_Q: T_{S,b} f = |x - 1/2| on Q
    d, q, fam = _unit_cube_family()
    b = GridFunction(d, d.x())
    f = GridFunction.indicator(d, 0.0, 1.0)
    out = sparse_commutator(fam, b, f)
    x = d.x()
    assert np.max(np.abs(out.values[3:] - np.abs(x[3:] - 0.5))) < 1e-12
    assert not np.any(out.values[:3])
    # T*_{S,b} f = <|x - 1/2|>_Q chi_Q = (20/81) chi_Q on the 9-cell grid
    star = sparse_commutator_star(fam, b, f)
    assert np.allclose(star.values[3:], 20.0 / 81.0, atol=1e-12)


def test_sparse_commutator_constant_b_annihilates_exactly():
    d, q, fam = _unit_cube_family()
    f = GridFunction.indicator(d, 0.0, 1.0)
    for c in (2.7, 0.1, -13.25):
        b = GridFunction(d, np.full(d.cells, c))
        assert not np.any(sparse_commutator(fam, b, f).values)
        assert not np.any(sparse_commutator_star(fam, b, f).values)


def test_builder_constant_function_keeps_only_root():
    d = Domain1D(-8.0, 8.0, 96)
    lat = default_lattices(d)[0]
    fam = build_sparse_family(GridFunction(d, np.ones(d.cells)), lat)
    assert len(fam.cubes) == 1
    assert fam.cubes.tolist() == [[0, lat.root_cells]]  # the level-0 cube
    assert validate_sparse(fam) == []
    assert np.array_equal(fam.owner, np.zeros(lat.root_cells, dtype=np.intp))


def test_builder_rejects_bad_input():
    d = Domain1D(-8.0, 8.0, 96)
    lat = default_lattices(d)[0]
    with pytest.raises(ValueError):
        build_sparse_family(GridFunction.zero(d), lat)
    with pytest.raises(ValueError):
        build_sparse_family(GridFunction.indicator(d, 0.0, 1.0), lat, c0=1.0)


def test_builder_spike_function_validates_on_all_lattices():
    d = Domain1D(-8.0, 8.0, 384)
    vals = GridFunction.indicator(d, -1.0, 1.0).values + \
        8.0 * GridFunction.indicator(d, 2.0, 2.25).values
    f = GridFunction(d, vals)
    for lat in default_lattices(d):
        fam = build_sparse_family(f, lat)
        assert validate_sparse(fam) == []
        assert len(fam.cubes) > 1  # the spike forces a selection
        # selected cubes are nested inside the root and pairwise organized
        rs, re = fam.cubes[0].tolist()
        for s, e in fam.cubes[1:].tolist():
            assert rs <= s < e <= re


def test_builder_stopping_property():
    # every selected cube exceeds its selecting ancestor's threshold
    d = Domain1D(-8.0, 8.0, 384)
    rng = np.random.default_rng(31)
    f = GridFunction(d, rng.standard_normal(d.cells) ** 2 + 0.05)
    lat = default_lattices(d)[1]
    c0 = 2.0
    fam = build_sparse_family(f, lat, c0=c0)
    assert validate_sparse(fam) == []

    def tripled_avg(cube):
        qs, qe = cube
        w = qe - qs
        start = lat.offset_cells + qs - w
        s, e = max(start, 0), min(start + 3 * w, d.cells)
        return np.abs(f.values[s:e]).mean() if e > s else 0.0

    cubes = [tuple(c) for c in fam.cubes.tolist()]
    for cube in cubes[1:]:
        s, e = cube
        parents = [(ps, pe) for ps, pe in cubes
                   if ps <= s and e <= pe and (pe - ps) > (e - s)]
        tightest = min(parents, key=lambda p: p[1] - p[0])
        assert tripled_avg(cube) > 2.0 * tripled_avg(tightest) * (1 - 1e-12)


def test_domination_check_indicator():
    d = Domain1D(-8.0, 8.0, 384)
    f = GridFunction.indicator(d, -1.0, 1.0)
    fam = ScaleFamily.for_domain(d, t_max=2.0, count=12)
    rep = domination_check(f, KernelSpec("gaussian-heat"), fam, 3.0)
    assert rep.n_failures == 0
    assert 0.0 < rep.max_ratio < 100.0
    assert len(rep.family_sizes) == 3
    # lattices 0 and 2 escalate once: 2 -> 4
    assert rep.c0_used == [4.0, 2.0, 4.0]


def _root_range(lattice, q):
    """Root-grid cells [j w, (j + 1) w) of cube q = (level, j)."""
    w = lattice.width_cells(q[0])
    return q[1] * w, (q[1] + 1) * w


def _children(q):
    return [(q[0] + 1, 2 * q[1]), (q[0] + 1, 2 * q[1] + 1)]


def _tripled_avg(lattice, f_root, q):
    """Mean of |f| over the domain cells of 3Q, 0 where 3Q misses the domain."""
    s, e = _root_range(lattice, q)
    w = e - s
    s, e = max(lattice.offset_cells + s - w, 0), min(lattice.offset_cells + e + w, len(f_root))
    if e <= s:
        return 0.0
    return float(np.abs(f_root[s:e]).mean())


def _tree_walk_family(f, lattice, c0=2.0, max_escalations=10):
    """The stopping-time tree walk cube by cube over (level, index) pairs,
    restarted from the root on each threshold doubling: the exactness oracle
    of the array builder. Returns the family in the walk's order, its sets
    E_Q as an owner map."""
    vals = f.values
    for _ in range(max_escalations + 1):
        root = (0, 0)
        cubes = [root]
        e_q = {}
        ok = True
        stack = [root]
        while stack and ok:
            q = stack.pop()
            thr = c0 * _tripled_avg(lattice, vals, q)
            selected = []
            if q[0] < lattice.depth:
                scan = _children(q)
                while scan:
                    p = scan.pop()
                    if _tripled_avg(lattice, vals, p) > thr:
                        selected.append(p)
                    elif p[0] < lattice.depth:
                        scan.extend(_children(p))
            covered = sum(lattice.width_cells(p[0]) for p in selected)
            if covered > lattice.width_cells(q[0]) // 2:
                ok = False
                break
            qs, qe = _root_range(lattice, q)
            mask = np.ones(qe - qs, dtype=bool)
            for p in selected:
                ps, pe = _root_range(lattice, p)
                mask[ps - qs:pe - qs] = False
            e_q[q] = np.flatnonzero(mask) + qs
            cubes.extend(selected)
            stack.extend(selected)
        if ok:
            return SparseFamily(lattice, np.array([_root_range(lattice, q) for q in cubes]),
                                _owner_map(lattice, [e_q[q] for q in cubes]), c0)
        c0 *= 2.0
    raise SparseConstructionError("escalation cap")


def _oracle_inputs(d):
    rng = np.random.default_rng(20240901)
    spike = GridFunction.indicator(d, -1.0, 1.0).values + \
        8.0 * GridFunction.indicator(d, 2.0, 2.25).values
    return {"indicator": GridFunction.indicator(d, -1.0, 1.0),
            "spike": GridFunction(d, spike),
            "random": GridFunction(d, rng.standard_normal(d.cells))}


@pytest.mark.parametrize("cells", [96, 384])
def test_builder_equals_tree_walk_oracle(cells):
    d = Domain1D(-8.0, 8.0, cells)
    escalated = 0
    for f in _oracle_inputs(d).values():
        for lat in default_lattices(d):
            for c0 in (2.0, 1.5, 1.1):
                want = _tree_walk_family(f, lat, c0)
                got = build_sparse_family(f, lat, c0)
                assert got.c0 == want.c0
                assert got.cubes.dtype == np.intp and got.cubes.shape[1] == 2
                assert got.owner.dtype == np.intp and got.owner.shape == (lat.root_cells,)
                # every root cell lies in some E_Q
                assert got.owner.min() >= 0 and want.owner.min() >= 0
                got_rows, want_rows = _sets_by_cube(got), _sets_by_cube(want)
                assert set(got_rows) == set(want_rows)
                for q in want_rows:
                    assert np.array_equal(got_rows[q], want_rows[q])
                assert np.array_equal(sparse_operator(got, f).values,
                                      sparse_operator(want, f).values)
                # every cube is listed after all of its ancestors
                rows = got.cubes.tolist()
                for k, (s, e) in enumerate(rows):
                    for ps, pe in rows[k + 1:]:
                        assert not (ps <= s and e <= pe and pe - ps > e - s)
                doublings = int(round(np.log2(want.c0 / c0)))
                if doublings:
                    escalated += 1
                    with pytest.raises(SparseConstructionError):
                        _tree_walk_family(f, lat, c0, max_escalations=doublings - 1)
                    with pytest.raises(SparseConstructionError):
                        build_sparse_family(f, lat, c0, max_escalations=doublings - 1)
    assert escalated > 0
