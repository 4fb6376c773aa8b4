import json

import numpy as np
import pytest

from varharm import (Domain1D, GridFunction, KernelSpec, ScaleFamily,
                     SparseConstructionError, SparseFamily, build_sparse_family,
                     default_lattices, domination_check, lattices_for_domain,
                     sparse_commutator, sparse_commutator_star, sparse_operator,
                     validate_sparse)


def _unit_cube_family():
    """Single-cube family whose cube is exactly [0, 1) on the domain grid."""
    d = Domain1D(-1.0 / 3.0, 1.0, 12)  # h = 1/9, 3N = 36 = 4 * 9
    lat = lattices_for_domain(d, 2)[0]
    q = lat.cube(2, 3)
    assert q.domain_cell_range() == (3, 12)
    assert q.left == pytest.approx(0.0, abs=1e-12)
    assert q.length == pytest.approx(1.0, abs=1e-12)
    s, e = q.root_cell_range()
    fam = SparseFamily(lat, [q], {q: np.arange(s, e)}, eta=0.5)
    return d, q, fam


def test_validate_sparse_accepts_and_rejects():
    d, q, fam = _unit_cube_family()
    assert validate_sparse(fam).ok
    # E_Q escaping the cube
    s, e = q.root_cell_range()
    bad = SparseFamily(fam.lattice, [q], {q: np.arange(s - 1, e)}, eta=0.5)
    assert not validate_sparse(bad).ok
    # E_Q too small for eta = 1/2
    small = SparseFamily(fam.lattice, [q], {q: np.arange(s, s + 3)}, eta=0.5)
    assert not validate_sparse(small).ok


def test_validate_sparse_names_a_shared_cell():
    d, q, fam = _unit_cube_family()
    parent = fam.lattice.cube(1, 1)  # root cells [18, 36), holds q = [27, 36)
    s, e = q.root_cell_range()
    shared = SparseFamily(fam.lattice, [parent, q],
                          {parent: np.arange(18, s + 1), q: np.arange(s, e)}, eta=0.5)
    rep = validate_sparse(shared)
    assert not rep.ok
    assert rep.violations == [((parent, q), f"shared cell {s}")]


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
    assert fam.cubes[0].level == 0
    assert validate_sparse(fam).ok
    assert len(fam.e_sets[fam.cubes[0]]) == lat.root_cells


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
        assert validate_sparse(fam).ok
        assert len(fam.cubes) > 1  # the spike forces a selection
        # selected cubes are nested inside the root and pairwise organized
        root = fam.cubes[0]
        rs, re = root.root_cell_range()
        for cube in fam.cubes[1:]:
            s, e = cube.root_cell_range()
            assert rs <= s < e <= re


def test_builder_stopping_property():
    # every selected cube exceeds its selecting ancestor's threshold
    d = Domain1D(-8.0, 8.0, 384)
    rng = np.random.default_rng(31)
    f = GridFunction(d, rng.standard_normal(d.cells) ** 2 + 0.05)
    lat = default_lattices(d)[1]
    c0 = 2.0
    fam = build_sparse_family(f, lat, c0=c0)
    assert validate_sparse(fam).ok

    def tripled_avg(cube):
        w = cube.width_cells
        start = lat.offset_cells + cube.index * w - w
        s, e = max(start, 0), min(start + 3 * w, d.cells)
        return np.abs(f.values[s:e]).mean() if e > s else 0.0

    by_range = {c.root_cell_range(): c for c in fam.cubes}
    for cube in fam.cubes[1:]:
        s, e = cube.root_cell_range()
        parents = [p for (ps, pe), p in by_range.items()
                   if ps <= s and e <= pe and (pe - ps) > (e - s)]
        tightest = min(parents, key=lambda p: p.width_cells)
        assert tripled_avg(cube) > 2.0 * tripled_avg(tightest) * (1 - 1e-12)


def test_sparse_family_json():
    d, q, fam = _unit_cube_family()
    data = json.loads(fam.to_json())
    assert data["eta"] == 0.5
    assert data["cubes"] == [{"level": 2, "index": 3}]
    (rng,) = data["E"]["2:3"]
    assert rng == [27, 36]


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


def _tripled_avg(f_root, cube):
    s, e = cube.tripled_domain_cell_range()
    if e <= s:
        return 0.0
    return float(np.abs(f_root[s:e]).mean())


def _tree_walk_family(f, lattice, c0=2.0, max_escalations=10):
    """The stopping-time tree walk cube by cube, restarted from the root on
    each threshold doubling: the exactness oracle of the array builder."""
    vals = f.values
    for _ in range(max_escalations + 1):
        root = lattice.cube(0, 0)
        cubes = [root]
        e_sets = {}
        ok = True
        stack = [root]
        while stack and ok:
            q = stack.pop()
            thr = c0 * _tripled_avg(vals, q)
            selected = []
            if q.level < lattice.depth:
                scan = list(q.children())
                while scan:
                    p = scan.pop()
                    if _tripled_avg(vals, p) > thr:
                        selected.append(p)
                    elif p.level < lattice.depth:
                        scan.extend(p.children())
            covered = sum(p.width_cells for p in selected)
            if covered > q.width_cells // 2:
                ok = False
                break
            qs, qe = q.root_cell_range()
            mask = np.ones(qe - qs, dtype=bool)
            for p in selected:
                ps, pe = p.root_cell_range()
                mask[ps - qs:pe - qs] = False
            e_sets[q] = np.flatnonzero(mask) + qs
            cubes.extend(selected)
            stack.extend(selected)
        if ok:
            return SparseFamily(lattice, cubes, e_sets, eta=0.5, c0=c0)
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
                assert set(got.cubes) == set(want.cubes)
                for q in want.cubes:
                    assert np.array_equal(got.e_sets[q], want.e_sets[q])
                assert np.array_equal(sparse_operator(got, f).values,
                                      sparse_operator(want, f).values)
                # every cube is listed after all of its ancestors
                for k, q in enumerate(got.cubes):
                    s, e = q.root_cell_range()
                    for p in got.cubes[k + 1:]:
                        ps, pe = p.root_cell_range()
                        assert not (ps <= s and e <= pe and pe - ps > e - s)
                doublings = int(round(np.log2(want.c0 / c0)))
                if doublings:
                    escalated += 1
                    with pytest.raises(SparseConstructionError):
                        _tree_walk_family(f, lat, c0, max_escalations=doublings - 1)
                    with pytest.raises(SparseConstructionError):
                        build_sparse_family(f, lat, c0, max_escalations=doublings - 1)
    assert escalated > 0
