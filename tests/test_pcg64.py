import hashlib
import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varharm import (Ball, Domain1D, GridFunction, battery_generate, make_atom,
                     power_weight, pcg64)
from varharm.harness import _mixed_battery
from varharm.pcg64 import Uniforms

# the edges of SeedSequence's 32-bit words and of its 4-word pool, then the
# config seeds of benchmarks/run.py and their successors, which E5 draws from
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 + 3, 2**200]
BENCH_SEEDS = [20240901, 8, 12, 13, 17, 20, 22, 38]


def _same_stream(seed: int, draws: int) -> bool:
    ours, numpy_rng = Uniforms(seed), np.random.default_rng(seed)
    return all(ours.random() == numpy_rng.random() for _ in range(draws))


@pytest.mark.parametrize("seed", EDGE_SEEDS + BENCH_SEEDS + [s + 1 for s in BENCH_SEEDS])
def test_uniforms_equal_numpy_default_rng(seed):
    assert _same_stream(seed, 1000)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**160 - 1))
def test_uniforms_equal_numpy_default_rng_for_any_seed(seed):
    assert _same_stream(seed, 64)


def test_uniforms_reject_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Uniforms(-1)
    with pytest.raises(TypeError):
        Uniforms(1.5)


def test_uniforms_draw_in_the_unit_interval():
    u = Uniforms(20240901)
    draws = [u.random() for _ in range(2000)]
    assert all(isinstance(x, float) and 0.0 <= x < 1.0 for x in draws)
    assert 0.45 < sum(draws) / len(draws) < 0.55


def test_battery_from_a_numpy_generator_equals_the_seeded_battery():
    d = Domain1D(-8.0, 8.0, 192)
    ours = battery_generate("mixed", 42, d, count=9)
    theirs = _mixed_battery(d, 9, np.random.default_rng(42))
    assert [fid for fid, _ in ours] == [fid for fid, _ in theirs]
    for (_, f), (_, g) in zip(ours, theirs):
        assert np.array_equal(f.values, g.values)


# E3 draws its atoms from seed + i for its radii i = 0, 1, ...
NORMAL_SEEDS = list(dict.fromkeys(EDGE_SEEDS + [s + i for s in BENCH_SEEDS for i in range(7)]))


def _same_normals(seed: int, draws: int) -> bool:
    ours, numpy_rng = Uniforms(seed), np.random.default_rng(seed)
    return [ours.standard_normal() for _ in range(draws)] == numpy_rng.standard_normal(draws).tolist()


@pytest.mark.parametrize("seed", NORMAL_SEEDS)
def test_normals_equal_numpy_default_rng(seed):
    assert _same_normals(seed, 500)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**160 - 1))
def test_normals_equal_numpy_default_rng_for_any_seed(seed):
    assert _same_normals(seed, 64)


def test_normals_and_uniforms_share_one_stream_as_in_numpy():
    ours, numpy_rng = Uniforms(13), np.random.default_rng(13)
    for _ in range(200):
        assert ours.standard_normal() == numpy_rng.standard_normal()
        assert ours.random() == numpy_rng.random()


@pytest.mark.parametrize("seed", [0, 20240901, 2**64])
def test_normals_equal_numpy_on_both_slow_paths(seed, monkeypatch):
    # the tail (layer 0) is the only caller of log1p, the wedge test of exp
    calls = {"log1p": 0, "exp": 0}

    def counted(name):
        def fn(x):
            calls[name] += 1
            return getattr(math, name)(x)
        return fn

    monkeypatch.setattr(pcg64, "math", types.SimpleNamespace(
        log1p=counted("log1p"), exp=counted("exp")))
    assert _same_normals(seed, 20000)
    assert calls["log1p"] >= 2 and calls["exp"] > 0


@pytest.mark.parametrize("cells", [96, 768])
def test_make_atom_equals_the_atom_from_numpy_normals(cells, monkeypatch):
    d = Domain1D(-8.0, 8.0, cells)
    w = power_weight(-0.3, d)
    cases = [(ball, s, seed) for ball in (Ball(0.0, 1.0), Ball(-2.0, 0.5), Ball(7.5, 2.0))
             for s, seed in ((0, 20240901), (1, 13), (2, 2**64))]
    ours = [make_atom(1.0, 2.0, s, w, ball, seed) for ball, s, seed in cases]
    monkeypatch.setattr(pcg64, "Uniforms", np.random.default_rng)
    theirs = [make_atom(1.0, 2.0, s, w, ball, seed) for ball, s, seed in cases]
    for a, b in zip(ours, theirs):
        assert np.array_equal(a.shape.values, b.shape.values)
        assert a.factor == b.factor


def test_ziggurat_tables_are_numpys():
    data = (Path(pcg64.__file__).parent / "ziggurat.bin").read_bytes()
    assert len(data) == 3 * 256 * 8
    assert hashlib.sha256(data).hexdigest() == (
        "d46841a090f638a74c6bd112345fe681089be798d725b251129f062cad5521a3")
    ki, wi, fi = pcg64._ziggurat_tables()
    assert (ki[0], ki[1], wi[0], fi[0], fi[1]) == (
        0x000EF33D8025EF6A, 0, 8.68362706080130616677e-16, 1.0, 0.977101701267671596263)


@pytest.mark.parametrize("values", [np.zeros(64), np.linspace(-1.0, 3.0, 64),
                                    np.arange(64.0)[::-1], np.full(64, -0.0)])
def test_grid_function_key_is_the_hashlib_blake2b_digest(values):
    f = GridFunction(Domain1D(0.0, 1.0, 64), values)
    digest = hashlib.blake2b(f.values.tobytes(), digest_size=16).digest()
    assert f.key == (f.domain, digest)
