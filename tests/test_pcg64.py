import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varharm import Domain1D, battery_generate
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
