"""RunContext: values keyed by the call that builds them, and the work the
experiments do through it."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from varharm import (Domain1D, GridFunction, RatioTable, Weight, harness, parse_config,
                     run_experiment, variation)


def test_grid_function_key_is_its_domain_and_values():
    d = Domain1D(-1.0, 1.0, 64)
    v = np.linspace(0.5, 1.5, 64)
    f, g = GridFunction(d, v), Weight(d, v.copy())
    assert f is not g and f.key == g.key and hash(f.key) == hash(g.key)
    one_ulp = v.copy()
    one_ulp[17] = np.nextafter(one_ulp[17], np.inf)
    assert GridFunction(d, one_ulp).key != f.key
    assert GridFunction(Domain1D(-1.0, 2.0, 64), v).key != f.key
    assert f.key is f.key  # taken once per object


def test_once_keys_a_call_by_its_function_and_arguments():
    d = Domain1D(-1.0, 1.0, 64)
    ctx = harness.RunContext(parse_config("experiment = E1\ncells = 96\n"))
    calls = []

    def scaled_sum(f, c):
        calls.append((f, c))
        return [c * f.values.sum()]

    f = GridFunction(d, np.linspace(0.0, 1.0, 64))
    first = ctx.once(scaled_sum, f, 2.0)
    # an equal-valued but distinct object gets the stored value
    assert ctx.once(scaled_sum, GridFunction(d, f.values.copy()), 2.0) is first
    assert len(calls) == 1
    assert ctx.once(scaled_sum, f, 3.0) is not first and len(calls) == 2
    assert ctx.once(lambda g, c: scaled_sum(g, c), f, 2.0) is not first and len(calls) == 3

    attempts = []

    def fails_once(x):
        attempts.append(x)
        if len(attempts) == 1:
            raise ValueError("first attempt")
        return x

    with pytest.raises(ValueError, match="first attempt"):
        ctx.once(fails_once, 1.0)
    # the failed call stored nothing: the next one runs fn again
    assert ctx.once(fails_once, 1.0) == 1.0 and len(attempts) == 2
    assert ctx.once(fails_once, 1.0) == 1.0 and len(attempts) == 2


def _rows(table):
    return [(r.case_id, repr(r.lhs), repr(r.rhs), r.flag) for r in table.rows]


@pytest.mark.parametrize("seed", [20240901, 13])
@pytest.mark.parametrize("cells", [96, 768])
def test_one_context_serves_every_experiment(cells, seed):
    cfg = parse_config(f"experiment = E1\ncells = {cells}\nseed = {seed}\n")
    ctx = harness.RunContext(cfg)
    for e in harness.EXPERIMENT_IDS:
        ctx.cfg = replace(cfg, experiment=e)
        shared = RatioTable(e)
        harness._RUNNERS[e](ctx, shared)
        assert _rows(shared) == _rows(run_experiment(ctx.cfg))


# calls per experiment at N = 768 under the default config; convolve_family
# counts its calls from the harness and from the variation layer
_BUDGET = {
    "E1": {"convolve_family": 12, "variation_operator": 12, "ap_constant": 10},
    "E2": {"convolve_family": 12, "variation_operator": 12, "a1_constant": 2,
           "ainf_constant": 2},
    "E3": {"convolve_family": 7, "variation_operator": 7, "make_atom": 7},
    "E4": {"convolve_family": 12},
    "E5": {"convolve_family": 20, "commutator_variation": 16, "ap_constant": 8,
           "bloom_weight": 7, "cube_oscillations": 4, "cube_measures": 7,
           "bmo_nu_norm": 28},
    "E6": {},
    "E7": {"convolve_family": 33, "commutator_variation": 21, "make_atom": 3,
           "cal_bmo_omega_norm": 8},
    "E8": {},
}


@pytest.mark.parametrize("experiment", harness.EXPERIMENT_IDS)
def test_work_budget_at_768_cells(experiment, monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    names = {name for budget in _BUDGET.values() for name in budget}
    for name in names:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    monkeypatch.setattr(variation, "convolve_family",
                        counted("convolve_family", variation.convolve_family))
    run_experiment(parse_config(f"experiment = {experiment}\ncells = 768\n"))
    assert dict(counts) == _BUDGET[experiment]
