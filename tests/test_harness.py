import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varharm
from varharm import (Ball, Domain1D, GridFunction, RatioTable, Weight,
                     WitnessPlacementError, battery_generate, cal_bmo_omega_norm,
                     harness, lp_norm, make_atom, parse_config, power_weight,
                     run_experiment, sgn_atom)
from varharm import cli
from varharm.cli import main as cli_main
from varharm.harness import ConfigError, ExperimentConfig

FAST = """
experiment = E8
cells = 192
scale_count = 16
function_count = 8
seed = 11
"""


def test_parse_config_round_trip():
    cfg = parse_config("""
    # comment line
    experiment = E1
    cells = 384          # inline comment
    p_list = 1.5, 2.0
    weight_params = 0.0, 0.3
    kernel = poisson
    rho = 3.5
    """)
    assert cfg.experiment == "E1"
    assert cfg.cells == 384
    assert cfg.p_list == (1.5, 2.0)
    assert cfg.weight_params == (0.0, 0.3)
    assert cfg.kernel == "poisson"
    assert cfg.rho == 3.5


@pytest.mark.parametrize("text", [
    "cells = 384",                          # no experiment
    "experiment = E9",                      # unknown id
    "experiment = E1\nflavor = salted",     # unknown key
    "experiment = E1\ncells 384",           # missing '='
    "experiment = E1\nkernel = flat-bump",  # no such kernel kind
    "experiment = E1\nrho = 2.0",           # rho must exceed 2
    "experiment = E1\ncells = 17",          # 3N odd, misaligned lattices
    "experiment = E1\np_list = 0.9, 2.0",   # p <= 1 for a strong-type sweep
    # configs that leave the experiment no case, refused before any run
    "experiment = E1\nweight_params = 5",   # no |x|^a in A_p
    "experiment = E2\nweight_params = 0.5",  # no |x|^a in A_1
    "experiment = E5\np_list = ",
    "experiment = E6\np_list = ",
    "experiment = E3\ncells = 96\nleft = -200\nright = 200\nt_max = 64",  # no radius fits
])
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_battery_determinism_and_heads():
    d = Domain1D(-8.0, 8.0, 192)
    a = battery_generate("mixed", 42, d, count=9)
    b = battery_generate("mixed", 42, d, count=9)
    assert [fid for fid, _ in a] == [fid for fid, _ in b]
    for (_, fa), (_, fb) in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
    c = battery_generate("mixed", 43, d, count=9)
    assert any(not np.array_equal(fa.values, fc.values)
               for (_, fa), (_, fc) in zip(a, c))
    # fixed indicator heads
    inds = battery_generate("indicators", 1, d, count=3)
    assert [fid for fid, _ in inds] == ["ind[-1,1]", "ind[0,1]", "ind[-4,-2]"]
    assert np.array_equal(inds[0][1].values,
                          GridFunction.indicator(d, -1.0, 1.0).values)


def test_battery_weights_and_errors():
    d = Domain1D(-8.0, 8.0, 192)
    with pytest.raises(ConfigError):
        battery_generate("nonsense", 0, d)


def test_ratio_table_sentinels_and_failures():
    t = RatioTable("E1")
    t.add("a", {}, 0.0, 0.0)
    t.add("b", {}, 1.0, 0.0)
    t.add("c", {}, 1.0, 2.0)
    t.add_failure("d", {}, "boom")
    rows = {r.case_id: r for r in t.rows}
    assert rows["a"].ratio == 0.0 and rows["a"].flag == "0/0"
    assert math.isinf(rows["b"].ratio) and rows["b"].flag == "zero-denominator"
    assert rows["c"].ratio == 0.5 and rows["c"].flag == ""
    assert math.isnan(rows["d"].ratio) and rows["d"].flag == "failure:boom"
    assert t.n_failures() == 2
    assert t.finite_ratios() == [0.0, 0.5]


def test_ratio_table_counts_points_without_a_sparse_bound_as_failures():
    t = RatioTable("E4")
    t.add("f", {}, 3.0, 1.0, flag="denominator-zero:2")
    t.add("g", {}, 3.0, 1.0)
    assert t.n_failures() == 1


def test_e4_points_without_a_sparse_bound_fail_the_run(tmp_path, monkeypatch):
    real = harness.domination_check
    monkeypatch.setattr(harness, "domination_check",
                        lambda *args: dataclasses.replace(real(*args), n_failures=2))
    cfgfile = tmp_path / "e4.cfg"
    cfgfile.write_text("experiment = E4\ncells = 96\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert json.loads((tmp_path / "E4.json").read_text())["n_failures"] == 12


def test_ratio_table_csv_layout(tmp_path):
    t = RatioTable("E1")
    t.add("z-case", {"p": 2.0, "a": 0.3}, 1.0, 3.0)
    t.add("a-case", {"p": 1.5}, 2.0, 4.0)
    path = tmp_path / "t.csv"
    t.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "case_id,a,p,lhs,rhs,ratio,flag"
    assert lines[1].startswith("a-case,")  # sorted by case_id
    assert lines[2].split(",")[1] == f"{0.3:.17g}"


def test_ratio_table_json(tmp_path):
    t = RatioTable("E8")
    t.add("x", {}, 1.0, 2.0)
    t.write_json(tmp_path / "with.json")
    data = json.loads((tmp_path / "with.json").read_text())
    assert "generated_at" in data and data["max_ratio"] == 0.5


def test_run_experiment_deterministic():
    cfg = parse_config(FAST)
    t1 = run_experiment(cfg)
    t2 = run_experiment(cfg)
    assert [(r.case_id, r.lhs, r.rhs, r.ratio) for r in t1.rows] == \
        [(r.case_id, r.lhs, r.rhs, r.ratio) for r in t2.rows]
    assert all(math.isfinite(r.ratio) for r in t1.rows)


def test_run_experiment_e1_small():
    cfg = ExperimentConfig(experiment="E1", cells=192, scale_count=10,
                           function_count=3, p_list=(2.0,),
                           weight_params=(0.0, 0.3), seed=3)
    table = run_experiment(cfg)
    assert table.n_failures() == 0
    assert table.rows
    assert all(0.0 <= r.ratio < math.inf for r in table.rows)
    # inadmissible powers are skipped: a = 0.3 < p - 1 = 1, both kept here
    powers = {r.params["power"] for r in table.rows}
    assert powers == {0.0, 0.3}


def test_run_experiment_refinement_factor():
    cfg = ExperimentConfig(experiment="E8", cells=96, scale_count=12,
                           function_count=4, refine=1, seed=5)
    table = run_experiment(cfg)
    assert table.refinement_factor is not None
    assert table.refinement_factor >= 1.0
    assert table.summary()["refinement_factor"] == table.refinement_factor


@pytest.mark.parametrize("experiment", [f"E{i}" for i in range(1, 9)])
def test_every_experiment_runs_small(experiment):
    cfg = ExperimentConfig(experiment=experiment, cells=192, scale_count=10,
                           function_count=3, p_list=(2.0,),
                           weight_params=(0.0, 0.3), seed=7)
    table = run_experiment(cfg)
    assert table.rows
    summary = table.summary()
    assert summary["n_cases"] == len(table.rows)
    assert summary["experiment"] == experiment


def test_cli_run_and_determinism(tmp_path):
    cfgfile = tmp_path / "e8.cfg"
    cfgfile.write_text(FAST)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(out2)]) == 0
    assert (out1 / "E8.csv").read_bytes() == (out2 / "E8.csv").read_bytes()
    summary = json.loads((out1 / "E8.json").read_text())
    assert summary["experiment"] == "E8"
    assert summary["n_failures"] == 0


def test_cli_out_naming_a_file_fails_before_the_run(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "e8.cfg"
    cfgfile.write_text(FAST)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(taken)]) == 3
    assert "config error" in capsys.readouterr().err
    assert runs == []
    assert taken.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e8.cfg", "taken"]


@pytest.mark.parametrize("taken", ["E8.csv", "E8.json"])
def test_cli_output_naming_a_directory_fails_before_the_run(tmp_path, capsys,
                                                            monkeypatch, taken):
    cfgfile = tmp_path / "e8.cfg"
    cfgfile.write_text("experiment = E8\ncells = 96\n")
    (tmp_path / "out" / taken).mkdir(parents=True)
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 3
    assert "is a directory" in capsys.readouterr().err
    assert runs == []
    assert [p.name for p in (tmp_path / "out").iterdir()] == [taken]


def test_cli_output_that_cannot_be_written_exits_3(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "e8.cfg"
    cfgfile.write_text("experiment = E8\ncells = 96\n")
    out = tmp_path / "out"

    def run_then_take_the_csv_path(cfg):
        table = run_experiment(cfg)
        (out / "E8.csv").mkdir()
        return table

    monkeypatch.setattr(cli, "run_experiment", run_then_take_the_csv_path)
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 3
    assert "cannot write results:" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["E8.csv"]


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_cli_run_exits_quietly_when_stdout_closes_early(tmp_path, unbuffered):
    # as under `varharm run ... | head -1`: the reader is gone before the summary
    cfgfile = tmp_path / "fast.cfg"
    cfgfile.write_text(FAST)
    src = str(Path(varharm.__file__).parents[1])
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "varharm.cli", "run", "--config",
                             str(cfgfile), "--out", str(tmp_path / "piped")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""
    # the results are written as by a run whose stdout stays open
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "open")]) == 0
    for name in ("E8.csv", "E8.json"):
        assert (tmp_path / "piped" / name).is_file()
    assert ((tmp_path / "piped" / "E8.csv").read_bytes()
            == (tmp_path / "open" / "E8.csv").read_bytes())


def test_runs_load_neither_numpy_random_nor_openssl(tmp_path):
    # Every draw, uniform or normal, comes from varharm.pcg64, and grid-function
    # keys take blake2b from _blake2: no run loads numpy.random, nor OpenSSL
    # through hashlib (as numpy.random does, by secrets and hmac), a cost each
    # `varharm run` process would pay. `varharm check` draws from random.Random.
    code = f"""
import sys
from varharm.cli import main
for e in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"):
    cfg = {str(tmp_path)!r} + f"/{{e}}.cfg"
    with open(cfg, "w") as fh:
        fh.write(f"experiment = {{e}}\\ncells = 96\\n")
    assert main(["run", "--config", cfg, "--out", {str(tmp_path / "out")!r}]) in (0, 2)
    print("loaded after", e, *sorted({{"numpy.random", "hashlib", "_hashlib"}} & set(sys.modules)))
assert main(["check"]) == 0
print("loaded after check", *sorted({{"numpy.random", "hashlib", "_hashlib"}} & set(sys.modules)))
"""
    src = str(Path(varharm.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    loaded = [line.split()[2:] for line in out.splitlines() if line.startswith("loaded after")]
    assert loaded == [[e] for e in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "check")]


def test_run_summary_is_strict_json(tmp_path):
    table = RatioTable("E8")
    table.add("c", {}, 1e300, 1e-300)  # ratio overflows: not in max_ratio
    table.add("d", {}, 2.0, 1.0)
    table.refinement_factor = math.inf
    table.write_json(tmp_path / "E8.json")
    data = json.loads((tmp_path / "E8.json").read_text(), parse_constant=_reject_constant)
    assert data["max_ratio"] == 2.0
    assert data["refinement_factor"] is None
    assert set(data) == {*table.summary(), "generated_at"}


def test_cli_run_seed_override(tmp_path):
    cfgfile = tmp_path / "e8.cfg"
    cfgfile.write_text(FAST)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(out1),
                     "--seed", "99"]) == 0
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(out2)]) == 0
    assert (out1 / "E8.csv").read_bytes() != (out2 / "E8.csv").read_bytes()


def test_cli_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = E1\nrho = 1.0\n")
    assert cli_main(["run", "--config", str(bad)]) == 3
    assert cli_main(["run", "--config", str(tmp_path / "missing.cfg")]) == 3
    cfgfile = tmp_path / "e8.cfg"
    cfgfile.write_text(FAST)
    assert cli_main(["run", "--config", str(cfgfile),
                     "--experiment", "E1"]) == 3


@pytest.mark.parametrize("line", [
    "rho = nan",
    "t_max = inf",
    "cells = abc",
    "t_max = 0.001",        # below 2h: the clipped scale family is empty
    "p_list = nan, 2.0",
    "rho = 3.0\nrho = 4.0",  # repeated key
    "seed = -1",
    "function_battery = nope",
    "function_count = -3",
    "function_count = 0",
    "weight_battery = power-weights",  # no experiment reads a weight battery
    "rho = 1e300",          # the powers |difference|^rho over- or underflow
    "rho = 65",
    "refine = 30",          # finest grid cells * 2**refine above the cap
    "cells = 1000000",
    "function_count = 1000000",  # battery or scale stack above 1 << 22 floats
    "scale_count = 100000000\nscale_ratio = 0.99999999",
])
def test_cli_rejects_bad_config_values(tmp_path, capsys, line):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"experiment = E5\n{line}\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "E5.csv").exists()


@pytest.mark.parametrize("experiment, line", [
    ("E1", "p_list = "),
    ("E5", "p_list = "),
    ("E6", "p_list = "),
    ("E1", "weight_params = "),
    ("E2", "weight_params = "),
    ("E1", "weight_params = 5.0"),  # no admissible power weight
    ("E2", "weight_params = 5.0"),
])
def test_cli_rejects_config_without_cases(tmp_path, capsys, experiment, line):
    cfgfile = tmp_path / "empty.cfg"
    cfgfile.write_text(f"experiment = {experiment}\ncells = 96\n{line}\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.csv").exists()


@pytest.mark.parametrize("experiment, layer", [
    ("E1", "variation_operator"),
    ("E2", "variation_operator"),
    ("E3", "variation_operator"),
    ("E4", "domination_check"),
    ("E5", "commutator_variation"),
    ("E6", "oscillation_witness"),
    ("E7", "commutator_variation"),
    ("E8", "kernel_difference_variation"),
])
def test_case_errors_become_failure_rows(tmp_path, monkeypatch, experiment, layer):
    text = f"experiment = {experiment}\ncells = 96\nfunction_count = 3\n"
    expected = [r.case_id for r in run_experiment(parse_config(text)).rows]

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(harness, layer, broken)
    table = run_experiment(parse_config(text))
    assert [r.case_id for r in table.rows] == expected
    assert all(r.flag.startswith("failure:") for r in table.rows)
    assert any(r.flag == "failure:injected" for r in table.rows)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2


_BAD_VALUES = ("", "nan", "inf", "-inf", "1e300", "-1e300", "-5", "0", "abc", "1e999")


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


# per key: (in-range values, bad values)
_FUZZ_VALUES = {
    "experiment": (st.sampled_from(harness.EXPERIMENT_IDS), ("E9", "")),
    "left": (_floats(-10.0, -1.0), _BAD_VALUES),
    "right": (_floats(1.0, 10.0), _BAD_VALUES),
    "kernel": (st.sampled_from(["gaussian-heat", "poisson", "compact-bump"]),
               ("flat-bump", "")),
    "t_max": (_floats(0.5, 8.0), _BAD_VALUES),
    "scale_ratio": (_floats(0.3, 0.95), _BAD_VALUES),
    "scale_count": (st.integers(1, 16).map(str), _BAD_VALUES),
    "rho": (_floats(2.05, 64.0), _BAD_VALUES + ("2", "64.5")),
    "p_list": (st.lists(_floats(1.05, 6.0), max_size=3).map(", ".join),
               ("nan, 2", "1e300", "2, abc", "0.5")),
    "weight_params": (st.lists(_floats(-0.9, 0.9), max_size=4).map(", ".join),
                      ("inf", "1e300, 0", "abc")),
    "function_battery": (st.sampled_from(["mixed", "indicators", "oscillatory",
                                          "random-bumps"]), ("power-weights", "")),
    "function_count": (st.integers(1, 6).map(str), _BAD_VALUES),
    "seed": (st.integers(0, 2 ** 70).map(str), _BAD_VALUES),
}


@st.composite
def _config_text(draw):
    """Random config text. Half the examples keep every value in range, with a
    grid of at most 192 finest cells; the other half mix in bad values, grids
    rejected before allocation, unknown and duplicate keys and lines without '='."""
    broken = draw(st.booleans())
    optional = sorted(set(_FUZZ_VALUES) - {"experiment"})
    lines = []
    for key in ["experiment", *draw(st.lists(st.sampled_from(optional), unique=True))]:
        good, bad = _FUZZ_VALUES[key]
        lines.append(f"{key} = {draw(st.one_of(good, st.sampled_from(bad)) if broken else good)}")
    grids = [st.tuples(st.just(n), st.integers(0, (192 // n).bit_length() - 1))
             for n in (16, 48, 96, 192)]
    if broken:
        grids += [st.tuples(st.sampled_from([-4, 0, 17, 10 ** 6, 10 ** 30]),
                            st.integers(-1, 2)),
                  st.tuples(st.just(96), st.sampled_from([-1, 30, 10 ** 9]))]
        lines.append(draw(st.sampled_from(["flavor = salted", "experiment = E8", "cells 96", ""])))
    cells, refine = draw(st.one_of(grids))
    lines += [f"cells = {cells}", f"refine = {refine}"]
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=100, deadline=None)
@given(_config_text())
def test_cli_run_fuzzed_config_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as out:
        cfgfile = Path(out) / "fuzz.cfg"
        cfgfile.write_text(text)
        assert cli_main(["run", "--config", str(cfgfile), "--out", out]) in (0, 2, 3)


@st.composite
def _configs(draw):
    """A config over ranges wide enough to reach each experiment's refusals:
    grids from 16 to 400 cells, domains of length 1 to 200, p's at and below 1,
    powers outside every A_p, empty p lists and weight powers."""
    left = draw(st.floats(-100.0, 100.0))
    return ExperimentConfig(
        experiment=draw(st.sampled_from(harness.EXPERIMENT_IDS)),
        left=left, right=left + draw(st.floats(1.0, 200.0)),
        cells=2 * draw(st.integers(8, 200)),
        kernel=draw(st.sampled_from(["gaussian-heat", "poisson", "compact-bump"])),
        t_max=draw(st.floats(0.5, 64.0)), scale_ratio=draw(st.floats(0.3, 0.95)),
        scale_count=draw(st.integers(1, 12)), rho=draw(st.floats(2.05, 64.0)),
        p_list=tuple(draw(st.lists(st.floats(0.5, 6.0), max_size=3))),
        weight_params=tuple(draw(st.lists(st.floats(-1.5, 1.5), max_size=4))),
        function_battery=draw(st.sampled_from(["mixed", "indicators", "oscillatory",
                                               "random-bumps"])),
        function_count=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2 ** 32)),
        refine=draw(st.integers(0, 1)))


@settings(max_examples=200, deadline=None)
@given(_configs())
# the table refuses each of these before any work: no power in A_p, no p,
# no radius whose ball fits, no witness cube, no cell for a ball of E7
@example(ExperimentConfig("E1", cells=96, weight_params=(5.0,)))
@example(ExperimentConfig("E5", cells=96, p_list=()))
@example(ExperimentConfig("E3", cells=96, left=-200.0, right=200.0, t_max=64.0))
@example(ExperimentConfig("E6", cells=84))
@example(ExperimentConfig("E7", cells=32))
def test_every_config_is_refused_or_runs_without_failure_rows(cfg):
    try:
        cfg.validate()
    except ConfigError:
        return
    rows = run_experiment(cfg).rows
    assert rows and not [r.flag for r in rows if r.flag.startswith("failure:")]


def test_overflowed_bound_is_flagged_not_a_clean_zero(tmp_path):
    # at p = 1.0001 the A_p constant of |x|^-0.3 overflows: its 12 rows read
    # rhs = inf, ratio 0. The flag says so, and counts as no failure
    text = "experiment = E1\ncells = 96\np_list = 1.0001\n"
    rows = run_experiment(parse_config(text)).rows
    flagged = [r for r in rows if r.flag]
    assert len(flagged) == 12 and {r.flag for r in flagged} == {"infinite-rhs"}
    assert all(r.params["power"] == -0.3 and r.rhs == math.inf and r.ratio == 0.0
               for r in flagged)
    assert all(r.params["power"] == 0.0 and math.isfinite(r.rhs) for r in rows if not r.flag)
    cfgfile = tmp_path / "e1.cfg"
    cfgfile.write_text(text)
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0


def test_cli_info(tmp_path, capsys):
    d = Domain1D(-8.0, 8.0, 96)
    path = tmp_path / "w.csv"
    power_weight(0.3, d).to_csv(path)
    assert cli_main(["info", "--weights", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["a1"] >= 1.0
    assert set(data["ap"]) == {"1.5", "2.0", "4.0"}
    assert cli_main(["info", "--weights", str(tmp_path / "nope.csv")]) == 3
    # one row, x off a uniform grid, and 5 rows (3N odd: no aligned lattice)
    for name, xs in [("one", [0.1]), ("skewed", [0.1, 0.3, 0.9, 1.7]),
                     ("odd", [0.1, 0.3, 0.5, 0.7, 0.9])]:
        bad = tmp_path / f"{name}.csv"
        bad.write_text("x,value\n" + "".join(f"{x},1.0\n" for x in xs))
        capsys.readouterr()
        assert cli_main(["info", "--weights", str(bad)]) == 3
        if name == "odd":
            assert capsys.readouterr().err == ("cannot use weight: 3N = 15 is odd, so no "
                                               "dyadic lattice level aligns with the grid\n")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_info_writes_overflowed_constants_as_null(tmp_path, capsys):
    d = Domain1D(-8.0, 8.0, 96)
    path = tmp_path / "w.csv"
    GridFunction(d, np.where(np.arange(d.cells) < 48, 1e-300, 1.0)).to_csv(path)
    assert cli_main(["info", "--weights", str(path)]) == 0
    data = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert data["ap"]["1.5"] is None
    assert data["non_finite"] == ["ap[1.5]"]
    assert all(v is not None for k, v in data["ap"].items() if k != "1.5")


_BAD_ROWS = ["abc,1", "{x},abc", "{x},", "{x}", "{x},1,2", "{x},nan", "{x},inf",
             "{x},0", "{x},-1", "{x},1e-300", "{x},1e308", "nan,1", "1e308,1",
             "{skew},1"]


@st.composite
def _weight_csv_text(draw):
    """Random weight file text: half the examples are a well-formed uniform
    grid of 1 to 600 rows; the other half mix in bad headers, bad cells and
    skewed x values. Either half adds blank lines and CRLF endings."""
    n = draw(st.integers(1, 600))
    h = draw(st.sampled_from([0.5, 1.0 / 3.0, 0.01, 7.0]))
    left = draw(st.floats(-100.0, 100.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    xs = left + (np.arange(n) + 0.5) * h
    lines = ["x,value"] + [f"{x:.17g},{v:.17g}"
                           for x, v in zip(xs, 10.0 ** rng.uniform(-3, 3, n))]
    if draw(st.booleans()):
        lines[0] = draw(st.sampled_from(["x,value", "", "value,x", "x,value,w", "X,Value",
                                         "0.5,1"]))
        for i in draw(st.lists(st.integers(1, n), max_size=3)):
            lines[i] = draw(st.sampled_from(_BAD_ROWS)).format(
                x=f"{xs[i - 1]:.17g}", skew=f"{xs[i - 1] + 0.4 * h:.17g}")
    for i in draw(st.lists(st.integers(1, len(lines)), max_size=4)):
        lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, 2 * newline]))


@settings(max_examples=100, deadline=None)
@given(_weight_csv_text())
@example("x,value\n0.25,1e308\n0.75,1e308")
@example("x,value\n0.25,1e308\n0.75,0.041564281988291658")
def test_cli_info_fuzzed_weight_file_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.csv"
        path.write_bytes(text.encode())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["info", "--weights", str(path)])
    assert code in (0, 3)
    if code == 0:
        data = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert set(data) == {"ap", "a1", "ainf", "non_finite", "lattice_shifts"}
    else:
        assert out.getvalue() == "" and err.getvalue()


def test_failure_flag_with_commas_is_quoted(tmp_path, monkeypatch):
    def misplaced(*args, **kwargs):
        raise WitnessPlacementError("companion cube cells [1, 17) leave the domain")

    monkeypatch.setattr(harness, "oscillation_witness", misplaced)
    cfgfile = tmp_path / "e6.cfg"
    cfgfile.write_text("experiment = E6\ncells = 96\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    with open(tmp_path / "E6.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows and all(len(r) == len(header) for r in rows)
    assert {r[-1] for r in rows} == {
        "failure:companion cube cells [1, 17) leave the domain"}


def _checked_atom(atom, w, ball):
    """The atom, after checking that its values are factor * shape and, for the
    sign atom, its formula shape / (2 w(B)) to a few ulp."""
    v = atom.values.values
    assert np.array_equal(v, atom.factor * atom.shape.values)
    if math.isinf(atom.q):
        direct = atom.shape.values / (2.0 * w.measure(*ball.cell_range(w.domain)))
        assert np.all(np.abs(direct - v) <= 4 * np.spacing(np.abs(v)))
    return atom


def _cell_count(d, ball):
    try:
        s, e = ball.cell_range(d)
    except ValueError:  # no cell inside the domain
        return 0
    return e - s


def _e3_per_case(ctx, table):
    """E3 with one variation profile per case, from the atom's values."""
    d = ctx.domain
    rng = np.random.default_rng(ctx.cfg.seed)
    weights = [("lebesgue", Weight.constant(d)), ("pow+0.3", power_weight(0.3, d))]
    for i, r in enumerate(2.0 ** e for e in range(-4, 3)):
        ball = Ball(float((-1.0 + 2.0 * rng.random()) * min(1.0, 8.0 - r)), r)
        # a radius stays when every centre E3 can draw, scanned finely, gives
        # the s + 2 = 2 cells make_atom needs
        m = min(1.0, 8.0 - r)
        if min(_cell_count(d, Ball(float(c), r)) for c in np.linspace(-m, m, 4097)) < 2:
            continue
        for p in [p for p in ctx.cfg.p_list if 0.5 < p <= 1.0] or [0.7, 1.0]:
            for wid, w in weights:
                case = f"atom|r=2^{math.log2(r):+.0f}|p={p}|{wid}"
                with table.case(case, {"radius": r, "p": p}) as add:
                    atom = _checked_atom(make_atom(p, 2.0, 0, w, ball, seed=ctx.cfg.seed + i),
                                          w, ball)
                    add(lp_norm(ctx.variation(atom.values), p, w), 1.0)


def _e7_per_case(ctx, table):
    """E7 with one commutator profile per case, from the atom's values."""
    d = ctx.domain
    bs = harness._oscillatory_battery(d, 4, np.random.default_rng(ctx.cfg.seed))
    norm_balls = [Ball(c, r) for c in (-4.0, -2.0, 0.0, 2.0, 4.0) for r in (0.25, 0.5, 1.0, 2.0)]
    for a in [a for a in ctx.cfg.weight_params if -1.0 < a <= 0.0] or [0.0]:
        w = ctx.weight(a)
        for ball in [Ball(0.0, 1.0), Ball(-2.0, 0.5), Ball(1.0, 2.0)]:
            params = {"power": a, "center": ball.center, "radius": ball.radius}
            for bid, b in bs:
                for kind in ("sgn", "rand"):
                    case = f"{bid}|{kind}|c={ball.center:g}|r={ball.radius:g}|a={a:+g}"
                    with table.case(case, params) as add:
                        rhs = cal_bmo_omega_norm(b, w, norm_balls).norm
                        if kind == "sgn":
                            atom = sgn_atom(b, ball, w)
                            if atom.degenerate:
                                continue
                        else:
                            atom = make_atom(1.0, 2.0, 0, w, ball, seed=ctx.cfg.seed)
                        _checked_atom(atom, w, ball)
                        add(lp_norm(ctx.commutator(atom.values, b), 1.0, w), rhs)


@pytest.mark.parametrize("cells", [96, 768])
@pytest.mark.parametrize("experiment", ["E3", "E7"])
def test_shared_atom_profiles_match_per_case_profiles(experiment, cells):
    cfg = parse_config(f"experiment = {experiment}\ncells = {cells}\n")
    expected = RatioTable(experiment)
    per_case = {"E3": _e3_per_case, "E7": _e7_per_case}[experiment]
    per_case(harness.RunContext(cfg), expected)
    got = run_experiment(cfg).rows
    assert len(got) == len(expected.rows) > 0
    assert any(not r.flag for r in got)
    # E7 runs its cases kind-major, the per-case run b-major: match rows by case id
    wanted = {r.case_id: r for r in expected.rows}
    assert {r.case_id for r in got} == set(wanted) and len(wanted) == len(got)
    for row in got:
        want = wanted[row.case_id]
        assert (row.case_id, row.params, row.flag) == (want.case_id, want.params, want.flag)
        for x, y in ((row.lhs, want.lhs), (row.rhs, want.rhs), (row.ratio, want.ratio)):
            assert x == y or abs(x - y) <= 1e-12 * abs(y) or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("experiment", ["E3", "E7"])
def test_atom_runs_call_no_lapack(monkeypatch, experiment):
    # make_atom projects out the moments in array arithmetic: with numpy's
    # LAPACK solvers refusing every call, the rows stay those of a free run
    cfg = parse_config(f"experiment = {experiment}\ncells = 768\n")
    want = run_experiment(cfg).rows

    def refuse(*args, **kwargs):
        raise RuntimeError("numpy.linalg called")

    for name in ("lstsq", "solve", "qr", "svd", "pinv", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    got = run_experiment(cfg).rows
    assert got and not [r.flag for r in got if r.flag.startswith("failure:")]
    assert got == want


@pytest.mark.parametrize("cells", [96, 192])
def test_e3_small_grids_write_no_failure_rows(cells):
    # radii 2^-4 and 2^-3 give balls of fewer than s + 2 = 2 cells on these
    # grids for some centres; E3 drops them and keeps the rest
    for seed in range(40):
        rows = run_experiment(parse_config(f"experiment = E3\ncells = {cells}\nseed = {seed}\n")).rows
        assert rows and not [r.flag for r in rows if r.flag.startswith("failure:")], seed


@pytest.mark.parametrize("cells", [384, 768, 3072])
def test_e3_keeps_every_radius_from_384_cells(cells):
    rows = run_experiment(parse_config(f"experiment = E3\ncells = {cells}\n")).rows
    assert [r.case_id for r in rows] == [
        f"atom|r=2^{e:+d}|p={p}|{wid}" for e in range(-4, 3) for p in (0.7, 1.0)
        for wid in ("lebesgue", "pow+0.3")]


def test_e3_grid_too_coarse_for_every_radius_exits_3(tmp_path, capsys):
    # h = 400/96 > 8/3: even r = 4 spans fewer than 3 cell widths, so E3 keeps
    # no radius; t_max keeps a scale family at t >= 2h
    cfgfile = tmp_path / "coarse.cfg"
    cfgfile.write_text("experiment = E3\ncells = 96\nleft = -200\nright = 200\nt_max = 64\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
    assert "leaves E3 no case to run" in capsys.readouterr().err
    assert not (tmp_path / "E3.csv").exists()


@pytest.mark.parametrize("experiment", ["E3", "E7"])
def test_atom_balls_sit_about_the_domain_midpoint(experiment):
    # on [0, 16) the balls are those of the default [-8, 8) moved by 8, so
    # every one lies inside the domain
    for seed in range(8):
        cfg = parse_config(f"experiment = {experiment}\nleft = 0\nright = 16\n"
                           f"cells = 768\nseed = {seed}\n")
        rows = run_experiment(cfg).rows
        assert rows and not [r.flag for r in rows if r.flag.startswith("failure:")], seed


def test_e3_drops_radii_wider_than_the_domain():
    rows = run_experiment(parse_config("experiment = E3\nleft = 0\nright = 4\ncells = 768\n")).rows
    assert sorted({r.params["radius"] for r in rows}) == [2.0 ** e for e in range(-4, 2)]
    assert not [r.flag for r in rows if r.flag]


def test_e7_domain_too_short_for_its_balls_exits_3(tmp_path, capsys):
    # E7's norm balls reach 6 either side of the midpoint
    cfgfile = tmp_path / "short.cfg"
    cfgfile.write_text("experiment = E7\ncells = 768\nleft = 0\nright = 11.5\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
    assert "E7 needs right - left >= 12" in capsys.readouterr().err
    assert not (tmp_path / "E7.csv").exists()
    cfgfile.write_text("experiment = E7\ncells = 768\nleft = 0\nright = 12\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("cells, ball", [(16, "centre -2 and radius 0.5 needs 2 cell(s) and has 0"),
                                         (32, "centre -4 and radius 0.25 needs 1 cell(s) and has 0")])
def test_e7_grid_too_coarse_for_its_balls_exits_3(tmp_path, capsys, cells, ball):
    # h = 1 and 0.5: an atom ball keeps fewer than the 2 cells make_atom needs,
    # or a norm ball of radius 0.25 none, which would fail every case
    cfgfile = tmp_path / "coarse.cfg"
    cfgfile.write_text(f"experiment = E7\ncells = {cells}\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
    assert f"E7's ball of {ball} on this grid" in capsys.readouterr().err
    assert not (tmp_path / "E7.csv").exists()


@pytest.mark.parametrize("cells", [34, 48])
def test_e7_grid_fine_enough_for_its_balls_writes_no_failure_rows(tmp_path, cells):
    cfgfile = tmp_path / "fine.cfg"
    cfgfile.write_text(f"experiment = E7\ncells = {cells}\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "E7.csv").read_text().splitlines()
    assert len(rows) > 1 and not [r for r in rows if "failure:" in r]


@pytest.mark.parametrize("cells", [16, 80, 84])
def test_e6_grid_too_coarse_for_its_witness_cubes_exits_3(tmp_path, capsys, cells):
    # below 128 cells the witness cube Q is [64 + N // 16, 80 + N // 16), which
    # ends inside the grid only from N = 86; a Q past the end fails every case
    cfgfile = tmp_path / "coarse.cfg"
    cfgfile.write_text(f"experiment = E6\ncells = {cells}\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
    assert "E6's witness cube cells [" in capsys.readouterr().err
    assert not (tmp_path / "E6.csv").exists()


def test_e6_grid_fine_enough_for_its_witness_cubes_writes_no_failure_rows(tmp_path):
    cfgfile = tmp_path / "fine.cfg"
    cfgfile.write_text("experiment = E6\ncells = 86\n")
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "E6.csv").read_text().splitlines()
    assert len(rows) > 1 and not [r for r in rows if "failure:" in r]
