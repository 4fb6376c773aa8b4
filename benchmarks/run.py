"""Sweep benchmark for varharm: seeded `varharm run` workloads timed from outside.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --record

Every `varharm run` invocation runs in its own fresh interpreter (child.py),
one at a time, as a user runs it, so no cache can carry over from one
experiment to the next. A pass runs each experiment of the workload once;
passes repeat until --seconds is used up (at least two). Every output is
checked against the recorded reference for its seed (references/). With --trace 1 the
benchmark alternates untraced and traced passes and reports per-layer
metrics instead of end-to-end ones. --record re-records the references
from the program in src/. README.md lists the workloads and metrics.
"""

import argparse
import gzip
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references"

# workload -> (experiments, grid cells)
WORKLOADS = {
    "commutator-sweep": (("E5",), 3072),
    "lattice-sweep": (("E1", "E2", "E4"), 3072),
    "atom-sweep": (("E3", "E6", "E7", "E8"), 3072),
    "small-grid": (("E2", "E4", "E5", "E7"), 768),
}

# Config seeds with recorded references: the default seed, then seven seeds
# under which E7 (the one experiment whose case count depends on the seed)
# has the same 42 cases at both grid sizes, so that seeds vary the inputs
# but not the amount of work. --seed N selects N itself when recorded,
# else SEEDS[N % 8].
SEEDS = (20240901, 8, 12, 13, 17, 20, 22, 38)

MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
REL_TOL = 1e-10
FLOAT_COLUMNS = ("lhs", "rhs", "ratio")
FAILURE_FLAGS = ("failure", "zero-denominator", "denominator-zero")

# Traced functions each experiment must call; the traced run fails if one
# has zero calls, so that a refactor cannot silently drop a layer's span.
ALWAYS_CALLED = ("harness.run_experiment", "harness.write_csv", "harness.write_json")
CALLED = {
    "E1": ("variation.variation_operator", "grid.convolve_family",
           "weights.ap_constant", "lattice.cube_domain_ranges"),
    "E2": ("variation.variation_operator", "grid.convolve_family",
           "weights.a1_constant", "weights.ainf_constant", "lattice.hl_maximal"),
    "E3": ("variation.variation_operator", "grid.convolve_family", "atoms.make_atom"),
    "E4": ("sparse.domination_check", "sparse.build_sparse_family",
           "variation.variation_operator", "grid.convolve_family"),
    "E5": ("variation.commutator_variation", "variation.commutator_family",
           "grid.convolve_family", "weights.ap_constant",
           "lattice.cube_domain_ranges", "oscillation.bmo_nu_norm"),
    "E6": ("oscillation.oscillation_witness",),
    "E7": ("variation.commutator_variation", "variation.commutator_family",
           "grid.convolve_family", "atoms.sgn_atom", "atoms.make_atom",
           "oscillation.cal_bmo_omega_norm"),
    "E8": ("variation.kernel_difference_variation",),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics: (name, unit). Functions listed in TIMED report
# `.calls` and `.self_s`.
TIMED = ("grid.convolve_family", "variation.variation_operator",
         "variation.commutator_variation", "weights.ap_constant",
         "weights.a1_constant", "weights.ainf_constant", "lattice.hl_maximal",
         "lattice.cube_domain_ranges", "sparse.build_sparse_family",
         "oscillation.bmo_nu_norm")
SELF_ONLY = ("sparse.domination_check", "oscillation.oscillation_witness",
             "oscillation.cal_bmo_omega_norm", "atoms.make_atom", "atoms.sgn_atom")
LAYER_SELF = ("grid", "variation", "lattice", "weights", "sparse",
              "oscillation", "atoms")
PER_LAYER = (
    *[(f"{fn}.{kind}", unit) for fn in TIMED
      for kind, unit in (("calls", "count"), ("self_s", "s"))],
    *[(f"{fn}.self_s", "s") for fn in SELF_ONLY],
    *[(f"{layer}.self_s", "s") for layer in LAYER_SELF],
    ("grid.conv_columns", "count"),
    ("grid.convolve_family.unique_frac", "frac"),
    ("variation.unique_frac", "frac"),
    ("variation.turning_frac", "frac"),
    ("variation.dp_pairs", "count"),
    ("lattice.ranges", "count"),
    ("sparse.family_cubes", "count"),
    ("oscillation.ranges_swept", "count"),
    ("harness.self_s", "s"),
    ("harness.write_s", "s"),
    ("harness.cases", "count"),
    ("harness.rows_inexact", "count"),
    ("harness.max_rel_diff", "frac"),
    ("setup.scipy_import_s", "s"),
    ("trace.overhead_frac", "frac"),
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run or a trace self-check failed."""


# ---------------------------------------------------------------------------
# references

def config_seed(seed: int) -> int:
    return seed if seed in SEEDS else SEEDS[seed % len(SEEDS)]


def config_text(experiment: str, cells: int, seed: int) -> str:
    return f"experiment = {experiment}\ncells = {cells}\nseed = {seed}\n"


def reference_path(seed: int) -> Path:
    return REFERENCES / f"seed-{seed}.json.gz"


def load_reference(seed: int) -> dict:
    with gzip.open(reference_path(seed), "rt") as fh:
        return json.load(fh)


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_csv(got: str, ref: str) -> tuple[int, int, float]:
    """(failed rows, inexact rows, largest relative difference) of got vs ref.

    case_id, params and flag must match exactly and lhs, rhs, ratio to
    REL_TOL; a row inside the tolerance but not byte-identical is inexact.
    Failure and zero-denominator rows count as failed even when recorded.
    """
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    n_rows = len(ref_lines) - 1
    if len(got_lines) != len(ref_lines) or got_lines[0] != ref_lines[0]:
        return n_rows, 0, 0.0
    header = ref_lines[0].split(",")
    floats = [header.index(c) for c in FLOAT_COLUMNS]
    exact = [i for i in range(len(header)) if i not in floats]
    failure_marks = tuple("," + flag for flag in FAILURE_FLAGS)
    failed = inexact = 0
    worst = 0.0
    for g, r in zip(got_lines[1:], ref_lines[1:]):
        # Case ids may hold commas ("ind[-1,1]"), and so may failure flags;
        # other columns never do, so split from the right.
        gc = g.rsplit(",", len(header) - 1)
        rc = r.rsplit(",", len(header) - 1)
        if (any(mark in g for mark in failure_marks) or len(gc) != len(rc)
                or any(gc[i] != rc[i] for i in exact)):
            failed += 1
            continue
        try:
            diff = max(rel_diff(float(gc[i]), float(rc[i])) for i in floats)
        except ValueError:
            diff = math.inf
        if not diff <= REL_TOL:
            failed += 1
        elif g != r:
            inexact += 1
            worst = max(worst, diff)
    return failed, inexact, worst


def summaries_match(got: dict, ref: dict) -> bool:
    got = {k: v for k, v in got.items() if k != "generated_at"}
    if got.keys() != ref.keys():
        return False
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, float) and isinstance(have, float):
            if not rel_diff(have, want) <= REL_TOL:
                return False
        elif have != want:
            return False
    return True


# ---------------------------------------------------------------------------
# running invocations

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def scipy_import_s(stderr: str) -> float:
    """Summed self time of scipy modules in a `-X importtime` report."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[-1].strip()
        if (name == "scipy" or name.startswith("scipy.")) and fields[0].strip().isdigit():
            total_us += int(fields[0])
    return total_us / 1e6


def invoke(experiment: str, cells: int, seed: int, out_dir: Path,
           traced: bool = False) -> dict:
    """Run one `varharm run` in a fresh interpreter; return child.py's record."""
    out_dir.mkdir(parents=True)
    cfg = out_dir / "run.cfg"
    cfg.write_text(config_text(experiment, cells, seed))
    result_path = out_dir / "result.json"
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           str(HERE / "child.py"), str(cfg), str(out_dir), str(result_path),
           *(["--trace", str(out_dir / "spans.json")] if traced else [])]
    record = {"experiment": experiment, "command": cmd}
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        record["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
        return record
    if proc.returncode != 0 or not result_path.exists():
        record["error"] = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        return record
    with open(result_path) as fh:
        record.update(json.load(fh))
    if traced:
        record["scipy_import_s"] = scipy_import_s(proc.stderr)
    return record


def check_outputs(record: dict, reference: dict, out_dir: Path) -> dict:
    """Failed, inexact and attempted case counts of one invocation."""
    ref = reference[record["experiment"]]
    n_cases = ref["csv"].count("\n") - 1
    check = {"cases": n_cases, "failed": n_cases, "inexact": 0, "max_rel_diff": 0.0}
    if "error" in record or record["exit_code"] not in (0, 2):
        return check
    exp = record["experiment"]
    try:
        got_csv = (out_dir / f"{exp}.csv").read_text()
        got_summary = json.loads((out_dir / f"{exp}.json").read_text())
    except (OSError, ValueError):
        return check
    failed, inexact, worst = compare_csv(got_csv, ref["csv"])
    if not summaries_match(got_summary, ref["summary"]):
        failed = n_cases
    check.update(failed=failed, inexact=inexact, max_rel_diff=worst)
    return check


def run_pass(workload: str, seed: int, reference: dict, out_dir: Path,
             traced: bool) -> dict:
    experiments, cells = WORKLOADS[workload]
    runs = []
    for exp in experiments:
        run_dir = out_dir / exp
        record = invoke(exp, cells, seed, run_dir, traced)
        record["check"] = check_outputs(record, reference, run_dir)
        if "error" in record:
            print(f"{workload} {exp}: {record['error']}", file=sys.stderr)
        runs.append(record)
    complete = [r for r in runs if "error" not in r]
    return {
        "traced": traced,
        "runs": runs,
        "peak_rss_mb": max((r["peak_rss_mb"] for r in complete), default=None),
        **{key: sum(r["check"][key] for r in runs)
           for key in ("cases", "failed", "inexact")},
        "max_rel_diff": max(r["check"]["max_rel_diff"] for r in runs),
    }


def measure(workload: str, seed: int, reference: dict, seconds: float,
            trace: bool) -> list:
    """Passes until `seconds` is used up; with trace, untraced/traced pairs."""
    kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_PASSES
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for traced in kinds:
            out_dir = OUT / workload / f"pass{len(passes)}"
            passes.append(run_pass(workload, seed, reference, out_dir, traced))
        elapsed = time.perf_counter() - start
        rounds = len(passes) // len(kinds)
        if rounds >= min_rounds and elapsed + (time.perf_counter() - t0) > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics

def best_wall(passes: list) -> tuple[float, int]:
    """Sum over experiments of each one's fastest run, and the pass count.

    Interference from other tenants of a shared machine only ever adds
    time, in episodes of seconds to minutes, so the fastest of a few runs
    is a far steadier estimate of the program's cost than their median.
    """
    if not passes:
        raise BenchError("no passes to measure")
    best = {}
    for p in passes:
        for r in p["runs"]:
            if "error" not in r:
                best[r["experiment"]] = min(best.get(r["experiment"], math.inf), r["run_s"])
    if len(best) != len(passes[0]["runs"]):
        raise BenchError("an experiment of the workload never completed")
    return sum(best.values()), len(passes)


def end_to_end(passes: list) -> dict:
    """name -> (value, unit, samples), from untraced passes only.

    wall_median_s, the median over whole passes, is printed for reference
    but not reported as a metric.
    """
    plain = [p for p in passes if not p["traced"]]
    setups = [r["setup_s"] for p in plain for r in p["runs"] if "error" not in r]
    rss = [p["peak_rss_mb"] for p in plain if p["peak_rss_mb"] is not None]
    walls = [sum(r["run_s"] for r in p["runs"]) for p in plain
             if all("error" not in r for r in p["runs"])]
    if not setups or not walls:
        raise BenchError("no pass of the workload completed")
    wall, n_passes = best_wall(plain)
    return {
        "wall_s": (wall, "s", n_passes),
        "setup_s": (min(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
        "wall_median_s": (statistics.median(walls), "s", len(walls)),
    }


def merge_traces(runs: list) -> dict:
    """Sum the per-invocation trace summaries of one traced pass."""
    functions, layers, counters = {}, {}, {}
    for run in runs:
        trace = run.get("trace", {})
        for name, entry in trace.get("functions", {}).items():
            acc = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for name, value in trace.get("layers", {}).items():
            layers[name] = layers.get(name, 0.0) + value
        for name, value in trace.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return {"functions": functions, "layers": layers, "counters": counters}


def check_coverage(workload: str, traces: list) -> None:
    experiments, _ = WORKLOADS[workload]
    for exp in experiments:
        for trace in traces:
            run = next(r for r in trace["runs"] if r["experiment"] == exp)
            functions = run.get("trace", {}).get("functions", {})
            missing = [name for name in (*ALWAYS_CALLED, *CALLED[exp])
                       if functions.get(name, {}).get("calls", 0) == 0]
            if missing:
                raise BenchError(f"{workload} {exp}: traced run recorded no calls "
                                 f"to {', '.join(missing)}")


def frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_layer_metrics(trace_pass: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and its merged trace summary."""
    merged = merge_traces(trace_pass["runs"])
    fn, counters = merged["functions"], merged["counters"]

    def get(name, key):
        return fn.get(name, {}).get(key, 0)

    values = {}
    for name in TIMED:
        values[f"{name}.calls"] = get(name, "calls")
    for name in (*TIMED, *SELF_ONLY):
        values[f"{name}.self_s"] = get(name, "self_s")
    for layer in (*LAYER_SELF, "harness"):
        values[f"{layer}.self_s"] = merged["layers"].get(layer, 0.0)
    var_calls = get("variation.variation_operator", "calls") + get(
        "variation.commutator_variation", "calls")
    values.update({
        "grid.conv_columns": counters.get("conv_columns", 0),
        "grid.convolve_family.unique_frac": frac(
            counters.get("convolve_family_unique", 0), get("grid.convolve_family", "calls")),
        "variation.unique_frac": frac(counters.get("variation_unique", 0), var_calls),
        "variation.turning_frac": frac(counters.get("turning_points", 0),
                                       counters.get("turning_values", 0)),
        "variation.dp_pairs": counters.get("dp_pairs", 0),
        "lattice.ranges": counters.get("lattice_ranges", 0),
        "sparse.family_cubes": counters.get("family_cubes", 0),
        "oscillation.ranges_swept": counters.get("ranges_swept", 0),
        "harness.write_s": get("harness.write_csv", "self_s") + get("harness.write_json", "self_s"),
        "setup.scipy_import_s": statistics.median(
            r["scipy_import_s"] for r in trace_pass["runs"] if "scipy_import_s" in r),
    })
    return values, merged


def per_layer(workload: str, passes: list) -> tuple[dict, dict]:
    """name -> (value, unit, samples) from the traced passes."""
    traced = [p for p in passes if p["traced"]]
    check_coverage(workload, traced)
    per_pass = [pass_layer_metrics(p) for p in traced]
    plain_wall = best_wall([p for p in passes if not p["traced"]])[0]
    traced_wall = best_wall(traced)[0]
    extra = {
        "harness.cases": traced[0]["cases"],
        "harness.rows_inexact": sum(p["inexact"] for p in passes),
        "harness.max_rel_diff": max(p["max_rel_diff"] for p in passes),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in extra:
            metrics[name] = (extra[name], unit, len(passes))
        else:
            metrics[name] = (statistics.median(v[name] for v, _ in per_pass),
                             unit, len(per_pass))
    return metrics, per_pass[0][1]


# ---------------------------------------------------------------------------
# run record

def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_record() -> dict:
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "command": [sys.executable, *sys.argv],
    }


# ---------------------------------------------------------------------------
# entry points

def require_source() -> None:
    if not (SRC / "varharm" / "__init__.py").is_file():
        raise BenchError(f"no varharm source under {SRC}; run from a full checkout")


def warm_up() -> None:
    """Import once so the timed runs do not pay for writing bytecode caches."""
    subprocess.run([sys.executable, "-c", "import varharm.cli"], env=child_env(),
                   capture_output=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)


def bench(args) -> dict:
    require_source()
    seed = config_seed(args.seed)
    reference = load_reference(seed)["cells"][str(WORKLOADS[args.workload][1])]
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    warm_up()
    passes = measure(args.workload, seed, reference, args.seconds, bool(args.trace))

    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["cases"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics, layers = per_layer(args.workload, passes)
    else:
        metrics, layers = end_to_end(passes), None

    record = {
        **machine_record(),
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "configs": {r["experiment"]: r.get("config") for r in plain[0]["runs"]},
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "layers": layers,
        "passes": passes,
    }
    result_file = OUT / args.workload / f"result-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed} (config seed {seed})  "
          f"passes {len(plain)} untraced, {len(passes) - len(plain)} traced")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit:6s} n={samples}")
    print(f"  {'failed_frac':40s} {failed / attempted:>14.6g} {'frac':6s} "
          f"n={attempted} cases")
    print(f"record: {result_file.relative_to(ROOT)}")
    bounded = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in bounded},
    }


def record_references() -> None:
    """Re-record references/seed-*.json.gz from the program in src/."""
    require_source()
    REFERENCES.mkdir(exist_ok=True)
    by_cells = {}
    for experiments, cells in WORKLOADS.values():
        by_cells.setdefault(cells, set()).update(experiments)
    for seed in SEEDS:
        payload = {"seed": seed, "git_commit": git_commit(), "cells": {}}
        for cells, experiments in sorted(by_cells.items()):
            outputs = payload["cells"].setdefault(str(cells), {})
            for exp in sorted(experiments):
                out_dir = OUT / "record" / f"{seed}-{cells}-{exp}"
                shutil.rmtree(out_dir, ignore_errors=True)
                record = invoke(exp, cells, seed, out_dir)
                if "error" in record or record["exit_code"] != 0:
                    raise BenchError(f"seed {seed} {exp} at {cells} cells: "
                                     f"{record.get('error', record.get('exit_code'))}")
                summary = json.loads((out_dir / f"{exp}.json").read_text())
                summary.pop("generated_at", None)
                outputs[exp] = {"csv": (out_dir / f"{exp}.csv").read_text(),
                                "summary": summary}
        data = json.dumps(payload, indent=0, sort_keys=True).encode()
        reference_path(seed).write_bytes(gzip.compress(data, mtime=0))
        print(f"recorded {reference_path(seed).relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=SEEDS[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record the reference outputs and exit")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record_references()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = bench(args)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
