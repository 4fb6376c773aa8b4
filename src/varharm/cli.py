"""Command line entry points: run experiments, self-check, weight info."""

from __future__ import annotations

import argparse
import math
import os
import random
import sys

import numpy as np

from .grid import Domain1D, GridFunction, KernelSpec, ScaleFamily, convolve_family
from .harness import (EXPERIMENT_IDS, ConfigError, ExperimentConfig, parse_config,
                      run_experiment)
from .oscillation import is_median, median
from .sparse import build_sparse_family, validate_sparse
from .variation import (commutator_variation, seq_variation_bruteforce,
                        seq_variation_dp)
from .weights import Weight, compute_constants
from .lattice import default_lattices


def _cmd_run(args) -> int:
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
            if args.experiment and args.experiment != cfg.experiment:
                raise ConfigError("--experiment disagrees with the config file")
        elif args.experiment:
            cfg = ExperimentConfig(experiment=args.experiment)
        else:
            raise ConfigError("need --experiment or --config")
        for key, value in (("seed", args.seed), ("out_dir", args.out), ("refine", args.refine)):
            if value is not None:
                setattr(cfg, key, value)
        cfg.validate()
        # before the run: an --out that names a file, or holds a directory
        # where an output goes, fails here, not after the work
        os.makedirs(cfg.out_dir, exist_ok=True)
        csv_path = os.path.join(cfg.out_dir, f"{cfg.experiment}.csv")
        json_path = os.path.join(cfg.out_dir, f"{cfg.experiment}.json")
        for path in (csv_path, json_path):
            if os.path.isdir(path):
                raise ConfigError(f"output {path} is a directory")
        table = run_experiment(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    try:
        table.write_csv(csv_path)
        table.write_json(json_path)
    except OSError as exc:
        print(f"cannot write results: {exc}", file=sys.stderr)
        return 3
    summary = table.summary()
    try:
        print(f"{cfg.experiment}: {summary['n_cases']} cases, "
              f"{summary['n_failures']} failures, max ratio {summary['max_ratio']}")
        print(f"wrote {csv_path} and {json_path}")
        sys.stdout.flush()
    except BrokenPipeError:  # reader gone (| head -1): the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 2 if summary["n_failures"] else 0


def _check_variation_oracle() -> bool:
    rng = random.Random(7)
    for _ in range(100):
        a = np.array([2.0 * rng.random() - 1.0 for _ in range(int(13 * rng.random()))])
        for rho in (1.5, 2.5, 4.0):
            dp = seq_variation_dp(a, rho)
            bf = seq_variation_bruteforce(a, rho)
            if abs(dp - bf) > 1e-12 * max(bf, 1.0):
                return False
    return True


def _check_commutator_annihilation() -> bool:
    d = Domain1D(-8.0, 8.0, 192)
    f = GridFunction.indicator(d, -1.0, 1.0)
    b = GridFunction(d, np.full(d.cells, 3.5))
    scales = ScaleFamily.for_domain(d, count=12)
    prof = commutator_variation(f, b, KernelSpec("gaussian-heat"), scales, 3.0)
    return not np.any(prof.values)


def _check_sparse_builder() -> bool:
    d = Domain1D(-8.0, 8.0, 192)
    x = d.x()
    f = GridFunction(d, ((x >= -1) & (x < 1)).astype(float)
                     + 8.0 * ((x >= 2) & (x < 2.25)))
    return not any(validate_sparse(build_sparse_family(f, lat)) for lat in default_lattices(d))


def _check_median() -> bool:
    d = Domain1D(0.0, 1.0, 24)
    rng = random.Random(11)
    cells = np.arange(24)
    for _ in range(50):
        f = GridFunction(d, np.array([2.0 * rng.random() - 1.0 for _ in range(24)]))
        if not is_median(f, cells, median(f, cells)):
            return False
    return True


def _check_kernel_mass() -> bool:
    d = Domain1D(-12.0, 12.0, 384)
    f = GridFunction(d, np.ones(d.cells))
    # (phi_t * 1)(0); compact bump needs enough samples across its support
    gauss, bump, poisson = (convolve_family(f, KernelSpec(kind), ScaleFamily((t,)))[d.cells // 2, 0]
                            for kind, t in [("gaussian-heat", 0.5), ("compact-bump", 2.0),
                                            ("poisson", 0.5)])
    # poisson mass outside the domain is analytic: 1 - (2/pi) arctan(R/t)
    tail = 1.0 - (2.0 / math.pi) * math.atan(12.0 / 0.5)
    return (abs(gauss - 1.0) <= 1e-6 and abs(bump - 1.0) <= 1e-6
            and abs(poisson - 1.0) <= 2.0 * tail + 1e-3)


_CHECKS = [
    ("variation dp equals brute force", _check_variation_oracle),
    ("commutator with constant b vanishes", _check_commutator_annihilation),
    ("sparse builder output validates", _check_sparse_builder),
    ("median satisfies the counting definition", _check_median),
    ("kernels reproduce constants", _check_kernel_mass),
]


def _cmd_check(_args) -> int:
    failures = 0
    for name, fn in _CHECKS:
        ok = fn()
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return 2 if failures else 0


def _cmd_info(args) -> int:
    try:
        w = Weight.read_csv(args.weights)
    except (OSError, ValueError) as exc:
        print(f"cannot load weight: {exc}", file=sys.stderr)
        return 3
    try:
        constants = compute_constants(w)
    except ValueError as exc:
        print(f"cannot use weight: {exc}", file=sys.stderr)
        return 3
    print(constants.to_json())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varharm",
        description="Empirical laboratory for variation operators of "
                    "approximate identities on weighted spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a batch experiment")
    p_run.add_argument("--experiment", choices=EXPERIMENT_IDS)
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--refine", type=int)
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="run the built-in property checks")
    p_check.set_defaults(fn=_cmd_check)

    p_info = sub.add_parser("info", help="print weight constants")
    p_info.add_argument("--weights", required=True, help="GridFunction CSV")
    p_info.set_defaults(fn=_cmd_info)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
