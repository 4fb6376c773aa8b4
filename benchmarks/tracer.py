"""Spans around the public functions of every varharm layer, installed from
outside the package.

Each public function defined in a layer module is wrapped once and the
wrapper is bound in every varharm module namespace that holds the original,
because several modules re-import names from others (`convolve_family` in
`variation`, `variation_operator` in `sparse` and `harness`, `hl_maximal`
in `weights`, ...). The benchmark checks that each experiment's traced
calls are non-zero, which fails if a re-import was missed. Spans stay in memory
and are written when the run ends. A few wrapped functions also feed
counters (distinct inputs, turning points, ranges swept); that bookkeeping
runs outside the function's span and is recorded as a `trace.observe` span
so that it is not charged to any layer.
"""

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

import varharm
import varharm.cli
from varharm import (atoms, grid, harness, lattice, oscillation, sparse,
                     variation, weights)

LAYERS = {"grid": grid, "variation": variation, "lattice": lattice,
          "weights": weights, "sparse": sparse, "oscillation": oscillation,
          "atoms": atoms, "harness": harness}

# Per-scale helpers of convolve_family: left unwrapped so that the
# convolution cost is convolve_family's own self time.
UNWRAPPED = {"grid.convolve", "grid.eval_kernel_dilated"}

# The output writers are methods, not module functions.
METHODS = {"harness.write_csv": (harness.RatioTable, "write_csv"),
           "harness.write_json": (harness.RatioTable, "write_json")}
WRITERS = tuple(METHODS)


class CoverageError(RuntimeError):
    """A function the benchmark traces is missing from the package."""


def _digest(values) -> bytes:
    arr = np.ascontiguousarray(getattr(values, "values", values), dtype=float)
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


def _turning_points(fam: np.ndarray) -> int:
    """Endpoints plus strict local extrema along each row of an (N, m) family."""
    n, m = fam.shape
    if m < 3:
        return n * m
    mid, left, right = fam[:, 1:-1], fam[:, :-2], fam[:, 2:]
    ext = ((mid > left) & (mid > right)) | ((mid < left) & (mid < right))
    return 2 * n + int(np.count_nonzero(ext))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = defaultdict(int)
        self.seen = defaultdict(set)
        self.rebound = {}
        self.observers = {
            "grid.convolve_family": self._observe_convolve_family,
            "variation.commutator_family": self._observe_commutator_family,
            "variation.variation_operator": self._observe_variation,
            "variation.commutator_variation": self._observe_variation,
            "lattice.cube_domain_ranges": self._observe_ranges,
            "sparse.build_sparse_family": self._observe_sparse_family,
            "oscillation.bmo_nu_norm": self._observe_bmo,
        }

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn):
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, time.perf_counter(), 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                t0 = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result, parent)
                spans.append(["trace.observe", t0, time.perf_counter(), parent])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function and rebind it everywhere."""
        originals = {}
        for layer, mod in LAYERS.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    if name in UNWRAPPED:
                        continue
                    originals[id(obj)] = (obj, self.wrap(name, obj), name)
        namespaces = {name: mod for name, mod in sys.modules.items()
                      if name == "varharm" or name.startswith("varharm.")}
        rebound = defaultdict(set)
        for mod_name, mod in namespaces.items():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    rebound[hit[2]].add(mod_name.split(".")[-1])
        for name, (cls, attr) in METHODS.items():
            fn = getattr(cls, attr, None)
            if not inspect.isfunction(fn):
                raise CoverageError(f"{name}: {cls.__name__}.{attr} is missing")
            setattr(cls, attr, self.wrap(name, fn))
        for name in self.observers:
            if name not in rebound:
                raise CoverageError(f"{name} is missing from the package")
        self.rebound = {name: sorted(mods) for name, mods in rebound.items()}

    def run_root(self, fn, *args):
        """Call fn inside the root `harness.run` span."""
        return self.wrap("harness.run", fn)(*args)

    # -- observers (run outside the wrapped span) -----------------------------

    def _dp_family(self, fam) -> None:
        n, m = fam.shape
        self.counters["turning_points"] += _turning_points(fam)
        self.counters["turning_values"] += n * m
        self.counters["dp_pairs"] += n * m * (m - 1) // 2

    def _observe_convolve_family(self, a, result, parent) -> None:
        self.counters["conv_columns"] += len(a["scales"])
        self.seen["convolve_family"].add(
            (_digest(a["f"]), a["kernel"], a["scales"], a["method"]))
        if parent >= 0 and self.spans[parent][0] == "variation.variation_operator":
            self._dp_family(result)

    def _observe_commutator_family(self, a, result, parent) -> None:
        if parent >= 0 and self.spans[parent][0] == "variation.commutator_variation":
            self._dp_family(result)

    def _observe_variation(self, a, result, parent) -> None:
        b = a.get("b")
        self.seen["variation"].add(
            (_digest(a["f"]), None if b is None else _digest(b), a["kernel"],
             a["scales"], a["rho"]))

    def _observe_ranges(self, a, result, parent) -> None:
        self.counters["lattice_ranges"] += len(result)

    def _observe_sparse_family(self, a, result, parent) -> None:
        self.counters["family_cubes"] += len(result.cubes)

    def _observe_bmo(self, a, result, parent) -> None:
        self.counters["ranges_swept"] += len(a["ranges"])

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, total and self time; layer self time; counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions = {}
        layers = defaultdict(float)
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            own = end - start - inner
            entry = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["total_s"] += end - start
            entry["self_s"] += own
            if name != "trace.observe":
                entry["calls"] += 1
            if name not in WRITERS:
                layers[name.split(".", 1)[0]] += own
        counters = dict(self.counters)
        for key, seen in self.seen.items():
            counters[f"{key}_unique"] = len(seen)
        return {"functions": functions, "layers": dict(layers),
                "counters": counters, "rebound": self.rebound}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": [[*rec, self.run_id] for rec in self.spans]}, fh)
