"""Span tracing of jumpmdp's public functions, installed from outside `src/`.

The package's modules import one another's functions by name
(`from .jump_sde import fluid_limit`), so each importing module holds its
own reference.  `Tracer.install` replaces the function at every such lookup
site with one timing wrapper.  Spans (name, start, end, parent) stay in
memory until `write_spans`.  Process-pool workers are forked from a traced
parent; the tracer switches itself off in them, so only spans the parent
process sees are recorded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "jumpmdp"


def _simulate_counts(counters, bound, result) -> None:
    counters["jump_sde.breakpoints"] += bound.arguments["n_cells"] + bound.arguments["events"].n_events


def _realization_counts(counters, bound, result) -> None:
    counters["prm.realizations"] += 1
    counters["prm.events"] += result.n_events


def _linearization_counts(counters, bound, result) -> None:
    counters["mdp_limit.linearized_cells"] += bound.arguments["fluid_path"].n_cells


# "<module>.<function>" -> work counter fed from the call's arguments and result.
TARGETS = {
    "prm.substream": None,
    "prm.sample_poisson_measure": _realization_counts,
    "prm.sample_controlled_measure": _realization_counts,
    "prm.log_likelihood_ratio": None,
    "prm.truncated_tilt": None,
    "jump_sde.simulate_jump_path": _simulate_counts,
    "jump_sde.fluid_limit": None,
    "mdp_limit.build_linearization": _linearization_counts,
    "mdp_limit.gaussian_covariance": None,
    "mdp_limit.decompose_controlled_path": None,
    "rate.controllability_gramian": None,
    "rate.rate_to_point": None,
    "rate.rate_of_path": None,
    "rate.sphere_minimum": None,
    "spde_pollutant.build_eigensystem": None,
    "spde_pollutant.orthonormality_defect": None,
    "spde_pollutant.assemble_model": None,
    "spde_pollutant.galerkin_convergence_study": None,
    "experiments.run_mdp_slope": None,
    "cli.main": None,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._stack: list[int] = []

    def _disable(self) -> None:
        self.enabled = False

    def _wrap(self, name: str, fn, count):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counters, bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every module attribute that refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, count in TARGETS.items():
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)
        experiments = sys.modules[f"{PACKAGE}.experiments"]
        counters = self.counters

        class CountingPool(experiments.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                counters["experiments.pools_created"] += 1
                super().__init__(*args, **kwargs)

        experiments.ProcessPoolExecutor = CountingPool
        os.register_at_fork(after_in_child=self._disable)

    def summary(self) -> dict:
        """Per span name: calls, busy (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict] = {}
        for idx, name in enumerate(self.names):
            busy = self.ends[idx] - self.starts[idx]
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += busy
            agg["self_s"] += busy - child[idx]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"],
                 "spans": list(zip(self.names, self.starts, self.ends, self.parents))},
                fh,
            )
