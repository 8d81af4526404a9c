"""One invocation of a workload, in a fresh interpreter.

    python3 perfbench/invoke.py run   WORKLOAD SEED SIZE OUT_DIR [--trace]
    python3 perfbench/invoke.py setup WORKLOAD SEED SIZE OUT_DIR

`run` calls the jumpmdp CLI in-process (for `galerkin` it then runs the
analysis chain) and writes `result.json` to OUT_DIR: the CLI's exit status,
the values the checks need, peak RSS, the config hash and, with --trace, the
per-function span summary (the spans themselves go to `spans.json`).
`setup` times the import of jumpmdp plus building the workload's config and
model, and writes `setup.json`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def setup(name: str, seed: int, size: str, out_dir: str) -> None:
    start = time.perf_counter()
    import jumpmdp  # noqa: F401  (the import is part of what is timed)
    import workloads

    workloads.build_inputs(name, seed, size)
    setup_s = time.perf_counter() - start
    with open(os.path.join(out_dir, "setup.json"), "w") as fh:
        json.dump({"setup_s": setup_s, "versions": versions()}, fh)


def versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def run(name: str, seed: int, size: str, out_dir: str, trace: bool) -> None:
    import jumpmdp  # noqa: F401  (loads every module the tracer patches)
    from jumpmdp import cli, experiments

    import workloads
    from tracer import Tracer

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    spec = workloads.WORKLOADS[name]
    cfg_path = workloads.write_config(name, seed, size, out_dir)
    argv = [spec["command"], "--config", cfg_path, "--seed", str(seed),
            "--out", out_dir, "--workers", str(spec["workers"])]
    result = {"exit_status": cli.main(argv)}
    if spec["command"] == "pollutant":
        result.update(workloads.galerkin_chain(seed, size))
    cfg = dataclasses.replace(
        experiments.ExperimentConfig.from_json_file(cfg_path),
        seed=seed, out_dir=out_dir, workers=spec["workers"],
    )
    result["config_hash"] = cfg.config_hash()
    result["versions"] = versions()
    result["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer:
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        tracer.write_spans(os.path.join(out_dir, "spans.json"))
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode, name, seed, size, out_dir = sys.argv[1:6]
    if mode == "setup":
        setup(name, int(seed), size, out_dir)
    else:
        run(name, int(seed), size, out_dir, trace="--trace" in sys.argv[6:])
