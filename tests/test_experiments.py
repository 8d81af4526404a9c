import contextlib
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from jumpmdp.experiments import (
    CheckFailure,
    EstimateRow,
    ExperimentConfig,
    entropy_bound_constants,
    run_clt_check,
    run_mdp_slope,
    verify_entropy_tail_bounds,
    verify_var_rep,
    write_summary_csv,
)
from jumpmdp.jump_sde import ModelError
from jumpmdp.mark_space import MarkMeasure
from jumpmdp.models import build_model
from jumpmdp import cli, experiments
from jumpmdp import rate as rate_module

SMALL = dict(
    eps_grid=(0.2, 0.1),
    replications=400,
    is_replications=200,
    clt_epsilon=0.05,
    clt_replications=200,
    n_cells=32,
)


def test_config_validation():
    with pytest.raises(ModelError):
        ExperimentConfig(eps_grid=(0.1, 0.2))
    with pytest.raises(ModelError):
        ExperimentConfig(rho=0.5)
    with pytest.raises(ModelError):
        ExperimentConfig(replications=10)
    with pytest.raises(ModelError):
        ExperimentConfig(beta=1.5)
    for empty in ((), []):
        with pytest.raises(ModelError, match="eps_grid must hold at least one epsilon"):
            ExperimentConfig.from_dict({"eps_grid": empty})


def to_json(cfg):
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=list)


def test_config_roundtrip_and_hash(tmp_path):
    cfg = ExperimentConfig(**SMALL)
    path = tmp_path / "cfg.json"
    path.write_text(to_json(cfg))
    back = ExperimentConfig.from_json_file(path)
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()
    assert len(cfg.config_hash()) == 12
    # where a run writes and how many workers share it leave the hash alone
    moved = dataclasses.replace(cfg, out_dir=str(tmp_path / "elsewhere"), workers=2)
    assert moved.config_hash() == cfg.config_hash()
    assert dataclasses.replace(cfg, seed=cfg.seed + 1).config_hash() != cfg.config_hash()


def test_scaling_helpers():
    cfg = ExperimentConfig(**SMALL)
    assert cfg.a_eps(0.01) == pytest.approx(0.01**0.25)
    assert cfg.b_eps(0.01) == pytest.approx(0.01 / 0.01**0.5)


def test_config_typos_are_named_errors(tmp_path, capsys):
    with pytest.raises(ModelError, match=r"unknown config keys \['replication'\].*'replications'"):
        ExperimentConfig.from_dict({"replication": 500})
    with pytest.raises(ModelError, match=r"unknown parameters \['decy'\].*'decay'"):
        build_model("scalar_benchmark", {"decy": 2.0})
    for bad in ({"replication": 500}, {"model_params": {"decy": 2.0}}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad))
        assert cli.main(["fluid", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FAILED: unknown") and "Traceback" not in err


@pytest.mark.parametrize("case", ["not JSON", "not UTF-8", "missing", "a directory"])
def test_unreadable_config_files_are_named_errors(tmp_path, capsys, case):
    path = tmp_path / "cfg.json"
    if case == "not JSON":
        path.write_text('{"seed": 1,}')
    elif case == "not UTF-8":
        path.write_bytes(b'{"seed": "\xff"}')
    elif case == "a directory":
        path.mkdir()
    out = tmp_path / "out"
    assert cli.main(["fluid", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"FAILED: cannot read config file {str(path)!r}: ") and "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "command, config, extra, key",
    [
        ("fluid", {"n_cells": 0}, [], "n_cells"),
        ("simulate", {"n_cells": 0, "eps_grid": [0.2], "replications": 100}, [], "n_cells"),
        ("fluid", {"workers": -3}, [], "workers"),
        ("fluid", {}, ["--workers", "0"], "workers"),
    ],
)
def test_counts_below_one_are_named_errors(tmp_path, capsys, command, config, extra, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"FAILED: {key} must be at least 1, got ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["fluid", "rate"])
def test_the_retired_analysis_grid_key_is_unknown(tmp_path, capsys, command):
    # every command reads one grid, n_cells
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_cells_analysis": 200}))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED: unknown config keys ['n_cells_analysis']; valid keys: ") and "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


def test_zero_clt_epsilon_is_a_named_error(tmp_path, capsys):
    # clt-check divides by sqrt(clt_epsilon)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"clt_epsilon": 0, "clt_replications": 20, "n_cells": 8}))
    assert cli.main(["clt-check", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "FAILED: clt_epsilon must be positive, got 0\n"
    assert not (tmp_path / "clt_check.csv").exists()


def test_negative_threshold_is_a_named_error(tmp_path, capsys):
    # a negative threshold makes every path a hit; threshold 0 stays valid (test_zero_threshold_is_trivial)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, "threshold": -1}))
    assert cli.main(["mdp-slope", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "FAILED: threshold must be nonnegative, got -1\n"
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [("n_cells", 1.5), ("n_cells", 64.0), ("replications", 400.5),
     ("is_replications", "200"), ("clt_replications", 2.5), ("workers", True)],
)
def test_non_integer_counts_are_named_errors(tmp_path, capsys, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, key: value}))
    assert cli.main(["mdp-slope", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"FAILED: {key} must be an integer, got {value!r}\n"
    assert not (tmp_path / "summary.csv").exists()


def test_negative_seed_is_a_named_error(tmp_path, capsys):
    # SeedSequence takes no negative entropy
    assert cli.main(["fluid", "--seed", "-1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "FAILED: seed must be at least 0, got -1\n"


def test_non_integer_seed_is_a_named_error(tmp_path, capsys):
    # seed 1.5 would run on seed 1's streams under the hash of 1.5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, "seed": 1.5}))
    assert cli.main(["mdp-slope", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "FAILED: seed must be an integer, got 1.5\n"
    assert not (tmp_path / "summary.csv").exists()


def test_var_rep_needs_two_replications(tmp_path, capsys):
    # one replication has no standard deviation: std(ddof=1) warns and gives NaN
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"var_rep": {"replications": 1}}))
    assert cli.main(["var-rep", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "FAILED: var_rep replications must be at least 2 for a standard error, got 1\n"
    assert not (tmp_path / "var_rep.csv").exists()


@pytest.mark.parametrize("count", [2.9, 2000.0, True])
def test_var_rep_count_must_be_an_integer(tmp_path, capsys, count):
    # 2.9 would run 2 replications and report lhs_se 0.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"var_rep": {"replications": count}}))
    assert cli.main(["var-rep", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"FAILED: var_rep replications must be an integer, got {count!r}\n"
    assert not (tmp_path / "var_rep.csv").exists()


def test_clt_check_needs_two_replications(tmp_path, capsys):
    # one replication has no sample covariance: np.cov gives NaN
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"clt_replications": 1, "clt_epsilon": 0.05, "n_cells": 8}))
    assert cli.main(["clt-check", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED: clt_replications must be at least 2, got 1") and "Traceback" not in err


def test_clt_check_fails_on_a_nan_covariance_error(tmp_path, monkeypatch, capsys):
    real = cli.run_clt_check
    monkeypatch.setattr(
        cli, "run_clt_check",
        lambda cfg, out_dir: dataclasses.replace(real(cfg, out_dir), rel_frobenius_error=math.nan),
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"clt_replications": 20, "clt_epsilon": 0.05, "n_cells": 8}))
    assert cli.main(["clt-check", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("FAILED: covariance error nan > 0.15")


@pytest.mark.parametrize(
    "command, block, typo, valid",
    [
        ("var-rep", "var_rep", "replication", "replications"),
        ("lemma-check", "lemma", "beta", "betas"),
        ("pollutant", "pollutant", "max_modes", "max_mode"),
    ],
)
def test_nested_config_typos_are_named_errors(tmp_path, capsys, command, block, typo, valid):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({block: {typo: 10}}))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"FAILED: unknown {block} keys ['{typo}']; valid keys: [")
    assert f"'{valid}'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, block",
    [
        ("probes", [[[0], 1.0]], "probes[0]"),                 # one nesting level short
        ("outputs", [[[[0], 1.0, 2.0]]], "outputs[0]"),        # a triple, not a pair
        ("x0", [[0, 0.7]], "x0"),                              # mode not a list
    ],
)
def test_malformed_pollutant_pairs_are_named_errors(tmp_path, capsys, key, value, block):
    spec = {
        "d_space": 1,
        "velocity": [2.0],
        "max_mode": 3,
        "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]],
        key: value,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pollutant": spec}))
    assert cli.main(["pollutant", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"FAILED: {block} must be a list of [[mode...], coefficient] pairs")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("jump_kernel", "tanh", "jump_kernel must be a kernel mapping"),
        ("drift_kernels", ["tanh"], "drift_kernels[0] must be a kernel mapping"),
        ("probes", 5, "probes must be a list, got 5"),
        ("outputs", 5, "outputs must be a list, got 5"),
        ("x0", [[[0, 0], 0.7]], "x0: mode [0, 0] has 2 components"),  # d_space is 1
    ],
)
def test_malformed_pollutant_blocks_are_named_errors(tmp_path, capsys, key, value, message):
    spec = {
        "d_space": 1,
        "velocity": [2.0],
        "max_mode": 3,
        "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]],
        key: value,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pollutant": spec}))
    assert cli.main(["pollutant", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"FAILED: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "max_mode, message",
    [
        (2, "eigenfunction orthonormality defect nan is not within 1e-6"),
        (0, "eigenfunction orthonormality defect nan is not within 1e-6"),
    ],
)
def test_negative_velocity_fails_with_a_named_error(tmp_path, capsys, max_mode, message):
    # velocity -2000 overflows the weight density: the orthonormality defect
    # is NaN at every max_mode, and the command stops before it writes a CSV
    spec = {"d_space": 1, "velocity": [-2000.0], "max_mode": max_mode, "atoms": [[0.3, 1.0, 1.0]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pollutant": spec}))
    with np.errstate(all="ignore"):
        assert cli.main(["pollutant", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"FAILED: {message}")
    assert "np.float64" not in err
    assert not (tmp_path / "pollutant_report.csv").exists()


STIFF = dict(model="linear_gaussian", model_params={"rate": -3000.0, "gain": 3000.0, "x0": 1.0})


def test_nonfinite_paths_fail_in_both_estimators():
    # the fluid limit sits at its fixed point x0 = 1, but the jump SDE's drift
    # -3000 x is far outside RK4's stability region and overflows on 64 cells
    cfg = ExperimentConfig(**STIFF, **{**SMALL, "n_cells": 64})
    engine = experiments._Engine(cfg, (np.zeros((1, cfg.n_cells)), np.ones(1)))
    with pytest.raises(ModelError, match="blew up at t="):
        engine.terminal_batch(experiments.SLOT_PLAIN, 0, 0.2, 0, 5)
    with pytest.raises(ModelError, match="blew up at t="):
        engine.is_batch(0, 0, 5)
    # the linear analysis is exact on the 200 analysis cells, so the run gets
    # to the Monte Carlo paths and names their blow-up
    with pytest.raises(ModelError, match=r"^jump path blew up at t=.* \(eps=.*\)"):
        run_mdp_slope(cfg)


def test_nonfinite_optimal_control_is_a_named_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**STIFF, **SMALL, "n_cells": 64}))
    assert cli.main(["mdp-slope", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"FAILED: jump path blew up at t=.* \(eps=.*\)", err)
    assert "Traceback" not in err and not (tmp_path / "summary.csv").exists()


def test_nonfinite_optimal_control_fails_without_warnings(tmp_path, capsys):
    # the exact linear analysis and the path blow-up stay quiet: the named error is the message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**STIFF, **SMALL, "n_cells": 64}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["mdp-slope", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"FAILED: jump path blew up at t=.* \(eps=.*\)", err)
    assert not (tmp_path / "summary.csv").exists()


def test_stiff_rate_command_reports_the_limit_rate_at_z_star(tmp_path, capsys):
    # on 64 cells dt |A1| = 47: the exact cell map has no stability limit, and Sigma_T = 1500
    # is exact on any grid, so the point row at z* = 1 is the limit's 1 / (2 Sigma_T) = 1/3000
    # with error 0, as the sphere row is (the sampled system's 1 / (2 W) = 1/128 is rate_to_point's)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(STIFF))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["rate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "rate_summary.csv").read_text().splitlines()
    (sphere, _, _), (point, _, error) = ([float(v) for v in row.split(",")[1:]] for row in rows[1:])
    assert rows[1].startswith("sphere_1.0,") and abs(sphere - 1.0 / 3000.0) <= 1e-12 / 3000.0
    assert rows[2].startswith("point_0,") and abs(point - 1.0 / 3000.0) <= 1e-12 / 3000.0 and error == 0.0


def rate_rows(out, config):
    """{target: [rate, residual, error]} of `jumpmdp rate` on config; a numpy RuntimeWarning is an error."""
    out.mkdir()
    path = out / "cfg.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["rate", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "rate_summary.csv").read_text().splitlines()[1:]
    return {row.split(",")[0]: [float(v) for v in row.split(",")[1:]] for row in rows}


@pytest.mark.parametrize("targets", [[], [[1.0], [-1.0]]])
def test_scalar_point_rates_are_the_closed_form(tmp_path, targets):
    # Sigma_T = (1 - e^{-2}) / 2 is exact on 64 cells, so 1/2 z' Sigma_T^+ z on |z| = 1,
    # at z* and at the given targets, is 1 / (1 - e^{-2}) with error 0
    rows = rate_rows(tmp_path / "out", {"model": "scalar_benchmark", "rate_targets": targets})
    assert list(rows) == ["sphere_1.0", *(f"point_{k}" for k in range(len(targets) or 1))]
    for name, (rate, _, error) in rows.items():
        assert rate == pytest.approx(1.0 / (1.0 - math.exp(-2.0)), rel=4e-16, abs=0.0) and error == 0.0, name


def test_two_d_point_rates_come_from_one_ladder(tmp_path, monkeypatch):
    # every target climbs one ladder of Sigma_T from 64 cells, not from the simulation grid
    grids = []
    real = rate_module.fluid_limit
    monkeypatch.setattr(rate_module, "fluid_limit", lambda model, n: grids.append(n) or real(model, n))
    rows = rate_rows(tmp_path / "star", {"model": "two_d_benchmark", "n_cells": 2000})
    assert grids[0] == 64 and max(grids) < 2000, grids
    (sphere, _, sphere_error), (star, _, star_error) = rows["sphere_1.0"], rows["point_0"]
    assert 0.0 < sphere_error <= 1e-8 * sphere and 0.0 < star_error and abs(star - sphere) <= sphere_error
    # Richardson's (4 r_8000 - r_4000) / 3 of 1/2 z' Sigma_T^{-1} z at z = (1, 1) is 0.28128101943
    ones = rate_rows(tmp_path / "ones", {"model": "two_d_benchmark", "rate_targets": [[1.0, 1.0]]})
    rate, residual, error = ones["point_0"]
    assert abs(rate - 0.28128101943) <= error <= 1e-8 * rate and residual <= 1e-8


def test_a_target_off_the_range_of_sigma_t_has_an_infinite_rate(tmp_path):
    # no jumps drive the state: Sigma_T = W = 0, and the range residual of z = 1 is 1
    config = {"model": "linear_gaussian", "model_params": {"gain": 0.0}, "rate_targets": [[1.0]]}
    rows = rate_rows(tmp_path / "out", config)
    assert rows["point_0"] == [math.inf, 1.0, 0.0]
    assert rows["sphere_1.0"][0] == math.inf


def test_stiff_sphere_rate_is_the_limit_rate(tmp_path, monkeypatch):
    # Sigma_T = 1500 is exact on any grid; W of piecewise-constant controls on
    # 2000 cells is 1270.3, which gave 3.936e-4.  On 32 cells the RK4 paths are
    # finite but meaningless (their norms overflow), so mdp-slope's Monte Carlo
    # is replaced by paths that end at the fluid limit: the rate is not read from them
    cfg = {**STIFF, "model_params": {**STIFF["model_params"], "x0": 0.5}, "n_cells": 32}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["rate", "--config", str(path), "--out", str(tmp_path)]) == 0
    sphere = (tmp_path / "rate_summary.csv").read_text().splitlines()[1].split(",")
    assert sphere[0] == "sphere_1.0" and abs(float(sphere[1]) - 1.0 / 3000.0) <= 1e-12 / 3000.0
    assert float(sphere[3]) == 0.0  # time invariant: no extrapolation error

    @contextlib.contextmanager
    def at_the_fluid_end(run_cfg, importance):
        yield lambda method, args, n: np.full((n, 1), importance[1][0]) if method == "terminal_batch" else np.ones(n)

    monkeypatch.setattr(experiments, "_monte_carlo", at_the_fluid_end)
    small = {"eps_grid": (0.2,), "replications": 100, "is_replications": 100}
    predicted = run_mdp_slope(ExperimentConfig(**cfg, **small)).predicted_rate
    assert abs(predicted - 1.0 / 3000.0) <= 1e-12 / 3000.0


@pytest.mark.parametrize(
    "command, table", [("clt-check", "clt_check.csv"), ("mdp-slope", "summary.csv"), ("rate", "rate_summary.csv")]
)
def test_overflowed_linear_analysis_is_the_only_report(tmp_path, capsys, monkeypatch, command, table):
    # x' = 400 x: W and Sigma_T are about e^800 on any grid, so each command stops
    # at the fold of Sigma_T on the simulation grid, before any Monte Carlo;
    # a numpy RuntimeWarning is an error here
    monkeypatch.setattr(experiments, "_monte_carlo", None)  # a Monte Carlo run would raise TypeError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "linear_gaussian", "model_params": {"rate": 400.0, "gain": 1.0}}))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "FAILED: Gaussian covariance Sigma_T is non-finite on n_cells=64 cells: the linearized flow overflows\n"
    assert not (tmp_path / table).exists()


@pytest.mark.parametrize("command", ["clt-check", "mdp-slope"])
def test_fluid_limit_blow_up_is_the_only_report(tmp_path, capsys, command):
    # from x0 = 0 the stiff fluid limit overflows RK4 on 64 cells; a numpy
    # RuntimeWarning on the way is an error here, so the named failure is all there is
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": "linear_gaussian", "model_params": {"rate": -3000.0, "gain": 3000.0},
        "n_cells": 64,
    }))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("FAILED: fluid limit blew up at t=0.921875\n")


def test_rate_writes_nothing_for_a_misshapen_target(tmp_path, capsys):
    # every target is checked against the model's dimension before the first CSV
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": "two_d_benchmark", "rate_targets": [[0.5, -0.2], [1.0]],
    }))
    out = tmp_path / "out"
    assert cli.main(["rate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED: rate_targets[1]")
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seeds", "x", "seeds must be a list of integers, each at least 0, got 'x'"),
        ("seeds", [0, -1], "seeds must be a list of integers, each at least 0, got [0, -1]"),
        ("hs_levels", [], "hs_levels must hold at least one level, got []"),
        ("hs_levels", [2, 4.5], "hs_levels must be a list of integers, each at least 0, got [2, 4.5]"),
        ("epsilon", 0.0, "epsilon must be positive, got 0.0"),
        ("epsilon", "0.1", "epsilon must be a number, got '0.1'"),
    ],
)
def test_pollutant_study_keys_are_checked_before_any_table(tmp_path, capsys, key, value, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pollutant": {
        "d_space": 1, "max_mode": 3, "atoms": [[0.3, 1.0, 1.0]], key: value,
    }}))
    assert cli.main(["pollutant", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"FAILED: {message}")
    assert not list(tmp_path.rglob("*.csv"))


POLLUTANT_BASE = {"d_space": 1, "atoms": [[0.3, 1.0, 1.0]]}


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("mdp-slope", {"threshold": "1"}, "threshold"),
        ("mdp-slope", {"rho": "0.25"}, "rho"),
        ("mdp-slope", {"beta": None}, "beta"),
        ("mdp-slope", {"eps_grid": 0.1}, "eps_grid"),
        ("mdp-slope", {"model_params": {"decay": "fast"}}, "decay"),
        ("clt-check", {"clt_epsilon": "1e-3"}, "clt_epsilon"),
        ("simulate", {"dump_paths": "no"}, "dump_paths"),
        ("rate", {"rate_targets": 5}, "rate_targets"),
        ("rate", {"model": "two_d_benchmark", "rate_targets": [[1, "a"]]}, "rate_targets"),
        ("var-rep", {"var_rep": {"theta": -1}}, "theta"),
        ("lemma-check", {"lemma": 5}, "lemma"),
        ("lemma-check", {"lemma": {"betas": [0.0]}}, "betas"),
        ("lemma-check", {"lemma": {"m_bound": -1}}, "m_bound"),
        ("lemma-check", {"lemma": {"eps": [0.0]}}, "eps"),
        ("pollutant", {"pollutant": 5}, "pollutant"),
        ("pollutant", {"pollutant": {**POLLUTANT_BASE, "d_space": "two"}}, "d_space"),
        ("pollutant", {"pollutant": {**POLLUTANT_BASE, "side": "x"}}, "side"),
        ("pollutant", {"pollutant": {**POLLUTANT_BASE, "max_mode": -1}}, "max_mode"),
        ("pollutant", {"pollutant": {**POLLUTANT_BASE, "quad_points": 0}}, "quad_points"),
    ],
)
def test_bad_config_values_are_named_before_any_table(tmp_path, capsys, command, config, key):
    # every config value is read by one rule: a wrong type or an out-of-range
    # value exits 1 with one line that names its key, and writes nothing
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    first = err.splitlines()[0]
    assert first.startswith("FAILED: ") and re.search(rf"(?<!\w){key}(?!\w)", first), first
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


def test_lemma_check_sweeps_only_the_configured_betas(tmp_path, capsys):
    # a beta above 10 is tabulated but not swept, and beta 1 is not swept in its place
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lemma": {"betas": [100.0]}}))
    assert cli.main(["lemma-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "FAILED: lemma betas must hold a beta of at most 10 to sweep, got [100.0]\n"
    assert not list(tmp_path.rglob("*.csv"))
    path.write_text(json.dumps({"lemma": {"betas": [2.0, 100.0], "eps": [0.1]}}))
    assert cli.main(["lemma-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    constants = (tmp_path / "out" / "lemma_constants.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in constants[1:]] == ["2.0", "100.0", "quad_envelope"]
    bounds = (tmp_path / "out" / "lemma_bounds.csv").read_text().splitlines()[1:]
    assert bounds and {row.split(",")[2] for row in bounds} == {"2.0"}


def test_lemma_check_with_nothing_to_check_fails(tmp_path, capsys):
    # a budget that excludes every catalog control leaves no bound to check
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lemma": {"m_bound": 1e-6}}))
    assert cli.main(["lemma-check", "--config", str(path), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "excluded two_scale" in captured.out
    assert captured.err.startswith("FAILED: no bound row to check: every catalog control is over budget [config ")


def test_lemma_check_writes_nothing_for_an_unknown_model(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "no_such_model"}))
    assert cli.main(["lemma-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("FAILED: unknown model 'no_such_model'")
    assert not list(tmp_path.rglob("*.csv"))


def test_rate_prints_default_target_as_plain_floats(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "pure_jump"}))
    assert cli.main(["rate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("rate: target (1.0,) -> I = ")


def test_slope_run_creates_one_pool(monkeypatch):
    created = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    run_mdp_slope(ExperimentConfig(seed=3, **SMALL))
    assert created == []
    run_mdp_slope(ExperimentConfig(seed=3, workers=2, **SMALL))
    assert created == [2]


def test_entropy_bound_constants_values():
    consts = entropy_bound_constants((0.01, 1.0, 2.0, 5.0, 10.0, 100.0))
    i = consts.betas.index
    # core_square -> 2 as beta -> 0 (quadratic expansion of the entropy integrand)
    assert abs(consts.core_square[i(0.01)] - 2.0) / 2.0 < 0.01
    # single-point lower bound at x = 0: |0-1|^2 = entropy(0) = 1
    assert consts.core_square[i(1.0)] >= 1.0
    # tail_abs attained at x = 1 + beta
    from jumpmdp.prm import entropy_integrand

    assert consts.tail_abs[i(2.0)] == pytest.approx(2.0 / entropy_integrand(3.0), rel=1e-9)
    # monotone decay toward zero
    k1 = [consts.tail_abs[i(b)] for b in (1.0, 2.0, 5.0, 10.0, 100.0)]
    assert all(b <= a for a, b in zip(k1, k1[1:]))
    assert k1[-1] < 0.3
    k1p = [consts.tail_linear[i(b)] for b in (1.0, 2.0, 5.0, 10.0, 100.0)]
    assert all(b <= a for a, b in zip(k1p, k1p[1:]))
    assert k1p[-1] < 0.3
    # quad_envelope: the max ratio sits at x = 0 where entropy(0)/(0-1)^2 = 1
    assert consts.quad_envelope == pytest.approx(1.0, abs=1e-6)


def test_entropy_tail_bounds_hold():
    measure = MarkMeasure.from_atoms([(1.0, 0.7), (2.0, 0.3)])
    report = verify_entropy_tail_bounds(
        measure, horizon=1.0, m_bound=3.0, eps_values=[0.2, 0.05, 0.01]
    )
    assert report.rows, "catalog produced no admissible rows"
    assert report.all_hold()
    # the tail integrals are exercised nontrivially by the two-scale control
    assert any(r.lhs_tilt_tail > 0 for r in report.rows if r.beta == 2.0)
    assert any(r.lhs_tail_l1 > 0 for r in report.rows)
    # zero control has zero tail integrals
    zero_rows = verify_entropy_tail_bounds(
        measure, 1.0, 1.0, [0.1], psi_catalog={"zero": np.zeros((2, 4))}
    ).rows
    for r in zero_rows:
        assert r.lhs_tail_l1 == 0.0 and r.lhs_core_l2 == 0.0


def test_entropy_tail_bounds_exclusion_notice():
    measure = MarkMeasure.single_atom(1.0, 1.0)
    report = verify_entropy_tail_bounds(
        measure, 1.0, m_bound=1e-6, eps_values=[0.1],
        psi_catalog={"big": np.full((1, 4), 5.0)},
    )
    assert not report.rows
    assert report.excluded and report.excluded[0][0] == "big"


def test_var_rep_zero_functional():
    cfg = ExperimentConfig(**SMALL)
    res = verify_var_rep(cfg, gamma=0.0, replications=2_000)
    assert res.lhs_mc == pytest.approx(0.0, abs=1e-12)
    assert res.rhs_min >= -1e-12
    assert res.one_sided_ok()


def test_var_rep_closed_form_and_scaling():
    cfg = ExperimentConfig(**SMALL)
    res = verify_var_rep(cfg, gamma=0.5, theta=2.0, replications=50_000)
    assert res.lhs_exact == pytest.approx(2.0 * (1.0 - math.exp(-0.5)))
    assert abs(res.lhs_mc - res.lhs_exact) <= 4 * res.lhs_se
    assert res.one_sided_ok()
    doubled = verify_var_rep(cfg, gamma=0.5, theta=4.0, replications=50_000)
    assert doubled.lhs_exact == pytest.approx(2.0 * res.lhs_exact)
    assert abs(doubled.rhs_min - doubled.lhs_exact) <= 3 * (doubled.rhs_min_se + doubled.lhs_se)


def test_var_rep_capped_functional():
    cfg = ExperimentConfig(**SMALL)
    res = verify_var_rep(cfg, functional="capped_count", gamma=0.4, cap=3.0, replications=20_000)
    assert res.lhs_exact is None
    assert res.one_sided_ok()


def test_estimate_row_csv(tmp_path):
    rows = [
        EstimateRow(0.1, 0.56, 0.31, 0.05, 0.001, 0.9, 1.0, "plain"),
        EstimateRow(0.05, 0.47, 0.22, 0.0, 0.0, None, 1.0, "plain"),
    ]
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("epsilon,a_eps,b_eps,p_hat,se,neg_b_log_p")
    assert lines[2].endswith("degenerate")
    assert ",," in lines[2]  # empty slope column, never -inf arithmetic


def test_slope_determinism_and_worker_invariance(tmp_path, monkeypatch):
    cfg = ExperimentConfig(seed=3, **SMALL)
    r1 = run_mdp_slope(cfg, out_dir=str(tmp_path / "a"))
    r2 = run_mdp_slope(cfg, out_dir=str(tmp_path / "b"))
    assert r1.rows == r2.rows
    csv_a = (tmp_path / "a" / "summary.csv").read_bytes()
    csv_b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert csv_a == csv_b
    cfg2 = ExperimentConfig(seed=3, workers=2, **SMALL)
    r3 = run_mdp_slope(cfg2, out_dir=str(tmp_path / "c"))
    assert r3.rows == r1.rows
    assert (tmp_path / "c" / "summary.csv").read_bytes() == csv_a
    # ragged batches of 7 replications, on the pool and off it
    monkeypatch.setattr(experiments, "_chunks", lambda n, workers: [(lo, min(lo + 7, n)) for lo in range(0, n, 7)])
    for name, workers in (("d", 1), ("e", 2)):
        run_mdp_slope(dataclasses.replace(cfg, workers=workers), out_dir=str(tmp_path / name))
        assert (tmp_path / name / "summary.csv").read_bytes() == csv_a


def test_chunks_cover_the_replications_one_batch_per_worker():
    for n in (1, 7, 100, 999, 1000, 1001, 2000, 10_000):
        for workers in (1, 2, 3, 8):
            chunks = experiments._chunks(n, workers)
            ends = [0] + [hi for _, hi in chunks]
            assert [lo for lo, _ in chunks] == ends[:-1] and ends[-1] == n
            assert all(0 < hi - lo <= 1000 for lo, hi in chunks)
            if n <= 1000 * workers:
                assert len(chunks) <= workers


def test_slope_rows_sane():
    cfg = ExperimentConfig(seed=1, threshold=0.8, **SMALL)
    res = run_mdp_slope(cfg)
    assert res.predicted_rate > 0
    plain = res.rows_of("plain")
    is_rows = res.rows_of("is")
    assert len(plain) == len(is_rows) == 2
    for p, i in zip(plain, is_rows):
        assert 0.0 <= p.p_hat <= 1.0
        assert i.p_hat >= 0.0 and i.se >= 0.0
        # cross-validation of the two estimators
        assert abs(p.p_hat - i.p_hat) <= 3.0 * (p.se + i.se) + 1e-12


def test_zero_threshold_is_trivial():
    from jumpmdp.experiments import check_slope_result

    cfg = ExperimentConfig(seed=5, threshold=0.0, **SMALL)
    res = run_mdp_slope(cfg)
    assert res.predicted_rate == 0.0
    for row in res.rows:
        assert row.p_hat == 1.0
        assert row.neg_b_log_p == 0.0
    check_slope_result(res, cfg)


def test_slope_degenerate_rows_flagged():
    cfg = ExperimentConfig(seed=0, threshold=50.0, **SMALL)
    res = run_mdp_slope(cfg)
    plain = res.rows_of("plain")
    assert all(r.p_hat == 0.0 and r.degenerate for r in plain)


def test_clt_zero_noise_model():
    cfg = ExperimentConfig(
        model="scalar_benchmark",
        model_params={"weight": 0.0},
        **SMALL,
    )
    res = run_clt_check(cfg)
    assert res.rel_frobenius_error == 0.0
    assert res.mean_within()


def test_clt_scalar_smoke(tmp_path):
    cfg = ExperimentConfig(seed=2, **SMALL)
    res = run_clt_check(cfg, out_dir=str(tmp_path))
    assert res.predicted_cov[0, 0] == pytest.approx((1 - math.exp(-2.0)) / 2.0, rel=1e-6)
    assert res.rel_frobenius_error < 0.4  # small R smoke bound
    assert (tmp_path / "clt_check.csv").exists()


def test_cli_fluid_rate_lemma_varrep(tmp_path):
    cfg = ExperimentConfig(
        out_dir=str(tmp_path / "out"),
        var_rep={"replications": 20_000},
        lemma={"betas": [1.0, 2.0, 5.0], "eps": [0.1], "m_bound": 2.0},
        rate_targets=((0.5,),),
        **SMALL,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(to_json(cfg))
    for cmd in ("fluid", "rate", "lemma-check", "var-rep"):
        code = cli.main([cmd, "--config", str(cfg_path)])
        assert code == 0, cmd
    out = tmp_path / "out"
    assert (out / "fluid.csv").exists()
    assert (out / "rate_summary.csv").exists()
    assert (out / "lemma_constants.csv").exists()
    assert (out / "lemma_bounds.csv").exists()
    assert (out / "var_rep.csv").exists()


def test_cli_simulate_and_pollutant(tmp_path):
    cfg = ExperimentConfig(
        out_dir=str(tmp_path / "out"),
        eps_grid=(0.2,),
        replications=120,
        is_replications=100,
        n_cells=16,
        dump_paths=True,
        pollutant={
            "d_space": 1,
            "velocity": [2.0],
            "decay": 0.5,
            "radius": 0.05,
            "max_mode": 3,
            "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]],
            "epsilon": 0.1,
            "seeds": [0, 1],
            "hs_levels": [4, 8, 12],
        },
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(to_json(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    assert cli.main(["pollutant", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "terminal_stats.csv").exists()
    assert any(p.name.startswith("eps0_rep") for p in (out / "paths").iterdir())
    assert (out / "pollutant_report.csv").exists()
    assert (out / "pollutant_field_T.csv").exists()


def test_cli_clt_and_slope_trivial_configs(tmp_path):
    clt_cfg = ExperimentConfig(
        model_params={"weight": 0.0},
        out_dir=str(tmp_path / "clt"),
        **SMALL,
    )
    p1 = tmp_path / "clt.json"
    p1.write_text(to_json(clt_cfg))
    assert cli.main(["clt-check", "--config", str(p1)]) == 0
    assert (tmp_path / "clt" / "clt_check.csv").exists()

    slope_cfg = ExperimentConfig(
        threshold=0.0,
        out_dir=str(tmp_path / "slope"),
        **SMALL,
    )
    p2 = tmp_path / "slope.json"
    p2.write_text(to_json(slope_cfg))
    assert cli.main(["mdp-slope", "--config", str(p2)]) == 0
    summary = (tmp_path / "slope" / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2 * len(slope_cfg.eps_grid)


def test_cli_import_leaves_scipy_special_unloaded(tmp_path):
    # scipy.special takes about a third of a second to import, and only the
    # entropy function uses it: neither the import nor a pollutant run loads it
    import jumpmdp

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jumpmdp.__file__)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pollutant": {
        "d_space": 1, "velocity": [2.0], "radius": 0.05, "max_mode": 2,
        "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]], "seeds": [0], "hs_levels": [4],
    }}))
    for code in (
        "import sys, jumpmdp.cli; print('scipy.special' in sys.modules)",
        "import sys, jumpmdp.cli; code = jumpmdp.cli.main(['pollutant', '--config', sys.argv[1], "
        "'--out', sys.argv[2]]); print(code, 'scipy.special' in sys.modules)",
    ):
        out = subprocess.run(
            [sys.executable, "-c", code, str(cfg), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.splitlines()[-1].split()[-1] == "False"
    assert out.stdout.splitlines()[-1] == "0 False"


def test_cli_runs_leave_scipy_linalg_unloaded(tmp_path):
    # scipy.linalg takes about a tenth of a second to import; the linear
    # analysis (Gramian, Sigma_T, rate solvers) runs on numpy alone
    import jumpmdp

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jumpmdp.__file__)))
    small = {"model": "scalar_benchmark", "eps_grid": [0.2, 0.1], "replications": 100,
             "is_replications": 100, "clt_replications": 100, "n_cells": 16}
    configs = {
        "mdp-slope": small,
        "clt-check": small,
        "pollutant": {"pollutant": {
            "d_space": 1, "velocity": [2.0], "radius": 0.05, "max_mode": 2,
            "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]], "seeds": [0], "hs_levels": [4],
        }},
    }
    for command, cfg in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(cfg))
    code = (
        "import sys, jumpmdp.cli\n"
        "for command in sys.argv[2:]:\n"
        "    jumpmdp.cli.main([command, '--config', f'{sys.argv[1]}/{command}.json', "
        "'--out', f'{sys.argv[1]}/{command}'])\n"
        "    print(command, 'scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *configs],
        env=env, capture_output=True, text=True, check=True,
    )
    assert [line for line in out.stdout.splitlines() if line.split()[0] in configs] == [
        f"{command} False" for command in configs
    ]
    for table in ("mdp-slope/summary.csv", "clt-check/clt_check.csv", "pollutant/pollutant_report.csv"):
        assert (tmp_path / table).exists()


def test_cli_failure_exit_code(tmp_path, monkeypatch):
    def boom(cfg):
        raise CheckFailure("synthetic failure", "deadbeef", 0, None)

    monkeypatch.setitem(cli.COMMANDS, "fluid", boom)
    code = cli.main(["fluid", "--out", str(tmp_path)])
    assert code == 1


def test_cli_overrides(tmp_path):
    code = cli.main(["fluid", "--out", str(tmp_path / "x"), "--seed", "9"])
    assert code == 0
    assert (tmp_path / "x" / "fluid.csv").exists()


def test_check_failure_message_contains_context():
    err = CheckFailure("bad row", "abc123", 7, row={"epsilon": 0.1})
    msg = str(err)
    assert "abc123" in msg and "seed 7" in msg and "epsilon" in msg
