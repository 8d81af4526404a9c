"""Command line entry points.

Subcommands: simulate, fluid, clt-check, mdp-slope, rate, lemma-check,
var-rep, pollutant.  A single JSON config file drives every run (see the
README for the key set); --seed, --out and --workers override it.  Any failed
numeric check exits with a nonzero status and names the config hash, the
seed, and the first offending row; an invalid config, model or input (an
unknown key, say) exits nonzero with the package's error message.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

import numpy as np

from .experiments import (
    CheckFailure,
    ExperimentConfig,
    check_slope_result,
    entropy_bound_constants,
    run_clt_check,
    run_mdp_slope,
    run_simulate,
    verify_entropy_tail_bounds,
    verify_var_rep,
)
from .jump_sde import ModelError, check_keys, check_value, fluid_limit, write_csv
from .mark_space import MarkSpaceError
from .mdp_limit import build_linearization
from .models import build_model
from .prm import ControlError
from .rate import InadmissiblePathError, rate_to_point, sphere_rate
from . import spde_pollutant as spp

# invalid configs, models and inputs: reported like failed checks, no traceback
INPUT_ERRORS = (ModelError, MarkSpaceError, ControlError, InadmissiblePathError, spp.PollutantError)

# the values that differ from spde_pollutant.params_from_dict's defaults
DEFAULT_POLLUTANT = {"d_space": 1, "velocity": [2.0], "decay": 0.5, "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]]}


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_simulate(cfg: ExperimentConfig) -> None:
    out = cfg.out_dir
    run_simulate(cfg, out_dir=out)
    print(f"simulate: wrote {out}/terminal_stats.csv")


def cmd_fluid(cfg: ExperimentConfig) -> None:
    out = cfg.out_dir
    model = build_model(cfg.model, cfg.model_params)
    path, peak = fluid_limit(model, cfg.n_cells_analysis)
    path.to_csv(os.path.join(out, "fluid.csv"))
    print(f"fluid: wrote {out}/fluid.csv, sup_t |x(t)| = {peak!r}")


def cmd_clt_check(cfg: ExperimentConfig) -> None:
    res = run_clt_check(cfg, out_dir=cfg.out_dir)
    print(
        f"clt-check: eps={res.epsilon!r} R={res.replications} "
        f"rel_frobenius_error={res.rel_frobenius_error:.4f} mean={res.sample_mean}"
    )
    if not res.rel_frobenius_error <= 0.15:  # a NaN error fails too
        raise CheckFailure(
            f"covariance error {res.rel_frobenius_error:.4f} > 0.15",
            res.config_hash, cfg.seed,
        )
    if not res.mean_within(3.0):
        raise CheckFailure("fluctuation mean beyond 3 SE of zero", res.config_hash, cfg.seed)


def cmd_mdp_slope(cfg: ExperimentConfig) -> None:
    out = cfg.out_dir
    res = run_mdp_slope(cfg, out_dir=out)
    for row in res.rows:
        slope = "-" if row.neg_b_log_p is None else f"{row.neg_b_log_p:.4f}"
        print(
            f"mdp-slope[{row.estimator}]: eps={row.epsilon!r} p_hat={row.p_hat:.3e} "
            f"(se {row.se:.1e}) -b*log(p)={slope} predicted={row.predicted_rate:.4f}"
        )
    check_slope_result(res, cfg)
    print(f"mdp-slope: wrote {out}/summary.csv")


def cmd_rate(cfg: ExperimentConfig) -> None:
    out = cfg.out_dir
    model = build_model(cfg.model, cfg.model_params)
    for k, z in enumerate(cfg.rate_targets):
        if len(z) != model.dim:
            raise ModelError(f"rate_targets[{k}] has {len(z)} entries, but {cfg.model} has dim {model.dim}")
    sim = build_linearization(model, fluid_limit(model, cfg.n_cells)[0])  # the sphere rate starts here
    value, zstar, error, _ = sphere_rate(model, sim, cfg.threshold)
    sysm = build_linearization(model, fluid_limit(model, cfg.n_cells_analysis)[0])  # the tables' grid
    targets = [np.asarray(z, dtype=float) for z in cfg.rate_targets] or [zstar]
    sols = [rate_to_point(sysm, z) for z in targets]
    summary = [(f"sphere_{cfg.threshold!r}", value, 0.0, error)]
    summary += [(f"point_{k}", sol.value, sol.residual, None) for k, sol in enumerate(sols)]
    write_csv(os.path.join(out, "rate_summary.csv"), "target,rate,residual,error", summary)
    for k, (z, sol) in enumerate(zip(targets, sols)):
        sol.path.to_csv(os.path.join(out, f"rate_path_{k}.csv"))
        write_csv(os.path.join(out, f"rate_psi_{k}.csv"), None, sol.psi.tolist())
        print(f"rate: target {tuple(z.tolist())} -> I = {sol.value!r} (residual {sol.residual:.2e})")
    print(f"rate: sphere radius {cfg.threshold!r} -> inf I = {value!r} (error {error:.1e}) at z* = {zstar}")


def cmd_lemma_check(cfg: ExperimentConfig) -> None:
    out = cfg.out_dir
    check_keys("lemma", cfg.lemma, ("betas", "m_bound", "eps"))
    betas = check_value("lemma betas", cfg.lemma.get("betas", [1.0, 2.0, 5.0, 10.0, 100.0]), [float], positive=True)
    m_bound = check_value("lemma m_bound", cfg.lemma.get("m_bound", 2.0), positive=True)
    eps_values = check_value("lemma eps", cfg.lemma.get("eps", [0.1, 0.01]), [float], positive=True)
    swept = tuple(b for b in betas if b <= 10.0)
    if not swept:
        raise ModelError(f"lemma betas must hold a beta of at most 10 to sweep, got {betas!r}")
    model = build_model(cfg.model, cfg.model_params)
    consts = entropy_bound_constants(betas)
    report = verify_entropy_tail_bounds(
        model.measure, model.horizon, m_bound, eps_values, betas=swept, rho=cfg.rho, constants=consts
    )
    rows = [*consts.as_rows(), ("quad_envelope", consts.quad_envelope, None, None)]
    write_csv(os.path.join(out, "lemma_constants.csv"), "beta,tail_abs,tail_linear,core_square", rows)
    write_csv(
        os.path.join(out, "lemma_bounds.csv"),
        "psi,epsilon,beta,tail_l1,tail_l1_bound,tilt_tail,tilt_tail_bound,core_l2,core_l2_bound",
        map(dataclasses.astuple, report.rows),
    )
    for name, eps, cost in report.excluded:
        print(f"lemma-check: excluded {name} at eps={eps!r} (cost {cost!r} over budget)")
    if not report.rows:
        raise CheckFailure("no bound row to check: every catalog control is over budget", cfg.config_hash(), cfg.seed)
    if not report.all_hold():
        bad = next(r for r in report.rows if min(r.slacks()) < -1e-12)
        raise CheckFailure("an entropy bound failed", cfg.config_hash(), cfg.seed, bad)
    print(f"lemma-check: {len(report.rows)} bound rows hold; wrote {out}/lemma_bounds.csv")


def cmd_var_rep(cfg: ExperimentConfig) -> None:
    # the block's keys and defaults are verify_var_rep's keyword parameters
    check_keys("var_rep", cfg.var_rep, list(inspect.signature(verify_var_rep).parameters)[1:])
    res = verify_var_rep(cfg, **cfg.var_rep)
    rows = zip(res.tilt_grid.tolist(), res.rhs_values.tolist(), res.rhs_ses.tolist())
    write_csv(os.path.join(cfg.out_dir, "var_rep.csv"), "phi,rhs,se", rows)
    exact = "n/a" if res.lhs_exact is None else f"{res.lhs_exact:.6f}"
    print(
        f"var-rep: lhs={res.lhs_mc:.6f} (se {res.lhs_se:.1e}, exact {exact}) "
        f"rhs_min={res.rhs_min:.6f}"
    )
    if not res.one_sided_ok(3.0):
        raise CheckFailure(
            f"variational upper bound violated: lhs {res.lhs_mc!r} > rhs_min {res.rhs_min!r}",
            res.config_hash, cfg.seed,
        )
    if res.lhs_exact is not None and abs(res.lhs_mc - res.lhs_exact) > 4 * res.lhs_se:
        raise CheckFailure("MC left side far from the closed form", res.config_hash, cfg.seed)


def cmd_pollutant(cfg: ExperimentConfig) -> None:
    out = cfg.out_dir
    spec = cfg.pollutant or DEFAULT_POLLUTANT
    params = spp.params_from_dict(spec)
    # the convergence study's settings, read before any table is written
    epsilon = check_value("epsilon", spec.get("epsilon", 0.05), positive=True)
    seeds = check_value("seeds", spec.get("seeds", [0, 1, 2, 3]), [int], least=0)
    levels = check_value("hs_levels", spec.get("hs_levels", [2, 4, 8, 16, 24]), [int], least=0)
    if not levels:
        raise ModelError(f"hs_levels must hold at least one level, got {levels!r}")
    sysm = spp.build_eigensystem(params)
    defect = spp.orthonormality_defect(sysm)
    if not defect <= 1e-6:  # also catches a NaN defect
        raise CheckFailure(
            f"eigenfunction orthonormality defect {defect!r} is not within 1e-6",
            cfg.config_hash(), cfg.seed,
        )
    modes = [("|".join(map(str, m)), lam) for m, lam in zip(sysm.modes, sysm.eigenvalues.tolist())]
    write_csv(os.path.join(out, "pollutant_modes.csv"), "mode,eigenvalue", modes)
    model = spp.assemble_model(params, sysm)
    fluid, peak = fluid_limit(model, 200)
    fluid.to_csv(os.path.join(out, "pollutant_fluid_coeffs.csv"))
    spp.export_field_snapshot(
        sysm, fluid.terminal(), os.path.join(out, "pollutant_field_T.csv")
    )
    sums = spp.hs_partial_sums(params, levels)
    report = spp.galerkin_convergence_study(params, epsilon=epsilon, seeds=seeds, rho=cfg.rho)
    table = [("orthonormality_defect", defect), ("fluid_peak_norm", peak), ("fluid_gap", report.fluid_gap)]
    table += [(f"fluctuation_gap_seed{i}", g) for i, g in enumerate(report.fluctuation_gaps.tolist())]
    table.append(("tail_weight", report.tail_weight))
    for level in levels:
        plain, witness = sums[level]
        table += [(f"hs_sum_level{level}", plain), (f"hs_witness_level{level}", witness)]
    write_csv(os.path.join(out, "pollutant_report.csv"), "quantity,value", table)
    print(f"pollutant: orthonormality defect {defect:.2e}; {report.summary()}")
    plain_sums = [sums[level][0] for level in levels]
    if len(plain_sums) >= 2 and abs(plain_sums[-1] - plain_sums[-2]) > 1e-8:
        raise CheckFailure(
            "Hilbert-Schmidt partial sums not Cauchy at the probed levels; "
            "increase hs_exponent",
            cfg.config_hash(), cfg.seed,
        )


COMMANDS = {
    "simulate": cmd_simulate,
    "fluid": cmd_fluid,
    "clt-check": cmd_clt_check,
    "mdp-slope": cmd_mdp_slope,
    "rate": cmd_rate,
    "lemma-check": cmd_lemma_check,
    "var-rep": cmd_var_rep,
    "pollutant": cmd_pollutant,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jumpmdp",
        description="Moderate-deviation experiments for Poisson-driven jump SDEs",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        COMMANDS[args.command](_load_config(args))
    except (CheckFailure, AssertionError, *INPUT_ERRORS) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
