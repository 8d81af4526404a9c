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
from .jump_sde import ModelError, check_keys, fluid_limit
from .mark_space import MarkSpaceError
from .mdp_limit import build_linearization
from .models import build_model
from .prm import ControlError
from .rate import InadmissiblePathError, controllability_gramian, rate_to_point, sphere_minimum
from . import spde_pollutant as spp

# invalid configs, models and inputs: reported like failed checks, no traceback
INPUT_ERRORS = (ModelError, MarkSpaceError, ControlError, InadmissiblePathError, spp.PollutantError)

DEFAULT_POLLUTANT = {
    "d_space": 1,
    "side": 1.0,
    "diffusivity": 1.0,
    "velocity": [2.0],
    "decay": 0.5,
    "radius": 0.05,
    "max_mode": 5,
    "horizon": 1.0,
    "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]],
    "jump_kernel": {"kind": "constant", "value": 1.0},
    "epsilon": 0.05,
    "seeds": [0, 1, 2, 3],
    "hs_levels": [2, 4, 8, 16, 24],
}


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


def _outdir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def cmd_simulate(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg)
    run_simulate(cfg, out_dir=out)
    print(f"simulate: wrote {out}/terminal_stats.csv")


def cmd_fluid(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg)
    model = build_model(cfg.model, cfg.model_params)
    path, peak = fluid_limit(model, cfg.n_cells_analysis)
    path.to_csv(os.path.join(out, "fluid.csv"))
    print(f"fluid: wrote {out}/fluid.csv, sup_t |x(t)| = {peak!r}")


def cmd_clt_check(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg)
    res = run_clt_check(cfg, out_dir=out)
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
    out = _outdir(cfg)
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
    out = _outdir(cfg)
    model = build_model(cfg.model, cfg.model_params)
    fluid, _ = fluid_limit(model, cfg.n_cells_analysis)
    sysm = build_linearization(model, fluid)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed flow is named next
        gram = controllability_gramian(sysm)
    gram.check_finite()
    value, zstar = sphere_minimum(gram, cfg.threshold)
    with open(os.path.join(out, "rate_summary.csv"), "w") as fh:
        fh.write("target,rate,residual\n")
        fh.write(f"sphere_{cfg.threshold!r},{value!r},0.0\n")
        targets = cfg.rate_targets or (tuple(zstar),)
        for k, z in enumerate(targets):
            sol = rate_to_point(sysm, np.asarray(z, dtype=float))
            fh.write(f"point_{k},{sol.value!r},{sol.residual!r}\n")
            sol.path.to_csv(os.path.join(out, f"rate_path_{k}.csv"))
            with open(os.path.join(out, f"rate_psi_{k}.csv"), "w") as pfh:
                for prow in sol.psi:
                    pfh.write(",".join(repr(float(v)) for v in prow) + "\n")
            print(f"rate: target {z} -> I = {sol.value!r} (residual {sol.residual:.2e})")
    print(f"rate: sphere radius {cfg.threshold!r} -> inf I = {value!r} at z* = {zstar}")


def cmd_lemma_check(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg)
    lemma_cfg = cfg.lemma or {}
    check_keys("lemma", lemma_cfg, ("betas", "m_bound", "eps"))
    betas = tuple(lemma_cfg.get("betas", (1.0, 2.0, 5.0, 10.0, 100.0)))
    consts = entropy_bound_constants(betas)
    with open(os.path.join(out, "lemma_constants.csv"), "w") as fh:
        fh.write("beta,tail_abs,tail_linear,core_square\n")
        for b, k1, k1p, k2 in consts.as_rows():
            fh.write(f"{b!r},{k1!r},{k1p!r},{k2!r}\n")
        fh.write(f"quad_envelope,{consts.quad_envelope!r},,\n")
    model = build_model(cfg.model, cfg.model_params)
    report = verify_entropy_tail_bounds(
        measure=model.measure,
        horizon=model.horizon,
        m_bound=float(lemma_cfg.get("m_bound", 2.0)),
        eps_values=lemma_cfg.get("eps", [0.1, 0.01]),
        betas=tuple(b for b in betas if b <= 10.0) or (1.0,),
        rho=cfg.rho,
        constants=consts,
    )
    with open(os.path.join(out, "lemma_bounds.csv"), "w") as fh:
        fh.write(
            "psi,epsilon,beta,tail_l1,tail_l1_bound,tilt_tail,tilt_tail_bound,"
            "core_l2,core_l2_bound\n"
        )
        for r in report.rows:
            fh.write(
                f"{r.psi_name},{r.epsilon!r},{r.beta!r},{r.lhs_tail_l1!r},"
                f"{r.bound_tail_l1!r},{r.lhs_tilt_tail!r},{r.bound_tilt_tail!r},"
                f"{r.lhs_core_l2!r},{r.bound_core_l2!r}\n"
            )
    for name, eps, cost in report.excluded:
        print(f"lemma-check: excluded {name} at eps={eps!r} (cost {cost!r} over budget)")
    if not report.all_hold():
        bad = next(r for r in report.rows if min(r.slacks()) < -1e-12)
        raise CheckFailure("an entropy bound failed", cfg.config_hash(), cfg.seed, bad)
    print(f"lemma-check: {len(report.rows)} bound rows hold; wrote {out}/lemma_bounds.csv")


def cmd_var_rep(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg)
    vr = cfg.var_rep or {}
    # the block's keys and defaults are verify_var_rep's keyword parameters
    keys = inspect.signature(verify_var_rep).parameters
    check_keys("var_rep", vr, [k for k in keys if k not in ("cfg", "tilt_grid")])
    res = verify_var_rep(cfg, **vr)
    with open(os.path.join(out, "var_rep.csv"), "w") as fh:
        fh.write("phi,rhs,se\n")
        for phi, v, s in zip(res.tilt_grid, res.rhs_values, res.rhs_ses):
            fh.write(f"{float(phi)!r},{float(v)!r},{float(s)!r}\n")
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
    out = _outdir(cfg)
    spec = cfg.pollutant or DEFAULT_POLLUTANT
    params = spp.params_from_dict(spec)
    sysm = spp.build_eigensystem(params)
    defect = spp.orthonormality_defect(sysm, params.quad_points)
    if not defect <= 1e-6:  # also catches a NaN defect
        raise CheckFailure(
            f"eigenfunction orthonormality defect {defect!r} is not within 1e-6",
            cfg.config_hash(), cfg.seed,
        )
    with open(os.path.join(out, "pollutant_modes.csv"), "w") as fh:
        fh.write("mode,eigenvalue\n")
        for m, lam in zip(sysm.modes, sysm.eigenvalues):
            fh.write(f"{'|'.join(map(str, m))},{float(lam)!r}\n")
    model = spp.assemble_model(params, sysm)
    fluid, peak = fluid_limit(model, 200)
    fluid.to_csv(os.path.join(out, "pollutant_fluid_coeffs.csv"))
    spp.export_field_snapshot(
        sysm, fluid.terminal(), os.path.join(out, "pollutant_field_T.csv")
    )
    levels = spec.get("hs_levels", [2, 4, 8, 16, 24])
    sums = spp.hs_partial_sums(params, levels)
    report = spp.galerkin_convergence_study(
        params,
        epsilon=float(spec.get("epsilon", 0.05)),
        seeds=spec.get("seeds", [0, 1, 2, 3]),
        rho=cfg.rho,
    )
    with open(os.path.join(out, "pollutant_report.csv"), "w") as fh:
        fh.write("quantity,value\n")
        fh.write(f"orthonormality_defect,{defect!r}\n")
        fh.write(f"fluid_peak_norm,{peak!r}\n")
        fh.write(f"fluid_gap,{report.fluid_gap!r}\n")
        for i, g in enumerate(report.fluctuation_gaps):
            fh.write(f"fluctuation_gap_seed{i},{float(g)!r}\n")
        fh.write(f"tail_weight,{report.tail_weight!r}\n")
        for level in levels:
            plain, witness = sums[level]
            fh.write(f"hs_sum_level{level},{plain!r}\n")
            fh.write(f"hs_witness_level{level},{witness!r}\n")
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
