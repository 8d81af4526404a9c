"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from jumpmdp.experiments import (
    ExperimentConfig,
    check_slope_result,
    entropy_bound_constants,
    run_clt_check,
    run_mdp_slope,
    verify_entropy_tail_bounds,
    verify_var_rep,
)
from jumpmdp.jump_sde import fluid_limit
from jumpmdp.mark_space import MarkMeasure
from jumpmdp.mdp_limit import (
    build_linearization,
    decompose_controlled_path,
    solve_limit_path,
)
from jumpmdp.models import build_model
from jumpmdp.prm import (
    ControlField,
    entropy_integrand,
    log_likelihood_ratios,
    sample_controlled_batch,
    sample_controlled_measure,
    sample_poisson_batch,
    sample_poisson_measure,
    substream,
    truncated_tilt,
)
from jumpmdp.rate import (
    controllability_gramian,
    rate_of_path,
    rate_to_point,
)


@contextmanager
def criterion(num, desc, limit_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL ({time.time() - t0:.1f}s): {desc}")
        raise
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num} PASS ({elapsed:.1f}s): {desc}")
    assert elapsed < limit_s, f"criterion {num} exceeded the {limit_s}s budget"


def test_criterion_1_entropy_function_suite():
    with criterion(1, "entropy function and inequality constants", 5.0):
        assert entropy_integrand(1.0) == 0.0
        assert entropy_integrand(0.0) == 1.0
        grid = np.linspace(0.0, 100.0, 10_000)
        vals = entropy_integrand(grid)
        second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second_diff >= -1e-12)

        betas = (0.01, 1.0, 2.0, 5.0, 10.0, 100.0)
        consts = entropy_bound_constants(betas)
        i = consts.betas.index
        tail = [i(b) for b in (1.0, 2.0, 5.0, 10.0, 100.0)]
        k1 = consts.tail_abs[tail]
        k1p = consts.tail_linear[tail]
        assert np.all(np.diff(k1) <= 0) and np.all(np.diff(k1p) <= 0)
        assert k1[-1] < 0.3 and k1p[-1] < 0.3  # heading to zero
        assert abs(consts.core_square[i(0.01)] - 2.0) / 2.0 <= 0.01

        measure = MarkMeasure.from_atoms([(1.0, 0.7), (2.0, 0.3)])
        report = verify_entropy_tail_bounds(
            measure, horizon=1.0, m_bound=3.0,
            eps_values=[0.2, 0.05, 0.01],
            betas=(1.0, 2.0, 5.0, 10.0),
            constants=consts,
        )
        assert report.rows and report.all_hold()


def test_criterion_2_controlled_prm():
    with criterion(2, "thinned sampling law and likelihood-ratio martingale", 60.0):
        # constant tilt phi = 2 matches the constant-rate law: chi-square over
        # atom x cell bins at 1e4 expected events
        measure = MarkMeasure.from_atoms([(0.0, 0.25), (1.0, 0.75)])
        n_cells, theta, phi_const = 25, 5000.0, 2.0
        a = 0.5
        ctrl = ControlField(np.full((2, n_cells), (phi_const - 1.0) / a), 1.0, a)
        out = sample_controlled_measure(measure, theta, ctrl, substream(100))
        bins = np.zeros((2, n_cells))
        cells = ctrl.cell_of(out.times)
        np.add.at(bins, (out.atoms, cells), 1.0)
        expected = theta * phi_const * measure.weights[:, None] / n_cells
        expected = expected * np.ones((1, n_cells))
        chi2 = stats.chisquare(bins.ravel(), expected.ravel() * bins.sum() / expected.sum())
        assert chi2.pvalue > 0.001

        # per-cell Poisson dispersion over 1e4 replications, drawn in batches
        # on the per-replication streams substream(101, r)
        psi = np.array([[1.5, -0.4], [0.3, 0.9]])
        ctrl2 = ControlField(psi, 1.0, 0.5)
        theta2, n_rep, chunk = 8.0, 10_000, 1000
        counts = np.zeros((n_rep, 2, 2))
        for lo in range(0, n_rep, chunk):
            rngs = [substream(101, r) for r in range(lo, lo + chunk)]
            batch = sample_controlled_batch(measure, theta2, [ctrl2] * chunk, rngs)
            rows = lo + np.repeat(np.arange(chunk), np.diff(batch.offsets))
            np.add.at(counts, (rows, batch.atoms, (batch.times > 0.5).astype(int)), 1.0)
        emp_mean = counts.mean(axis=0)
        disp = counts.var(axis=0, ddof=1) / emp_mean
        assert np.all(disp >= 0.9) and np.all(disp <= 1.1)

        # exp(log LR) has mean one: 1e5 samples on substream(102, r), 3 standard errors
        unit = MarkMeasure.single_atom(1.0, 1.0)
        lr_ctrl = ControlField(np.full((1, 4), 0.5), 1.0, 1.0)  # phi = 1.5
        n_lr, chunk = 100_000, 10_000
        vals = np.array([
            math.exp(v)
            for lo in range(0, n_lr, chunk)
            for v in log_likelihood_ratios(
                sample_poisson_batch(unit, 2.0, 1.0, [substream(102, r) for r in range(lo, lo + chunk)]),
                lr_ctrl, unit, 2.0,
            ).tolist()
        ])
        se = vals.std(ddof=1) / math.sqrt(n_lr)
        assert abs(vals.mean() - 1.0) <= 3.0 * se


def test_criterion_3_variational_representation():
    with criterion(3, "variational representation one-sided check", 30.0):
        cfg = ExperimentConfig()
        gamma, theta = 0.5, 2.0
        res = verify_var_rep(cfg, gamma=gamma, theta=theta, replications=100_000)
        exact = theta * 1.0 * 1.0 * (1.0 - math.exp(-gamma))
        assert res.lhs_exact == pytest.approx(exact, rel=1e-14)
        assert abs(res.lhs_mc - exact) <= 3.0 * res.lhs_se
        # the best constant tilt reaches the left side within 2 SE
        slack = 2.0 * (res.lhs_se + res.rhs_min_se)
        assert abs(res.rhs_min - res.lhs_mc) <= slack
        assert res.one_sided_ok(3.0)


def test_criterion_4_rate_equivalence():
    with criterion(4, "rate-function equivalence on 50 random controls", 10.0):
        rng = np.random.default_rng(2024)
        for name in ("scalar_benchmark", "two_d_benchmark"):
            model = build_model(name)
            fluid, _ = fluid_limit(model, 200)
            sysm = build_linearization(model, fluid)
            n_atoms = sysm.measure.n_atoms
            w = sysm.measure.weights
            for _ in range(25):
                psi = rng.normal(size=(n_atoms, 200))
                eta = solve_limit_path(sysm, psi)
                sol = rate_of_path(sysm, eta)
                half_norm = 0.5 * float(np.sum(psi**2 * w[:, None])) * sysm.dt
                assert sol.value <= half_norm + 1e-8
                # these frames span the full atom space, so equality holds
                assert abs(sol.value - half_norm) <= 1e-8
            z = rng.normal(size=model.dim)
            tsol = rate_to_point(sysm, z)
            psi_cost = 0.5 * float(np.sum(tsol.psi**2 * w[:, None])) * sysm.dt
            assert abs(psi_cost - tsol.value) <= 1e-8 * max(tsol.value, 1e-12)


def test_criterion_5_gramian_closed_forms():
    with criterion(5, "controllability Gramian closed forms", 30.0):
        a, sig, T = 1.0, 1.0, 1.0
        model = build_model("linear_gaussian", {"rate": a, "gain": sig, "horizon": T})
        fluid, _ = fluid_limit(model, 2000)
        sysm = build_linearization(model, fluid)
        w_exact = sig**2 * (math.exp(2 * a * T) - 1.0) / (2 * a)
        gram = controllability_gramian(sysm)
        assert abs(gram.matrix[0, 0] - w_exact) / w_exact <= 1e-6
        z = np.array([0.9])
        i1 = rate_to_point(sysm, z).value
        i4 = rate_to_point(sysm, 2.0 * z).value
        assert abs(i4 - 4.0 * i1) <= 1e-8 * max(i4, 1.0)
        assert i1 == pytest.approx(z[0] ** 2 / (2.0 * w_exact), rel=1e-6)


def test_criterion_6_clt_regime():
    with criterion(6, "CLT regime variance and mean", 120.0):
        cfg = ExperimentConfig(clt_epsilon=1e-3, clt_replications=2000, seed=6)
        res = run_clt_check(cfg)
        sigma_exact = (1.0 - math.exp(-2.0)) / 2.0
        assert res.predicted_cov[0, 0] == pytest.approx(sigma_exact, rel=1e-8)
        assert res.rel_frobenius_error <= 0.15
        assert res.mean_within(3.0)


def test_criterion_7_mdp_slope():
    with criterion(7, "moderate-deviation slope via importance sampling", 600.0):
        cfg = ExperimentConfig(seed=7, threshold=1.0)
        res = run_mdp_slope(cfg)
        w_t = (1.0 - math.exp(-2.0)) / 2.0
        assert res.predicted_rate == pytest.approx(1.0 / (2.0 * w_t), rel=1e-6)
        check_slope_result(res, cfg)  # 25% proximity + monotone trend
        plain0 = res.rows_of("plain")[0]
        is0 = res.rows_of("is")[0]
        assert abs(plain0.p_hat - is0.p_hat) <= 3.0 * (plain0.se + is0.se)


def test_criterion_8_decomposition_audit():
    with criterion(8, "fluctuation decomposition reconstruction and trend", 120.0):
        model = build_model("scalar_benchmark", {"x0": 1.0})
        psi = np.full((1, 32), 0.4)
        eps0 = 0.05
        ctrl0 = truncated_tilt(psi, 1.0, eps0**0.25, 1.0)
        for r in range(100):
            parts = decompose_controlled_path(model, eps0, ctrl0, seed=r)
            assert parts.reconstruction_gap() <= 1e-8
        means, ses = [], []
        for i, eps in enumerate((0.1, 0.05, 0.02)):
            ctrl = truncated_tilt(psi, 1.0, eps**0.25, 1.0)
            sups = np.array([
                np.max(np.abs(decompose_controlled_path(model, eps, ctrl, seed=1000 * i + r).martingale.values))
                for r in range(200)
            ])
            means.append(sups.mean())
            ses.append(sups.std(ddof=1) / math.sqrt(200))
        for k in range(len(means) - 1):
            assert means[k + 1] <= means[k] + 2.0 * (ses[k] + ses[k + 1])


def test_criterion_9_pollutant_model():
    with criterion(9, "pollutant Galerkin model", 120.0):
        from jumpmdp.spde_pollutant import (
            PollutantParams,
            assemble_model,
            build_eigensystem,
            hs_partial_sums,
            orthonormality_defect,
        )
        from jumpmdp.jump_sde import simulate_jump_path

        measure = MarkMeasure.from_atoms([((0.3, 1.0), 0.6), ((0.7, 2.0), 0.4)])
        params = PollutantParams(
            d_space=1, side=1.0, diffusivity=1.0, velocity=(2.0,),
            decay=0.5, radius=0.05, max_mode=5, measure=measure,
        )
        sysm = build_eigensystem(params)
        # spot-check the eigenvalue formula at D = 1, l = 1, V = 2
        for mode, lam in zip(sysm.modes, sysm.eigenvalues):
            j = mode[0]
            expected = 0.0 if j == 0 else 1.0 + (j * math.pi) ** 2
            assert lam == expected or abs(lam - expected) <= 1e-12 * expected
        assert orthonormality_defect(sysm, 64) <= 1e-6

        # linear model: coefficients decouple exactly across truncations
        from dataclasses import replace

        fine = replace(params, max_mode=10)
        m1, m2 = assemble_model(params), assemble_model(fine)
        sys2 = build_eigensystem(fine)
        idx = [sys2.modes.index(m) for m in sysm.modes]
        events = sample_poisson_measure(measure, 50.0, 1.0, substream(9, 0))
        # the stiffest retained mode (lam ~ 988) needs dt below ~2.5/lam
        p1 = simulate_jump_path(m1, 0.02, events, 500)
        p2 = simulate_jump_path(m2, 0.02, events, 500)
        assert np.array_equal(p1.values, p2.values[:, idx])

        sums = hs_partial_sums(params, [8, 12, 16, 20])
        plain = [sums[j][0] for j in (8, 12, 16, 20)]
        assert abs(plain[-1] - plain[-2]) <= 1e-8
