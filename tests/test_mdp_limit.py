import math

import numpy as np
import pytest

from jumpmdp.jump_sde import fluid_limit, rk4_step
from jumpmdp.mark_space import MarkMeasure
from jumpmdp.mdp_limit import (
    build_linearization,
    decompose_controlled_path,
    gaussian_covariance,
    solve_limit_path,
)
from jumpmdp.models import build_model
from jumpmdp.prm import ControlField, tilt_cost, truncated_tilt
from jumpmdp.spde_pollutant import assemble_model, build_eigensystem, params_from_dict


def linearize(name, params=None, n_cells=200):
    model = build_model(name, params or {})
    fluid, _ = fluid_limit(model, n_cells)
    return model, build_linearization(model, fluid)


def test_single_atom_frame():
    model, sysm = linearize("scalar_benchmark")
    assert np.allclose(sysm.gain, 1.0)
    assert np.allclose(sysm.drift_mat, -1.0)


def test_two_atom_norm():
    m = MarkMeasure.from_atoms([(1.0, 1.0), (2.0, 1.0)])
    from jumpmdp.jump_sde import ModelSpec

    model = ModelSpec(
        dim=1, horizon=1.0, x0=np.zeros(1),
        drift=lambda x: -x,
        jump=lambda x: np.broadcast_to(m.marks.T, x.shape[:-1] + (1, 2)),
        drift_jac=lambda x: np.array([[-1.0]]),
        jump_jac=lambda x: np.zeros((2, 1, 1)),
        measure=m,
    )
    fluid, _ = fluid_limit(model, 50)
    sysm = build_linearization(model, fluid)
    assert np.allclose(np.einsum("cik,cik->c", sysm.gain, sysm.gain), 5.0)


def test_rank_deficient_gain():
    model, sysm = linearize("rank_deficient_2d")
    assert all(np.linalg.matrix_rank(g) == 1 for g in sysm.gain)
    gram = np.einsum("cik,clk,k->cil", sysm.jump_vals, sysm.jump_vals, sysm.measure.weights)
    recon = np.einsum("cij,clj->cil", sysm.gain, sysm.gain)
    assert np.max(np.abs(gram - recon)) < 1e-10


def test_limit_path_zero_and_linearity():
    model, sysm = linearize("two_d_benchmark")
    zero = solve_limit_path(sysm, np.zeros((2, sysm.n_cells)))
    assert np.all(zero.values == 0.0)
    rng = np.random.default_rng(1)
    p1 = rng.normal(size=(2, sysm.n_cells))
    p2 = rng.normal(size=(2, sysm.n_cells))
    lhs = solve_limit_path(sysm, p1 + p2).values
    rhs = solve_limit_path(sysm, p1).values + solve_limit_path(sysm, p2).values
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_limit_path_is_one_rk4_step_per_cell():
    # the propagators are RK4 with the coefficients frozen per cell
    model, sysm = linearize("two_d_benchmark")
    psi = np.random.default_rng(7).normal(size=(2, sysm.n_cells))
    forcing = sysm.forcing_from_psi(psi)
    replay = np.zeros((sysm.n_cells + 1, sysm.dim))
    for c in range(sysm.n_cells):
        a1, f = sysm.drift_mat[c], forcing[c]
        replay[c + 1] = rk4_step(lambda v: a1 @ v + f, replay[c], sysm.dt)
    path = solve_limit_path(sysm, psi).values
    assert np.max(np.abs(path - replay)) <= 1e-13 * np.max(np.abs(replay))
    assert sysm.propagators is sysm.propagators


def reference_coefficients(model, fluid):
    # per-cell A1 and G, as build_linearization froze them before one-cell storage
    a1, jv = [], []
    for c in range(fluid.n_cells):
        xmid = 0.5 * (fluid.values[c] + fluid.values[c + 1])
        m = np.asarray(model.drift_jac(xmid), dtype=float).copy()
        for k, jac in enumerate(model.jump_jac(xmid)):
            m += model.measure.weights[k] * jac
        a1.append(m)
        jv.append(model.jump(xmid))
    return np.array(a1), np.array(jv)


def reference_propagators(sysm):
    # the RK4 map evaluated on every cell, whether or not the system stores one
    n, d, h = sysm.n_cells, sysm.dim, sysm.dt
    eye = np.eye(d)
    prop, src = np.empty((n, d, d)), np.empty((n, d, d))
    for c in range(n):
        z = h * sysm.drift_mat[c]
        z2 = z @ z
        z3 = z2 @ z
        s = eye + z / 2.0 + z2 / 6.0 + z3 / 24.0
        prop[c] = eye + z @ s
        src[c] = h * s
    return prop, src


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def pollutant_2d_model():
    params = params_from_dict({
        "d_space": 2, "velocity": [2.0, 0.0], "decay": 0.5, "radius": 0.05, "max_mode": 2,
        "atoms": [[0.3, 0.4, 1.0, 0.6], [0.7, 0.6, 2.0, 0.4]],
        "jump_kernel": {"kind": "constant", "value": 1.0},
    })
    return assemble_model(params, build_eigensystem(params))


@pytest.mark.parametrize("name", ["scalar_benchmark", "linear_gaussian", "pollutant-2d"])
def test_time_invariant_system_is_stored_as_one_cell(name):
    model = pollutant_2d_model() if name == "pollutant-2d" else build_model(name, {})
    fluid, _ = fluid_limit(model, 300)
    sysm = build_linearization(model, fluid)
    assert sysm.time_invariant
    a1, jv = reference_coefficients(model, fluid)
    prop, src = reference_propagators(sysm)
    for view, ref in zip((sysm.drift_mat, sysm.jump_vals, *sysm.propagators), (a1, jv, prop, src)):
        assert view.strides[0] == 0 and not view.flags.writeable
        assert same_bits(view, ref)


@pytest.mark.parametrize("n_cells", [1, 2000])
def test_time_varying_propagators_match_the_cell_loop(n_cells):
    # two_d_benchmark varies along its fluid path, so it keeps every cell unless there is one
    model, sysm = linearize("two_d_benchmark", n_cells=n_cells)
    assert sysm.time_invariant == (n_cells == 1)
    a1, jv = reference_coefficients(model, fluid_limit(model, n_cells)[0])
    assert same_bits(sysm.drift_mat, a1) and same_bits(sysm.jump_vals, jv)
    for got, ref in zip(sysm.propagators, reference_propagators(sysm)):
        assert same_bits(got, ref)


def test_limit_path_scalar_closed_form():
    # autonomous x' = a x + c, x(0) = 0 -> (c/a)(e^{at} - 1)
    a, c = 0.8, 1.3
    model, sysm = linearize("linear_gaussian", {"rate": a, "gain": 1.0}, n_cells=1000)
    psi = np.full((1, sysm.n_cells), c)  # forcing = psi * gain = c
    path = solve_limit_path(sysm, psi)
    exact = (c / a) * (np.exp(a * path.times) - 1.0)
    assert np.max(np.abs(path.values[:, 0] - exact)) < 1e-8


def test_limit_path_from_u_trivial_cases():
    # a unit atom of weight 1: the control psi is its own atom coordinate u
    model, sysm = linearize("linear_gaussian", {"rate": 0.0, "gain": 1.0}, n_cells=100)
    zero = solve_limit_path(sysm, np.zeros((1, 100)))
    assert np.all(zero.values == 0.0)
    ramp = solve_limit_path(sysm, np.ones((1, 100)))
    assert np.max(np.abs(ramp.values[:, 0] - ramp.times)) < 1e-12


def test_gain_times_u_equals_mark_integral():
    model, sysm = linearize("two_d_benchmark", n_cells=64)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(2, sysm.n_cells))
    u = np.sqrt(sysm.measure.weights)[:, None] * psi
    lhs = np.einsum("cik,kc->ci", sysm.gain, u)
    rhs = sysm.forcing_from_psi(psi)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gaussian_covariance_closed_forms():
    model, sysm = linearize("linear_gaussian", {"rate": 0.0, "gain": 0.0}, n_cells=100)
    assert np.all(gaussian_covariance(sysm) == 0.0)

    model, sysm = linearize("linear_gaussian", {"rate": 0.0, "gain": 1.5}, n_cells=500)
    covs = gaussian_covariance(sysm)
    assert np.max(np.abs(covs[:, 0, 0] - 1.5**2 * sysm.times)) < 1e-10

    a, sig = -0.9, 1.2
    model, sysm = linearize("linear_gaussian", {"rate": a, "gain": sig}, n_cells=1000)
    covs = gaussian_covariance(sysm)
    exact = sig**2 * (math.exp(2 * a * 1.0) - 1.0) / (2 * a)
    assert abs(covs[-1][0, 0] - exact) < 1e-8
    assert covs[0, 0, 0] == 0.0


def test_covariance_psd():
    model, sysm = linearize("two_d_benchmark", n_cells=150)
    covs = gaussian_covariance(sysm)
    for c in range(0, 151, 10):
        vals = np.linalg.eigvalsh(covs[c])
        assert vals.min() >= -1e-10


def test_decomposition_zero_control_no_events():
    model = build_model("scalar_benchmark", {"x0": 1.0, "weight": 0.0})
    ctrl = ControlField(np.zeros((1, 32)), 1.0, 0.5)
    parts = decompose_controlled_path(model, 1.0, ctrl, seed=0)
    for grid in (
        parts.fluctuation, parts.drift_gap, parts.martingale,
        parts.coefficient_gap, parts.coupling, parts.forcing,
    ):
        assert np.max(np.abs(grid.values)) == 0.0


def test_decomposition_reconstructs_exactly():
    model = build_model("two_d_benchmark")
    a = 0.1**0.25
    rng = np.random.default_rng(5)
    ctrl = truncated_tilt(rng.normal(size=(2, 48)), 1.0, a, 1.0)
    for seed in range(5):
        parts = decompose_controlled_path(model, 0.1, ctrl, seed=seed)
        assert parts.reconstruction_gap() < 1e-12
    assert tilt_cost(ctrl, model.measure) > 0


def test_martingale_term_shrinks():
    model = build_model("scalar_benchmark", {"x0": 1.0})
    psi = np.full((1, 32), 0.4)
    sups = []
    for eps in (0.2, 0.02):
        a = eps**0.25
        ctrl = truncated_tilt(psi, 1.0, a, 1.0)
        vals = [
            np.max(np.abs(decompose_controlled_path(model, eps, ctrl, seed=r).martingale.values))
            for r in range(60)
        ]
        sups.append(np.mean(vals))
    assert sups[1] < sups[0]
