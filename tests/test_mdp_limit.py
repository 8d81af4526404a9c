import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from jumpmdp import jump_sde, mdp_limit
from jumpmdp.jump_sde import ModelError, ModelSpec, PathGrid, fluid_limit, rk4_step
from jumpmdp.mark_space import MarkMeasure
from jumpmdp.mdp_limit import (
    build_linearization,
    decompose_controlled_path,
    gaussian_covariance,
    solve_limit_path,
)
from jumpmdp.models import build_model
from jumpmdp.prm import ControlField, sample_controlled_measure, tilt_cost, truncated_tilt
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


def test_limit_path_is_the_exact_solution_per_cell():
    # the propagators solve x' = A1 x + f exactly with A1 and f frozen per cell:
    # [x; 1] <- e^{dt [[A1, f], [0, 0]]} [x; 1]
    model, sysm = linearize("two_d_benchmark")
    psi = np.random.default_rng(7).normal(size=(2, sysm.n_cells))
    forcing = sysm.forcing_from_psi(psi)
    d = sysm.dim
    replay = np.zeros((sysm.n_cells + 1, d))
    for c in range(sysm.n_cells):
        block = np.zeros((d + 1, d + 1))
        block[:d, :d], block[:d, d] = sysm.drift_mat[c], forcing[c]
        replay[c + 1] = (expm(sysm.dt * block) @ np.append(replay[c], 1.0))[:d]
    path = solve_limit_path(sysm, psi).values
    assert np.max(np.abs(path - replay)) <= 1e-13 * np.max(np.abs(replay))
    assert sysm.propagators is sysm.propagators


def reference_coefficients(model, fluid):
    # per-cell A1 and G, as build_linearization froze them before one-cell storage
    a1, jv = [], []
    for c in range(fluid.n_cells):
        xmid = 0.5 * (fluid.values[c] + fluid.values[c + 1])
        m = np.asarray(model.drift_jac(xmid), dtype=float).copy()
        for k, jac in enumerate(model.jump_jacobian(xmid)):
            m += model.measure.weights[k] * jac
        a1.append(m)
        jv.append(model.jump_values(xmid))
    return np.array(a1), np.array(jv)


def reference_propagators(sysm):
    """(R, Gam) on every cell, whether or not the system stores one, from one
    block exponential per cell (Van Loan, IEEE TAC 1978):
    e^{dt [[A1, I], [0, 0]]} = [[e^{A1 dt}, int_0^dt e^{A1 s} ds], [0, I]]."""
    n, d = sysm.n_cells, sysm.dim
    prop, src = np.empty((n, d, d)), np.empty((n, d, d))
    for c in range(n):
        block = np.zeros((2 * d, 2 * d))
        block[:d, :d], block[:d, d:] = sysm.drift_mat[c], np.eye(d)
        e = expm(sysm.dt * block)
        prop[c], src[c] = e[:d, :d], e[:d, d:]
    return prop, src


def builder_propagators(sysm):
    # the private cell builder applied to every cell
    n, d = sysm.n_cells, sysm.dim
    prop, src = np.empty((n, d, d)), np.empty((n, d, d))
    for c in range(n):
        f, src[c], _ = mdp_limit._exact_cell(sysm.drift_mat[c], np.zeros((d, d)), sysm.dt)
        prop[c] = np.eye(d) + f
    return prop, src


def cellwise_gap(got, want):
    # the largest per-cell gap, relative to the cell's largest entry
    return max(np.max(np.abs(g - w)) / np.max(np.abs(w)) for g, w in zip(got, want))


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
    prop, src = builder_propagators(sysm)
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
        assert cellwise_gap(got, ref) <= 1e-14


@pytest.mark.parametrize(
    "name, n_cells",
    [("scalar_benchmark", 2000), ("pollutant-36", 2000), ("pollutant-36", 256), ("pollutant-36", 32)],
)
def test_propagators_match_the_matrix_exponential(name, n_cells, pollutant_36):
    # R against scipy's expm and Gam against the Van Loan block (two_d_benchmark is
    # the time-varying case above), also where dt lambda_max = 1.93 (256 cells) and
    # 15.4 (32 cells) of the 36-mode model
    model = pollutant_36[0] if name == "pollutant-36" else build_model(name)
    fluid = pollutant_36[1] if name == "pollutant-36" and n_cells == 2000 else fluid_limit(model, n_cells)[0]
    sysm = build_linearization(model, fluid)
    stored = sysm.stored_cells
    for got, ref in zip(sysm.propagators, reference_propagators(cut(sysm, stored))):
        assert cellwise_gap(got[:stored], ref) <= 1e-14


def test_overflowed_cell_map_is_a_named_error():
    # x' = 1000 x on one cell: e^1000 is beyond the float range; no numpy warning on the way
    model, sysm = linearize("linear_gaussian", {"rate": 1000.0, "gain": 1.0}, n_cells=1)
    message = r"^cell map e\^\(A1 dt\) is non-finite at dt=1\.0: the linearized flow overflows in one cell$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: sysm.propagators, lambda: sysm.gramian, lambda: gaussian_covariance(sysm)):
            with pytest.raises(ModelError, match=message):
                build()


def state_dependent_model():
    # G(x, y_k) = y_k x and A1 = diag(x) + sum_k w_k y_k I: a cell's coefficients follow its midpoint
    m = MarkMeasure.from_atoms([(1.0, 0.5), (2.0, 0.25)])
    return ModelSpec(
        dim=2, horizon=1.0, x0=np.zeros(2),
        drift=lambda x: 0.5 * x * x,
        jump=lambda x: x[..., :, None] * m.marks.T,
        drift_jac=lambda x: np.diag(x),
        jump_jac=lambda x: m.marks[:, :, None] * np.eye(2),
        measure=m,
    )


@pytest.mark.parametrize("case", ["never", "cell 1", "last cell", "sign bit of the last cell"])
def test_coefficients_first_differing_anywhere_match_the_cell_loop(case):
    n = 50
    values = np.zeros((n + 1, 2))
    if case == "cell 1":
        values[2:] = 1.0  # cell 1's midpoint is 0.5
    elif case == "last cell":
        values[-1] = 1.0
    elif case == "sign bit of the last cell":
        values[-2:, 1] = -0.0  # only cell n-1's midpoint, and so its G, holds a -0.0
    model = state_dependent_model()
    fluid = PathGrid(np.linspace(0.0, 1.0, n + 1), values)
    sysm = build_linearization(model, fluid)
    assert sysm.time_invariant == (case == "never")
    a1, jv = reference_coefficients(model, fluid)
    assert same_bits(sysm.drift_mat, a1) and same_bits(sysm.jump_vals, jv)
    if sysm.time_invariant:
        assert all(v.strides[0] == 0 and not v.flags.writeable for v in (sysm.drift_mat, sysm.jump_vals))


def test_linearization_keeps_no_per_cell_array(pollutant_36, traced_peak):
    sysm, peak = traced_peak(lambda: build_linearization(*pollutant_36))
    assert peak < 2e6
    assert sysm.time_invariant


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


def cut(sysm, c):
    # the system on the first c cells of its grid: its Sigma_T is Sigma at sysm.times[c]
    return dataclasses.replace(
        sysm, times=sysm.times[:c + 1], drift_mat=sysm.drift_mat[:c], jump_vals=sysm.jump_vals[:c]
    )


def van_loan_covariances(sysm):
    """Sigma at each of sysm.times, from one block exponential per cell (Van Loan,
    IEEE TAC 1978): e^{h [[-A, Q], [0, A']]} = [[., F12], [0, F22]] gives
    e^{A h} = F22' and int_0^h e^{A s} Q e^{A' s} ds = F22' F12."""
    d, h, gain = sysm.dim, sysm.dt, sysm.gain
    s = np.zeros((d, d))
    out = [s]
    for c in range(sysm.n_cells):
        a = sysm.drift_mat[c]
        block = np.zeros((2 * d, 2 * d))
        block[:d, :d], block[:d, d:], block[d:, d:] = -a, gain[c] @ gain[c].T, a.T
        e = expm(h * block)
        phi = e[d:, d:].T
        s = phi @ s @ phi.T + phi @ e[:d, d:]
        out.append(s)
    return np.array(out)


def rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_gaussian_covariance_closed_forms():
    model, sysm = linearize("linear_gaussian", {"rate": 0.0, "gain": 0.0}, n_cells=100)
    assert all(np.all(gaussian_covariance(cut(sysm, c)) == 0.0) for c in range(1, 101))

    model, sysm = linearize("linear_gaussian", {"rate": 0.0, "gain": 1.5}, n_cells=500)
    covs = np.array([gaussian_covariance(cut(sysm, c))[0, 0] for c in range(1, 501)])
    assert np.max(np.abs(covs - 1.5**2 * sysm.times[1:])) < 1e-10

    a, sig = -0.9, 1.2
    model, sysm = linearize("linear_gaussian", {"rate": a, "gain": sig}, n_cells=1000)
    exact = sig**2 * (math.exp(2 * a * 1.0) - 1.0) / (2 * a)
    assert abs(gaussian_covariance(sysm)[0, 0] - exact) < 1e-8
    # the fold starts from zero: one cell holds the one-cell integral alone
    first = sig**2 * math.expm1(2 * a * sysm.dt) / (2 * a)
    assert abs(gaussian_covariance(cut(sysm, 1))[0, 0] - first) <= 2e-15 * first


def test_covariance_psd():
    model, sysm = linearize("two_d_benchmark", n_cells=150)
    oracle = van_loan_covariances(sysm)
    for c in range(10, 151, 10):
        cov = gaussian_covariance(cut(sysm, c))
        vals = np.linalg.eigvalsh(cov)
        assert vals.min() >= -1e-10
        assert rel_gap(cov, oracle[c]) <= 1e-13


def test_gaussian_covariance_is_the_end_of_the_path():
    model, sysm = linearize("two_d_benchmark", n_cells=150)
    sigma_t = gaussian_covariance(sysm)
    assert sigma_t.shape == (2, 2)
    assert same_bits(sigma_t, sigma_t.T)
    assert rel_gap(sigma_t, van_loan_covariances(sysm)[-1]) <= 1e-13


def test_gaussian_covariance_keeps_no_per_cell_array(pollutant_36, traced_peak):
    sysm = build_linearization(*pollutant_36)
    sigma_t, peak = traced_peak(lambda: gaussian_covariance(sysm))
    assert peak < 2e6
    assert sigma_t.shape == (36, 36)


@pytest.mark.parametrize("n_cells", [2000, 256])
def test_time_invariant_covariance_matches_the_mode_closed_form(pollutant_36, n_cells):
    # diagonal drift -r: Sigma_mn = Q_mn (1 - e^{-(r_m + r_n) T}) / (r_m + r_n).  On 256
    # cells 2 dt lambda_max = 3.9 lies outside RK4's stability interval; no grid enters here.
    model, fluid = pollutant_36
    if n_cells != fluid.n_cells:
        fluid, _ = fluid_limit(model, n_cells)
    sysm = build_linearization(model, fluid)
    assert sysm.time_invariant
    a = sysm.drift_mat[0]
    assert np.all(a == np.diag(np.diag(a)))
    gain = sysm.gain[0]
    rates = -np.diag(a)[:, None] - np.diag(a)[None, :]
    exact = (gain @ gain.T) * -np.expm1(-rates * model.horizon) / rates
    sigma_t = gaussian_covariance(sysm)
    assert np.max(np.abs(sigma_t - exact)) <= 1e-14 * np.max(np.abs(exact))


@pytest.mark.parametrize("n_cells", [7, 256, 2000])
def test_time_invariant_covariance_scalar_closed_form(n_cells):
    a, sig = -0.9, 1.2
    model, sysm = linearize("linear_gaussian", {"rate": a, "gain": sig}, n_cells=n_cells)
    exact = sig**2 * math.expm1(2 * a * 1.0) / (2 * a)
    assert abs(gaussian_covariance(sysm)[0, 0] - exact) <= 2e-15 * exact


def test_overflowed_fold_is_a_named_error():
    # x' = 400 x: W and Sigma_T are about e^800 on any grid
    model, sysm = linearize("linear_gaussian", {"rate": 400.0, "gain": 1.0}, n_cells=2000)
    tail = "is non-finite on n_cells=2000 cells: the linearized flow overflows$"
    with pytest.raises(ModelError, match=f"^Gaussian covariance Sigma_T {tail}"):
        gaussian_covariance(sysm)
    with pytest.raises(ModelError, match=f"^controllability Gramian {tail}"):
        sysm.gramian


def mp_fold(steps):
    """S <- (I + f) S (I + f)' + m over the recorded (f, m) from S = 0, in 40
    digits on the same double-precision cell maps, symmetrized and rounded."""
    with mpmath.workdps(40):
        d = len(steps[0][0])
        s = mpmath.zeros(d, d)
        for f, m in steps:
            p = mpmath.eye(d) + mpmath.matrix(f.tolist())
            s = p * s * p.T + mpmath.matrix(m.tolist())
        return np.array((s + s.T).tolist(), dtype=float) / 2.0


def test_chained_fold_matches_a_40_digit_fold(monkeypatch):
    # two_d_benchmark varies along its fluid path, so the fold chains one step per cell
    # and rounds the carried sum once per cell
    model, sysm = linearize("two_d_benchmark", n_cells=2000)
    steps = []
    real = mdp_limit._flow_sum

    def recorded(f, m, n, start=None):
        assert n == 1
        steps.append((f, m))
        return real(f, m, n, start)

    monkeypatch.setattr(mdp_limit, "_flow_sum", recorded)
    for build in (lambda: sysm.gramian, lambda: gaussian_covariance(sysm)):
        steps.clear()
        matrix = build()
        assert len(steps) == 2000
        assert rel_gap(matrix, mp_fold(steps)) <= 2e-15


def test_gain_of_a_time_invariant_system_is_one_cell():
    model, sysm = linearize("scalar_benchmark")
    gain = sysm.gain
    assert gain.shape == sysm.jump_vals.shape
    assert gain.strides[0] == 0 and not gain.flags.writeable
    assert same_bits(gain[0], sysm.jump_vals[0] * np.sqrt(sysm.measure.weights))


def jump_at_cell_30():
    # A1 = diag(x) + I at the cell midpoint, with x = 100 from grid time 30 on:
    # 2 dt |A1| = 4.04 from cell 30, where an RK4 Lyapunov step is unstable
    values = np.zeros((51, 2))
    values[30:] = 100.0
    return build_linearization(state_dependent_model(), PathGrid(np.linspace(0.0, 1.0, 51), values))


@pytest.mark.parametrize("case", ["pollutant-tanh-32", "jump-at-cell-30", "two_d_benchmark-150", "two_d_benchmark-200"])
def test_time_varying_covariance_matches_the_van_loan_oracle(case, request):
    # exact per-cell steps: no stability limit, and no RK4 grid error
    if case == "pollutant-tanh-32":
        model = request.getfixturevalue("tanh_pollutant")
        sysm = build_linearization(model, fluid_limit(model, 32)[0])
    elif case == "jump-at-cell-30":
        sysm = jump_at_cell_30()
    else:
        sysm = linearize("two_d_benchmark", n_cells=int(case.rsplit("-", 1)[1]))[1]
    assert not sysm.time_invariant
    assert rel_gap(gaussian_covariance(sysm), van_loan_covariances(sysm)[-1]) <= 1e-13


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


def reference_decomposition(model, epsilon, ctrl, seed):
    # the per-step replay loop the decomposition ran before it moved onto the
    # shared integrator: psi of the current cell inside the RK4 state
    events = sample_controlled_measure(model.measure, 1.0 / epsilon, ctrl, seed)
    w, a, psi, d, n = model.measure.weights, ctrl.a_eps, ctrl.psi, model.dim, ctrl.n_cells
    grid = np.linspace(0.0, model.horizon, n + 1)

    def rhs(z, psi_cell):
        xbar, x0v = z[0], z[1]
        gm_bar, gm_0 = model.jump_values(xbar), model.jump_values(x0v)
        out = np.empty_like(z)
        out[0] = model.drift(xbar)
        out[2] = gm_0 @ w
        out[1] = model.drift(x0v) + out[2]
        out[3] = gm_bar @ w
        out[4] = gm_bar @ (psi_cell * w)
        out[5] = gm_0 @ (psi_cell * w)
        return out

    # rows: xbar, x0, P, Sbar, Ebar, C0; an event on a grid time follows the grid step
    z = np.zeros((6, d))
    z[0] = z[1] = model.x0
    jumpsum = np.zeros(d)
    rec = np.zeros((6, n + 1, d))
    breaks = sorted([(float(t), 0, i) for i, t in enumerate(grid[1:], 1)]
                    + [(float(t), 1, int(k)) for t, k in zip(events.times, events.atoms)])
    t_prev = 0.0
    for t, is_event, label in breaks:
        h, t_prev = t - t_prev, t
        if h > 0:
            psi_cell = psi[:, int(np.searchsorted(grid, t, side="left")) - 1]
            z = rk4_step(lambda v: rhs(v, psi_cell), z, h)
        if not is_event:
            xbar, x0v, p_acc, sbar, ebar, c0 = z
            dbar = xbar - model.x0 - epsilon * jumpsum
            rec[:, label] = [
                (xbar - x0v) / a,
                (dbar - (x0v - model.x0 - p_acc)) / a,
                (epsilon * jumpsum - (sbar + a * ebar)) / a,
                (sbar - p_acc) / a,
                ebar - c0,
                c0,
            ]
        else:
            g = model.jump_values(z[0])[:, label]
            jumpsum = jumpsum + g
            z[0] = z[0] + epsilon * g
    return rec


PART_NAMES = ("fluctuation", "drift_gap", "martingale", "coefficient_gap", "coupling", "forcing")


@pytest.mark.parametrize("name", ["two_d_benchmark", "pollutant-2d", "pollutant-tanh"])
def test_decomposition_terms_match_the_step_loop(name, request):
    # the five terms sum to the fluctuation for any accumulator values, so
    # each term is checked on its own against the per-step loop
    if name == "pollutant-tanh":
        model = request.getfixturevalue("tanh_pollutant")
    else:
        model = pollutant_2d_model() if name == "pollutant-2d" else build_model(name)
    eps = 0.1
    psi = np.random.default_rng(5).normal(size=(model.measure.n_atoms, 48))
    ctrl = truncated_tilt(psi, model.horizon, eps**0.25, 1.0)
    for seed in range(3):
        parts = decompose_controlled_path(model, eps, ctrl, seed=seed)
        ref = reference_decomposition(model, eps, ctrl, seed)
        for key, want in zip(PART_NAMES, ref):
            got = getattr(parts, key).values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (key, seed)
        if name != "pollutant-2d":
            assert np.max(np.abs(ref[4])) > 0  # coupling is live


def two_call_augmented_drift(model):
    # the decomposition's augmented drift before it stacked the xbar and x0
    # rows: two calls each of model.jump and model.drift per stage
    w, d = model.measure.weights, model.dim

    def drift(z):
        xbar, x0v = z[:, :d], z[:, d:2 * d]
        g_bar, g_0 = model.jump_values(xbar), model.jump_values(x0v)
        return np.concatenate([
            model.drift(xbar), model.drift(x0v) + g_0 @ w,
            g_bar.reshape(len(z), -1), g_0.reshape(len(z), -1), np.zeros((len(z), d)),
        ], axis=1)

    return drift


@pytest.mark.parametrize("name", ["two_d_benchmark", "pollutant-2d"])
def test_decomposition_evaluates_the_model_once_per_stage(name, request, monkeypatch):
    base = request.getfixturevalue("pollutant_36")[0] if name == "pollutant-2d" else build_model(name)
    shapes = {"drift": [], "jump": []}

    def counted(key):
        fn = base.jump_values if key == "jump" else base.drift

        def call(x):
            shapes[key].append(x.shape)
            return fn(x)

        return call

    model = dataclasses.replace(base, drift=counted("drift"), jump=counted("jump"), jump_jac=base.jump_jacobian)
    eps, d = 0.1, model.dim
    psi = np.random.default_rng(5).normal(size=(model.measure.n_atoms, 48))
    ctrl = truncated_tilt(psi, model.horizon, eps**0.25, 1.0)
    for seed in range(3):
        for calls in shapes.values():
            calls.clear()  # drops ModelSpec's shape checks
        parts = decompose_controlled_path(model, eps, ctrl, seed=seed)
        n_events = sample_controlled_measure(model.measure, 1.0 / eps, ctrl, seed).times.size
        stages = 4 * (ctrl.n_cells + n_events)  # four RK4 stages per grid or event step
        assert n_events > 0
        assert shapes["drift"] == [(2, d)] * stages
        assert sorted(shapes["jump"]) == [(1, d)] * n_events + [(2, d)] * stages

        with monkeypatch.context() as patch:
            patch.setattr(
                mdp_limit, "_integrate",
                lambda drift, *rest: jump_sde._integrate(two_call_augmented_drift(base), *rest),
            )
            ref = decompose_controlled_path(base, eps, ctrl, seed=seed)
        for key in PART_NAMES:
            assert same_bits(getattr(parts, key).values, getattr(ref, key).values), (key, seed)


def test_decomposition_closed_forms_for_constant_control():
    # scalar_benchmark's jump coefficient is the mark, the same at xbar and x0:
    # no coefficient gap, no coupling, and the forcing is psi * w * t
    model = build_model("scalar_benchmark", {"x0": 1.0})
    ctrl = ControlField(np.full((1, 32), 0.4), 1.0, 0.2**0.25)
    for seed in range(3):
        parts = decompose_controlled_path(model, 0.2, ctrl, seed=seed)
        assert np.all(parts.coefficient_gap.values == 0.0)
        assert np.all(parts.coupling.values == 0.0)
        assert np.max(np.abs(parts.forcing.values[:, 0] - 0.4 * parts.forcing.times)) < 1e-14
        assert np.max(np.abs(parts.martingale.values)) > 0


def test_decomposition_blow_up_is_a_named_error():
    model = build_model("linear_gaussian", {"rate": -3000.0, "gain": 3000.0, "x0": 1.0})
    ctrl = ControlField(np.zeros((1, 64)), model.horizon, 0.5)
    with pytest.raises(ModelError, match=r"jump path blew up at t=.* \(eps=0\.1\)"):
        decompose_controlled_path(model, 0.1, ctrl, seed=0)


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
