import math
from functools import cached_property

import numpy as np
import pytest
from scipy.linalg import expm

from jumpmdp.jump_sde import ModelError, PathGrid, fluid_limit
from jumpmdp.mark_space import MarkMeasure
from jumpmdp.mdp_limit import LinearizedSystem, build_linearization, gaussian_covariance, solve_limit_path
from jumpmdp.models import build_model
from jumpmdp.rate import (
    InadmissiblePathError,
    controllability_gramian,
    rate_of_path,
    rate_to_point,
    sphere_minimum,
    sphere_rate,
)
from jumpmdp.spde_pollutant import assemble_model, params_from_dict


def linearize(name, params=None, n_cells=400):
    model = build_model(name, params or {})
    fluid, _ = fluid_limit(model, n_cells)
    return build_linearization(model, fluid)


def test_zero_path_zero_rate():
    sysm = linearize("two_d_benchmark")
    zero = PathGrid(sysm.times, np.zeros((sysm.n_cells + 1, 2)))
    sol = rate_of_path(sysm, zero)
    assert sol.value == 0.0
    assert np.all(sol.psi == 0.0)


def test_linear_path_unit_control():
    # A1 = 0, gain = 1: the path eta(t) = t costs T/2 with unit control
    sysm = linearize("linear_gaussian", {"rate": 0.0, "gain": 1.0}, n_cells=500)
    eta = PathGrid(sysm.times, sysm.times[:, None])
    sol = rate_of_path(sysm, eta)
    assert np.max(np.abs(sol.psi - 1.0)) < 1e-12
    assert sol.value == pytest.approx(0.5, rel=1e-12)


def test_unreachable_path_reports_infinite_rate():
    sysm = linearize("rank_deficient_2d", n_cells=100)
    eta = PathGrid(sysm.times, np.column_stack([sysm.times, np.zeros(101)]))
    sol = rate_of_path(sysm, eta)
    assert sol.value == math.inf
    assert sol.residual > 1e-3


def test_nonzero_start_is_domain_error():
    sysm = linearize("scalar_benchmark", n_cells=50)
    bad = PathGrid(sysm.times, np.ones((51, 1)))
    with pytest.raises(InadmissiblePathError):
        rate_of_path(sysm, bad)


def test_terminal_rate_zero_target():
    sysm = linearize("two_d_benchmark", n_cells=100)
    sol = rate_to_point(sysm, np.zeros(2))
    assert sol.value == 0.0


def test_terminal_rate_brownian_energy():
    # A1 = 0, gain = 1: W = T and I(z) = z^2 / (2T)
    sysm = linearize("linear_gaussian", {"rate": 0.0, "gain": 1.0}, n_cells=800)
    gram = controllability_gramian(sysm)
    assert gram[0, 0] == pytest.approx(1.0, rel=1e-10)
    sol = rate_to_point(sysm, np.array([0.7]))
    assert sol.value == pytest.approx(0.7**2 / 2.0, rel=1e-9)


def test_terminal_rate_gramian_closed_form():
    a, sig, T = 0.6, 1.4, 1.0
    sysm = linearize("linear_gaussian", {"rate": a, "gain": sig}, n_cells=2000)
    w_exact = sig**2 * (math.exp(2 * a * T) - 1.0) / (2 * a)
    gram = controllability_gramian(sysm)
    assert gram[0, 0] == pytest.approx(w_exact, rel=1e-6)
    z = np.array([1.1])
    sol = rate_to_point(sysm, z)
    assert sol.value == pytest.approx(z[0] ** 2 / (2 * w_exact), rel=1e-6)


def test_quadratic_scaling():
    sysm = linearize("two_d_benchmark", n_cells=200)
    z = np.array([0.4, -0.3])
    i1 = rate_to_point(sysm, z).value
    i3 = rate_to_point(sysm, 3.0 * z).value
    assert i3 == pytest.approx(9.0 * i1, rel=1e-8)


def flow_oracle(sysm):
    """flow[c] = Phi(T, t_c+1) Gam[c] / dt, carrying a source in cell c to the
    horizon, stored for every cell.

    A time-invariant system takes Phi(T, t) = e^{A1 (T - t)} from scipy's
    expm: 2000 powers of one rounded R drift from the exact map by up to
    5e-14.  A time-varying one multiplies its propagators."""
    prop, src = sysm.propagators
    flow = np.empty((sysm.n_cells, sysm.dim, sysm.dim))
    acc = np.eye(sysm.dim)
    for c in range(sysm.n_cells - 1, -1, -1):
        if sysm.time_invariant:
            acc = expm(sysm.drift_mat[0] * (sysm.dt * (sysm.n_cells - 1 - c)))
        flow[c] = (acc @ src[c]) / sysm.dt
        acc = acc @ prop[c]
    return flow


def flow_oracle_gramian(sysm):
    # W = sum_c flow[c] gain[c] gain[c]' flow[c]' dt
    b = np.einsum("cij,cjk->cik", flow_oracle(sysm), sysm.gain)
    return np.einsum("cik,clk->il", b, b) * sysm.dt


@pytest.mark.parametrize(
    "name", ["scalar_benchmark", "linear_gaussian", "pollutant-36", "two_d_benchmark", "pollutant-tanh"]
)
def test_gramian_matches_the_flow_oracle(name, request):
    # the last two vary along their fluid paths, so the fold takes one step per cell
    n_cells = 200 if name == "two_d_benchmark" else 2000
    if name == "pollutant-36":
        sysm = build_linearization(*request.getfixturevalue("pollutant_36"))
    elif name == "pollutant-tanh":
        model = request.getfixturevalue("tanh_pollutant")
        sysm = build_linearization(model, fluid_limit(model, n_cells)[0])
    else:
        sysm = linearize(name, {"rate": -0.9, "gain": 1.2} if name == "linear_gaussian" else None, n_cells=n_cells)
    assert sysm.time_invariant == (name not in ("two_d_benchmark", "pollutant-tanh"))
    oracle = flow_oracle_gramian(sysm)
    assert np.max(np.abs(sysm.gramian - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("name", ["linear_gaussian", "two_d_benchmark"])
def test_gramian_approaches_the_covariance_like_dt_squared(name):
    # W_n sums the RK4 cell map, Sigma_T,n the exact flow with the same frozen
    # cells: lambda_max of the two close in like dt^2, a factor 4 per doubling
    params = {"rate": -0.9, "gain": 1.2} if name == "linear_gaussian" else None
    gaps = []
    for n_cells in (50, 100, 200, 400):
        sysm = linearize(name, params, n_cells=n_cells)
        top = [np.linalg.eigvalsh(m)[-1] for m in (sysm.gramian, gaussian_covariance(sysm))]
        gaps.append(abs(top[0] - top[1]))
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all((ratios >= 3.9) & (ratios <= 4.1)), ratios


def test_time_invariant_rate_of_path_matches_the_stacked_solve(pollutant_36):
    sysm = build_linearization(*pollutant_36)
    assert sysm.time_invariant
    _, zstar = sphere_minimum(controllability_gramian(sysm), 1.0)
    path = rate_to_point(sysm, zstar).path
    sol = rate_of_path(sysm, path)
    # the per-cell stack, as a time-varying system solves it
    prop, src = (np.array(a) for a in sysm.propagators)
    gain = np.array(sysm.gain)
    eta = path.values
    f = np.linalg.solve(src, eta[1:, :, None] - prop @ eta[:-1, :, None])
    pinv = np.linalg.pinv(gain, rcond=1e-10)
    u = pinv @ f
    psi = (np.array(sysm.jump_vals).transpose(0, 2, 1) @ (pinv.transpose(0, 2, 1) @ u))[..., 0].T
    value = 0.5 * math.fsum((u * u).ravel()) * sysm.dt
    assert abs(sol.value - value) <= 1e-13 * value
    assert np.max(np.abs(sol.psi - psi)) <= 1e-13 * np.max(np.abs(psi))
    assert sol.residual <= 1e-13 * np.max(np.linalg.norm(f, axis=1))


def test_gramian_construction_audit():
    sysm = linearize("two_d_benchmark", n_cells=150)
    gram = controllability_gramian(sysm)
    assert np.max(np.abs(flow_oracle_gramian(sysm) - gram)) < 1e-12
    vals = np.linalg.eigvalsh(gram)
    assert vals.min() >= -1e-12


@pytest.mark.parametrize(
    "name, z", [("two_d_benchmark", [0.4, -0.25]), ("scalar_benchmark", [0.8])]
)
def test_streamed_psi_matches_the_flow_oracle(name, z):
    # psi = G' flow' W^+ z, with every flow[c] stored; two_d_benchmark is time-varying
    sysm = linearize(name, n_cells=300)
    assert sysm.time_invariant == (name == "scalar_benchmark")
    z = np.array(z)
    xi = np.linalg.pinv(controllability_gramian(sysm), rcond=1e-10) @ z
    oracle = np.einsum("cjk,cij,i->kc", sysm.jump_vals, flow_oracle(sysm), xi)
    psi = rate_to_point(sysm, z).psi
    assert np.max(np.abs(psi - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_optimal_control_replay_hits_target():
    sysm = linearize("two_d_benchmark", n_cells=300)
    z = np.array([0.5, 0.2])
    sol = rate_to_point(sysm, z)
    assert np.linalg.norm(sol.path.terminal() - z) <= 1e-6 * (1 + np.linalg.norm(z))


def test_rank_deficient_target_out_of_range():
    sysm = linearize("rank_deficient_2d", n_cells=100)
    # reachable directions are spanned by (1, 2); (2, -1) is orthogonal
    sol = rate_to_point(sysm, np.array([2.0, -1.0]))
    assert sol.value == math.inf
    assert sol.residual > 0.1
    ok = rate_to_point(sysm, np.array([1.0, 2.0]))
    assert math.isfinite(ok.value)


def test_psi_cost_identity():
    sysm = linearize("two_d_benchmark", n_cells=250)
    z = np.array([0.3, -0.4])
    sol = rate_to_point(sysm, z)
    w = sysm.measure.weights
    psi_cost = 0.5 * float(np.sum(sol.psi**2 * w[:, None])) * sysm.dt
    assert psi_cost == pytest.approx(sol.value, rel=1e-8)


def test_consistency_triangle():
    sysm = linearize("two_d_benchmark", n_cells=200)
    rng = np.random.default_rng(6)
    w = sysm.measure.weights
    for _ in range(10):
        psi = rng.normal(size=(2, sysm.n_cells))
        eta = solve_limit_path(sysm, psi)
        energy = 0.5 * float(np.sum(psi * psi * w[:, None])) * sysm.dt
        sol = rate_of_path(sysm, eta)
        assert sol.value <= energy + 1e-8
        if all(np.linalg.matrix_rank(g) == 2 for g in sysm.gain):
            assert sol.value == pytest.approx(energy, abs=1e-10)


def rate_and_cost(sysm, psi):
    """Path-wise rate of the path psi drives, psi's weighted control cost,
    and the gap between that path and the replay of the recovered control."""
    eta = solve_limit_path(sysm, psi)
    sol = rate_of_path(sysm, eta)
    w = sysm.measure.weights
    cost = 0.5 * math.fsum((psi * psi * w[:, None]).ravel()) * sysm.dt
    gap = float(np.max(np.abs(sol.path.values - eta.values)))
    return sol.value, cost, gap


def test_equivalence_report_frame_form():
    sysm = linearize("two_d_benchmark", n_cells=150)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=(2, sysm.n_cells))
    rate, cost, gap = rate_and_cost(sysm, psi)
    assert rate <= cost + 1e-8 and gap <= 1e-6
    assert rate == pytest.approx(cost, abs=1e-8)


def test_equivalence_zero_control():
    sysm = linearize("scalar_benchmark", n_cells=100)
    rate, cost, _ = rate_and_cost(sysm, np.zeros((1, 100)))
    assert rate == 0.0 and cost == 0.0


def test_orthogonal_component_is_wasted_energy():
    # two atoms, scalar jump value y: the gain spans one direction of the
    # two-dimensional atom space; (2, -1)/weights direction is orthogonal
    from jumpmdp.jump_sde import ModelSpec
    from jumpmdp.mark_space import MarkMeasure

    m = MarkMeasure.from_atoms([(1.0, 1.0), (2.0, 1.0)])
    model = ModelSpec(
        dim=1, horizon=1.0, x0=np.zeros(1),
        drift=lambda x: -x,
        jump=lambda x: np.broadcast_to(m.marks.T, x.shape[:-1] + (1, 2)),
        drift_jac=lambda x: np.array([[-1.0]]),
        jump_jac=lambda x: np.zeros((2, 1, 1)),
        measure=m,
    )
    fluid, _ = fluid_limit(model, 100)
    sysm = build_linearization(model, fluid)
    base = np.tile(np.array([[0.5], [1.0]]), (1, 100))
    orth = np.tile(np.array([[2.0], [-1.0]]), (1, 100))  # <orth, G>_w = 0
    eta_base = solve_limit_path(sysm, base)
    eta_both = solve_limit_path(sysm, base + orth)
    assert np.max(np.abs(eta_base.values - eta_both.values)) < 1e-12
    rate, cost, _ = rate_and_cost(sysm, base + orth)
    assert rate <= cost + 1e-8
    assert rate < cost - 0.5  # strictly cheaper


def test_zero_weight_atom_in_the_rate_chain():
    # the second atom has weight 0: it moves nothing, so only G(., y_1) =
    # (1, 1) is reachable.  psi on that atom is not determined by the rate
    # and is not pinned here.
    from jumpmdp.jump_sde import ModelSpec
    from jumpmdp.mark_space import MarkMeasure

    m = MarkMeasure.from_atoms([(1.0, 1.0), (2.0, 0.0)])
    model = ModelSpec(
        dim=2, horizon=1.0, x0=np.zeros(2),
        drift=lambda x: -x,
        jump=lambda x: np.broadcast_to([[1.0, 1.0], [1.0, -1.0]], x.shape[:-1] + (2, 2)),
        drift_jac=lambda x: -np.eye(2),
        jump_jac=lambda x: np.zeros((2, 2, 2)),
        measure=m,
    )
    fluid, _ = fluid_limit(model, 100)
    sysm = build_linearization(model, fluid)
    w = sysm.measure.weights
    sol = rate_to_point(sysm, np.array([1.0, 1.0]))
    assert math.isfinite(sol.value) and np.all(np.isfinite(sol.psi))
    psi_cost = 0.5 * float(np.sum(sol.psi**2 * w[:, None])) * sysm.dt
    assert psi_cost == pytest.approx(sol.value, rel=1e-10)
    assert np.linalg.norm(sol.path.terminal() - 1.0) <= 1e-8
    off = rate_to_point(sysm, np.array([1.0, -1.0]))
    assert off.value == math.inf
    assert off.residual > 0.1
    rate, cost, gap = rate_and_cost(sysm, sol.psi)
    assert rate == pytest.approx(cost, rel=1e-10)
    assert rate == pytest.approx(sol.value, rel=1e-8)
    assert gap <= 1e-12


def test_terminal_rate_matches_least_norm_oracle():
    # independent route: stack the discrete reachability map over all cells
    # and take the minimal-norm least-squares control
    sysm = linearize("two_d_benchmark", n_cells=150)
    prop, src = sysm.propagators
    n, d = sysm.n_cells, sysm.dim
    acc = np.eye(d)
    blocks = np.empty((n, d, sysm.measure.n_atoms))
    for c in range(n - 1, -1, -1):
        blocks[c] = acc @ src[c] @ sysm.gain[c]
        acc = acc @ prop[c]
    reach = np.hstack(list(blocks))
    z = np.array([0.4, -0.25])
    u_flat, *_ = np.linalg.lstsq(reach, z, rcond=None)
    oracle = 0.5 * float(u_flat @ u_flat) * sysm.dt
    sol = rate_to_point(sysm, z)
    assert sol.value == pytest.approx(oracle, rel=1e-10)


def sigma_rate(model, n_cells):
    return sphere_minimum(gaussian_covariance(build_linearization(model, fluid_limit(model, n_cells)[0])), 1.0)[0]


@pytest.fixture(scope="module")
def extrapolated_references(tanh_pollutant):
    # Richardson's (4 r_8000 - r_4000) / 3 of the Sigma_T rates
    models = {"two_d_benchmark": build_model("two_d_benchmark"), "pollutant-tanh": tanh_pollutant}
    return {name: (model, (4.0 * sigma_rate(model, 8000) - sigma_rate(model, 4000)) / 3.0)
            for name, model in models.items()}


@pytest.mark.parametrize("name", ["two_d_benchmark", "pollutant-tanh"])
def test_sphere_rate_error_bounds_the_extrapolated_reference(name, extrapolated_references):
    model, reference = extrapolated_references[name]
    sysm = build_linearization(model, fluid_limit(model, 64)[0])
    assert not sysm.time_invariant
    rate, zstar, error, sigma = sphere_rate(model, sysm, 1.0)
    assert abs(rate - reference) <= error <= 1e-8 * rate
    if name == "two_d_benchmark":
        assert abs(rate - reference) <= 1e-9 * reference
    # z* is the top eigenvector of the finest Sigma_T, on the sphere
    assert np.linalg.norm(zstar) == pytest.approx(1.0, rel=1e-14)
    assert zstar @ sigma @ zstar == pytest.approx(np.linalg.eigvalsh(sigma)[-1], rel=1e-13)


def test_sphere_rate_of_a_time_invariant_system_is_sigma_t_as_is():
    sysm = linearize("scalar_benchmark", n_cells=64)
    sigma = gaussian_covariance(sysm)
    rate, zstar, error, cov = sphere_rate(build_model("scalar_benchmark"), sysm, 1.5)
    assert (rate, error) == (sphere_minimum(sigma, 1.5)[0], 0.0)
    assert np.array_equal(zstar, sphere_minimum(sigma, 1.5)[1]) and np.array_equal(cov, sigma)
    assert rate == pytest.approx(1.5**2 / (1.0 - math.exp(-2.0)), rel=1e-14)


def test_sphere_rate_past_the_doubling_cap_is_a_named_error():
    # one cell decides nothing about time invariance; from it six doublings
    # reach 64 cells, where the extrapolants still differ by 3e-8.  A numpy
    # RuntimeWarning on the way is an error here
    model = build_model("two_d_benchmark")
    sysm = build_linearization(model, fluid_limit(model, 1)[0])
    with pytest.raises(ModelError, match=r"sphere rate not converged on n_cells=1 to 64: the last Richardson"):
        sphere_rate(model, sysm, 1.0)


def test_sphere_minimum():
    sysm = linearize("two_d_benchmark", n_cells=200)
    gram = controllability_gramian(sysm)
    val, zstar = sphere_minimum(gram, 1.5)
    lam_max = np.linalg.eigvalsh(gram)[-1]
    assert val == pytest.approx(1.5**2 / (2 * lam_max), rel=1e-12)
    assert np.linalg.norm(zstar) == pytest.approx(1.5, rel=1e-12)
    direct = rate_to_point(sysm, zstar).value
    assert direct == pytest.approx(val, rel=1e-9)
    # sweep of other sphere points never beats the minimum
    for ang in np.linspace(0, math.pi, 7):
        z = 1.5 * np.array([math.cos(ang), math.sin(ang)])
        assert rate_to_point(sysm, z).value >= val - 1e-10


def test_one_flow_pass_per_system(monkeypatch):
    passes = []
    build = LinearizedSystem.gramian.func
    counted = cached_property(lambda self: passes.append(1) or build(self))
    counted.__set_name__(LinearizedSystem, "gramian")
    monkeypatch.setattr(LinearizedSystem, "gramian", counted)
    sysm = linearize("two_d_benchmark", n_cells=100)
    gram = controllability_gramian(sysm)
    assert controllability_gramian(sysm) is gram
    rate_to_point(sysm, np.array([0.4, -0.25]))
    assert passes == [1]


def test_terminal_rate_keeps_no_per_cell_matrix(pollutant_36, traced_peak):
    sysm = build_linearization(*pollutant_36)

    def terminal_rate():
        _, zstar = sphere_minimum(controllability_gramian(sysm), 1.0)
        rate_to_point(sysm, zstar)

    _, peak = traced_peak(terminal_rate)
    assert peak < 4e6


def test_stiff_gramian_is_the_sampled_closed_form():
    # dt |A1| = 47 on 64 cells: the exact cell map has no stability limit, so W is
    # the Gramian of the sampled system, gain^2 Gam^2 / dt sum_j e^{2 a dt j}
    a, gain = -3000.0, 3000.0
    sysm = linearize("linear_gaussian", {"rate": a, "gain": gain, "x0": 1.0}, n_cells=64)
    gam = math.expm1(a * sysm.dt) / a
    w_exact = gain**2 * gam**2 / sysm.dt * math.expm1(2 * a * 1.0) / math.expm1(2 * a * sysm.dt)
    assert abs(controllability_gramian(sysm)[0, 0] - w_exact) <= 1e-13 * w_exact
    sol = rate_to_point(sysm, np.array([1.0]))
    assert abs(sol.value - 1.0 / (2.0 * w_exact)) <= 1e-13 / (2.0 * w_exact)
    assert np.isfinite(controllability_gramian(linearize("linear_gaussian"))).all()


def pollutant_sphere_rate(spec, n_cells):
    model = assemble_model(params_from_dict(spec))
    sysm = build_linearization(model, fluid_limit(model, n_cells)[0])
    return sphere_minimum(controllability_gramian(sysm), 1.0)[0]


ATOMS_1D = [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]]
ATOMS_2D = [[0.3, 0.4, 1.0, 0.6], [0.7, 0.6, 2.0, 0.4]]


def test_stiff_pollutant_sphere_rate_is_the_mode_closed_form():
    # 25 modes on 2000 cells, dt lambda_max = 2.84: the closed form of the
    # J-converged 1-D model is 1.2237374
    spec = {"d_space": 1, "velocity": [2.0], "decay": 0.5, "max_mode": 24, "atoms": ATOMS_1D}
    assert abs(pollutant_sphere_rate(spec, 2000) - 1.2237374) <= 1e-6 * 1.2237374


def test_coarse_grid_pollutant_sphere_rate_is_finite():
    # the 36-mode 2-D model on 32 cells, dt lambda_max = 15.4: its closed form is
    # 1.2196455, and W of piecewise-constant controls is 1e-4 off it
    spec = {"d_space": 2, "velocity": [2.0, 0.0], "decay": 0.5, "max_mode": 5, "atoms": ATOMS_2D}
    rate = pollutant_sphere_rate(spec, 32)
    assert math.isfinite(rate) and abs(rate - 1.2196455) <= 1e-3 * 1.2196455


def test_backward_pass_overflow_is_a_named_error():
    # x1' = 500 x1 is never driven, so W is finite; the backward pass still
    # carries e^1000 along it, and 0 * inf leaves psi NaN near the start
    n = 2000
    a, g = np.array([[500.0, 0.0], [1.0, -1.0]]), np.array([[0.0], [1.0]])
    sysm = LinearizedSystem(
        times=np.linspace(0.0, 2.0, n + 1),
        drift_mat=np.broadcast_to(a, (n, 2, 2)),
        jump_vals=np.broadcast_to(g, (n, 2, 1)),
        measure=MarkMeasure.single_atom(1.0, 1.0),
    )
    assert np.isfinite(controllability_gramian(sysm)).all()
    with pytest.raises(ModelError, match="optimal control psi is non-finite on 569 of n_cells=2000 cells"):
        rate_to_point(sysm, np.array([0.0, 1.0]))
