import math
from functools import cached_property

import numpy as np
import pytest

from jumpmdp.jump_sde import ModelError, PathGrid, fluid_limit
from jumpmdp.mdp_limit import LinearizedSystem, build_linearization, solve_limit_path
from jumpmdp.models import build_model
from jumpmdp.rate import (
    InadmissiblePathError,
    controllability_gramian,
    rate_of_path,
    rate_to_point,
    sphere_minimum,
)


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
    assert gram.matrix[0, 0] == pytest.approx(1.0, rel=1e-10)
    sol = rate_to_point(sysm, np.array([0.7]))
    assert sol.value == pytest.approx(0.7**2 / 2.0, rel=1e-9)


def test_terminal_rate_gramian_closed_form():
    a, sig, T = 0.6, 1.4, 1.0
    sysm = linearize("linear_gaussian", {"rate": a, "gain": sig}, n_cells=2000)
    w_exact = sig**2 * (math.exp(2 * a * T) - 1.0) / (2 * a)
    gram = controllability_gramian(sysm)
    assert gram.matrix[0, 0] == pytest.approx(w_exact, rel=1e-6)
    z = np.array([1.1])
    sol = rate_to_point(sysm, z)
    assert sol.value == pytest.approx(z[0] ** 2 / (2 * w_exact), rel=1e-6)


def test_quadratic_scaling():
    sysm = linearize("two_d_benchmark", n_cells=200)
    z = np.array([0.4, -0.3])
    i1 = rate_to_point(sysm, z).value
    i3 = rate_to_point(sysm, 3.0 * z).value
    assert i3 == pytest.approx(9.0 * i1, rel=1e-8)


def test_gramian_construction_audit():
    sysm = linearize("two_d_benchmark", n_cells=150)
    gram = controllability_gramian(sysm)
    # W = sum_c flow[c] gain[c] gain[c]' flow[c]' dt
    b = np.einsum("cij,cjk->cik", gram.flow, sysm.gain)
    recon = np.einsum("cik,clk->il", b, b) * sysm.dt
    assert np.max(np.abs(recon - gram.matrix)) < 1e-12
    vals = np.linalg.eigvalsh(gram.matrix)
    assert vals.min() >= -1e-12


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


def test_sphere_minimum():
    sysm = linearize("two_d_benchmark", n_cells=200)
    gram = controllability_gramian(sysm)
    val, zstar = sphere_minimum(gram, 1.5)
    lam_max = np.linalg.eigvalsh(gram.matrix)[-1]
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
    assert controllability_gramian(sysm).flow is gram.flow
    rate_to_point(sysm, np.array([0.4, -0.25]))
    assert passes == [1]


def test_overflowed_gramian_is_not_out_of_range():
    # the stiff flow overflows on 64 cells: W is non-finite, so the rates are NaN, not inf
    sysm = linearize("linear_gaussian", {"rate": -3000.0, "gain": 3000.0, "x0": 1.0}, n_cells=64)
    with np.errstate(all="ignore"):
        sol = rate_to_point(sysm, np.array([1.0]))
    assert math.isnan(sol.value) and math.isnan(sol.residual)
    gram = controllability_gramian(sysm)
    assert math.isnan(sphere_minimum(gram, 1.0)[0])
    with pytest.raises(ModelError, match="Gramian is non-finite on n_cells=64 cells"):
        gram.check_finite()
    controllability_gramian(linearize("linear_gaussian")).check_finite()
