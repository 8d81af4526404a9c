import cmath
import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import hyp0f1, j1

from jumpmdp import cli
from jumpmdp.jump_sde import ModelError, fluid_limit, simulate_jump_path
from jumpmdp.mark_space import MarkMeasure
from jumpmdp.mdp_limit import build_linearization
from jumpmdp.prm import sample_poisson_measure
from jumpmdp.spde_pollutant import (
    KernelSpec,
    PollutantError,
    PollutantParams,
    _ball_mean,
    assemble_model,
    ball_average_coefficients,
    build_eigensystem,
    constant_kernel,
    export_field_snapshot,
    galerkin_convergence_study,
    hs_partial_sums,
    kernel_from_dict,
    orthonormality_defect,
    params_from_dict,
)

from helpers import validate_derivatives

def make_params(**kw):
    base = dict(
        d_space=1,
        side=1.0,
        diffusivity=1.0,
        velocity=(2.0,),
        decay=0.5,
        radius=0.05,
        max_mode=5,
        measure=MarkMeasure.from_atoms([((0.3, 1.0), 0.6), ((0.7, 2.0), 0.4)]),
        horizon=1.0,
    )
    base.update(kw)
    return PollutantParams(**base)


def test_eigenvalue_formula():
    sys1 = build_eigensystem(make_params())
    # c = V / (2D) = 1: lam_j = 1 + (j pi)^2 for j >= 1, lam_0 = 0
    for j, mode in enumerate(sys1.modes):
        expected = 0.0 if mode[0] == 0 else 1.0 + (mode[0] * math.pi) ** 2
        assert sys1.eigenvalues[j] == pytest.approx(expected, rel=1e-14)


def test_eigenvalue_monotone_in_each_component():
    params = make_params(
        d_space=2,
        velocity=(2.0, -1.0),
        max_mode=3,
        measure=MarkMeasure.from_atoms([((0.4, 0.4, 1.0), 1.0)]),
    )
    sysm = build_eigensystem(params)
    lam = {m: v for m, v in zip(sysm.modes, sysm.eigenvalues)}
    for (j1, j2), v in lam.items():
        if (j1 + 1, j2) in lam:
            assert lam[(j1 + 1, j2)] >= v
        if (j1, j2 + 1) in lam:
            assert lam[(j1, j2 + 1)] >= v


def test_orthonormality_1d():
    assert orthonormality_defect(build_eigensystem(make_params()), 64) <= 1e-6


def test_orthonormality_2d_and_drift_free():
    params = make_params(
        d_space=2,
        velocity=(1.5, 0.0),
        max_mode=3,
        measure=MarkMeasure.from_atoms([((0.5, 0.5, 1.0), 1.0)]),
    )
    assert orthonormality_defect(build_eigensystem(params), 48) <= 1e-6


def test_drift_free_limit_modes():
    params = make_params(velocity=(0.0,))
    sysm = build_eigensystem(params)
    pts = np.linspace(0, 1, 7)[:, None]
    vals = sysm.eval_modes(pts)
    assert np.allclose(vals[0], 1.0)  # sqrt(1/l) with l = 1
    assert np.allclose(vals[1], math.sqrt(2.0) * np.cos(math.pi * pts[:, 0]))


def test_ball_average_of_constant_mode_drift_free():
    # V = 0: mode 0 is the constant sqrt(1/l) and rho0 = 1, so any interior
    # ball average equals that constant
    params = make_params(velocity=(0.0,))
    sysm = build_eigensystem(params)
    avg = ball_average_coefficients(sysm, np.array([0.4]), 0.05)
    assert avg[0] == pytest.approx(1.0, rel=1e-6)


def test_atom_support_and_magnitude_validation():
    with pytest.raises(PollutantError, match="inside the box"):
        make_params(measure=MarkMeasure.from_atoms([((0.01, 1.0), 1.0)]))
    with pytest.raises(PollutantError, match="magnitude"):
        make_params(measure=MarkMeasure.from_atoms([((0.5, -1.0), 1.0)]))


def test_assembled_linear_model_is_diagonal():
    params = make_params()
    model = assemble_model(params)
    sysm = build_eigensystem(params)
    v = np.linspace(-1, 1, model.dim)
    jac = model.drift_jac(v)
    assert np.allclose(jac, np.diag(-(sysm.eigenvalues + params.decay)))
    assert np.allclose(model.drift(v), -(sysm.eigenvalues + params.decay) * v)


def test_jump_scales_linearly_in_magnitude():
    params = make_params(
        measure=MarkMeasure.from_atoms([((0.3, 1.0), 0.5), ((0.3, 2.0), 0.5)])
    )
    model = assemble_model(params)
    v = np.zeros(model.dim)
    g = model.jump_values(v)  # atoms in mark order: (0.3, 1.0), (0.3, 2.0)
    assert np.allclose(g[:, 1], 2.0 * g[:, 0])


def test_mode_zero_closed_form_fluid():
    # V = 0, decay 0, constant unit jump kernel, single retained mode:
    # the coefficient grows linearly with slope l^{-d/2} * mean magnitude
    params = make_params(
        velocity=(0.0,), decay=0.0, max_mode=0,
        measure=MarkMeasure.from_atoms([((0.3, 1.0), 0.6), ((0.7, 2.0), 0.4)]),
    )
    model = assemble_model(params)
    path, _ = fluid_limit(model, 400)
    mean_mag = 0.6 * 1.0 + 0.4 * 2.0
    exact = path.times * mean_mag * 1.0  # phi_0 = sqrt(1/l) = 1
    assert np.max(np.abs(path.values[:, 0] - exact)) < 1e-6


def closed_form_fluid(model, times):
    # constant kernel: b(v) = L v and the compensator m is constant, so
    # v(t) = e^{Lt} v0 + (e^{Lt} - 1) / L * m
    lt = np.multiply.outer(times, model.linear)
    return np.exp(lt) * model.x0 + np.expm1(lt) / model.linear * model.compensator(model.x0)


def two_d_params(**kw):
    atoms = MarkMeasure.from_atoms([((0.3, 0.4, 1.0), 0.6), ((0.7, 0.6, 2.0), 0.4)])
    return make_params(d_space=2, velocity=(2.0, 0.0), measure=atoms, **kw)


@pytest.mark.parametrize("d_space,level,n_cells", [(1, 24, 64), (1, 30, 64), (1, 24, 2000), (2, 17, 64), (2, 24, 64)])
def test_constant_kernel_fluid_is_its_closed_form(d_space, level, n_cells):
    # the relaxation rates reach (J pi)^2: 5.7e3 at 1-D J=24 and 1.1e4 at
    # 2-D J=24, far outside RK4's stability region on these grids
    make = make_params if d_space == 1 else two_d_params
    x0 = {(0,) * d_space: 0.5, (3,) * d_space: -0.2, (level,) * d_space: 0.1}
    model = assemble_model(make(max_mode=level, x0_coeffs=x0))
    path, peak = fluid_limit(model, n_cells)
    exact = closed_form_fluid(model, path.times)
    scale = np.abs(exact).max()
    assert np.abs(path.values - exact).max() <= 1e-12 * scale
    assert peak == pytest.approx(np.linalg.norm(exact, axis=1).max(), rel=1e-12)


def test_pollutant_command_reports_the_closed_form_peak(tmp_path):
    # 2-D at J = 6 puts dt * lambda_max at 3.6 on the command's 200-cell fluid
    # grid, where RK4 wrote a peak norm of 4.86e90 and exited 0
    spec = {
        "d_space": 2, "velocity": [2.0, 0.0], "decay": 0.5, "radius": 0.05, "max_mode": 6,
        "atoms": [[0.3, 0.4, 1.0, 0.6], [0.7, 0.6, 2.0, 0.4]], "epsilon": 0.05, "seeds": [0],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pollutant": spec}))
    assert cli.main(["pollutant", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "pollutant_report.csv") as fh:
        report = {row["quantity"]: float(row["value"]) for row in csv.DictReader(fh)}
    model = assemble_model(params_from_dict(spec))
    exact = closed_form_fluid(model, np.linspace(0.0, 1.0, 201))
    assert report["fluid_peak_norm"] == pytest.approx(np.linalg.norm(exact, axis=1).max(), rel=1e-12)


def test_jump_positivity_of_mass_mode():
    params = make_params()
    model = assemble_model(params)
    sysm = build_eigensystem(params)
    zero_mode = sysm.modes.index((0,))
    v = np.zeros(model.dim)
    assert np.all(model.jump_values(v)[zero_mode] >= 0.0)


def test_nonlinear_kernels_pass_derivative_check():
    probes = ({(0,): 1.0, (1,): 0.5},)
    params = make_params(
        max_mode=3,
        jump_kernel=kernel_from_dict(
            {"kind": "tanh", "intercept": 1.0, "amplitude": 0.5, "slope": [0.7]}
        ),
        drift_kernels=(
            kernel_from_dict({"kind": "affine", "intercept": 0.2, "slope": [0.3]}),
        ),
        probes=probes,
        outputs=({(0,): 1.0, (2,): -0.5},),
    )
    model = assemble_model(params)
    validate_derivatives(model, seed=2, n_points=3)


def test_linear_model_decouples_across_truncations():
    params = make_params(max_mode=3)
    fine = make_params(max_mode=6)
    m1 = assemble_model(params)
    m2 = assemble_model(fine)
    sys1 = build_eigensystem(params)
    sys2 = build_eigensystem(fine)
    events = sample_poisson_measure(params.measure, 20.0, 1.0, 42)
    p1 = simulate_jump_path(m1, 0.05, events, 200)
    p2 = simulate_jump_path(m2, 0.05, events, 200)
    idx = [sys2.modes.index(m) for m in sys1.modes]
    assert np.array_equal(p1.values, p2.values[:, idx])
    f1, _ = fluid_limit(m1, 200)
    f2, _ = fluid_limit(m2, 200)
    assert np.array_equal(f1.values, f2.values[:, idx])


def test_ball_coefficients_of_shared_modes_agree_bit_for_bit_2d():
    # the tensor-product path: modes with components <= 2 get the same bits
    # at J = 2 and J = 4, in 2-D and in 3-D
    for velocity, site, radius in (
        ((2.0, 0.0), (0.3, 0.4), 0.05),
        ((2.0, 0.0, -1.0), (0.5, 0.5, 0.5), 0.15),
    ):
        params = make_params(
            d_space=len(site),
            velocity=velocity,
            max_mode=2,
            radius=radius,
            measure=MarkMeasure.from_atoms([(site + (1.0,), 1.0)]),
        )
        sys1 = build_eigensystem(params)
        sys2 = build_eigensystem(replace(params, max_mode=4))
        c1 = ball_average_coefficients(sys1, np.array(site), radius)
        c2 = ball_average_coefficients(sys2, np.array(site), radius)
        idx = [sys2.modes.index(m) for m in sys1.modes]
        assert c1.tobytes() == c2[idx].tobytes()


def test_ball_averages_drift_free_closed_forms():
    # V = 0: phi_j = sqrt(2) cos(j pi x) on [0, 1] and rho0 = 1
    s, r = 0.37, 0.2
    sysm = build_eigensystem(make_params(velocity=(0.0,), max_mode=10, radius=r))
    j = np.arange(11)
    expected = np.ones(11)
    expected[1:] = (
        math.sqrt(2.0) * (np.sin(j[1:] * math.pi * (s + r)) - np.sin(j[1:] * math.pi * (s - r)))
        / (2.0 * r * j[1:] * math.pi)
    )
    got = ball_average_coefficients(sysm, np.array([s]), r)
    assert np.max(np.abs(got - expected)) <= 1e-14

    # 2-D: a disk average of cos(k.x) is cos(k.s) * 2 J1(|k| r) / (|k| r)
    s1, s2, r = 0.35, 0.6, 0.25
    params = make_params(
        d_space=2, velocity=(0.0, 0.0), max_mode=6, radius=r,
        measure=MarkMeasure.from_atoms([((s1, s2, 1.0), 1.0)]),
    )
    sysm = build_eigensystem(params)
    expected = []
    for a, b in sysm.modes:
        kr = math.pi * math.hypot(a, b) * r
        norm = (math.sqrt(2.0) if a else 1.0) * (math.sqrt(2.0) if b else 1.0)
        bessel = 2.0 * j1(kr) / kr if kr else 1.0
        expected.append(norm * math.cos(a * math.pi * s1) * math.cos(b * math.pi * s2) * bessel)
    got = ball_average_coefficients(sysm, np.array([s1, s2]), r)
    assert np.max(np.abs(got - np.array(expected))) <= 1e-14


def polar_ball_average(sysm, site, radius, n):
    """Ball mean of phi_j * rho0 by a polar product rule with n radial nodes.

    Gauss-Legendre in the radius (weight r^(d-1)), the trapezoid rule in
    each full angle and, in 3-D, Gauss-Legendre in cos(theta).
    """
    d = len(site)
    x, w = np.polynomial.legendre.leggauss(n)
    rad = 0.5 * radius * (x + 1.0)
    wr = 0.5 * radius * w * rad ** (d - 1)
    phi = 2.0 * math.pi * np.arange(2 * n) / (2 * n)
    if d == 2:
        dirs = np.column_stack([np.cos(phi), np.sin(phi)])
        wd = np.full(2 * n, 2.0 * math.pi / (2 * n))
    else:
        ct, wt = np.polynomial.legendre.leggauss(n)
        st = np.sqrt(1.0 - ct * ct)
        dirs = np.column_stack([
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.repeat(ct, 2 * n),
        ])
        wd = np.repeat(wt, 2 * n) * (2.0 * math.pi / (2 * n))
    points = np.asarray(site) + (rad[:, None, None] * dirs[None]).reshape(-1, d)
    weights = np.outer(wr, wd).ravel()
    vals = sysm.eval_modes(points) * sysm.weight_density(points)
    volume = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius**d
    return vals @ weights / volume


@pytest.mark.parametrize(
    "velocity, site, radius, max_mode",
    [
        ((2.0, -1.0), (0.35, 0.6), 0.3, 10),
        ((2.0, 0.0, -1.0), (0.5, 0.45, 0.55), 0.15, 4),
    ],
)
def test_ball_averages_with_drift_match_a_polar_rule(velocity, site, radius, max_mode):
    params = make_params(
        d_space=len(site), velocity=velocity, max_mode=max_mode, radius=radius,
        measure=MarkMeasure.from_atoms([(site + (1.0,), 1.0)]),
    )
    sysm = build_eigensystem(params)
    got = ball_average_coefficients(sysm, np.array(site), radius)
    ref = polar_ball_average(sysm, site, radius, 48)
    # the reference itself has converged: a coarser rule agrees with it
    coarse = polar_ball_average(sysm, site, radius, 40)
    assert np.max(np.abs(coarse - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_ball_mean_matches_hyp0f1():
    # the mean of e^{alpha u_1} over the unit ball of R^d is 0F1(; d/2 + 1; alpha^2 / 4);
    # the bound carries scipy's own error, up to 1.9e-15 e^{|Re alpha|} at d = 1, x = -30
    rad, ang = np.meshgrid(np.linspace(0.0, 300.0, 61), np.linspace(-math.pi, math.pi, 48, endpoint=False))
    xs = (rad * np.exp(1j * ang)).ravel()
    for d in range(1, 6):
        ref = hyp0f1(d / 2.0 + 1.0, xs)
        for x, want in zip(xs, ref):
            alpha = 2.0 * cmath.sqrt(x)
            assert abs(_ball_mean(d, alpha) - want) <= 2.5e-15 * math.exp(abs(alpha.real)), (d, x)


def test_ball_average_overflow_is_named():
    # V = +-2e4: e^{-2 c x} and the 0F1 factor leave the float range
    for v in (2e4, -2e4):
        with pytest.raises(PollutantError, match=r"ball average of mode \(0,\) .* is not finite"):
            assemble_model(make_params(velocity=(v,), max_mode=2))


def test_mode_zero_amplitude_with_upstream_drift():
    # for c < 0 phi_0's amplitude keeps its exp argument negative; at moderate
    # c it agrees with the direct form sqrt(2c / (1 - exp(-2 c side)))
    for side in (1.0, 1.5, 2.0):
        for v in (-1.0, -2.0, -10.0, -100.0):
            sysm = build_eigensystem(make_params(velocity=(v,), side=side, max_mode=0))
            c = float(sysm.drift_coefficients[0])
            assert c < 0
            direct = math.sqrt(2.0 * c / (1.0 - math.exp(-2.0 * c * side)))
            amp = float(sysm.eval_modes(np.zeros((1, 1)))[0, 0])
            assert math.isclose(amp, direct, rel_tol=1e-15, abs_tol=0.0)
    # where the direct form overflows, the amplitude underflows toward 0
    sysm = build_eigensystem(make_params(velocity=(-2000.0,), max_mode=0))
    assert 0.0 <= float(sysm.eval_modes(np.zeros((1, 1)))[0, 0]) < 1e-300


def test_convergence_study_reports():
    params = make_params(max_mode=2)
    report = galerkin_convergence_study(params, epsilon=0.1, seeds=[0, 1])
    assert report.refined_level == 4
    assert report.fluid_gap >= 0.0
    assert report.fluctuation_gaps.shape == (2,)
    assert report.tail_weight > 0.0
    assert "levels 2->4" in report.summary()


def test_hs_partial_sums_cauchy():
    params = make_params()
    levels = [4, 8, 12, 16, 20]
    sums = hs_partial_sums(params, levels)
    plain = [sums[j][0] for j in levels]
    witness = [sums[j][1] for j in levels]
    assert all(b >= a for a, b in zip(plain, plain[1:]))
    assert abs(plain[-1] - plain[-2]) < 1e-8
    # the witness sum converges too, more slowly; increments must shrink
    incs = [b - a for a, b in zip(witness, witness[1:])]
    assert all(i2 < i1 for i1, i2 in zip(incs, incs[1:]))
    assert incs[-1] < 1e-6


def test_params_from_dict_and_kernels():
    spec = {
        "d_space": 1,
        "side": 1.0,
        "diffusivity": 1.0,
        "velocity": [2.0],
        "decay": 0.5,
        "radius": 0.05,
        "max_mode": 2,
        "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]],
        "jump_kernel": {"kind": "constant", "value": 2.0},
        "x0": [[[0], 0.7]],
    }
    params = params_from_dict(spec)
    assert params.measure.n_atoms == 2
    model = assemble_model(params)
    assert model.x0[0] == 0.7
    k = kernel_from_dict({"kind": "affine", "intercept": 1.0, "slope": [2.0]})
    assert k.fn(np.array([0.5])) == pytest.approx(2.0)
    assert np.allclose(k.grad(np.array([0.5])), [2.0])
    with pytest.raises(PollutantError):
        kernel_from_dict({"kind": "mystery"})


def test_kernel_keys_and_slope_lengths_are_checked():
    with pytest.raises(ModelError, match=r"unknown tanh kernel keys \['slop'\]"):
        kernel_from_dict({"kind": "tanh", "intercept": 1.0, "amplitude": 0.5, "slop": [0.7]})
    with pytest.raises(ModelError, match=r"unknown constant kernel keys \['slope'\]"):
        kernel_from_dict({"kind": "constant", "slope": [0.7]})
    spec = {
        "d_space": 1,
        "velocity": [2.0],
        "max_mode": 3,
        "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]],
        "probes": [[[[0], 1.0], [[1], 0.5]]],
    }
    tanh = {"kind": "tanh", "intercept": 1.0, "amplitude": 0.5, "slope": [0.7]}
    assert params_from_dict({**spec, "jump_kernel": tanh}).probes == ({(0,): 1.0, (1,): 0.5},)
    for slope in ([0.7, 0.1], [], 0.7):
        with pytest.raises(PollutantError, match="jump_kernel: slope must have one component"):
            params_from_dict({**spec, "jump_kernel": {**tanh, "slope": slope}})
    affine = {"kind": "affine", "intercept": 0.2}  # no slope, one probe
    with pytest.raises(PollutantError, match=r"drift_kernels\[0\]: slope"):
        params_from_dict({**spec, "drift_kernels": [affine], "outputs": [[[[0], 1.0]]]})


def test_wrong_length_multi_indices_are_named():
    spec = {
        "d_space": 2,
        "velocity": [2.0, 0.0],
        "max_mode": 2,
        "atoms": [[0.3, 0.4, 1.0, 1.0]],
    }
    # a mode of the right length above max_mode is dropped, as documented
    model = assemble_model(params_from_dict({**spec, "x0": [[[0, 7], 0.7], [[1, 0], 0.5]]}))
    assert model.x0[build_eigensystem(params_from_dict(spec)).modes.index((1, 0))] == 0.5
    assert np.count_nonzero(model.x0) == 1
    for block, key, value in (
        ("x0", "x0", [[[0], 0.7]]),
        ("probes[1]", "probes", [[[[0, 0], 1.0]], [[[0, 0, 1], 1.0]]]),
        ("outputs[0]", "outputs", [[[[1], 1.0]]]),
    ):
        extra = {"drift_kernels": [{"kind": "constant"}]} if key == "outputs" else {}
        with pytest.raises(PollutantError, match=r"^" + re.escape(block) + r": mode \["):
            params_from_dict({**spec, key: value, **extra})


def test_field_snapshot_export(tmp_path):
    params = make_params(max_mode=2)
    sysm = build_eigensystem(params)
    out = tmp_path / "field.csv"
    export_field_snapshot(sysm, np.ones(sysm.n_modes), out, n_per_axis=11)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x_1,u"
    assert len(lines) == 12


def test_constant_kernel_catalog():
    k = constant_kernel(3.0)
    assert k.fn(np.zeros(0)) == 3.0
    assert k.grad(np.zeros(0)).size == 0
    ks = KernelSpec(fn=lambda p: float(p[0]) ** 2, grad=lambda p: np.array([2.0 * p[0]]))
    assert ks.fn(np.array([3.0])) == 9.0


def test_constant_kernel_model_matches_the_general_closure():
    # an affine kernel with zero slope has the same constant value but goes
    # through the general closure; the constant kernel builds G once.  The
    # magnitudes are not powers of two, so G's rounding depends on the order
    # of its products.
    spec = {
        "d_space": 2, "velocity": [2.0, 0.0], "decay": 0.5, "max_mode": 3,
        "atoms": [[0.3, 0.4, 1.3, 0.6], [0.7, 0.6, 0.7, 0.4]],
        "probes": [[[[0, 0], 1.0], [[1, 0], -0.5]]], "x0": [[[0, 0], 0.3], [[1, 1], -0.2]],
    }
    value = 1.7
    const = assemble_model(params_from_dict({**spec, "jump_kernel": {"kind": "constant", "value": value}}))
    general = assemble_model(params_from_dict(
        {**spec, "jump_kernel": {"kind": "affine", "intercept": value, "slope": [0.0]}}
    ))
    batch = const.x0 + np.arange(3.0)[:, None]
    for x in (const.x0, batch):
        got, want = const.jump_values(x), general.jump_values(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.array_equal(const.jump_jacobian(const.x0), general.jump_jacobian(const.x0))
    (fluid_c, _), (fluid_g, _) = fluid_limit(const, 64), fluid_limit(general, 64)
    assert fluid_c.values.tobytes() == fluid_g.values.tobytes()
    lin_c, lin_g = build_linearization(const, fluid_c), build_linearization(general, fluid_g)
    for key in ("drift_mat", "jump_vals"):
        assert np.ascontiguousarray(getattr(lin_c, key)).tobytes() == np.ascontiguousarray(getattr(lin_g, key)).tobytes()
    for arr in (const.jump_values(const.x0), const.jump_values(batch), const.jump_jacobian(const.x0)):
        assert not arr.flags.writeable
