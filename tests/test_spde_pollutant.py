import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jumpmdp import spde_pollutant
from jumpmdp.jump_sde import ModelError, fluid_limit, simulate_jump_path
from jumpmdp.mark_space import MarkMeasure
from jumpmdp.prm import sample_poisson_measure
from jumpmdp.spde_pollutant import (
    KernelSpec,
    PollutantError,
    PollutantParams,
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


def test_ball_volume_normalizer_1d():
    from jumpmdp.spde_pollutant import _ball_volume

    assert _ball_volume(1, 1.0) == pytest.approx(2.0)
    assert _ball_volume(2, 0.5) == pytest.approx(math.pi * 0.25)


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
    g = model.jump(v)  # atoms in mark order: (0.3, 1.0), (0.3, 2.0)
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


def test_jump_positivity_of_mass_mode():
    params = make_params()
    model = assemble_model(params)
    sysm = build_eigensystem(params)
    zero_mode = sysm.modes.index((0,))
    v = np.zeros(model.dim)
    assert np.all(model.jump(v)[zero_mode] >= 0.0)


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
    model.validate_derivatives(seed=2, n_points=3)


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
    # at J = 2 and J = 4
    params = make_params(
        d_space=2,
        velocity=(2.0, 0.0),
        max_mode=2,
        measure=MarkMeasure.from_atoms([((0.3, 0.4, 1.0), 1.0)]),
    )
    sys1 = build_eigensystem(params)
    sys2 = build_eigensystem(replace(params, max_mode=4))
    site = np.array([0.3, 0.4])
    c1 = ball_average_coefficients(sys1, site, 0.05, 256)
    c2 = ball_average_coefficients(sys2, site, 0.05, 256)
    idx = [sys2.modes.index(m) for m in sys1.modes]
    assert c1.tobytes() == c2[idx].tobytes()


def fsum_rows(x):
    # x + 0.0 maps -0.0 to 0.0: a zero sum's sign is not part of the contract
    return np.array([math.fsum(row) for row in x]) + 0.0


def exact_row_sums(x):
    x = np.asarray(x, dtype=float)
    return spde_pollutant._exact_row_sums(x.shape[0], x.shape[1], lambda c: x[:, c].copy()) + 0.0


def test_exact_row_sums_match_fsum_on_hard_rows():
    block = spde_pollutant._SUM_BLOCK
    n = 2 * block + 37  # two full blocks and a short tail
    tiny = 2.0**-1074
    rng = np.random.default_rng(5)
    x = np.zeros((9, n))
    x[0, [0, 1, n - 1]] = [1e100, 1.0, -1e100]                 # cancellation
    x[1] = tiny * rng.integers(-5, 6, n)                        # subnormals
    x[2, [0, n - 1]] = [1.0, 2.0**-53]                          # tie, to even: 1
    x[3, [0, n - 1]] = [1.0 + 2.0**-52, 2.0**-53]               # tie, to even: up
    x[4, [0, block, n - 1]] = [1.0, 2.0**-53, tiny]             # sticky bit in the tail
    # row 5 stays zero, beside nonzero rows
    x[6] = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-1000, 1000, n)  # > 600 binades
    x[7] = rng.standard_normal(n)
    x[8, n - 1] = -3.5                                          # only in the tail
    assert fsum_rows(x)[2] == 1.0 and fsum_rows(x)[3] == 1.0 + 2.0**-51
    assert exact_row_sums(x).tobytes() == fsum_rows(x).tobytes()


@given(
    x=hnp.arrays(
        float,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
        elements=st.floats(-1e300, 1e300, allow_nan=False),
    ),
    block=st.integers(1, 64),
)
def test_exact_row_sums_property(x, block):
    with mock.patch.object(spde_pollutant, "_SUM_BLOCK", block):
        assert exact_row_sums(x).tobytes() == fsum_rows(x).tobytes()


def test_exact_row_sums_reject_nonfinite_and_huge_values():
    for bad in (math.nan, math.inf, -math.inf, 1e308):
        with pytest.raises(PollutantError, match="not finite or too large"):
            exact_row_sums([[1.0, bad, 2.0], [0.0, 0.0, 0.0]])


def test_mode_sums_match_fsum_on_a_3d_ball():
    # assemble_model cannot reach 3-D at this radius (the refinement check
    # fails), so compare the per-mode sums over the masked points directly
    params = make_params(
        d_space=3,
        velocity=(2.0, 0.0, -1.0),
        max_mode=2,
        radius=0.15,
        measure=MarkMeasure.from_atoms([((0.5, 0.5, 0.5, 1.0), 1.0)]),
    )
    sysm = build_eigensystem(params)
    n, site = 40, np.full(3, 0.5)
    axis = site[0] - 0.15 + (np.arange(n) + 0.5) * (0.3 / n)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    inside = pts[np.linalg.norm(pts - site, axis=1) <= 0.15]
    assert inside.shape[0] % spde_pollutant._SUM_BLOCK != 0
    rho = sysm.weight_density(inside)
    expected = np.array([math.fsum(row * rho) for row in sysm.eval_modes(inside)])
    assert sysm.n_modes == 27
    assert spde_pollutant._mode_sums(sysm, inside).tobytes() == expected.tobytes()


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
