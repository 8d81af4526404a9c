import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpmdp.experiments import ExperimentConfig
from jumpmdp.exponential import _PHI_SWITCH, phi_coefficients
from jumpmdp.jump_sde import (
    ModelError,
    ModelSpec,
    PathGrid,
    _event_schedule,
    check_value,
    fluid_limit,
    simulate_jump_path,
    simulate_jump_paths,
    write_csv,
)
from jumpmdp.mark_space import MarkMeasure
from jumpmdp.models import MODEL_BUILDERS, build_model
from jumpmdp.spde_pollutant import assemble_model, params_from_dict
from jumpmdp.prm import (
    ControlField,
    sample_controlled_measure,
    sample_poisson_batch,
    sample_poisson_measure,
    substream,
    tilt_cost,
)

from helpers import one_row, stack, validate_derivatives


def still_model(dim=1, x0=0.5):
    m = MarkMeasure.single_atom(1.0, 1.0)
    return ModelSpec(
        dim=dim,
        horizon=1.0,
        x0=np.full(dim, x0),
        drift=lambda x: np.zeros(x.shape),
        jump=lambda x: np.ones(x.shape + (1,)),
        drift_jac=lambda x: np.zeros((dim, dim)),
        jump_jac=lambda x: np.zeros((1, dim, dim)),
        measure=m,
    )


def events_at(times, horizon=1.0):
    t = np.asarray(times, dtype=float)
    return one_row(t, np.zeros(t.size, dtype=np.int64), horizon)


@pytest.mark.parametrize(
    "value, kind, rule, message",
    [
        ("1", float, {}, "x must be a number, got '1'"),
        (False, float, {}, "x must be a number, got False"),
        (math.nan, float, {"positive": True}, "x must be a number, got nan"),
        (math.inf, float, {}, "x must be a number, got inf"),
        (10**400, float, {}, f"x must be a number, got {10**400!r}"),
        (3.0, int, {}, "x must be an integer, got 3.0"),
        (True, int, {}, "x must be an integer, got True"),
        ("no", bool, {}, "x must be true or false, got 'no'"),
        (5, str, {}, "x must be a string, got 5"),
        (None, dict, {}, "x must be a mapping, got None"),
        (-1, float, {"least": 0}, "x must be nonnegative, got -1"),
        (-1, int, {"least": 0}, "x must be at least 0, got -1"),
        (0, float, {"positive": True}, "x must be positive, got 0"),
        (0.5, float, {"positive": True, "below": 0.5}, "x must be positive and below 0.5, got 0.5"),
        (1.5, float, {"positive": True, "most": 1}, "x must be positive and at most 1, got 1.5"),
        (1, int, {"least": 2, "why": " for a reason"}, "x must be at least 2 for a reason, got 1"),
        (0.1, [float], {}, "x must be a list of numbers, got 0.1"),
        ([1, -1], [int], {"least": 0}, "x must be a list of integers, each at least 0, got [1, -1]"),
        ([[1.0], [1, "a"]], [[float]], {}, "x must be a list of lists of numbers, got [[1.0], [1, 'a']]"),
    ],
)
def test_check_value_names_the_rule_a_value_breaks(value, kind, rule, message):
    with pytest.raises(ModelError) as info:
        check_value("x", value, kind, **rule)
    assert str(info.value) == message


def test_check_value_returns_numbers_of_their_kind():
    assert check_value("x", 2) == 2.0 and type(check_value("x", 2)) is float
    assert type(check_value("x", np.int64(3), int)) is int
    assert check_value("x", (0.2, 1), [float], positive=True) == [0.2, 1.0]
    assert check_value("x", [[1, 2]], [[float]]) == [[1.0, 2.0]]
    block = {"a": 1}
    assert check_value("x", block, dict) is block and check_value("x", False, bool) is False


def test_no_events_no_drift_constant():
    path = simulate_jump_path(still_model(), 0.1, events_at([]), n_cells=16)
    assert np.all(path.values == 0.5)


def test_single_event_pure_jump():
    eps = 0.25
    path = simulate_jump_path(still_model(), eps, events_at([0.4]), n_cells=10)
    before = path.values[path.times < 0.4]
    after = path.values[path.times > 0.4]
    assert np.all(before == 0.5)
    assert np.allclose(after, 0.5 + eps)


def test_one_row_path_needs_a_one_row_batch():
    with pytest.raises(ModelError, match="simulate_jump_path takes a one-row batch, got 2 rows"):
        simulate_jump_path(still_model(), 0.25, stack([events_at([0.4]), events_at([])]), n_cells=10)


def test_event_on_grid_time_records_left_limit():
    eps = 0.25
    path = simulate_jump_path(still_model(), eps, events_at([0.5]), n_cells=10)
    i = int(np.argmin(np.abs(path.times - 0.5)))
    assert path.values[i, 0] == 0.5
    assert np.allclose(path.values[i + 1 :], 0.75)


def test_exponential_decay_matches_rk4():
    model = build_model("scalar_benchmark", {"decay": 1.0, "x0": 1.0})
    path = simulate_jump_path(model, 0.1, events_at([]), n_cells=1000)
    exact = np.exp(-path.times)
    assert np.max(np.abs(path.values[:, 0] - exact)) < 1e-8


def test_event_outside_horizon_rejected():
    with pytest.raises(ModelError):
        simulate_jump_path(still_model(), 0.1, events_at([1.5], horizon=2.0), n_cells=8)


def test_fluid_constant_when_coefficients_vanish():
    model = still_model()
    zero_jump = ModelSpec(
        dim=1, horizon=1.0, x0=np.array([0.5]),
        drift=model.drift,
        jump=lambda x: np.zeros(x.shape + (1,)),
        drift_jac=model.drift_jac, jump_jac=model.jump_jac, measure=model.measure,
    )
    path, peak = fluid_limit(zero_jump, 50)
    assert np.all(path.values == 0.5)
    assert peak == 0.5


def test_fluid_linear_closed_form():
    # xdot = -x + 1, x(0) = x0  ->  1 + (x0 - 1) e^{-t}
    model = build_model("scalar_benchmark", {"decay": 1.0, "x0": 0.25})
    path, _ = fluid_limit(model, 1000)
    exact = 1.0 + (0.25 - 1.0) * np.exp(-path.times)
    assert np.max(np.abs(path.values[:, 0] - exact)) < 1e-8


def test_fluid_rotation_preserves_norm():
    m = MarkMeasure.single_atom(1.0, 1.0)
    model = ModelSpec(
        dim=2, horizon=1.0, x0=np.array([1.0, 0.0]),
        drift=lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
        jump=lambda x: np.zeros(x.shape + (1,)),
        drift_jac=lambda x: np.array([[0.0, -1.0], [1.0, 0.0]]),
        jump_jac=lambda x: np.zeros((1, 2, 2)),
        measure=m,
    )
    path, _ = fluid_limit(model, 1000)
    norms = np.linalg.norm(path.values, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-8


def controlled_path(model, eps, ctrl, seed):
    """A path driven by the tilted measure, on the control grid."""
    events = sample_controlled_measure(model.measure, 1.0 / eps, ctrl, seed)
    return simulate_jump_path(model, eps, events, n_cells=ctrl.n_cells)


def test_controlled_cost_deterministic_and_zero_control_law():
    model = build_model("scalar_benchmark")
    ctrl = ControlField(np.zeros((1, 16)), 1.0, 0.5)
    p1 = controlled_path(model, 0.1, ctrl, seed=1)
    p2 = controlled_path(model, 0.1, ctrl, seed=2)
    assert tilt_cost(ctrl, model.measure) == 0.0
    assert p1.n_cells == ctrl.n_cells
    assert not np.array_equal(p1.values, p2.values)


def test_controlled_compensator_mean():
    # b = 0, jump coefficient 1, phi = 2: E[X(T) - x0] = 2 * mass * T
    model = build_model("pure_jump")
    eps, a = 0.05, 0.5
    psi = np.full((1, 8), (2.0 - 1.0) / a)
    ctrl = ControlField(psi, 1.0, a)
    n_rep = 2000
    vals = np.empty(n_rep)
    for r in range(n_rep):
        vals[r] = controlled_path(model, eps, ctrl, substream(3, r)).terminal()[0]
    se = vals.std(ddof=1) / math.sqrt(n_rep)
    assert abs(vals.mean() - 2.0) <= 3.0 * se
    # phi = 2 on one unit atom over T = 1: cost = 2 log 2 - 2 + 1
    assert tilt_cost(ctrl, model.measure) == pytest.approx(2 * math.log(2) - 1)


def test_event_schedule_order_and_left_limits():
    # 4 cells of width 0.25: two events inside cell 1, one on grid time 0.5,
    # one at T; atom k labels event k
    grid = np.linspace(0.0, 1.0, 5)
    events = one_row(np.array([0.1, 0.2, 0.5, 1.0]), np.arange(4), 1.0)
    calls = []
    schedule = _event_schedule(grid, events)
    assert [col.dtype for col in schedule] == [np.float64, np.bool_, np.int32]
    recorded = 0
    # step-major: column 0 is row 0's steps
    for h, record, atom in zip(*(col[:, 0].tolist() for col in schedule)):
        if h > 0:
            calls.append(("advance", round(h, 12)))
        if record:
            recorded += 1
            calls.append(("record", recorded))
        if atom >= 0:
            calls.append(("jump", atom))
    assert calls == [
        ("advance", 0.1), ("jump", 0),
        ("advance", 0.1), ("jump", 1),
        ("advance", 0.05), ("record", 1),
        ("advance", 0.25), ("record", 2), ("jump", 2),
        ("advance", 0.25), ("record", 3),
        ("advance", 0.25), ("record", 4), ("jump", 3),
    ]
    # in a batch, the shorter row is padded with steps that do nothing
    h, record, atom = _event_schedule(grid, stack([events, events_at([])]))
    assert h.shape == (8, 2)
    assert np.array_equal(h[:, 0], np.diff([0.0, 0.1, 0.2, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0]))
    assert h[:, 1].tolist()[4:] == [0.0] * 4 and record[:, 1].tolist() == [True] * 4 + [False] * 4
    assert np.all(atom[:, 1] == -1)


def test_jump_bookkeeping_on_hand_built_events():
    # drift-free state: every grid value is x0 plus eps times the jumps
    # strictly before it (left limits at 0.5 and T)
    eps = 0.25
    path = simulate_jump_path(still_model(), eps, events_at([0.1, 0.2, 0.5, 1.0]), n_cells=4)
    assert path.values[:, 0].tolist() == [0.5, 1.0, 1.0, 1.25, 1.25]
    # with a state-dependent jump the increment uses the pre-jump state
    m = MarkMeasure.single_atom(1.0, 1.0)
    doubling = ModelSpec(
        dim=1, horizon=1.0, x0=np.array([1.0]),
        drift=lambda x: np.zeros(x.shape),
        jump=lambda x: (x / eps)[..., None],
        drift_jac=lambda x: np.zeros((1, 1)),
        jump_jac=lambda x: np.eye(1)[None] / eps,
        measure=m,
    )
    path = simulate_jump_path(doubling, eps, events_at([0.1, 0.2, 0.5, 1.0]), n_cells=4)
    assert path.values[:, 0].tolist() == [1.0, 4.0, 4.0, 8.0, 8.0]


def test_nonfinite_path_names_grid_time():
    # x' = -3000 x is far outside RK4's stability region on 64 cells
    model = build_model("linear_gaussian", {"rate": -3000.0, "gain": 3000.0, "x0": 1.0})
    with pytest.raises(ModelError, match=r"blew up at t="):
        simulate_jump_path(model, 0.2, events_at([]), n_cells=64)


def test_fluid_limit_blow_up_names_a_plain_time():
    # x' = -3000 x + 1 from x0 = 0.5 overflows RK4 on 64 cells
    model = dataclasses.replace(
        still_model(),
        drift=lambda x: -3000.0 * x,
        drift_jac=lambda x: np.array([[-3000.0]]),
    )
    with pytest.raises(ModelError, match=r"fluid limit blew up at t=") as info:
        fluid_limit(model, 64)
    assert "np.float64" not in str(info.value)
    # two_d_benchmark's jump coefficient takes sin of the overflowed state:
    # a numpy ufunc gives NaN, so the blow-up is named, not a math domain error
    model = dataclasses.replace(build_model("two_d_benchmark"), drift=lambda x: -3000.0 * x)
    with pytest.raises(ModelError) as info:
        fluid_limit(model, 64)
    assert str(info.value) == "fluid limit blew up at t=0.921875"


def test_exponential_fluid_blow_up_names_its_first_nonfinite_time():
    # x' = x over T = 1000, declared as its linear part with N = 0: each
    # ETDRK4 step multiplies x by e^{L h} (L h = 15.625), and L x = x cannot
    # overflow before x does, so x first overflows at the first grid time
    # with L t > log(max float); the check after the loop names that time
    rate, horizon, n_cells = 1.0, 1000.0, 64
    model = ModelSpec(
        dim=1, horizon=horizon, x0=np.array([1.0]),
        drift=lambda x: rate * x,
        jump=lambda x: np.zeros(x.shape + (1,)),
        drift_jac=lambda x: np.array([[rate]]),
        jump_jac=lambda x: np.zeros((1, 1, 1)),
        measure=MarkMeasure.single_atom(1.0, 1.0),
        linear=np.array([rate]),
    )
    h = horizon / n_cells
    first = math.floor(math.log(sys.float_info.max) / (rate * h)) + 1
    with pytest.raises(ModelError) as info:
        fluid_limit(model, n_cells)
    assert str(info.value) == f"fluid limit blew up at t={first * h!r}"
    assert first * h == 718.75


def test_fluid_peak_of_a_large_finite_path_is_finite():
    # x' = 400 x + 1 reaches 1.3e171 at T = 1: its square overflows, its norm does not
    path, peak = fluid_limit(build_model("linear_gaussian", {"rate": 400.0, "gain": 1.0}), 2000)
    assert peak == float(np.max(np.abs(path.values))) and math.isfinite(peak)
    # an ordinary path keeps the bits of the unscaled norm
    values = np.random.default_rng(3).normal(size=(9, 3))
    assert PathGrid(np.linspace(0.0, 1.0, 9), values).sup_norm() == float(np.max(np.linalg.norm(values, axis=1)))


def phi_reference(z, h):
    """(E, E2, Q, f1, f2, f3) at z = h L in 90-digit arithmetic."""
    with mpmath.workdps(90):
        z, h = mpmath.mpf(z), mpmath.mpf(h)
        if z == 0:
            return [1, 1, h / 2, h / 6, h / 6, h / 6]
        e, w = mpmath.exp(z), z / 2
        return [
            e, mpmath.exp(w), h * mpmath.expm1(w) / z,
            h * (-4 - z + e * (4 - 3 * z + z * z)) / z**3,
            h * (2 + z + e * (z - 2)) / z**3,
            h * (-4 - 3 * z - z * z + e * (4 - z)) / z**3,
        ]


def test_phi_coefficients_match_high_precision():
    # the direct formulas cancel at tiny z; Q switches at |z| = 2 * _PHI_SWITCH
    edges = [s * c * (1 + t) for s in (-1, 1) for c in (_PHI_SWITCH, 2 * _PHI_SWITCH) for t in (-1e-6, 1e-6)]
    zs = [0.0, -1e-12, -1e-6, -1e-3, -0.1, *edges, -2.0, -30.0, -1e3, -1e5, 0.3, 1.5]
    for h in (1.0, 1.0 / 64):
        linear = np.array(zs) / h
        got = phi_coefficients(h, linear)
        for i, z in enumerate(h * linear):
            for name, value, exact in zip(("E", "E2", "Q", "f1", "f2", "f3"), got, phi_reference(z, h)):
                exact = float(exact)  # e^{-1e3} is below the doubles; compare with what rounds
                assert abs(value[i] - exact) <= 1e-13 * abs(exact), (name, z, h, value[i], exact)
    # h broadcasts against L, one row per step length
    rows = phi_coefficients(np.array([[0.0], [0.5]]), np.array([-3.0, 0.0]))
    assert rows[0].shape == (2, 2) and rows[3][0].tolist() == [0.0, 0.0]
    assert rows[3][1, 1] == 0.5 / 6 and rows[2][1, 1] == 0.25


def test_zero_linear_part_is_rk4():
    # ETDRK4 with L = 0 is RK4 in exact arithmetic: the paths agree to round-off
    for name in ("scalar_benchmark", "two_d_benchmark"):
        model = build_model(name)
        declared = dataclasses.replace(model, linear=np.zeros(model.dim))
        rk4, _ = fluid_limit(model, 200)
        etd, _ = fluid_limit(declared, 200)
        assert np.abs(etd.values - rk4.values).max() <= 1e-14 * np.abs(rk4.values).max()
        events = sample_poisson_batch(model.measure, 10.0, 1.0, [substream(4, r) for r in range(20)])
        rk4 = simulate_jump_paths(model, 0.1, events, n_cells=32)
        etd = simulate_jump_paths(declared, 0.1, events, n_cells=32)
        assert np.abs(etd - rk4).max() <= 1e-14 * np.abs(rk4).max()


def test_declared_linear_part_takes_the_stiffness():
    # x' = -3000 x + 1 blows RK4 up on 64 cells; with L = -3000 declared the
    # step is exact for the constant remainder
    model = dataclasses.replace(
        still_model(),
        drift=lambda x: -3000.0 * x,
        drift_jac=lambda x: np.array([[-3000.0]]),
        linear=np.array([-3000.0]),
    )
    path, _ = fluid_limit(model, 64)
    exact = 1.0 / 3000.0 + (0.5 - 1.0 / 3000.0) * np.exp(-3000.0 * path.times)
    assert np.abs(path.values[:, 0] - exact).max() <= 1e-15
    # a path has no compensator: it decays from x0, and from each jump of eps
    t = path.times
    paths = simulate_jump_paths(model, 0.1, stack([events_at([]), events_at([0.3])]), n_cells=64)
    free = 0.5 * np.exp(-3000.0 * t)
    kicked = free + np.where(t > 0.3, 0.1 * np.exp(-3000.0 * np.maximum(t - 0.3, 0.0)), 0.0)
    assert np.allclose(paths[:, :, 0], [free, kicked], rtol=1e-12, atol=1e-300)
    for bad, message in ((np.zeros(2), r"shape \(1,\)"), (np.array([np.nan]), "finite")):
        with pytest.raises(ModelError, match=message):
            dataclasses.replace(model, linear=bad)


def test_etdrk4_is_fourth_order_on_a_stiff_nonlinear_drift():
    # L = (-50, -1) plus a coupled nonlinear N; 8 cells put dt * 50 beyond
    # RK4's stability limit, and the reference is RK4 on 4000 cells
    linear = np.array([-50.0, -1.0])
    model = ModelSpec(
        dim=2, horizon=1.0, x0=np.array([1.0, 0.5]),
        drift=lambda x: linear * x + np.stack([np.sin(x[..., 1]), x[..., 0] * x[..., 1]], axis=-1),
        jump=lambda x: np.zeros(x.shape + (1,)),
        drift_jac=lambda x: np.diag(linear) + np.array([[0.0, math.cos(x[1])], [x[1], x[0]]]),
        jump_jac=lambda x: np.zeros((1, 2, 2)),
        measure=MarkMeasure.single_atom(1.0, 1.0),
    )
    validate_derivatives(model)
    reference = fluid_limit(model, 4000)[0].terminal()
    declared = dataclasses.replace(model, linear=linear)
    errors = [np.abs(fluid_limit(declared, n)[0].terminal() - reference).max() for n in (8, 32, 64, 128)]
    assert errors[0] < 1e-3
    assert 12.0 < errors[1] / errors[2] < 18.0 and 14.0 < errors[2] / errors[3] < 18.0


def test_grid_refinement_stability():
    model = build_model("scalar_benchmark", {"x0": 1.0})
    events = sample_poisson_measure(model.measure, 20.0, 1.0, 7)
    coarse = simulate_jump_path(model, 0.05, events, n_cells=200)
    fine = simulate_jump_path(model, 0.05, events, n_cells=400)
    assert abs(coarse.terminal()[0] - fine.terminal()[0]) <= 1e-6


def test_lln_shrinking_deviation():
    model = build_model("scalar_benchmark", {"x0": 1.0})
    fluid, _ = fluid_limit(model, 64)
    eps_grid = [0.1, 0.05, 0.01]
    means, ses = [], []
    for i, eps in enumerate(eps_grid):
        sups = np.empty(200)
        for r in range(200):
            ev = sample_poisson_measure(model.measure, 1.0 / eps, 1.0, substream(9, i, r))
            path = simulate_jump_path(model, eps, ev, n_cells=64)
            sups[r] = np.max(np.abs(path.values - fluid.values))
        means.append(sups.mean())
        ses.append(sups.std(ddof=1) / math.sqrt(200))
    for k in range(len(eps_grid) - 1):
        assert means[k + 1] <= means[k] + 2.0 * (ses[k] + ses[k + 1])
    c_fit = max(m / math.sqrt(e) for m, e in zip(means, eps_grid))
    assert all(m <= c_fit * math.sqrt(e) + 1e-12 for m, e in zip(means, eps_grid))


def two_atom_pollutant():
    return assemble_model(params_from_dict({
        "d_space": 1,
        "velocity": [2.0],
        "max_mode": 3,
        "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]],
        "jump_kernel": {"kind": "tanh", "intercept": 1.0, "amplitude": 0.5, "slope": [0.7]},
        "probes": [[[[0], 1.0], [[1], 0.5]]],
    }))


def batch_models():
    # coupling 0.3 makes two_d_benchmark's drift products inexact, where a
    # BLAS product of a batch rounds differently from one of a single row
    return [build_model(name) for name in MODEL_BUILDERS] + [
        build_model("two_d_benchmark", {"coupling": 0.3}),
        two_atom_pollutant(),
    ]


GRID_8 = np.linspace(0.0, 1.0, 9)
# event times: grid times (T included) or any time in (0, T]
EVENT_TIME = st.one_of(st.integers(1, 8).map(lambda i: float(GRID_8[i])), st.floats(0.0, 1.0, exclude_min=True))


@settings(max_examples=10)
@given(rows=st.lists(st.lists(EVENT_TIME, max_size=10), min_size=50, max_size=50), atom_seed=st.integers(0, 2**32 - 1))
def test_batched_rows_match_single_paths(rows, atom_seed):
    rng = np.random.default_rng(atom_seed)
    for model in batch_models():
        events = []
        for row in rows:
            t = np.unique(row)
            events.append(one_row(t, rng.integers(0, model.measure.n_atoms, t.size), 1.0))
        singles = np.stack([simulate_jump_path(model, 0.1, ev, n_cells=8).values for ev in events])
        for size in (1, 3, 50):
            batched = np.concatenate([
                simulate_jump_paths(model, 0.1, stack(events[lo:lo + size]), n_cells=8)
                for lo in range(0, len(events), size)
            ])
            assert batched.tobytes() == singles.tobytes()


def test_batch_keeps_one_copy_of_its_step_states(pollutant_36, traced_peak):
    # the step states (about one output, as events are few) and the output; no third copy
    model, _ = pollutant_36
    events = sample_poisson_batch(model.measure, 20.0, model.horizon, [substream(1, 5, r) for r in range(8)])
    paths, peak = traced_peak(lambda: simulate_jump_paths(model, 0.05, events, n_cells=2000))
    assert paths.shape == (8, 2001, 36)
    assert peak <= 2.1 * paths.nbytes + 1e6


def test_scalar_batch_memory_per_row_step(traced_peak):
    # per row-step: h (8 bytes), record (1), atom (4) and the step states (8
    # at d = 1); the schedule's temporaries are per event or per cell
    model = build_model("scalar_benchmark")
    eps = 0.0065
    events = sample_poisson_batch(model.measure, 1 / eps, model.horizon, [substream(7, 1, r) for r in range(200)])
    row_steps = 200 * (64 + int(np.diff(events.offsets).max()))
    paths, peak = traced_peak(lambda: simulate_jump_paths(model, eps, events, n_cells=64))
    assert paths.shape == (200, 65, 1)
    assert peak - paths.nbytes <= 40 * row_steps


def test_model_derivative_validation():
    models = [build_model(name) for name in MODEL_BUILDERS] + [two_atom_pollutant()]
    assert "pure_jump" in MODEL_BUILDERS and models[-1].measure.n_atoms == 2
    for model in models:
        n, d = model.measure.n_atoms, model.dim
        assert model.jump_values(model.x0).shape == (d, n)
        assert model.jump_jacobian(model.x0).shape == (n, d, d)
        validate_derivatives(model, seed=1)
    broken = ModelSpec(
        dim=1, horizon=1.0, x0=np.zeros(1),
        drift=lambda x: -x,
        jump=lambda x: np.ones(x.shape + (1,)),
        drift_jac=lambda x: np.array([[2.0]]),  # wrong on purpose
        jump_jac=lambda x: np.zeros((1, 1, 1)),
        measure=MarkMeasure.single_atom(),
    )
    with pytest.raises(ModelError, match="drift_jac"):
        validate_derivatives(broken)
    # G(x, y) = x * y on marks 1 and 3; the declared slice of atom 1 is wrong
    m = MarkMeasure.from_atoms([(3.0, 1.0), (1.0, 1.0)])
    broken = ModelSpec(
        dim=1, horizon=1.0, x0=np.ones(1),
        drift=lambda x: -x,
        jump=lambda x: x[..., None] * m.marks.T,
        drift_jac=lambda x: -np.eye(1),
        jump_jac=lambda x: np.ones((2, 1, 1)),
        measure=m,
    )
    with pytest.raises(ModelError, match="jump_jac mismatch .* atom 1"):
        validate_derivatives(broken)


def test_constant_jump_is_declared_as_data():
    # a state-independent G comes as an array, which the model keeps; its
    # Jacobian is one read-only zero stack and its compensator one read-only
    # array, with the bits of the per-call expression
    models = {name: build_model(name) for name in MODEL_BUILDERS}
    models["pollutant"] = assemble_model(params_from_dict({
        "d_space": 1, "velocity": [2.0], "max_mode": 3, "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]],
    }))
    models["pollutant-constant"] = assemble_model(params_from_dict({
        "d_space": 2, "velocity": [2.0, 0.0], "max_mode": 2, "atoms": [[0.3, 0.4, 1.3, 0.6], [0.7, 0.6, 0.7, 0.4]],
        "jump_kernel": {"kind": "constant", "value": 1.7},
    }))
    constant = set()
    for name, model in models.items():
        x1 = model.x0 + 0.3
        if not any(np.any(model.jump_jacobian(x)) for x in (model.x0, x1)):
            constant.add(name)
            assert isinstance(model.jump, np.ndarray) and not model.jump.flags.writeable and model.jump_jac is None
            mean = model.compensator(model.x0)
            assert mean is model.compensator(x1) and not mean.flags.writeable
            assert mean.tobytes() == (model.jump_values(model.x0) * model.measure.weights).sum(axis=-1).tobytes()
            jac = model.jump_jacobian(model.x0)
            assert jac is model.jump_jacobian(x1) and not jac.flags.writeable
            assert jac.shape == (model.measure.n_atoms, model.dim, model.dim)
            batch = np.stack([model.x0, x1, x1])
            for x in (model.x0, batch):
                g = model.jump_values(x)
                assert g.shape == x.shape[:-1] + model.jump.shape and not g.flags.writeable
                assert (g == model.jump).all()
        else:
            assert model.compensator(model.x0) is not model.compensator(model.x0)
    assert constant == {
        "scalar_benchmark", "linear_gaussian", "rank_deficient_2d", "pure_jump", "pollutant", "pollutant-constant",
    }
    # a copy made by dataclasses.replace keeps the declared jump and jump_jac
    # objects, and the bits of the fluid limit and of the paths
    model = models["scalar_benchmark"]
    copy = dataclasses.replace(model, drift=model.drift)
    assert fluid_limit(copy, 64)[0].values.tobytes() == fluid_limit(model, 64)[0].values.tobytes()
    for name, model in models.items():
        events = sample_poisson_batch(model.measure, 20.0, model.horizon, [substream(2, r) for r in range(5)])
        copy = dataclasses.replace(model)
        assert copy.jump is model.jump and copy.jump_jac is model.jump_jac, name
        assert fluid_limit(copy, 16)[0].values.tobytes() == fluid_limit(model, 16)[0].values.tobytes(), name
        assert simulate_jump_paths(copy, 0.1, events, 16).tobytes() == simulate_jump_paths(model, 0.1, events, 16).tobytes()
        if name in constant:
            mean = copy.compensator(copy.x0)
            assert mean is copy.compensator(copy.x0 + 0.3) and not mean.flags.writeable
            assert mean.tobytes() == model.compensator(model.x0).tobytes()
            assert not np.any(copy.jump_jacobian(copy.x0))
            assert copy.jump_values(copy.x0).tobytes() == model.jump_values(model.x0).tobytes()
    # a new array G gets its own zero Jacobian and compensator
    model = models["scalar_benchmark"]
    doubled = dataclasses.replace(model, drift=lambda x: -2.0 * x, jump=np.array([[2.0]]))
    assert doubled.compensator(doubled.x0).tolist() == [2.0] and not doubled.compensator(doubled.x0).flags.writeable
    assert doubled.jump_jacobian(doubled.x0).tolist() == [[[0.0]]]
    assert fluid_limit(doubled, 64)[0].values.tobytes() != fluid_limit(model, 64)[0].values.tobytes()
    with pytest.raises(ModelError, match="zero jump_jac"):
        dataclasses.replace(model, jump=np.array([[2.0]]), jump_jac=lambda x: np.zeros((1, 1, 1)))
    # the declared array is copied unless it is read-only and its own
    declared = np.array([[2.0]])
    assert dataclasses.replace(model, jump=declared).jump is not declared
    declared.setflags(write=False)
    assert dataclasses.replace(model, jump=declared).jump is declared


def test_jump_contract_violations_are_named():
    base = dict(
        dim=1, horizon=1.0, x0=np.zeros(1),
        drift=lambda x: -x,
        drift_jac=lambda x: -np.eye(1),
        measure=MarkMeasure.single_atom(),
    )

    def per_mark_jump(x, y):
        return np.array([y])

    with pytest.raises(ModelError, match=r"jump\(x\) \(.*per_mark_jump\).*\(1, 1\).*TypeError"):
        ModelSpec(jump=per_mark_jump, jump_jac=lambda x: np.zeros((1, 1, 1)), **base)
    with pytest.raises(ModelError, match=r"jump\(x\) .*shape \(1, 1\).*gave \(1,\)"):
        ModelSpec(jump=lambda x: np.ones(1), jump_jac=lambda x: np.zeros((1, 1, 1)), **base)
    with pytest.raises(ModelError, match=r"jump_jac\(x\) .*shape \(1, 1, 1\).*gave \(1, 1\)"):
        ModelSpec(jump=lambda x: np.ones((1, 1)), jump_jac=lambda x: np.zeros((1, 1)), **base)
    # right at one state, but blind to a batch
    with pytest.raises(ModelError, match=r"jump\(x\) .*shape \(2, 1, 1\); at a \(2, 1\) stack of x0 it gave \(1, 1\)"):
        ModelSpec(jump=lambda x: np.ones((1, 1)), jump_jac=lambda x: np.zeros((1, 1, 1)), **base)
    with pytest.raises(ModelError, match=r"drift\(x\) .*shape \(2, 1\).*stack of x0 it gave a TypeError"):
        ModelSpec(
            jump=lambda x: np.ones(x.shape + (1,)), jump_jac=lambda x: np.zeros((1, 1, 1)),
            **{**base, "drift": lambda x: np.array([float(-x[0])])},
        )
    with pytest.raises(ModelError, match="a callable jump needs jump_jac"):
        ModelSpec(jump=lambda x: np.ones(x.shape + (1,)), **base)
    with pytest.raises(ModelError, match=r"a constant jump must have shape \(1, 1\), got \(2, 1\)"):
        ModelSpec(jump=np.ones((2, 1)), **base)
    with pytest.raises(ModelError, match="leave jump_jac out"):
        ModelSpec(jump=np.ones((1, 1)), jump_jac=lambda x: np.zeros((1, 1, 1)), **base)


def test_scaling_schedule():
    # the MDP scaling a(eps) = eps^rho, b(eps) = eps / a(eps)^2 lives on
    # ExperimentConfig, which also validates the eps grid and rho
    cfg = ExperimentConfig(eps_grid=(0.2, 0.1, 0.05), rho=0.25)
    assert cfg.a_eps(0.01) == pytest.approx(0.01**0.25)
    assert cfg.b_eps(0.01) == pytest.approx(0.01 / cfg.a_eps(0.01) ** 2)
    assert cfg.eps_grid == (0.2, 0.1, 0.05)
    # along a valid (decreasing) eps grid both a(eps) and b(eps) decrease
    grid = ExperimentConfig().eps_grid
    for e1, e2 in zip(grid, grid[1:]):
        assert cfg.a_eps(e2) < cfg.a_eps(e1) and cfg.b_eps(e2) < cfg.b_eps(e1)
    with pytest.raises(ModelError):
        ExperimentConfig(eps_grid=(0.1, 0.2))
    with pytest.raises(ModelError):
        ExperimentConfig(rho=0.7)


def test_pathgrid_validation():
    with pytest.raises(ModelError):
        PathGrid(np.array([0.0, 0.5, 0.7]), np.zeros((3, 1)))
    with pytest.raises(ModelError):
        PathGrid(np.array([0.0, 1.0]), np.zeros((3, 1)))


def test_write_csv_cell_rule(tmp_path):
    # str as is, None empty, integers with str, every other number as repr(float(v))
    path = tmp_path / "new" / "nested" / "table.csv"
    row = ("a", None, 3, np.int64(7), 0.5, np.float64(0.1))
    write_csv(path, "name,gap,count,big,x,y", [row])
    assert path.read_text() == "name,gap,count,big,x,y\na,,3,7,0.5,0.1\n"
    write_csv(path, None, [[1e-300, -0.0], [np.float32(0.5), float("nan")]])
    assert path.read_text() == "1e-300,-0.0\n0.5,nan\n"


def test_pathgrid_csv(tmp_path):
    t = np.linspace(0, 1, 5)
    path = PathGrid(t, np.column_stack([t, t**2]))
    f = tmp_path / "path.csv"
    path.to_csv(f)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,x_2"
    assert len(lines) == 6
