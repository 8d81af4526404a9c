import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from jumpmdp.mark_space import MarkMeasure
from jumpmdp.prm import (
    ControlError,
    ControlField,
    EventBatch,
    entropy_integrand,
    log_likelihood_ratio,
    log_likelihood_ratios,
    sample_controlled_batch,
    sample_controlled_measure,
    sample_poisson_batch,
    sample_poisson_measure,
    substream,
    tilt_cost,
    truncated_tilt,
)

from helpers import one_row, row, stack

UNIT = MarkMeasure.single_atom(1.0, 1.0)


def test_entropy_integrand_values():
    assert entropy_integrand(1.0) == 0.0
    assert entropy_integrand(0.0) == 1.0
    assert entropy_integrand(math.e) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ControlError):
        entropy_integrand(-0.5)


@given(
    x=st.floats(0, 100, allow_nan=False),
    y=st.floats(0, 100, allow_nan=False),
    lam=st.floats(0, 1),
)
def test_entropy_integrand_convex(x, y, lam):
    mid = entropy_integrand(lam * x + (1 - lam) * y)
    chord = lam * entropy_integrand(x) + (1 - lam) * entropy_integrand(y)
    assert mid <= chord + 1e-10 * (1 + chord)


def test_sample_zero_mass_is_empty():
    empty = MarkMeasure(np.array([1.0]), np.array([0.0]))
    r = sample_poisson_measure(empty, 2.0, 1.0, 0)
    assert r.n_events == 0


def test_sample_poisson_count_moments():
    # theta * mass * T = 2; check the Monte Carlo mean against 2 to 3 sigma
    n_rep, chunk = 100_000, 10_000
    counts = np.concatenate([
        np.diff(sample_poisson_batch(UNIT, 2.0, 1.0, [substream(7, r) for r in range(lo, lo + chunk)]).offsets)
        for lo in range(0, n_rep, chunk)
    ])
    mean = counts.mean()
    assert abs(mean - 2.0) <= 3.0 * math.sqrt(2.0 / n_rep)
    assert 0.95 <= counts.var(ddof=1) / 2.0 <= 1.05


def test_mark_frequencies_match_weights():
    m = MarkMeasure.from_atoms([(0.0, 0.25), (1.0, 0.75)])
    r = sample_poisson_measure(m, 10_000.0, 1.0, 11)
    n0 = int(np.sum(r.atoms == 0))
    n1 = r.n_events - n0
    chi2 = stats.chisquare([n0, n1], [0.25 * r.n_events, 0.75 * r.n_events])
    assert chi2.pvalue > 0.001


def test_times_sorted_in_horizon():
    r = sample_poisson_measure(UNIT, 50.0, 2.0, 3)
    assert np.all(np.diff(r.times) > 0)
    assert r.times[0] > 0 and r.times[-1] <= 2.0


def test_control_field_requires_nonnegative_tilt():
    with pytest.raises(ControlError, match="negative"):
        ControlField(np.full((1, 4), -3.0), 1.0, 0.5)


def test_zero_control_matches_plain_law():
    ctrl = ControlField(np.zeros((1, 8)), 1.0, 0.5)
    n_rep = 4000
    counts = np.array(
        [
            sample_controlled_measure(UNIT, 3.0, ctrl, substream(5, r)).n_events
            for r in range(n_rep)
        ]
    )
    # Poisson(3): compare mean and variance
    assert abs(counts.mean() - 3.0) <= 3.0 * math.sqrt(3.0 / n_rep)
    assert 0.9 <= counts.var(ddof=1) / 3.0 <= 1.1


def test_two_level_tilt_cell_means():
    # phi = 2 on the first half, 0 on the second
    a = 0.5
    psi = np.array([[2.0, -2.0]]) / a  # phi = (3, -1)? no: 1 + a*psi
    psi = np.array([[(2.0 - 1.0) / a, (0.0 - 1.0) / a]])
    ctrl = ControlField(psi, 1.0, a)
    assert np.allclose(ctrl.phi, [[2.0, 0.0]])
    theta, n_rep = 6.0, 10_000
    first = np.empty(n_rep)
    second = np.empty(n_rep)
    for r in range(n_rep):
        out = sample_controlled_measure(UNIT, theta, ctrl, substream(21, r))
        first[r] = np.sum(out.times <= 0.5)
        second[r] = np.sum(out.times > 0.5)
    mean1 = theta * 0.5 * 2.0
    assert abs(first.mean() - mean1) <= 3.0 * math.sqrt(mean1 / n_rep)
    assert np.all(second == 0)
    # Poisson dispersion of the active cell
    assert 0.9 <= first.var(ddof=1) / first.mean() <= 1.1


def test_tilt_cost_values():
    assert tilt_cost(ControlField(np.zeros((1, 5)), 1.0, 1.0), UNIT) == 0.0
    a = 1.0
    psi_e = np.full((1, 4), math.e - 1.0)
    assert tilt_cost(ControlField(psi_e, 1.0, a), UNIT) == pytest.approx(1.0, rel=1e-12)
    psi_zero_rate = np.full((1, 4), -1.0)
    assert tilt_cost(ControlField(psi_zero_rate, 1.0, a), UNIT) == pytest.approx(1.0)


def test_cost_zero_iff_unit_tilt():
    psi = np.zeros((2, 3))
    psi[1, 2] = 0.3
    m = MarkMeasure.from_atoms([(0.0, 1.0), (1.0, 2.0)])
    assert tilt_cost(ControlField(psi, 1.0, 0.5), m) > 0


def test_loglr_unit_tilt_is_zero():
    ctrl = ControlField(np.zeros((1, 4)), 1.0, 1.0)
    r = sample_poisson_measure(UNIT, 5.0, 1.0, 2)
    assert log_likelihood_ratio(r, ctrl, UNIT, 5.0) == 0.0


def test_loglr_constant_tilt_closed_form():
    c, theta = 1.7, 4.0
    ctrl = ControlField(np.full((1, 8), c - 1.0), 1.0, 1.0)
    r = sample_poisson_measure(UNIT, theta, 1.0, 9)
    lam = theta * 1.0 * 1.0
    expected = r.n_events * math.log(c) - lam * (c - 1.0)
    assert log_likelihood_ratio(r, ctrl, UNIT, theta) == pytest.approx(expected, rel=1e-12)


def test_loglr_martingale_mean_one():
    theta, c = 2.0, 1.5
    ctrl = ControlField(np.full((1, 4), c - 1.0), 1.0, 1.0)
    n_rep = 20_000
    vals = np.empty(n_rep)
    for r in range(n_rep):
        real = sample_poisson_measure(UNIT, theta, 1.0, substream(34, r))
        vals[r] = math.exp(log_likelihood_ratio(real, ctrl, UNIT, theta))
    se = vals.std(ddof=1) / math.sqrt(n_rep)
    assert abs(vals.mean() - 1.0) <= 3.0 * se


def test_loglr_reweighting_recovers_untilted_mean():
    # sample under phi, reweight by exp(-LR): recover untilted cell mean
    theta = 5.0
    psi = np.array([[0.8, -0.5, 0.2, 0.0]])
    ctrl = ControlField(psi, 1.0, 0.5)
    n_rep = 20_000
    est = np.empty(n_rep)
    for r in range(n_rep):
        real = sample_controlled_measure(UNIT, theta, ctrl, substream(44, r))
        w = math.exp(-log_likelihood_ratio(real, ctrl, UNIT, theta))
        est[r] = w * np.sum(real.times <= 0.25)
    target = theta * 0.25  # untilted mean count of the first cell
    se = est.std(ddof=1) / math.sqrt(n_rep)
    assert abs(est.mean() - target) <= 3.0 * se


def test_loglr_zero_tilt_event_gives_minus_inf():
    psi = np.array([[-1.0, 0.0]])  # phi = (0, 1)
    ctrl = ControlField(psi, 1.0, 1.0)
    real = one_row(np.array([0.1]), np.array([0]), 1.0)
    assert log_likelihood_ratio(real, ctrl, UNIT, 1.0) == -math.inf


def test_one_row_loglr_needs_a_one_row_batch():
    ctrl = ControlField(np.zeros((1, 2)), 1.0, 1.0)
    two = stack([one_row(np.array([0.1]), np.array([0]), 1.0), one_row(np.empty(0), np.empty(0), 1.0)])
    with pytest.raises(ControlError, match="log_likelihood_ratio takes a one-row batch, got 2 rows"):
        log_likelihood_ratio(two, ctrl, UNIT, 1.0)


def test_truncated_tilt_examples():
    flat = truncated_tilt(np.zeros((1, 3)), 1.0, 0.1, 1.0)
    assert np.all(flat.phi == 1.0)
    low = truncated_tilt(np.full((1, 3), -2.0), 1.0, 0.1, 1.0)
    assert np.allclose(low.phi, 0.8)
    cut = truncated_tilt(np.full((1, 3), 20.0), 1.0, 0.1, 1.0)
    assert np.all(cut.phi == 1.0)
    with pytest.raises(ControlError):
        truncated_tilt(np.zeros((1, 3)), 1.0, 0.1, 1.5)
    with pytest.raises(ControlError):
        truncated_tilt(np.zeros((1, 3)), 1.0, 0.1, 0.0)


@given(seed=st.integers(0, 1000), a=st.floats(0.05, 0.9), beta=st.floats(0.1, 1.0))
def test_truncated_tilt_cost_bound(seed, a, beta):
    # cost of the truncated tilt is at most a^2 * |psi|^2 (quadratic envelope 1)
    rng = np.random.default_rng(seed)
    psi = rng.normal(scale=3.0, size=(2, 5))
    m = MarkMeasure.from_atoms([(0.0, 0.5), (1.0, 1.5)])
    ctrl = truncated_tilt(psi, 1.0, a, beta)
    cost = tilt_cost(ctrl, m)
    norm2 = float(np.sum(psi**2 * m.weights[:, None]) * (1.0 / 5))
    assert cost <= 1.0 * a * a * norm2 + 1e-12


def test_dispersion_of_thinned_cells():
    m = MarkMeasure.from_atoms([(0.0, 0.4), (1.0, 0.6)])
    psi = np.array([[1.5, -0.4], [0.3, 0.9]])
    ctrl = ControlField(psi, 1.0, 0.5)
    theta = 8.0
    n_rep = 10_000
    counts = np.zeros((n_rep, 2, 2))
    for r in range(n_rep):
        out = sample_controlled_measure(m, theta, ctrl, substream(55, r))
        cell = (out.times > 0.5).astype(int)
        for k, c in zip(out.atoms, cell):
            counts[r, k, c] += 1
    means = theta * m.weights[:, None] * 0.5 * ctrl.phi
    emp_mean = counts.mean(axis=0)
    emp_var = counts.var(axis=0, ddof=1)
    assert np.allclose(emp_mean, means, atol=3 * np.sqrt(means / n_rep) + 1e-12)
    ratio = emp_var / emp_mean
    assert np.all(ratio > 0.9) and np.all(ratio < 1.1)


def test_thinning_with_dominating_envelope():
    # two atoms share one cell envelope; the low-rate atom is genuinely
    # thinned (acceptance probability 1/15) yet keeps its Poisson law
    m = MarkMeasure.from_atoms([(0.0, 1.0), (1.0, 1.0)])
    psi = np.array([[2.0], [-0.8]])  # phi = (3.0, 0.2), envelope 3.0
    ctrl = ControlField(psi, 1.0, 1.0)
    theta, n_rep = 4.0, 20_000
    low = np.empty(n_rep)
    for r in range(n_rep):
        out = sample_controlled_measure(m, theta, ctrl, substream(66, r))
        low[r] = np.sum(out.atoms == 1)
    mean_exact = theta * 1.0 * 1.0 * 0.2
    se = low.std(ddof=1) / math.sqrt(n_rep)
    assert abs(low.mean() - mean_exact) <= 3.0 * se
    assert 0.9 <= low.var(ddof=1) / low.mean() <= 1.1


def test_tilted_atom_times_are_uniform_within_a_cell():
    # one cell with phi = 1 and two equal-weight atoms: each atom's event
    # times are uniform on (0, T], so both means sit at T / 2
    m = MarkMeasure.from_atoms([(0.0, 1.0), (1.0, 1.0)])
    ctrl = ControlField(np.zeros((2, 1)), 1.0, 0.5)
    times = [[], []]
    for r in range(2000):
        out = sample_controlled_measure(m, 3.0, ctrl, substream(77, r))
        for k in range(2):
            times[k].extend(out.times[out.atoms == k])
    for t in map(np.asarray, times):
        assert abs(t.mean() - 0.5) <= 3.0 * t.std(ddof=1) / math.sqrt(t.size)


def test_substream_independence_and_determinism():
    a1 = substream(0, 1, 2).normal(size=4)
    a2 = substream(0, 1, 2).normal(size=4)
    b = substream(0, 1, 3).normal(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# ---------------------------------------------------------------------------
# Chunk samplers: every row keeps the bits of the one-row algorithm
# ---------------------------------------------------------------------------

# two atoms, the second of zero weight; a three-cell control on them whose
# phi is zero for atom 0 in cell 1 and for both atoms in cell 2
TWO = MarkMeasure.from_atoms([(0.0, 1.0), (1.0, 0.0)])
PSI = np.array([[0.5, -2.0, -2.0], [1.0, 0.0, -2.0]])


def reference_poisson_row(measure, theta, horizon, rng):
    """The per-row Poisson sampler as it was before rows were batched."""
    lam = theta * measure.total_mass * horizon
    n = int(rng.poisson(lam)) if lam > 0 else 0
    t = np.sort(rng.uniform(0.0, horizon, size=n))
    while np.any(t <= 0) or np.any(np.diff(t) == 0):
        t = np.sort(rng.uniform(0.0, horizon, size=n))
    return t, rng.choice(measure.n_atoms, size=n, p=measure.weights / measure.total_mass)


def reference_controlled_row(measure, theta, ctrl, rng):
    """The per-row tilted sampler as it was before rows were batched."""
    phi, dt, n_cells = ctrl.phi, ctrl.dt, ctrl.n_cells
    phi_max = phi.max(axis=0)
    base = rng.poisson(theta * measure.weights[:, None] * dt * phi_max[None, :])
    with np.errstate(invalid="ignore", divide="ignore"):
        kept = rng.binomial(base, np.where(phi_max[None, :] > 0, phi / phi_max[None, :], 0.0))
    per_cell = kept.sum(axis=0)
    lo = np.arange(n_cells) * dt
    hi = np.minimum(np.arange(1, n_cells + 1) * dt, ctrl.horizon)
    cells = np.repeat(np.arange(n_cells), per_cell)
    times = lo[cells] + (hi - lo)[cells] * rng.random(int(per_cell.sum()))
    starts = np.cumsum(per_cell) - per_cell
    while True:
        order = np.argsort(times, kind="stable")
        ties = np.flatnonzero(np.diff(times[order]) == 0)
        bad = np.union1d(cells[times <= lo[cells]], cells[order[ties]])
        if bad.size == 0:
            break
        for c in bad:
            times[starts[c]:starts[c] + per_cell[c]] = rng.uniform(lo[c], hi[c], size=per_cell[c])
    atoms = np.repeat(np.tile(np.arange(measure.n_atoms), n_cells), kept.T.ravel())
    return times[order], atoms[order]


def assert_row(row, times, atoms):
    assert row.times.tobytes() == np.asarray(times, dtype=float).tobytes()
    assert row.atoms.tobytes() == np.asarray(atoms, dtype=np.int64).tobytes()


def test_one_row_samplers_are_rows_of_the_batch():
    keys = [(3, r) for r in range(40)]
    plain = sample_poisson_batch(TWO, 1.5, 2.0, [substream(*k) for k in keys])
    counts = np.diff(plain.offsets)
    assert counts.min() == 0 and counts.max() >= 3  # empty and ragged rows
    ctrls = [ControlField(PSI, 2.0, 0.5), ControlField(-PSI / 4, 2.0, 0.5)]
    tilted = sample_controlled_batch(TWO, 4.0, [ctrls[r % 2] for r, _ in enumerate(keys)],
                                     [substream(*k) for k in keys])
    assert np.diff(tilted.offsets).min() == 0 and tilted.n_rows == len(keys)
    # marks over three weighted atoms follow Generator.choice draw for draw
    three = MarkMeasure.from_atoms([(0.0, 0.5), (1.0, 1.0), (2.0, 1.5)])
    marked = sample_poisson_batch(three, 3.0, 1.0, [substream(*k) for k in keys])
    assert set(marked.atoms.tolist()) == {0, 1, 2}
    for i, key in enumerate(keys):
        assert_row(row(marked, i), *reference_poisson_row(three, 3.0, 1.0, substream(*key)))
        one = sample_poisson_measure(TWO, 1.5, 2.0, substream(*key))
        assert_row(row(plain, i), one.times, one.atoms)
        assert_row(row(plain, i), *reference_poisson_row(TWO, 1.5, 2.0, substream(*key)))
        one = sample_controlled_measure(TWO, 4.0, ctrls[i % 2], substream(*key))
        assert_row(row(tilted, i), one.times, one.atoms)
        assert_row(row(tilted, i), *reference_controlled_row(TWO, 4.0, ctrls[i % 2], substream(*key)))
    # under ctrls[0], phi = 0 for atom 0 in cell 1 and for both atoms in cell 2
    even = [row(tilted, i) for i in range(0, len(keys), 2)]
    cell = ctrls[0].cell_of(np.concatenate([row.times for row in even]))
    atoms = np.concatenate([row.atoms for row in even])
    assert cell.size and not np.any((cell == 2) | ((cell == 1) & (atoms == 0)))


class ScriptedGenerator:
    """Generator stand-in whose first uniforms are given.

    Counts come from a seeded numpy generator.  Uniform draws (random,
    uniform, choice) take one double each, as numpy maps them: the first
    call takes the leading values of `script`, the rest are fresh.
    """

    def __init__(self, seed, script=()):
        self.counts = np.random.default_rng(seed)
        self.doubles = np.random.default_rng(seed + 1)
        self.script = list(script)

    def _next(self, n):
        take, self.script = self.script[:n], []
        return np.concatenate([take, self.doubles.random(n - len(take))])

    def poisson(self, lam):
        return self.counts.poisson(lam)

    def binomial(self, n, p):
        return self.counts.binomial(n, p)

    def random(self, n):
        return self._next(n)

    def uniform(self, lo, hi, size):
        return lo + (hi - lo) * self._next(size)

    def choice(self, k, size, p):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return cdf.searchsorted(self._next(size), side="right")


def test_forced_ties_and_left_edges_are_redrawn_in_stream_order():
    # row 0 starts with a tie, row 2 with a draw of 0 (a time on a cell's
    # left edge), row 4 with all times on left edges, so that both cells
    # are redrawn; rows 1 and 3 draw freely
    scripts = [[0.5, 0.5, 0.75], [], [0.25, 0.0, 0.75], [], [0.0] * 1000]
    ctrl = ControlField(np.zeros((2, 2)), 1.0, 0.5)
    measure = MarkMeasure.from_atoms([(0.0, 1.0), (1.0, 2.0)])
    new = lambda: [ScriptedGenerator(10 * i, s) for i, s in enumerate(scripts)]
    plain = sample_poisson_batch(measure, 10.0, 1.0, new())
    tilted = sample_controlled_batch(measure, 30.0, [ctrl] * len(scripts), new())
    for i, (g1, g2) in enumerate(zip(new(), new())):
        assert_row(row(plain, i), *reference_poisson_row(measure, 10.0, 1.0, g1))
        assert_row(row(tilted, i), *reference_controlled_row(measure, 30.0, ctrl, g2))
    # the scripted draws were replaced
    assert 0.5 not in row(plain, 0).times and 0.25 not in row(plain, 2).times
    assert 0.25 not in row(tilted, 0).times and 0.125 not in row(tilted, 2).times


@pytest.mark.parametrize(
    "times, offsets, message",
    [
        ([0.1, 0.2, 0.2], [0, 1, 3], "row 1: event times must be strictly increasing"),
        ([0.3, 0.2, 0.5], [0, 2, 3], "row 0: event times must be strictly increasing"),
        ([0.5, 1.5], [0, 1, 2], r"row 1: event times must lie in \(0, T\]"),
        ([0.5, 0.0], [0, 1, 1, 2], r"row 2: event times must lie in \(0, T\]"),
        ([0.1, 0.2], [0, 2, 1], "row 1: offsets must rise from 0 to the event count 2"),
        ([0.1, 0.2], [0, 1], "row 0: offsets must rise from 0 to the event count 2"),
        ([0.1, 0.2], [1, 2], "row 0: offsets must rise from 0 to the event count 2"),
    ],
)
def test_bad_batches_name_the_row(times, offsets, message):
    with pytest.raises(ControlError, match=message):
        EventBatch(np.array(times), np.zeros(len(times), dtype=np.int64), np.array(offsets), 1.0)


def test_batched_log_likelihood_ratio_matches_the_one_row_form():
    ctrl = ControlField(PSI, 2.0, 0.5)
    theta = 3.0
    rows = [
        one_row(np.array([0.1, 0.5]), np.array([0, 1]), 2.0),
        one_row(np.empty(0), np.empty(0, dtype=np.int64), 2.0),
        one_row(np.array([0.2, 1.0, 1.9]), np.array([1, 0, 1]), 2.0),  # phi(0, cell 1) = 0
        one_row(np.array([0.8, 1.2]), np.array([0, 1]), 2.0),
        one_row(np.array([0.3, 0.4, 1.2]), np.array([0, 0, 1]), 2.0),
    ]
    batch = stack(rows)
    got = log_likelihood_ratios(batch, ctrl, TWO, theta)
    comp = theta * math.fsum(((ctrl.phi - 1.0) * TWO.weights[:, None] * ctrl.dt).ravel())
    for i, row in enumerate(rows):
        one = log_likelihood_ratio(row, ctrl, TWO, theta)
        assert np.float64(one).tobytes() == got[i].tobytes()
        phis = ctrl.phi[row.atoms, ctrl.cell_of(row.times)]
        direct = -comp if not row.n_events else -math.inf if np.any(phis == 0) else (
            math.fsum(np.log(phis)) - comp)
        assert np.float64(direct).tobytes() == got[i].tobytes()
    assert np.all(got[[2, 3]] == -math.inf) and np.isfinite(got[[0, 1, 4]]).all()
    assert log_likelihood_ratios(batch, ctrl, TWO, theta, [4, 2]).tobytes() == got[[4, 2]].tobytes()
