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
    PointRealization,
    entropy_integrand,
    log_likelihood_ratio,
    sample_controlled_measure,
    sample_poisson_measure,
    substream,
    tilt_cost,
    truncated_tilt,
)

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
    n_rep = 100_000
    counts = np.array(
        [sample_poisson_measure(UNIT, 2.0, 1.0, substream(7, r)).n_events for r in range(n_rep)]
    )
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
    real = PointRealization(np.array([0.1]), np.array([0]), 1.0)
    assert log_likelihood_ratio(real, ctrl, UNIT, 1.0) == -math.inf


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
