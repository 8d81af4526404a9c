import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumpmdp.mark_space import (
    EvaluationError,
    MarkMeasure,
    MarkSpaceError,
    exp_square_integral,
    integrate,
    load_measure,
    save_measure,
)

finite = st.floats(-50, 50, allow_nan=False)
weights_st = st.lists(st.floats(0, 10), min_size=1, max_size=6)


def test_mass_identity():
    m = MarkMeasure.from_atoms([(0.0, 0.5), (1.0, 1.5)])
    assert integrate(lambda y: 1.0, m) == pytest.approx(2.0, abs=0)


def test_weighted_sum():
    m = MarkMeasure.from_atoms([(1.0, 1.0), (2.0, 3.0)])
    assert integrate(lambda y: y, m) == 7.0


def test_square_hand_sum():
    m = MarkMeasure.from_atoms([(-1.0, 2.0), (3.0, 1.0)])
    assert integrate(lambda y: y * y, m) == 11.0


def test_vector_valued_integrand():
    m = MarkMeasure.from_atoms([(1.0, 1.0), (2.0, 1.0)])
    out = integrate(lambda y: np.array([y, y * y]), m)
    assert np.allclose(out, [3.0, 5.0])


def inner_l2(f, g, measure):
    """L2 inner product of two scalar mark functions: the integral of f g."""
    return integrate(lambda y: f(y) * g(y), measure)


def test_inner_products():
    m = MarkMeasure.from_atoms([(0.0, 1.0), (1.0, 1.0)])
    assert inner_l2(lambda y: 1.0, lambda y: 1.0, m) == 2.0
    # indicators of disjoint atoms
    f = lambda y: 1.0 if y < 0.5 else 0.0
    g = lambda y: 1.0 if y > 0.5 else 0.0
    assert inner_l2(f, g, m) == 0.0
    m2 = MarkMeasure.from_atoms([(1.0, 1.0), (2.0, 1.0)])
    assert inner_l2(lambda y: y, lambda y: y * y, m2) == 9.0


def test_exp_square_values():
    m1 = MarkMeasure.from_atoms([(3.0, 1.0)])
    assert exp_square_integral(lambda y: 0.0, m1, 1.0) == pytest.approx(m1.total_mass)
    assert exp_square_integral(lambda y: 1.0, m1, 1.0) == pytest.approx(math.e)
    m2 = MarkMeasure.from_atoms([(1.0, 1.0), (2.0, 1.0)])
    expected = math.exp(0.5) + math.exp(2.0)
    assert exp_square_integral(lambda y: y, m2, 0.5) == pytest.approx(expected, rel=1e-14)


def test_exp_square_overflow_reports_inf():
    m = MarkMeasure.from_atoms([(1.0, 1.0)])
    with pytest.warns(RuntimeWarning):
        assert exp_square_integral(lambda y: 1e6, m, 1.0) == math.inf


def test_exp_square_needs_positive_delta():
    m = MarkMeasure.single_atom()
    with pytest.raises(MarkSpaceError):
        exp_square_integral(lambda y: y, m, 0.0)


@given(
    ws=weights_st,
    alpha=finite,
    beta=finite,
)
def test_integrate_linearity(ws, alpha, beta):
    marks = np.arange(len(ws), dtype=float)
    m = MarkMeasure(marks, np.array(ws))
    f = lambda y: math.sin(y) + 0.5
    g = lambda y: y * y - 1.0
    lhs = integrate(lambda y: alpha * f(y) + beta * g(y), m)
    rhs = alpha * integrate(f, m) + beta * integrate(g, m)
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(ws=weights_st, seed=st.integers(0, 10_000))
def test_cauchy_schwarz(ws, seed):
    marks = np.arange(len(ws), dtype=float)
    m = MarkMeasure(marks, np.array(ws))
    rng = np.random.default_rng(seed)
    fv = rng.normal(size=len(ws))
    gv = rng.normal(size=len(ws))
    f = lambda y: fv[int(y)]
    g = lambda y: gv[int(y)]
    fg = inner_l2(f, g, m)
    assert fg * fg <= inner_l2(f, f, m) * inner_l2(g, g, m) + 1e-12


def test_duplicate_atoms_merge():
    merged = MarkMeasure(np.array([1.0, 2.0, 1.0]), np.array([0.5, 1.0, 0.25]))
    plain = MarkMeasure(np.array([1.0, 2.0]), np.array([0.75, 1.0]))
    assert merged.n_atoms == 2
    for f in (lambda y: 1.0, lambda y: y, lambda y: math.exp(-y)):
        assert integrate(f, merged) == pytest.approx(integrate(f, plain), rel=1e-15)


def test_negative_weight_rejected():
    with pytest.raises(MarkSpaceError):
        MarkMeasure(np.array([1.0]), np.array([-0.1]))


def test_nonfinite_value_names_atom():
    m = MarkMeasure.from_atoms([(0.0, 1.0), (1.0, 1.0)])
    with pytest.raises(EvaluationError, match="atom 1"):
        integrate(lambda y: math.inf if y > 0.5 else 0.0, m)


def test_vector_marks():
    m = MarkMeasure.from_atoms([((0.5, 2.0), 1.0), ((0.25, 1.0), 3.0)])
    assert m.mark_dim == 2
    assert integrate(lambda y: y[0] * y[1], m) == pytest.approx(1.0 + 3 * 0.25)


def test_measure_file_roundtrip(tmp_path):
    m = MarkMeasure.from_atoms([((0.5, 2.0), 1.0), ((0.25, 1.0), 3.0)])
    p = tmp_path / "nu.txt"
    save_measure(m, p)
    back = load_measure(p)
    assert np.array_equal(back.marks, m.marks)
    assert np.array_equal(back.weights, m.weights)


def test_measure_file_validation(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0 -2.0\n")
    with pytest.raises(MarkSpaceError, match="weight"):
        load_measure(p)
    p.write_text("1.0\n")
    with pytest.raises(MarkSpaceError):
        load_measure(p)
