import numpy as np
import pytest

from jumpmdp.mark_space import MarkMeasure, MarkSpaceError


def test_mass_identity():
    m = MarkMeasure.from_atoms([(0.0, 0.5), (1.0, 1.5)])
    assert m.total_mass == 2.0
    assert np.array_equal(m.marks, [[0.0], [1.0]])
    assert np.array_equal(m.weights, [0.5, 1.5])


def test_duplicate_atoms_merge():
    merged = MarkMeasure(np.array([1.0, 2.0, 1.0]), np.array([0.5, 1.0, 0.25]))
    plain = MarkMeasure(np.array([1.0, 2.0]), np.array([0.75, 1.0]))
    assert merged.n_atoms == 2
    assert np.array_equal(merged.marks, plain.marks)
    assert np.array_equal(merged.weights, plain.weights)
    assert merged.total_mass == plain.total_mass


def test_negative_weight_rejected():
    for marks, weights in (
        ([1.0], [-0.1]),
        ([1.0, 2.0], [1.0]),
        ([np.nan], [1.0]),
        ([np.inf], [1.0]),
        ([1.0], [np.nan]),
        ([1.0], [np.inf]),
    ):
        with pytest.raises(MarkSpaceError):
            MarkMeasure(np.array(marks), np.array(weights))


def test_vector_marks():
    m = MarkMeasure.from_atoms([((0.5, 2.0), 1.0), ((0.25, 1.0), 3.0)])
    assert m.mark_dim == 2
    # atoms are stored in lexicographic mark order
    assert np.array_equal(m.marks, [[0.25, 1.0], [0.5, 2.0]])
    assert np.array_equal(m.weights, [3.0, 1.0])
    assert m.total_mass == 4.0
