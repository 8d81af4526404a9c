"""Finite atomic measures on the mark space.

Every integral against the jump-mark measure in this package is a finite
weighted sum over atoms, so inner products, norms and entropy costs carry no
inner-quadrature error.  Continuous mark laws must be discretized by the
caller (atoms + weights); sigma-finite measures without such a discretization
are out of scope.  Marks are points of R^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["MarkSpaceError", "MarkMeasure"]


class MarkSpaceError(ValueError):
    """Invalid measure data."""


@dataclass(frozen=True)
class MarkMeasure:
    """Finite atomic measure: atoms ``marks[k]`` with weights ``weights[k]``.

    Duplicate marks are merged at construction (weights add), weights must be
    nonnegative, and the instance is immutable so it can be shared freely
    across workers.
    """

    marks: np.ndarray
    weights: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self) -> None:
        marks = np.atleast_1d(np.asarray(self.marks, dtype=float))
        if marks.ndim == 1:
            marks = marks[:, None]
        weights = np.asarray(self.weights, dtype=float).ravel()
        if marks.shape[0] != weights.shape[0]:
            raise MarkSpaceError(
                f"{marks.shape[0]} marks but {weights.shape[0]} weights"
            )
        if not np.all(np.isfinite(marks)):
            raise MarkSpaceError("marks must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise MarkSpaceError("weights must be finite and >= 0")
        marks, weights = _merge_duplicates(marks, weights)
        marks.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total_mass", math.fsum(weights))

    @property
    def n_atoms(self) -> int:
        return self.marks.shape[0]

    @property
    def mark_dim(self) -> int:
        return self.marks.shape[1]

    @classmethod
    def from_atoms(
        cls, atoms: Sequence[tuple[float | Sequence[float], float]]
    ) -> "MarkMeasure":
        marks = [np.atleast_1d(np.asarray(m, dtype=float)) for m, _ in atoms]
        weights = [w for _, w in atoms]
        return cls(np.array(marks), np.array(weights))

    @classmethod
    def single_atom(cls, mark=1.0, weight: float = 1.0) -> "MarkMeasure":
        return cls.from_atoms([(mark, weight)])


def _merge_duplicates(marks: np.ndarray, weights: np.ndarray):
    """Merge exactly-equal marks, accumulating their weights."""
    if marks.shape[0] <= 1:
        return marks.copy(), weights.copy()
    order = np.lexsort(marks.T[::-1])
    marks = marks[order]
    weights = weights[order]
    fresh = np.ones(marks.shape[0], dtype=bool)
    fresh[1:] = np.any(marks[1:] != marks[:-1], axis=1)
    group = np.cumsum(fresh) - 1
    out_marks = marks[fresh]
    out_weights = np.zeros(out_marks.shape[0])
    np.add.at(out_weights, group, weights)
    return out_marks, out_weights
