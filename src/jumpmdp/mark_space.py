"""Finite atomic measures on the mark space and their exact L2 geometry.

Every integral against the jump-mark measure in this package is a finite
weighted sum over atoms, so inner products, norms and entropy costs carry no
inner-quadrature error.  Continuous mark laws must be discretized by the
caller (atoms + weights); sigma-finite measures without such a discretization
are out of scope.

Marks are points of R^m.  Functions are evaluated atom by atom; for m == 1
the mark is passed to the callable as a plain float, otherwise as a length-m
array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "MarkSpaceError",
    "EvaluationError",
    "MarkMeasure",
    "integrate",
    "exp_square_integral",
    "load_measure",
    "save_measure",
]


class MarkSpaceError(ValueError):
    """Invalid measure or function data."""


class EvaluationError(MarkSpaceError):
    """A mark function produced a non-finite value at some atom."""


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

    def atom(self, k: int):
        """Mark of atom k, as a float when marks are one-dimensional."""
        row = self.marks[k]
        return float(row[0]) if self.mark_dim == 1 else row

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


def evaluate_on_atoms(f, measure: MarkMeasure) -> np.ndarray:
    """Evaluate f on every atom; raises EvaluationError naming a bad atom."""
    rows = []
    for k in range(measure.n_atoms):
        v = np.asarray(f(measure.atom(k)), dtype=float)
        if not np.all(np.isfinite(v)):
            raise EvaluationError(
                f"f is not finite at atom {k} (mark {measure.atom(k)!r})"
            )
        rows.append(v)
    return np.array(rows)


def integrate(f, measure: MarkMeasure) -> float | np.ndarray:
    """Integral of f against the measure: sum_k f(y_k) w_k.

    Compensated summation keeps the result exact to ~1e-16 relative, so the
    linearity invariant holds at the 1e-12 level for free.  Vector-valued f
    integrates componentwise.
    """
    vals = evaluate_on_atoms(f, measure)
    if vals.ndim == 1:
        return math.fsum(vals * measure.weights)
    return np.array(
        [math.fsum(vals[:, j] * measure.weights) for j in range(vals.shape[1])]
    )


def exp_square_integral(h, measure: MarkMeasure, delta: float) -> float:
    """Numeric spot-check of sub-Gaussian integrability of an envelope h.

    Returns the integral of exp(delta * h^2) over the atoms.  For a finite
    atomic measure this is always finite unless exp overflows, in which case
    +inf is returned and the offending atom is reported via a warning.  The
    value is advisory: it cannot certify the property for a continuum model
    the atoms were sampled from.
    """
    if delta <= 0:
        raise MarkSpaceError(f"delta must be > 0, got {delta}")
    hv = evaluate_on_atoms(h, measure)
    if hv.ndim != 1:
        raise MarkSpaceError("exp_square_integral expects a scalar function")
    with np.errstate(over="ignore"):
        terms = np.exp(delta * hv * hv) * measure.weights
    if np.any(np.isinf(terms)):
        k = int(np.argmax(np.isinf(terms)))
        warnings.warn(
            f"exp(delta*h^2) overflowed at atom {k} (mark {measure.atom(k)!r}); "
            "reporting +inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return math.inf
    return math.fsum(terms)


def load_measure(path) -> MarkMeasure:
    """Read a measure file: one whitespace-separated row per atom,
    mark components first, weight last."""
    marks, weights = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.split("#", 1)[0].strip()
            if not s:
                continue
            parts = [float(tok) for tok in s.split()]
            if len(parts) < 2:
                raise MarkSpaceError(f"{path}:{lineno}: need mark components and a weight")
            if parts[-1] < 0:
                raise MarkSpaceError(f"{path}:{lineno}: weight must be >= 0")
            marks.append(parts[:-1])
            weights.append(parts[-1])
    if not marks:
        raise MarkSpaceError(f"{path}: no atoms")
    dims = {len(m) for m in marks}
    if len(dims) != 1:
        raise MarkSpaceError(f"{path}: inconsistent mark dimensions {sorted(dims)}")
    return MarkMeasure(np.array(marks), np.array(weights))


def save_measure(measure: MarkMeasure, path) -> None:
    with open(path, "w") as fh:
        for k in range(measure.n_atoms):
            comps = " ".join(repr(float(c)) for c in measure.marks[k])
            fh.write(f"{comps} {float(measure.weights[k])!r}\n")
