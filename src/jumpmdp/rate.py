"""Quadratic deviation rates for the linearized fluctuation dynamics.

Two evaluations are provided: path-wise (minimal mark-space control energy
steering the linearized equation along a given path) and terminal (the
minimum-energy control of classical linear-quadratic theory, built from a
controllability Gramian).  Controls act through the gain B = G diag(sqrt(w))
in the atom coordinates u_k = sqrt(w_k) psi(y_k), so |u|^2 is the L2 norm
of psi against the mark measure.

Both invert the per-cell affine map LinearizedSystem.propagators, the same
map solve_limit_path applies, so the energy identities below hold to
round-off rather than to a differencing bias.

Infinite rates are reported as math.inf together with the residual of the
range test that triggered them, never as a large finite float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jump_sde import ModelError, PathGrid
from .mdp_limit import LinearizedSystem, solve_limit_path

__all__ = [
    "InadmissiblePathError",
    "RateSolution",
    "Gramian",
    "rate_of_path",
    "controllability_gramian",
    "rate_to_point",
    "sphere_minimum",
]

PINV_RTOL = 1e-10
RANGE_TOL = 1e-8


class InadmissiblePathError(ValueError):
    """Path outside the admissible class (nonzero start); the rate is +inf
    for a structural reason rather than a range failure."""


@dataclass(frozen=True)
class RateSolution:
    """Rate value with the optimizing control and the steered path.

    value is math.inf when the path (or target) is unreachable; residual then
    carries the worst range-test violation.  When finite,
    value = 0.5 * ||psi||^2 in L2(marks x time).
    """

    value: float
    psi: np.ndarray          # (n_atoms, n_cells), piecewise constant
    path: PathGrid
    residual: float


@dataclass(frozen=True)
class Gramian:
    """Controllability Gramian W with its per-cell transition representatives.

    By construction W = sum_c flow[c] @ gain[c] @ gain[c].T @ flow[c].T * dt,
    where flow[c] is the discrete state-transition factor from cell c to the
    horizon (the RK4-consistent analogue of Phi(T, s)).
    """

    matrix: np.ndarray       # (d, d) symmetric PSD
    flow: np.ndarray         # (n_cells, d, d)

    def check_finite(self) -> None:
        """Raise ModelError when the flow overflowed and left W non-finite."""
        if not np.isfinite(self.matrix).all():
            raise ModelError(
                f"controllability Gramian is non-finite on n_cells={self.flow.shape[0]} cells: "
                "the linearized flow overflows; refine the grid"
            )


def rate_of_path(
    sys: LinearizedSystem,
    path: PathGrid,
    range_tol: float = RANGE_TOL,
    pinv_rtol: float = PINV_RTOL,
) -> RateSolution:
    """Minimal control energy steering the linearized dynamics along a path.

    Per cell the forcing consistent with the discrete flow is recovered, the
    minimal-norm control u = B^+ f through the gain is taken (pseudo-inverse
    with the module-wide rank tolerance), and any cell whose forcing leaves
    the range of the gain makes the rate infinite, with the violation
    reported.  u lies in the row space of B, u = B' v with v = (B^+)' u, so
    psi = G' v equals u / sqrt(w) on atoms of positive weight without a
    division.
    """
    if not np.array_equal(path.times, sys.times):
        raise ModelError("path grid does not match the linearized system grid")
    eta = path.values
    if float(np.max(np.abs(eta[0]))) > 0.0:
        raise InadmissiblePathError(
            "path must start at zero; the rate is +inf off the admissible class"
        )
    prop, src = sys.propagators
    gain = sys.gain
    # all cells at once, vectors as (n_cells, ., 1) columns
    f = np.linalg.solve(src, eta[1:, :, None] - prop @ eta[:-1, :, None])
    pinv = np.linalg.pinv(gain, rcond=pinv_rtol)
    u = pinv @ f
    psi = (sys.jump_vals.transpose(0, 2, 1) @ (pinv.transpose(0, 2, 1) @ u))[..., 0].T
    resid = np.linalg.norm(gain @ u - f, axis=1)
    infeasible = np.any(resid > range_tol * (1.0 + np.linalg.norm(f, axis=1)))
    value = math.inf if infeasible else 0.5 * math.fsum((u * u).ravel()) * sys.dt
    worst = float(resid.max(initial=0.0))
    return RateSolution(value=value, psi=psi, path=solve_limit_path(sys, psi), residual=worst)


def controllability_gramian(sys: LinearizedSystem) -> Gramian:
    """Gramian of the discrete controlled flow, exact for the cell solvers;
    its flow pass (LinearizedSystem.gramian) runs once per system."""
    matrix, flow = sys.gramian
    return Gramian(matrix=matrix, flow=flow)


def _psd_pinv(w: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(w)
    cut = rtol * max(float(vals[-1]), 0.0)
    pos = vals > cut
    inv = np.zeros_like(vals)
    inv[pos] = 1.0 / vals[pos]
    return vecs @ np.diag(inv) @ vecs.T, vals, vecs


def rate_to_point(
    sys: LinearizedSystem,
    z: np.ndarray,
    range_tol: float = RANGE_TOL,
    pinv_rtol: float = PINV_RTOL,
) -> RateSolution:
    """Minimum-energy rate for hitting the terminal point z.

    value = 0.5 * z' W^+ z with the minimum-energy control
    psi(y, s) = G(s, y)' flow(s)' W^+ z; replaying the control reproduces the
    terminal point whenever z lies in the range of W, otherwise the rate is
    infinite with the range residual attached.  A non-finite W (an overflowed
    flow) decides no range question: its residual and rate are NaN, and
    Gramian.check_finite names the failure.
    """
    z = np.asarray(z, dtype=float).ravel()
    if z.shape != (sys.dim,):
        raise ModelError(f"z must have shape ({sys.dim},)")
    gram = controllability_gramian(sys)
    w = gram.matrix
    wp, _, _ = _psd_pinv(w, pinv_rtol)
    xi = wp @ z
    resid = float(np.linalg.norm(w @ xi - z))
    feasible = resid <= range_tol * (1.0 + float(np.linalg.norm(z)))
    psi = np.einsum("cjk,cij,i->kc", sys.jump_vals, gram.flow, xi)
    value = 0.5 * float(z @ xi) if feasible else (math.inf if math.isfinite(resid) else math.nan)
    return RateSolution(value=value, psi=psi, path=solve_limit_path(sys, psi), residual=resid)


def sphere_minimum(
    gram: Gramian, radius: float, pinv_rtol: float = PINV_RTOL
) -> tuple[float, np.ndarray]:
    """Minimum of the terminal rate over the sphere |z| = radius.

    For the quadratic form 0.5 z' W^+ z the minimum over the sphere is
    radius^2 / (2 * lambda_max(W)), reached along the top eigenvector; exact
    via the eigendecomposition, no iterative optimizer involved.  A
    non-finite W (an overflowed flow) gives NaN at z* = 0.
    """
    if not np.isfinite(gram.matrix).all():
        return math.nan, np.zeros(gram.matrix.shape[0])
    vals, vecs = np.linalg.eigh(gram.matrix)
    lam = float(vals[-1])
    if lam <= pinv_rtol * max(lam, 1.0) or lam <= 0.0:
        return math.inf, np.zeros(gram.matrix.shape[0])
    zstar = radius * vecs[:, -1]
    return radius**2 / (2.0 * lam), zstar
