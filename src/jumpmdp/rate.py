"""Quadratic deviation rates for the linearized fluctuation dynamics.

Two evaluations are provided: path-wise (minimal mark-space control energy
steering the linearized equation along a given path) and terminal (the
minimum-energy control of classical linear-quadratic theory, built from a
controllability Gramian).  The terminal sphere's rate comes from Sigma_T,
the covariance of the Gaussian limit (sphere_rate).  Controls act through
the gain B = G diag(sqrt(w)) in the atom coordinates u_k = sqrt(w_k) psi(y_k),
so |u|^2 is the L2 norm of psi against the mark measure.

Both invert the per-cell affine map LinearizedSystem.propagators, the same
map solve_limit_path applies, so the energy identities below hold to
round-off rather than to a differencing bias.  That map is exact for the
frozen coefficients, with no stability limit.

Infinite rates are reported as math.inf together with the residual of the
range test that triggered them, never as a large finite float.  A flow that
overflows decides no range question: the Gramian fold and the backward pass
of rate_to_point each raise ModelError naming what went non-finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jump_sde import ModelError, ModelSpec, PathGrid, fluid_limit
from .mdp_limit import LinearizedSystem, build_linearization, gaussian_covariance, solve_limit_path

__all__ = [
    "InadmissiblePathError",
    "RateSolution",
    "rate_of_path",
    "controllability_gramian",
    "rate_to_point",
    "sphere_minimum",
    "sphere_rate",
]

PINV_RTOL = 1e-10
RANGE_TOL = 1e-8
RICHARDSON_RTOL = 1e-8  # sphere_rate: two successive extrapolants agree to this
MAX_DOUBLINGS = 6


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
    division.  The inverse of Gam and the pseudo-inverse of the gain are
    taken on the stored cells only (one on a time-invariant system) and
    broadcast over every cell's right-hand side.
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
    m = sys.stored_cells
    # all cells at once, vectors as (n_cells, ., 1) columns
    f = np.linalg.inv(src[:m]) @ (eta[1:, :, None] - prop @ eta[:-1, :, None])
    pinv = np.linalg.pinv(gain[:m], rcond=pinv_rtol)
    u = pinv @ f
    psi = (sys.jump_vals.swapaxes(1, 2) @ (pinv.swapaxes(-1, -2) @ u))[..., 0].T
    resid = np.linalg.norm(gain @ u - f, axis=1)
    infeasible = np.any(resid > range_tol * (1.0 + np.linalg.norm(f, axis=1)))
    value = math.inf if infeasible else 0.5 * math.fsum((u * u).ravel()) * sys.dt
    worst = float(resid.max(initial=0.0))
    return RateSolution(value=value, psi=psi, path=solve_limit_path(sys, psi), residual=worst)


def controllability_gramian(sys: LinearizedSystem) -> np.ndarray:
    """W, the read-only (d, d) Gramian of the discrete controlled flow, exact
    for the cell solvers; its Stein fold (LinearizedSystem.gramian) runs once
    per system and raises ModelError on a non-finite W."""
    return sys.gramian


def _psd_pinv(w: np.ndarray, rtol: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(w)
    cut = rtol * max(float(vals[-1]), 0.0)
    pos = vals > cut
    inv = np.zeros_like(vals)
    inv[pos] = 1.0 / vals[pos]
    return vecs @ np.diag(inv) @ vecs.T


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
    infinite with the range residual attached.  flow(s)' W^+ z comes from a
    backward pass over one d-vector, v <- R[c]' v from v = W^+ z, so
    no per-cell matrix is formed.  A flow that overflows raises ModelError:
    in W from the Gramian fold, and in psi from the backward pass, which can
    overflow along a direction the gain never reaches while W stays finite.
    """
    z = np.asarray(z, dtype=float).ravel()
    if z.shape != (sys.dim,):
        raise ModelError(f"z must have shape ({sys.dim},)")
    w = controllability_gramian(sys)
    xi = _psd_pinv(w, pinv_rtol) @ z
    resid = float(np.linalg.norm(w @ xi - z))
    feasible = resid <= range_tol * (1.0 + float(np.linalg.norm(z)))
    prop, src = sys.propagators
    pulled = np.empty((sys.n_cells, sys.dim))  # row c: dt flow[c]' W^+ z
    v = xi
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite psi is named below
        for c in range(sys.n_cells - 1, -1, -1):
            pulled[c] = src[c].T @ v
            v = prop[c].T @ v
        psi = np.einsum("cjk,cj->kc", sys.jump_vals, pulled) / sys.dt
    bad = int(np.count_nonzero(~np.isfinite(psi).all(axis=0)))
    if bad:
        raise ModelError(
            f"optimal control psi is non-finite on {bad} of n_cells={sys.n_cells} cells: "
            "the backward flow overflows"
        )
    value = 0.5 * float(z @ xi) if feasible else math.inf
    return RateSolution(value=value, psi=psi, path=solve_limit_path(sys, psi), residual=resid)


def sphere_minimum(
    gram: np.ndarray, radius: float, pinv_rtol: float = PINV_RTOL
) -> tuple[float, np.ndarray]:
    """Minimum of the terminal rate over the sphere |z| = radius.

    For the quadratic form 0.5 z' W^+ z the minimum over the sphere is
    radius^2 / (2 * lambda_max(W)), reached along the top eigenvector; exact
    via the eigendecomposition, no iterative optimizer involved.  gram is W or Sigma_T.
    """
    vals, vecs = np.linalg.eigh(gram)
    lam = float(vals[-1])
    if lam <= pinv_rtol * max(lam, 1.0) or lam <= 0.0:
        return math.inf, np.zeros(gram.shape[0])
    zstar = radius * vecs[:, -1]
    return radius**2 / (2.0 * lam), zstar


def sphere_rate(model: ModelSpec, sys: LinearizedSystem, radius: float) -> tuple[float, np.ndarray, float, np.ndarray]:
    """(rate, z*, error, Sigma_T) of the sphere |z| = radius: sphere_minimum of Sigma_T.

    On a time-invariant system of more than one cell, Sigma_T on the grid of
    sys is exact: error 0.  On a time-varying one its O(dt^2) error goes by
    doubling the grid of sys, the linearization of model, until two
    successive extrapolants (4 r_2n - r_n) / 3 agree to RICHARDSON_RTOL
    relative: the last is the rate, their gap the error, and z* and Sigma_T
    are the finest grid's.  MAX_DOUBLINGS doublings short of that raise ModelError.
    """
    sigma = gaussian_covariance(sys)
    rate, zstar = sphere_minimum(sigma, radius)
    if sys.time_invariant and sys.n_cells > 1:
        return rate, zstar, 0.0, sigma
    extrapolant = math.nan  # compares false: one extrapolant decides nothing
    for level in range(1, MAX_DOUBLINGS + 1):
        sigma = gaussian_covariance(build_linearization(model, fluid_limit(model, sys.n_cells << level)[0]))
        coarse, (rate, zstar) = rate, sphere_minimum(sigma, radius)
        previous, extrapolant = extrapolant, (4.0 * rate - coarse) / 3.0
        if abs(extrapolant - previous) <= RICHARDSON_RTOL * abs(extrapolant):
            return extrapolant, zstar, abs(extrapolant - previous), sigma
    raise ModelError(f"sphere rate not converged on n_cells={sys.n_cells} to {sys.n_cells << MAX_DOUBLINGS}: "
                     f"the last Richardson extrapolants {previous!r} and {extrapolant!r} differ by more than "
                     f"{RICHARDSON_RTOL!r}")
