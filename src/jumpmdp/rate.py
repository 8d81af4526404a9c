"""Quadratic deviation rates for the linearized fluctuation dynamics.

Two evaluations are provided: path-wise (minimal mark-space control energy
steering the linearized equation along a given path) and terminal (the
minimum-energy control of classical linear-quadratic theory, built from a
controllability Gramian).  sphere_rate reads the limit's terminal rates from
Sigma_T, the covariance of the Gaussian limit: c^2 / (2 lambda_max(Sigma_T))
for the sphere |z| = c, 1/2 z' Sigma_T^+ z for the point z.  Controls act
through the gain B = G diag(sqrt(w)) in the atom coordinates
u_k = sqrt(w_k) psi(y_k), so |u|^2 is the L2 norm of psi against the mark measure.

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

__all__ = ["InadmissiblePathError", "RateSolution", "rate_of_path", "controllability_gramian", "rate_to_point",
           "sphere_minimum", "sphere_rate"]

PINV_RTOL = 1e-10
RANGE_TOL = 1e-8
RICHARDSON_RTOL = 1e-8  # sphere_rate: two successive extrapolants agree to this
MAX_DOUBLINGS = 6
LADDER_START = 64  # sphere_rate: the most cells of a time-varying ladder's first level


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


def rate_of_path(sys: LinearizedSystem, path: PathGrid) -> RateSolution:
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
    pinv = np.linalg.pinv(gain[:m], rcond=PINV_RTOL)
    u = pinv @ f
    psi = (sys.jump_vals.swapaxes(1, 2) @ (pinv.swapaxes(-1, -2) @ u))[..., 0].T
    resid = np.linalg.norm(gain @ u - f, axis=1)
    infeasible = np.any(resid > RANGE_TOL * (1.0 + np.linalg.norm(f, axis=1)))
    value = math.inf if infeasible else 0.5 * math.fsum((u * u).ravel()) * sys.dt
    worst = float(resid.max(initial=0.0))
    return RateSolution(value=value, psi=psi, path=solve_limit_path(sys, psi), residual=worst)


def controllability_gramian(sys: LinearizedSystem) -> np.ndarray:
    """W, the read-only (d, d) Gramian of the discrete controlled flow, exact
    for the cell solvers; its Stein fold (LinearizedSystem.gramian) runs once
    per system and raises ModelError on a non-finite W."""
    return sys.gramian


def _quadratic_rate(gram: np.ndarray, z: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(0.5 z' gram^+ z, gram^+ z, range residual) of the symmetric PSD gram,
    whose pseudo-inverse drops eigenvalues at most PINV_RTOL times the largest;
    the rate is inf when z fails the range test."""
    vals, vecs = np.linalg.eigh(gram)
    pos = vals > PINV_RTOL * max(float(vals[-1]), 0.0)
    inv = np.zeros_like(vals)
    inv[pos] = 1.0 / vals[pos]
    xi = vecs @ np.diag(inv) @ vecs.T @ z
    resid = float(np.linalg.norm(gram @ xi - z))
    feasible = resid <= RANGE_TOL * (1.0 + float(np.linalg.norm(z)))
    return (0.5 * float(z @ xi) if feasible else math.inf), xi, resid


def rate_to_point(sys: LinearizedSystem, z: np.ndarray) -> RateSolution:
    """Minimum-energy rate for hitting the terminal point z.

    value = 0.5 * z' W^+ z is the sampled system's control energy, its controls
    constant on each cell of sys (the limit's rate is sphere_rate's), with the
    minimum-energy control psi(y, s) = G(s, y)' flow(s)' W^+ z; replaying it
    reproduces the terminal point whenever z lies in the range of W, otherwise
    the rate is infinite with the range residual attached.  flow(s)' W^+ z
    comes from a backward pass over one d-vector, v <- R[c]' v from v = W^+ z,
    so no per-cell matrix is formed.  A flow that overflows raises ModelError:
    in W from the Gramian fold, and in psi from the backward pass, which can
    overflow along a direction the gain never reaches while W stays finite.
    """
    z = np.asarray(z, dtype=float).ravel()
    if z.shape != (sys.dim,):
        raise ModelError(f"z must have shape ({sys.dim},)")
    value, v, resid = _quadratic_rate(controllability_gramian(sys), z)  # v = W^+ z
    prop, src = sys.propagators
    pulled = np.empty((sys.n_cells, sys.dim))  # row c: dt flow[c]' W^+ z
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite psi is named below
        for c in range(sys.n_cells - 1, -1, -1):
            pulled[c] = src[c].T @ v
            v = prop[c].T @ v
        psi = np.einsum("cjk,cj->kc", sys.jump_vals, pulled) / sys.dt
    bad = int(np.count_nonzero(~np.isfinite(psi).all(axis=0)))
    if bad:
        raise ModelError(f"optimal control psi is non-finite on {bad} of n_cells={sys.n_cells} cells: "
                         "the backward flow overflows")
    return RateSolution(value=value, psi=psi, path=solve_limit_path(sys, psi), residual=resid)


def sphere_minimum(gram: np.ndarray, radius: float) -> tuple[float, np.ndarray]:
    """Minimum of the terminal rate over the sphere |z| = radius.

    For the quadratic form 0.5 z' W^+ z the minimum over the sphere is
    radius^2 / (2 * lambda_max(W)), reached along the top eigenvector; exact
    via the eigendecomposition, no iterative optimizer involved.  gram is W or Sigma_T.
    """
    vals, vecs = np.linalg.eigh(gram)
    lam = float(vals[-1])
    if lam <= PINV_RTOL * max(lam, 1.0) or lam <= 0.0:
        return math.inf, np.zeros(gram.shape[0])
    zstar = radius * vecs[:, -1]
    return radius**2 / (2.0 * lam), zstar


def _richardson(coarse: float, mid: float, fine: float) -> tuple[float, float]:
    """The extrapolant (4 r_2n - r_n) / 3 of the two finest levels and its gap
    to the one below; an infinite rate is the range test's, with error 0."""
    if math.isinf(fine):
        return fine, 0.0
    last = (4.0 * fine - mid) / 3.0
    return last, abs(last - (4.0 * mid - coarse) / 3.0)


def sphere_rate(model: ModelSpec, sys: LinearizedSystem, radius: float,
                points: list | tuple | None = ()) -> tuple[list, np.ndarray, list, np.ndarray]:
    """(rates, z*, errors, Sigma_T): the limit's rate of the sphere |z| = radius,
    c^2 / (2 lambda_max(Sigma_T)), then of each point z of points (z* when
    None, on each grid that grid's minimizer), 1/2 z' Sigma_T^+ z or inf when
    z fails rate_to_point's range test, each with its error.

    A time-invariant system of more than one cell has Sigma_T exact on its
    grid: every error 0.  A time-varying one climbs one ladder for every
    target, doubling the linearization of model from min(n_cells, LADDER_START)
    cells until each target's successive extrapolants (4 r_2n - r_n) / 3 agree
    to RICHARDSON_RTOL relative: the last is the rate, their gap the error,
    and z* and Sigma_T are the finest grid's.  An infinite rate is the range
    test's, error 0.  MAX_DOUBLINGS doublings short of that raise ModelError.
    """
    exact = sys.time_invariant and sys.n_cells > 1
    start = sys.n_cells if exact else min(sys.n_cells, LADDER_START)
    table = []
    for level in range(MAX_DOUBLINGS + 1):
        n_cells = start << level
        lin = sys if n_cells == sys.n_cells else build_linearization(model, fluid_limit(model, n_cells)[0])
        sigma = gaussian_covariance(lin)
        rate, zstar = sphere_minimum(sigma, radius)
        table.append([rate, *(_quadratic_rate(sigma, z)[0] for z in ([zstar] if points is None else points))])
        if exact:
            return table[0], zstar, [0.0] * len(table[0]), sigma
        if level >= 2:
            rates, errors = zip(*map(_richardson, *table[-3:]))
            k = next((k for k, (r, e) in enumerate(zip(rates, errors)) if not e <= RICHARDSON_RTOL * abs(r)), None)
            if k is None:
                return list(rates), zstar, list(errors), sigma
    raise ModelError(f"{'sphere' if k == 0 else f'point_{k - 1}'} rate not converged on n_cells={start} to "
                     f"{start << MAX_DOUBLINGS}: the last Richardson extrapolant {rates[k]!r} is {errors[k]!r} "
                     f"off the one before")
