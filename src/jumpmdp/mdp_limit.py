"""Linearized fluctuation dynamics around the fluid limit.

Per time cell (coefficients frozen at the cell midpoint of the fluid path)
this module builds:

* the linearized drift matrix  A1(s) = Db(x0(s)) + sum_k DxG(x0(s), y_k) w_k,
* the jump values G_i(x0(s), y_k) on the atoms, whose gain matrix
  B(s) = G(s) diag(sqrt(w)) carries a control in the atom coordinates
  u_k = sqrt(w_k) psi(y_k) of L2 of the mark measure,
* the Lyapunov covariance of the matching small-noise Gaussian process, and
* a replay decomposition of controlled fluctuation paths into drift,
  martingale, coefficient, coupling and forcing terms whose sum reconstructs
  the path exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jump_sde import ModelError, ModelSpec, PathGrid, _event_schedule, rk4_step
from .mark_space import MarkMeasure
from .prm import ControlField, sample_controlled_measure

__all__ = [
    "LinearizedSystem",
    "build_linearization",
    "solve_limit_path",
    "gaussian_covariance",
    "FluctuationParts",
    "decompose_controlled_path",
]


@dataclass(frozen=True)
class LinearizedSystem:
    """Per-cell frozen coefficients of the linearized fluctuation equation."""

    times: np.ndarray          # (n_cells + 1,)
    drift_mat: np.ndarray      # (n_cells, d, d)
    jump_vals: np.ndarray      # (n_cells, d, n_atoms) values G_i(x0, y_k)
    measure: MarkMeasure

    @property
    def n_cells(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.drift_mat.shape[1]

    @property
    def gain(self) -> np.ndarray:
        """B = G diag(sqrt(w)) per cell, (n_cells, d, n_atoms); B B' = G diag(w) G'."""
        return self.jump_vals * np.sqrt(self.measure.weights)

    def forcing_from_psi(self, psi: np.ndarray) -> np.ndarray:
        """Cellwise integral of psi(y, s) G(x0(s), y) against the marks."""
        w = self.measure.weights
        return np.einsum("cik,kc->ci", self.jump_vals, psi * w[:, None])


def build_linearization(model: ModelSpec, fluid_path: PathGrid) -> LinearizedSystem:
    """Freeze the linearized coefficients per cell of the fluid path grid."""
    if fluid_path.dim != model.dim:
        raise ModelError("fluid path dimension does not match the model")
    n = fluid_path.n_cells
    d = model.dim
    meas = model.measure
    n_atoms = meas.n_atoms
    w = meas.weights
    a1 = np.empty((n, d, d))
    jv = np.empty((n, d, n_atoms))
    for c in range(n):
        xmid = 0.5 * (fluid_path.values[c] + fluid_path.values[c + 1])
        m = np.asarray(model.drift_jac(xmid), dtype=float).copy()
        jacs = model.jump_jac(xmid)
        for k in range(n_atoms):
            m += w[k] * jacs[k]
        a1[c] = m
        jv[c] = model.jump(xmid)
    return LinearizedSystem(times=fluid_path.times, drift_mat=a1, jump_vals=jv, measure=meas)


def _as_psi_array(sys: LinearizedSystem, psi) -> np.ndarray:
    arr = psi.psi if isinstance(psi, ControlField) else np.asarray(psi, dtype=float)
    if arr.shape != (sys.measure.n_atoms, sys.n_cells):
        raise ModelError(
            f"psi must have shape ({sys.measure.n_atoms}, {sys.n_cells}), got {arr.shape}"
        )
    return arr


def solve_limit_path(sys: LinearizedSystem, psi) -> PathGrid:
    """Limit fluctuation path driven by a mark-space control psi(y, s).

    Solves x' = A1(s) x + integral of psi(y, s) G(x0(s), y) over marks,
    x(0) = 0, with per-cell frozen coefficients.
    """
    forcing = sys.forcing_from_psi(_as_psi_array(sys, psi))
    n, d = sys.n_cells, sys.dim
    h = sys.dt
    out = np.zeros((n + 1, d))
    x = np.zeros(d)
    for c in range(n):
        mat, f = sys.drift_mat[c], forcing[c]
        x = rk4_step(lambda v: mat @ v + f, x, h)
        out[c + 1] = x
    return PathGrid(sys.times, out)


def gaussian_covariance(sys: LinearizedSystem) -> np.ndarray:
    """Covariance along the Gaussian limit: S' = A1 S + S A1' + G diag(w) G'.

    Solved by RK4 with per-cell frozen coefficients, starting from zero and
    re-symmetrized each step.  Returns the (n_cells + 1, d, d) covariances at
    sys.times.
    """
    n, d = sys.n_cells, sys.dim
    h = sys.dt
    covs = np.zeros((n + 1, d, d))
    s = np.zeros((d, d))
    gain = sys.gain
    for c in range(n):
        a1 = sys.drift_mat[c]
        q = gain[c] @ gain[c].T
        s = rk4_step(lambda m: a1 @ m + m @ a1.T + q, s, h)
        s = 0.5 * (s + s.T)
        covs[c + 1] = s
    return covs


@dataclass(frozen=True)
class FluctuationParts:
    """Additive decomposition of a controlled fluctuation path.

    fluctuation = drift_gap + martingale + coefficient_gap + coupling + forcing,
    where the drift gap collects (b(xbar) - b(x0))/a, the martingale is the
    compensated jump noise, the coefficient gap is the uncontrolled jump-mean
    mismatch, the coupling is the control acting through the coefficient
    mismatch, and the forcing is the control acting at the fluid state.  The
    identity holds to round-off by construction (shared quadrature samples).
    """

    fluctuation: PathGrid
    drift_gap: PathGrid
    martingale: PathGrid
    coefficient_gap: PathGrid
    coupling: PathGrid
    forcing: PathGrid

    def reconstruction(self) -> np.ndarray:
        return (
            self.drift_gap.values
            + self.martingale.values
            + self.coefficient_gap.values
            + self.coupling.values
            + self.forcing.values
        )

    def reconstruction_gap(self) -> float:
        return float(np.max(np.abs(self.reconstruction() - self.fluctuation.values)))


def decompose_controlled_path(
    model: ModelSpec,
    epsilon: float,
    ctrl: ControlField,
    seed,
) -> FluctuationParts:
    """Simulate a tilted path and split its fluctuation into named terms.

    The controlled state, the fluid path and every time integral are advanced
    jointly by one RK4 pass over shared breakpoints (grid cells and event
    times, in the step order of simulate_jump_path's schedule), so the five terms
    cancel algebraically against the fluctuation.
    """
    if abs(ctrl.horizon - model.horizon) > 1e-12 * max(1.0, model.horizon):
        raise ModelError("control horizon does not match the model horizon")
    theta = 1.0 / epsilon
    events = sample_controlled_measure(model.measure, theta, ctrl, seed)
    w = model.measure.weights
    a = ctrl.a_eps
    psi = ctrl.psi
    d = model.dim
    n = ctrl.n_cells
    grid = np.linspace(0.0, model.horizon, n + 1)

    def rhs(z, psi_cell):
        xbar, x0v = z[0], z[1]
        gm_bar = model.jump(xbar)
        gm_0 = model.jump(x0v)
        out = np.empty_like(z)
        out[0] = model.drift(xbar)
        out[2] = gm_0 @ w
        out[1] = model.drift(x0v) + out[2]
        out[3] = gm_bar @ w
        out[4] = gm_bar @ (psi_cell * w)
        out[5] = gm_0 @ (psi_cell * w)
        return out

    # state rows: xbar, x0, P (fluid jump mean), Sbar, Ebar, C0
    z = np.zeros((6, d))
    z[0] = model.x0
    z[1] = model.x0
    jumpsum = np.zeros(d)

    rec = {
        name: np.zeros((n + 1, d))
        for name in ("y", "drift", "mart", "coeff", "coup", "force")
    }

    def record(i):
        xbar, x0v, p_acc, sbar, ebar, c0 = z
        k_acc = x0v - model.x0
        dbar = xbar - model.x0 - epsilon * jumpsum
        rec["y"][i] = (xbar - x0v) / a
        rec["drift"][i] = (dbar - (k_acc - p_acc)) / a
        rec["mart"][i] = (epsilon * jumpsum - (sbar + a * ebar)) / a
        rec["coeff"][i] = (sbar - p_acc) / a
        rec["coup"][i] = ebar - c0
        rec["force"][i] = c0

    for h, cell, i, atom in zip(*(col[0].tolist() for col in _event_schedule(grid, events))):
        if h > 0:
            psi_cell = psi[:, cell - 1]
            z = rk4_step(lambda v: rhs(v, psi_cell), z, h)
        if i >= 0:
            record(i)
        if atom >= 0:
            g = model.jump(z[0])[:, atom]
            jumpsum = jumpsum + g
            z[0] = z[0] + epsilon * g

    mk = lambda key: PathGrid(grid, rec[key])
    return FluctuationParts(
        fluctuation=mk("y"),
        drift_gap=mk("drift"),
        martingale=mk("mart"),
        coefficient_gap=mk("coeff"),
        coupling=mk("coup"),
        forcing=mk("force"),
    )
