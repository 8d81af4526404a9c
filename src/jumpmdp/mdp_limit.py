"""Linearized fluctuation dynamics around the fluid limit.

Per time cell (coefficients frozen at the cell midpoint of the fluid path)
this module builds:

* the linearized drift matrix  A1(s) = Db(x0(s)) + sum_k DxG(x0(s), y_k) w_k,
* the jump values G_i(x0(s), y_k) on the atoms, whose gain matrix
  B(s) = G(s) diag(sqrt(w)) carries a control in the atom coordinates
  u_k = sqrt(w_k) psi(y_k) of L2 of the mark measure,
* one exact map per cell (_exact_cell) behind the propagators, the Gramian W
  and the covariance Sigma_T of the matching small-noise Gaussian process, and
* a replay decomposition of controlled fluctuation paths into drift,
  martingale, coefficient, coupling and forcing terms whose sum reconstructs
  the path exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jump_sde import ModelError, ModelSpec, PathGrid, _integrate
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
    """Per-cell frozen coefficients of the linearized fluctuation equation.

    A time-invariant system keeps one cell, spread by read-only stride-0 views.
    """

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
    def time_invariant(self) -> bool:
        """True when all cells share one stored A1 and G (stride 0 along the cells)."""
        return self.drift_mat.strides[0] == 0 and self.jump_vals.strides[0] == 0

    @property
    def stored_cells(self) -> int:
        """Cells with their own A1 and G: 1 on a time-invariant system, else n_cells."""
        return 1 if self.time_invariant else self.n_cells

    @property
    def gain(self) -> np.ndarray:
        """B = G diag(sqrt(w)) per cell, (n_cells, d, n_atoms); B B' = G diag(w) G'.

        A read-only view over the stored cells.
        """
        b = self.jump_vals[:self.stored_cells] * np.sqrt(self.measure.weights)
        return np.broadcast_to(b, self.jump_vals.shape)

    @cached_property
    def propagators(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, Gam) per cell, each (n_cells, d, d): the exact step of x' = A1 x + f,

            x+ = R x + Gam f,   R = e^{A1 dt},   Gam = int_0^dt e^{A1 s} ds,

        with A1 and f frozen per cell (_exact_cell).  solve_limit_path applies
        this map and the rate solvers invert it.  Built once per system, on
        the stored cells only.
        """
        a1 = self.drift_mat[:self.stored_cells]
        prop, src = np.empty(a1.shape), np.empty(a1.shape)
        for c, a in enumerate(a1):
            f, src[c], _ = _exact_cell(a, None, self.dt)
            prop[c] = np.eye(self.dim) + f
        shape = self.drift_mat.shape  # read-only; a time-invariant system spreads its one cell
        return np.broadcast_to(prop, shape), np.broadcast_to(src, shape)

    @cached_property
    def gramian(self) -> np.ndarray:
        """W = sum_c flow[c] B[c] B[c]' flow[c]' dt, where
        flow[c] = R[n-1] ... R[c+1] Gam[c] / dt carries a source in cell c to
        the horizon by the propagators.

        W is the Stein fold W <- R[c] W R[c]' + b[c] b[c]' / dt over the cells
        from zero, with b = Gam B (see _stein_fold); no per-cell array is kept.
        R - I enters as A1 Gam = e^{A1 dt} - I, so it loses no digits to I.
        Built once per system.  An unstable flow that overflows W raises
        ModelError.
        """
        src = self.propagators[1]
        gain = self.gain

        def cell(c):
            b = src[c] @ gain[c]
            return self.drift_mat[c] @ src[c], (b @ b.T) / self.dt

        w = _stein_fold(self, cell, "controllability Gramian")
        w.flags.writeable = False  # shared by every caller
        return w

    def forcing_from_psi(self, psi: np.ndarray) -> np.ndarray:
        """Cellwise integral of psi(y, s) G(x0(s), y) against the marks."""
        w = self.measure.weights
        return np.einsum("cik,kc->ci", self.jump_vals, psi * w[:, None])


def _flow_sum(f: np.ndarray, m: np.ndarray, n: int, start: np.ndarray | None = None) -> np.ndarray:
    """sum_{j<n} P^j m P'^j + P^n start P'^n with P = I + f, for n >= 1:
    n steps of s <- P s P' + m from start (zero when None).

    Two levels of the Horner step s <- m + P s P': K = isqrt(n) steps build
    the block sum s_K and e = P^K - I, then n // K steps carry the block by
    Q = I + e, and the n % K leading terms close the sum.  Every step is
    written around the identity (t = s + f s, s <- m + t + t f'), and powers
    are kept as P^j - I, so a near-identity P loses no digits to I.  A carry
    step, total + (s + u + (total + u) e') with u = e total, rounds it once.
    """
    k = math.isqrt(n)
    q, r = divmod(n, k)
    s, e = np.zeros_like(m), np.zeros_like(f)
    for j in range(k):
        if j == r:
            s_r, e_r = s, e  # sum of the first r terms, and P^r - I
        t = s + f @ s
        s = m + t + t @ f.T
        e = e + f + e @ f
    total = np.zeros_like(m) if start is None else start
    for _ in range(q):
        u = e @ total
        total = total + (s + u + (total + u) @ e.T)
    u = e_r @ total
    return total + (s_r + u + (total + u) @ e_r.T)


def _stein_fold(sys: LinearizedSystem, cell, name: str) -> np.ndarray:
    """S <- P_c S P_c' + m_c over the cells of sys from S = 0, symmetrized.

    cell(c) -> (P_c - I, m_c) is the map of cell c.  A time-invariant system
    is one _flow_sum over all n_cells steps of its one cell; a time-varying
    one chains one _flow_sum per cell.  An unstable flow overflows on any
    grid, so a non-finite S raises ModelError naming the matrix (`name`).
    """
    stored = sys.stored_cells
    s = None
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite S is named below
        for c in range(stored):
            f, m = cell(c)
            s = _flow_sum(f, m, sys.n_cells // stored, s)
        s = 0.5 * (s + s.T)
    if not np.isfinite(s).all():
        raise ModelError(f"{name} is non-finite on n_cells={sys.n_cells} cells: the linearized flow overflows")
    return s


def _exact_cell(a: np.ndarray, q: np.ndarray | None, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(F, Gam, M) of one cell with A frozen: F = e^{A dt} - I,
    Gam = int_0^dt e^{A s} ds and M = int_0^dt e^{A s} q e^{A' s} ds (None for q None).

    Taylor series on h = dt / 2^k, the smallest k with ||A h||_inf <= 1/2
    (terms Z^j / j!, h Z^j / (j + 1)! and h L^j(q) / (j + 1)! with Z = A h,
    L(X) = Z X + X Z', until no term changes any sum), then k doublings
    around the identity: F <- 2F + F F, Gam <- 2 Gam + F Gam, M <- M + P M P'
    with P = I + F (Van Loan, IEEE TAC 1978; Moler & Van Loan, SIAM Review
    2003).  e^{A dt} beyond the float range raises ModelError.
    """
    z_norm = dt * float(np.abs(a).sum(axis=1).max())  # ||A dt||_inf
    k = max(0, math.frexp(2.0 * z_norm)[1]) if 0.0 < z_norm < math.inf else 0  # z_norm / 2^k < 1/2
    h = dt / 2.0**k
    z = h * a
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite map is named below
        f, gam, fj = np.zeros_like(z), h * np.eye(len(z)), np.eye(len(z))
        m, mj = (None, None) if q is None else (np.zeros_like(q), h * q)
        for j in range(1, 64):
            fj = (fj @ z) / j
            sums = f + fj, gam + (h / (j + 1)) * fj, None if q is None else m + mj
            if all(new is None or np.array_equal(new, old) for new, old in zip(sums, (f, gam, m))):
                break
            f, gam, m = sums
            if q is not None:
                p = z @ mj
                mj = (p + p.T) / (j + 1)
        for _ in range(k):
            if q is not None:
                t = m + f @ m
                m = m + t + t @ f.T
            gam = 2.0 * gam + f @ gam
            f = 2.0 * f + f @ f
    if not all(x is None or np.isfinite(x).all() for x in (f, gam, m)):
        raise ModelError(f"cell map e^(A1 dt) is non-finite at dt={dt!r}: the linearized flow overflows in one cell")
    return f, gam, m


def build_linearization(model: ModelSpec, fluid_path: PathGrid) -> LinearizedSystem:
    """Freeze the linearized coefficients per cell of the fluid path grid.

    Each cell is compared with cell 0 bit for bit (so -0.0 and NaN payloads
    count); the per-cell arrays are allocated only at the first cell that
    differs.  A time-invariant system keeps cell 0 alone.
    """
    if fluid_path.dim != model.dim:
        raise ModelError("fluid path dimension does not match the model")
    n = fluid_path.n_cells
    d = model.dim
    meas = model.measure
    n_atoms = meas.n_atoms
    w = meas.weights
    a1 = jv = None
    for c in range(n):
        xmid = 0.5 * (fluid_path.values[c] + fluid_path.values[c + 1])
        m = np.asarray(model.drift_jac(xmid), dtype=float).copy()
        jacs = model.jump_jacobian(xmid)
        for k in range(n_atoms):
            m += w[k] * jacs[k]
        g = np.array(model.jump_values(xmid), dtype=float)
        if c == 0:
            first, first_bits = (m, g), (m.tobytes(), g.tobytes())
        elif a1 is None and (m.tobytes(), g.tobytes()) != first_bits:
            a1, jv = np.empty((n, d, d)), np.empty((n, d, n_atoms))
            a1[:c], jv[:c] = first
        if a1 is not None:
            a1[c], jv[c] = m, g
    if a1 is None:  # read-only stride-0 views of the one cell
        a1, jv = (np.broadcast_to(arr[None], (n,) + arr.shape) for arr in first)
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
    x(0) = 0, by the per-cell map of LinearizedSystem.propagators.
    """
    forcing = sys.forcing_from_psi(_as_psi_array(sys, psi))
    prop, src = sys.propagators
    out = np.zeros((sys.n_cells + 1, sys.dim))
    for c in range(sys.n_cells):
        out[c + 1] = prop[c] @ out[c] + src[c] @ forcing[c]
    return PathGrid(sys.times, out)


def gaussian_covariance(sys: LinearizedSystem) -> np.ndarray:
    """Sigma_T, the (d, d) covariance of the Gaussian limit at the horizon.

    Sigma_T solves S' = A1 S + S A1' + G diag(w) G' from zero, with the
    coefficients frozen per cell, and carries no grid error and no stability
    limit: each cell is the exact map S <- e^{A1 dt} S e^{A1' dt} + M with
    M = int_0^dt e^{A1 s} Q e^{A1' s} ds from _exact_cell, folded over the
    cells by _stein_fold.  An unstable flow that overflows Sigma_T raises
    ModelError.
    """
    gain = sys.gain

    def cell(c):
        f, _, m = _exact_cell(sys.drift_mat[c], gain[c] @ gain[c].T, sys.dt)
        return f, m

    return _stein_fold(sys, cell, "Gaussian covariance Sigma_T")


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

    One run of jump_sde's event-exact loop advances an augmented state on the
    tilted events: the controlled state xbar, the fluid path x0, the per-atom
    integrals Ibar = int G(xbar) ds and I0 = int G(x0) ds, and the jump sum
    J = eps * sum G(xbar-).  The control is constant on each cell, so its
    integrals against G are cumulative sums of the per-cell increments of
    Ibar and I0, and the five terms cancel algebraically against the
    fluctuation.
    """
    if abs(ctrl.horizon - model.horizon) > 1e-12 * max(1.0, model.horizon):
        raise ModelError("control horizon does not match the model horizon")
    events = sample_controlled_measure(model.measure, 1.0 / epsilon, ctrl, seed)
    w, a, n = model.measure.weights, ctrl.a_eps, ctrl.n_cells
    d, k = model.dim, model.measure.n_atoms
    grid = np.linspace(0.0, model.horizon, n + 1)
    # state columns: xbar, x0, Ibar (d x k), I0 (d x k), J
    cuts = np.cumsum([d, d, d * k, d * k])

    def drift(z):
        # one model call per stage on the (2B, d) rows xbar_0, x0_0, xbar_1, ...
        b = len(z)
        pairs = z[:, :2 * d].reshape(2 * b, d)
        f, g = model.drift(pairs).reshape(b, 2, d), model.jump_values(pairs).reshape(b, 2, d * k)
        return np.concatenate([
            f[:, 0], f[:, 1] + g[:, 1].reshape(b, d, k) @ w, g[:, 0], g[:, 1], np.zeros((b, d)),
        ], axis=1)

    def jump(z):
        g = model.jump_values(z[:, :d])
        out = np.zeros(z.shape + (k,))
        out[:, :d] = out[:, cuts[-1]:] = g
        return out

    z0 = np.concatenate([model.x0, model.x0, np.zeros(cuts[-1] - d)])
    states = _integrate(drift, jump, z0, grid, epsilon, events)[0]
    xbar, x0v, ibar, i0, jsum = np.split(states, cuts, axis=1)
    ibar, i0 = ibar.reshape(n + 1, d, k), i0.reshape(n + 1, d, k)
    psi_w = ctrl.psi * w[:, None]

    def psi_integral(acc):
        steps = np.einsum("cik,kc->ci", np.diff(acc, axis=0), psi_w)
        return np.concatenate([np.zeros((1, d)), np.cumsum(steps, axis=0)])

    p_acc, sbar = i0 @ w, ibar @ w
    ebar, c0 = psi_integral(ibar), psi_integral(i0)
    dbar = xbar - model.x0 - jsum
    mk = lambda values: PathGrid(grid, values)
    return FluctuationParts(
        fluctuation=mk((xbar - x0v) / a),
        drift_gap=mk((dbar - (x0v - model.x0 - p_acc)) / a),
        martingale=mk((jsum - (sbar + a * ebar)) / a),
        coefficient_gap=mk((sbar - p_acc) / a),
        coupling=mk(ebar - c0),
        forcing=mk(c0),
    )
