"""Poisson random measures on marks x time, tilted sampling, and tilt costs.

A realization is a finite list of (time, atom) events on [0, T] driven by a
base intensity theta * (measure x Lebesgue).  Intensity tilts phi(y, s) are
piecewise constant on a uniform time grid, which makes the entropy cost and
the Girsanov likelihood ratio exact sums.  All sampling is a pure function of
(inputs, seed): replications get independent keyed streams, so results do not
depend on how work is split across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .mark_space import MarkMeasure

__all__ = [
    "ControlError",
    "entropy_integrand",
    "PointRealization",
    "ControlField",
    "substream",
    "sample_poisson_measure",
    "sample_controlled_measure",
    "tilt_cost",
    "log_likelihood_ratio",
    "truncated_tilt",
]


class ControlError(ValueError):
    """Invalid tilt or realization data."""


def entropy_integrand(r):
    """Pointwise cost of tilting a unit Poisson intensity to rate r.

    entropy_integrand(r) = r*log(r) - r + 1, with the limit value 1 at r = 0.
    Nonnegative, strictly convex, and zero exactly at r = 1.  Accepts scalars
    or arrays.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ControlError("entropy_integrand needs r >= 0")
    out = xlogy(arr, arr) - arr + 1.0
    # clamp tiny negative round-off near the minimum at r = 1
    out = np.maximum(out, 0.0)
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator keyed by (seed, *path); order-free determinism."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


@dataclass(frozen=True)
class PointRealization:
    """Sampled point measure: strictly increasing times with atom indices."""

    times: np.ndarray
    atoms: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        atoms = np.asarray(self.atoms, dtype=np.int64)
        if times.shape != atoms.shape:
            raise ControlError("times and atoms must align")
        if times.size and (times[0] <= 0 or times[-1] > self.horizon):
            raise ControlError("event times must lie in (0, T]")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise ControlError("event times must be strictly increasing")
        times.setflags(write=False)
        atoms.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "atoms", atoms)

    @property
    def n_events(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class ControlField:
    """Centered control psi on atoms x time cells, with tilt phi = 1 + a*psi.

    psi has shape (n_atoms, n_cells) and is piecewise constant on the uniform
    grid over [0, horizon].  Construction rejects any cell where the implied
    tilt would be negative; clamping is never silent.
    """

    psi: np.ndarray
    horizon: float
    a_eps: float
    phi: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi, dtype=float)
        if psi.ndim != 2:
            raise ControlError("psi must have shape (n_atoms, n_cells)")
        if self.horizon <= 0 or self.a_eps <= 0:
            raise ControlError("horizon and a_eps must be positive")
        phi = 1.0 + self.a_eps * psi
        if not np.all(np.isfinite(phi)):
            raise ControlError("tilt must be finite")
        bad = phi < 0
        if np.any(bad):
            k, c = np.argwhere(bad)[0]
            raise ControlError(
                f"tilt 1 + a*psi is negative at atom {k}, cell {c} "
                f"(phi={phi[k, c]!r}); refusing to clamp"
            )
        psi.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)

    @property
    def n_atoms(self) -> int:
        return self.psi.shape[0]

    @property
    def n_cells(self) -> int:
        return self.psi.shape[1]

    @property
    def dt(self) -> float:
        return self.horizon / self.n_cells

    def cell_of(self, t) -> np.ndarray:
        """Time cell index for each t in [0, T] (right endpoint closed)."""
        idx = np.floor(np.asarray(t, dtype=float) / self.dt).astype(np.int64)
        return np.clip(idx, 0, self.n_cells - 1)


def _draw_times(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n sorted, strictly increasing times in (lo, hi]; ties are resampled."""
    if n == 0:
        return np.empty(0)
    t = np.sort(rng.uniform(lo, hi, size=n))
    while np.any(t <= lo) or (t.size > 1 and np.any(np.diff(t) == 0)):
        t = np.sort(rng.uniform(lo, hi, size=n))  # probability-zero branch
    return t


def sample_poisson_measure(
    measure: MarkMeasure, theta: float, horizon: float, seed
) -> PointRealization:
    """Sample a Poisson random measure with intensity theta * measure x dt.

    Event count is Poisson(theta * mass * T), times are iid uniform on (0, T],
    marks iid proportional to the atom weights.
    """
    if theta <= 0 or horizon <= 0:
        raise ControlError("theta and horizon must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    lam = theta * measure.total_mass * horizon
    n = int(rng.poisson(lam)) if lam > 0 else 0
    times = _draw_times(rng, n, 0.0, horizon)
    if measure.total_mass > 0:
        p = measure.weights / measure.total_mass
        atoms = rng.choice(measure.n_atoms, size=n, p=p)
    else:
        atoms = np.empty(0, dtype=np.int64)
    return PointRealization(times, atoms, horizon)


def sample_controlled_measure(
    measure: MarkMeasure, theta: float, ctrl: ControlField, seed
) -> PointRealization:
    """Sample a tilted point measure with intensity theta * phi(y, s) * w dy ds.

    Thinning construction: within each time cell a dominating measure with
    the cell envelope phi_max = max_k phi(k, cell) is sampled, and each point
    is kept independently with probability phi / phi_max (drawn as the
    equivalent binomial).  Counts in any (atom, cell) are therefore Poisson
    with mean theta * w_k * dt * phi(k, cell), and each event's time is
    uniform on its cell whatever its atom.
    """
    if theta <= 0:
        raise ControlError("theta must be positive")
    if ctrl.n_atoms != measure.n_atoms:
        raise ControlError("control field does not match the measure's atoms")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    dt = ctrl.dt
    phi = ctrl.phi
    phi_max = phi.max(axis=0)  # per-cell envelope over atoms
    base_mean = theta * measure.weights[:, None] * dt * phi_max[None, :]
    base = rng.poisson(base_mean)
    with np.errstate(invalid="ignore", divide="ignore"):
        accept_p = np.where(phi_max[None, :] > 0, phi / phi_max[None, :], 0.0)
    kept = rng.binomial(base, accept_p)
    per_cell = kept.sum(axis=0)
    total = int(per_cell.sum())
    if total == 0:
        return PointRealization(np.empty(0), np.empty(0, dtype=np.int64), ctrl.horizon)
    # one uniform draw per event, in cell order: cell c maps u to lo + (hi - lo) * u
    # on (c dt, min((c + 1) dt, T)], exactly what rng.uniform(lo, hi) would draw
    lo = np.arange(ctrl.n_cells) * dt
    hi = np.minimum(np.arange(1, ctrl.n_cells + 1) * dt, ctrl.horizon)
    cells = np.repeat(np.arange(ctrl.n_cells), per_cell)
    times = lo[cells] + (hi - lo)[cells] * rng.random(total)
    starts = np.cumsum(per_cell) - per_cell
    while True:
        order = np.argsort(times, kind="stable")
        ties = np.flatnonzero(np.diff(times[order]) == 0)
        bad = np.union1d(cells[times <= lo[cells]], cells[order[ties]])
        if bad.size == 0:
            break
        for c in bad:  # probability-zero branch: redraw the whole cell
            times[starts[c]:starts[c] + per_cell[c]] = rng.uniform(lo[c], hi[c], size=per_cell[c])
    # label the draws before sorting, so that within a cell every atom's
    # times are iid uniform and no atom takes the earliest ones
    atoms = np.repeat(np.tile(np.arange(measure.n_atoms), ctrl.n_cells), kept.T.ravel())
    return PointRealization(times[order], atoms[order], ctrl.horizon)


def tilt_cost(ctrl: ControlField, measure: MarkMeasure) -> float:
    """Entropy cost of a tilt: sum of entropy_integrand(phi) * w * dt.

    Zero exactly when phi is identically one.
    """
    if ctrl.n_atoms != measure.n_atoms:
        raise ControlError("control field does not match the measure's atoms")
    per_cell = entropy_integrand(ctrl.phi) * measure.weights[:, None] * ctrl.dt
    return math.fsum(per_cell.ravel())


def log_likelihood_ratio(
    realization: PointRealization,
    ctrl: ControlField,
    measure: MarkMeasure,
    theta: float,
) -> float:
    """Log density of the phi-tilted law against the untilted law.

    Evaluated on a realization this is
        sum_events log phi(event) - theta * sum_cells (phi - 1) * w * dt,
    whose exponential has mean one under the untilted law.  The same number
    reweights in either direction; the caller knows which law the realization
    was drawn from.  An event sitting where phi = 0 yields -inf (the tilted
    law puts no mass there).
    """
    if ctrl.n_atoms != measure.n_atoms:
        raise ControlError("control field does not match the measure's atoms")
    comp = theta * math.fsum(
        ((ctrl.phi - 1.0) * measure.weights[:, None] * ctrl.dt).ravel()
    )
    if realization.n_events == 0:
        return -comp
    cells = ctrl.cell_of(realization.times)
    phis = ctrl.phi[realization.atoms, cells]
    if np.any(phis == 0):
        return -math.inf
    return math.fsum(np.log(phis)) - comp


def truncated_tilt(
    psi: np.ndarray, horizon: float, a_eps: float, beta: float
) -> ControlField:
    """Tilt 1 + a*psi with psi zeroed wherever |psi| > beta / a.

    The truncation guarantees phi >= 1 - beta >= 0 for beta in (0, 1], which
    is the device that makes near-optimal tilts admissible without clamping.
    """
    if not (0 < beta <= 1):
        raise ControlError(f"beta must be in (0, 1], got {beta}")
    if a_eps <= 0:
        raise ControlError("a_eps must be positive")
    psi = np.asarray(psi, dtype=float)
    kept = np.where(np.abs(psi) <= beta / a_eps, psi, 0.0)
    return ControlField(kept, horizon, a_eps)
