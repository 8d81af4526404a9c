"""Poisson random measures on marks x time, tilted sampling, and tilt costs.

A realization is a finite list of (time, atom) events on (0, T] driven by a
base intensity theta * (measure x Lebesgue); an EventBatch holds those of a
chunk of replications, one row each, in CSR form.  Intensity tilts phi(y, s)
are piecewise constant on a uniform time grid, which makes the entropy cost
and the Girsanov likelihood ratio exact sums.  All sampling is a pure
function of (inputs, seed): replications get independent keyed streams, so
results do not depend on how work is split across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .mark_space import MarkMeasure

__all__ = [
    "ControlError",
    "entropy_integrand",
    "EventBatch",
    "ControlField",
    "substream",
    "sample_poisson_batch",
    "sample_poisson_measure",
    "sample_controlled_batch",
    "sample_controlled_measure",
    "tilt_cost",
    "log_likelihood_ratios",
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
    from scipy.special import xlogy  # imported on use: it is slow to load, and sampling never needs it

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
class EventBatch:
    """Point measures of a chunk of rows in CSR form.

    Row i holds times[offsets[i]:offsets[i + 1]], strictly increasing in
    (0, horizon], and the atom indices at the same positions.  A
    ControlError names the first row that breaks this.
    """

    times: np.ndarray
    atoms: np.ndarray
    offsets: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        atoms = np.asarray(self.atoms, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if times.ndim != 1 or times.shape != atoms.shape:
            raise ControlError("times and atoms must be aligned 1-D arrays")
        if offsets.ndim != 1 or offsets.size == 0:
            raise ControlError("offsets must hold each row's start, then the event count")
        shrinking = offsets[1:] < offsets[:-1]
        if offsets[0] != 0 or offsets[-1] != times.size or np.count_nonzero(shrinking):
            # name the first shrinking row, else the first or the last row
            row = np.argmax(shrinking) if shrinking.any() else 0 if offsets[0] else max(offsets.size - 2, 0)
            raise ControlError(f"row {row}: offsets must rise from 0 to the event count {times.size}")
        # prev[i]: the time event i must follow, the row's previous event or
        # 0 at a row start (an empty row's start is the next row's)
        prev = np.concatenate([[0.0], times])
        prev[offsets[:-1]] = 0.0
        bad = ~((times > prev[:-1]) & (times <= self.horizon))
        if np.count_nonzero(bad):
            i = np.flatnonzero(bad)[0]
            what = "lie in (0, T]" if not 0 < times[i] <= self.horizon else "be strictly increasing"
            row = np.searchsorted(offsets, i, side="right") - 1
            raise ControlError(f"row {row}: event times must {what}")
        for name, arr in (("times", times), ("atoms", atoms), ("offsets", offsets)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_rows(self) -> int:
        return self.offsets.size - 1

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


def _place_events(rngs, draws, per_cell: np.ndarray, horizon: float):
    """(times sorted within each row, the permutation that sorts them, row offsets).

    per_cell[b, c] of row b's uniform draws, in order, fall in cell c: u maps
    to lo + (hi - lo) * u on (lo, hi] = (c dt, min((c + 1) dt, T)], exactly
    what rng.uniform(lo, hi) would draw.  The permutation is of the draws.
    """
    n_rows, n_cells = per_cell.shape
    edges = np.minimum(np.arange(n_cells + 1) * (horizon / n_cells), horizon)
    lo, hi = edges[:-1], edges[1:]
    cell_starts = np.concatenate([[0], per_cell.ravel().cumsum()])
    cells = np.tile(np.arange(n_cells), n_rows).repeat(per_cell.ravel())
    left = lo[cells]
    times = np.concatenate([np.empty(0), *draws])
    times *= (hi - lo)[cells]
    times += left
    del cells
    offsets = cell_starts[::n_cells]
    counts = np.diff(offsets)
    # each row's times in a (B, max count) table padded with +inf, which sorts last
    real = np.arange(counts.max(initial=0)) < counts[:, None]
    while True:
        table = np.full(real.shape, np.inf)
        table[real] = times
        order = np.argsort(table, axis=1, kind="stable")
        del table
        order += offsets[:-1, None]
        order = order[real]
        ranked = times[order]
        tied = ranked[1:] == ranked[:-1]
        if np.count_nonzero(tied):  # a tie across a row boundary is none
            rows = np.repeat(np.arange(n_rows), counts)
            tied &= rows[1:] == rows[:-1]
        on_edge = times <= left
        if not (np.count_nonzero(tied) or np.count_nonzero(on_edge)):
            return ranked, order, offsets
        # probability zero: redraw every cell with a tie or a time on its
        # left edge from the row's generator, lowest cell first, and check again
        key = np.arange(per_cell.size).repeat(per_cell.ravel())  # b * n_cells + c
        for k in np.union1d(key[on_edge], key[order[:-1][tied]]).tolist():
            b, c = divmod(k, n_cells)
            times[cell_starts[k]:cell_starts[k + 1]] = rngs[b].uniform(lo[c], hi[c], size=per_cell[b, c])


def sample_poisson_batch(
    measure: MarkMeasure, theta: float, horizon: float, rngs: Sequence[np.random.Generator]
) -> EventBatch:
    """One Poisson random measure per generator, with intensity theta * measure x dt.

    Row b draws from rngs[b] alone: a count Poisson(theta * mass * T), iid
    uniform times on (0, T], then marks for the sorted times, iid in
    proportion to the weights, by the uniforms and cumulative-sum lookup
    that Generator.choice(n_atoms, size=n, p=weights / mass) uses.
    """
    if theta <= 0 or horizon <= 0:
        raise ControlError("theta and horizon must be positive")
    lam = theta * measure.total_mass * horizon
    counts = np.array([rng.poisson(lam) if lam > 0 else 0 for rng in rngs], dtype=np.int64)
    draws = [rng.random(n) for rng, n in zip(rngs, counts.tolist())]
    times, _, offsets = _place_events(rngs, draws, counts[:, None], horizon)
    atoms = np.empty(0, dtype=np.int64)
    if measure.total_mass > 0:
        cdf = (measure.weights / measure.total_mass).cumsum()
        cdf /= cdf[-1]
        marks = [rng.random(n) for rng, n in zip(rngs, counts.tolist())]
        atoms = cdf.searchsorted(np.concatenate([np.empty(0), *marks]), side="right")
    return EventBatch(times, atoms, offsets, horizon)


def sample_poisson_measure(
    measure: MarkMeasure, theta: float, horizon: float, seed
) -> EventBatch:
    """The one-row sample_poisson_batch drawn from seed or substream(seed)."""
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    return sample_poisson_batch(measure, theta, horizon, [rng])


def sample_controlled_batch(
    measure: MarkMeasure,
    theta: float,
    ctrls: Sequence[ControlField],
    rngs: Sequence[np.random.Generator],
) -> EventBatch:
    """One tilted point measure per generator; row b has intensity
    theta * phi_b(y, s) * w dy ds with phi_b = ctrls[b].phi.

    Thinning construction: within each time cell a dominating measure with
    the cell envelope phi_max = max_k phi(k, cell) is sampled, and each point
    is kept independently with probability phi / phi_max (drawn as the
    equivalent binomial).  Counts in any (atom, cell) are therefore Poisson
    with mean theta * w_k * dt * phi(k, cell), and each event's time is
    uniform on its cell whatever its atom.  The controls must share one
    grid; a row draws from rngs[b] alone.
    """
    if theta <= 0:
        raise ControlError("theta must be positive")
    if not ctrls or len(ctrls) != len(rngs):
        raise ControlError("need one control per generator, for at least one generator")
    grid = (ctrls[0].horizon, ctrls[0].n_cells)
    laws = {}  # per distinct control: envelope means and acceptance probabilities
    for ctrl in {id(c): c for c in ctrls}.values():
        if ctrl.n_atoms != measure.n_atoms or (ctrl.horizon, ctrl.n_cells) != grid:
            raise ControlError("the controls must match the measure's atoms and share one time grid")
        phi_max = ctrl.phi.max(axis=0)  # per-cell envelope over atoms
        accept = np.divide(ctrl.phi, phi_max, out=np.zeros_like(ctrl.phi), where=phi_max > 0)
        laws[id(ctrl)] = (theta * measure.weights[:, None] * ctrl.dt * phi_max[None, :], accept)
    kept = np.array([
        rng.binomial(rng.poisson(laws[id(ctrl)][0]), laws[id(ctrl)][1])
        for rng, ctrl in zip(rngs, ctrls)
    ])
    per_cell = kept.sum(axis=1)
    draws = [rng.random(n) for rng, n in zip(rngs, per_cell.sum(axis=1).tolist())]
    times, order, offsets = _place_events(rngs, draws, per_cell, grid[0])
    # label the draws before sorting, so that within a cell every atom's
    # times are iid uniform and no atom takes the earliest ones
    atoms = (np.arange(kept.size) % measure.n_atoms).repeat(kept.transpose(0, 2, 1).ravel())
    return EventBatch(times, atoms[order], offsets, grid[0])


def sample_controlled_measure(
    measure: MarkMeasure, theta: float, ctrl: ControlField, seed
) -> EventBatch:
    """The one-row sample_controlled_batch drawn from seed or substream(seed)."""
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    return sample_controlled_batch(measure, theta, [ctrl], [rng])


def tilt_cost(ctrl: ControlField, measure: MarkMeasure) -> float:
    """Entropy cost of a tilt: sum of entropy_integrand(phi) * w * dt.

    Zero exactly when phi is identically one.
    """
    if ctrl.n_atoms != measure.n_atoms:
        raise ControlError("control field does not match the measure's atoms")
    per_cell = entropy_integrand(ctrl.phi) * measure.weights[:, None] * ctrl.dt
    return math.fsum(per_cell.ravel())


def log_likelihood_ratios(
    events: EventBatch,
    ctrl: ControlField,
    measure: MarkMeasure,
    theta: float,
    rows: Sequence[int] | None = None,
) -> np.ndarray:
    """Log density of the phi-tilted law against the untilted law, per row.

    Evaluated on a realization this is
        sum_events log phi(event) - theta * sum_cells (phi - 1) * w * dt,
    whose exponential has mean one under the untilted law.  The same number
    reweights in either direction; the caller knows which law the events
    were drawn from.  A row with an event where phi = 0 yields -inf (the
    tilted law puts no mass there).  Returns the values of the given rows
    (default: all), each summed exactly by math.fsum over its events.
    """
    if ctrl.n_atoms != measure.n_atoms:
        raise ControlError("control field does not match the measure's atoms")
    comp = theta * math.fsum(
        ((ctrl.phi - 1.0) * measure.weights[:, None] * ctrl.dt).ravel()
    )
    phis = ctrl.phi[events.atoms, ctrl.cell_of(events.times)]
    zero = phis == 0
    logs = np.log(np.where(zero, 1.0, phis)).tolist()
    dead = set()  # the rows with an event where phi = 0
    if np.count_nonzero(zero):
        dead = set((np.searchsorted(events.offsets, np.flatnonzero(zero), side="right") - 1).tolist())
    off = events.offsets.tolist()
    out = []
    for b in range(events.n_rows) if rows is None else rows:
        row_logs = logs[off[b]:off[b + 1]]
        out.append(-math.inf if b in dead else (math.fsum(row_logs) - comp) if row_logs else -comp)
    return np.array(out, dtype=float)


def log_likelihood_ratio(
    realization: EventBatch,
    ctrl: ControlField,
    measure: MarkMeasure,
    theta: float,
) -> float:
    """log_likelihood_ratios of a one-row batch."""
    if realization.n_rows != 1:
        raise ControlError(f"log_likelihood_ratio takes a one-row batch, got {realization.n_rows} rows")
    return float(log_likelihood_ratios(realization, ctrl, measure, theta)[0])


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
