"""Small-noise jump SDE paths and their fluid limit.

The state follows drift b between events and jumps by eps * G(x(s-), y) at
each event (s, y) of a Poisson random measure with intensity (1/eps) * nu x dt.
Drift segments are advanced with classical RK4; events are applied at their
exact times rather than binned to the grid, which removes the O(dt) jump
placement bias that would otherwise pollute slope estimates at small eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mark_space import MarkMeasure
from .prm import PointRealization

__all__ = [
    "ModelError",
    "check_keys",
    "ModelSpec",
    "PathGrid",
    "rk4_step",
    "simulate_jump_path",
    "fluid_limit",
]


class ModelError(ValueError):
    """Invalid model data or incompatible inputs."""


def check_keys(block: str, data, valid) -> None:
    """Raise ModelError naming the keys of a config block that are not valid."""
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ModelError(f"unknown {block} keys {unknown}; valid keys: {list(valid)}")


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients of the jump SDE and their derivatives.

    drift(x) -> (d,) and drift_jac(x) -> (d, d).  The model evaluates the jump
    coefficient on every atom of its measure at once: jump(x) -> (d, n_atoms)
    has column k equal to G(x, y_k), and jump_jac(x) -> (n_atoms, d, d) has
    slice k equal to DxG(x, y_k), with atoms in the measure's merged and
    sorted order (measure.marks).
    """

    dim: int
    horizon: float
    x0: np.ndarray
    drift: Callable
    jump: Callable
    drift_jac: Callable
    jump_jac: Callable
    measure: MarkMeasure

    def __post_init__(self) -> None:
        x0 = np.asarray(self.x0, dtype=float).ravel()
        if x0.shape != (self.dim,):
            raise ModelError(f"x0 must have shape ({self.dim},)")
        if self.horizon <= 0:
            raise ModelError("horizon must be positive")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        n, d = self.measure.n_atoms, self.dim
        for name, want in (("jump", (d, n)), ("jump_jac", (n, d, d))):
            fn = getattr(self, name)
            try:
                got = getattr(fn(x0), "shape", "no array")
            except TypeError as exc:
                got = f"a TypeError ({exc})"
            if got != want:
                raise ModelError(
                    f"{name}(x) ({getattr(fn, '__qualname__', fn)}) must return an array of "
                    f"shape {want} (one entry per atom); at x0 it gave {got}"
                )

    def compensator(self, x: np.ndarray) -> np.ndarray:
        """Mean jump drift at state x: sum_k G(x, y_k) w_k."""
        return (self.jump(x) * self.measure.weights).sum(axis=1)

    def validate_derivatives(self, seed: int = 0, n_points: int = 5, step: float = 1e-5) -> None:
        """Central finite differences must match the declared Jacobians."""
        rng = np.random.default_rng(seed)
        for _ in range(n_points):
            x = self.x0 + rng.normal(scale=0.5, size=self.dim)
            jb = np.asarray(self.drift_jac(x), dtype=float)
            fd = _fd_jacobian(self.drift, x, step)
            if np.linalg.norm(jb - fd) > 1e-5 * (1.0 + np.linalg.norm(jb)):
                raise ModelError(f"drift_jac mismatch with finite differences at x={x}")
            jacs = self.jump_jac(x)
            for k in range(self.measure.n_atoms):
                fdg = _fd_jacobian(lambda z: self.jump(z)[:, k], x, step)
                if np.linalg.norm(jacs[k] - fdg) > 1e-5 * (1.0 + np.linalg.norm(jacs[k])):
                    raise ModelError(
                        f"jump_jac mismatch with finite differences at x={x}, atom {k}"
                    )


def _fd_jacobian(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    d = x.size
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        cols.append((np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2 * h))
    return np.column_stack(cols)


@dataclass(frozen=True)
class PathGrid:
    """Values on a uniform time grid 0 = t_0 < ... < t_n = T."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or times.size < 2:
            raise ModelError("need at least two grid times")
        if values.shape[0] != times.size:
            raise ModelError("values must have one row per grid time")
        dts = np.diff(times)
        if np.any(dts <= 0) or not np.allclose(dts, dts[0], rtol=1e-9, atol=0):
            raise ModelError("grid must be strictly increasing and uniform")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_cells(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def terminal(self) -> np.ndarray:
        return self.values[-1]

    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    def to_csv(self, path) -> None:
        d = self.dim
        with open(path, "w") as fh:
            fh.write("t," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
            for t, row in zip(self.times, self.values):
                fh.write(f"{float(t)!r}," + ",".join(repr(float(v)) for v in row) + "\n")


def rk4_step(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + (0.5 * h) * k1)
    k3 = f(x + (0.5 * h) * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _walk_events(
    grid: np.ndarray,
    event_times: np.ndarray,
    advance: Callable,
    apply_jump: Callable,
    record: Callable,
) -> None:
    """Visit grid times and event times in time order.

    advance(i, h) moves the state forward by h inside cell i (the cell
    ending at grid[i]), apply_jump(k) applies event k to the left-limit state
    at its exact time, and record(i) stores the state at grid[i].  An event on
    a grid time is recorded before its jump, so the grid value is the left
    limit; an event at T is applied after the last record.
    """
    n_ev = event_times.size
    j = 0
    t = 0.0
    for i in range(1, grid.size):
        t_next = grid[i]
        while j < n_ev and event_times[j] <= t_next:
            s = event_times[j]
            if s > t:
                advance(i, s - t)
                t = s
            if s == t_next:
                record(i)
            apply_jump(j)
            j += 1
        if t < t_next:
            advance(i, t_next - t)
            t = t_next
            record(i)


def simulate_jump_path(
    model: ModelSpec,
    epsilon: float,
    events: PointRealization,
    n_cells: int = 64,
) -> PathGrid:
    """Integrate the jump SDE along a fixed event realization.

    Drift is advanced by RK4 over each interval between breakpoints (grid
    times and event times merged); at an event (s, y) the state jumps by
    eps * G(x(s-), y).  The returned path samples the solution on the uniform
    grid; if an event lands exactly on a grid time the recorded value is the
    left limit.  A non-finite state on the grid raises ModelError.
    """
    if epsilon <= 0:
        raise ModelError("epsilon must be positive")
    if events.n_events and (events.times[0] < 0 or events.times[-1] > model.horizon):
        raise ModelError("event times outside [0, horizon]")
    grid = np.linspace(0.0, model.horizon, n_cells + 1)
    out = np.empty((n_cells + 1, model.dim))
    x = model.x0.copy()
    out[0] = x
    drift, jump, ev_k = model.drift, model.jump, events.atoms

    def advance(i, h):
        nonlocal x
        x = rk4_step(drift, x, h)

    def apply_jump(k):
        nonlocal x
        x = x + epsilon * jump(x)[:, ev_k[k]]

    def record(i):
        out[i] = x

    _walk_events(grid, events.times, advance, apply_jump, record)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ModelError(f"jump path blew up at t={float(grid[first])!r} (eps={epsilon!r})")
    return PathGrid(grid, out)


def fluid_limit(model: ModelSpec, n_cells: int = 1000) -> tuple[PathGrid, float]:
    """Deterministic limit path and its peak norm.

    Solves dx/dt = b(x) + sum_k G(x, y_k) w_k by RK4 on the uniform grid and
    returns (path, sup_t |x(t)|).
    """
    grid = np.linspace(0.0, model.horizon, n_cells + 1)
    h = model.horizon / n_cells

    def rhs(x):
        return np.asarray(model.drift(x), dtype=float) + model.compensator(x)

    out = np.empty((n_cells + 1, model.dim))
    x = model.x0.copy()
    out[0] = x
    for i in range(1, n_cells + 1):
        x = rk4_step(rhs, x, h)
        if not np.all(np.isfinite(x)):
            raise ModelError(f"fluid limit blew up at t={float(grid[i])!r}")
        out[i] = x
    path = PathGrid(grid, out)
    return path, path.sup_norm()

