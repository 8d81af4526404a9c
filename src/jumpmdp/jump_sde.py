"""Small-noise jump SDE paths and their fluid limit.

The state follows drift b between events and jumps by eps * G(x(s-), y) at
each event (s, y) of a Poisson random measure with intensity (1/eps) * nu x dt.
Drift segments are advanced with classical RK4, or with the exponential
RK4 of Cox & Matthews (ETDRK4) when the model declares a diagonal linear
part of its drift; events are applied at their exact times rather than
binned to the grid, which removes the O(dt) jump placement bias that would
otherwise pollute slope estimates at small eps.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .mark_space import MarkMeasure
from .prm import EventBatch

__all__ = [
    "ModelError",
    "check_keys",
    "check_value",
    "deviation_scale",
    "write_csv",
    "ModelSpec",
    "PathGrid",
    "rk4_step",
    "simulate_jump_path",
    "simulate_jump_paths",
    "fluid_limit",
]


class ModelError(ValueError):
    """Invalid model data or incompatible inputs."""


def check_keys(block: str, data, valid) -> None:
    """Raise ModelError naming the keys of a config block that are not valid."""
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ModelError(f"unknown {block} keys {unknown}; valid keys: {list(valid)}")


def check_value(name: str, value, kind=float, *, least=None, positive=False, below=None, most=None, why=""):
    """Return a config value, or raise ModelError "<name> must be <what>, got <value!r>".

    kind is float (a finite number, returned as a float), int (returned as an
    int), bool, str, dict (a mapping), list, or [item kind]: a list whose
    items pass the rest of the rule.  A bool is not a number.  A number must
    also be at least `least`, positive, below `below` and at most `most`
    where given; `why` follows that range in the message.
    """
    limits = [("positive", lambda x: x > 0)] if positive else []
    if least is not None:
        limits.append(("nonnegative" if least == 0 and kind is float else f"at least {least}", lambda x: x >= least))
    limits += [(f"below {below}", lambda x: x < below)] if below is not None else []
    limits += [(f"at most {most}", lambda x: x <= most)] if most is not None else []
    bounds = " and ".join(text for text, _ in limits) + why
    if isinstance(kind, list):
        rule = dict(least=least, positive=positive, below=below, most=most)
        try:
            return [check_value(name, item, kind[0], **rule) for item in check_value(name, value, list)]
        except ModelError:
            nouns = "lists of numbers" if isinstance(kind[0], list) else {float: "numbers", int: "integers"}[kind[0]]
            each = f", each {bounds}" if limits else ""
            raise ModelError(f"{name} must be a list of {nouns}{each}, got {value!r}") from None
    what = {float: "a number", int: "an integer", bool: "true or false", str: "a string", dict: "a mapping",
            list: "a list"}
    types = {float: numbers.Real, int: numbers.Integral, dict: Mapping, list: (list, tuple)}
    numeric = kind in (float, int)  # neither a bool nor NaN nor inf is a number
    if not isinstance(value, types.get(kind, kind)) or numeric and (
        isinstance(value, bool) or not abs(value) <= sys.float_info.max
    ):
        raise ModelError(f"{name} must be {what[kind]}, got {value!r}")
    if not numeric:
        return value
    number = kind(value)
    if not all(inside(number) for _, inside in limits):
        raise ModelError(f"{name} must be {bounds}, got {value!r}")
    return number


def deviation_scale(epsilon: float, rho: float) -> float:
    """a(eps) = eps^rho, the scale of Y = (X - xbar) / a(eps); the speed is b(eps) = eps / a(eps)^2."""
    return float(epsilon) ** rho


def _cell(v) -> str:
    if type(v) is float:  # the common cell first
        return repr(v)
    if v is None or isinstance(v, str):
        return v or ""
    return str(v) if isinstance(v, numbers.Integral) else repr(float(v))


def write_csv(path, header: str | None, rows) -> None:
    """Write one CSV table, creating its directory.

    header is the first line (comma-separated names), or None for a table
    without one.  Every table of the package goes through here, so one rule
    fixes its bytes: a str cell is written as is, None as an empty cell, an
    integer with str, and any other number as repr(float(v)), so a numpy
    scalar prints like the Python float it equals.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients of the jump SDE and their derivatives, kept as declared.

    drift(x) and a callable jump(x) take states x of shape (..., d) and
    broadcast over the leading axes: one rule for a single state and for a
    batch, in which a row's value must not depend on the other rows.  drift
    returns (..., d); jump(x) -> (..., d, n_atoms) has column k equal to
    G(x, y_k), with atoms in the measure's merged and sorted order
    (measure.marks).  The Jacobians take one state: drift_jac(x) -> (d, d),
    and jump_jac(x) -> (n_atoms, d, d) has slice k equal to DxG(x, y_k).

    A state-independent G is declared as its (d, n_atoms) array, without a
    jump_jac, and kept read-only (copied once unless it is a read-only array
    of its own).  jump_values, jump_jacobian and compensator read either
    kind; nothing derived is written into a field, so a copy made by
    dataclasses.replace keeps the declared objects.

    linear, when given, is the (d,) diagonal L of a linear part of the
    drift, b(x) = L * x + N(x): fluid_limit and path integration then step
    by ETDRK4, which treats L exactly and is free of its stiffness.  None
    (the default) keeps classical RK4.
    """

    dim: int
    horizon: float
    x0: np.ndarray
    drift: Callable
    jump: Callable | np.ndarray
    drift_jac: Callable
    measure: MarkMeasure
    jump_jac: Callable | None = None
    linear: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_value("dim", self.dim, int, least=1)
        check_value("horizon", self.horizon, positive=True)
        x0 = np.asarray(self.x0, dtype=float).ravel()
        if x0.shape != (self.dim,):
            raise ModelError(f"x0 must have shape ({self.dim},)")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        if self.linear is not None:
            linear = np.array(self.linear, dtype=float)
            if linear.shape != (self.dim,):
                raise ModelError(f"linear must have shape ({self.dim},), got {linear.shape}")
            if not np.isfinite(linear).all():
                raise ModelError("linear must be finite")
            linear.setflags(write=False)
            object.__setattr__(self, "linear", linear)
        n, d = self.measure.n_atoms, self.dim
        if not callable(self.jump):
            if self.jump_jac is not None:
                raise ModelError("a constant (array) jump has a zero jump_jac; leave jump_jac out")
            g = np.asarray(self.jump, dtype=float)
            if g.shape != (d, n):
                raise ModelError(f"a constant jump must have shape {(d, n)}, got {g.shape}")
            if g.flags.writeable or not g.flags.owndata:
                g = g.copy()
                g.setflags(write=False)
            object.__setattr__(self, "jump", g)
        elif self.jump_jac is None:
            raise ModelError("a callable jump needs jump_jac, its Jacobian")
        stack = np.stack([x0, x0])
        for name, x, want in (
            ("jump", x0, (d, n)),
            ("jump_jac", x0, (n, d, d)),
            ("drift", stack, (2, d)),
            ("jump", stack, (2, d, n)),
        ):
            fn = getattr(self, name)
            if not callable(fn):  # a constant G, checked above
                continue
            try:
                got = getattr(fn(x), "shape", "no array")
            except (TypeError, ValueError) as exc:
                got = f"a {type(exc).__name__} ({exc})"
            if got != want:
                where = "x0" if x.ndim == 1 else f"a (2, {d}) stack of x0"
                raise ModelError(
                    f"{name}(x) ({getattr(fn, '__qualname__', fn)}) must return an array of "
                    f"shape {want}; at {where} it gave {got}"
                )

    def jump_values(self, x: np.ndarray) -> np.ndarray:
        """G on every atom at the states x: (..., d, n_atoms); a constant G read-only, broadcast to that shape."""
        if callable(self.jump):
            return self.jump(x)
        shape = x.shape[:-1] + self.jump.shape  # one state: the array (a view per cell slows linearization)
        return self.jump if shape == self.jump.shape else np.broadcast_to(self.jump, shape)

    def jump_jacobian(self, x: np.ndarray) -> np.ndarray:
        """DxG on every atom at the state x: (n_atoms, d, d); one read-only zero stack for a constant G."""
        return self.jump_jac(x) if callable(self.jump) else self._zero_jacobian

    def compensator(self, x: np.ndarray) -> np.ndarray:
        """Mean jump drift at the states x: sum_k G(x, y_k) w_k; one read-only array for a constant G."""
        if callable(self.jump):
            return (self.jump(x) * self.measure.weights).sum(axis=-1)
        return self._constant_mean

    @cached_property
    def _zero_jacobian(self) -> np.ndarray:
        return np.broadcast_to(0.0, (self.measure.n_atoms, self.dim, self.dim))

    @cached_property
    def _constant_mean(self) -> np.ndarray:
        mean = (self.jump * self.measure.weights).sum(axis=-1)
        mean.setflags(write=False)
        return mean


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
        """max_t |x(t)|, with the squares taken on values scaled by a power of two
        (exact), so a finite path has a finite peak with the unscaled bits."""
        scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(self.values))))[1] - 1)
        return scale * float(np.max(np.linalg.norm(self.values / scale, axis=1)))

    def to_csv(self, path) -> None:
        header = "t," + ",".join(f"x_{i + 1}" for i in range(self.dim))
        write_csv(path, header, (row.tolist() for row in np.column_stack((self.times, self.values))))


def rk4_step(f: Callable, x: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + (0.5 * h) * k1)
    k3 = f(x + (0.5 * h) * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _event_schedule(grid: np.ndarray, events: EventBatch) -> tuple[np.ndarray, ...]:
    """Step-major arrays (h, record, atom), each of shape (L, B).

    Row b merges the grid times grid[1:] with the event times of row b of
    the batch into one breakpoint sequence.  Step p of row b advances the
    state by h[p, b], then stores the state as the row's next grid value if
    record[p, b], then applies a jump with atom atom[p, b] (or -1).  An
    event on a grid time follows the grid step, with h = 0, so the grid
    value is the left limit; an event at T comes after the last record.  h
    is the difference of consecutive breakpoints.  Rows are padded to a
    common length L with h = 0 steps that neither record nor jump.  h is
    float, record bool and atom int32.
    """
    n = grid.size - 1
    times, offsets = events.times, events.offsets
    counts = np.diff(offsets)
    b, length = counts.size, n + int(counts.max(initial=0))
    ev_row = np.repeat(np.arange(b), counts)
    # grid steps at or before each event; a tie puts the grid step first
    grid_before = np.searchsorted(grid[1:], times, side="right")
    # ev_before[r, i]: events of row r before grid step i + 1, those with at
    # most i grid steps before them
    ev_before = np.bincount(
        ev_row * (n + 1) + grid_before, minlength=b * (n + 1)
    ).reshape(b, n + 1)[:, :n].cumsum(axis=1)
    # a breakpoint's predecessor is the later of its previous grid time and
    # the previous event of its row, if any.  Each temporary is freed once
    # used, so that the peak stays near the (L, B) arrays themselves.
    with_zero = np.concatenate([[0.0], times])  # with_zero[k + 1] = times[k]
    prev_event = with_zero[np.where(ev_before > 0, offsets[:-1, None] + ev_before, 0)]
    grid_h = grid[1:] - np.maximum(grid[:-1], prev_event)
    del with_zero, prev_event
    ev_h = grid[grid_before]
    np.maximum(ev_h[1:], times[:-1], out=ev_h[1:], where=ev_row[1:] == ev_row[:-1])
    ev_h = np.subtract(times, ev_h, out=ev_h)
    # flat indices into the (L, B) arrays, step * B + row; an event's step
    # is its rank in its row plus the grid steps before it
    grid_at = (ev_before + np.arange(n)) * b + np.arange(b)[:, None]
    del ev_before
    ev_at = grid_before
    ev_at += np.arange(times.size)
    ev_at -= offsets[ev_row]
    ev_at *= b
    ev_at += ev_row
    del ev_row

    h = np.zeros((length, b))
    np.put(h, grid_at, grid_h)
    np.put(h, ev_at, ev_h)
    record = np.zeros((length, b), dtype=bool)
    np.put(record, grid_at, True)
    atom = np.full((length, b), -1, dtype=np.int32)
    np.put(atom, ev_at, events.atoms)
    return h, record, atom


def _etd_advance(drift: Callable, linear: np.ndarray, h: np.ndarray) -> Callable:
    """advance(p, x), the ETDRK4 step p of _integrate on the (B, D) states x.

    h is the (L, B) step-major schedule.  The coefficients are built once
    per distinct step length, and step p of row r reads the row of its own.
    """
    from .exponential import etdrk4_step, phi_coefficients

    lengths, which = np.unique(h, return_inverse=True)
    table = phi_coefficients(lengths[:, None], linear)
    which = which.reshape(h.shape)

    def nonlinear(x):
        return drift(x) - linear * x

    return lambda p, x: etdrk4_step(nonlinear, x, *(c[which[p]] for c in table))


def _integrate(
    drift: Callable,
    jump: Callable,
    x0: np.ndarray,
    grid: np.ndarray,
    epsilon: float,
    events: EventBatch,
    linear: np.ndarray | None = None,
) -> np.ndarray:
    """The event-exact loop of simulate_jump_paths, for any state size D.

    drift(x) -> (B, D) and jump(x) -> (B, D, n_atoms) take a (B, D) batch of
    states, each row starting at x0.  Drift segments are RK4 steps, or
    ETDRK4 steps when the (D,) diagonal linear part of the drift is given;
    those build their coefficients once per distinct step length.  Returns
    the (B, n_cells + 1, D) grid states; a non-finite one raises ModelError.
    """
    h, record, atom = _event_schedule(grid, events)
    length, b = h.shape
    n_cells, dim = grid.size - 1, x0.size
    rows = np.arange(b)
    h_steps = h[:, :, None]  # a view: step p's lengths against the (B, D) states
    moving, jumping = h_steps > 0, atom[:, :, None] >= 0
    all_moving = moving.all(axis=(1, 2)).tolist()
    any_jump = jumping.any(axis=(1, 2)).tolist()
    # step-major: each step writes one contiguous (B, D) block
    states = np.empty((length + 1, b, dim))  # x0, then the state after each step's advance
    states[0] = x0
    x = states[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is named below
        etd = None if linear is None else _etd_advance(drift, linear, h)
        for p in range(length):
            stepped = rk4_step(drift, x, h_steps[p]) if etd is None else etd(p, x)
            x = stepped if all_moving[p] else np.where(moving[p], stepped, x)
            states[p + 1] = x
            if any_jump[p]:
                kicked = x + epsilon * jump(x)[rows, :, atom[p]]  # a -1 row reads the last atom and is not kept
                x = np.where(jumping[p], kicked, x)
    del h, h_steps, moving, jumping, atom, etd  # free before the compaction copy
    # row r records grid values 1..n at its record steps, in step order
    steps = np.zeros((b, n_cells + 1), dtype=np.intp)
    steps[:, 1:] = np.flatnonzero(record.T).reshape(b, n_cells)
    steps[:, 1:] -= rows[:, None] * length - 1  # flat index r * L + p -> state p + 1
    del record
    out = states[steps, rows[:, None]]
    del states, steps
    finite = np.isfinite(out).all(axis=2)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        first = int(np.argmin(finite[row]))
        raise ModelError(f"jump path blew up at t={float(grid[first])!r} (eps={epsilon!r})")
    return out


def simulate_jump_paths(
    model: ModelSpec,
    epsilon: float,
    events: EventBatch,
    n_cells: int = 64,
) -> np.ndarray:
    """Integrate the jump SDE along each row of events, all in lockstep.

    Drift is advanced by RK4 (ETDRK4 when the model declares its linear
    part) over each interval between breakpoints (grid times and event
    times merged); at an event (s, y) the state jumps by
    eps * G(x(s-), y).  Every row walks the same number of padded steps
    (see _event_schedule) through one batched drift and jump evaluation per
    stage, and each row's arithmetic is that of the row integrated alone.
    Returns the (B, n_cells + 1, d) states on the uniform grid; an event on
    a grid time leaves the left limit there.  A non-finite state on the grid
    raises ModelError naming the first bad grid time of the first bad row.
    """
    if epsilon <= 0:
        raise ModelError("epsilon must be positive")
    if events.times.size and events.times.max() > model.horizon:
        raise ModelError("event times outside [0, horizon]")
    grid = np.linspace(0.0, model.horizon, n_cells + 1)
    return _integrate(model.drift, model.jump_values, model.x0, grid, epsilon, events, model.linear)


def simulate_jump_path(
    model: ModelSpec,
    epsilon: float,
    events: EventBatch,
    n_cells: int = 64,
) -> PathGrid:
    """The path of simulate_jump_paths on a one-row batch, on its uniform grid."""
    if events.n_rows != 1:
        raise ModelError(f"simulate_jump_path takes a one-row batch, got {events.n_rows} rows")
    values = simulate_jump_paths(model, epsilon, events, n_cells)[0]
    return PathGrid(np.linspace(0.0, model.horizon, n_cells + 1), values)


def fluid_limit(model: ModelSpec, n_cells: int = 1000) -> tuple[PathGrid, float]:
    """Deterministic limit path and its peak norm.

    Solves dx/dt = b(x) + sum_k G(x, y_k) w_k on the uniform grid and
    returns (path, sup_t |x(t)|).  The step is RK4, or ETDRK4 when the model
    declares the diagonal linear part L of its drift: then L * x is treated
    exactly and N(x) = (b(x) - L * x) + sum_k G(x, y_k) w_k explicitly, with
    one set of coefficients for the one step length.  A model whose N is
    constant (the constant-kernel pollutant model) gets its closed-form
    path to round-off on any grid.  A non-finite state raises ModelError
    naming its first grid time; the check runs once, after the loop, since
    x enters every step linearly and a non-finite state stays non-finite.
    """
    grid = np.linspace(0.0, model.horizon, n_cells + 1)
    h = model.horizon / n_cells
    linear = model.linear

    def rhs(x):
        return np.asarray(model.drift(x), dtype=float) + model.compensator(x)

    def nonlinear(x):
        return (np.asarray(model.drift(x), dtype=float) - linear * x) + model.compensator(x)

    out = np.empty((n_cells + 1, model.dim))
    x = model.x0.copy()
    out[0] = x
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is named here
        if linear is not None:
            from .exponential import etdrk4_step, phi_coefficients

            coef = phi_coefficients(h, linear)
        for i in range(1, n_cells + 1):
            x = rk4_step(rhs, x, h) if linear is None else etdrk4_step(nonlinear, x, *coef)
            out[i] = x
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise ModelError(f"fluid limit blew up at t={float(grid[np.argmin(finite)])!r}")
    path = PathGrid(grid, out)
    return path, path.sup_norm()
