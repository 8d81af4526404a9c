"""Event-batch builders and a derivative check shared by the tests.

The package keeps one event type, the CSR EventBatch; these build one-row
batches from event lists, stack one-row batches into one, and cut a row out
of a batch.  validate_derivatives compares a model's declared Jacobians with
central finite differences.
"""

import numpy as np

from jumpmdp.jump_sde import ModelError
from jumpmdp.prm import EventBatch


def one_row(times, atoms, horizon):
    """The one-row batch of the given events."""
    return EventBatch(times, atoms, (0, np.size(times)), horizon)


def stack(rows):
    """One batch holding the rows of one-row batches, on the longest of their horizons."""
    return EventBatch(
        np.concatenate([np.empty(0)] + [r.times for r in rows]),
        np.concatenate([np.empty(0, dtype=np.int64)] + [r.atoms for r in rows]),
        np.cumsum([0] + [r.n_events for r in rows]),
        max(r.horizon for r in rows),
    )


def row(batch, i):
    """Row i of a batch as a one-row batch."""
    lo, hi = batch.offsets[i], batch.offsets[i + 1]
    return one_row(batch.times[lo:hi], batch.atoms[lo:hi], batch.horizon)


def _fd_jacobian(f, x):
    h = 1e-5  # central-difference step
    cols = [
        (np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2 * h)
        for e in h * np.eye(x.size)
    ]
    return np.column_stack(cols)


def validate_derivatives(model, seed=0, n_points=5):
    """Central finite differences must match the model's declared Jacobians."""
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        x = model.x0 + rng.normal(scale=0.5, size=model.dim)
        jb = np.asarray(model.drift_jac(x), dtype=float)
        fd = _fd_jacobian(model.drift, x)
        if np.linalg.norm(jb - fd) > 1e-5 * (1.0 + np.linalg.norm(jb)):
            raise ModelError(f"drift_jac mismatch with finite differences at x={x}")
        jacs = model.jump_jacobian(x)
        for k in range(model.measure.n_atoms):
            fdg = _fd_jacobian(lambda z: model.jump_values(z)[:, k], x)
            if np.linalg.norm(jacs[k] - fdg) > 1e-5 * (1.0 + np.linalg.norm(jacs[k])):
                raise ModelError(
                    f"jump_jac mismatch with finite differences at x={x}, atom {k}"
                )
