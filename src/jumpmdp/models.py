"""Built-in model catalog.

Models are registered builders keyed by name and configured purely by
numeric parameters, so experiment configs stay expression-free and worker
processes can rebuild any model from its (name, params) pair.  Each builder
evaluates its jump coefficient on the marks of its own measure, in the
measure's atom order, by numpy ufunc expressions that broadcast over any
leading axes (so an overflowed state gives NaN, not an exception), or
passes a constant one as its (d, n_atoms) array (see ModelSpec).
"""

from __future__ import annotations

import inspect

import numpy as np

from .jump_sde import ModelError, ModelSpec, check_value
from .mark_space import MarkMeasure

__all__ = ["MODEL_BUILDERS", "build_model"]


def scalar_benchmark(
    decay: float = 1.0,
    x0: float = 0.0,
    horizon: float = 1.0,
    mark: float = 1.0,
    weight: float = 1.0,
) -> ModelSpec:
    """d = 1, drift -decay*x, jump coefficient equal to the mark.

    With the unit atom this has constant linearized coefficients
    A1 = -decay and gain 1, so every closed form (Gramian, Lyapunov
    variance, terminal rates) is available for cross-checks.
    """
    measure = MarkMeasure.single_atom(mark, weight)
    return ModelSpec(
        dim=1,
        horizon=horizon,
        x0=np.array([x0]),
        drift=lambda x: -decay * x,
        jump=measure.marks.T,
        drift_jac=lambda x: np.array([[-decay]]),
        measure=measure,
    )


def linear_gaussian(
    rate: float = 1.0,
    gain: float = 1.0,
    x0: float = 0.0,
    horizon: float = 1.0,
) -> ModelSpec:
    """d = 1, drift rate*x and jump gain*mark on a unit atom.

    The linearization has A1 = rate and gain `gain`, matching the scalar
    closed forms W(T) = gain^2 (e^{2 rate T} - 1) / (2 rate).
    """
    measure = MarkMeasure.single_atom(1.0, 1.0)
    return ModelSpec(
        dim=1,
        horizon=horizon,
        x0=np.array([x0]),
        drift=lambda x: rate * x,
        jump=gain * measure.marks.T,
        drift_jac=lambda x: np.array([[rate]]),
        measure=measure,
    )


def two_d_benchmark(
    horizon: float = 1.0,
    coupling: float = 0.25,
    wobble: float = 0.5,
) -> ModelSpec:
    """d = 2 benchmark with state-dependent jump coefficient.

    Two mark atoms make the jump functions y and y^2 independent in the
    mark space, so the gain has full rank and varies along the fluid path
    through the sin term.
    """
    measure = MarkMeasure.from_atoms([(1.0, 1.0), (2.0, 0.5)])
    y = measure.marks[:, 0]
    m = np.array([[-1.0, coupling], [0.0, -0.5]])

    def drift(x):
        # each row sums its two products itself, so a row's value does not
        # depend on the batch (a BLAS product may round it differently)
        return (x[..., None, :] * m).sum(axis=-1)

    def jump(x):
        scaled = y * (1.0 + wobble * np.sin(x[..., 0:1]))
        return np.stack([scaled, np.broadcast_to(y * y, scaled.shape)], axis=-2)

    def drift_jac(x):
        return m

    def jump_jac(x):
        jac = np.zeros((y.size, 2, 2))
        jac[:, 0, 0] = y * wobble * np.cos(x[0])
        return jac

    return ModelSpec(
        dim=2,
        horizon=horizon,
        x0=np.array([0.2, -0.1]),
        drift=drift,
        jump=jump,
        drift_jac=drift_jac,
        jump_jac=jump_jac,
        measure=measure,
    )


def rank_deficient_2d(horizon: float = 1.0, factor: float = 2.0) -> ModelSpec:
    """d = 2 with proportional jump components; the gain has rank one."""
    measure = MarkMeasure.single_atom(1.0, 1.0)
    y = measure.marks[:, 0]
    return ModelSpec(
        dim=2,
        horizon=horizon,
        x0=np.zeros(2),
        drift=lambda x: -x,
        jump=np.array([y, factor * y]),
        drift_jac=lambda x: -np.eye(2),
        measure=measure,
    )


def pure_jump(
    dim: int = 1,
    horizon: float = 1.0,
    mark: float = 1.0,
    weight: float = 1.0,
) -> ModelSpec:
    """No drift; each event shifts every component by eps*mark."""
    measure = MarkMeasure.single_atom(mark, weight)
    return ModelSpec(
        dim=dim,
        horizon=horizon,
        x0=np.zeros(dim),
        drift=lambda x: np.zeros(x.shape),
        jump=np.tile(measure.marks.T, (dim, 1)),
        drift_jac=lambda x: np.zeros((dim, dim)),
        measure=measure,
    )


MODEL_BUILDERS = {
    "scalar_benchmark": scalar_benchmark,
    "linear_gaussian": linear_gaussian,
    "two_d_benchmark": two_d_benchmark,
    "rank_deficient_2d": rank_deficient_2d,
    "pure_jump": pure_jump,
}


def build_model(name: str, params: dict | None = None) -> ModelSpec:
    if name not in MODEL_BUILDERS:
        raise ModelError(
            f"unknown model {name!r}; available: {sorted(MODEL_BUILDERS)}"
        )
    builder = MODEL_BUILDERS[name]
    params = params or {}
    valid = inspect.signature(builder).parameters
    unknown = sorted(set(params) - set(valid))
    if unknown:
        raise ModelError(
            f"unknown parameters {unknown} for model {name!r}; valid parameters: {list(valid)}"
        )
    # a parameter is a number, or an integer where its builder annotates it int
    return builder(**{
        key: check_value(f"model_params {key}", value, int if valid[key].annotation == "int" else float)
        for key, value in params.items()
    })
