import tracemalloc

import hypothesis
import pytest

from jumpmdp.jump_sde import fluid_limit
from jumpmdp.spde_pollutant import assemble_model, build_eigensystem, params_from_dict

hypothesis.settings.register_profile(
    "dev", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("dev")


@pytest.fixture(scope="session")
def pollutant_36():
    """The 36-mode 2-D pollutant model and its fluid path on 2000 cells.

    One (n_cells, d, d) array of it is 20.7 MB.
    """
    model = assemble_model(params_from_dict({
        "d_space": 2, "velocity": [2.0, 0.0], "decay": 0.5, "radius": 0.05, "max_mode": 5,
        "atoms": [[0.3, 0.4, 1.0, 0.6], [0.7, 0.6, 2.0, 0.4]],
    }))
    assert model.dim == 36
    fluid, _ = fluid_limit(model, 2000)
    return model, fluid


@pytest.fixture(scope="session")
def tanh_pollutant():
    """A 4-mode 1-D pollutant model with a state-dependent (tanh) jump kernel, so its
    linearization varies along the fluid path and its coupling term is not zero."""
    params = params_from_dict({
        "d_space": 1, "velocity": [2.0], "max_mode": 3,
        "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]],
        "jump_kernel": {"kind": "tanh", "intercept": 1.0, "amplitude": 0.5, "slope": [0.7]},
        "probes": [[[[0], 1.0], [[1], 0.5]]],
    })
    return assemble_model(params, build_eigensystem(params))


@pytest.fixture
def traced_peak():
    """Call fn() under tracemalloc; return its result and the traced peak in bytes."""
    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
