"""The names the benchmark harness in perfbench/ binds to still exist.

perfbench/ wraps package functions by name (tracer.TARGETS), subclasses
experiments.ProcessPoolExecutor to count pools, binds call arguments by
parameter name, and calls the CLI and the analysis chain through module
attributes.  A refactor that renames any of these crashes a traced benchmark
run; these checks catch it first.  perfbench/ is only parsed, never imported
or written.
"""

import ast
import dataclasses
import importlib
import inspect
import os

import numpy as np
import pytest

from jumpmdp import experiments
from jumpmdp.mdp_limit import FluctuationParts
from jumpmdp.rate import RateSolution

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
MODULES = ("cli", "experiments", "jump_sde", "mdp_limit", "models", "prm", "rate", "spde_pollutant")


def parsed(name):
    with open(os.path.join(BENCH_DIR, name)) as fh:
        return ast.parse(fh.read())


def module(name):
    return importlib.import_module(f"jumpmdp.{name}")


def params(fn):
    return list(inspect.signature(fn).parameters)


def test_tracer_targets_resolve():
    tree = parsed("tracer.py")
    targets = next(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    names = [ast.literal_eval(key) for key in targets.keys]
    assert len(names) >= 20
    for name in names:
        module_name, func_name = name.split(".")
        assert callable(getattr(module(module_name), func_name, None)), name


def test_module_attributes_used_by_the_harness_exist():
    used = set()
    for file_name in sorted(os.listdir(BENCH_DIR)):
        if not file_name.endswith(".py"):
            continue
        for node in ast.walk(parsed(file_name)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                used.add((file_name, node.value.id, node.attr))
    assert ("workloads.py", "mdp_limit", "decompose_controlled_path") in used
    for file_name, module_name, attr in sorted(used):
        assert hasattr(module(module_name), attr), f"{file_name}: {module_name}.{attr}"


def test_pool_class_is_a_subclassable_module_attribute():
    pool = experiments.ProcessPoolExecutor
    assert inspect.isclass(pool)
    assert "max_workers" in params(pool.__init__)
    assert "initializer" in params(pool.__init__)


def test_one_row_samplers_return_a_counted_batch():
    # tracer._realization_counts reads the sampled batch's n_events
    from jumpmdp import mark_space, prm

    measure = mark_space.MarkMeasure.single_atom(1.0, 1.0)
    ctrl = prm.ControlField(np.zeros((1, 4)), 1.0, 0.5)
    for events in (prm.sample_poisson_measure(measure, 20.0, 1.0, 3),
                   prm.sample_controlled_measure(measure, 20.0, ctrl, 3)):
        assert isinstance(events, prm.EventBatch) and events.n_rows == 1
        assert type(events.n_events) is int and events.n_events > 0


def test_bound_parameter_names():
    from jumpmdp import cli, jump_sde, mdp_limit, rate

    assert params(jump_sde.simulate_jump_path)[:4] == ["model", "epsilon", "events", "n_cells"]
    assert params(mdp_limit.build_linearization)[:2] == ["model", "fluid_path"]
    assert params(mdp_limit.decompose_controlled_path)[:4] == ["model", "epsilon", "ctrl", "seed"]
    assert callable(FluctuationParts.reconstruction_gap)
    assert params(rate.rate_to_point)[:2] == ["sys", "z"]
    assert {"value", "path", "psi"} <= {f.name for f in dataclasses.fields(RateSolution)}
    assert params(cli.main) == ["argv"]
    cfg_type = experiments.ExperimentConfig
    for method in ("from_dict", "from_json_file", "config_hash"):
        assert callable(getattr(cfg_type, method))
    assert {"seed", "out_dir", "workers"} <= {f.name for f in dataclasses.fields(cfg_type)}


def test_galerkin_config_is_accepted():
    # a key rejected here would otherwise first fail in the galerkin benchmark
    from jumpmdp import spde_pollutant

    config = next(
        ast.literal_eval(node.value) for node in ast.walk(parsed("workloads.py"))
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "POLLUTANT_2D"
    )
    params = spde_pollutant.params_from_dict(config)
    model = spde_pollutant.assemble_model(params)
    assert model.dim == (params.max_mode + 1) ** params.d_space


def _call_sites(outermost=False, kind=ast.Call):
    """(file name, enclosing function, callee name, call node) of every call in src/jumpmdp,
    or with kind=ast.Attribute (attribute name, node) of every attribute access.

    The enclosing function is the innermost one, or with outermost=True the
    top-level function or method that holds the call."""
    src_dir = os.path.dirname(experiments.__file__)
    sites = []

    def visit(node, file_name, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (outermost and func):
            func = node.name
        if isinstance(node, kind):
            target = node.func if kind is ast.Call else node
            sites.append((file_name, func, getattr(target, "id", getattr(target, "attr", None)), node))
        for child in ast.iter_child_nodes(node):
            visit(child, file_name, func)

    for file_name in sorted(os.listdir(src_dir)):
        if file_name.endswith(".py"):
            with open(os.path.join(src_dir, file_name)) as fh:
                visit(ast.parse(fh.read()), file_name, None)
    return sites


def test_only_write_csv_opens_files_for_writing():
    # one writer holds the CSV byte rule; any other writing open() bypasses it
    offenders = []
    for file_name, func, name, node in _call_sites():
        if name != "open" or func == "write_csv":
            continue
        modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
        # a mode that is not a literal may write
        if any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+") for mode in modes):
            offenders.append(f"{file_name}:{node.lineno} in {func}")
    assert not offenders, offenders


def test_one_rk4_kernel_and_one_stein_fold():
    # path integration owns the RK4 step; W and Sigma_T share one fold of _flow_sum
    sites = _call_sites()
    rk4 = [f"{f}:{node.lineno}" for f, _, name, node in sites if name == "rk4_step" and f != "jump_sde.py"]
    flow = [f"{f}:{node.lineno} in {func}" for f, func, name, node in sites if name == "_flow_sum" and func != "_stein_fold"]
    assert not rk4 and not flow, (rk4, flow)
    assert {func for _, func, name, _ in sites if name == "_stein_fold"} == {"gramian", "gaussian_covariance"}
    # one exact cell builder makes the propagators (and through them W) and Sigma_T's cell map
    builders = {(f, func) for f, func, name, _ in _call_sites(outermost=True) if name == "_exact_cell"}
    assert builders == {("mdp_limit.py", "propagators"), ("mdp_limit.py", "gaussian_covariance")}, builders
    assert not hasattr(module("mdp_limit"), "_exact_step")
    # and no RK4 polynomial is multiplied out beside rk4_step: no operand 6 or 24 (Z^2/6, Z^3/24)
    src_dir = os.path.dirname(experiments.__file__)
    weights = []
    for file_name in ("mdp_limit.py", "rate.py"):
        with open(os.path.join(src_dir, file_name)) as fh:
            weights += [
                f"{file_name}:{node.lineno}" for node in ast.walk(ast.parse(fh.read()))
                if isinstance(node, ast.BinOp) and any(
                    isinstance(side, ast.Constant) and side.value in (6, 24) for side in (node.left, node.right)
                )
            ]
    assert not weights, weights


def test_one_analysis_grid():
    # the drivers start the rates, z* and Sigma_T from their simulation grid
    # through one function, so each builds one fluid path and one linearization
    sites = _call_sites(outermost=True)
    drivers = (("experiments.py", "run_mdp_slope"), ("experiments.py", "run_clt_check"), ("cli.py", "cmd_rate"))
    for driver in drivers:
        calls = [name for f, func, name, _ in sites if (f, func) == driver]
        assert calls.count("fluid_limit") == calls.count("build_linearization") == calls.count("sphere_rate") == 1, driver
    callers = lambda callee: {(f, func) for f, func, name, _ in sites if name == callee}
    assert callers("sphere_rate") == set(drivers)
    assert callers("sphere_minimum") == callers("gaussian_covariance") == {("rate.py", "sphere_rate")}
    # n_cells is the one grid of every command: no second one is named in src/ or the README
    src_dir = os.path.dirname(experiments.__file__)
    paths = [os.path.join(src_dir, name) for name in os.listdir(src_dir) if name.endswith(".py")]
    for path in [*paths, os.path.join(os.path.dirname(os.path.dirname(src_dir)), "README.md")]:
        with open(path) as fh:
            assert "n_cells_analysis" not in fh.read(), path


def test_every_config_field_is_read():
    # a field that no function reads beyond its own validation is a key accepted and ignored
    reads = {name for _, func, name, node in _call_sites(kind=ast.Attribute)
             if func not in (None, "__post_init__") and isinstance(node.ctx, ast.Load)}
    unread = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)} - reads
    assert not unread, unread


def test_overflow_is_named_where_it_is_computed():
    # each loop or fold that may overflow silences numpy and names its own
    # non-finite result; the drivers neither silence nor re-check
    sites = _call_sites()
    silencers = {func for _, func, name, _ in sites if name == "errstate"}
    assert silencers == {"_integrate", "fluid_limit", "_stein_fold", "_exact_cell", "rate_to_point"}, silencers
    drivers = [f"{f}:{node.lineno}" for f, _, name, node in sites
               if f in ("experiments.py", "cli.py") and name in ("errstate", "check_finite")]
    assert not drivers, drivers


def test_one_exponential_step_and_one_phi_builder():
    # both steppers run inside jump_sde only; the ETDRK4 coefficients come
    # from one builder, called once per fluid_limit and once per _integrate
    sites = _call_sites()
    steps = [f"{f}:{node.lineno}" for f, _, name, node in sites
             if name in ("rk4_step", "etdrk4_step") and f != "jump_sde.py"]
    assert not steps, steps
    callers = lambda callee: {(f, func) for f, func, name, _ in sites if name == callee}
    assert callers("phi_coefficients") == {("jump_sde.py", "fluid_limit"), ("jump_sde.py", "_etd_advance")}
    assert callers("_etd_advance") == {("jump_sde.py", "_integrate")}
    # no other integrator function evaluates an exponential or reads the Taylor table
    integrators = ("jump_sde.py", "exponential.py", "mdp_limit.py")
    writers = {(f, func) for f, func, name, _ in sites if f in integrators and name in ("exp", "expm1")}
    with open(os.path.join(os.path.dirname(experiments.__file__), "exponential.py")) as fh:
        for node in ast.walk(ast.parse(fh.read())):
            if isinstance(node, ast.FunctionDef) and "_PHI_SERIES" in {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            }:
                writers.add(("exponential.py", node.name))
    assert writers == {("exponential.py", "phi_coefficients")}, writers


def test_one_constant_jump_builder():
    # a model keeps its coefficients as declared, and ModelSpec's methods read
    # a constant G: nothing in src/ hangs data on a function object, the
    # closure that once spread G is gone, and the catalog and pollutant
    # coefficients evaluate a single state by the rule of a batch, with no
    # ndim branch
    src_dir = os.path.dirname(experiments.__file__)
    tagged, branches = [], []
    for file_name in sorted(os.listdir(src_dir)):
        if not file_name.endswith(".py"):
            continue
        with open(os.path.join(src_dir, file_name)) as fh:
            text = fh.read()
        assert "_constant_jump" not in text, file_name
        tree = ast.parse(text)
        functions = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            tagged += [f"{file_name}:{node.lineno}" for t in targets if isinstance(t, ast.Attribute)
                       and isinstance(t.value, ast.Name) and t.value.id in functions]
            # x.ndim == 1 or np.ndim(p) == 1
            if file_name in ("models.py", "spde_pollutant.py") and isinstance(node, ast.Compare) and any(
                getattr(getattr(side, "func", side), "attr", None) == "ndim" for side in [node.left, *node.comparators]
            ):
                branches.append(f"{file_name}:{node.lineno}")
    assert not tagged, tagged
    assert not branches, branches
    sites = _call_sites()
    lambdas = [f"{f}:{node.lineno}" for f, _, _, node in sites if f in ("models.py", "spde_pollutant.py")
               for kw in node.keywords if kw.arg == "jump_jac" and isinstance(kw.value, ast.Lambda)]
    assert not lambdas, lambdas


def test_exports_resolve():
    # a deletion that misses an __all__ entry or a package import fails here
    import jumpmdp

    with open(jumpmdp.__file__) as fh:
        imports = [
            node for node in ast.walk(ast.parse(fh.read()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
        ]
    assert imports
    for name in sorted(set(MODULES) | {node.module for node in imports}):
        for export in getattr(module(name), "__all__", ()):
            assert hasattr(module(name), export), f"{name}.__all__: {export}"
    for node in imports:
        exported = getattr(module(node.module), "__all__", ())
        for alias in node.names:
            assert alias.name in exported, f"{node.module}: {alias.name} not in __all__"


def test_one_config_value_checker():
    # jump_sde.check_value holds the type rule of every config value: no other
    # function in src/ words a "must be an integer" or "must be a number" error
    from jumpmdp import cli, jump_sde

    src_dir = os.path.dirname(experiments.__file__)
    holders = set()

    def visit(node, file_name, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and (
            "an integer" in node.value or "a number" in node.value
        ):
            holders.add((file_name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, file_name, func)

    for file_name in sorted(os.listdir(src_dir)):
        if file_name.endswith(".py"):
            with open(os.path.join(src_dir, file_name)) as fh:
                visit(ast.parse(fh.read()), file_name, None)
    assert holders == {("jump_sde.py", "check_value")}, holders
    with pytest.raises(jump_sde.ModelError, match=r"^n must be an integer, got 2\.5$"):
        jump_sde.check_value("n", 2.5, int)
    with pytest.raises(jump_sde.ModelError, match=r"^n must be a number, got True$"):
        jump_sde.check_value("n", True)
    # the readers it replaced are gone
    assert not hasattr(experiments, "_check_integer") and not hasattr(cli, "_study_settings")
    assert "tilt_grid" not in params(experiments.verify_var_rep)
    assert "quad_points" not in {f.name for f in dataclasses.fields(module("spde_pollutant").PollutantParams)}
