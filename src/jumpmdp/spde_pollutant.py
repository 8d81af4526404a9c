"""Galerkin reduction of the pollutant-injection SPDE on a box.

The advection-diffusion-decay operator D*Lap - V.grad with Neumann boundary
conditions on [0, side]^d is diagonalized in the weighted space
L2(rho0 dx), rho0(x) = exp(-2 sum_i c_i x_i) with c_i = V_i / (2D).  Retained
tensor modes (every component of the multi-index at most max_mode) turn the
SPDE into a finite-dimensional jump SDE for the mode coefficients: linear
diagonal relaxation, optional nonlinear reaction terms driven by scalar
kernels of probe functionals, and Poisson injections spread uniformly over
small balls.

Per axis the eigenpairs are

    lam_0 = 0,                 phi_0 = sqrt(2c / (1 - exp(-2 c side)))
    lam_j = D (c^2 + (j pi / side)^2),
    phi_j = sqrt(2 / side) * exp(c x) * sin(j pi x / side + alpha_j),
    alpha_j = atan(-j pi / (side * c)),

with the drift-free limit c -> 0 taken analytically: phi_0 = sqrt(1/side)
and phi_j = sqrt(2/side) * cos(j pi x / side) (the sine phase tends to
-pi/2; the sign flip is immaterial).  Each phi_j * rho0 is then a sum of at
most two exponentials e^{z x}, so the injection-ball averages of the modes
reduce to one-dimensional integrals (see ball_average_coefficients).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .jump_sde import (
    ModelSpec, check_keys, check_value, deviation_scale, fluid_limit, simulate_jump_paths, write_csv,
)
from .mark_space import MarkMeasure
from .prm import sample_poisson_batch, substream

__all__ = [
    "PollutantError",
    "KernelSpec",
    "constant_kernel",
    "kernel_from_dict",
    "PollutantParams",
    "params_from_dict",
    "EigenSystem",
    "build_eigensystem",
    "orthonormality_defect",
    "ball_average_coefficients",
    "assemble_model",
    "export_field_snapshot",
    "hs_partial_sums",
    "ConvergenceReport",
    "galerkin_convergence_study",
]


class PollutantError(ValueError):
    """Invalid pollutant model data."""


@dataclass(frozen=True)
class KernelSpec:
    """Scalar reaction kernel on probe values, with its gradient.

    fn maps probe values of shape (..., n_probes) to kernel values of shape
    (...), by one rule for one probe vector and for a batch; grad takes one
    probe vector.  value, when set, is the constant of a kernel that does
    not depend on the probes.
    """

    fn: Callable
    grad: Callable
    value: float | None = None


def constant_kernel(value: float = 1.0) -> KernelSpec:
    return KernelSpec(
        fn=lambda p: np.full(np.shape(p)[:-1], value),
        grad=lambda p: np.zeros(np.asarray(p).size),
        value=value,
    )


def _project(p, slope: np.ndarray):
    """slope . p over the last axis, summed row by row for a batch."""
    return (np.asarray(p, dtype=float) * slope).sum(axis=-1)


def _affine_kernel(intercept: float, slope: np.ndarray) -> KernelSpec:
    slope = np.asarray(slope, dtype=float)
    return KernelSpec(
        fn=lambda p: intercept + _project(p, slope),
        grad=lambda p: slope.copy(),
    )


def _tanh_kernel(intercept: float, amplitude: float, slope: np.ndarray) -> KernelSpec:
    slope = np.asarray(slope, dtype=float)

    def fn(p):
        return intercept + amplitude * np.tanh(_project(p, slope))

    def grad(p):
        t = math.tanh(float(slope @ np.asarray(p, dtype=float)))
        return amplitude * (1.0 - t * t) * slope

    return KernelSpec(fn=fn, grad=grad)


# keys of each kernel kind in a config file
KERNEL_KEYS = {
    "constant": ("kind", "value"),
    "affine": ("kind", "intercept", "slope"),
    "tanh": ("kind", "intercept", "amplitude", "slope"),
}


def kernel_from_dict(spec: Mapping) -> KernelSpec:
    """Expression-free kernel catalog for config files.

    An unknown key for the kernel's kind raises ModelError listing the valid
    ones; its values are read by check_value.
    """
    kind = check_value("kernel kind", spec.get("kind", "constant"), str)
    if kind not in KERNEL_KEYS:
        raise PollutantError(f"unknown kernel kind {kind!r}")
    check_keys(f"{kind} kernel", spec, KERNEL_KEYS[kind])
    value, intercept, amplitude = (
        check_value(f"{kind} kernel {key}", spec.get(key, default))
        for key, default in (("value", 1.0), ("intercept", 0.0), ("amplitude", 1.0))
    )
    slope = check_value(f"{kind} kernel slope", spec.get("slope", ()), [float])
    if kind == "constant":
        return constant_kernel(value)
    if kind == "affine":
        return _affine_kernel(intercept, slope)
    return _tanh_kernel(intercept, amplitude, slope)


def _mapping_from_pairs(block: str, pairs) -> dict:
    try:  # check_value's ModelError is a ValueError too
        return {tuple(check_value(block, j, int, least=0) for j in mode): check_value(block, c) for mode, c in pairs}
    except (TypeError, ValueError) as exc:
        raise PollutantError(
            f"{block} must be a list of [[mode...], coefficient] pairs, got {pairs!r}"
        ) from exc


# keys of the pollutant config block: the model parameters read below, then
# the convergence-study settings the pollutant command reads.  ball_points is
# accepted and ignored: the ball averages are exact to round-off on a rule
# sized per mode, with nothing to resolve.
CONFIG_KEYS = (
    "d_space", "side", "diffusivity", "velocity", "decay", "radius", "max_mode",
    "atoms", "horizon", "jump_kernel", "drift_kernels", "probes", "outputs", "x0",
    "hs_exponent", "ball_points",
    "epsilon", "seeds", "hs_levels",
)


def params_from_dict(spec: Mapping) -> "PollutantParams":
    """Build parameters from the JSON-friendly config block.

    Every value is read by jump_sde.check_value (PollutantParams checks the
    ranges), and an unknown key, here or in a kernel, raises ModelError
    listing the valid ones.  A kernel that is not a mapping, a malformed
    probes/outputs/x0 pair list, or a kernel slope without exactly one
    component per probe raises PollutantError naming the block.
    """
    check_keys("pollutant", spec, CONFIG_KEYS)
    atoms = check_value("atoms", spec.get("atoms"), [[float]])
    if not atoms or len({len(row) for row in atoms}) > 1 or len(atoms[0]) < 3:
        raise PollutantError("atoms must be rows of (site components, magnitude, weight)")
    atoms = np.array(atoms)
    measure = MarkMeasure(atoms[:, :-1], atoms[:, -1])
    probes, outputs, drifts = (check_value(k, spec.get(k, ()), list) for k in ("probes", "outputs", "drift_kernels"))
    d_space = check_value("d_space", spec.get("d_space"), int)

    def kernel(block, k):
        if not isinstance(k, Mapping):
            raise PollutantError(f"{block} must be a kernel mapping with a 'kind', got {k!r}")
        if k.get("kind") in ("affine", "tanh") and np.shape(k.get("slope", ())) != (len(probes),):
            raise PollutantError(
                f"{block}: slope must have one component per probe ({len(probes)}), "
                f"got {k.get('slope', ())!r}"
            )
        return kernel_from_dict(k)

    defaults = {"side": 1.0, "diffusivity": 1.0, "decay": 0.0, "radius": 0.05, "horizon": 1.0, "hs_exponent": 2.0}
    return PollutantParams(
        **{key: check_value(key, spec.get(key, default)) for key, default in defaults.items()},
        d_space=d_space,
        velocity=tuple(check_value("velocity", spec.get("velocity", [0.0] * d_space), [float])),
        max_mode=check_value("max_mode", spec.get("max_mode", 5), int),
        measure=measure,
        jump_kernel=kernel("jump_kernel", spec.get("jump_kernel", {"kind": "constant"})),
        drift_kernels=tuple(kernel(f"drift_kernels[{i}]", k) for i, k in enumerate(drifts)),
        probes=tuple(_mapping_from_pairs(f"probes[{i}]", p) for i, p in enumerate(probes)),
        outputs=tuple(_mapping_from_pairs(f"outputs[{i}]", z) for i, z in enumerate(outputs)),
        x0_coeffs=_mapping_from_pairs("x0", spec.get("x0", ())),
    )


@dataclass(frozen=True)
class PollutantParams:
    """Physical and truncation parameters of the pollutant model.

    The mark measure lives on box x magnitudes: each atom is
    (x_1..x_dspace, a) with a >= 0, and the injection ball of radius
    ``radius`` around every atom site must lie inside the box.  Probe and
    output functions are given as mode-coefficient mappings
    {multi-index: coefficient}, which keeps them meaningful across
    truncation levels: a mode above max_mode is dropped, and a multi-index
    without one component per space dimension raises PollutantError.
    """

    d_space: int
    side: float
    diffusivity: float
    velocity: tuple
    decay: float
    radius: float
    max_mode: int
    measure: MarkMeasure
    horizon: float = 1.0
    jump_kernel: KernelSpec = field(default_factory=constant_kernel)
    drift_kernels: tuple = ()
    probes: tuple = ()
    outputs: tuple = ()
    x0_coeffs: Mapping = field(default_factory=dict)
    hs_exponent: float = 2.0

    def __post_init__(self) -> None:
        check_value("d_space", self.d_space, int, least=1)
        for name in ("side", "diffusivity", "radius", "horizon"):
            check_value(name, getattr(self, name), positive=True)
        check_value("decay", self.decay, least=0)
        check_value("max_mode", self.max_mode, int, least=0)
        if len(self.velocity) != self.d_space:
            raise PollutantError("velocity must have one component per space dimension")
        if len(self.outputs) != len(self.drift_kernels):
            raise PollutantError("need one output function per drift kernel")
        named = [("x0", self.x0_coeffs)]
        named += [(f"probes[{i}]", p) for i, p in enumerate(self.probes)]
        named += [(f"outputs[{i}]", z) for i, z in enumerate(self.outputs)]
        for block, mapping in named:
            for mode in mapping:
                if len(mode) != self.d_space:
                    raise PollutantError(
                        f"{block}: mode {list(mode)} has {len(mode)} components, "
                        f"expected one per space dimension ({self.d_space})"
                    )
        if self.measure.mark_dim != self.d_space + 1:
            raise PollutantError(
                "marks must be (site components, magnitude); "
                f"expected dim {self.d_space + 1}, got {self.measure.mark_dim}"
            )
        for k in range(self.measure.n_atoms):
            mark = np.atleast_1d(self.measure.marks[k])
            x, a = mark[:-1], mark[-1]
            if a < 0:
                raise PollutantError(f"atom {k}: magnitude must be >= 0, got {a}")
            if np.any(x - self.radius < 0) or np.any(x + self.radius > self.side):
                raise PollutantError(
                    f"atom {k}: injection ball of radius {self.radius} around site "
                    f"{x} must lie inside the box [0, {self.side}]^{self.d_space}"
                )

    @property
    def drift_coefficients(self) -> np.ndarray:
        return np.asarray(self.velocity, dtype=float) / (2.0 * self.diffusivity)


class _Axis:
    """One-dimensional eigenpairs for a single space axis."""

    def __init__(self, c: float, side: float, diffusivity: float):
        self.c = c
        self.side = side
        self.diffusivity = diffusivity

    def eigenvalue(self, j: int) -> float:
        if j == 0:
            return 0.0
        return self.diffusivity * (self.c**2 + (j * math.pi / self.side) ** 2)

    def values(self, j: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        l, c = self.side, self.c
        if j == 0:
            if c == 0.0:
                amp = math.sqrt(1.0 / l)
            elif c > 0.0:
                amp = math.sqrt(2.0 * c / (1.0 - math.exp(-2.0 * c * l)))
            else:
                # the same amplitude with a negative exp argument: it underflows
                # toward 0 for a strong upstream drift instead of overflowing
                amp = math.sqrt(2.0 * c / math.expm1(2.0 * c * l)) * math.exp(c * l)
            return np.full_like(x, amp)
        if c == 0.0:
            return math.sqrt(2.0 / l) * np.cos(j * math.pi * x / l)
        alpha = math.atan(-j * math.pi / (l * c))
        return math.sqrt(2.0 / l) * np.exp(c * x) * np.sin(j * math.pi * x / l + alpha)

    def terms(self, j: int) -> list:
        """phi_j(x) * exp(-2 c x) as (coef, z) pairs: it is sum coef * e^{z x}."""
        l, c = self.side, self.c
        if j == 0:
            return [(float(self.values(0, 0.0)), -2.0 * c)]
        k = j * math.pi / l
        if c == 0.0:
            # sqrt(2/l) cos(k x)
            half = 0.5 * math.sqrt(2.0 / l)
            return [(half, 1j * k), (half, -1j * k)]
        # sqrt(2/l) e^{-c x} sin(k x + alpha), the two terms complex conjugates
        alpha = math.atan(-j * math.pi / (l * c))
        coef = math.sqrt(2.0 / l) * cmath.exp(1j * alpha) / 2j
        return [(coef, complex(-c, k)), (coef.conjugate(), complex(-c, -k))]


@dataclass(frozen=True)
class EigenSystem:
    """Retained tensor eigenpairs of the transport operator."""

    axes: tuple
    modes: tuple               # multi-indices, lexicographic
    eigenvalues: np.ndarray    # (n_modes,)
    drift_coefficients: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def weight_density(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.exp(-2.0 * points @ self.drift_coefficients)

    def eval_modes(self, points: np.ndarray) -> np.ndarray:
        """Eigenfunction values, shape (n_modes, n_points)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        max_j = max(max(m) for m in self.modes)
        tables = [
            np.array([ax.values(j, points[:, i]) for j in range(max_j + 1)])
            for i, ax in enumerate(self.axes)
        ]
        index = np.asarray(self.modes)
        out = tables[0][index[:, 0]]
        for i in range(1, len(tables)):
            out *= tables[i][index[:, i]]
        return out

    def box_quadrature(self, n_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Tensor Gauss-Legendre nodes and weights on the box."""
        side = self.axes[0].side
        x, w = np.polynomial.legendre.leggauss(n_per_axis)
        x = 0.5 * side * (x + 1.0)
        w = 0.5 * side * w
        d = len(self.axes)
        grids = np.meshgrid(*([x] * d), indexing="ij")
        points = np.column_stack([g.ravel() for g in grids])
        wgrids = np.meshgrid(*([w] * d), indexing="ij")
        weights = np.ones(points.shape[0])
        for g in wgrids:
            weights = weights * g.ravel()
        return points, weights


def build_eigensystem(params: PollutantParams) -> EigenSystem:
    """Tensor eigenpairs for all multi-indices with components <= max_mode."""
    cs = params.drift_coefficients
    axes = tuple(_Axis(float(c), params.side, params.diffusivity) for c in cs)
    modes = tuple(
        itertools.product(range(params.max_mode + 1), repeat=params.d_space)
    )
    lams = np.array(
        [math.fsum(axes[i].eigenvalue(j) for i, j in enumerate(m)) for m in modes]
    )
    return EigenSystem(
        axes=axes, modes=modes, eigenvalues=lams, drift_coefficients=np.asarray(cs)
    )


def orthonormality_defect(sys: EigenSystem, n_per_axis: int = 64) -> float:
    """Max absolute deviation of the weighted Gram matrix from the identity."""
    points, weights = sys.box_quadrature(n_per_axis)
    vals = sys.eval_modes(points)
    wq = weights * sys.weight_density(points)
    gram = (vals * wq) @ vals.T
    return float(np.max(np.abs(gram - np.eye(sys.n_modes))))


def _coeff_vector(sys: EigenSystem, mapping: Mapping) -> np.ndarray:
    out = np.zeros(sys.n_modes)
    for mode, coeff in mapping.items():
        key = tuple(mode)
        if key in sys.modes:
            out[sys.modes.index(key)] = float(coeff)
    return out


@functools.lru_cache(maxsize=None)
def _polar_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(theta) at n Gauss-Legendre nodes on [0, pi], with weights
    proportional to sin^d(theta) that sum to one: the law of the first
    coordinate of a uniform point in the unit ball of R^d."""
    x, w = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * math.pi * (x + 1.0)
    w = w * np.sin(theta) ** d
    cos, w = np.cos(theta), w / w.sum()
    cos.flags.writeable = w.flags.writeable = False  # cached: shared by every call
    return cos, w


def _ball_mean(d: int, alpha: complex) -> complex:
    """Mean of e^{alpha u_1} over the unit ball of R^d, which is
    0F1(; d/2 + 1; alpha^2 / 4), on a rule with floor(|alpha|) + 30 nodes.

    The sum is scaled by e^{-|Re alpha|}, so only the scale e^{|Re alpha|} can
    overflow; it is taken first and raises OverflowError instead of warning.
    """
    shift = abs(alpha.real)
    scale = math.exp(shift)
    cos, w = _polar_rule(d, math.floor(abs(alpha)) + 30)
    return scale * complex((w * np.exp(alpha * cos - shift)).sum())


@functools.lru_cache(maxsize=None)
def _ball_average(terms: tuple, site: tuple, radius: float, d: int) -> float:
    """One mode's weighted ball average from its per-axis _Axis.terms tuples,
    NaN when it overflows.  Cached: the truncation levels of a process share
    their low modes, and a mode's value does not depend on the level."""
    total = 0j
    try:
        for combo in itertools.product(*terms):
            coef = math.prod(c for c, _ in combo)
            zs = sum(z * x for (_, z), x in zip(combo, site))
            alpha = radius * cmath.sqrt(sum(z * z for _, z in combo))
            total += coef * cmath.exp(zs) * _ball_mean(d, alpha)
    except OverflowError:  # cmath.exp or math.exp beyond the float range
        return math.nan
    return total.real


def ball_average_coefficients(sys: EigenSystem, site: np.ndarray, radius: float) -> np.ndarray:
    """Weighted ball averages |B|^{-1} * int_{|z-site|<=radius} phi_j rho0 dz.

    phi_j * rho0 is a sum of exponentials coef * e^{z.x} with complex z (the
    product over the axes of _Axis.terms), and the mean of e^{z.x} over the
    ball B(site, r) in R^d is e^{z.site} times
    int_0^pi e^{alpha cos t} sin^d t dt / int_0^pi sin^d t dt,
    alpha = r sqrt(z.z), the 1-D marginal of the uniform ball (_ball_mean).
    Each mode is evaluated on its own, on a Gauss rule sized by its own alpha,
    so a mode's coefficient does not depend on which other modes are
    retained, and is computed once per process.  A non-finite value raises
    PollutantError.
    """
    site = np.asarray(site, dtype=float).ravel()
    d = len(sys.axes)
    if site.shape != (d,):
        raise PollutantError(f"site must have {d} components")
    out = np.empty(sys.n_modes)
    key = tuple(site.tolist()), float(radius), d
    for n, mode in enumerate(sys.modes):
        out[n] = _ball_average(tuple(tuple(ax.terms(j)) for ax, j in zip(sys.axes, mode)), *key)
        if not math.isfinite(out[n]):
            raise PollutantError(f"ball average of mode {mode} around site {site} is not finite")
    return out


def assemble_model(params: PollutantParams, sys: EigenSystem | None = None) -> ModelSpec:
    """Finite-dimensional jump SDE for the retained mode coefficients.

    Drift: diagonal relaxation -(lambda_j + decay) v_j plus reaction terms
    sum_i K_i(probe values) * output_i.  The relaxation is declared as the
    model's linear part, so its stiffness, which grows like (J pi / side)^2,
    is integrated exactly (ETDRK4).  Jump for a mark (x, a): the vector
    a * K0(probe values) * ball_average(x), one column per atom of the mark
    measure.  Jacobians follow from the kernel gradients.  Ball averages are
    computed once per atom, exact to round-off.  A constant jump kernel makes
    G state-independent: the model declares its array, and ModelSpec reads
    the zero Jacobian and the compensator from it.  Without drift kernels
    drift_jac returns one read-only diag(linear).
    """
    sys = build_eigensystem(params) if sys is None else sys
    n_modes = sys.n_modes
    linear = -(sys.eigenvalues + params.decay)
    probes = np.array([_coeff_vector(sys, p) for p in params.probes]).reshape(
        len(params.probes), n_modes
    )
    outputs = np.array([_coeff_vector(sys, z) for z in params.outputs]).reshape(
        len(params.outputs), n_modes
    )
    kernels = params.drift_kernels
    k0 = params.jump_kernel
    x0 = _coeff_vector(sys, params.x0_coeffs)

    marks = params.measure.marks
    mags = marks[:, -1]
    # (n_modes, n_atoms): column k is the ball average around atom k's site
    balls = np.column_stack([
        ball_average_coefficients(sys, mark[:-1], params.radius)
        for mark in marks
    ])

    def probe_values(v):
        # summed row by row, so a row's value does not depend on the batch
        return (v[..., None, :] * probes).sum(axis=-1)

    def drift(v):
        out = linear * v
        if kernels:
            p = probe_values(v)
            for ker, zvec in zip(kernels, outputs):
                out = out + np.multiply.outer(ker.fn(p), zvec)
        return out

    diag = np.diag(linear)
    diag.flags.writeable = False

    def drift_jac(v):
        jac = diag  # shared; each reaction term makes a new array
        if kernels:
            p = probe_values(v)
            for ker, zvec in zip(kernels, outputs):
                jac = jac + np.outer(zvec, np.asarray(ker.grad(p), dtype=float) @ probes)
        return jac

    if k0.value is None:
        def jump(v):
            return balls * (mags * k0.fn(probe_values(v))[..., None, None])

        def jump_jac(v):
            grad = np.asarray(k0.grad(probe_values(v)), dtype=float) @ probes
            return mags[:, None, None] * (balls.T[:, :, None] * grad)
    else:
        # the same expression and bits as the closure above at K0 = value
        jump, jump_jac = balls * (mags * float(k0.value)), None

    return ModelSpec(
        dim=n_modes,
        horizon=params.horizon,
        x0=x0,
        drift=drift,
        jump=jump,
        drift_jac=drift_jac,
        jump_jac=jump_jac,
        measure=params.measure,
        linear=linear,
    )


def export_field_snapshot(
    sys: EigenSystem, coeffs: np.ndarray, path, n_per_axis: int = 101
) -> None:
    """Reconstruct the field from mode coefficients on a regular box grid."""
    side = sys.axes[0].side
    d = len(sys.axes)
    axis = np.linspace(0.0, side, n_per_axis)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    points = np.column_stack([g.ravel() for g in grids])
    values = np.asarray(coeffs, dtype=float) @ sys.eval_modes(points)
    header = ",".join(f"x_{i + 1}" for i in range(d)) + ",u"
    write_csv(path, header, (row.tolist() for row in np.column_stack((points, values))))


def hs_partial_sums(params: PollutantParams, levels: Sequence[int]) -> dict[int, tuple[float, float]]:
    """Partial sums over modes with components <= level, per level.

    Returns {level: (sum (1+lam)^(-2r), sum lam^2 (1+lam)^(-2r))}; the second
    sum is the embedding summability witness the exponent r must satisfy.
    """
    r = params.hs_exponent
    top = max(levels)
    sys = build_eigensystem(replace(params, max_mode=top))
    out = {}
    for level in levels:
        sel = np.array([max(m) <= level for m in sys.modes])
        lam = sys.eigenvalues[sel]
        wgt = (1.0 + lam) ** (-2.0 * r)
        out[level] = (math.fsum(wgt), math.fsum(lam * lam * wgt))
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    """Truncation comparison at levels J and 2J on shared event streams."""

    level: int
    refined_level: int
    hs_exponent: float
    fluid_gap: float               # weighted-norm gap of the fluid paths
    fluctuation_gaps: np.ndarray   # per seed, weighted sup-norm gap of Y paths
    tail_weight: float             # sum over the new modes of (1+lam)^(-2r)

    def summary(self) -> str:
        mc = float(np.mean(self.fluctuation_gaps)) if self.fluctuation_gaps.size else 0.0
        return (
            f"levels {self.level}->{self.refined_level}: fluid gap {self.fluid_gap:.3e}, "
            f"mean fluctuation gap {mc:.3e}, tail weight {self.tail_weight:.3e} "
            f"(r={self.hs_exponent})"
        )


def galerkin_convergence_study(
    params: PollutantParams,
    epsilon: float,
    seeds: Sequence[int],
    rho: float = 0.25,
    n_cells: int = 64,
) -> ConvergenceReport:
    """Compare truncations J and 2J driven by identical event streams.

    Fluid paths and Monte Carlo fluctuation paths are computed at both
    levels; differences of mode coefficients (absent modes count as zero) are
    reported in the (1 + lambda)^(-2r) weighted norm, together with the
    weight carried by the newly added modes.  Trends are reported, not
    asserted: for purely linear models the coefficients decouple and the gap
    is exactly zero.

    Both levels share one grid of n_cells cells at any J: the relaxation
    rates grow like (J pi / side)^2, but the model declares them as its
    linear part, which the exponential integrator takes exactly, so the
    grid needs no sizing to the stiffest mode.
    """
    coarse = params
    fine = replace(params, max_mode=2 * params.max_mode)
    sys1 = build_eigensystem(coarse)
    sys2 = build_eigensystem(fine)
    model1 = assemble_model(coarse, sys1)
    model2 = assemble_model(fine, sys2)
    idx = np.array([sys2.modes.index(m) for m in sys1.modes])
    wgt2 = (1.0 + sys2.eigenvalues) ** (-2.0 * params.hs_exponent)
    new = np.ones(sys2.n_modes, dtype=bool)
    new[idx] = False
    tail = math.fsum(wgt2[new])

    def weighted_gap(v1: np.ndarray, v2: np.ndarray) -> float:
        diff = v2.copy()
        diff[:, idx] = diff[:, idx] - v1
        sq = (diff * diff) @ wgt2
        return float(np.sqrt(np.max(sq)))

    fluid1, _ = fluid_limit(model1, n_cells)
    fluid2, _ = fluid_limit(model2, n_cells)
    fluid_gap = weighted_gap(fluid1.values, fluid2.values)

    a_eps = deviation_scale(epsilon, rho)
    theta = 1.0 / epsilon
    events = sample_poisson_batch(
        params.measure, theta, params.horizon, [substream(seed, 77) for seed in seeds]
    )
    y1 = (simulate_jump_paths(model1, epsilon, events, n_cells) - fluid1.values) / a_eps
    y2 = (simulate_jump_paths(model2, epsilon, events, n_cells) - fluid2.values) / a_eps
    gaps = np.array([weighted_gap(v1, v2) for v1, v2 in zip(y1, y2)])
    return ConvergenceReport(
        level=params.max_mode,
        refined_level=fine.max_mode,
        hs_exponent=params.hs_exponent,
        fluid_gap=fluid_gap,
        fluctuation_gaps=gaps,
        tail_weight=tail,
    )
