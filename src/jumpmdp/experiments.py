"""Experiment drivers: Monte Carlo, importance sampling, and bound sweeps.

Everything here is deterministic given (config, seed): replication r of any
estimator draws from a stream keyed by (seed, slot, eps index, r), sums are
reduced in replication order with compensated summation, and CSV cells are
emitted with repr, so outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .jump_sde import (
    ModelError, PathGrid, check_keys, check_value, deviation_scale, fluid_limit, simulate_jump_paths, write_csv,
)
from .mdp_limit import build_linearization
from .models import build_model
from .prm import (
    ControlField,
    entropy_integrand,
    log_likelihood_ratios,
    sample_controlled_batch,
    sample_poisson_batch,
    substream,
    tilt_cost,
)
from .rate import rate_to_point, sphere_rate

__all__ = [
    "CheckFailure",
    "ExperimentConfig",
    "EstimateRow",
    "SlopeResult",
    "run_mdp_slope",
    "run_simulate",
    "CltResult",
    "run_clt_check",
    "EntropyBoundConstants",
    "entropy_bound_constants",
    "BoundSweepReport",
    "default_psi_catalog",
    "verify_entropy_tail_bounds",
    "VarRepResult",
    "verify_var_rep",
    "write_summary_csv",
]

# stream slots, one per estimator family
SLOT_PLAIN = 1
SLOT_IS = 2
SLOT_CLT = 3
SLOT_VARREP = 4
SLOT_SIM = 5


class CheckFailure(AssertionError):
    """A numerical check failed; carries enough context to reproduce it."""

    def __init__(self, message: str, config_hash: str = "", seed: int | None = None, row=None):
        detail = message
        if config_hash:
            detail += f" [config {config_hash}"
            if seed is not None:
                detail += f", seed {seed}"
            if row is not None:
                detail += f", first offending row: {row}"
            detail += "]"
        super().__init__(detail)
        self.config_hash = config_hash
        self.seed = seed
        self.row = row


# the check_value rule of each top-level config value
CONFIG_RULES = {
    "model": {"kind": str}, "out_dir": {"kind": str}, "dump_paths": {"kind": bool},
    "model_params": {"kind": dict}, "var_rep": {"kind": dict}, "lemma": {"kind": dict}, "pollutant": {"kind": dict},
    "eps_grid": {"kind": [float], "positive": True}, "rate_targets": {"kind": [[float]]},
    "rho": {"positive": True, "below": 0.5}, "beta": {"positive": True, "most": 1},
    "threshold": {"least": 0}, "clt_epsilon": {"positive": True},
    "seed": {"kind": int, "least": 0}, "clt_replications": {"kind": int, "least": 2},
    **dict.fromkeys(("n_cells", "n_cells_analysis", "workers"), {"kind": int, "least": 1}),
    **dict.fromkeys(("replications", "is_replications"), {"kind": int, "least": 100}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration for all CLI runs; loadable from a single JSON file."""

    model: str = "scalar_benchmark"
    model_params: dict = field(default_factory=dict)
    eps_grid: tuple = (0.2, 0.1, 0.05, 0.02, 0.01)
    rho: float = 0.25
    threshold: float = 1.0
    replications: int = 10_000
    is_replications: int = 2_000
    beta: float = 1.0
    seed: int = 0
    n_cells: int = 64
    n_cells_analysis: int = 2_000
    out_dir: str = "out"
    workers: int = 1
    dump_paths: bool = False
    clt_epsilon: float = 1e-3
    clt_replications: int = 2_000
    var_rep: dict = field(default_factory=dict)
    lemma: dict = field(default_factory=dict)
    rate_targets: tuple = ()
    pollutant: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = {f.name: check_value(f.name, getattr(self, f.name), **CONFIG_RULES[f.name]) for f in fields(self)}
        eps = tuple(values["eps_grid"])
        if not eps:
            raise ModelError("eps_grid must hold at least one epsilon")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ModelError(f"eps_grid must be strictly decreasing, got {self.eps_grid!r}")
        object.__setattr__(self, "eps_grid", eps)
        object.__setattr__(self, "rate_targets", tuple(map(tuple, self.rate_targets)))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        check_keys("config", check_value("config", data, dict), [f.name for f in fields(cls)])
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # JSON and Unicode decode errors are ValueErrors
            raise ModelError(f"cannot read config file {path!r}: {exc}") from None
        return cls.from_dict(data)

    def config_hash(self) -> str:
        """Hash of the experiment and its seed.

        out_dir and workers are left out: where a run writes and how many
        processes share it do not change its outputs.
        """
        data = asdict(self)
        del data["out_dir"], data["workers"]
        text = json.dumps(data, sort_keys=True, default=list)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def a_eps(self, epsilon: float) -> float:
        return deviation_scale(epsilon, self.rho)

    def b_eps(self, epsilon: float) -> float:
        return epsilon / self.a_eps(epsilon) ** 2


@dataclass(frozen=True)
class EstimateRow:
    """One deviation-probability estimate at one noise level."""

    epsilon: float
    a_eps: float
    b_eps: float
    p_hat: float
    se: float
    neg_b_log_p: float | None
    predicted_rate: float
    estimator: str

    def __post_init__(self) -> None:
        if self.estimator == "plain" and not 0.0 <= self.p_hat <= 1.0:
            raise ModelError(f"plain probability estimate {self.p_hat!r} outside [0, 1]")
        if self.p_hat < 0.0 or self.se < 0.0:
            raise ModelError("estimate and standard error must be nonnegative")

    @property
    def degenerate(self) -> bool:
        return self.neg_b_log_p is None

    def csv_cells(self) -> list:
        return [
            self.epsilon, self.a_eps, self.b_eps, self.p_hat, self.se, self.neg_b_log_p,
            self.predicted_rate, self.estimator, "degenerate" if self.degenerate else "",
        ]


SUMMARY_HEADER = "epsilon,a_eps,b_eps,p_hat,se,neg_b_log_p,predicted_rate,estimator,flag"


def write_summary_csv(rows, path) -> None:
    write_csv(path, SUMMARY_HEADER, (row.csv_cells() for row in rows))


# ---------------------------------------------------------------------------
# Monte Carlo engine: one per process, one engine or pool per run
# ---------------------------------------------------------------------------


def _hits(terminals: np.ndarray, fluid_end: np.ndarray, a: float, c: float) -> np.ndarray:
    """Which rows of X(T) hit the event |Y(T)| >= c, with Y(T) = (X(T) - fluid end) / a."""
    return np.linalg.norm((terminals - fluid_end) / a, axis=1) >= c


class _Engine:
    """Per-process state for Monte Carlo batches.

    Given importance = (psi*, fluid terminal on the simulation grid), with
    psi* finite, the engine also holds the two antipodal clipped tilts per
    eps that importance sampling needs.
    """

    def __init__(self, cfg: ExperimentConfig, importance: tuple[np.ndarray, np.ndarray] | None = None):
        self.cfg = cfg
        self.model = build_model(cfg.model, cfg.model_params)
        self.tilts: list[tuple[ControlField, ControlField]] = []
        if importance is not None:
            psi_star, self.fluid_end = importance
            for eps in cfg.eps_grid:
                a = cfg.a_eps(eps)
                # clipped, not zeroed, where |psi*| > beta / a: phi >= 1 - beta
                # still holds, and those cells keep pushing toward the event.
                clipped = np.clip(psi_star, -cfg.beta / a, cfg.beta / a)
                self.tilts.append((
                    ControlField(clipped, self.model.horizon, a),
                    ControlField(-clipped, self.model.horizon, a),
                ))

    def paths_batch(self, slot: int, eps_idx: int, epsilon: float, lo: int, hi: int) -> np.ndarray:
        """Grid paths (B, n_cells + 1, d) of replications lo..hi-1 on streams (seed, slot, eps_idx, r)."""
        rngs = [substream(self.cfg.seed, slot, eps_idx, r) for r in range(lo, hi)]
        events = sample_poisson_batch(self.model.measure, 1.0 / epsilon, self.model.horizon, rngs)
        return simulate_jump_paths(self.model, epsilon, events, self.cfg.n_cells)

    def terminal_batch(self, slot: int, eps_idx: int, epsilon: float, lo: int, hi: int) -> np.ndarray:
        """X(T) of paths_batch."""
        return self.paths_batch(slot, eps_idx, epsilon, lo, hi)[:, -1]

    def is_batch(self, eps_idx: int, lo: int, hi: int) -> np.ndarray:
        """Importance-sampling weights 1{|Y(T)|>=c} dP/dQ for the tilt mixture."""
        eps = self.cfg.eps_grid[eps_idx]
        a = self.cfg.a_eps(eps)
        theta = 1.0 / eps
        ctrl_plus, ctrl_minus = self.tilts[eps_idx]
        c = self.cfg.threshold
        meas = self.model.measure
        events = sample_controlled_batch(
            meas, theta,
            [ctrl_plus if r % 2 == 0 else ctrl_minus for r in range(lo, hi)],
            [substream(self.cfg.seed, SLOT_IS, eps_idx, r) for r in range(lo, hi)],
        )
        terminals = simulate_jump_paths(self.model, eps, events, self.cfg.n_cells)[:, -1]
        hits = np.flatnonzero(_hits(terminals, self.fluid_end, a, c)).tolist()
        lr_p = log_likelihood_ratios(events, ctrl_plus, meas, theta, hits)
        lr_m = log_likelihood_ratios(events, ctrl_minus, meas, theta, hits)
        log_mix = np.logaddexp(lr_p, lr_m) - math.log(2.0)
        out = np.zeros(hi - lo)
        out[hits] = [math.exp(-v) for v in log_mix.tolist()]
        return out


_WORKER_ENGINE: _Engine | None = None


def _worker_init(cfg: ExperimentConfig, importance) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = _Engine(cfg, importance)


def _worker_call(task):
    method, args = task
    return getattr(_WORKER_ENGINE, method)(*args)


def _chunks(n: int, workers: int) -> list[tuple[int, int]]:
    """Replication ranges of the batches, in order.

    A batch holds ceil(n / workers) replications, at most 1000: each worker
    runs one lockstep integration, which pays the per-step cost once, and
    the integrator's arrays stay a few MB.  The boundaries depend on the
    replication count and the worker count; a path's bits depend on neither.
    """
    size = min(1000, -(-n // workers))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


@contextmanager
def _monte_carlo(cfg: ExperimentConfig, importance=None):
    """One engine, or one process pool of engines, serving a whole run.

    Yields collect(method, args, n): n replications of an engine batch
    method, run in chunks and returned in replication order.
    """
    def tasks(method, args, n):
        return [(method, args + (lo, hi)) for lo, hi in _chunks(n, cfg.workers)]

    if cfg.workers <= 1:
        engine = _Engine(cfg, importance)
        yield lambda method, args, n: np.concatenate(
            [getattr(engine, m)(*a) for m, a in tasks(method, args, n)], axis=0
        )
        return
    with ProcessPoolExecutor(
        max_workers=cfg.workers, initializer=_worker_init, initargs=(cfg, importance)
    ) as pool:
        yield lambda method, args, n: np.concatenate(
            list(pool.map(_worker_call, tasks(method, args, n))), axis=0
        )


# ---------------------------------------------------------------------------
# Plain path simulation
# ---------------------------------------------------------------------------


def run_simulate(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Terminal statistics of the state and its rescaled fluctuation per eps.

    Writes terminal_stats.csv; with dump_paths also writes the first few full
    paths per eps under paths/.
    """
    model = build_model(cfg.model, cfg.model_params)
    fluid_end = fluid_limit(model, cfg.n_cells)[0].terminal()
    d = model.dim
    stats: dict[float, np.ndarray] = {}
    rows = []
    dumped = min(5, cfg.replications) if out_dir and cfg.dump_paths else 0
    with _monte_carlo(cfg) as collect:
        terminals = [
            collect("terminal_batch", (SLOT_SIM, eps_idx, eps), cfg.replications)
            for eps_idx, eps in enumerate(cfg.eps_grid)
        ]
        paths = [collect("paths_batch", (SLOT_SIM, i, eps), dumped) for i, eps in enumerate(cfg.eps_grid) if dumped]
    for eps, xt in zip(cfg.eps_grid, terminals):
        a = cfg.a_eps(eps)
        data = np.empty((xt.shape[0], 2 * d))
        data[:, :d] = xt
        data[:, d:] = (xt - fluid_end) / a
        stats[eps] = data
        for i in range(d):
            rows.append(
                (eps, a, i + 1,
                 float(data[:, i].mean()), float(data[:, i].std(ddof=1)),
                 float(data[:, d + i].mean()), float(data[:, d + i].std(ddof=1)))
            )
    if out_dir:
        header = "epsilon,a_eps,component,x_mean,x_std,y_mean,y_std"
        write_csv(os.path.join(out_dir, "terminal_stats.csv"), header, rows)
        grid = np.linspace(0.0, model.horizon, cfg.n_cells + 1)
        for eps_idx, batch in enumerate(paths):
            for r, values in enumerate(batch):
                PathGrid(grid, values).to_csv(os.path.join(out_dir, "paths", f"eps{eps_idx}_rep{r}.csv"))
    return stats


# ---------------------------------------------------------------------------
# MDP slope experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeResult:
    rows: tuple
    predicted_rate: float
    config_hash: str

    def rows_of(self, kind: str) -> list[EstimateRow]:
        return [r for r in self.rows if r.estimator == kind]


def run_mdp_slope(cfg: ExperimentConfig, out_dir: str | None = None) -> SlopeResult:
    """Estimate deviation probabilities across the eps grid, plain and tilted.

    For each eps: p(eps) = P(|Y(T)| >= c) by plain Monte Carlo and by
    importance sampling driven by the optimal terminal control clipped at
    beta / a(eps), mixed over the two antipodal sphere minimizers.  The slope column
    -b(eps) log p_hat is left empty for rows whose plain estimate is zero.
    """
    model = build_model(cfg.model, cfg.model_params)
    fluid, _ = fluid_limit(model, cfg.n_cells)
    sysm = build_linearization(model, fluid)
    predicted, zstar, _, _ = sphere_rate(model, sysm, cfg.threshold)
    # the optimal control for the sphere event, on the simulation grid
    psi_star = rate_to_point(sysm, zstar).psi
    fluid_end = fluid.terminal()
    rows: list[EstimateRow] = []
    c = cfg.threshold
    with _monte_carlo(cfg, (psi_star, fluid_end)) as collect:
        for eps_idx, eps in enumerate(cfg.eps_grid):
            a = cfg.a_eps(eps)
            b = cfg.b_eps(eps)
            xt = collect("terminal_batch", (SLOT_PLAIN, eps_idx, eps), cfg.replications)
            hits = _hits(xt, fluid_end, a, c).astype(float)
            p_plain = math.fsum(hits) / cfg.replications
            se_plain = math.sqrt(max(p_plain * (1.0 - p_plain), 0.0) / cfg.replications)
            weights = collect("is_batch", (eps_idx,), cfg.is_replications)
            p_is = math.fsum(weights) / cfg.is_replications
            var_is = math.fsum((weights - p_is) ** 2) / max(cfg.is_replications - 1, 1)
            se_is = math.sqrt(var_is / cfg.is_replications)
            rows += [
                EstimateRow(epsilon=eps, a_eps=a, b_eps=b, p_hat=p, se=se, predicted_rate=predicted, estimator=kind,
                            neg_b_log_p=(-b * math.log(p)) if p > 0 else None)
                for p, se, kind in ((p_plain, se_plain, "plain"), (p_is, se_is, "is"))
            ]
    result = SlopeResult(rows=tuple(rows), predicted_rate=predicted, config_hash=cfg.config_hash())
    if out_dir:
        write_summary_csv(rows, os.path.join(out_dir, "summary.csv"))
    return result


def check_slope_result(result: SlopeResult, cfg: ExperimentConfig) -> None:
    """Assert the slope behavior: proximity at the smallest eps and a trend.

    The IS slope at the smallest eps must be within 25 percent of the
    predicted rate, and the |slope - prediction| sequence must be
    nonincreasing along the grid up to two combined standard errors.
    """
    is_rows = result.rows_of("is")
    if any(r.degenerate for r in is_rows):
        bad = next(r for r in is_rows if r.degenerate)
        raise CheckFailure(
            "IS estimate degenerated to zero", result.config_hash, cfg.seed, bad
        )
    slopes = [r.neg_b_log_p for r in is_rows]
    ses = [r.b_eps * (r.se / r.p_hat) for r in is_rows]
    pred = result.predicted_rate
    if pred > 0:
        final_err = abs(slopes[-1] - pred) / pred
        if final_err > 0.25:
            raise CheckFailure(
                f"slope at smallest eps off by {final_err:.1%} (> 25%)",
                result.config_hash, cfg.seed, is_rows[-1],
            )
    elif abs(slopes[-1]) > 1e-12:
        raise CheckFailure(
            "zero predicted rate but nonzero slope", result.config_hash, cfg.seed, is_rows[-1]
        )
    for k in range(len(slopes) - 1):
        drift_toward = abs(slopes[k + 1] - pred) - abs(slopes[k] - pred)
        slack = 2.0 * (ses[k] + ses[k + 1])
        if drift_toward > slack:
            raise CheckFailure(
                f"slope trend away from prediction at step {k} "
                f"(worsened by {drift_toward:.4f} > slack {slack:.4f})",
                result.config_hash, cfg.seed, is_rows[k + 1],
            )


# ---------------------------------------------------------------------------
# CLT regime check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CltResult:
    epsilon: float
    replications: int
    sample_mean: np.ndarray
    sample_cov: np.ndarray
    predicted_cov: np.ndarray
    rel_frobenius_error: float
    mean_se: np.ndarray
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    config_hash: str

    def mean_within(self, n_se: float = 3.0) -> bool:
        return bool(np.all(np.abs(self.sample_mean) <= n_se * self.mean_se))


def run_clt_check(cfg: ExperimentConfig, out_dir: str | None = None) -> CltResult:
    """Sample moments of the fluctuation at the CLT scale against the
    Lyapunov covariance.

    Y is rescaled by sqrt(eps) here (not by eps^rho): that is the scale on
    which the limiting covariance is the Lyapunov solution itself.
    """
    model = build_model(cfg.model, cfg.model_params)
    fluid = fluid_limit(model, cfg.n_cells)[0]
    sigma_t = sphere_rate(model, build_linearization(model, fluid), cfg.threshold)[3]
    with _monte_carlo(cfg) as collect:
        xt = collect("terminal_batch", (SLOT_CLT, 0, cfg.clt_epsilon), cfg.clt_replications)
    samples = (xt - fluid.terminal()) / math.sqrt(cfg.clt_epsilon)  # fluctuation scale
    mean = samples.mean(axis=0)
    cov = np.cov(samples.T, ddof=1).reshape(model.dim, model.dim)
    denom = max(float(np.linalg.norm(sigma_t)), 1e-300)
    rel = float(np.linalg.norm(cov - sigma_t)) / denom
    centered = samples - mean
    sd = centered.std(axis=0, ddof=1)
    safe = np.where(sd > 0, sd, 1.0)
    skew = np.where(sd > 0, (centered**3).mean(axis=0) / safe**3, 0.0)
    kurt = np.where(sd > 0, (centered**4).mean(axis=0) / safe**4 - 3.0, 0.0)
    result = CltResult(
        epsilon=cfg.clt_epsilon,
        replications=cfg.clt_replications,
        sample_mean=mean,
        sample_cov=cov,
        predicted_cov=sigma_t,
        rel_frobenius_error=rel,
        mean_se=np.sqrt(np.diag(sigma_t).clip(min=0) / cfg.clt_replications),
        skewness=skew,
        excess_kurtosis=kurt,
        config_hash=cfg.config_hash(),
    )
    if out_dir:
        table = [("epsilon", cfg.clt_epsilon), ("rel_frobenius_error", rel)]
        for i, (m, s, k) in enumerate(zip(mean.tolist(), skew.tolist(), kurt.tolist()), start=1):
            table += [(f"mean_{i}", m), (f"skewness_{i}", s), (f"excess_kurtosis_{i}", k)]
        write_csv(os.path.join(out_dir, "clt_check.csv"), "quantity,value", table)
    return result


# ---------------------------------------------------------------------------
# Entropy-function constants and bound sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyBoundConstants:
    """Best constants of the entropy-function inequalities on a dense grid.

    tail_abs(beta):    sup |x-1| / ell(x) over |x-1| >= beta
    tail_linear(beta): sup x / ell(x) over x >= beta  (diverges as beta -> 1+,
                       reported as the grid supremum)
    core_square(beta): sup (x-1)^2 / ell(x) over |x-1| <= beta
    quad_envelope:     max of sup ell(x)/(x-1)^2 and
                       sup |ell(x) - (x-1)^2/2| / |x-1|^3 over [0, 100]
    """

    betas: tuple
    tail_abs: np.ndarray
    tail_linear: np.ndarray
    core_square: np.ndarray
    quad_envelope: float

    def as_rows(self):
        for i, b in enumerate(self.betas):
            yield b, float(self.tail_abs[i]), float(self.tail_linear[i]), float(self.core_square[i])


def entropy_bound_constants(betas=(1.0, 2.0, 5.0, 10.0, 100.0)) -> EntropyBoundConstants:
    """Supremum ratios on a 200001-point log grid of [0, 1e6] plus per-beta knots.

    The knots {beta, 1 - beta, 1 + beta} are where the restricted suprema
    are reached, so downstream bound checks hold without grid slack.
    Monotonicity of tail_abs and tail_linear in beta is asserted here.
    """
    betas = tuple(float(b) for b in betas)
    knots = []
    for b in betas:
        knots += [b, 1.0 + b]
        if b < 1.0:
            knots.append(1.0 - b)
    x = np.unique(np.concatenate([
        np.array([0.0]),
        np.geomspace(1e-8, 1e6, 200_001),
        np.array([k for k in knots if k > 0]),
    ]))
    ell = entropy_integrand(x)
    dist = np.abs(x - 1.0)
    ok = ell > 0  # excludes x == 1 where every ratio degenerates
    k1 = np.empty(len(betas))
    k1p = np.empty(len(betas))
    k2 = np.empty(len(betas))
    for i, b in enumerate(betas):
        m1 = ok & (dist >= b)
        k1[i] = float(np.max(dist[m1] / ell[m1]))
        m1p = ok & (x >= b)
        k1p[i] = float(np.max(x[m1p] / ell[m1p]))
        m2 = ok & (dist <= b)
        k2[i] = float(np.max(dist[m2] ** 2 / ell[m2]))
    order = np.argsort(betas)
    if np.any(np.diff(k1[order]) > 0) or np.any(np.diff(k1p[order]) > 0):
        raise CheckFailure("tail_abs or tail_linear failed to be nonincreasing in beta")
    xg = np.unique(np.concatenate([np.linspace(0.0, 100.0, 100_001), np.geomspace(1e-6, 100.0, 50_001)]))
    ellg = entropy_integrand(xg)
    okg = np.abs(xg - 1.0) > 1e-9
    r1 = ellg[okg] / (xg[okg] - 1.0) ** 2
    r2 = np.abs(ellg[okg] - 0.5 * (xg[okg] - 1.0) ** 2) / np.abs(xg[okg] - 1.0) ** 3
    quad_envelope = float(max(np.max(r1), np.max(r2)))
    return EntropyBoundConstants(betas=betas, tail_abs=k1, tail_linear=k1p, core_square=k2, quad_envelope=quad_envelope)


def default_psi_catalog(n_atoms: int, n_cells: int):
    """Deterministic centered controls used by the bound sweep.

    two_scale stays inside the usual cost budget while pushing one atom's
    tilt beyond the tail thresholds, so the tail integrals are exercised
    nontrivially; spiky and rough are over-budget (or inadmissible) on
    purpose and document the premise filter.
    """
    rng = substream(1234, 9)
    flat = np.ones((n_atoms, n_cells))
    ramp = np.tile(np.linspace(-1.0, 2.0, n_cells), (n_atoms, 1))
    two_scale = np.zeros((n_atoms, n_cells))
    two_scale[0] = 3.0
    spiky = np.zeros((n_atoms, n_cells))
    spiky[0, :: max(1, n_cells // 4)] = 30.0
    rough = rng.normal(scale=1.5, size=(n_atoms, n_cells))
    return {
        "constant_half": 0.5 * flat,
        "constant_minus": -0.5 * flat,
        "ramp": ramp,
        "two_scale": two_scale,
        "spiky": spiky,
        "rough": rough,
    }


@dataclass(frozen=True)
class BoundSweepRow:
    psi_name: str
    epsilon: float
    beta: float
    lhs_tail_l1: float      # integral of |psi| over {|psi| >= beta/a}
    bound_tail_l1: float
    lhs_tilt_tail: float    # integral of phi over {phi >= beta}
    bound_tilt_tail: float
    lhs_core_l2: float      # integral of psi^2 over {|psi| <= beta/a}
    bound_core_l2: float

    def slacks(self) -> tuple[float, float, float]:
        return (
            self.bound_tail_l1 - self.lhs_tail_l1,
            self.bound_tilt_tail - self.lhs_tilt_tail,
            self.bound_core_l2 - self.lhs_core_l2,
        )


@dataclass(frozen=True)
class BoundSweepReport:
    m_bound: float
    rows: tuple
    excluded: tuple  # (psi_name, epsilon, cost) for catalog entries over budget

    def all_hold(self) -> bool:
        return all(s >= -1e-12 for row in self.rows for s in row.slacks())


def verify_entropy_tail_bounds(
    measure,
    horizon: float,
    m_bound: float,
    eps_values,
    psi_catalog: dict | None = None,
    betas=(1.0, 2.0, 5.0, 10.0),
    rho: float = 0.25,
    constants: EntropyBoundConstants | None = None,
) -> BoundSweepReport:
    """Evaluate the three tail/core integrals of centered controls against
    their entropy-cost bounds.

    A catalog entry is excluded (with notice) at a given eps when its tilt
    cost exceeds m_bound * a(eps)^2, since the bounds only apply on that
    budget.  All integrals are exact atomic sums.
    """
    if constants is None:
        constants = entropy_bound_constants(betas)
    idx = {b: constants.betas.index(b) for b in betas}
    n_cells = 16
    catalog = psi_catalog or default_psi_catalog(measure.n_atoms, n_cells)
    w = measure.weights
    rows = []
    excluded = []
    for eps in eps_values:
        a = deviation_scale(eps, rho)
        for name, psi in catalog.items():
            psi = np.asarray(psi, dtype=float)
            dt = horizon / psi.shape[1]
            phi = 1.0 + a * psi
            if np.any(phi < 0):
                excluded.append((name, float(eps), math.inf))
                continue
            ctrl = ControlField(psi, horizon, a)
            cost = tilt_cost(ctrl, measure)
            if cost > m_bound * a * a:
                excluded.append((name, float(eps), cost))
                continue
            wdt = w[:, None] * dt
            for b in betas:
                tail = np.abs(psi) >= b / a
                lhs1 = math.fsum((np.abs(psi) * wdt)[tail])
                tilt_tail = phi >= b
                lhs2 = math.fsum((phi * wdt)[tilt_tail])
                core = np.abs(psi) <= b / a
                lhs3 = math.fsum((psi * psi * wdt)[core])
                rows.append(
                    BoundSweepRow(
                        psi_name=name, epsilon=float(eps), beta=b,
                        lhs_tail_l1=lhs1,
                        bound_tail_l1=float(m_bound * a * constants.tail_abs[idx[b]]),
                        lhs_tilt_tail=lhs2,
                        bound_tilt_tail=float(m_bound * a * a * constants.tail_linear[idx[b]]),
                        lhs_core_l2=lhs3,
                        bound_core_l2=float(m_bound * constants.core_square[idx[b]]),
                    )
                )
    return BoundSweepReport(m_bound=m_bound, rows=tuple(rows), excluded=tuple(excluded))


# ---------------------------------------------------------------------------
# Variational representation sanity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarRepResult:
    functional: str
    theta: float
    mass: float
    horizon: float
    lhs_mc: float
    lhs_se: float
    lhs_exact: float | None
    tilt_grid: np.ndarray
    rhs_values: np.ndarray
    rhs_ses: np.ndarray
    config_hash: str

    @property
    def rhs_min(self) -> float:
        return float(np.min(self.rhs_values))

    @property
    def rhs_min_se(self) -> float:
        return float(self.rhs_ses[int(np.argmin(self.rhs_values))])

    def one_sided_ok(self, n_se: float = 3.0) -> bool:
        slack = n_se * math.hypot(self.lhs_se, self.rhs_min_se)
        return self.lhs_mc <= self.rhs_min + slack


def _functional(kind: str, gamma: float, cap: float):
    if kind == "linear_count":
        return lambda n: gamma * n
    if kind == "capped_count":
        return lambda n: gamma * np.minimum(n, cap)
    raise ModelError(f"unknown functional {kind!r}")


def verify_var_rep(
    cfg: ExperimentConfig,
    functional: str = "linear_count",
    gamma: float = 0.5,
    cap: float = 10.0,
    theta: float = 2.0,
    mass: float = 1.0,
    horizon: float = 1.0,
    replications: int = 100_000,
) -> VarRepResult:
    """One-sided Monte Carlo check of the exponential-functional identity.

    The log-Laplace transform of F under the rate-theta measure is matched
    from above by inf over tilts of (theta * tilt cost + mean of F under the
    tilted law); constant tilts on a dense geometric grid stand in for the
    inf.  For F = gamma * count the left side is exact:
    theta * mass * T * (1 - exp(-gamma)).
    """
    # the keyword arguments are the var_rep config block
    gamma, cap = check_value("var_rep gamma", gamma), check_value("var_rep cap", cap)
    theta = check_value("var_rep theta", theta, positive=True)
    mass = check_value("var_rep mass", mass, positive=True)
    horizon = check_value("var_rep horizon", horizon, positive=True)
    replications = check_value("var_rep replications", replications, int, least=2, why=" for a standard error")
    fn = _functional(functional, gamma, cap)
    lam = theta * mass * horizon
    rng = substream(cfg.seed, SLOT_VARREP, 0)
    counts = rng.poisson(lam, size=replications)
    vals = np.exp(-fn(counts))
    m = float(vals.mean())
    se_m = float(vals.std(ddof=1)) / math.sqrt(replications)
    lhs_mc = -math.log(m)
    lhs_se = se_m / m
    lhs_exact = lam * (1.0 - math.exp(-gamma)) if functional == "linear_count" else None
    grid = np.geomspace(0.25, 4.0, 49)
    rhs = np.empty(grid.size)
    ses = np.empty(grid.size)
    for i, phi in enumerate(grid):
        cost = theta * entropy_integrand(float(phi)) * mass * horizon
        tilted = substream(cfg.seed, SLOT_VARREP, 1, i).poisson(lam * phi, size=replications)
        fvals = fn(tilted).astype(float)
        rhs[i] = cost + float(fvals.mean())
        ses[i] = float(fvals.std(ddof=1)) / math.sqrt(replications)
    return VarRepResult(
        functional=functional, theta=theta, mass=mass, horizon=horizon,
        lhs_mc=lhs_mc, lhs_se=lhs_se, lhs_exact=lhs_exact,
        tilt_grid=grid, rhs_values=rhs, rhs_ses=ses,
        config_hash=cfg.config_hash(),
    )
