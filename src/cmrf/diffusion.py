"""Distributed estimation of a shared parameter from edge measurements.

Each edge e of a complex observes, at every round t, a linear measurement

    y_e[t] = u_e[t].T @ theta0 + n_e[t]

with i.i.d. Gaussian regressors u_e and noise n[t] drawn jointly across
edges from the structured model N(0, inv(omega)).  The network objective

    J(theta) = 0.5 * E[ r.T @ omega @ r ],    r_e = y_e - u_e.T @ theta

splits into edge-wise terms phi_h - phi_d - phi_u (see
:func:`local_loss_terms`), each computable from an edge's own residual
and the residuals of its line-graph neighbors.  The distributed
estimators run adapt-then-combine rounds on the line graph:

    adapt:   psi_e = theta_e - mu * local_gradient(e)
    combine: theta_e = average of psi over the closed neighborhood of e

where the gradient descends the agent's slice of the decomposed
objective with neighbor residuals frozen at their communicated values,

    local_gradient(e) = -u_e * sum_e' omega_v[e, e'] * r_e'.

The coupling matrix omega_v depends on the variant: the full precision
for atc_cmrf, the lower-only factor for atc_lgmrf, and k*I for the
topology-blind atc_plain and standalone_lms (the latter also skips the
combine step).  centralized_cmrf updates one shared estimate with the
full gradient -U.T @ omega @ r.  Summed over edges the distributed
adapt directions aggregate to that same full gradient, which is why
atc_cmrf tracks the centralized estimator closely.

Step sizes are matched across variants so that curves are comparable:
the configured step applies to atc_cmrf as-is and other variants are
scaled by the ratio of mean coupling diagonals (the centralized variant
aggregates all edges, so its scale is the full trace).  Mean squared
deviation (1/|E|) * sum_e ||theta_e - theta0||^2 is recorded per round
and averaged over independent runs.
"""

from __future__ import annotations

import concurrent.futures
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, MissingNeighborData, MissingNeighborResidual
from .model import (
    EdgePrecision,
    SgmParams,
    _coupling_parts,
    build_precision,
    covariance_cholesky,
    draw_params,
)
from .simplicial import (
    IncidencePair,
    SimplicialComplex2,
    incidence,
    line_graph,
    load_complex,
    random_2sc,
)

__all__ = [
    "VariantSpec",
    "VARIANTS",
    "get_variant",
    "MeasurementModel",
    "ExperimentConfig",
    "MsdResult",
    "generate_round",
    "local_loss_terms",
    "local_gradient",
    "coupling_matrix",
    "combination_weights",
    "atc_round",
    "step_sizes",
    "run_experiment",
    "write_csv",
]


@dataclass(frozen=True)
class VariantSpec:
    """Which loss terms and network steps an estimator variant uses."""

    name: str
    uses_lower_term: bool
    uses_upper_term: bool
    uses_combination: bool
    is_centralized: bool = False


VARIANTS: dict[str, VariantSpec] = {
    v.name: v
    for v in (
        VariantSpec("atc_cmrf", True, True, True),
        VariantSpec("atc_lgmrf", True, False, True),
        VariantSpec("atc_plain", False, False, True),
        VariantSpec("standalone_lms", False, False, False),
        VariantSpec("centralized_cmrf", True, True, False, is_centralized=True),
    )
}


def get_variant(name: str) -> VariantSpec:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown variant {name!r}, expected one of {sorted(VARIANTS)}"
        ) from None


@dataclass(frozen=True)
class MeasurementModel:
    """Ground truth parameter plus the regressor and noise distributions."""

    theta0: np.ndarray
    regressor_variance: float
    noise: EdgePrecision

    def __post_init__(self):
        object.__setattr__(
            self, "theta0", np.asarray(self.theta0, dtype=float)
        )
        if self.theta0.ndim != 1:
            raise ValueError("theta0 must be a vector")
        if self.regressor_variance <= 0:
            raise ValueError("regressor_variance must be positive")
        object.__setattr__(
            self, "_noise_chol", covariance_cholesky(self.noise)
        )

    @property
    def dim(self) -> int:
        return self.theta0.shape[0]

    @property
    def num_edges(self) -> int:
        return self.noise.num_edges


def generate_round(
    model: MeasurementModel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one round of regressors and observations.

    Returns (regressors, observations) with shapes (num_edges, dim) and
    (num_edges,).  Regressor entries are N(0, regressor_variance) i.i.d.;
    the noise vector is one joint draw from the structured model.  The
    generator is consumed in that fixed order, so streams line up across
    variant lists.
    """
    ne, m = model.num_edges, model.dim
    regressors = rng.standard_normal((ne, m)) * np.sqrt(model.regressor_variance)
    noise = rng.standard_normal(ne) @ model._noise_chol.T
    observations = regressors @ model.theta0 + noise
    return regressors, observations


def local_loss_terms(
    edge: int,
    residuals: Mapping[int, float],
    params: SgmParams,
    inc: IncidencePair,
) -> tuple[float, float, float]:
    """Edge-wise split (phi_h, phi_d, phi_u) of the instantaneous loss.

    phi_h = (k/2) * r_e**2 needs only the edge's own residual.  phi_d
    couples r_e to residuals of edges sharing a vertex u with
    d_v[u] != 0, phi_u to residuals of edges sharing a triangle t with
    d_t[t] != 0; cross products carry the signed incidence pattern and a
    factor 1/2 so that summing phi_h - phi_d - phi_u over all edges
    recovers 0.5 * r.T @ omega @ r exactly.

    Raises MissingNeighborResidual when a residual needed by a nonzero
    coupling term is absent from ``residuals``.
    """
    if edge not in residuals:
        raise ValueError(f"residuals must include the edge itself ({edge})")
    r_e = float(residuals[edge])
    phi_h = 0.5 * params.k * r_e**2

    def half_quadratic(incmat: np.ndarray, coeffs: np.ndarray, col: np.ndarray):
        own = 0.0
        cross = 0.0
        for s in np.flatnonzero(col):
            c = coeffs[s]
            own += c * col[s] ** 2
            if c == 0.0:
                continue
            for other in np.flatnonzero(incmat[s]):
                if other == edge:
                    continue
                if other not in residuals:
                    raise MissingNeighborResidual(
                        f"edge {edge} needs the residual of edge {other}"
                    )
                cross += c * col[s] * incmat[s, other] * r_e * residuals[other]
        return 0.5 * (own * r_e**2 + cross)

    # Lower part: rows of b1 are vertices, col holds the edge's entries.
    phi_d = half_quadratic(inc.b1, params.d_v, inc.b1[:, edge])
    # Upper part: same pattern with triangles in place of vertices.
    phi_u = half_quadratic(inc.b2.T, params.d_t, inc.b2[edge])
    return phi_h, float(phi_d), float(phi_u)


def local_gradient(
    edge: int,
    variant: str | VariantSpec,
    own: tuple[float, np.ndarray, np.ndarray],
    neighbor_residuals: Mapping[int, float],
    params: SgmParams,
    inc: IncidencePair,
) -> np.ndarray:
    """Instantaneous loss gradient at one edge, neighbor residuals frozen.

    ``own`` is the triple (y_e, u_e, theta_e).  The result is

        grad = -u_e * sum_e' omega_v[e, e'] * r_e'

    the derivative through the edge's own residual of its slice of the
    decomposed objective (the sum of phi_h - phi_d - phi_u over the
    closed neighborhood, every other residual held at its communicated
    value).  Descent direction is -grad.  For the topology-blind
    variants this reduces to -k * r_e * u_e.

    Raises MissingNeighborData when a neighbor with nonzero coupling is
    absent from ``neighbor_residuals``.
    """
    spec = get_variant(variant) if isinstance(variant, str) else variant
    y_e, u_e, theta_e = own
    u_e = np.asarray(u_e, dtype=float)
    theta_e = np.asarray(theta_e, dtype=float)
    r_e = float(y_e - u_e @ theta_e)

    a_d, a_u = _coupling_parts(inc, params.d_v, params.d_t)
    row = np.zeros(inc.b1.shape[1])
    row[edge] = params.k
    if spec.uses_lower_term:
        row -= a_d[edge]
    if spec.uses_upper_term:
        row -= a_u[edge]
    weighted = row[edge] * r_e
    for other in np.flatnonzero(row):
        if other == edge:
            continue
        if other not in neighbor_residuals:
            raise MissingNeighborData(
                f"edge {edge} needs the residual of edge {other} "
                f"for variant {spec.name}"
            )
        weighted += row[other] * float(neighbor_residuals[other])
    return -weighted * u_e


def coupling_matrix(prec: EdgePrecision, variant: str | VariantSpec) -> np.ndarray:
    """The variant's residual coupling matrix omega_v.

    Full precision for atc_cmrf and centralized_cmrf, the lower factor
    for atc_lgmrf, k*I for atc_plain and standalone_lms.
    """
    spec = get_variant(variant) if isinstance(variant, str) else variant
    if spec.uses_lower_term and spec.uses_upper_term:
        return prec.omega
    if spec.uses_lower_term:
        return prec.omega_d
    if spec.uses_upper_term:
        return prec.omega_u
    return prec.k * np.eye(prec.num_edges)


def combination_weights(adjacency: np.ndarray, rule: str = "uniform") -> np.ndarray:
    """Row-stochastic combination weights on the line graph.

    ``uniform`` averages over the closed neighborhood {e} + N(e).
    ``metropolis`` uses w[i, j] = 1 / (1 + max(deg_i, deg_j)) for linked
    pairs with the remainder on the diagonal, which is symmetric and
    doubly stochastic.  Both rules reduce to the identity for isolated
    agents and coincide on regular line graphs.
    """
    adj = adjacency.astype(float)
    n = adj.shape[0]
    if rule == "uniform":
        closed = adj + np.eye(n)
        return closed / closed.sum(axis=1, keepdims=True)
    if rule == "metropolis":
        deg = adj.sum(axis=1)
        weights = adj / (1.0 + np.maximum.outer(deg, deg))
        np.fill_diagonal(weights, 1.0 - weights.sum(axis=1))
        return weights
    raise ValueError(f"unknown combination rule: {rule!r}")


def atc_round(
    theta: np.ndarray,
    regressors: np.ndarray,
    observations: np.ndarray,
    coupling: np.ndarray,
    combine: np.ndarray,
    step_size: float,
    variant: str | VariantSpec,
) -> np.ndarray:
    """One synchronous adapt-then-combine round for all agents.

    ``theta`` has shape (num_edges, dim) for the distributed variants and
    (dim,) for centralized_cmrf.  Returns the updated estimate(s); inputs
    are not modified.
    """
    spec = get_variant(variant) if isinstance(variant, str) else variant
    if spec.is_centralized:
        if theta.ndim != 1:
            raise DimensionMismatch("centralized variant takes a single vector")
        residual = observations - regressors @ theta
        return theta + step_size * (regressors.T @ (coupling @ residual))
    if theta.shape != regressors.shape:
        raise DimensionMismatch(
            f"theta shape {theta.shape} != regressors shape {regressors.shape}"
        )
    residual = observations - np.einsum("em,em->e", regressors, theta)
    weighted = coupling @ residual
    psi = theta + step_size * weighted[:, None] * regressors
    if spec.uses_combination:
        return combine @ psi
    return psi


_DEFAULT_VARIANTS = (
    "atc_cmrf",
    "atc_lgmrf",
    "atc_plain",
    "standalone_lms",
    "centralized_cmrf",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo MSD comparison needs, in one place.

    The complex is sampled once from its own seed stream and shared by
    all runs unless ``resample_complex`` is set or ``complex_file``
    points at a stored complex.  Each run draws fresh coupling
    coefficients, a fresh ground truth, and fresh measurement streams
    from a per-run child seed, so runs are independent and the result is
    reproducible for a fixed seed regardless of worker count.
    """

    seed: int = 0
    num_runs: int = 100
    num_iterations: int = 2000
    variants: tuple[str, ...] = _DEFAULT_VARIANTS
    num_vertices: int = 10
    num_edges: int | None = 21
    num_triangles: int = 12
    er_probability: float | None = None
    complex_file: str | None = None
    resample_complex: bool = False
    dv_bounds: tuple[float, float] = (0.2, 5.0)
    dt_bounds: tuple[float, float] = (0.2, 5.0)
    k_margin: float = 0.1
    dim: int = 10
    regressor_variance: float = 0.2
    step_size: float = 5e-3
    step_size_overrides: dict[str, float] = field(default_factory=dict)
    combine_rule: str = "uniform"
    steady_state_window: int = 100
    num_workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        for name in ("num_runs", "num_iterations", "steady_state_window", "num_workers"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.combine_rule not in ("uniform", "metropolis"):
            raise ValueError(f"unknown combination rule: {self.combine_rule!r}")
        object.__setattr__(
            self, "dv_bounds", tuple(float(x) for x in self.dv_bounds)
        )
        object.__setattr__(
            self, "dt_bounds", tuple(float(x) for x in self.dt_bounds)
        )
        object.__setattr__(
            self, "step_size_overrides", dict(self.step_size_overrides)
        )
        for v in self.variants:
            get_variant(v)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass(frozen=True)
class MsdResult:
    """Per-iteration MSD statistics across runs, one curve per variant."""

    variants: tuple[str, ...]
    num_runs: int
    msd_mean: dict[str, np.ndarray]
    msd_std: dict[str, np.ndarray]
    steady_state_db: dict[str, float]


def step_sizes(prec: EdgePrecision, config: ExperimentConfig) -> dict[str, float]:
    """Per-variant step sizes matched for comparable convergence rate.

    The configured step applies to atc_cmrf unchanged.  Every other
    variant is scaled by the ratio of mean coupling diagonals, i.e.
    mu_v = mu * (trace(omega)/|E|) / (trace(omega_v)/|E|); the
    centralized update aggregates all edges, so its denominator is the
    full trace and mu_c is roughly mu / |E|.  Entries in
    ``step_size_overrides`` replace the matched value.
    """
    ne = prec.num_edges
    reference = np.trace(prec.omega) / ne
    out = {}
    for name in config.variants:
        spec = get_variant(name)
        cm = coupling_matrix(prec, spec)
        scale = np.trace(cm) if spec.is_centralized else np.trace(cm) / ne
        out[name] = config.step_size * (reference / scale)
    out.update(
        {k: float(v) for k, v in config.step_size_overrides.items() if k in out}
    )
    return out


def _sample_complex(
    config: ExperimentConfig, rng: np.random.Generator
) -> SimplicialComplex2:
    return random_2sc(
        config.num_vertices,
        config.er_probability,
        config.num_triangles,
        rng,
        num_edges=config.num_edges,
    )


def _run_single(
    config: ExperimentConfig,
    sc: SimplicialComplex2 | None,
    run_seed: np.random.SeedSequence,
) -> dict[str, np.ndarray]:
    """One Monte Carlo run; returns the per-variant MSD trajectories."""
    rng = np.random.default_rng(run_seed)
    if sc is None:
        sc = _sample_complex(config, rng)
    inc = incidence(sc)
    params = draw_params(
        inc,
        rng,
        dv_bounds=config.dv_bounds,
        dt_bounds=config.dt_bounds,
        margin=config.k_margin,
    )
    prec = build_precision(inc, params)
    theta0 = rng.standard_normal(config.dim)
    model = MeasurementModel(
        theta0=theta0,
        regressor_variance=config.regressor_variance,
        noise=prec,
    )
    combine = combination_weights(line_graph(sc), config.combine_rule)
    steps = step_sizes(prec, config)
    couplings = {v: coupling_matrix(prec, v) for v in config.variants}

    ne = sc.num_edges
    state: dict[str, np.ndarray] = {}
    for v in config.variants:
        if get_variant(v).is_centralized:
            state[v] = np.zeros(config.dim)
        else:
            state[v] = np.zeros((ne, config.dim))

    msd = {v: np.empty(config.num_iterations) for v in config.variants}
    for t in range(config.num_iterations):
        regressors, observations = generate_round(model, rng)
        for v in config.variants:
            state[v] = atc_round(
                state[v], regressors, observations, couplings[v],
                combine, steps[v], v,
            )
            err = state[v] - theta0
            if err.ndim == 1:
                msd[v][t] = float(err @ err)
            else:
                msd[v][t] = float(np.sum(err * err) / ne)
    return msd


def run_experiment(config: ExperimentConfig) -> MsdResult:
    """Run the Monte Carlo comparison described by ``config``.

    Returns mean and standard deviation of the MSD across runs for every
    variant, plus the steady-state level in dB (the mean curve averaged
    over the trailing ``steady_state_window`` iterations).  Results are
    identical for a fixed seed whether runs execute serially or on a
    process pool.
    """
    root = np.random.SeedSequence(config.seed)
    complex_seq, runs_seq = root.spawn(2)
    run_seeds = runs_seq.spawn(config.num_runs)

    if config.complex_file is not None:
        sc = load_complex(config.complex_file)
    elif config.resample_complex:
        sc = None
    else:
        sc = _sample_complex(config, np.random.default_rng(complex_seq))

    per_run: list[dict[str, np.ndarray]] = [None] * config.num_runs
    if config.num_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=config.num_workers
        ) as pool:
            futures = {
                pool.submit(_run_single, config, sc, run_seeds[i]): i
                for i in range(config.num_runs)
            }
            for fut in concurrent.futures.as_completed(futures):
                per_run[futures[fut]] = fut.result()
    else:
        for i in range(config.num_runs):
            per_run[i] = _run_single(config, sc, run_seeds[i])

    window = min(config.steady_state_window, config.num_iterations)
    msd_mean, msd_std, steady = {}, {}, {}
    for v in config.variants:
        stack = np.stack([r[v] for r in per_run])  # (runs, iterations)
        msd_mean[v] = stack.mean(axis=0)
        msd_std[v] = (
            stack.std(axis=0, ddof=1)
            if config.num_runs > 1
            else np.zeros(config.num_iterations)
        )
        steady[v] = float(10.0 * np.log10(msd_mean[v][-window:].mean()))
    return MsdResult(
        variants=config.variants,
        num_runs=config.num_runs,
        msd_mean=msd_mean,
        msd_std=msd_std,
        steady_state_db=steady,
    )


def write_csv(result: MsdResult, path: str | Path) -> None:
    """Write per-iteration curves as variant,iteration,msd_mean,msd_std.

    Float fields use repr, so rewriting the same result is byte
    identical and values round-trip exactly.
    """
    lines = ["variant,iteration,msd_mean,msd_std"]
    for v in result.variants:
        mean, std = result.msd_mean[v], result.msd_std[v]
        for t in range(mean.shape[0]):
            lines.append(f"{v},{t + 1},{float(mean[t])!r},{float(std[t])!r}")
    Path(path).write_text("\n".join(lines) + "\n")
