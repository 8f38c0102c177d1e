"""Distributed estimation of a shared parameter from edge measurements.

Each edge e of a complex observes, at every round t, a linear measurement

    y_e[t] = u_e[t].T @ theta0 + n_e[t]

with i.i.d. Gaussian regressors u_e and noise n[t] drawn jointly across
edges from the structured model N(0, inv(omega)).  Each run builds its
model with ``model.draw_params`` and ``model.build_precision``, and
draws its noise with ``model.covariance_cholesky``, a Cholesky factor
of inv(omega) formed from the Hodge blocks, with one V x V and one
T x T inverse; no run inverts omega.  The network objective

    J(theta) = 0.5 * E[ r.T @ omega @ r ],    r_e = y_e - u_e.T @ theta

splits into edge-wise terms, each computable from an edge's own residual
and the residuals of its line-graph neighbors.  The distributed
estimators run adapt-then-combine rounds on the line graph:

    adapt:   psi_e = theta_e + mu * u_e * sum_e' omega_v[e, e'] * r_e'
    combine: theta_e = weighted average of psi over the closed neighborhood of e

The adapt step descends the agent's slice of the decomposed objective
with neighbor residuals frozen at their communicated values; row e of
omega_v is nonzero only at e and its line-graph neighbors, so each agent
needs only what its neighbors send.

One size rule (``_factored``) decides where an operator goes through
the incidence instead of an E x E matrix: incidence factors with at most
2E/3 rows in all, on a complex with at least the operator's floor of
edges (150 for the combine step, 350 for the couplings).  For the
uniform combine step the factor is the unsigned incidence |b1| (V rows):
two thin V x E products in place of one E x E product.  For the coupled
products the factors are the float b1 and b2 (V + T rows) of a shared
complex: a run on it above the rule keeps k, d_v and d_t and forms no
E x E coupling matrix, and each round applies the couplings as
omega_v @ r = k*r - b1.T @ (d_v * (b1 @ r)) - b2 @ (d_t * (b2.T @ r)),
in one product per factor for every coupled row of every run.  Both
equal the dense products up to rounding.  Below the rule, and in every
run that draws its own complex, a run reads its coupling matrices as
dense (E, E) slots.  A drawn complex has trivial homology, so V + T > E
and the rule would keep its couplings dense anyway.

The coupling matrix omega_v depends on the variant: the full precision
for atc_cmrf, the lower-only factor for atc_lgmrf, and k*I for the
topology-blind atc_plain and standalone_lms (the latter also skips the
combine step).  centralized_cmrf updates one shared estimate with the
full gradient -U.T @ omega @ r.  Summed over edges the distributed
adapt directions aggregate to that same full gradient, which is why
atc_cmrf tracks the centralized estimator closely.  One kernel,
``_round``, runs a round for every run and variant at once: it weighs
every coupled residual, distributed and centralized, in one coupled
product, adapts and combines the distributed estimates and updates the
centralized one.

Step sizes are matched across variants so that curves are comparable:
the configured step applies to atc_cmrf as-is and other variants are
scaled by the ratio of mean coupling diagonals (the centralized variant
aggregates all edges, so its scale is the full trace).  Mean squared
deviation (1/|E|) * sum_e ||theta_e - theta0||^2 is recorded per round
and averaged over independent runs.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .model import EdgePrecision, build_precision, covariance_cholesky, draw_params
from .model import _check_bounds, _diagonals
from .simplicial import (
    IncidencePair,
    SimplicialComplex2,
    incidence,
    line_graph,
    load_complex,
    random_2sc,
)
from .simplicial import _is_int, _is_number

__all__ = [
    "VariantSpec",
    "VARIANTS",
    "get_variant",
    "ExperimentConfig",
    "MsdResult",
    "coupling_matrix",
    "combination_weights",
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


# The table's order is the simulator's batch order: the matrix-coupled
# variants are a prefix of the combining ones, those a prefix of the
# distributed ones, and centralized_cmrf comes last.
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


def _measure(draws, num_edges, scale, chol, theta0):
    """Regressors and observations from blocks of standard normal draws.

    ``draws`` has shape (g, B, E*m + E): per run and round, the E*m
    regressor entries then the E noise entries, in the order one
    generator produces them.  ``chol`` is (g, E, E) and ``theta0``
    (g, m).  Returns regressors (g, B, E, m), a view that scales
    ``draws`` in place, and observations (g, B, E).  Every product is
    one matrix-vector product per (run, round), as for a single round.
    """
    g, b, width = draws.shape
    split = width - num_edges
    regressors = draws[..., :split]
    regressors *= scale
    regressors = regressors.reshape(g, b, num_edges, split // num_edges)
    noise = draws[..., None, split:] @ chol[:, None].swapaxes(-1, -2)
    return regressors, (regressors @ theta0[:, None, :, None])[..., 0] + noise[..., 0, :]


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


# A simulator run applies an operator through incidence factors instead
# of an E x E matrix where the factors have at most 2E/3 rows in all (V
# for the uniform combine step's |b1|, V + T for the coupled products' b1
# and b2) and the complex has at least as many edges as the operator's
# floor below.  Per column a factored product costs about 4*E*width flops
# against 2*E**2 dense, plus a fixed overhead that small complexes do not
# repay.  The floors come from the kernel probes of scripts/bench.py
# (``kernel`` and ``couplings``, BENCH_26.json), at one BLAS thread and
# at the default.  The combine step wins at every probed shape from 153
# edges (K18) on.  The coupled products of one run win from 350 edges on,
# lose at 200 edges and below, and split at 300: the dense product reads
# one E x E slot per coupled variant, and small slots stay in cache.
_COMBINE_MIN_EDGES = 150
_COUPLINGS_MIN_EDGES = 350


def _factored(num_edges: int, width: int, min_edges: int) -> bool:
    """Whether an operator on ``num_edges`` edges, whose incidence factors
    have ``width`` rows in all, goes through them (the size rule).

    ``min_edges`` is the operator's floor, ``_COMBINE_MIN_EDGES`` or
    ``_COUPLINGS_MIN_EDGES``.  The paper scale (10/21/12) and 30/120/60
    stay dense, and wide Gram sides (K18 with its triangles: 153 edges,
    V + T of 318 or 834) keep dense couplings.
    """
    return num_edges >= min_edges and 3 * width <= 2 * num_edges


def _factored_couplings(sc: SimplicialComplex2) -> bool:
    """Whether runs on ``sc`` apply their couplings through b1 and b2."""
    return _factored(sc.num_edges, sc.num_vertices + sc.num_triangles, _COUPLINGS_MIN_EDGES)


@dataclass(frozen=True)
class _IncidenceCombine:
    """Uniform combination weights applied through the unsigned incidence.

    Two edges of a simple graph share at most one vertex, so with
    A = |b1| the matrix A.T @ A - I is the closed line-graph neighborhood,
    whose row sums ``size`` are deg(u) + deg(v) - 1 for an edge (u, v).
    ``self @ psi`` is therefore ``(A.T @ (A @ psi) - psi) / size``, which
    equals ``combination_weights(line_graph(sc), "uniform") @ psi`` up to
    rounding.  ``unsigned`` is (V, E) and ``size`` (E, 1), or (g, 1, V, E)
    and (g, 1, E, 1) for runs that each drew their own complex.
    """

    unsigned: np.ndarray
    size: np.ndarray

    @classmethod
    def of(cls, unsigned: np.ndarray) -> "_IncidenceCombine":
        degree = unsigned.sum(axis=-1, keepdims=True)
        return cls(unsigned, unsigned.swapaxes(-1, -2) @ degree - 1.0)

    @property
    def nbytes(self) -> int:
        return self.unsigned.nbytes + self.size.nbytes

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        out = self.unsigned.swapaxes(-1, -2) @ (self.unsigned @ psi)
        out -= psi
        out /= self.size
        return out


def _combine_operator(
    rule: str, sc: SimplicialComplex2, inc: IncidencePair
) -> np.ndarray | _IncidenceCombine:
    """The combine step's operator on ``sc``: an ``_IncidenceCombine`` for
    the uniform rule above the size rule, else the dense (E, E) weights."""
    if rule == "uniform" and _factored(sc.num_edges, sc.num_vertices, _COMBINE_MIN_EDGES):
        return _IncidenceCombine.of(np.abs(inc.b1).astype(float))
    return combination_weights(line_graph(sc), rule)


def _slots(specs: Sequence[VariantSpec]) -> list[VariantSpec]:
    """The variants of ``specs`` (in ``VARIANTS`` order) whose coupling
    matrix a run with dense couplings keeps, in slot order: every
    matrix-coupled distributed variant, then centralized_cmrf unless
    atc_cmrf, whose omega it reads, is configured."""
    slots = [s for s in specs
             if (s.uses_lower_term or s.uses_upper_term) and not s.is_centralized]
    if specs[-1].is_centralized and specs[0].name != "atc_cmrf":
        slots.append(specs[-1])
    return slots


@dataclass(frozen=True)
class _DenseCouplings:
    """A round's coupled products through E x E matrices (dense coupling slots).

    ``slots`` (g, nm, E, E) weigh the distributed variants' coupled rows,
    and ``omega`` (g, E, E), or None, the centralized residual.
    """

    slots: np.ndarray
    omega: np.ndarray | None

    @classmethod
    def of(cls, mats, slots, central) -> "_DenseCouplings":
        """From the runs' coupling matrices (g, len(slots), E, E), one per
        variant of ``slots`` (see ``_slots``).  When ``central``, omega is
        the slot that holds the full precision."""
        nm = sum(not s.is_centralized for s in slots)
        full = [s.uses_lower_term and s.uses_upper_term for s in slots]
        return cls(mats[:, :nm], mats[:, full.index(True)] if central else None)

    def __call__(self, residual, residual_c):
        """The weighted coupled rows: (g, nm, E) of the first nm rows of the
        distributed ``residual`` (g, V, E), and (g, E, 1) of the
        centralized ``residual_c`` (g, E), or None."""
        nm = self.slots.shape[1]
        weighted = (self.slots @ residual[:, :nm, :, None])[..., 0]
        return weighted, None if residual_c is None else self.omega @ residual_c[..., None]


@dataclass(frozen=True)
class _IncidenceCouplings:
    """A round's coupled products through a shared complex's float incidence.

    Each coupling factors through the Hodge structure,

        omega_v @ r = k*r - b1.T @ (d_v * (b1 @ r)) - b2 @ (d_t * (b2.T @ r)),

    so the coupled rows of every run and variant go through one product
    per factor and direction, and no E x E matrix is read.  ``b1`` (V, E)
    and ``b2`` (E, T) belong to the complex the runs share, and ``k`` is
    (g, 1, 1).  ``lower`` (g, c, V) and ``upper`` (g, c, T) hold each
    row's d_v and d_t, zero for a term its variant drops (atc_lgmrf's
    upper term).  Each product runs per run with the shapes of a single
    run, so the result does not depend on g; it equals the dense product
    up to rounding.
    """

    b1: np.ndarray
    b2: np.ndarray
    k: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def of(cls, factors, k, coefficients, specs) -> "_IncidenceCouplings":
        """From the float (b1, b2), the runs' k (g, 1, 1) and (d_v, d_t),
        and the coupled rows' variants in row order."""
        d_v, d_t = (np.stack(d)[:, None] for d in zip(*coefficients))
        lower = np.array([[float(s.uses_lower_term)] for s in specs])
        upper = np.array([[float(s.uses_upper_term)] for s in specs])
        return cls(*factors, k, d_v * lower, d_t * upper)

    def __call__(self, residual, residual_c):
        """As ``_DenseCouplings.__call__``; the centralized row goes last."""
        nm = self.lower.shape[1] - (residual_c is not None)
        rows = residual[:, :nm]
        if residual_c is not None:
            rows = np.concatenate([rows, residual_c[:, None]], axis=1)
        lower = rows @ self.b1.T
        lower *= self.lower
        upper = rows @ self.b2
        upper *= self.upper
        out = self.k * rows
        out -= lower @ self.b1
        out -= upper @ self.b2.T
        return out[:, :nm], None if residual_c is None else out[:, nm, :, None]


def _round(theta, theta_c, regressors, observations, couplings, k, steps, central_steps,
           combine, num_combined):
    """One round for a stack of runs: the distributed variants adapt then
    combine, and the centralized one takes its gradient step.

    ``theta`` is (g, V, E, m) for g runs and V distributed variants,
    ``theta_c`` (g, m), or None without a centralized variant,
    ``regressors`` (g, E, m) and ``observations`` (g, E).  ``couplings``
    weighs the residuals of the first nm distributed variants and of the
    centralized one in one call (``_DenseCouplings`` or
    ``_IncidenceCouplings``); the other distributed variants weigh theirs
    with k*I as the scalar ``k`` of shape (g, 1, 1).  ``steps`` is
    (g, V, 1, 1) and ``central_steps`` (g, 1).  The first ``num_combined``
    variants are mixed by ``combine``: dense weights, (E, E) or
    (g, 1, E, E), or an ``_IncidenceCombine``.  Returns the new ``theta``
    and ``theta_c``.
    """
    residual = observations[:, None] - np.einsum("rem,rvem->rve", regressors, theta)
    residual_c = None
    if theta_c is not None:
        residual_c = observations - (regressors @ theta_c[..., None])[..., 0]
    coupled, coupled_c = couplings(residual, residual_c)
    nm = coupled.shape[1]
    weighted = np.empty_like(residual)
    weighted[:, :nm] = coupled
    weighted[:, nm:] = k * residual[:, nm:]
    psi = theta + steps * weighted[..., None] * regressors[:, None]
    if num_combined:
        psi[:, :num_combined] = combine @ psi[:, :num_combined]
    if theta_c is not None:
        grad = regressors.swapaxes(-1, -2) @ coupled_c
        theta_c = theta_c + central_steps * grad[..., 0]
    return psi, theta_c


_DEFAULT_VARIANTS = tuple(VARIANTS)


def _check_int(name: str, value, low: int) -> None:
    if not _is_int(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_real(name: str, value) -> None:
    if not _is_number(value) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


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
        variants = self.variants
        if not isinstance(variants, (list, tuple)) or not all(
            isinstance(v, str) for v in variants
        ):
            raise ValueError(f"variants must be a list of names, got {variants!r}")
        if not variants or len(set(variants)) != len(variants):
            raise ValueError(
                f"variants must name at least one variant, each once, got {variants!r}"
            )
        object.__setattr__(self, "variants", tuple(variants))
        for v in self.variants:
            get_variant(v)
        for name in ("num_runs", "num_iterations", "steady_state_window",
                     "num_workers", "num_vertices", "dim"):
            _check_int(name, getattr(self, name), 1)
        _check_int("seed", self.seed, 0)
        _check_int("num_triangles", self.num_triangles, 0)
        if self.num_edges is not None:
            _check_int("num_edges", self.num_edges, 0)
        if self.er_probability is not None:
            _check_real("er_probability", self.er_probability)
        for name in ("k_margin", "step_size"):
            _check_real(name, getattr(self, name))
        _check_real("regressor_variance", self.regressor_variance)
        if self.regressor_variance <= 0:
            raise ValueError("regressor_variance must be positive")
        for name in ("dv_bounds", "dt_bounds"):
            bounds = getattr(self, name)
            if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
                raise ValueError(f"{name} must be a pair [low, high], got {bounds!r}")
            for x in bounds:
                _check_real(name, x)
            object.__setattr__(self, name, tuple(float(x) for x in bounds))
            _check_bounds(name, *getattr(self, name))
        if not isinstance(self.step_size_overrides, Mapping):
            raise ValueError(
                "step_size_overrides must map variant names to step sizes, "
                f"got {self.step_size_overrides!r}"
            )
        for v, mu in self.step_size_overrides.items():
            if not isinstance(v, str):
                raise ValueError(f"step_size_overrides keys must be names, got {v!r}")
            get_variant(v)
            _check_real(f"step_size_overrides[{v!r}]", mu)
        object.__setattr__(
            self, "step_size_overrides", dict(self.step_size_overrides)
        )
        if self.combine_rule not in ("uniform", "metropolis"):
            raise ValueError(f"unknown combination rule: {self.combine_rule!r}")
        if self.complex_file is not None and not isinstance(self.complex_file, str):
            raise ValueError(f"complex_file must be a path string, got {self.complex_file!r}")
        if not isinstance(self.resample_complex, bool):
            raise ValueError(
                f"resample_complex must be true or false, got {self.resample_complex!r}"
            )

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
    diverged: tuple[str, ...] = ()


def step_sizes(prec: EdgePrecision, config: ExperimentConfig) -> dict[str, float]:
    """Per-variant step sizes matched for comparable convergence rate.

    The configured step applies to atc_cmrf unchanged.  Every other
    variant is scaled by the ratio of mean coupling diagonals, i.e.
    mu_v = mu * (trace(omega)/|E|) / (trace(omega_v)/|E|); the
    centralized update aggregates all edges, so its denominator is the
    full trace and mu_c is roughly mu / |E|.  Entries in
    ``step_size_overrides`` replace the matched value.  The traces of a
    built precision are read off its coefficients (``model._diagonals``),
    with the bits of the assembled matrices, and no E x E matrix is formed.
    """
    ne = prec.num_edges
    full, lower, upper = _diagonals(prec)
    # trace(omega_v) by (uses_lower_term, uses_upper_term), as coupling_matrix picks omega_v
    traces = {(True, True): full.sum(), (True, False): lower.sum(),
              (False, True): upper.sum(), (False, False): np.full(ne, prec.k).sum()}
    reference = traces[True, True] / ne
    out = {}
    for name in config.variants:
        spec = get_variant(name)
        trace = traces[spec.uses_lower_term, spec.uses_upper_term]
        scale = trace if spec.is_centralized else trace / ne
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


# Bytes that one batch of runs may hold besides the result curves: the
# per-run arrays (twice, while they are stacked) and the block of random
# draws.  One run at 120 edges or more fills it, so such runs go through
# one at a time; memory does not grow with the number of iterations, and
# each buffer stays small next to the resident size of the process.
_BATCH_BYTES = 1 << 20
# Fewest rounds drawn per block of the random streams.
_MIN_BLOCK = 16


def _stacked(combines: Sequence[np.ndarray | _IncidenceCombine]):
    """The runs' own combine operators stacked along a leading run axis."""
    if isinstance(combines[0], _IncidenceCombine):
        return _IncidenceCombine.of(np.stack([c.unsigned for c in combines])[:, None])
    return np.stack(combines)[:, None]


@dataclass(frozen=True)
class _Run:
    """One run after its set-up, its generator positioned for the stream.

    ``mats`` stacks the run's (E, E) matrices: the noise Cholesky factor
    and one coupling matrix per slot (see ``_slots``).  A run on a shared
    complex above the couplings' size rule (``_factored_couplings``) keeps
    no coupling matrix but ``coefficients``, its (d_v, d_t), and its
    rounds apply the couplings through the shared incidence
    (``_IncidenceCouplings``).  When the run drew its own complex and a
    configured variant combines, ``combine`` is its own combine operator
    (see ``_combine_operator``).
    """

    rng: np.random.Generator
    theta0: np.ndarray
    k: float
    steps: dict[str, float]
    mats: np.ndarray
    coefficients: tuple[np.ndarray, np.ndarray] | None = None
    combine: np.ndarray | _IncidenceCombine | None = None

    @property
    def num_edges(self) -> int:
        return self.mats.shape[-1]

    @property
    def nbytes(self) -> int:
        """Bytes the run takes in a batch: its arrays, counted twice for
        the stacked copy, and the shortest block of its random stream."""
        held = self.mats.nbytes
        if self.coefficients is not None:
            held += sum(d.nbytes for d in self.coefficients)
        if self.combine is not None:
            held += self.combine.nbytes
        return 2 * held + _MIN_BLOCK * _row_bytes(self.num_edges, self.theta0.shape[0])


def _row_bytes(num_edges: int, dim: int) -> int:
    """Bytes per run and round of a block: draws, noise and observations."""
    return 8 * (num_edges * dim + 3 * num_edges)


def _setup_run(
    config: ExperimentConfig,
    sc: SimplicialComplex2 | None,
    run_seed: np.random.SeedSequence,
    slots: Sequence[VariantSpec],
    combines: bool,
) -> _Run:
    """Draw a run's complex (when resampled), coefficients and ground truth.

    The run's stream draws, in order, its complex (when resampled), its
    coefficients through draw_params and theta0; build_precision and
    covariance_cholesky of the drawn model give its noise factor and the
    coupling matrices of ``slots``.  A run on the shared ``sc`` above the
    couplings' size rule keeps its coefficients in place of those
    matrices.  A run that draws its own complex keeps dense coupling
    slots, and builds its combine operator when ``combines`` (some
    configured variant combines).
    """
    rng = np.random.default_rng(run_seed)
    own_complex = sc is None
    if own_complex:
        sc = _sample_complex(config, rng)
    inc = incidence(sc)
    params = draw_params(inc, rng, dv_bounds=config.dv_bounds, dt_bounds=config.dt_bounds,
                         margin=config.k_margin)
    prec = build_precision(inc, params)
    noise = covariance_cholesky(prec)
    theta0 = rng.standard_normal(config.dim)
    combine = _combine_operator(config.combine_rule, sc, inc) if own_complex and combines else None
    coefficients = None
    if not own_complex and _factored_couplings(sc):
        mats, coefficients = noise[None], (params.d_v, params.d_t)
    else:
        mats = np.stack([noise, *(coupling_matrix(prec, spec) for spec in slots)])
    return _Run(rng=rng, theta0=theta0, k=prec.k, steps=step_sizes(prec, config),
                mats=mats, coefficients=coefficients, combine=combine)


def _simulate_group(
    config: ExperimentConfig,
    specs: Sequence[VariantSpec],
    slots: Sequence[VariantSpec],
    runs: Sequence[_Run],
    combine: np.ndarray | _IncidenceCombine | None,
    factors: tuple[np.ndarray, np.ndarray] | None,
    out: np.ndarray,
) -> None:
    """Advance consecutive runs that share an edge count; write their MSD curves.

    ``specs`` are the configured variants in ``VARIANTS`` order, so the
    first ``nm`` weigh residuals with their coupling matrix, the first
    ``nc`` combine, the first ``nd`` are distributed and a centralized
    one may follow; ``slots`` are the runs' coupling slots (``_slots``).
    Every round is a fixed handful of numpy calls whatever the number of
    runs and variants, with one coupled product for every coupled row
    (see ``_DenseCouplings`` and ``_IncidenceCouplings``).  Each product
    runs per (run, variant), or through the incidence per run, with the
    shapes of a single run, so the curves do not depend on how runs are
    grouped.  ``combine`` and ``factors`` are the shared complex's combine
    operator and float (b1, b2): None when each run carries its own
    combine operator or none combines, and when the runs keep dense
    coupling slots.  ``out[j, i]`` gets the curve of ``specs[j]`` in run
    ``runs[i]``.
    """
    g, ne, m = len(runs), runs[0].num_edges, config.dim
    nd = sum(not s.is_centralized for s in specs)
    nm = sum(s.uses_lower_term or s.uses_upper_term for s in specs[:nd])
    nc = sum(s.uses_combination for s in specs[:nd])
    central = nd < len(specs)
    if nc and combine is None:
        combine = _stacked([r.combine for r in runs])
    # a lone run (large complexes) is used in place, without a copy
    mats = runs[0].mats[None] if g == 1 else np.stack([r.mats for r in runs])
    chol = mats[:, 0]
    k = np.array([r.k for r in runs])[:, None, None]
    if factors is not None:
        couplings = _IncidenceCouplings.of(factors, k, [r.coefficients for r in runs],
                                           [*specs[:nm], *specs[nd:]])
    else:
        couplings = _DenseCouplings.of(mats[:, 1:], slots, central)
    theta0 = np.stack([r.theta0 for r in runs])
    steps = np.array([[r.steps[s.name] for s in specs] for r in runs])
    dist_steps = steps[:, :nd, None, None]
    theta = np.zeros((g, nd, ne, m))
    theta_c = np.zeros((g, m)) if central else None
    central_steps = steps[:, nd:]

    spare = max(0, _BATCH_BYTES - sum(r.nbytes for r in runs))
    block = min(config.num_iterations, _MIN_BLOCK + spare // (g * _row_bytes(ne, m)))
    draws = np.empty((g, block, ne * m + ne))
    scale = np.sqrt(config.regressor_variance)
    for start in range(0, config.num_iterations, block):
        stop = min(start + block, config.num_iterations)
        buf = draws[:, :stop - start]
        for i, r in enumerate(runs):
            r.rng.standard_normal(out=buf[i])
        regressors, observations = _measure(buf, ne, scale, chol, theta0)
        for t in range(stop - start):
            u, y = regressors[:, t], observations[:, t]
            theta, theta_c = _round(theta, theta_c, u, y, couplings, k, dist_steps,
                                    central_steps, combine, nc)
            if nd:
                err = theta - theta0[:, None, None]
                msd = (err * err).reshape(g, nd, ne * m).sum(axis=-1) / ne
                out[:nd, :, start + t] = msd.T
            if central:
                err = theta_c - theta0
                out[nd, :, start + t] = (err[:, None] @ err[..., None])[:, 0, 0]


def _run_chunk(
    config: ExperimentConfig,
    sc: SimplicialComplex2 | None,
    run_seeds: Sequence[np.random.SeedSequence],
) -> np.ndarray:
    """MSD curves (variants, runs, iterations) of consecutive runs.

    Rows follow ``VARIANTS`` order, restricted to ``config.variants``.
    Runs are set up one at a time in seed order and simulated in
    batches of consecutive runs; a batch closes when its matrices fill
    the byte budget, at the last run, or before a run whose edge count
    differs from the batch's.
    """
    specs = [spec for name, spec in VARIANTS.items() if name in config.variants]
    slots = _slots(specs)
    combines = any(s.uses_combination for s in specs)
    combine = factors = None
    if sc is not None:
        inc = incidence(sc)
        if combines:
            combine = _combine_operator(config.combine_rule, sc, inc)
        if slots and _factored_couplings(sc):
            factors = inc.b1.astype(float), inc.b2.astype(float)
        del inc  # the integer incidence (0.8 MB at 400 edges) is not kept through the runs
    out = np.empty((len(specs), len(run_seeds), config.num_iterations))
    # only ``batch`` holds the runs, so each is freed once simulated
    batch: list[_Run] = []
    for i, seed in enumerate(run_seeds):
        batch.append(_setup_run(config, sc, seed, slots, combines))
        if batch[-1].num_edges != batch[0].num_edges:
            _simulate_group(config, specs, slots, batch[:-1], combine, factors,
                            out[:, i + 1 - len(batch):i])
            del batch[:-1]
        if sum(r.nbytes for r in batch) >= _BATCH_BYTES or i + 1 == len(run_seeds):
            _simulate_group(config, specs, slots, batch, combine, factors,
                            out[:, i + 1 - len(batch):i + 1])
            batch = []
    return out


def _diverged(curve: np.ndarray, window: int) -> bool:
    """True when a mean MSD curve is not finite or ends above its start.

    The slack of 1e-9 absorbs the rounding of the window mean, so that a
    flat curve (step size 0) does not count as growing.
    """
    if not np.isfinite(curve).all():
        return True
    return bool(curve[-window:].mean() > curve[0] * (1.0 + 1e-9))


def run_experiment(config: ExperimentConfig) -> MsdResult:
    """Run the Monte Carlo comparison described by ``config``.

    Returns mean and standard deviation of the MSD across runs for every
    variant, the steady-state level in dB (the mean curve averaged over
    the trailing ``steady_state_window`` iterations) and the variants
    whose mean curve diverged: not finite, or a steady state above the
    first iteration.  Results are bitwise identical for a fixed seed
    whether runs execute serially or in contiguous chunks on a process
    pool.
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

    # a diverging variant overflows; it is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        workers = min(config.num_workers, config.num_runs)
        if workers > 1:
            bounds = [config.num_runs * w // workers for w in range(workers + 1)]
            msd = np.empty(
                (len(config.variants), config.num_runs, config.num_iterations)
            )
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                chunks = [
                    pool.submit(_run_chunk, config, sc, run_seeds[a:b])
                    for a, b in zip(bounds, bounds[1:])
                ]
                for a, b, chunk in zip(bounds, bounds[1:], chunks):
                    msd[:, a:b] = chunk.result()
        else:
            msd = _run_chunk(config, sc, run_seeds)

        rows = dict(zip((v for v in VARIANTS if v in config.variants), msd))
        window = min(config.steady_state_window, config.num_iterations)
        msd_mean, msd_std, steady = {}, {}, {}
        for v in config.variants:
            stack = rows[v]  # (runs, iterations)
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
        diverged=tuple(v for v in config.variants if _diverged(msd_mean[v], window)),
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
