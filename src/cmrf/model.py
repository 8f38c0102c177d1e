"""Structured Gaussian models for edge signals and their colored graphs.

The precision matrix of an edge signal on a 2-complex is assembled from
the signed incidence matrices and one nonnegative coefficient per vertex
and per triangle:

    omega   = k*I - b1.T @ diag(d_v) @ b1 - b2 @ diag(d_t) @ b2.T
    omega_d = k*I - b1.T @ diag(d_v) @ b1
    omega_u = k*I - b2 @ diag(d_t) @ b2.T

The three matrices satisfy, exactly in exact arithmetic,

    omega = omega_d + omega_u - k*I
    k * omega = omega_d @ omega_u = omega_u @ omega_d
    inv(omega) = inv(omega_u) + inv(omega_d) - (1/k) * I

where the product and inverse rules rely on b1 @ b2 == 0.  All three are
positive definite iff k exceeds the largest eigenvalue of the subtracted
part, lambda_max.  In double precision one rule decides whether k is
admissible: the smallest eigenvalue of omega, k - lambda_max, must exceed
the floor 1e-9 * k.  :func:`build_precision` applies it, and
:func:`min_valid_k` refuses a margin that would not clear it.

The colored graph of the model has the edges of the complex as nodes and
two link colors read off the symbolic support of the coupling terms: a
lower link joins two edges sharing a vertex u with d_v[u] != 0, an upper
link joins two edges lying in a common triangle t with d_t[t] != 0.  The
support of omega is contained in the union of the two colors; strict
inclusion happens only when lower and upper contributions cancel exactly,
which :func:`find_cancellations` reports.

:func:`build_precision` returns frozen matrices, read-only over immutable
bytes.  That lets one module-level slot keep the covariance of the last
built precision a check asked for (``_shared_covariance``): the same
living precision object with the same frozen omega cannot have changed.
Every reader of inv(omega) in the package goes through that slot (the
independence checks, the singleton scan, :func:`identity_residuals` and
:func:`covariance_cholesky`), so one rule holds for all of them: a built
precision is inverted once while it is the last one checked, its
covariance dies with it, and a precision built by hand from ordinary
arrays is inverted on every call.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .simplicial import IncidencePair, SimplicialComplex2, incidence, load_complex
from .simplicial import _is_list_of, _is_number, _read_document, _shared_face_pairs

__all__ = [
    "SgmParams",
    "EdgePrecision",
    "CmrfGraph",
    "min_valid_k",
    "build_precision",
    "covariance",
    "covariance_cholesky",
    "identity_residuals",
    "build_cmrf",
    "find_cancellations",
    "sample",
    "draw_params",
    "save_model",
    "load_model",
]

# A precision matrix counts as positive definite when its smallest
# eigenvalue exceeds this fraction of k: the one admissibility rule for k.
_PD_RTOL = 1e-9

# An off-diagonal entry of omega counts as an exact cancellation when it
# is this small relative to the coupling magnitudes that formed it.
_CANCEL_RTOL = 1e-12


def _coefficients(values) -> np.ndarray:
    """Coupling coefficients as a float array; NaN, inf and negatives are refused."""
    d = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(d) & (d >= 0)):
        raise ValueError("coupling coefficients must be finite and nonnegative")
    return d


@dataclass(frozen=True)
class SgmParams:
    """Coefficients (k, d_v, d_t) of a structured edge-signal model.

    d_v has one nonnegative entry per vertex, d_t one per triangle, both
    in the canonical order of the complex.
    """

    k: float
    d_v: np.ndarray
    d_t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d_v", _coefficients(self.d_v))
        object.__setattr__(self, "d_t", _coefficients(self.d_t))
        if not np.isfinite(self.k) or self.k <= 0:
            raise ValueError("k must be positive and finite")


@dataclass(frozen=True)
class EdgePrecision:
    """The precision matrix of an edge signal and its two factors.

    build_precision returns the three matrices frozen: read-only copies
    over immutable bytes, which numpy refuses to make writeable again, so
    a built precision stays the matrix it was checked and inverted as.
    """

    omega: np.ndarray
    omega_d: np.ndarray
    omega_u: np.ndarray
    k: float

    @property
    def num_edges(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class CmrfGraph:
    """Colored conditional-dependence graph over the edges of a complex.

    Nodes are edge indices 0..num_nodes-1; links are unordered index
    pairs (i, j) with i < j.  A pair may carry both colors.  The union of
    the link sets and the adjacency of each link set are built on first
    use and kept with the graph; they are not fields, so construction
    and equality see only the three fields.
    """

    num_nodes: int
    lower_links: frozenset[tuple[int, int]]
    upper_links: frozenset[tuple[int, int]]

    @cached_property
    def links(self) -> frozenset[tuple[int, int]]:
        return self.lower_links | self.upper_links

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors of each node along links of either color."""
        return _neighbors(self.num_nodes, self.links)

    @cached_property
    def _lower_adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _neighbors(self.num_nodes, self.lower_links)

    @cached_property
    def _upper_adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _neighbors(self.num_nodes, self.upper_links)


def _neighbors(num_nodes: int,
               links: frozenset[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Neighbors of each node 0..num_nodes-1 along the given links.

    Tuples, not sets: a graph keeps three of these, and at 400 edges
    tuples take about a sixth of the memory of frozensets.
    """
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for i, j in links:
        adj[i].append(j)
        adj[j].append(i)
    return tuple(map(tuple, adj))


def _check_params(inc: IncidencePair, params: SgmParams) -> None:
    nv, ne = inc.b1.shape
    nt = inc.b2.shape[1]
    if params.d_v.shape != (nv,):
        raise DimensionMismatch(
            f"d_v has shape {params.d_v.shape}, expected ({nv},)"
        )
    if params.d_t.shape != (nt,):
        raise DimensionMismatch(
            f"d_t has shape {params.d_t.shape}, expected ({nt},)"
        )


def _coupling_parts(
    inc: IncidencePair, d_v: np.ndarray, d_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return (a_d, a_u), the lower and upper coupling matrices.

    Raises ValueError when the complex has no edges: there is no edge
    signal to model, and every k and every precision passes through here.
    """
    if inc.b1.shape[1] == 0:
        raise ValueError("the complex has an empty edge set: a model needs at least one edge")
    b1 = inc.b1.astype(float)
    b2 = inc.b2.astype(float)
    a_d = b1.T @ (d_v[:, None] * b1)
    a_u = (b2 * d_t) @ b2.T
    # Enforce exact symmetry so eigensolvers and bitwise comparisons
    # downstream never see BLAS rounding asymmetry.
    a_d = 0.5 * (a_d + a_d.T)
    a_u = 0.5 * (a_u + a_u.T)
    return a_d, a_u


def min_valid_k(
    inc: IncidencePair,
    d_v: np.ndarray,
    d_t: np.ndarray,
    margin: float = 0.1,
) -> float:
    """Smallest admissible k for the given couplings, plus a margin.

    Returns lambda_max(a_d + a_u) + margin.  Raises ValueError when the
    complex has no edges, and when a positive margin does not clear the
    floor 1e-9 * k of build_precision, as when a huge lambda_max absorbs
    it.  Margin 0 returns lambda_max; a negative margin is left for
    build_precision to refuse.
    """
    a_d, a_u = _coupling_parts(inc, _coefficients(d_v), _coefficients(d_t))
    lam_max = float(np.linalg.eigvalsh(a_d + a_u)[-1])
    k = lam_max + margin
    if 0 < margin < np.inf and k - lam_max <= _PD_RTOL * k:
        raise ValueError(
            f"coefficients too large for the margin: lambda_max={lam_max:.6g} "
            f"needs a margin above the floor {_PD_RTOL:g}*k = {_PD_RTOL * k:.3g}, "
            f"got {margin:g}"
        )
    return k


def build_precision(inc: IncidencePair, params: SgmParams) -> EdgePrecision:
    """Assemble (omega, omega_d, omega_u) and verify positive definiteness.

    Raises NotPositiveDefinite when the smallest eigenvalue of omega is
    not above the floor 1e-9 * k, decided by a Cholesky factorization of
    omega - 1e-9 * k * I; omega_d and omega_u are then automatically
    positive definite as well.  The three matrices come back frozen
    (see EdgePrecision).
    """
    _check_params(inc, params)
    a_d, a_u = _coupling_parts(inc, params.d_v, params.d_t)
    ne = inc.b1.shape[1]
    k_eye = params.k * np.eye(ne)
    omega = k_eye - a_d - a_u

    try:
        np.linalg.cholesky(omega - _PD_RTOL * k_eye)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(omega)[0])
        lam_max = float(np.linalg.eigvalsh(a_d + a_u)[-1])
        need = (f"need k > {lam_max:.6g}" if params.k <= lam_max else
                f"need it above the floor {_PD_RTOL:g}*k = {_PD_RTOL * params.k:.3e}")
        raise NotPositiveDefinite(
            f"k={params.k:.6g} gives smallest eigenvalue {lam_min:.3e}; {need}"
        ) from None
    # one matrix and its frozen copy at a time: the copies would
    # otherwise raise the peak memory of a build by three E x E arrays
    omega = _frozen(omega)
    omega_d = _frozen(k_eye - a_d)
    omega_u = _frozen(k_eye - a_u)
    return EdgePrecision(omega=omega, omega_d=omega_d, omega_u=omega_u, k=params.k)


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """A read-only copy of matrix over immutable bytes, which no flag can unlock."""
    return np.frombuffer(matrix.tobytes(), dtype=matrix.dtype).reshape(matrix.shape)


def _is_frozen(array: np.ndarray) -> bool:
    """True when array's memory is an immutable bytes object, as _frozen makes it."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes)


def covariance(prec: EdgePrecision) -> np.ndarray:
    """The covariance matrix inv(omega), inverted afresh.

    The package's own readers take it from _shared_covariance, which
    calls this on a miss.
    """
    return np.linalg.inv(prec.omega)


# (weak reference to a precision, its omega, inv(omega)) for the last
# precision with a frozen omega that _shared_covariance was asked for.  A
# reader takes the tuple once and checks it against its own precision, so
# a concurrent writer can cost a lost entry, never a wrong covariance.
_slot: tuple[weakref.ref, np.ndarray, np.ndarray] | None = None


def _empty_slot(ref: weakref.ref) -> None:
    """Drop the kept covariance once its precision is collected."""
    global _slot
    if _slot is not None and _slot[0] is ref:
        _slot = None


def _shared_covariance(prec: EdgePrecision) -> np.ndarray:
    """covariance(prec), kept in one slot for the next call on the same model.

    The slot answers only for the same, still living precision object
    whose omega is the same frozen array as before, so its contents
    cannot have changed; any other precision is inverted afresh and,
    when its omega is frozen, replaces the slot.  At most one E x E
    covariance is kept, and none beyond the life of its precision.
    """
    global _slot
    omega = prec.omega
    slot = _slot
    if slot is not None and slot[0]() is prec and slot[1] is omega:
        return slot[2]
    # free the old covariance first, so that the new one can take its memory
    slot = _slot = None
    cov = covariance(prec)
    if _is_frozen(omega):
        cov.flags.writeable = False
        _slot = (weakref.ref(prec, _empty_slot), omega, cov)
    return cov


def _mean_variance(cov: np.ndarray) -> float:
    """trace(cov)/num_edges, the scale of every covariance tolerance."""
    return float(np.trace(cov)) / cov.shape[0]


def covariance_cholesky(prec: EdgePrecision) -> np.ndarray:
    """Lower Cholesky factor of the covariance, for drawing samples."""
    return np.linalg.cholesky(_shared_covariance(prec))


class IdentityResiduals(NamedTuple):
    """Max-norm residuals of the three precision identities.

    Natural scales for relative comparison are k for the sum rule, k**2
    for the product rule, and ``mean_variance``, trace(cov)/num_edges,
    for the inverse rule.
    """

    sum_rule: float
    product_rule: float
    inverse_rule: float
    mean_variance: float


def identity_residuals(prec: EdgePrecision) -> IdentityResiduals:
    """Evaluate the decomposition identities on a built precision.

    Inverts omega_u and omega_d once each and reads inv(omega) through
    the shared slot.
    """
    k = prec.k
    eye = np.eye(prec.num_edges)
    sum_rule = np.abs(prec.omega - (prec.omega_d + prec.omega_u - k * eye)).max()
    prod = prec.omega_d @ prec.omega_u
    prod_rev = prec.omega_u @ prec.omega_d
    product_rule = max(
        np.abs(k * prec.omega - prod).max(),
        np.abs(k * prec.omega - prod_rev).max(),
    )
    inv_sum = (
        np.linalg.inv(prec.omega_u) + np.linalg.inv(prec.omega_d) - eye / k
    )
    cov = _shared_covariance(prec)
    return IdentityResiduals(
        sum_rule=float(sum_rule),
        product_rule=float(product_rule),
        inverse_rule=float(np.abs(cov - inv_sum).max()),
        mean_variance=_mean_variance(cov),
    )


def build_cmrf(inc: IncidencePair, params: SgmParams) -> CmrfGraph:
    """Read the colored graph off the symbolic support of the couplings.

    Links depend only on the incidence pattern and on which coefficients
    are nonzero, never on float magnitudes, so exact cancellations in
    omega do not remove links.
    """
    _check_params(inc, params)
    lower = _shared_face_pairs(inc.b1, params.d_v != 0)
    upper = _shared_face_pairs(inc.b2.T, params.d_t != 0)
    return CmrfGraph(
        num_nodes=inc.b1.shape[1],
        lower_links=frozenset(map(tuple, lower.tolist())),
        upper_links=frozenset(map(tuple, upper.tolist())),
    )


def find_cancellations(
    inc: IncidencePair, params: SgmParams
) -> list[tuple[int, int]]:
    """Colored links whose coupling in omega cancels to (numerical) zero.

    For such pairs the Gaussian graph of omega is strictly smaller than
    the colored graph; conditional independence statements read off the
    colors are then conservative but still valid.  Pairs come sorted.
    """
    _check_params(inc, params)
    a_d, a_u = _coupling_parts(inc, params.d_v, params.d_t)
    # Two edges share at most one vertex and one triangle, so each
    # off-diagonal entry of a_d and a_u is exactly +-d or 0: scale > 0
    # holds exactly on the colored links.
    lo, up = np.triu(a_d, 1), np.triu(a_u, 1)
    scale = np.maximum(np.abs(lo), np.abs(up))
    rows, cols = np.nonzero((scale > 0) & (np.abs(lo + up) <= _CANCEL_RTOL * scale))
    return list(zip(rows.tolist(), cols.tolist()))  # row-major, so sorted


def sample(
    prec: EdgePrecision, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Draw n zero-mean Gaussian edge signals with covariance inv(omega).

    Returns an array of shape (n, num_edges).  Reproducible for a fixed
    integer seed; pass a Generator to continue an existing stream.
    """
    rng = np.random.default_rng(seed)
    chol = covariance_cholesky(prec)
    z = rng.standard_normal((n, prec.num_edges))
    return z @ chol.T


def draw_params(
    inc: IncidencePair,
    seed: int | np.random.Generator,
    *,
    dv_bounds: tuple[float, float] = (0.2, 5.0),
    dt_bounds: tuple[float, float] = (0.2, 5.0),
    margin: float = 0.1,
    sparsity: float = 0.0,
) -> SgmParams:
    """Draw uniform coupling coefficients and the matching smallest k.

    Coefficients are Uniform(lo, hi) per vertex and per triangle; with
    ``sparsity`` > 0 each coefficient is independently zeroed with that
    probability, which thins the colored graph.  k comes from
    :func:`min_valid_k` with the given margin.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must lie in [0, 1], got {sparsity}")
    rng = np.random.default_rng(seed)
    nv = inc.b1.shape[0]
    nt = inc.b2.shape[1]
    d_v = rng.uniform(dv_bounds[0], dv_bounds[1], size=nv)
    d_t = rng.uniform(dt_bounds[0], dt_bounds[1], size=nt)
    if sparsity > 0.0:
        d_v = np.where(rng.random(nv) < sparsity, 0.0, d_v)
        d_t = np.where(rng.random(nt) < sparsity, 0.0, d_t)
    k = min_valid_k(inc, d_v, d_t, margin)
    return SgmParams(k=k, d_v=d_v, d_t=d_t)


def save_model(
    params: SgmParams, complex_file: str | Path, path: str | Path
) -> None:
    """Write model coefficients plus a reference to the complex document.

    ``complex_file`` is stored as given; relative paths are interpreted
    relative to the model document's directory when loading.
    """
    doc = {
        "k": float(params.k),
        "d_v": [float(x) for x in params.d_v],
        "d_t": [float(x) for x in params.d_t],
        "complex_file": str(complex_file),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_model(path: str | Path) -> tuple[SimplicialComplex2, SgmParams]:
    """Read a model document and the complex it references."""
    path = Path(path)
    doc = _read_document(path, {
        "k": (_is_number, "a number"),
        "d_v": (_is_list_of(_is_number), "a list of numbers"),
        "d_t": (_is_list_of(_is_number), "a list of numbers"),
        "complex_file": (lambda x: isinstance(x, str), "a string"),
    })
    ref = Path(doc["complex_file"])
    if not ref.is_absolute():
        ref = path.parent / ref
    sc = load_complex(ref)
    params = SgmParams(k=float(doc["k"]), d_v=doc["d_v"], d_t=doc["d_t"])
    _check_params(incidence(sc), params)
    return sc, params
