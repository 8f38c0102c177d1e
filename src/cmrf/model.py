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
the floor 5e-8 * k.  :func:`build_precision` applies it, and
:func:`min_valid_k` refuses a margin that would not clear it.

Both rest on the Hodge blocks of the couplings.  With U_d = b1.T @
diag(sqrt(d_v)) (E x V) and U_u = b2 @ diag(sqrt(d_t)) (E x T), the
subtracted parts are U_d @ U_d.T and U_u @ U_u.T, and b1 @ b2 == 0 makes
their ranges orthogonal.  So the spectrum of omega is

    {k - eig(G_d)} + {k - eig(G_u)} + {k},   G_d = U_d.T @ U_d,  G_u = U_u.T @ U_u

lambda_max is the larger top eigenvalue of the V x V and T x T Grams,
and the floor holds iff (1 - 5e-8) * k * I - G is positive definite on
each side.  A Gram wider than E only adds zeros to the spectrum, so this
holds whatever the sizes of V, E and T.

The colored graph of the model has the edges of the complex as nodes and
two link colors read off the symbolic support of the coupling terms: a
lower link joins two edges sharing a vertex u with d_v[u] != 0, an upper
link joins two edges lying in a common triangle t with d_t[t] != 0.  Two
edges share at most one vertex and one triangle, so each off-diagonal
coupling is the signed coefficient of the face a link shares.
``_coupling_parts`` keeps each color as a sparse record: the (L, 2)
links of ``simplicial._shared_face_pairs``, their coefficients and the
diagonal (``_coupling_diagonals``, read off the incidence nonzeros).
:func:`build_cmrf`, :func:`find_cancellations` and the assembly of
omega, omega_d and omega_u read the links and records, and no E x E
incidence product is formed.  So the support of omega lies
within the union of the two colors by construction, strictly only where
lower and upper couplings cancel exactly, which
:func:`find_cancellations` reports.

:func:`build_precision` returns a precision that holds only the Hodge
blocks of the couplings (``_HodgeBlocks``) and frozen copies of d_v and
d_t.  By the Woodbury identity every reader of inv(omega) takes it from
the blocks through ``_covariance_of`` and none inverts an E x E matrix:
the independence checks read only their query's rows and columns, the
singleton scan and :func:`covariance_cholesky` (and so :func:`sample`
and the simulator's noise) the whole matrix, formed per call and not
kept.  omega, omega_d and omega_u are assembled together from the
coupling records on the first read of any of them, read-only over
immutable bytes, and kept.  ``cmrf model check`` and each simulator run
below the size rule for its couplings (``diffusion._factored_couplings``)
read them; ``cmrf model build``, which reads the cancellations
and whether omega is k*I off one coupling record, every ``cmrf verify``
path and the simulator's step sizes (``_diagonals``) form none.  A
simulator run is built, as any model, by :func:`draw_params`,
:func:`build_precision` and :func:`covariance_cholesky`.  A
precision built by hand has no blocks and is inverted on every call;
:func:`covariance` and :func:`identity_residuals` (``cmrf model check``)
stay on the dense ``np.linalg.inv(omega)``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .simplicial import IncidencePair, SimplicialComplex2, load_complex
from .simplicial import _is_list_of, _is_number, _json_text, _read_document, _shared_face_pairs

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
# The eigenvalues of omega, omega_d and omega_u all lie in
# (_PD_RTOL * k, k], so it caps each condition number at 2e7.
_PD_RTOL = 5e-8

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


# The E x E matrices of a precision, which a built one forms on first read,
# one thread at a time.
_MATRICES = ("omega", "omega_d", "omega_u")
_FORMING = threading.Lock()


@dataclass(frozen=True)
class EdgePrecision:
    """The precision matrix of an edge signal and its two factors.

    build_precision returns a precision that holds, in a private field
    left out of construction, comparison and repr, the Hodge blocks that
    answer inv(omega), and forms the three matrices together on the
    first read of any of them: read-only copies over immutable bytes,
    which numpy refuses to make writeable again, kept for every later
    read.  A precision constructed or copied (``dataclasses.replace``)
    holds its matrices and no blocks.
    """

    omega: np.ndarray
    omega_d: np.ndarray
    omega_u: np.ndarray
    k: float
    _blocks: _HodgeBlocks | None = field(default=None, init=False, repr=False,
                                         compare=False)

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: on a built
        # precision, the three matrices until the first read of one
        if name in _MATRICES and self._blocks is not None:
            with _FORMING:
                if name not in self.__dict__:  # or another thread formed them
                    for key, matrix in zip(_MATRICES, _assemble(self.k, self._blocks)):
                        object.__setattr__(self, key, matrix)
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def num_edges(self) -> int:
        blocks = self._blocks
        return self.omega.shape[0] if blocks is None else blocks.b1.shape[1]


# The link sets of a graph from build_cmrf, formed on first read.
_LINK_SETS = ("lower_links", "upper_links")


@dataclass(frozen=True)
class CmrfGraph:
    """Colored conditional-dependence graph over the edges of a complex.

    Nodes are edge indices 0..num_nodes-1; links are unordered index
    pairs (i, j) with i < j.  A pair may carry both colors.

    A graph from build_cmrf keeps each color's links as an (L, 2) index
    array (``_pairs``), and forms ``lower_links`` and ``upper_links`` as
    frozensets only on the first read of each; a graph constructed from
    frozensets reads its arrays off them.  Each color's component labels,
    the union component labels and the union adjacency are built from
    the arrays on first use and kept.  None of these is a field:
    construction, equality and hash see only the three fields.
    """

    num_nodes: int
    lower_links: frozenset[tuple[int, int]]
    upper_links: frozenset[tuple[int, int]]

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: on a graph
        # from build_cmrf, a link set until its first read
        pairs = self.__dict__.get("_pairs")
        if name in _LINK_SETS and pairs is not None:
            links = frozenset(map(tuple, pairs[_LINK_SETS.index(name)].tolist()))
            object.__setattr__(self, name, links)
            return links
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @cached_property
    def links(self) -> frozenset[tuple[int, int]]:
        return self.lower_links | self.upper_links

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The (lower, upper) links as (L, 2) index arrays."""
        return tuple(np.array(list(links), dtype=np.intp).reshape(-1, 2)
                     for links in (self.lower_links, self.upper_links))

    @cached_property
    def _labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Per color, the component label of each node (see _components)."""
        return tuple(_components(self.num_nodes, pairs) for pairs in self._pairs)

    @cached_property
    def _union_labels(self) -> list[int]:
        """The component label of each node along links of either color."""
        return _components(self.num_nodes, np.concatenate(self._pairs)).tolist()

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors of each node along links of either color."""
        return _neighbors(self.num_nodes, np.concatenate(self._pairs))


def _components(num_nodes: int, pairs: np.ndarray) -> np.ndarray:
    """Each node's label along the (L, 2) links: the smallest node of its component.

    Min-label propagation with pointer jumping.  Every label is a node
    of the same component and no larger than the node it labels.  Each
    round hooks, for every link whose ends carry different labels, the
    larger label onto the smaller, then points every node at the root
    of its label; it stops when no link joins two labels.  A label that
    survives a round is smaller than every label it shared a link with,
    so each round at least halves the labels of a component.
    """
    labels = np.arange(num_nodes)
    ends = pairs.T
    while True:
        tail, head = labels[ends]
        apart = tail != head
        if not apart.any():
            return labels
        tail, head = tail[apart], head[apart]
        np.minimum.at(labels, np.maximum(tail, head), np.minimum(tail, head))
        while True:
            root = labels[labels]
            if np.array_equal(root, labels):
                break
            labels = root


def _neighbors(num_nodes: int, pairs: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Neighbors of each node 0..num_nodes-1 along the (L, 2) links, ascending.

    A link given twice, in one order or both, counts once.  Tuples, not
    sets: at 400 edges tuples take about a sixth of the memory of
    frozensets.
    """
    codes = np.sort(np.minimum(*pairs.T) * num_nodes + np.maximum(*pairs.T))
    low, high = np.divmod(codes[np.diff(codes, prepend=-1) != 0], num_nodes)
    # each node's lower neighbors, then its higher ones, each ascending
    src, dst = np.concatenate([high, low]), np.concatenate([low, high])
    dst = dst[np.argsort(src, kind="stable")].tolist()
    bounds = np.cumsum(np.bincount(src, minlength=num_nodes)).tolist()
    return tuple(tuple(dst[a:b]) for a, b in zip([0, *bounds], bounds))


def _check_params(params: SgmParams, num_vertices: int, num_triangles: int) -> None:
    if params.d_v.shape != (num_vertices,):
        raise DimensionMismatch(
            f"d_v has shape {params.d_v.shape}, expected ({num_vertices},)"
        )
    if params.d_t.shape != (num_triangles,):
        raise DimensionMismatch(
            f"d_t has shape {params.d_t.shape}, expected ({num_triangles},)"
        )


class _Coupling(NamedTuple):
    """The coupling matrix a_d or a_u of one color as a sparse record (see _coupling_parts)."""

    pairs: np.ndarray
    values: np.ndarray
    diagonal: np.ndarray


# The one overflow rule: a diagonal entry of a_d or a_u at or above this is
# refused.  No entry of a row exceeds its diagonal, so this refuses exactly
# what the dense 0.5 * (a + a.T) overflows on; below it the assembly is finite.
_COUPLING_LIMIT = 2.0 ** 1023
_OVERFLOW = ("the couplings overflow in double precision: the coefficients d_v "
             "and d_t are too large")


def _coupling_parts(
    inc: IncidencePair, d_v: np.ndarray, d_t: np.ndarray
) -> tuple[_Coupling, _Coupling]:
    """The sparse records of a_d and a_u, the lower and upper coupling matrices.

    Per color, ``pairs`` are the (L, 2) links of _shared_face_pairs and
    ``values`` their entries, each the signed coefficient of the one face
    a link shares; ``diagonal`` is the color's part of
    _coupling_diagonals.  Raises ValueError as _coupling_diagonals does.
    """
    parts = []
    for (incmat, d), diagonal in zip(_colors(inc, d_v, d_t),
                                     _coupling_diagonals(inc, d_v, d_t)):
        pairs, faces = _shared_face_pairs(incmat, d != 0)
        values = incmat[faces, pairs[:, 0]] * incmat[faces, pairs[:, 1]] * d[faces]
        parts.append(_Coupling(pairs, values, diagonal))
    return parts[0], parts[1]


def _colors(inc: IncidencePair, d_v: np.ndarray, d_t: np.ndarray):
    """Per color, the (faces, E) incidence and the faces' coefficients."""
    return (inc.b1, d_v), (inc.b2.T, d_t)


def _coupling_diagonals(
    inc: IncidencePair, d_v: np.ndarray, d_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of a_d and a_u: each edge's coefficients summed over its faces.

    The faces are read off the incidence nonzeros in ascending order, so
    no link is formed.  Raises ValueError when the complex has no edges,
    and when a diagonal entry reaches _COUPLING_LIMIT.
    """
    _check_edges(inc)
    ne = inc.b1.shape[1]
    diagonals = []
    for incmat, d in _colors(inc, d_v, d_t):
        # row-major, so each edge's faces ascend
        rows, cols = np.nonzero(incmat)
        diagonals.append(np.bincount(cols, d[rows], minlength=ne))
    if max(float(diagonal.max()) for diagonal in diagonals) >= _COUPLING_LIMIT:
        raise ValueError(_OVERFLOW)
    return diagonals[0], diagonals[1]


def _diagonals(prec: EdgePrecision) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonals of omega, omega_d and omega_u.

    A built precision reads them off its coefficients with the
    arithmetic of _assemble, so they carry the assembled matrices' bits,
    and assembles nothing; a precision without blocks reads its matrices.
    """
    blocks = prec._blocks
    if blocks is None:
        return tuple(np.diagonal(m) for m in (prec.omega, prec.omega_d, prec.omega_u))
    lower, upper = _coupling_diagonals(IncidencePair(blocks.b1, blocks.b2),
                                       *blocks.coefficients)
    k = prec.k
    return (k - lower) - upper, k - lower, k - upper


def _check_edges(inc: IncidencePair) -> None:
    if inc.b1.shape[1] == 0:
        raise ValueError("the complex has an empty edge set: a model needs at least one edge")


class _Side(NamedTuple):
    """One Hodge side of the couplings: lower (vertices) or upper (triangles).

    ``factor`` is U, with U @ U.T the side's E x E coupling matrix:
    U_d = b1.T @ diag(sqrt(d_v)) is E x V and U_u = b2 @ diag(sqrt(d_t))
    is E x T.  ``gram`` is U.T @ U, which shares the coupling's nonzero
    eigenvalues.
    """

    factor: np.ndarray
    gram: np.ndarray


def _sides(inc: IncidencePair, d_v: np.ndarray, d_t: np.ndarray) -> tuple[_Side, _Side]:
    """The lower and upper sides; ValueError without edges or when a Gram overflows."""
    _check_edges(inc)
    factors = (inc.b1.T * np.sqrt(d_v), inc.b2 * np.sqrt(d_t))
    with np.errstate(over="ignore", invalid="ignore"):
        grams = [u.T @ u for u in factors]
    # each Gram finite before an eigensolver sees it
    if not all(np.isfinite(g).all() for g in grams):
        raise ValueError(_OVERFLOW)
    return tuple(map(_Side, factors, grams))


def _spectrum_ends(side: _Side) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of the side's E x E coupling matrix.

    A Gram whose width (V or T) is at least E holds the coupling's E
    eigenvalues and width - E zeros, so the coupling's smallest is the
    Gram's (width - E)-th; a narrower side leaves the coupling singular,
    with smallest eigenvalue 0.  A side of width 0 couples nothing.
    """
    lam = np.linalg.eigvalsh(side.gram)
    ne, width = side.factor.shape
    if width == 0:
        return 0.0, 0.0
    return (float(lam[width - ne]) if width >= ne else 0.0), float(lam[-1])


def _lambda_max(sides: tuple[_Side, _Side]) -> float:
    return max(_spectrum_ends(side)[1] for side in sides)


def _k_minus(k: float, gram: np.ndarray) -> np.ndarray:
    """k*I - gram, without forming an identity.

    Subtracting from 0.0 and then adding k on the diagonal gives the bits
    of ``k * np.eye(n) - gram``, signed zeros included.
    """
    out = np.subtract(0.0, gram)
    out.flat[:: out.shape[0] + 1] += k
    return out


def min_valid_k(
    inc: IncidencePair,
    d_v: np.ndarray,
    d_t: np.ndarray,
    margin: float = 0.1,
) -> float:
    """Smallest admissible k for the given couplings, plus a margin.

    Returns lambda_max(a_d + a_u) + margin, with lambda_max the larger of
    the two sides' top eigenvalues.  Raises ValueError when the complex
    has no edges, when the couplings overflow, and when a positive margin
    does not clear the floor 5e-8 * k of build_precision, as when a huge
    lambda_max absorbs it.  Margin 0 returns lambda_max; a negative
    margin is left for build_precision to refuse.
    """
    lam_max = _lambda_max(_sides(inc, _coefficients(d_v), _coefficients(d_t)))
    k = lam_max + margin
    if 0 < margin < np.inf and k - lam_max <= _PD_RTOL * k:
        raise ValueError(
            f"coefficients too large for the margin: lambda_max={lam_max:.6g} "
            f"needs a margin above the floor {_PD_RTOL:g}*k = {_PD_RTOL * k:.3g}, "
            f"got {margin:g}"
        )
    return k


def _factor_condition_numbers(inc: IncidencePair, params: SgmParams) -> tuple[float, float]:
    """Condition numbers of omega_d and omega_u, read off the block spectra.

    omega_d's eigenvalues are k minus those of a_d, and likewise above.
    """
    k = params.k
    lower, upper = ((k - lo) / (k - hi) for lo, hi in
                    map(_spectrum_ends, _sides(inc, params.d_v, params.d_t)))
    return lower, upper


def build_precision(inc: IncidencePair, params: SgmParams) -> EdgePrecision:
    """Verify positive definiteness and keep what answers the model's queries.

    Raises NotPositiveDefinite when the smallest eigenvalue of omega,
    k - lambda_max, is not above the floor 5e-8 * k.  A Cholesky
    factorization of (1 - 5e-8) * k * I - G on each side decides it, with
    G the side's Gram matrix; omega_d and omega_u are then positive
    definite as well.  The precision holds the Hodge blocks that answer
    inv(omega) and forms its three frozen matrices on first read (see
    EdgePrecision); every error of that assembly is raised here.  A
    passed gate keeps every diagonal of the positive semidefinite a_d and
    a_u under k, so only from k = _COUPLING_LIMIT up are the coupling
    diagonals formed here, for their overflow rule.
    """
    _check_params(params, inc.b1.shape[0], inc.b2.shape[1])
    blocks = _hodge_blocks(inc, params, _sides(inc, params.d_v, params.d_t))
    if params.k >= _COUPLING_LIMIT:
        _coupling_diagonals(inc, params.d_v, params.d_t)
    prec = object.__new__(EdgePrecision)
    object.__setattr__(prec, "k", params.k)
    object.__setattr__(prec, "_blocks", blocks)
    return prec


class _HodgeBlocks(NamedTuple):
    """What a built precision keeps to answer inv(omega), all frozen.

    By the Woodbury identity, inv(k*I - U @ U.T) = I/k + U @ M @ U.T / k
    with M = inv(k*I - U.T @ U), so the inverse rule gives

        inv(omega) = I/k + (U_d @ M_d @ U_d.T + U_u @ M_u @ U_u.T) / k

    ``inverses`` is (M_d, M_u), V x V and T x T.  U_d = b1.T @
    diag(roots[0]) and U_u = b2 @ diag(roots[1]) are formed from the
    int8 incidence when read, so no E x E or E x (V + T) float array is
    kept.  ``mean_variance`` is trace(inv(omega))/E, which is
    (E + sum(M_d * G_d) + sum(M_u * G_u)) / (k * E).  ``coefficients``
    is (d_v, d_t), whose coupling records the matrices are scattered from.
    """

    b1: np.ndarray
    b2: np.ndarray
    roots: tuple[np.ndarray, np.ndarray]
    inverses: tuple[np.ndarray, np.ndarray]
    mean_variance: float
    coefficients: tuple[np.ndarray, np.ndarray]


def _hodge_blocks(inc: IncidencePair, params: SgmParams,
                  sides: tuple[_Side, _Side]) -> _HodgeBlocks:
    """The blocks of the couplings; NotPositiveDefinite unless k clears the floor."""
    k = params.k
    try:
        for side in sides:
            np.linalg.cholesky(_k_minus((1.0 - _PD_RTOL) * k, side.gram))
    except np.linalg.LinAlgError:
        lam_max = _lambda_max(sides)
        need = (f"need k > {lam_max:.6g}" if k <= lam_max else
                f"need it above the floor {_PD_RTOL:g}*k = {_PD_RTOL * k:.3e}")
        raise NotPositiveDefinite(
            f"k={k:.6g} gives smallest eigenvalue {k - lam_max:.3e}; {need}"
        ) from None
    inverses = [np.linalg.inv(_k_minus(k, side.gram)) for side in sides]
    ne = inc.b1.shape[1]
    traces = sum(float(np.sum(m * side.gram)) for m, side in zip(inverses, sides))
    return _HodgeBlocks(
        b1=_frozen(inc.b1.astype(np.int8)),
        b2=_frozen(inc.b2.astype(np.int8)),
        roots=(_frozen(np.sqrt(params.d_v)), _frozen(np.sqrt(params.d_t))),
        inverses=(_frozen(inverses[0]), _frozen(inverses[1])),
        mean_variance=(ne + traces) / (k * ne),
        coefficients=(_frozen(params.d_v), _frozen(params.d_t)),
    )


def _assemble(k: float, blocks: _HodgeBlocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frozen (omega, omega_d, omega_u) of a k that passed the gate.

    Each is formed in one E x E array from the coupling records, with the
    arithmetic of the dense k*I - a_d - a_u: equal couplings, equal bits.
    """
    ne = blocks.b1.shape[1]
    lower, upper = _coupling_parts(IncidencePair(blocks.b1, blocks.b2), *blocks.coefficients)
    work = np.zeros((ne, ne))
    omega_d = _frozen(_minus(work, lower, k))
    omega = _frozen(_minus(work, upper))
    work[:] = 0.0
    return omega, omega_d, _frozen(_minus(work, upper, k))


def _minus(out: np.ndarray, part: _Coupling, k: float = 0.0) -> np.ndarray:
    """``out`` + k*I less the coupling matrix of a record, in place."""
    i, j = part.pairs.T
    out[i, j] -= part.values
    out[j, i] -= part.values
    out.flat[:: out.shape[0] + 1] = out.flat[:: out.shape[0] + 1] + k - part.diagonal
    return out


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """A read-only copy of matrix over immutable bytes, which no flag can unlock."""
    return np.frombuffer(matrix.tobytes(), dtype=matrix.dtype).reshape(matrix.shape)


def covariance(prec: EdgePrecision) -> np.ndarray:
    """The covariance matrix inv(omega), inverted afresh.

    The package's own readers take it from the Hodge blocks of a built
    precision instead (see _covariance_of); this is the dense reference.
    """
    return np.linalg.inv(prec.omega)


def _covariance_of(prec: EdgePrecision,
                   idx: list[int] | None = None) -> tuple[np.ndarray, float]:
    """(inv(omega)[idx, idx], trace(inv(omega))/E); the whole matrix when idx is None.

    A built precision answers from its Hodge blocks and inverts nothing;
    the matrix is formed for the call and not kept.  A precision without
    blocks is inverted afresh.
    """
    blocks = prec._blocks
    if blocks is None:
        cov = covariance(prec)
        return (cov if idx is None else cov[np.ix_(idx, idx)]), _mean_variance(cov)
    b1, b2 = (blocks.b1, blocks.b2) if idx is None else (blocks.b1[:, idx], blocks.b2[idx])
    factors = [b1.T * blocks.roots[0], b2 * blocks.roots[1]]
    solved = np.hstack([u @ m for u, m in zip(factors, blocks.inverses)])
    factors = np.hstack(factors)  # the parts go: one E x (V + T) float copy at a time
    cov = solved @ factors.T
    cov.flat[:: cov.shape[0] + 1] += 1.0
    cov /= prec.k
    return cov, blocks.mean_variance


def _mean_variance(cov: np.ndarray) -> float:
    """trace(cov)/num_edges, the scale of every covariance tolerance."""
    return float(np.trace(cov)) / cov.shape[0]


def covariance_cholesky(prec: EdgePrecision) -> np.ndarray:
    """Lower Cholesky factor of the covariance, for drawing samples."""
    return np.linalg.cholesky(_covariance_of(prec)[0])


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

    Inverts omega_u, omega_d and omega once each, on the dense path.
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
    cov = covariance(prec)
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
    omega do not remove links.  The graph keeps each color's links as
    the (L, 2) array of _shared_face_pairs (see CmrfGraph).
    """
    _check_params(params, inc.b1.shape[0], inc.b2.shape[1])
    graph = object.__new__(CmrfGraph)
    object.__setattr__(graph, "num_nodes", inc.b1.shape[1])
    object.__setattr__(graph, "_pairs", tuple(
        _shared_face_pairs(incmat, d != 0)[0]
        for incmat, d in _colors(inc, params.d_v, params.d_t)))
    return graph


def find_cancellations(
    inc: IncidencePair, params: SgmParams
) -> list[tuple[int, int]]:
    """Colored links whose coupling in omega cancels to (numerical) zero.

    For such pairs the Gaussian graph of omega is strictly smaller than
    the colored graph; conditional independence statements read off the
    colors are then conservative but still valid.  Pairs come sorted.

    Each off-diagonal entry of a_d and a_u is one link's signed
    coefficient in the records of _coupling_parts, so only a link of
    both colors can cancel.  Raises ValueError as _coupling_parts does.
    """
    return _coupling_report(inc, params)[0]


def _coupling_report(
    inc: IncidencePair, params: SgmParams
) -> tuple[list[tuple[int, int]], bool]:
    """(find_cancellations, whether omega assembles to exactly k*I), from one record.

    The assembled omega is k*I when every link of either color is a link
    of both whose coefficients cancel exactly, (-lo) - up == 0, and every
    diagonal (k - dl) - du rounds to k, the entries _assemble forms.
    """
    _check_params(params, inc.b1.shape[0], inc.b2.shape[1])
    lower, upper = _coupling_parts(inc, params.d_v, params.d_t)
    ne = inc.b1.shape[1]
    codes = [part.pairs[:, 0] * ne + part.pairs[:, 1] for part in (lower, upper)]
    both, at_lower, at_upper = np.intersect1d(*codes, assume_unique=True, return_indices=True)
    lo, up = lower.values[at_lower], upper.values[at_upper]
    sums = lo + up
    scale = np.maximum(np.abs(lo), np.abs(up))
    rows, cols = np.divmod(both[np.abs(sums) <= _CANCEL_RTOL * scale], ne)
    k = params.k
    identity = (both.size == len(lower.pairs) == len(upper.pairs) and not sums.any()
                and bool(np.all((k - lower.diagonal) - upper.diagonal == k)))
    return list(zip(rows.tolist(), cols.tolist())), identity


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


def _check_bounds(name: str, low: float, high: float) -> None:
    """ValueError unless high - low is finite and at least 0; equal bounds draw one value."""
    if not 0.0 <= float(high) - float(low) < np.inf:
        raise ValueError(
            f"{name}=({low:g}, {high:g}) spans no finite range: "
            f"high - low must be finite and at least 0"
        )


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
    :func:`min_valid_k` with the given margin.  Raises ValueError when
    high - low of a bounds pair is negative or not finite (equal bounds
    draw one value), and, through min_valid_k, on negative coefficients.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must lie in [0, 1], got {sparsity}")
    _check_bounds("dv_bounds", *dv_bounds)
    _check_bounds("dt_bounds", *dt_bounds)
    rng = np.random.default_rng(seed)
    d_v = rng.uniform(dv_bounds[0], dv_bounds[1], size=inc.b1.shape[0])
    d_t = rng.uniform(dt_bounds[0], dt_bounds[1], size=inc.b2.shape[1])
    if sparsity > 0.0:
        d_v = np.where(rng.random(d_v.size) < sparsity, 0.0, d_v)
        d_t = np.where(rng.random(d_t.size) < sparsity, 0.0, d_t)
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
    Path(path).write_text(_json_text(doc) + "\n")


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
    _check_params(params, sc.num_vertices, sc.num_triangles)
    return sc, params
