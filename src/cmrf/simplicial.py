"""Oriented 2-dimensional simplicial complexes and their Hodge operators.

A complex is a triple (vertices, edges, triangles) closed under taking
faces: every triangle's three sides must be edges of the complex and every
edge's endpoints must be vertices.  Orientations are fixed by vertex order:

* an edge (u, v) with u < v points from u to v,
* a triangle (a, b, c) with a < b < c carries the orientation induced by
  the ascending vertex order.

With these conventions the node-to-edge incidence matrix ``b1`` has one
column per edge holding -1 at the tail and +1 at the head, and the
edge-to-triangle incidence matrix ``b2`` holds the boundary of (a, b, c),

    boundary(a, b, c) = +(b, c) - (a, c) + (a, b),

so ``b1 @ b2 == 0`` holds exactly in integer arithmetic.  The Hodge
Laplacians derived from them are

    L0      = b1 @ b1.T        (graph Laplacian on vertices)
    L1_down = b1.T @ b1        (lower edge Laplacian)
    L1_up   = b2 @ b2.T        (upper edge Laplacian)
    L2      = b2.T @ b2        (triangle Laplacian)

and any edge signal splits orthogonally into an irrotational part in
im(b1.T), a solenoidal part in im(b2), and a harmonic remainder in
ker(L1_down + L1_up).
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ClosureViolation,
    DegenerateSimplex,
    DimensionMismatch,
    DuplicateSimplex,
    GenerationFailed,
    InvalidDocument,
)

__all__ = [
    "SimplicialComplex2",
    "IncidencePair",
    "HodgeLaplacians",
    "build_complex",
    "incidence",
    "hodge_laplacians",
    "hodge_decompose",
    "harmonic_dimension",
    "line_graph",
    "random_2sc",
    "save_complex",
    "load_complex",
]

# Relative singular value cutoff for the least-squares projections in
# hodge_decompose.
_RCOND = 1e-12

# Triangle selections random_2sc tries on one graph before resampling it.
_SELECTION_ATTEMPTS = 60


@dataclass(frozen=True)
class SimplicialComplex2:
    """An oriented 2-dimensional simplicial complex in canonical order.

    Vertices are ascending integers, edges are (tail, head) pairs with
    tail < head sorted lexicographically, triangles are ascending vertex
    triples sorted lexicographically.  Instances are built through
    :func:`build_complex`, which validates and canonicalizes raw input.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)


class IncidencePair(NamedTuple):
    """Signed incidence matrices of a complex, in integer arithmetic.

    ``b1`` has shape (num_vertices, num_edges) and ``b2`` has shape
    (num_edges, num_triangles); ``b1 @ b2`` is exactly zero.
    """

    b1: np.ndarray
    b2: np.ndarray


class HodgeLaplacians(NamedTuple):
    """The four Hodge Laplacians of a 2-complex as float arrays."""

    l0: np.ndarray
    l1_down: np.ndarray
    l1_up: np.ndarray
    l2: np.ndarray


def build_complex(
    vertices: Sequence[int],
    edges: Sequence[Sequence[int]],
    triangles: Sequence[Sequence[int]] = (),
) -> SimplicialComplex2:
    """Validate raw simplex lists and return the canonical complex.

    Edges and triangles may be given in any vertex order; they are
    reoriented to ascending vertex order and sorted.  Raises
    DegenerateSimplex on repeated vertices inside one simplex,
    DuplicateSimplex on repeated simplices (up to orientation), and
    ClosureViolation when a face is missing from the complex.
    """
    vs = [int(v) for v in vertices]
    if len(set(vs)) != len(vs):
        raise DuplicateSimplex("duplicate vertex id")
    vset = set(vs)

    canon_edges = []
    for e in edges:
        u, v = (int(x) for x in e)
        if u == v:
            raise DegenerateSimplex(f"edge ({u}, {v}) repeats a vertex")
        if u not in vset or v not in vset:
            raise ClosureViolation(f"edge ({u}, {v}) uses a missing vertex")
        canon_edges.append((min(u, v), max(u, v)))
    if len(set(canon_edges)) != len(canon_edges):
        raise DuplicateSimplex("duplicate edge (up to orientation)")
    eset = set(canon_edges)

    canon_tris = []
    for t in triangles:
        a, b, c = (int(x) for x in t)
        if len({a, b, c}) != 3:
            raise DegenerateSimplex(f"triangle ({a}, {b}, {c}) repeats a vertex")
        a, b, c = sorted((a, b, c))
        for side in ((a, b), (a, c), (b, c)):
            if side not in eset:
                raise ClosureViolation(
                    f"triangle ({a}, {b}, {c}) is missing side {side}"
                )
        canon_tris.append((a, b, c))
    if len(set(canon_tris)) != len(canon_tris):
        raise DuplicateSimplex("duplicate triangle (up to orientation)")

    return SimplicialComplex2(
        vertices=tuple(sorted(vs)),
        edges=tuple(sorted(canon_edges)),
        triangles=tuple(sorted(canon_tris)),
    )


def _id_arrays(sc: SimplicialComplex2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertices, edges and triangles as arrays of shape (V,), (E, 2) and (T, 3).

    Of int64, or all three of Python integers when an id is beyond
    int64: numpy would turn a list mixing negative ids with ids beyond
    int64 into floats, on which distinct ids can round to one value.
    """
    simplices = ((sc.vertices, ()), (sc.edges, (2,)), (sc.triangles, (3,)))
    try:
        return tuple(np.array(s, dtype=np.int64).reshape(-1, *tail) for s, tail in simplices)
    except OverflowError:
        return tuple(np.array(s, dtype=object).reshape(-1, *tail) for s, tail in simplices)


def incidence(sc: SimplicialComplex2) -> IncidencePair:
    """Build the signed incidence matrices ``b1`` and ``b2`` of a complex.

    Each simplex finds its faces by binary search in the sorted vertices
    and edges (see _id_arrays).
    """
    nv, ne, nt = sc.num_vertices, sc.num_edges, sc.num_triangles
    vertices, edges, triangles = _id_arrays(sc)
    ends, corners = np.searchsorted(vertices, edges), np.searchsorted(vertices, triangles)

    b1 = np.zeros((nv, ne), dtype=np.int64)
    b1[ends[:, 0], np.arange(ne)] = -1
    b1[ends[:, 1], np.arange(ne)] = +1

    # edges are sorted, so their codes tail * nv + head ascend
    codes = ends[:, 0] * nv + ends[:, 1]
    b2 = np.zeros((ne, nt), dtype=np.int64)
    for (p, q), sign in (((1, 2), +1), ((0, 2), -1), ((0, 1), +1)):
        b2[np.searchsorted(codes, corners[:, p] * nv + corners[:, q]), np.arange(nt)] = sign

    return IncidencePair(b1=b1, b2=b2)


def hodge_laplacians(inc: IncidencePair) -> HodgeLaplacians:
    """Return (L0, L1_down, L1_up, L2) as float arrays."""
    b1 = inc.b1.astype(float)
    b2 = inc.b2.astype(float)
    return HodgeLaplacians(
        l0=b1 @ b1.T,
        l1_down=b1.T @ b1,
        l1_up=b2 @ b2.T,
        l2=b2.T @ b2,
    )


def hodge_decompose(
    inc: IncidencePair, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split an edge signal into irrotational, solenoidal, harmonic parts.

    Parameters
    ----------
    inc : IncidencePair
        Incidence matrices of the complex the signal lives on.
    x : array of shape (num_edges,)
        Edge signal.

    Returns
    -------
    (irr, sol, har) : tuple of arrays
        irr lies in im(b1.T), sol in im(b2), har in the harmonic kernel,
        and x == irr + sol + har up to floating point rounding.
    """
    x = np.asarray(x, dtype=float)
    num_edges = inc.b1.shape[1]
    if x.shape != (num_edges,):
        raise DimensionMismatch(
            f"edge signal has shape {x.shape}, expected ({num_edges},)"
        )

    b1t = inc.b1.T.astype(float)
    b2 = inc.b2.astype(float)

    # Orthogonal projections onto im(b1.T) and im(b2) via least squares.
    # The two images are orthogonal because b1 @ b2 == 0, so the harmonic
    # part is just the remainder.
    if inc.b1.shape[0] > 0 and num_edges > 0:
        y = np.linalg.lstsq(b1t, x, rcond=_RCOND)[0]
        irr = b1t @ y
    else:
        irr = np.zeros(num_edges)
    if inc.b2.shape[1] > 0:
        z = np.linalg.lstsq(b2, x, rcond=_RCOND)[0]
        sol = b2 @ z
    else:
        sol = np.zeros(num_edges)
    har = x - irr - sol
    return irr, sol, har


def _incidence_ranks(inc: IncidencePair) -> tuple[int, int]:
    """(rank(b1), rank(b2)), each 0 when its matrix has no columns."""
    rank_b1 = np.linalg.matrix_rank(inc.b1.astype(float)) if inc.b1.shape[1] else 0
    rank_b2 = np.linalg.matrix_rank(inc.b2.astype(float)) if inc.b2.shape[1] else 0
    return int(rank_b1), int(rank_b2)


def harmonic_dimension(inc: IncidencePair) -> int:
    """Dimension of ker(L1_down + L1_up), i.e. the first Betti number.

    Equals num_edges - rank(b1) - rank(b2) by the rank-nullity theorem
    combined with orthogonality of im(b1.T) and im(b2).
    """
    return inc.b1.shape[1] - sum(_incidence_ranks(inc))


def _shared_face_pairs(incmat: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of columns of ``incmat`` that share a kept row, and that row.

    ``incmat`` has one row per face (vertex or triangle) and one column
    per edge, ``keep`` is a boolean mask over the rows.  The pairs are
    the off-diagonal support of |B|.T @ diag(keep) @ |B|, returned as an
    (L, 2) array of index pairs i < j in lexicographic order, with the
    (L,) array of the row each pair shares.  Two edges share at most one
    vertex and at most one triangle, so each pair has exactly one.

    The pairs come from each kept row's nonzero columns, one row after
    the other, without an E x E array: the entry at offset r of a row
    with c entries pairs with the c - 1 - r entries after it.
    """
    faces = np.flatnonzero(keep)
    # row-major, so columns ascend within a row
    rows, cols = np.divmod(np.flatnonzero(incmat[faces] != 0), incmat.shape[1])
    ends = np.cumsum(np.bincount(rows, minlength=faces.size))[rows]
    later = ends - np.arange(rows.size) - 1
    first = np.repeat(np.arange(rows.size), later)
    starts = np.cumsum(later) - later
    second = first + 1 + np.arange(first.size) - np.repeat(starts, later)
    pairs = np.stack([cols[first], cols[second]], axis=1)
    order = np.argsort(pairs[:, 0] * incmat.shape[1] + pairs[:, 1])
    return pairs[order], faces[rows[first[order]]]


def line_graph(sc: SimplicialComplex2) -> np.ndarray:
    """0/1 adjacency over edges; two edges are adjacent iff they share a vertex.

    The diagonal is zero.  This is the communication topology used by the
    distributed estimators in :mod:`cmrf.diffusion`.
    """
    pairs, _ = _shared_face_pairs(incidence(sc).b1, np.ones(sc.num_vertices, bool))
    adj = np.zeros((sc.num_edges, sc.num_edges), dtype=np.int64)
    adj[pairs[:, 0], pairs[:, 1]] = adj[pairs[:, 1], pairs[:, 0]] = 1
    return adj


def _sample_er_graph(
    num_vertices: int, p: float, rng: np.random.Generator
) -> list[tuple[int, int]]:
    pairs = list(itertools.combinations(range(num_vertices), 2))
    keep = rng.random(len(pairs)) < p
    return [e for e, k in zip(pairs, keep) if k]


def _enumerate_3cliques(
    num_vertices: int, edges: list[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """3-cliques (a, b, c) of a graph with edges a < b, in lexicographic order."""
    upper = np.zeros((num_vertices, num_vertices), dtype=bool)
    upper[tuple(np.array(edges, dtype=np.intp).reshape(-1, 2).T)] = True
    # every edge (a, b) closes a clique with each c > b adjacent to both
    ab = np.argwhere(upper)
    pair, c = np.nonzero(upper[ab[:, 0]] & upper[ab[:, 1]])
    return list(zip(ab[pair, 0].tolist(), ab[pair, 1].tolist(), c.tolist()))


def _max_triangles(num_vertices: int, num_edges: int | None) -> int:
    """Most 3-cliques a graph on num_vertices vertices can hold.

    With num_edges = C(a, 2) + b, 0 <= b < a, the Kruskal-Katona bound
    is C(a, 3) + C(b, 2), reached by a clique on a vertices plus one
    vertex joined to b of them; without an edge count, C(num_vertices, 3).
    """
    if num_edges is None:
        return math.comb(num_vertices, 3)
    a = (1 + math.isqrt(1 + 8 * num_edges)) // 2  # largest a with C(a, 2) <= E
    return math.comb(a, 3) + math.comb(num_edges - math.comb(a, 2), 2)


def random_2sc(
    num_vertices: int,
    er_probability: float | None,
    triangle_budget: int,
    seed: int | np.random.Generator,
    *,
    num_edges: int | None = None,
    require_trivial_homology: bool = True,
    max_attempts: int = 2000,
) -> SimplicialComplex2:
    """Sample a random 2-complex on an Erdos-Renyi graph.

    The 1-skeleton is G(num_vertices, er_probability); exactly
    ``triangle_budget`` triangles are then chosen uniformly among the
    3-cliques of the sampled graph.  Graphs are resampled until all
    targets are achievable:

    * if ``num_edges`` is given, the graph must have exactly that many
      edges (when ``er_probability`` is None it defaults to the matching
      density num_edges / C(num_vertices, 2), or 0 on a single vertex),
    * the graph must contain at least ``triangle_budget`` 3-cliques,
    * if ``require_trivial_homology`` is set (the default, since the
      signal models downstream assume it), the filled complex must have
      an empty harmonic space; up to ``_SELECTION_ATTEMPTS`` triangle
      selections are tried per graph before resampling.

    Raises GenerationFailed when ``max_attempts`` graphs were sampled
    without success, and at once, before drawing, when no graph can meet
    the targets: more edges than vertex pairs, trivial homology asked
    for with fewer than num_edges - num_vertices + 1 triangles
    (rank(b1) <= num_vertices - 1 leaves at least that many cycles for
    the triangles to fill), or more triangles than any graph holds (see
    :func:`_max_triangles`).  A request that fits but is improbable
    under the edge density still draws every attempt.
    Identical arguments and seed reproduce the same complex.
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be positive")
    if triangle_budget < 0:
        raise ValueError("triangle_budget must be nonnegative")
    num_pairs = num_vertices * (num_vertices - 1) // 2
    if er_probability is None:
        if num_edges is None:
            raise ValueError("need er_probability or num_edges")
        # one vertex has no pair to join, and the only graph is edgeless
        er_probability = num_edges / num_pairs if num_pairs else 0.0
    if not 0.0 <= er_probability <= 1.0:
        raise ValueError("er_probability must lie in [0, 1]")
    if num_edges is not None:
        if num_edges < 0:
            raise ValueError("num_edges must be nonnegative")
        if num_edges > num_pairs:
            raise GenerationFailed(
                f"{num_edges} edges do not fit on {num_vertices} vertices"
            )
        if require_trivial_homology and triangle_budget < num_edges - num_vertices + 1:
            raise GenerationFailed(
                f"trivial homology with {num_vertices} vertices and {num_edges} "
                f"edges needs at least {num_edges - num_vertices + 1} triangles, "
                f"got {triangle_budget}"
            )

    most = _max_triangles(num_vertices, num_edges)
    if triangle_budget > most:
        edges = "" if num_edges is None else f" and {num_edges} edges"
        raise GenerationFailed(
            f"{triangle_budget} triangles do not fit in a graph with "
            f"{num_vertices} vertices{edges} (at most {most})"
        )

    rng = np.random.default_rng(seed)

    for _ in range(max_attempts):
        edges = _sample_er_graph(num_vertices, er_probability, rng)
        if num_edges is not None and len(edges) != num_edges:
            continue
        cliques = _enumerate_3cliques(num_vertices, edges)
        if len(cliques) < triangle_budget:
            continue
        for _ in range(_SELECTION_ATTEMPTS):
            pick = rng.choice(len(cliques), size=triangle_budget, replace=False)
            sc = build_complex(
                range(num_vertices), edges, [cliques[i] for i in sorted(pick)]
            )
            if not require_trivial_homology or harmonic_dimension(incidence(sc)) == 0:
                return sc
            if triangle_budget in (0, len(cliques)):
                break  # only one possible selection, resample the graph
    raise GenerationFailed(
        f"no admissible complex after {max_attempts} attempts "
        f"(n={num_vertices}, p={er_probability:.3g}, edges={num_edges}, "
        f"triangles={triangle_budget})"
    )


# The package's one rule for integers and numbers, in documents, configs
# and queries alike: bools are neither, and an integer too large for a
# float is no number.  Exact builtin types go first, as an abstract-class
# check costs several times more per document value.
def _is_int(x) -> bool:
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _is_number(x) -> bool:
    if type(x) not in (float, int) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _is_list_of(ok, size: int | None = None):
    return lambda x: (
        isinstance(x, list)
        and (size is None or len(x) == size)
        and all(map(ok, x))
    )


def _read_document(path: str | Path, fields: dict, optional=()) -> dict:
    """Load a JSON object and check each field against (predicate, description).

    Raises InvalidDocument when the file is not JSON, the document is not
    an object, a key not listed in ``optional`` is missing, or a value
    fails its predicate.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidDocument(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise InvalidDocument(f"{path}: expected a JSON object")
    for key, (ok, what) in fields.items():
        if key not in doc and key not in optional:
            raise InvalidDocument(f"{path}: missing key {key!r}")
        if key in doc and not ok(doc[key]):
            raise InvalidDocument(f"{path}: {key!r} must be {what}")
    return doc


def save_complex(sc: SimplicialComplex2, path: str | Path) -> None:
    """Write a complex to a JSON document."""
    doc = {
        "vertices": list(sc.vertices),
        "edges": [list(e) for e in sc.edges],
        "triangles": [list(t) for t in sc.triangles],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_complex(path: str | Path) -> SimplicialComplex2:
    """Read a complex from a JSON document written by :func:`save_complex`."""
    doc = _read_document(path, {
        "vertices": (_is_list_of(_is_int), "a list of integers"),
        "edges": (_is_list_of(_is_list_of(_is_int, 2)), "a list of integer pairs"),
        "triangles": (_is_list_of(_is_list_of(_is_int, 3)), "a list of integer triples"),
    }, optional=("triangles",))
    return build_complex(
        doc["vertices"], doc["edges"], doc.get("triangles", ())
    )
