"""Separation queries on colored graphs and their Gaussian consequences.

Two kinds of separation are distinguished on a :class:`~cmrf.model.CmrfGraph`:

* graph separation: after deleting a conditioning set S, no path in the
  union of both link colors joins set A to set B.  For the Gaussian edge
  signal this implies conditional independence of A and B given S.
* color separation: no single-colored path joins A to B, checked per
  color on the full graph.  This is weaker than graph separation with
  S empty (a path may alternate colors), yet it already implies marginal
  independence, because the coupling factors split by color and each
  factor's inverse respects its own color's connectivity.

Graph separation is decided by the union component labels when A and B
share no component or S is empty, and else by a search from A that
avoids S and stops at the first node of B or of N(B) it meets; the graph
builds the labels and its union adjacency once and keeps them.  Color
separation needs no search: with S empty, A and B are separated in a
color iff no component of that color holds nodes of both, which each
color's component labels decide; the graph computes them once from its
link arrays and keeps them, and the singleton scan compares the same
labels pair by pair.  The verify_* functions share one numerical check
on the model covariance: the max |cross-covariance| of A and B,
conditioned on S by the Schur complement when S is non-empty, against a
tolerance scaled by the mean marginal variance trace(cov)/num_edges.

The covariance is inv(omega), which a built precision answers from its
Hodge blocks (see :mod:`cmrf.model`), exactly 0.0 wherever the colors
separate two edges: the verify_* functions read the rows and columns of
A, B and S only, and scan_singleton_pairs checks every color-separated
singleton pair of a model with the whole matrix and one gather.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NotColorSeparated, NotSeparated, OverlappingSets
from .model import CmrfGraph, EdgePrecision, _covariance_of
from .simplicial import _is_int

__all__ = [
    "SeparationQuery",
    "IndependenceReport",
    "SingletonScan",
    "is_graph_separated",
    "is_color_separated",
    "verify_marginal_independence",
    "verify_conditional_independence",
    "color_separated_singleton_pairs",
    "scan_singleton_pairs",
]

# Residual tolerances, relative to trace(cov)/num_edges.
MARGINAL_RTOL = 1e-9
CONDITIONAL_RTOL = 1e-8


@dataclass(frozen=True)
class SeparationQuery:
    """Disjoint sets (A, B) and an optional conditioning set S of distinct node indices."""

    set_a: tuple[int, ...]
    set_b: tuple[int, ...]
    given: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("set_a", "set_b", "given"):
            nodes = tuple(getattr(self, name))
            if not all(map(_is_int, nodes)):
                raise ValueError(f"{name} must hold integer node indices, got {list(nodes)}")
            nodes = tuple(int(i) for i in nodes)
            # a repeat would make cov[S, S] singular in the Schur complement
            if len(set(nodes)) < len(nodes):
                repeat = next(i for i, n in Counter(nodes).items() if n > 1)
                raise ValueError(f"{name} repeats node index {repeat}, got {list(nodes)}")
            object.__setattr__(self, name, nodes)
        a, b, s = set(self.set_a), set(self.set_b), set(self.given)
        if a & b or a & s or b & s:
            raise OverlappingSets(
                f"query sets must be disjoint, got A={sorted(a)}, "
                f"B={sorted(b)}, S={sorted(s)}"
            )


@dataclass(frozen=True)
class IndependenceReport:
    """Outcome of a numerical independence check."""

    kind: str  # "marginal" or "conditional"
    passed: bool
    residual: float
    tolerance: float
    query: SeparationQuery


@dataclass(frozen=True)
class SingletonScan:
    """Outcome of the marginal check on every color-separated singleton pair.

    ``residuals[n]`` is |cov[i, j]| for ``pairs[n] == (i, j)``.  With no
    pair to check, ``tolerance`` is None, ``max_residual`` 0.0 and the
    scan passes vacuously.
    """

    pairs: list[tuple[int, int]]
    residuals: np.ndarray
    tolerance: float | None
    max_residual: float
    passed: bool


def _check_sizes(prec: EdgePrecision, graph: CmrfGraph) -> None:
    if prec.num_edges != graph.num_nodes:
        raise DimensionMismatch(
            f"precision has {prec.num_edges} edges, graph has {graph.num_nodes} nodes"
        )


def _check_nodes(graph: CmrfGraph, query: SeparationQuery) -> None:
    """Refuse a node index outside the graph; warn on an empty A or B."""
    for i in (*query.set_a, *query.set_b, *query.given):
        if not 0 <= i < graph.num_nodes:
            raise ValueError(f"node index {i} outside 0..{graph.num_nodes - 1}")
    if not (query.set_a and query.set_b):  # public functions call this directly
        warnings.warn("empty query set: separation holds vacuously", stacklevel=4)


def _graph_separated(graph: CmrfGraph, query: SeparationQuery) -> bool:
    """True when no path from A avoiding S reaches B in the union graph."""
    _check_nodes(graph, query)
    a, b, labels = query.set_a, query.set_b, graph._union_labels
    joined = not {labels[i] for i in a}.isdisjoint([labels[j] for j in b])
    if not (joined and query.given):  # the labels decide
        return not joined
    adj, seen, stack = graph._adjacency, set(query.given), [a]
    # a path from A avoiding S reaches B iff it reaches B or N(B) outside S
    targets = set(b).union(*(adj[j] for j in b)) - seen
    while stack:  # of the neighbor lists still to walk, A's first
        for node in stack.pop():
            if node not in seen:
                if node in targets:
                    return False
                seen.add(node)
                stack.append(adj[node])
    return True


def _color_separated(graph: CmrfGraph, query: SeparationQuery) -> bool:
    """True when, in each color, no component holds nodes of both A and B."""
    _check_nodes(graph, query)
    a, b = list(query.set_a), list(query.set_b)
    return all(set(labels[a].tolist()).isdisjoint(labels[b].tolist())
               for labels in graph._labels)


def is_graph_separated(graph: CmrfGraph, query: SeparationQuery) -> bool:
    """True when deleting S leaves no path from A to B in the union graph."""
    return _graph_separated(graph, query)


def is_color_separated(
    graph: CmrfGraph, set_a: Sequence[int], set_b: Sequence[int]
) -> bool:
    """True when no monochromatic path joins A to B, for either color."""
    return _color_separated(graph, SeparationQuery(set_a=tuple(set_a), set_b=tuple(set_b)))


def _separated_pair_indices(graph: CmrfGraph) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (rows, cols) of color_separated_singleton_pairs."""
    rows, cols = np.triu_indices(graph.num_nodes, 1)
    keep = np.ones(rows.size, dtype=bool)
    for labels in graph._labels:
        keep &= labels[rows] != labels[cols]
    return rows[keep], cols[keep]


def color_separated_singleton_pairs(graph: CmrfGraph) -> list[tuple[int, int]]:
    """All pairs (i, j), i < j, with {i} color-separated from {j}.

    A singleton pair is color-separated iff the two nodes fall in
    different connected components of the lower-link graph and also of
    the upper-link graph.  Pairs come in lexicographic order.
    """
    rows, cols = _separated_pair_indices(graph)
    return list(zip(rows.tolist(), cols.tolist()))


def _report(kind: str, rtol: float, prec: EdgePrecision,
            query: SeparationQuery) -> IndependenceReport:
    """Max |cross-covariance| of A and B given S against rtol * trace(cov)/E.

    With S empty this is the plain cross-covariance cov[A, B].
    """
    a, b, s = query.set_a, query.set_b, query.given
    cov, mean_variance = _covariance_of(prec, [*a, *b, *s])
    na, nab = len(a), len(a) + len(b)
    residual = 0.0
    if a and b:
        cross = cov[:na, na:nab]
        if s:
            cross = cross - cov[:na, nab:] @ np.linalg.solve(
                cov[nab:, nab:], cov[nab:, na:nab]
            )
        residual = float(np.abs(cross).max())
    tolerance = rtol * mean_variance
    return IndependenceReport(kind=kind, passed=residual < tolerance,
                              residual=residual, tolerance=tolerance, query=query)


def verify_marginal_independence(
    prec: EdgePrecision,
    graph: CmrfGraph,
    set_a: Sequence[int],
    set_b: Sequence[int],
) -> IndependenceReport:
    """Check that a color-separated pair of sets has zero cross-covariance.

    Raises NotColorSeparated when the pair is not color-separated (the
    implication is only available in that direction).
    """
    query = SeparationQuery(set_a=tuple(set_a), set_b=tuple(set_b))
    _check_sizes(prec, graph)
    if not _color_separated(graph, query):
        raise NotColorSeparated(
            f"A={list(query.set_a)} and B={list(query.set_b)} are joined "
            "by a monochromatic path"
        )
    return _report("marginal", MARGINAL_RTOL, prec, query)


def verify_conditional_independence(
    prec: EdgePrecision, graph: CmrfGraph, query: SeparationQuery
) -> IndependenceReport:
    """Check zero conditional cross-covariance for a separated query.

    The conditional cross-covariance of A and B given S is the Schur
    complement cov[A,B] - cov[A,S] @ inv(cov[S,S]) @ cov[S,B].  Raises
    NotSeparated when S does not separate A from B in the union graph.
    """
    _check_sizes(prec, graph)
    if not _graph_separated(graph, query):
        raise NotSeparated(
            f"S={list(query.given)} does not separate A={list(query.set_a)} "
            f"from B={list(query.set_b)}"
        )
    return _report("conditional", CONDITIONAL_RTOL, prec, query)


def scan_singleton_pairs(prec: EdgePrecision, graph: CmrfGraph) -> SingletonScan:
    """Check zero cross-covariance on every color-separated singleton pair.

    Gives per pair the residual and tolerance that
    verify_marginal_independence reports for ({i}, {j}) (bit for bit on
    a precision without blocks, and 0.0 on a built precision with its
    own graph), reading all residuals from one covariance with one
    gather.  With no pair to check no covariance is formed.
    """
    _check_sizes(prec, graph)
    rows, cols = _separated_pair_indices(graph)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    if not pairs:
        return SingletonScan(pairs=[], residuals=np.zeros(0), tolerance=None,
                             max_residual=0.0, passed=True)
    cov, mean_variance = _covariance_of(prec)
    residuals = np.abs(cov[rows, cols])
    tolerance = MARGINAL_RTOL * mean_variance
    return SingletonScan(
        pairs=pairs,
        residuals=residuals,
        tolerance=tolerance,
        max_residual=float(residuals.max()),
        passed=bool(np.all(residuals < tolerance)),
    )
