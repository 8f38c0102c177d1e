"""Graph-separation verdicts against the full-sweep oracle.

is_graph_separated decides a query by the union component labels, or by
a search from A that avoids S and stops at the first node of B or of
N(B) it meets (see cmrf.independence).  Its verdicts must equal those of
graph_separated_by_sweep in tests/helpers.py, which builds the whole set
of nodes reachable from A without entering S and only then tests it
against B.  verify_conditional_independence must raise NotSeparated on
every query the oracle finds joined, and on every other return, bit for
bit, the report of the numerical check alone.
"""

import itertools

import numpy as np
import pytest

from cmrf import (
    CmrfGraph,
    NotSeparated,
    SeparationQuery,
    incidence,
    is_graph_separated,
    random_2sc,
    verify_conditional_independence,
)
from cmrf.independence import CONDITIONAL_RTOL, _report

from helpers import (
    adjacency_sets,
    draw_sparse_model,
    graph_separated_by_sweep,
    random_colored_graph,
)

SCALES = [(10, 21, 12), (30, 120, 60), (60, 400, 200)]
MODEL_SEEDS = range(5, 10)
QUERIES = 120


def _bits(report):
    """A report with its floats as exact hex strings."""
    return (report.kind, report.passed, report.residual.hex(),
            report.tolerance.hex(), report.query)


def _mix(graph, rng, count):
    """Half Markov-blanket queries (a, b | N(a)), half random ones with |S| <= 3."""
    n, neighbors = graph.num_nodes, adjacency_sets(graph.num_nodes, graph.links)
    queries = []
    while len(queries) < count:
        a = int(rng.integers(n))
        if len(queries) % 2 == 0:
            outside = [b for b in range(n) if b != a and b not in neighbors[a]]
            if outside:
                b = outside[int(rng.integers(len(outside)))]
                queries.append(SeparationQuery((a,), (b,), tuple(sorted(neighbors[a]))))
        else:
            b = int(rng.integers(n - 1))
            b += b >= a
            others = [x for x in range(n) if x not in (a, b)]
            given = rng.choice(others, size=int(rng.integers(4)), replace=False)
            queries.append(SeparationQuery((a,), (b,), tuple(sorted(given.tolist()))))
    return queries


def _special(graph, rng):
    """Queries on the edge cases of the search, a few of each."""
    n, neighbors = graph.num_nodes, adjacency_sets(graph.num_nodes, graph.links)
    links = sorted(graph.links)
    queries = []
    for i, j in (links[k] for k in rng.permutation(len(links))[:5]):
        # a node of A adjacent to B, with S all its other neighbors
        queries.append(SeparationQuery((i,), (j,), tuple(sorted(neighbors[i] - {j}))))
        far = [x for x in range(n) if x not in neighbors[i] | neighbors[j] | {i, j}]
        if far:
            b = far[int(rng.integers(len(far)))]
            # S holding all of N(B)
            queries.append(SeparationQuery((i, j), (b,), tuple(sorted(neighbors[b]))))
    for _ in range(10):
        # set-valued A and B
        nodes = rng.permutation(n)[:7].tolist()
        queries.append(SeparationQuery(tuple(nodes[:2]), tuple(nodes[2:4]),
                                       tuple(sorted(nodes[4:]))))
    return queries


def _check(graph, prec, queries):
    """Verdicts and reports against the oracle; returns the verdicts met."""
    verdicts = set()
    for query in queries:
        separated = graph_separated_by_sweep(graph, query)
        verdicts.add(separated)
        assert is_graph_separated(graph, query) is separated, query
        if separated:
            got = verify_conditional_independence(prec, graph, query)
            assert _bits(got) == _bits(_report("conditional", CONDITIONAL_RTOL, prec, query))
        else:
            with pytest.raises(NotSeparated):
                verify_conditional_independence(prec, graph, query)
    return verdicts


@pytest.mark.parametrize("nv, ne, nt", SCALES, ids=[f"{e}-edges" for _, e, _ in SCALES])
def test_verdicts_and_reports_match_the_sweep(nv, ne, nt):
    inc = incidence(random_2sc(nv, None, nt, seed=5, num_edges=ne,
                               require_trivial_homology=ne == 21))
    verdicts = set()
    for seed in MODEL_SEEDS:
        _, prec, graph = draw_sparse_model(inc, seed)
        rng = np.random.default_rng([ne, seed])
        verdicts |= _check(graph, prec, _mix(graph, rng, QUERIES) + _special(graph, rng))
    assert verdicts == {True, False}


def test_hand_built_graph_across_two_components():
    # union components {0..3} (a lower path with one upper link) and
    # {4, 5, 6} (upper links); node 7 alone
    graph = CmrfGraph(8, frozenset({(0, 1), (2, 3), (4, 5)}), frozenset({(1, 2), (5, 6)}))
    cases = [
        ((0, 4), (3, 6), (1,), False),    # 4 reaches 6 through 5
        ((0, 4), (3, 6), (1, 5), True),
        ((0, 4), (3, 6), (2, 5), True),
        ((0, 4), (3, 6), (), False),
        ((0, 7), (4, 6), (), True),       # no common component
        ((0, 7), (4, 6), (1, 2), True),
        ((1, 4), (2, 7), (0, 5), False),  # a node of A adjacent to B
        ((0, 6), (2,), (1, 3), True),     # S holding all of N(B)
        ((4,), (0, 5), (6,), False),
    ]
    for set_a, set_b, given, separated in cases:
        query = SeparationQuery(set_a, set_b, given)
        assert graph_separated_by_sweep(graph, query) is separated
        assert is_graph_separated(graph, query) is separated, query
        reverse = SeparationQuery(set_b, set_a, given)
        assert is_graph_separated(graph, reverse) is separated, reverse


def test_random_hand_built_graphs_match_the_sweep():
    rng = np.random.default_rng(606)
    verdicts = set()
    for _ in range(40):
        n = int(rng.integers(4, 10))
        graph = random_colored_graph(n, rng, p_link=float(rng.uniform(0.05, 0.3)))
        for set_a, set_b in itertools.product(itertools.combinations(range(n), 2), repeat=2):
            if set(set_a) & set(set_b):
                continue
            rest = [x for x in range(n) if x not in set_a + set_b]
            given = tuple(sorted(rng.permutation(rest)[:int(rng.integers(3))].tolist()))
            query = SeparationQuery(set_a, set_b, given)
            separated = graph_separated_by_sweep(graph, query)
            verdicts.add(separated)
            assert is_graph_separated(graph, query) is separated, (graph, query)
    assert verdicts == {True, False}


@pytest.mark.parametrize("set_a, set_b, given", [
    ((), (1,), ()), ((), (1,), (2,)), ((0,), (), (2,)), ((), (), (1,)),
])
def test_empty_set_warns_in_the_callers_file(two_cluster_complex, set_a, set_b, given):
    _, prec, graph = draw_sparse_model(incidence(two_cluster_complex), 1, sparsity=0.0)
    query = SeparationQuery(set_a, set_b, given)
    with pytest.warns(UserWarning, match="empty query set") as caught:
        assert is_graph_separated(graph, query) is True
        report = verify_conditional_independence(prec, graph, query)
    assert [w.filename for w in caught] == [__file__] * 2
    assert report.passed and report.residual == 0.0
