"""Every reader of inv(omega) shares one covariance; graphs keep one adjacency.

verify_marginal_independence, verify_conditional_independence,
scan_singleton_pairs, identity_residuals and covariance_cholesky keep
the inverse of the last built precision they read and reuse it while
that precision lives; build_precision returns matrices that cannot be
made writeable, and a hand-built precision, whose omega may change, is
inverted on every call.  The colored graph builds its adjacency sets once.
Every result must still equal, bit for bit, the one computed from an
inverse made for it alone (report_by_fresh_inverse in tests/helpers.py
and _read_fresh below), whatever the order of reads across models.
"""

import gc
import weakref

import numpy as np
import pytest

from cmrf import (
    CmrfGraph,
    EdgePrecision,
    NotSeparated,
    SeparationQuery,
    build_cmrf,
    build_precision,
    color_separated_singleton_pairs,
    covariance_cholesky,
    draw_params,
    identity_residuals,
    incidence,
    is_color_separated,
    is_graph_separated,
    model,
    random_2sc,
    scan_singleton_pairs,
    verify_conditional_independence,
    verify_marginal_independence,
)
from cmrf.independence import MARGINAL_RTOL

from helpers import report_by_fresh_inverse


def _bits(report):
    """A report with its floats as exact hex strings."""
    return (report.kind, report.passed, report.residual.hex(),
            report.tolerance.hex(), report.query)


def _models(nv, ne, nt, seeds):
    sc = random_2sc(nv, None, nt, seed=5, num_edges=ne,
                    require_trivial_homology=ne == 21)
    inc = incidence(sc)
    out = []
    for seed in seeds:
        params = draw_params(inc, seed, sparsity=0.5)
        out.append((build_precision(inc, params), build_cmrf(inc, params)))
    return out


def _queries(graph, rng, count):
    """Marginal (color-separated) and conditional queries, interleaved."""
    n = graph.num_nodes
    pairs = color_separated_singleton_pairs(graph)
    neighbors = [set() for _ in range(n)]
    for i, j in graph.links:
        neighbors[i].add(j)
        neighbors[j].add(i)
    queries = []
    while len(queries) < count:
        kind = len(queries) % 3
        if kind == 0 and pairs:
            a, b = pairs[int(rng.integers(len(pairs)))]
            queries.append(SeparationQuery((a,), (b,)))
            continue
        a = int(rng.integers(n))
        outside = [b for b in range(n) if b != a and b not in neighbors[a]]
        if kind == 1 and outside:
            b = outside[int(rng.integers(len(outside)))]
            queries.append(SeparationQuery((a,), (b,), tuple(sorted(neighbors[a]))))
        elif kind == 2:
            others = [x for x in range(n) if x != a]
            picked = rng.choice(others, size=4, replace=False).tolist()
            queries.append(SeparationQuery((a,), tuple(picked[:1]), tuple(sorted(picked[1:]))))
    return queries


def _ask(prec, graph, query):
    """The package's report, or None when the query is not separated."""
    if not query.given:
        assert is_color_separated(graph, query.set_a, query.set_b)
        return verify_marginal_independence(prec, graph, query.set_a, query.set_b)
    if not is_graph_separated(graph, query):
        with pytest.raises(NotSeparated):
            verify_conditional_independence(prec, graph, query)
        return None
    return verify_conditional_independence(prec, graph, query)


# The readers of the covariance besides the verify_* queries.
READERS = ("scan", "identity", "cholesky")


def _read(name, prec, graph):
    """The package's result of one reader, in exactly comparable form."""
    if name == "scan":
        scan = scan_singleton_pairs(prec, graph)
        return scan.pairs, scan.residuals.tobytes(), scan.tolerance, scan.passed
    if name == "identity":
        return tuple(identity_residuals(prec))
    return covariance_cholesky(prec).tobytes()


def _read_fresh(name, prec, graph):
    """What _read gives, from an inverse of omega made for it alone."""
    cov = np.linalg.inv(prec.omega)
    mean_variance = float(np.trace(cov)) / cov.shape[0]
    if name == "scan":
        pairs = color_separated_singleton_pairs(graph)
        rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
        residuals = np.abs(cov[rows, cols])
        tolerance = MARGINAL_RTOL * mean_variance
        return pairs, residuals.tobytes(), tolerance, bool(np.all(residuals < tolerance))
    if name == "identity":
        inv_sum = (np.linalg.inv(prec.omega_u) + np.linalg.inv(prec.omega_d)
                   - np.eye(prec.num_edges) / prec.k)
        sum_rule, product_rule, _, _ = identity_residuals(prec)  # no inverse in these
        return (sum_rule, product_rule, float(np.abs(cov - inv_sum).max()),
                mean_variance)
    return np.linalg.cholesky(cov).tobytes()


@pytest.fixture()
def inverted(monkeypatch):
    """Count np.linalg.inv calls and keep each matrix that was inverted."""
    inv = np.linalg.inv
    matrices = []

    def spy(a):
        matrices.append(a)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    return matrices


@pytest.fixture()
def inversions(monkeypatch):
    """Count np.linalg.inv calls and keep a weak reference to each result."""
    inv = np.linalg.inv
    results = []

    def spy(a):
        out = inv(a)
        results.append(weakref.ref(out))
        return out

    monkeypatch.setattr(np.linalg, "inv", spy)
    return results


@pytest.mark.parametrize("scale", [(10, 21, 12), (30, 120, 60)], ids=["21", "120"])
def test_interleaved_reports_match_fresh_inverse(scale):
    models = _models(*scale, seeds=(5, 6, 7))
    rng = np.random.default_rng(sum(scale))
    plan = [(m, q) for m, (_, graph) in enumerate(models)
            for q in [*_queries(graph, rng, 30), *READERS * 2]]
    order = rng.permutation(len(plan))
    # runs on one model and switches between models both occur
    switches = sum(plan[i][0] != plan[j][0] for i, j in zip(order, order[1:]))
    assert 0 < switches < len(order) - 1
    answered = 0
    for n in order:
        m, query = plan[n]
        prec, graph = models[m]
        if query in READERS:
            assert _read(query, prec, graph) == _read_fresh(query, prec, graph)
            continue
        report = _ask(prec, graph, query)
        if report is None:
            continue
        answered += 1
        assert _bits(report) == _bits(report_by_fresh_inverse(prec, report.kind, query))
    assert answered > len(plan) // 2


def test_one_inversion_per_model_switch(inversions):
    (prec_a, graph_a), (prec_b, graph_b) = _models(10, 21, 12, seeds=(5, 6))
    pairs = color_separated_singleton_pairs(graph_a)
    assert pairs
    for n in range(50):
        i, j = pairs[n % len(pairs)]
        verify_marginal_independence(prec_a, graph_a, [i], [j])
    assert len(inversions) == 1

    rng = np.random.default_rng(3)
    blankets = {
        id(graph): [q for q in _queries(graph, rng, 60) if q.given and
                    is_graph_separated(graph, q)]
        for graph in (graph_a, graph_b)
    }
    del inversions[:]
    schedule = [prec_a, prec_b] * 5 + [prec_b] * 3
    for prec in schedule:
        graph = graph_a if prec is prec_a else graph_b
        verify_conditional_independence(prec, graph, blankets[id(graph)][0])
    # the marginal run above left prec_a's covariance in place
    switches = sum(p is not q for p, q in zip([prec_a, *schedule], schedule))
    assert switches == 9 and len(inversions) == switches


def test_every_reader_of_one_model_shares_one_inversion(inverted):
    (prec, graph), = _models(30, 120, 60, seeds=(5,))
    identity_residuals(prec)
    assert scan_singleton_pairs(prec, graph).pairs
    covariance_cholesky(prec)
    answered = 0
    for query in _queries(graph, np.random.default_rng(4), 60):
        answered += _ask(prec, graph, query) is not None
        if answered == 20:
            break
    assert answered == 20
    identity_residuals(prec)
    scan_singleton_pairs(prec, graph)
    covariance_cholesky(prec)
    # omega once for all readers; omega_d and omega_u once per identity check
    for matrix, count in ((prec.omega, 1), (prec.omega_d, 2), (prec.omega_u, 2)):
        assert sum(a is matrix for a in inverted) == count
    assert len(inverted) == 5


def _bump(omega):
    """Change omega in place, keeping it symmetric positive definite."""
    omega[0, 1] = omega[1, 0] = omega[0, 1] + 1.0


def _writeable(omega):
    return omega, lambda: _bump(omega)


def _relocked(omega):
    omega.flags.writeable = False

    def change():
        omega.flags.writeable = True
        _bump(omega)
        omega.flags.writeable = False

    return omega, change


def _read_only_view(omega):
    view = omega.view()
    view.flags.writeable = False
    return view, lambda: _bump(omega)


@pytest.mark.parametrize("hold", [_writeable, _relocked, _read_only_view],
                         ids=["writeable", "relocked", "read-only-view"])
def test_hand_built_precision_is_inverted_afresh(inversions, hold):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 5))
    omega, change = hold(x @ x.T + 5.0 * np.eye(5))
    prec = EdgePrecision(omega=omega, omega_d=omega, omega_u=omega, k=5.0)
    graph = CmrfGraph(num_nodes=5, lower_links=frozenset(), upper_links=frozenset())
    before = verify_marginal_independence(prec, graph, [0], [1])
    change()
    after = verify_marginal_independence(prec, graph, [0], [1])
    assert len(inversions) == 2
    assert after.residual != before.residual
    assert _bits(after) == _bits(report_by_fresh_inverse(prec, "marginal", after.query))
    # the other readers, each on its own hand-built precision; the
    # identity check also inverts omega_d and omega_u, here omega itself
    for reader, per_read in zip(READERS, (1, 3, 1)):
        del inversions[:]
        omega, change = hold(x @ x.T + 5.0 * np.eye(5))
        prec = EdgePrecision(omega=omega, omega_d=omega, omega_u=omega, k=5.0)
        before = _read(reader, prec, graph)
        change()
        after = _read(reader, prec, graph)
        assert len(inversions) == 2 * per_read
        assert after != before
        assert after == _read_fresh(reader, prec, graph)


def test_replaced_omega_is_inverted_afresh(inversions):
    (prec, graph), = _models(10, 21, 12, seeds=(5,))
    i, j = color_separated_singleton_pairs(graph)[0]
    before = verify_marginal_independence(prec, graph, [i], [j])
    changed = np.array(prec.omega)
    changed[i, j] = changed[j, i] = 0.01 * changed[i, i]
    object.__setattr__(prec, "omega", model._frozen(changed))
    after = verify_marginal_independence(prec, graph, [i], [j])
    assert len(inversions) == 2
    assert after.residual != before.residual
    assert _bits(after) == _bits(report_by_fresh_inverse(prec, "marginal", after.query))


def test_built_precision_is_frozen():
    (prec, _), = _models(10, 21, 12, seeds=(5,))
    for matrix in (prec.omega, prec.omega_d, prec.omega_u):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            matrix += 1.0
        with pytest.raises(ValueError):
            matrix.flags.writeable = True
        assert not matrix.flags.writeable


def test_kept_covariance_dies_with_its_precision(inversions):
    (prec, graph), = _models(10, 21, 12, seeds=(5,))
    i, j = color_separated_singleton_pairs(graph)[0]
    verify_marginal_independence(prec, graph, [i], [j])
    assert len(inversions) == 1
    ref = weakref.ref(prec)
    del prec
    gc.collect()
    assert ref() is None
    assert inversions[0]() is None


def test_adjacency_built_once_per_graph(monkeypatch):
    (prec, graph), = _models(30, 120, 60, seeds=(5,))
    calls = []
    build = model._neighbors
    monkeypatch.setattr(model, "_neighbors",
                        lambda n, links: calls.append(len(links)) or build(n, links))
    rng = np.random.default_rng(2)
    for query in _queries(graph, rng, 60):
        _ask(prec, graph, query)
    color_separated_singleton_pairs(graph)
    assert sorted(calls) == sorted(
        map(len, (graph.lower_links, graph.upper_links, graph.links)))
    assert graph.links is graph.links
    fresh = CmrfGraph(num_nodes=graph.num_nodes, lower_links=graph.lower_links,
                      upper_links=graph.upper_links)
    assert graph == fresh and hash(graph) == hash(fresh)
    assert graph._adjacency == fresh._adjacency
