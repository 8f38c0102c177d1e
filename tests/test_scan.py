"""The singleton scan against the per-pair loop it replaces and the dense inverse.

scan_singleton_pairs must list the same pairs as the double loop over
component labels and give, bit for bit, the residuals, tolerance,
maximum and verdict of one verify_marginal_independence call per pair
(oracles in tests/helpers.py).  On a built precision it reads the
covariance from the model's Hodge blocks, where every color-separated
pair reads exactly 0.0, so it must also agree with np.linalg.inv(omega)
to 1e-11 of the mean variance, invert nothing and keep no covariance.
A graph read off wrong coefficients must fail the scan as the dense
inverse fails it.
"""

import dataclasses
import weakref

import numpy as np
import pytest

from cmrf import (
    CmrfGraph,
    DimensionMismatch,
    EdgePrecision,
    SeparationQuery,
    SgmParams,
    build_cmrf,
    build_precision,
    color_separated_singleton_pairs,
    draw_params,
    incidence,
    min_valid_k,
    random_2sc,
    scan_singleton_pairs,
    verify_conditional_independence,
    verify_marginal_independence,
)

from helpers import (
    random_colored_graph,
    scan_by_pair_loop,
    separated_pairs_by_double_loop,
)

# (vertices, edges, triangles) of the benchmark scales
SCALES = [(10, 21, 12), (30, 120, 60), (60, 400, 200)]

# Above this many pairs the per-pair oracle runs on a sample, which
# keeps the 400-edge case short.
ORACLE_PAIRS = 4000
SAMPLE = 40


@pytest.fixture(scope="module", params=SCALES, ids=lambda s: "%d-%d-%d" % s)
def scale_incidence(request):
    nv, ne, nt = request.param
    sc = random_2sc(nv, None, nt, seed=5, num_edges=ne,
                    require_trivial_homology=ne == 21)
    return incidence(sc)


def _model(inc, sparsity, seed=5):
    params = draw_params(inc, seed, sparsity=sparsity)
    return build_precision(inc, params), build_cmrf(inc, params)


@pytest.fixture()
def count_inversions(monkeypatch):
    """Count np.linalg.inv calls and keep a weak reference to each result."""
    inv = np.linalg.inv
    results = []

    def spy(a):
        out = inv(a)
        results.append(weakref.ref(out))
        return out

    monkeypatch.setattr(np.linalg, "inv", spy)
    return results


@pytest.mark.parametrize("sparsity", [0.0, 0.5])
def test_pairs_match_double_loop(scale_incidence, sparsity):
    for seed in (5, 6):
        _, graph = _model(scale_incidence, sparsity, seed)
        assert color_separated_singleton_pairs(graph) == \
            separated_pairs_by_double_loop(graph)


def test_pairs_match_double_loop_on_random_graphs():
    rng = np.random.default_rng(404)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        graph = random_colored_graph(n, rng, p_link=float(rng.uniform(0.05, 0.4)))
        assert color_separated_singleton_pairs(graph) == \
            separated_pairs_by_double_loop(graph)


@pytest.mark.parametrize("sparsity", [0.0, 0.5])
def test_scan_matches_pair_loop(scale_incidence, sparsity):
    prec, graph = _model(scale_incidence, sparsity)
    scan = scan_singleton_pairs(prec, graph)
    assert scan.pairs == separated_pairs_by_double_loop(graph)
    assert scan.residuals.shape == (len(scan.pairs),)
    if len(scan.pairs) <= ORACLE_PAIRS:
        passed, worst, tolerance, reports = scan_by_pair_loop(prec, graph, scan.pairs)
        assert scan.passed == passed
        assert scan.max_residual == worst
        assert scan.tolerance == tolerance
        assert [r.residual for r in reports] == scan.residuals.tolist()
    else:
        # Large scan: the per-pair loop on a sample that holds the worst pair.
        rng = np.random.default_rng(0)
        picks = {int(np.argmax(scan.residuals)),
                 *rng.choice(len(scan.pairs), SAMPLE).tolist()}
        picks = sorted(picks)
        _, worst, tolerance, reports = scan_by_pair_loop(
            prec, graph, [scan.pairs[n] for n in picks])
        assert scan.max_residual == worst
        assert scan.tolerance == tolerance
        assert [r.residual for r in reports] == scan.residuals[picks].tolist()
        assert all(r.passed for r in reports) == scan.passed
    # every residual against one dense inverse
    if scan.pairs:
        rows, cols = np.array(scan.pairs).T
        cov = np.linalg.inv(prec.omega)
        dense = np.abs(cov)[rows, cols]
        assert np.abs(dense - scan.residuals).max() <= 1e-11 * np.trace(cov) / cov.shape[0]
        assert bool(np.all(dense < scan.tolerance)) == scan.passed


def test_no_inversion_and_no_covariance_kept(scale_incidence, count_inversions):
    prec, graph = _model(scale_incidence, 0.5)
    del count_inversions[:]  # the Hodge blocks' own inverses, at build
    scan = scan_singleton_pairs(prec, graph)
    assert scan.pairs
    assert np.all(scan.residuals == 0.0)
    assert all(
        not isinstance(v, np.ndarray) or v.ndim < 2 for v in vars(scan).values()
    )
    # a second scan and ten checks on the same model invert nothing either
    again = scan_singleton_pairs(prec, graph)
    assert again.pairs == scan.pairs
    assert np.array_equal(again.residuals, scan.residuals)
    for n in range(5):
        i, j = scan.pairs[n % len(scan.pairs)]
        verify_marginal_independence(prec, graph, [i], [j])
        rest = tuple(n for n in range(graph.num_nodes) if n not in (i, j))
        verify_conditional_independence(prec, graph, SeparationQuery((i,), (j,), rest))
    assert count_inversions == []
    assert all(a.size < prec.num_edges ** 2 for a in (*prec._blocks.roots,
                                                      *prec._blocks.inverses))


def test_scan_without_pairs(filled_triangle, count_inversions):
    # One filled triangle with every coefficient set: all three edges
    # share the triangle, so no pair is color-separated.
    inc = incidence(filled_triangle)
    d_v, d_t = np.ones(3), np.ones(1)
    params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
    prec = build_precision(inc, params)
    del count_inversions[:]  # the Hodge blocks' own inverses, at build
    scan = scan_singleton_pairs(prec, build_cmrf(inc, params))
    assert scan.pairs == [] and scan.residuals.shape == (0,)
    assert scan.tolerance is None and scan.max_residual == 0.0 and scan.passed
    assert count_inversions == []


def test_scan_refuses_mismatched_model(filled_triangle, bench_incidence):
    small_prec, small_graph = _model(incidence(filled_triangle), 0.0)
    big_prec, big_graph = _model(bench_incidence, 0.5)
    assert not color_separated_singleton_pairs(small_graph)
    for prec, graph in ((small_prec, big_graph), (big_prec, small_graph)):
        with pytest.raises(DimensionMismatch):
            scan_singleton_pairs(prec, graph)


def test_failing_scan_matches_pair_loop():
    # A dense precision on a graph without links: every pair counts as
    # color-separated, but the covariance is not zero off the diagonal.
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 6))
    omega = x @ x.T + 6.0 * np.eye(6)
    prec = EdgePrecision(omega=omega, omega_d=omega, omega_u=omega, k=6.0)
    graph = CmrfGraph(num_nodes=6, lower_links=frozenset(), upper_links=frozenset())
    scan = scan_singleton_pairs(prec, graph)
    passed, worst, tolerance, reports = scan_by_pair_loop(prec, graph, scan.pairs)
    assert len(scan.pairs) == 15 and not scan.passed and not passed
    assert (scan.max_residual, scan.tolerance) == (worst, tolerance)
    assert [r.residual for r in reports] == scan.residuals.tolist()


@pytest.mark.parametrize("scale", SCALES[:2], ids=lambda s: "%d-%d-%d" % s)
def test_wrong_graph_fails_as_on_the_dense_inverse(scale):
    # Zero one coefficient in the graph's copy of the model only: the graph
    # loses links and claims separated pairs that the true precision couples.
    # The block scan of the true precision must judge each such graph as a
    # hand-built (dense) copy of it does, and see a nonzero residual.
    nv, ne, nt = scale
    inc = incidence(random_2sc(nv, None, nt, seed=5, num_edges=ne,
                               require_trivial_homology=ne == 21))
    wrong_graphs = 0
    for seed in range(5, 10):
        params = draw_params(inc, seed, sparsity=0.5)
        prec = build_precision(inc, params)
        dense = EdgePrecision(omega=prec.omega, omega_d=prec.omega_d,
                              omega_u=prec.omega_u, k=prec.k)
        true_pairs = len(color_separated_singleton_pairs(build_cmrf(inc, params)))
        for name in ("d_v", "d_t"):
            for n in np.flatnonzero(getattr(params, name)):
                coefficients = getattr(params, name).copy()
                coefficients[n] = 0.0
                graph = build_cmrf(inc, dataclasses.replace(params, **{name: coefficients}))
                if len(color_separated_singleton_pairs(graph)) == true_pairs:
                    continue
                wrong_graphs += 1
                scan = scan_singleton_pairs(prec, graph)
                assert scan.passed == scan_singleton_pairs(dense, graph).passed
                assert scan.max_residual > 0
    assert wrong_graphs == {21: 33, 120: 201}[ne]
