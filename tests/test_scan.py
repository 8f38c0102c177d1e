"""The one-inversion singleton scan against the per-pair loop it replaces.

scan_singleton_pairs must list the same pairs as the double loop over
component labels and give, bit for bit, the residuals, tolerance,
maximum and verdict of one verify_marginal_independence call per pair
(oracles in tests/helpers.py), while reading the covariance from the
slot that the verify_* checks share: one inversion per living model,
none kept beyond it.
"""

import gc
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

# Above this many pairs the per-pair oracle (one full inverse per pair)
# runs on a sample: at 400 edges a full loop takes about ten minutes.
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
        return
    # Large scan: the per-pair loop on a sample that holds the worst pair,
    # plus every residual against one dense inverse.
    rng = np.random.default_rng(0)
    picks = {int(np.argmax(scan.residuals)), *rng.choice(len(scan.pairs), SAMPLE).tolist()}
    picks = sorted(picks)
    _, worst, tolerance, reports = scan_by_pair_loop(
        prec, graph, [scan.pairs[n] for n in picks])
    assert scan.max_residual == worst
    assert scan.tolerance == tolerance
    assert [r.residual for r in reports] == scan.residuals[picks].tolist()
    assert all(r.passed for r in reports) == scan.passed
    rows, cols = np.array(scan.pairs).T
    dense = np.abs(np.linalg.inv(prec.omega))[rows, cols]
    assert np.array_equal(dense, scan.residuals)


def test_one_inversion_and_no_covariance_kept(scale_incidence, count_inversions):
    prec, graph = _model(scale_incidence, 0.5)
    scan = scan_singleton_pairs(prec, graph)
    assert scan.pairs
    assert len(count_inversions) == 1
    assert all(
        not isinstance(v, np.ndarray) or v.ndim < 2 for v in vars(scan).values()
    )
    # the covariance is the slot's: a second scan and ten checks on the
    # same model reuse it, and it goes with the precision
    again = scan_singleton_pairs(prec, graph)
    assert again.pairs == scan.pairs
    assert np.array_equal(again.residuals, scan.residuals)
    for n in range(5):
        i, j = scan.pairs[n % len(scan.pairs)]
        verify_marginal_independence(prec, graph, [i], [j])
        rest = tuple(n for n in range(graph.num_nodes) if n not in (i, j))
        verify_conditional_independence(prec, graph, SeparationQuery((i,), (j,), rest))
    assert len(count_inversions) == 1
    del prec
    gc.collect()
    assert count_inversions[0]() is None


def test_scan_without_pairs(filled_triangle, count_inversions):
    # One filled triangle with every coefficient set: all three edges
    # share the triangle, so no pair is color-separated.
    inc = incidence(filled_triangle)
    d_v, d_t = np.ones(3), np.ones(1)
    params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
    scan = scan_singleton_pairs(build_precision(inc, params), build_cmrf(inc, params))
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
