"""Graph supports read off the incidence against dense and loop oracles.

The colored links of a model (the per-color link arrays a graph keeps
and the link sets it forms from them), the line graph of a complex,
the cancelling links and the 3-cliques of a sampled graph are compared
with direct enumerations over pairs and triples of simplices, and the
links and cancellations also with the E x E products they were once
read off, in tests/helpers.py.  The precision matrices, assembled from
the same link records, are compared bit for bit with couplings filled
one face at a time and, at the benchmark scales, with the dense E x E
products.
"""

import itertools

import numpy as np
import pytest

from cmrf import (
    SgmParams,
    build_cmrf,
    build_complex,
    build_precision,
    draw_params,
    find_cancellations,
    incidence,
    line_graph,
    min_valid_k,
    random_2sc,
)
from cmrf.simplicial import _enumerate_3cliques, _sample_er_graph, _shared_face_pairs

from helpers import (
    cancellations_by_loop,
    cancellations_dense,
    cliques_by_combinations,
    couplings_by_face_loop,
    couplings_dense,
    line_graph_by_loops,
    lower_links_by_loops,
    matrices_of,
    shared_face_pairs_dense,
    upper_links_by_loops,
)

# (vertices, edges, triangles) of the benchmark scales
SCALES = [(10, 21, 12), (30, 120, 60), (60, 400, 200)]


@pytest.fixture(scope="module", params=SCALES, ids=lambda s: "%d-%d-%d" % s)
def scale_complexes(request):
    nv, ne, nt = request.param
    return [
        random_2sc(nv, None, nt, seed, num_edges=ne,
                   require_trivial_homology=False)
        for seed in range(2)
    ]


@pytest.mark.parametrize("sparsity", [0.0, 0.5])
def test_build_cmrf_matches_loops(scale_complexes, sparsity):
    for seed, sc in enumerate(scale_complexes):
        inc = incidence(sc)
        params = draw_params(inc, seed, sparsity=sparsity)
        graph = build_cmrf(inc, params)
        assert graph.num_nodes == sc.num_edges
        assert graph.lower_links == lower_links_by_loops(sc, params.d_v)
        assert graph.upper_links == upper_links_by_loops(sc, params.d_t)


def test_build_cmrf_without_couplings(scale_complexes):
    sc = scale_complexes[0]
    inc = incidence(sc)
    params = SgmParams(k=1.0, d_v=np.zeros(sc.num_vertices),
                       d_t=np.zeros(sc.num_triangles))
    graph = build_cmrf(inc, params)
    assert graph.lower_links == frozenset()
    assert graph.upper_links == frozenset()


def test_line_graph_matches_loops(scale_complexes):
    for sc in scale_complexes:
        adj = line_graph(sc)
        assert adj.dtype == np.int64
        assert np.array_equal(adj, line_graph_by_loops(sc))


@pytest.mark.parametrize("num_vertices", [10, 30, 60])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
def test_cliques_match_combinations(num_vertices, p):
    rng = np.random.default_rng(num_vertices)
    for _ in range(3):
        edges = _sample_er_graph(num_vertices, p, rng)
        assert _enumerate_3cliques(num_vertices, edges) == cliques_by_combinations(
            num_vertices, edges
        )


def test_cliques_of_empty_graph():
    assert _enumerate_3cliques(5, []) == []


def _k18():
    vertices = range(18)
    return build_complex(vertices, list(itertools.combinations(vertices, 2)),
                         list(itertools.combinations(vertices, 3)))


# (complex, d_v, d_t) beside the scales: every triangle of K18 filled; the
# cancelling model of test_model (d_v[1] == d_t[0] on one triangle); an
# isolated vertex with all-zero coefficients
def _cases():
    k18 = _k18()
    triangle = build_complex([1, 2, 3], [(1, 2), (1, 3), (2, 3)], [(1, 2, 3)])
    isolated = build_complex([0, 1, 2, 3], [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)])
    rng = np.random.default_rng(18)
    return {
        "K18": (k18, rng.uniform(0.2, 5.0, 18), rng.uniform(0.2, 5.0, 816)),
        "K18-unit": (k18, np.ones(18), np.ones(816)),
        "cancelling": (triangle, np.array([1.5, 0.0, 0.0]), np.array([1.5])),
        "isolated-zero": (isolated, np.zeros(4), np.zeros(1)),
    }


def _check_against_oracles(sc, d_v, d_t):
    inc = incidence(sc)
    params = SgmParams(k=min_valid_k(inc, d_v, d_t) if sc.num_edges else 1.0,
                       d_v=d_v, d_t=d_t)
    graph = build_cmrf(inc, params)
    assert graph.num_nodes == sc.num_edges
    for pairs, links, incmat, d, loops in (
            (graph._pairs[0], graph.lower_links, inc.b1, d_v, lower_links_by_loops(sc, d_v)),
            (graph._pairs[1], graph.upper_links, inc.b2.T, d_t, upper_links_by_loops(sc, d_t))):
        dense = shared_face_pairs_dense(incmat, d != 0)
        assert pairs.shape == dense.shape and pairs.dtype == dense.dtype
        assert np.array_equal(pairs, dense)
        assert links == loops == set(map(tuple, dense.tolist()))
        # each pair shares the face the generator names
        found, faces = _shared_face_pairs(incmat, d != 0)
        assert np.array_equal(found, pairs)
        assert np.all(incmat[faces, pairs[:, 0]] != 0) and np.all(incmat[faces, pairs[:, 1]] != 0)
        assert np.all(d[faces] != 0)
    assert np.array_equal(line_graph(sc), line_graph_by_loops(sc))
    assert line_graph(sc).dtype == np.int64
    if sc.num_edges:
        found = find_cancellations(inc, params)
        assert found == cancellations_dense(inc, params) == cancellations_by_loop(inc, params)
        return found
    return None


@pytest.mark.parametrize("sparsity", [0.0, 0.5])
def test_links_and_cancellations_match_dense_and_loops(scale_complexes, sparsity):
    for seed, sc in enumerate(scale_complexes):
        params = draw_params(incidence(sc), seed, sparsity=sparsity)
        assert _check_against_oracles(sc, params.d_v, params.d_t) is not None


@pytest.mark.parametrize("case", ["K18", "K18-unit", "cancelling", "isolated-zero"])
def test_links_and_cancellations_on_special_complexes(case):
    found = _check_against_oracles(*_cases()[case])
    if case == "cancelling":
        assert found == [(0, 1)]
    if case == "K18-unit":
        assert found  # unit coefficients cancel on opposing triangle sides
    if case == "isolated-zero":
        assert found == []


def _matrix_bytes(inc, d_v, d_t, couplings):
    """Bytes of the built (omega, omega_d, omega_u) and of those formed from ``couplings``."""
    params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
    prec = build_precision(inc, params)
    got = [m.tobytes() for m in (prec.omega, prec.omega_d, prec.omega_u)]
    return got, [m.tobytes() for m in matrices_of(params.k, *couplings(inc, d_v, d_t))]


@pytest.mark.parametrize("case", ["K18", "K18-unit", "cancelling", "isolated-zero"])
def test_matrices_are_the_face_loop_bits(case):
    sc, d_v, d_t = _cases()[case]
    got, want = _matrix_bytes(incidence(sc), d_v, d_t, couplings_by_face_loop)
    assert got == want


@pytest.mark.parametrize("sparsity", [0.0, 0.5])
@pytest.mark.parametrize("scale", SCALES, ids=lambda s: "%d-%d-%d" % s)
def test_matrices_are_the_dense_bits_at_the_scales(scale, sparsity):
    nv, ne, nt = scale
    for seed in range(5, 10):
        inc = incidence(random_2sc(nv, None, nt, seed, num_edges=ne,
                                   require_trivial_homology=ne == 21))
        params = draw_params(inc, seed, sparsity=sparsity)
        got, want = _matrix_bytes(inc, params.d_v, params.d_t, couplings_dense)
        assert got == want


def test_edgeless_complex():
    sc = build_complex([0, 1, 2], [])
    _check_against_oracles(sc, np.ones(3), np.zeros(0))
    inc = incidence(sc)
    params = SgmParams(k=1.0, d_v=np.ones(3), d_t=np.zeros(0))
    assert build_cmrf(inc, params).links == frozenset()
    for cancellations in (find_cancellations, cancellations_dense):
        with pytest.raises(ValueError, match="^the complex has an empty edge set"):
            cancellations(inc, params)


@pytest.mark.parametrize("d", [1e300, 4e307, 2.0 ** 1022, 8.9e307, 2.0 ** 1023, 1e308])
@pytest.mark.parametrize("where", ["vertex", "both-ends", "triangle"])
def test_cancellations_refuse_overflow_as_the_dense_couplings(filled_triangle, d, where):
    d_v, d_t = np.array([1.0, 0.0, 0.0]), np.array([1.0])
    if where == "vertex":
        d_v[0] = d
    elif where == "both-ends":
        d_v[:2] = d
    else:
        d_t[0] = d
    inc = incidence(filled_triangle)
    params = SgmParams(k=1.0, d_v=d_v, d_t=d_t)
    outcomes = []
    for cancellations in (find_cancellations, cancellations_dense):
        try:
            outcomes.append(cancellations(inc, params))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if d >= 2.0 ** 1023 or (where == "both-ends" and d >= 2.0 ** 1022):
        assert outcomes[0].startswith("the couplings overflow in double precision")
