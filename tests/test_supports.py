"""Graph supports read off incidence products against loop oracles.

The colored links of a model, the line graph of a complex and the
3-cliques of a sampled graph are compared with direct enumerations over
pairs and triples of simplices in tests/helpers.py.
"""

import numpy as np
import pytest

from cmrf import SgmParams, build_cmrf, draw_params, incidence, line_graph, random_2sc
from cmrf.simplicial import _enumerate_3cliques, _sample_er_graph

from helpers import (
    cliques_by_combinations,
    line_graph_by_loops,
    lower_links_by_loops,
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
