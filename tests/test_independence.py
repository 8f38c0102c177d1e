import numpy as np
import pytest

from cmrf import (
    CmrfGraph,
    DimensionMismatch,
    NotColorSeparated,
    NotSeparated,
    OverlappingSets,
    SeparationQuery,
    SgmParams,
    build_cmrf,
    build_precision,
    color_separated_singleton_pairs,
    incidence,
    random_2sc,
    is_color_separated,
    is_graph_separated,
    min_valid_k,
    verify_conditional_independence,
    verify_marginal_independence,
)

from helpers import (
    color_separated_by_enumeration,
    draw_sparse_model,
    graph_separated_by_enumeration,
    random_colored_graph,
    subsets_up_to,
)


@pytest.fixture(scope="module")
def clustered_model(two_cluster_complex):
    """Couplings on vertices 3,4,5 and both triangles of the fixture."""
    inc = incidence(two_cluster_complex)
    d_v = np.zeros(6)
    d_v[[2, 3, 4]] = [1.0, 2.0, 1.5]  # vertices 3, 4, 5
    d_t = np.array([1.0, 2.0])
    params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
    prec = build_precision(inc, params)
    graph = build_cmrf(inc, params)
    return prec, graph


class TestSeparationDecisions:
    def test_color_separation_on_fixture(self, clustered_model):
        _, graph = clustered_model
        assert is_color_separated(graph, [0], [3, 4, 5, 6])
        assert not is_color_separated(graph, [0], [1])  # common triangle
        assert not is_color_separated(graph, [1], [5])  # lower path via vertex 3

    def test_color_separation_does_not_imply_graph_separation(self, clustered_model):
        _, graph = clustered_model
        assert is_color_separated(graph, [0], [3])
        query = SeparationQuery(set_a=(0,), set_b=(3,))
        assert not is_graph_separated(graph, query)  # bicolored path exists

    def test_graph_separation_with_blocking_set(self, clustered_model):
        _, graph = clustered_model
        query = SeparationQuery(set_a=(0,), set_b=(3, 4, 5, 6), given=(1, 2))
        assert is_graph_separated(graph, query)

    def test_singleton_scan_matches_definition(self, clustered_model):
        _, graph = clustered_model
        pairs = color_separated_singleton_pairs(graph)
        assert pairs == sorted(
            (i, j)
            for i in range(graph.num_nodes)
            for j in range(i + 1, graph.num_nodes)
            if is_color_separated(graph, [i], [j])
        )
        assert (0, 3) in pairs and (0, 6) in pairs

    def test_overlapping_sets_rejected(self, clustered_model):
        _, graph = clustered_model
        with pytest.raises(OverlappingSets):
            SeparationQuery(set_a=(0, 1), set_b=(1, 2))
        with pytest.raises(OverlappingSets):
            is_color_separated(graph, [0], [0])
        with pytest.raises(OverlappingSets):
            SeparationQuery(set_a=(0,), set_b=(2,), given=(0,))

    @pytest.mark.parametrize("name", ["set_a", "set_b", "given"])
    def test_repeated_index_rejected(self, clustered_model, name):
        prec, graph = clustered_model
        sets = {"set_a": (0,), "set_b": (3, 4), "given": (1, 2)}
        sets[name] = (*sets[name], sets[name][0])
        with pytest.raises(ValueError, match=f"^{name} repeats node index {sets[name][0]}, "):
            SeparationQuery(**sets)
        if name != "given":
            with pytest.raises(ValueError, match=f"^{name} repeats node index"):
                verify_marginal_independence(prec, graph, sets["set_a"], sets["set_b"])

    def test_empty_set_is_vacuously_separated_with_warning(self, clustered_model):
        _, graph = clustered_model
        with pytest.warns(UserWarning):
            assert is_color_separated(graph, [], [1])
        with pytest.warns(UserWarning):
            assert is_graph_separated(graph, SeparationQuery(set_a=(), set_b=(1,)))

    def test_empty_set_warning_names_the_caller(self, clustered_model):
        prec, graph = clustered_model
        calls = [
            lambda: is_color_separated(graph, [], [1]),
            lambda: is_graph_separated(graph, SeparationQuery(set_a=(), set_b=(1,))),
            lambda: verify_marginal_independence(prec, graph, [], [3]),
            lambda: verify_conditional_independence(
                prec, graph, SeparationQuery(set_a=(0,), set_b=(), given=(1,))),
        ]
        for call in calls:
            with pytest.warns(UserWarning, match="empty query set") as caught:
                call()
            assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("bad", [(1.5,), (True,), ("1",), (np.float64(1.0),)])
    def test_non_integer_indices_rejected(self, bad):
        for kwargs in ({"set_a": bad, "set_b": (2,)}, {"set_a": (0,), "set_b": bad},
                       {"set_a": (0,), "set_b": (2,), "given": bad}):
            with pytest.raises(ValueError, match="integer"):
                SeparationQuery(**kwargs)

    def test_numpy_integer_indices_accepted(self):
        query = SeparationQuery(set_a=(np.int64(0),), set_b=np.array([2, 3]),
                                given=(np.uint8(1),))
        assert query == SeparationQuery(set_a=(0,), set_b=(2, 3), given=(1,))
        assert all(type(i) is int for i in (*query.set_a, *query.set_b, *query.given))

    def test_out_of_range_node(self, clustered_model):
        _, graph = clustered_model
        with pytest.raises(ValueError):
            is_color_separated(graph, [0], [99])

    @pytest.mark.parametrize("bad", [-1, -7, 7, 8])
    def test_out_of_range_node_refused_before_any_label(self, clustered_model, bad):
        # a negative index would otherwise read another node's label
        prec, graph = clustered_model
        message = f"^node index {bad} outside 0..6$"
        for set_a, set_b in (([bad], [0]), ([3, 4], [0, bad])):
            with pytest.raises(ValueError, match=message):
                is_color_separated(graph, set_a, set_b)
            with pytest.raises(ValueError, match=message):
                verify_marginal_independence(prec, graph, set_a, set_b)
            with pytest.raises(ValueError, match=message):
                is_graph_separated(graph, SeparationQuery(tuple(set_a), tuple(set_b)))
        with pytest.raises(ValueError, match=message):
            verify_conditional_independence(prec, graph, SeparationQuery((0,), (3,), (bad,)))

    def test_sets_sharing_a_component_in_one_color(self):
        # lower components {0, 1}, upper ones {2, 3}; the rest alone
        graph = CmrfGraph(6, frozenset({(0, 1)}), frozenset({(2, 3)}))
        cases = [([0, 2], [1, 4], False),  # joined by a lower link only
                 ([0, 2], [3, 4], False),  # joined by an upper link only
                 ([4, 1], [3, 0], False),
                 ([0, 2], [4, 5], True),
                 ([0, 3], [4, 5], True)]
        for set_a, set_b, separated in cases:
            assert is_color_separated(graph, set_a, set_b) is separated
            assert is_color_separated(graph, set_b, set_a) is separated
            assert color_separated_by_enumeration(graph, set_a, set_b) is separated


class TestAgainstEnumerationOracle:
    def test_small_random_graphs(self):
        rng = np.random.default_rng(303)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            graph = random_colored_graph(n, rng, p_link=float(rng.uniform(0.15, 0.5)))
            for a in range(n):
                for b in range(a + 1, n):
                    assert is_color_separated(graph, [a], [b]) == \
                        color_separated_by_enumeration(graph, [a], [b])
                    rest = [x for x in range(n) if x not in (a, b)]
                    for s in subsets_up_to(rest, 2):
                        got = is_graph_separated(
                            graph, SeparationQuery(set_a=(a,), set_b=(b,), given=s)
                        )
                        assert got == graph_separated_by_enumeration(graph, [a], [b], s)

    def test_set_valued_queries(self):
        rng = np.random.default_rng(404)
        for _ in range(30):
            n = int(rng.integers(5, 9))
            graph = random_colored_graph(n, rng)
            nodes = rng.permutation(n)
            set_a, set_b = [int(nodes[0])], [int(x) for x in nodes[1:3]]
            given = [int(x) for x in nodes[3:5]]
            q = SeparationQuery(set_a=tuple(set_a), set_b=tuple(set_b), given=tuple(given))
            assert is_graph_separated(graph, q) == \
                graph_separated_by_enumeration(graph, set_a, set_b, given)
            assert is_color_separated(graph, set_a, set_b) == \
                color_separated_by_enumeration(graph, set_a, set_b)


    @pytest.mark.parametrize("nv, ne, nt", [(10, 21, 12), (30, 120, 60)])
    def test_hand_built_graphs_give_the_built_verdicts(self, nv, ne, nt):
        inc = incidence(random_2sc(nv, None, nt, seed=5, num_edges=ne,
                                   require_trivial_homology=ne == 21))
        rng = np.random.default_rng(ne)
        verdicts = set()
        for seed in range(3):
            params, prec, built = draw_sparse_model(inc, seed=seed)
            hand = CmrfGraph(built.num_nodes, built.lower_links, built.upper_links)
            assert color_separated_singleton_pairs(hand) == color_separated_singleton_pairs(built)
            for _ in range(100):
                nodes = rng.permutation(ne)[:6].tolist()
                set_a, set_b, given = nodes[:2], nodes[2:4], nodes[4:]
                color = is_color_separated(built, set_a, set_b)
                verdicts.add(color)
                assert is_color_separated(hand, set_a, set_b) == color
                query = SeparationQuery(tuple(set_a), tuple(set_b), tuple(given))
                assert is_graph_separated(hand, query) == is_graph_separated(built, query)
                if color:
                    assert (verify_marginal_independence(prec, hand, set_a, set_b)
                            == verify_marginal_independence(prec, built, set_a, set_b))
        assert verdicts == {True, False}


class TestMonotonicity:
    def test_adding_links_never_creates_separation(self):
        rng = np.random.default_rng(505)
        for _ in range(50):
            n = int(rng.integers(4, 9))
            graph = random_colored_graph(n, rng, p_link=0.25)
            a, b = rng.choice(n, size=2, replace=False)
            before = is_color_separated(graph, [int(a)], [int(b)])
            # add one random link of a random color
            i, j = sorted(rng.choice(n, size=2, replace=False))
            link = (int(i), int(j))
            if rng.random() < 0.5:
                bigger = graph.__class__(
                    num_nodes=n,
                    lower_links=graph.lower_links | {link},
                    upper_links=graph.upper_links,
                )
            else:
                bigger = graph.__class__(
                    num_nodes=n,
                    lower_links=graph.lower_links,
                    upper_links=graph.upper_links | {link},
                )
            after = is_color_separated(bigger, [int(a)], [int(b)])
            assert before or not after


class TestNumericalVerification:
    def test_marginal_independence_on_fixture(self, clustered_model):
        prec, graph = clustered_model
        report = verify_marginal_independence(prec, graph, [0], [3, 4, 5, 6])
        assert report.passed
        assert report.residual < report.tolerance

    def test_marginal_rejects_connected_pair(self, clustered_model):
        prec, graph = clustered_model
        with pytest.raises(NotColorSeparated):
            verify_marginal_independence(prec, graph, [0], [1])

    def test_conditional_independence_on_fixture(self, clustered_model):
        prec, graph = clustered_model
        query = SeparationQuery(set_a=(0,), set_b=(3, 4, 5, 6), given=(1, 2))
        report = verify_conditional_independence(prec, graph, query)
        assert report.passed

    def test_conditional_rejects_unblocked_query(self, clustered_model):
        prec, graph = clustered_model
        query = SeparationQuery(set_a=(0,), set_b=(3,), given=(1,))
        with pytest.raises(NotSeparated):
            verify_conditional_independence(prec, graph, query)

    def test_mismatched_model_refused(self, clustered_model, bench_incidence):
        # 7-edge fixture against a 21-node graph and the reverse; every
        # query is separated in its graph, so only the size check refuses it.
        prec, graph = clustered_model
        big_prec = build_precision(bench_incidence, SgmParams(
            k=1.0, d_v=np.zeros(10), d_t=np.zeros(12)))
        empty = build_cmrf(bench_incidence, SgmParams(
            k=1.0, d_v=np.zeros(10), d_t=np.zeros(12)))
        for p, g, b in ((prec, empty, 20), (big_prec, graph, 3)):
            with pytest.raises(DimensionMismatch):
                verify_marginal_independence(p, g, [0], [b])
            with pytest.raises(DimensionMismatch):
                verify_conditional_independence(
                    p, g, SeparationQuery(set_a=(0,), set_b=(b,), given=(1, 2)))

    def test_random_sparse_models_color_separation(self, bench_incidence):
        found = 0
        for i in range(12):
            params, prec, graph = draw_sparse_model(bench_incidence, seed=900 + i)
            for a, b in color_separated_singleton_pairs(graph):
                report = verify_marginal_independence(prec, graph, [a], [b])
                assert report.passed, (a, b, report.residual, report.tolerance)
                found += 1
        assert found > 0

    def test_random_sparse_models_conditional(self, bench_incidence):
        rng = np.random.default_rng(42)
        checked = 0
        for i in range(8):
            params, prec, graph = draw_sparse_model(bench_incidence, seed=800 + i)
            n = graph.num_nodes
            for _ in range(200):
                a, b = rng.choice(n, size=2, replace=False)
                rest = [x for x in range(n) if x not in (int(a), int(b))]
                s = tuple(int(x) for x in rng.choice(rest, size=3, replace=False))
                query = SeparationQuery(set_a=(int(a),), set_b=(int(b),), given=s)
                if is_graph_separated(graph, query):
                    report = verify_conditional_independence(prec, graph, query)
                    assert report.passed, (query, report.residual, report.tolerance)
                    checked += 1
        assert checked > 0
