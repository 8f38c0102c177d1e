import numpy as np
import pytest

from cmrf import (
    DimensionMismatch,
    NotPositiveDefinite,
    SgmParams,
    build_cmrf,
    build_complex,
    build_precision,
    covariance,
    draw_params,
    find_cancellations,
    identity_residuals,
    incidence,
    load_model,
    min_valid_k,
    random_2sc,
    sample,
    save_complex,
    save_model,
)
from cmrf import model

from helpers import cancellations_by_loop, draw_sparse_model


def random_cases(bench_incidence, count, sparsity=0.0):
    rng = np.random.default_rng(77)
    for _ in range(count):
        params = draw_params(bench_incidence, rng, sparsity=sparsity)
        yield params, build_precision(bench_incidence, params)


class TestPrecisionConstruction:
    def test_filled_triangle_upper_only(self, filled_triangle):
        inc = incidence(filled_triangle)
        params = SgmParams(k=4.0, d_v=np.zeros(3), d_t=np.array([1.0]))
        prec = build_precision(inc, params)
        expected = np.array([[3.0, 1.0, -1.0], [1.0, 3.0, 1.0], [-1.0, 1.0, 3.0]])
        assert np.array_equal(prec.omega, expected)
        assert np.array_equal(prec.omega_d, 4.0 * np.eye(3))

    def test_min_valid_k_matches_threshold(self, filled_triangle):
        inc = incidence(filled_triangle)
        k_min = min_valid_k(inc, np.zeros(3), np.array([1.0]))
        assert abs(k_min - 3.1) < 1e-12 * 3.1

    def test_min_valid_k_refuses_a_margin_lost_to_rounding(self, filled_triangle):
        inc = incidence(filled_triangle)
        huge = np.full(3, 1e200), np.array([1e200])
        with pytest.raises(ValueError, match="too large for the margin"):
            min_valid_k(inc, *huge)
        # margin 0 asks for the threshold itself, which is what it gets
        assert min_valid_k(inc, *huge, margin=0.0) == 3e200

    @pytest.mark.parametrize("scale", [1.0, 1e7, 1e8, 1e10, 1e200])
    @pytest.mark.parametrize("margin", [1e-12, 1e-8, 0.1, 10.0])
    def test_min_valid_k_gives_only_a_k_that_builds(self, filled_triangle, scale, margin):
        # one floor for both: k - lambda_max must exceed 1e-9 * k
        inc = incidence(filled_triangle)
        d_v, d_t = np.full(3, scale), np.array([scale])  # lambda_max = 3 * scale
        if margin <= 1e-9 * 3 * scale:
            with pytest.raises(ValueError, match="needs a margin above the floor"):
                min_valid_k(inc, d_v, d_t, margin)
        else:
            k = min_valid_k(inc, d_v, d_t, margin)
            build_precision(inc, SgmParams(k=k, d_v=d_v, d_t=d_t))

    def test_refusal_above_lambda_max_names_the_floor(self, filled_triangle):
        inc = incidence(filled_triangle)
        params = SgmParams(k=3e10 + 0.1, d_v=np.full(3, 1e10), d_t=np.array([1e10]))
        with pytest.raises(NotPositiveDefinite) as info:
            build_precision(inc, params)
        message = str(info.value)
        assert message.startswith("k=3e+10 gives smallest eigenvalue ")
        assert message.endswith("; need it above the floor 1e-09*k = 3.000e+01")

    def test_rejects_k_at_threshold(self, filled_triangle):
        inc = incidence(filled_triangle)
        with pytest.raises(NotPositiveDefinite):
            build_precision(inc, SgmParams(k=3.0, d_v=np.zeros(3), d_t=np.array([1.0])))

    def test_accepts_k_just_above_threshold(self, bench_incidence):
        rng = np.random.default_rng(5)
        nv = bench_incidence.b1.shape[0]
        nt = bench_incidence.b2.shape[1]
        d_v = rng.uniform(0.2, 5.0, nv)
        d_t = rng.uniform(0.2, 5.0, nt)
        k_min = min_valid_k(bench_incidence, d_v, d_t, margin=0.0)
        build_precision(bench_incidence, SgmParams(k=k_min + 1e-3, d_v=d_v, d_t=d_t))
        with pytest.raises(NotPositiveDefinite):
            build_precision(bench_incidence, SgmParams(k=k_min - 1e-6, d_v=d_v, d_t=d_t))

    def test_successful_build_takes_no_eigenvalues(self, bench_incidence, monkeypatch):
        params = draw_params(bench_incidence, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on a valid model")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        prec = build_precision(bench_incidence, params)
        assert prec.num_edges == bench_incidence.b1.shape[1]
        with pytest.raises(AssertionError):  # the error text still needs it
            build_precision(bench_incidence, SgmParams(
                k=params.k - 1.0, d_v=params.d_v, d_t=params.d_t))

    def test_zero_couplings_give_scaled_identity(self, bench_incidence):
        ne = bench_incidence.b1.shape[1]
        nv = bench_incidence.b1.shape[0]
        nt = bench_incidence.b2.shape[1]
        prec = build_precision(
            bench_incidence, SgmParams(k=2.5, d_v=np.zeros(nv), d_t=np.zeros(nt))
        )
        assert np.array_equal(prec.omega, 2.5 * np.eye(ne))

    def test_upper_factor_collapses_without_triangles(self, bench_incidence):
        nv = bench_incidence.b1.shape[0]
        nt = bench_incidence.b2.shape[1]
        rng = np.random.default_rng(9)
        d_v = rng.uniform(0.2, 5.0, nv)
        params = SgmParams(
            k=min_valid_k(bench_incidence, d_v, np.zeros(nt)),
            d_v=d_v,
            d_t=np.zeros(nt),
        )
        prec = build_precision(bench_incidence, params)
        assert np.array_equal(prec.omega, prec.omega_d)

    def test_wrong_coefficient_lengths(self, bench_incidence):
        with pytest.raises(DimensionMismatch):
            build_precision(
                bench_incidence, SgmParams(k=5.0, d_v=np.zeros(3), d_t=np.zeros(12))
            )

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            SgmParams(k=1.0, d_v=np.array([-0.1]), d_t=np.zeros(0))


class TestIdentities:
    def test_decomposition_identities_random(self, bench_incidence):
        for params, prec in random_cases(bench_incidence, 30):
            res = identity_residuals(prec)
            assert res.mean_variance == np.trace(covariance(prec)) / prec.num_edges
            assert res.sum_rule < 1e-12 * params.k
            assert res.product_rule < 1e-10 * params.k**2
            assert res.inverse_rule < 1e-10 * res.mean_variance

    def test_covariance_inverts_precision(self, bench_incidence):
        for params, prec in random_cases(bench_incidence, 5):
            eye = covariance(prec) @ prec.omega
            assert np.abs(eye - np.eye(prec.num_edges)).max() < 1e-9


class TestColoredGraph:
    def test_single_vertex_coupling_links_its_edges(self, filled_triangle):
        inc = incidence(filled_triangle)
        params = SgmParams(k=4.0, d_v=np.array([1.0, 0.0, 0.0]), d_t=np.zeros(1))
        graph = build_cmrf(inc, params)
        assert graph.lower_links == frozenset({(0, 1)})
        assert graph.upper_links == frozenset()

    def test_triangle_coupling_links_all_sides(self, filled_triangle):
        inc = incidence(filled_triangle)
        params = SgmParams(k=4.0, d_v=np.zeros(3), d_t=np.array([1.0]))
        graph = build_cmrf(inc, params)
        assert graph.upper_links == frozenset({(0, 1), (0, 2), (1, 2)})
        assert graph.lower_links == frozenset()

    def test_zero_triangle_coefficients_empty_upper(self, bench_incidence):
        nv = bench_incidence.b1.shape[0]
        nt = bench_incidence.b2.shape[1]
        params = SgmParams(k=30.0, d_v=np.ones(nv), d_t=np.zeros(nt))
        assert build_cmrf(bench_incidence, params).upper_links == frozenset()

    def test_gaussian_support_inside_colored_links(self, bench_incidence):
        for i in range(10):
            params, prec, graph = draw_sparse_model(bench_incidence, seed=100 + i)
            links = graph.links
            off = np.abs(prec.omega.copy())
            np.fill_diagonal(off, 0.0)
            for a, b in zip(*np.nonzero(off)):
                if a < b:
                    assert (int(a), int(b)) in links

    def test_exact_cancellation_detected(self, filled_triangle):
        # With d_v[1] == d_t[0] the lower and upper couplings of the pair
        # of edges at vertex 1 cancel exactly: the pair keeps both link
        # colors but drops out of the support of omega.
        inc = incidence(filled_triangle)
        params = SgmParams(k=6.0, d_v=np.array([1.5, 0.0, 0.0]), d_t=np.array([1.5]))
        prec = build_precision(inc, params)
        graph = build_cmrf(inc, params)
        assert (0, 1) in graph.lower_links and (0, 1) in graph.upper_links
        assert prec.omega[0, 1] == 0.0
        assert find_cancellations(inc, params) == [(0, 1)]

    def test_no_cancellations_for_generic_draws(self, bench_incidence):
        params = draw_params(bench_incidence, np.random.default_rng(3))
        assert find_cancellations(bench_incidence, params) == []

    def test_cancellations_match_link_loop_on_fixture(self, filled_triangle):
        inc = incidence(filled_triangle)
        params = SgmParams(k=6.0, d_v=np.array([1.5, 0.0, 0.0]), d_t=np.array([1.5]))
        assert find_cancellations(inc, params) == cancellations_by_loop(inc, params)

    @pytest.mark.parametrize("nv, ne, nt", [(30, 120, 60), (60, 400, 200)])
    def test_cancellations_match_link_loop_at_scale(self, nv, ne, nt):
        sc = random_2sc(nv, None, nt, seed=5, num_edges=ne, require_trivial_homology=False)
        inc = incidence(sc)
        for sparsity in (0.0, 0.5):
            params = draw_params(inc, 5, sparsity=sparsity)
            assert find_cancellations(inc, params) == cancellations_by_loop(inc, params)
        # unit coefficients cancel on every pair of triangle sides whose
        # lower and upper signs oppose
        d_v, d_t = np.ones(nv), np.ones(nt)
        params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
        found = find_cancellations(inc, params)
        assert found and found == cancellations_by_loop(inc, params)


    def test_k_identity_decision_is_the_assembled_one(self, filled_triangle):
        # model build reads omega == k*I off the coupling record; it must
        # agree with the assembled matrix bit for bit
        two_edges = build_complex([0, 1, 2, 3], [(0, 1), (2, 3)])
        sc = random_2sc(30, None, 60, seed=5, num_edges=120, require_trivial_homology=False)
        cases = [
            (filled_triangle, [0.0] * 3, [0.0]),
            (filled_triangle, [1e-20] * 3, [1e-20]),  # every link cancels, k absorbs the rest
            (filled_triangle, [1e-20, 1e-20, 0.0], [1e-20]),  # one link is left
            (filled_triangle, [1.5, 0.0, 0.0], [1.5]),
            (filled_triangle, [1.0] * 3, [1.0]),
            (two_edges, [1e-20] * 4, []),  # no link, the diagonal rounds to k
            (two_edges, [1e-7] * 4, []),
            (sc, np.zeros(30), np.zeros(60)),
            (sc, np.ones(30), np.ones(60)),
        ]
        seen = set()
        for complex_, d_v, d_t in cases:
            inc = incidence(complex_)
            d_v, d_t = np.asarray(d_v, float), np.asarray(d_t, float)
            params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
            omega = build_precision(inc, params).omega
            want = np.array_equal(omega, params.k * np.eye(complex_.num_edges))
            cancels, identity = model._coupling_report(inc, params)
            assert identity == want
            assert cancels == find_cancellations(inc, params)
            seen.add(want)
        assert seen == {False, True}


class TestSampling:
    def test_reproducible(self, bench_incidence):
        params = draw_params(bench_incidence, np.random.default_rng(1))
        prec = build_precision(bench_incidence, params)
        assert np.array_equal(sample(prec, 10, seed=5), sample(prec, 10, seed=5))

    def test_sample_covariance_converges(self, bench_incidence):
        params = draw_params(bench_incidence, np.random.default_rng(2))
        prec = build_precision(bench_incidence, params)
        n = 200_000
        draws = sample(prec, n, seed=8)
        cov = covariance(prec)
        emp = draws.T @ draws / n
        # entrywise error is O(sqrt(var_i var_j / n)); allow 6 sigma
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)) + cov**2)
        assert (np.abs(emp - cov) < 6.0 * scale / np.sqrt(n)).all()
        assert np.abs(draws.mean(axis=0)).max() < 6.0 * np.sqrt(np.diag(cov).max() / n)


class TestDrawParams:
    def test_bounds_and_k_choice(self, bench_incidence):
        rng = np.random.default_rng(4)
        params = draw_params(bench_incidence, rng)
        assert ((params.d_v >= 0.2) & (params.d_v <= 5.0)).all()
        assert ((params.d_t >= 0.2) & (params.d_t <= 5.0)).all()
        expected_k = min_valid_k(bench_incidence, params.d_v, params.d_t, 0.1)
        assert params.k == expected_k

    @pytest.mark.parametrize("bounds", [
        {"dv_bounds": (5.0, 1.0)}, {"dt_bounds": (0.3, 0.2)}, {"dv_bounds": (float("nan"), 1.0)},
    ], ids=["dv-reversed", "dt-reversed", "dv-low-nan"])
    def test_reversed_bounds_refused(self, bench_incidence, bounds):
        name, (low, high) = next(iter(bounds.items()))
        with pytest.raises(ValueError, match=rf"^{name}=\({low:g}, {high:g}\) spans no finite "
                                             "range: high - low must be finite and at least 0$"):
            draw_params(bench_incidence, 4, **bounds)

    def test_equal_bounds_draw_one_value(self, bench_incidence):
        params = draw_params(bench_incidence, 4, dv_bounds=(2.0, 2.0), dt_bounds=(0.5, 0.5))
        assert (params.d_v == 2.0).all() and (params.d_t == 0.5).all()

    def test_full_sparsity_zeroes_everything(self, bench_incidence):
        params = draw_params(bench_incidence, 12, sparsity=1.0)
        assert not params.d_v.any() and not params.d_t.any()


class TestModelSerialization:
    def test_round_trip_with_relative_reference(self, tmp_path, bench_complex, bench_incidence):
        save_complex(bench_complex, tmp_path / "complex.json")
        params = draw_params(bench_incidence, 21)
        save_model(params, "complex.json", tmp_path / "model.json")
        sc, loaded = load_model(tmp_path / "model.json")
        assert sc == bench_complex
        assert loaded.k == params.k
        assert np.array_equal(loaded.d_v, params.d_v)
        assert np.array_equal(loaded.d_t, params.d_t)
