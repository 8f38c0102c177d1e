import re
from collections import Counter

import numpy as np
import pytest

from cmrf import (
    ExperimentConfig,
    VARIANTS,
    VariantSpec,
    build_complex,
    build_precision,
    combination_weights,
    coupling_matrix,
    covariance_cholesky,
    draw_params,
    get_variant,
    incidence,
    line_graph,
    random_2sc,
    run_experiment,
    save_complex,
    step_sizes,
    write_csv,
)
from cmrf import diffusion, model
from cmrf.diffusion import _DenseCouplings, _round

from helpers import (
    agent_states,
    draw_round,
    fd_local_gradient,
    local_gradient,
    local_loss_terms,
)


def atc_round(theta, regressors, observations, coupling, combine, step, variant):
    """One round of ``variant`` for a single run, through the simulator's kernel."""
    spec = get_variant(variant)
    ne, m = regressors.shape
    k = np.zeros((1, 1, 1))
    if spec.is_centralized:
        couplings = _DenseCouplings(np.zeros((1, 0, ne, ne)), coupling[None])
        _, theta_c = _round(np.zeros((1, 0, ne, m)), theta[None], regressors[None],
                            observations[None], couplings, k, np.zeros((1, 0, 1, 1)),
                            np.full((1, 1), step), None, 0)
        return theta_c[0]
    psi, _ = _round(theta[None, None], None, regressors[None], observations[None],
                    _DenseCouplings(coupling[None, None], None), k,
                    np.full((1, 1, 1, 1), step), None, combine, int(spec.uses_combination))
    return psi[0, 0]


@pytest.fixture(scope="module")
def bench_model(bench_incidence):
    params = draw_params(bench_incidence, np.random.default_rng(1234))
    prec = build_precision(bench_incidence, params)
    return params, prec


def residual_map(regressors, observations, theta):
    return {
        j: float(observations[j] - regressors[j] @ theta[j])
        for j in range(theta.shape[0])
    }


class TestVariants:
    def test_term_table(self):
        flags = {
            name: (v.uses_lower_term, v.uses_upper_term, v.uses_combination,
                   v.is_centralized)
            for name, v in VARIANTS.items()
        }
        assert flags == {
            "atc_cmrf": (True, True, True, False),
            "atc_lgmrf": (True, False, True, False),
            "atc_plain": (False, False, True, False),
            "standalone_lms": (False, False, False, False),
            "centralized_cmrf": (True, True, False, True),
        }

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            get_variant("atc_typo")

    def test_coupling_matrices(self, bench_model):
        _, prec = bench_model
        assert coupling_matrix(prec, "atc_cmrf") is prec.omega
        assert coupling_matrix(prec, "atc_lgmrf") is prec.omega_d
        assert np.array_equal(
            coupling_matrix(prec, "atc_plain"), prec.k * np.eye(prec.num_edges)
        )
        assert coupling_matrix(prec, "centralized_cmrf") is prec.omega
        # no table variant uses the upper term alone, but a spec may
        assert coupling_matrix(prec, VariantSpec("up", False, True, True)) is prec.omega_u


class TestGenerateRound:
    def test_shapes_and_moments(self, bench_model):
        _, prec = bench_model
        chol = covariance_cholesky(prec)
        rng = np.random.default_rng(0)
        total = 0.0
        rounds = 3000
        for _ in range(rounds):
            regressors, observations = draw_round(rng, chol, np.zeros(10))
            assert regressors.shape == (prec.num_edges, 10)
            assert observations.shape == (prec.num_edges,)
            total += (regressors**2).sum(axis=1).mean()
        # E ||u_e||^2 = dim * variance = 2.0
        assert abs(total / rounds - 2.0) < 0.02

    def test_observation_equation(self, bench_model):
        _, prec = bench_model
        theta0 = np.arange(10.0)
        chol = covariance_cholesky(prec)
        rng = np.random.default_rng(1)
        n = 20000
        err = np.zeros(prec.num_edges)
        sq = np.zeros((prec.num_edges, prec.num_edges))
        for _ in range(n):
            regressors, observations = draw_round(rng, chol, theta0)
            noise = observations - regressors @ theta0
            err += noise
            sq += np.outer(noise, noise)
        cov = np.linalg.inv(prec.omega)
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)) + cov**2)
        assert (np.abs(sq / n - cov) < 6.0 * scale / np.sqrt(n)).all()
        assert np.abs(err / n).max() < 6.0 * np.sqrt(np.diag(cov).max() / n)


class TestLocalLoss:
    def test_decomposition_matches_quadratic_form(self, bench_incidence, bench_model):
        params, prec = bench_model
        rng = np.random.default_rng(7)
        ne = prec.num_edges
        for _ in range(20):
            r = rng.standard_normal(ne)
            rmap = {e: float(r[e]) for e in range(ne)}
            total = 0.0
            for e in range(ne):
                ph, pd, pu = local_loss_terms(e, rmap, params, bench_incidence)
                total += ph - pd - pu
            direct = 0.5 * float(r @ prec.omega @ r)
            assert abs(total - direct) <= 1e-10 * abs(direct)

    def test_decoupled_terms_vanish(self, bench_incidence):
        from cmrf import SgmParams

        nv, ne = bench_incidence.b1.shape
        nt = bench_incidence.b2.shape[1]
        params = SgmParams(k=3.0, d_v=np.zeros(nv), d_t=np.zeros(nt))
        rmap = {e: 1.0 for e in range(ne)}
        for e in range(ne):
            ph, pd, pu = local_loss_terms(e, rmap, params, bench_incidence)
            assert (ph, pd, pu) == (1.5, 0.0, 0.0)

    def test_missing_required_residual(self, bench_incidence, bench_model):
        params, prec = bench_model
        ne = prec.num_edges
        # drop one neighbor with nonzero coupling
        off = prec.omega.copy()
        np.fill_diagonal(off, 0.0)
        e = 0
        neighbor = int(np.flatnonzero(off[e])[0])
        rmap = {j: 1.0 for j in range(ne) if j != neighbor}
        with pytest.raises(KeyError):
            local_loss_terms(e, rmap, params, bench_incidence)

    def test_unneeded_residual_not_required(self, filled_triangle):
        from cmrf import SgmParams

        inc = incidence(filled_triangle)
        params = SgmParams(k=4.0, d_v=np.zeros(3), d_t=np.zeros(1))
        # no couplings anywhere: the edge's own residual suffices
        ph, pd, pu = local_loss_terms(0, {0: 2.0}, params, inc)
        assert (ph, pd, pu) == (8.0, 0.0, 0.0)


class TestLocalGradient:
    def test_blind_variants_use_quadratic_rule(self, bench_incidence, bench_model):
        params, prec = bench_model
        rng = np.random.default_rng(3)
        u = rng.standard_normal(10)
        theta = rng.standard_normal(10)
        y = 1.7
        r = y - u @ theta
        for name in ("atc_plain", "standalone_lms"):
            grad = local_gradient(0, name, (y, u, theta), {}, params, bench_incidence)
            assert np.array_equal(grad, -params.k * r * u)

    def test_matches_finite_differences(self, bench_incidence, bench_model):
        params, prec = bench_model
        ne = prec.num_edges
        rng = np.random.default_rng(8)
        chol, theta0 = covariance_cholesky(prec), rng.standard_normal(10)
        for variant in ("atc_cmrf", "atc_lgmrf", "atc_plain"):
            for _ in range(3):
                regressors, observations = draw_round(rng, chol, theta0)
                theta = rng.standard_normal((ne, 10))
                e = int(rng.integers(ne))
                rmap = residual_map(regressors, observations, theta)
                nbr = {j: v for j, v in rmap.items() if j != e}
                grad = local_gradient(
                    e, variant, (float(observations[e]), regressors[e], theta[e]),
                    nbr, params, bench_incidence,
                )
                fd = fd_local_gradient(
                    e, variant, theta, regressors, observations,
                    params, bench_incidence, prec,
                )
                rel = np.abs(grad - fd).max() / np.abs(fd).max()
                assert rel < 1e-5

    def test_missing_coupled_neighbor(self, bench_incidence, bench_model):
        params, prec = bench_model
        off = prec.omega.copy()
        np.fill_diagonal(off, 0.0)
        e = 0
        needed = set(int(j) for j in np.flatnonzero(off[e]))
        nbr = {j: 0.5 for j in needed if j != min(needed)}
        with pytest.raises(KeyError):
            local_gradient(
                e, "atc_cmrf", (1.0, np.ones(10), np.zeros(10)),
                nbr, params, bench_incidence,
            )

    def test_slices_aggregate_to_full_gradient(self, bench_incidence, bench_model):
        params, prec = bench_model
        ne = prec.num_edges
        rng = np.random.default_rng(9)
        chol, theta0 = covariance_cholesky(prec), rng.standard_normal(10)
        regressors, observations = draw_round(rng, chol, theta0)
        theta = np.tile(rng.standard_normal(10), (ne, 1))  # common iterate
        rmap = residual_map(regressors, observations, theta)
        total = np.zeros(10)
        for e in range(ne):
            nbr = {j: v for j, v in rmap.items() if j != e}
            total -= local_gradient(
                e, "atc_cmrf", (float(observations[e]), regressors[e], theta[e]),
                nbr, params, bench_incidence,
            )
        r = observations - regressors @ theta[0]
        full = regressors.T @ (prec.omega @ r)
        assert np.abs(total - full).max() < 1e-9 * np.abs(full).max()


class TestAtcRound:
    def test_combination_is_convex(self, bench_complex, bench_model):
        params, prec = bench_model
        ne = bench_complex.num_edges
        rng = np.random.default_rng(10)
        adj = line_graph(bench_complex)
        combine = combination_weights(adj)
        coupling = coupling_matrix(prec, "atc_cmrf")
        theta = rng.standard_normal((ne, 10))
        regressors = rng.standard_normal((ne, 10))
        observations = rng.standard_normal(ne)
        new = atc_round(theta, regressors, observations, coupling, combine, 5e-3, "atc_cmrf")
        residual = observations - np.einsum("em,em->e", regressors, theta)
        psi = theta + 5e-3 * (coupling @ residual)[:, None] * regressors
        for e in range(ne):
            hood = np.append(np.flatnonzero(adj[e]), e)
            lo = psi[hood].min(axis=0) - 1e-12
            hi = psi[hood].max(axis=0) + 1e-12
            assert ((new[e] >= lo) & (new[e] <= hi)).all()

    def test_metropolis_weights_are_doubly_stochastic(self, bench_complex):
        adj = line_graph(bench_complex)
        weights = combination_weights(adj, "metropolis")
        assert (weights >= 0).all()
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(weights, weights.T)
        closed = adj + np.eye(adj.shape[0])
        assert np.array_equal(weights > 0, closed > 0)

    def test_rules_coincide_on_regular_line_graph(self, filled_triangle):
        adj = line_graph(filled_triangle)
        uniform = combination_weights(adj, "uniform")
        metropolis = combination_weights(adj, "metropolis")
        assert np.allclose(uniform, metropolis, atol=1e-15)
        with pytest.raises(ValueError):
            combination_weights(adj, "midpoint")

    def test_isolated_edges_make_combination_identity(self):
        sc = build_complex([1, 2, 3, 4], [(1, 2), (3, 4)])
        inc = incidence(sc)
        from cmrf import SgmParams

        params = SgmParams(k=2.0, d_v=np.zeros(4), d_t=np.zeros(0))
        prec = build_precision(inc, params)
        adj = line_graph(sc)
        assert not adj.any()
        combine = combination_weights(adj)
        rng = np.random.default_rng(11)
        theta = rng.standard_normal((2, 4))
        regressors = rng.standard_normal((2, 4))
        observations = rng.standard_normal(2)
        coupling = coupling_matrix(prec, "atc_plain")
        with_combine = atc_round(
            theta, regressors, observations, coupling, combine, 1e-2, "atc_plain"
        )
        without = atc_round(
            theta, regressors, observations, coupling, combine, 1e-2, "standalone_lms"
        )
        assert np.array_equal(with_combine, without)

    def test_complete_line_graph_keeps_agents_synchronized(self, filled_triangle):
        from cmrf import SgmParams

        inc = incidence(filled_triangle)
        params = SgmParams(k=2.0, d_v=np.zeros(3), d_t=np.zeros(1))
        prec = build_precision(inc, params)
        combine = combination_weights(line_graph(filled_triangle))
        coupling = coupling_matrix(prec, "atc_plain")
        rng = np.random.default_rng(12)
        theta = np.zeros((3, 6))
        for _ in range(5):
            regressors = rng.standard_normal((3, 6))
            observations = rng.standard_normal(3)
            theta = atc_round(
                theta, regressors, observations, coupling, combine, 1e-2, "atc_plain"
            )
            assert np.array_equal(theta[0], theta[1])
            assert np.array_equal(theta[0], theta[2])

    def test_agent_view_reproduces_round(self, bench_complex, bench_incidence, bench_model):
        params, prec = bench_model
        ne = bench_complex.num_edges
        rng = np.random.default_rng(13)
        adj = line_graph(bench_complex)
        combine = combination_weights(adj)
        coupling = coupling_matrix(prec, "atc_cmrf")
        theta = rng.standard_normal((ne, 10))
        regressors = rng.standard_normal((ne, 10))
        observations = rng.standard_normal(ne)
        mu = 4e-3
        new = atc_round(theta, regressors, observations, coupling, combine, mu, "atc_cmrf")
        agents = agent_states(theta, regressors, observations, coupling, adj, mu)
        for agent in agents:
            e = agent.edge_index
            assert set(agent.inbox) == set(int(j) for j in np.flatnonzero(adj[e]))
            own = (float(observations[e]), regressors[e], agent.theta_hat)
            nbr = {j: msg.residual for j, msg in agent.inbox.items()}
            psi_own = agent.theta_hat - mu * local_gradient(
                e, "atc_cmrf", own, nbr, params, bench_incidence
            )
            stacked = np.vstack([psi_own] + [m.psi for m in agent.inbox.values()])
            assert np.abs(stacked.mean(axis=0) - new[e]).max() < 1e-12

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_written_out_maths(self, variant, bench_complex, bench_model):
        _, prec = bench_model
        ne = bench_complex.num_edges
        rng = np.random.default_rng(15)
        combine = combination_weights(line_graph(bench_complex))
        coupling = coupling_matrix(prec, variant)
        regressors = rng.standard_normal((ne, 10))
        observations = rng.standard_normal(ne)
        spec = get_variant(variant)
        if spec.is_centralized:
            theta = rng.standard_normal(10)
            residual = observations - regressors @ theta
            expected = theta + 3e-4 * (regressors.T @ (coupling @ residual))
        else:
            theta = rng.standard_normal((ne, 10))
            residual = observations - np.einsum("em,em->e", regressors, theta)
            expected = theta + 4e-3 * (coupling @ residual)[:, None] * regressors
            if spec.uses_combination:
                expected = combine @ expected
        step = 3e-4 if spec.is_centralized else 4e-3
        got = atc_round(theta, regressors, observations, coupling, combine, step, variant)
        assert np.array_equal(got, expected)


class TestStepSizes:
    def test_reference_variant_gets_configured_step(self, bench_model):
        _, prec = bench_model
        config = ExperimentConfig(step_size=5e-3)
        steps = step_sizes(prec, config)
        assert steps["atc_cmrf"] == 5e-3

    def test_rate_matching_ratios(self, bench_model):
        _, prec = bench_model
        config = ExperimentConfig(step_size=5e-3)
        steps = step_sizes(prec, config)
        ne = prec.num_edges
        mean_diag = np.trace(prec.omega) / ne
        assert steps["atc_plain"] == pytest.approx(5e-3 * mean_diag / prec.k)
        assert steps["standalone_lms"] == steps["atc_plain"]
        assert steps["atc_lgmrf"] == pytest.approx(
            5e-3 * mean_diag / (np.trace(prec.omega_d) / ne)
        )
        assert steps["centralized_cmrf"] == pytest.approx(5e-3 / ne)

    @pytest.mark.parametrize("shape", [(10, 21, 12), (30, 120, 60), (60, 400, 200),
                                       (18, 153, 816)], ids=["21", "120", "400", "K18"])
    def test_traces_are_the_assembled_ones_bit_for_bit(self, monkeypatch, shape):
        nv, ne, nt = shape
        sc = random_2sc(nv, None, nt, 3, num_edges=ne, require_trivial_homology=ne == 21)
        inc = incidence(sc)
        config = ExperimentConfig(step_size=3e-3)
        for seed, sparsity in [(0, 0.0), (1, 0.5)]:
            prec = build_precision(inc, draw_params(inc, seed, sparsity=sparsity))

            def refuse(*args):
                raise AssertionError("step_sizes assembled an E x E coupling matrix")

            with monkeypatch.context() as patched:
                patched.setattr(model, "_assemble", refuse)
                got = step_sizes(prec, config)
            # the rule step_sizes documents, on the assembled matrices
            reference = np.trace(prec.omega) / ne
            for name in config.variants:
                spec = get_variant(name)
                trace = np.trace(coupling_matrix(prec, spec))
                scale = trace if spec.is_centralized else trace / ne
                assert got[name] == config.step_size * (reference / scale), name

    def test_overrides_replace_matched_values(self, bench_model):
        _, prec = bench_model
        config = ExperimentConfig(step_size_overrides={"atc_plain": 1e-4})
        assert step_sizes(prec, config)["atc_plain"] == 1e-4

    def test_override_keys_must_be_names(self):
        with pytest.raises(ValueError) as info:
            ExperimentConfig(step_size_overrides={1: 1e-3})
        assert str(info.value) == "step_size_overrides keys must be names, got 1"


class TestExperiment:
    def test_config_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            ExperimentConfig(variants=("atc_cmrf", "nope"))

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"seed": 1, "typo_key": 2})

    def test_config_rejects_unknown_combine_rule(self):
        with pytest.raises(ValueError):
            ExperimentConfig(combine_rule="midpoint")

    @pytest.mark.parametrize("bounds", [
        {"dv_bounds": (5.0, 1.0)}, {"dt_bounds": (0.2, -0.2)}, {"dv_bounds": (-1e308, 1e308)},
    ], ids=["dv-reversed", "dt-reversed", "dv-width-overflows"])
    def test_config_refuses_bad_bounds_before_any_draw(self, monkeypatch, bounds):
        def refuse(*args, **kwargs):
            raise AssertionError("a complex was drawn before the bounds were checked")

        monkeypatch.setattr(diffusion, "random_2sc", refuse)
        name, (low, high) = next(iter(bounds.items()))
        message = f"{name}=({low:g}, {high:g}) spans no finite range: " \
                  "high - low must be finite and at least 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(ExperimentConfig(seed=1, num_runs=1, num_iterations=2, **bounds))

    def test_metropolis_rule_changes_combined_variants_only(self):
        base = dict(seed=44, num_runs=2, num_iterations=50,
                    variants=("atc_cmrf", "standalone_lms"))
        uniform = run_experiment(ExperimentConfig(**base))
        metropolis = run_experiment(
            ExperimentConfig(combine_rule="metropolis", **base)
        )
        assert not np.array_equal(
            uniform.msd_mean["atc_cmrf"], metropolis.msd_mean["atc_cmrf"]
        )
        assert np.array_equal(
            uniform.msd_mean["standalone_lms"],
            metropolis.msd_mean["standalone_lms"],
        )

    def test_zero_step_keeps_msd_at_initial_error(self, tmp_path, bench_complex):
        path = tmp_path / "c.json"
        save_complex(bench_complex, path)
        config = ExperimentConfig(
            seed=6, num_runs=1, num_iterations=3, step_size=0.0,
            complex_file=str(path),
        )
        result = run_experiment(config)
        # reconstruct the run's ground truth from the documented seed chain
        root = np.random.SeedSequence(6)
        _, runs_seq = root.spawn(2)
        rng = np.random.default_rng(runs_seq.spawn(1)[0])
        draw_params(incidence(bench_complex), rng)
        theta0 = rng.standard_normal(config.dim)
        expected = float(theta0 @ theta0)
        for v in config.variants:
            curve = result.msd_mean[v]
            assert np.allclose(curve, expected, rtol=1e-12)
            assert (result.msd_std[v] == 0).all()
        assert result.diverged == ()

    def test_lower_only_couplings_make_cmrf_equal_lgmrf(self):
        config = ExperimentConfig(
            seed=3, num_runs=2, num_iterations=40,
            variants=("atc_cmrf", "atc_lgmrf"), dt_bounds=(0.0, 0.0),
        )
        result = run_experiment(config)
        assert np.array_equal(
            result.msd_mean["atc_cmrf"], result.msd_mean["atc_lgmrf"]
        )
        assert np.array_equal(
            result.msd_std["atc_cmrf"], result.msd_std["atc_lgmrf"]
        )

    def test_no_couplings_make_cmrf_equal_plain(self):
        config = ExperimentConfig(
            seed=3, num_runs=2, num_iterations=40,
            variants=("atc_cmrf", "atc_plain", "standalone_lms"),
            dv_bounds=(0.0, 0.0), dt_bounds=(0.0, 0.0),
        )
        result = run_experiment(config)
        assert np.array_equal(
            result.msd_mean["atc_cmrf"], result.msd_mean["atc_plain"]
        )
        # standalone skips the combination step, so it differs
        assert not np.array_equal(
            result.msd_mean["atc_cmrf"], result.msd_mean["standalone_lms"]
        )

    def test_deterministic_and_worker_invariant(self):
        base = dict(seed=5, num_runs=4, num_iterations=25)
        serial = run_experiment(ExperimentConfig(**base))
        parallel = run_experiment(ExperimentConfig(**base, num_workers=2))
        other = run_experiment(ExperimentConfig(**{**base, "seed": 55}))
        for v in serial.variants:
            assert np.array_equal(serial.msd_mean[v], parallel.msd_mean[v])
            assert np.array_equal(serial.msd_std[v], parallel.msd_std[v])
            assert not np.array_equal(serial.msd_mean[v], other.msd_mean[v])

    def test_each_run_builds_through_the_public_steps(self, monkeypatch):
        # one way to build a model: every run draws, builds and factors
        # through the model module's public functions, once each
        calls = Counter()

        def counting(name):
            step = getattr(diffusion, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return step(*args, **kwargs)
            return counted

        for name in ("draw_params", "build_precision", "covariance_cholesky"):
            monkeypatch.setattr(diffusion, name, counting(name))
        run_experiment(ExperimentConfig(seed=3, num_runs=3, num_iterations=2))
        assert calls == {"draw_params": 3, "build_precision": 3, "covariance_cholesky": 3}

    def test_steady_state_summary(self):
        config = ExperimentConfig(
            seed=2, num_runs=2, num_iterations=30, steady_state_window=10
        )
        result = run_experiment(config)
        for v in config.variants:
            expected = 10.0 * np.log10(result.msd_mean[v][-10:].mean())
            assert result.steady_state_db[v] == pytest.approx(expected)


class TestCsv:
    def test_schema_and_round_trip(self, tmp_path):
        config = ExperimentConfig(seed=1, num_runs=2, num_iterations=4)
        result = run_experiment(config)
        path = tmp_path / "out.csv"
        write_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "variant,iteration,msd_mean,msd_std"
        assert len(lines) == 1 + len(config.variants) * 4
        first = lines[1].split(",")
        assert first[0] == config.variants[0]
        assert int(first[1]) == 1
        assert float(first[2]) == result.msd_mean[config.variants[0]][0]

        second = tmp_path / "again.csv"
        write_csv(result, second)
        assert path.read_bytes() == second.read_bytes()
