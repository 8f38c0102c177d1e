"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS|FAIL`` line
(visible with ``pytest -s`` or in failure output) and pins its seeds, so
reruns are exactly reproducible.
"""

import itertools

import numpy as np
import pytest

from cmrf import (
    ExperimentConfig,
    NotPositiveDefinite,
    SeparationQuery,
    SgmParams,
    build_cmrf,
    build_precision,
    color_separated_singleton_pairs,
    covariance,
    covariance_cholesky,
    draw_params,
    harmonic_dimension,
    hodge_decompose,
    identity_residuals,
    incidence,
    is_color_separated,
    is_graph_separated,
    min_valid_k,
    random_2sc,
    run_experiment,
    sample,
    verify_conditional_independence,
    verify_marginal_independence,
)

from helpers import (
    color_separated_by_enumeration,
    draw_round,
    fd_local_gradient,
    graph_separated_by_enumeration,
    local_gradient,
    local_loss_terms,
    random_colored_graph,
    subsets_up_to,
)


class report:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, number, name):
        self.number = number
        self.name = name
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        print(f"ACCEPTANCE {self.number} {self.name}: {status}{suffix}")
        return False


def table_scale_models(seeds, sparsity=0.0):
    """One fresh 10-vertex, 21-edge, 12-triangle model per seed."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        sc = random_2sc(10, None, 12, rng, num_edges=21)
        inc = incidence(sc)
        params = draw_params(inc, rng, sparsity=sparsity)
        yield sc, inc, params


def test_criterion_1_construction_identities():
    with report(1, "construction identities") as rep:
        worst = 0.0
        for sc, inc, params in table_scale_models(range(1000, 1050)):
            assert np.array_equal(inc.b1 @ inc.b2, np.zeros((10, 12), dtype=np.int64))
            prec = build_precision(inc, params)
            res = identity_residuals(prec)
            mean_var = res.mean_variance
            assert res.sum_rule < 1e-10 * params.k
            assert res.product_rule < 1e-10 * params.k**2
            assert res.inverse_rule < 1e-10 * mean_var
            worst = max(
                worst,
                res.sum_rule / params.k,
                res.product_rule / params.k**2,
                res.inverse_rule / mean_var,
            )
            # positive definiteness gate around the admissibility threshold
            k_min = min_valid_k(inc, params.d_v, params.d_t, margin=0.0)
            with pytest.raises(NotPositiveDefinite):
                build_precision(
                    inc, SgmParams(k=k_min - 1e-6, d_v=params.d_v, d_t=params.d_t)
                )
        rep.detail = f"50 models, worst relative residual {worst:.2e}"


def test_criterion_2_marginal_independence_from_color_separation():
    with report(2, "marginal independence via color separation") as rep:
        checked_exact = 0
        checked_sampled = 0
        worst_exact = 0.0
        worst_z = 0.0
        for idx, (sc, inc, params) in enumerate(
            table_scale_models(range(2000, 2050), sparsity=0.5)
        ):
            prec = build_precision(inc, params)
            graph = build_cmrf(inc, params)
            pairs = color_separated_singleton_pairs(graph)
            if not pairs:
                continue
            cov = covariance(prec)
            tol = 1e-9 * np.trace(cov) / prec.num_edges
            draws = sample(prec, 100_000, seed=5000 + idx)
            emp = draws.T @ draws / draws.shape[0]
            for i, j in pairs:
                rpt = verify_marginal_independence(prec, graph, [i], [j])
                assert rpt.passed and rpt.residual < tol
                worst_exact = max(worst_exact, rpt.residual / tol)
                se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / draws.shape[0])
                z = abs(emp[i, j]) / se
                assert z < 5.0, (idx, i, j, z)
                worst_z = max(worst_z, z)
                checked_sampled += 1
            checked_exact += len(pairs)
            # a set-valued query built from one node's separated partners
            anchor = pairs[0][0]
            partners = [j for i, j in pairs if i == anchor]
            if len(partners) > 1:
                rpt = verify_marginal_independence(prec, graph, [anchor], partners)
                assert rpt.passed
        assert checked_exact > 0 and checked_sampled > 0
        rep.detail = (
            f"{checked_exact} separated pairs, worst exact residual "
            f"{worst_exact:.2e} of tolerance, worst sample z {worst_z:.2f}"
        )


def _adjacency_bitmasks(graph):
    masks = [0] * graph.num_nodes
    for i, j in graph.links:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def _separated_bits(masks, a, b, blocked_mask):
    """Reachability with blocked nodes, sets packed into machine words."""
    target = 1 << b
    seen = 1 << a
    frontier = seen
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= masks[low.bit_length() - 1]
            f ^= low
        nxt &= ~(seen | blocked_mask)
        if nxt & target:
            return False
        seen |= nxt
        frontier = nxt
    return True


def test_criterion_3_conditional_independence_from_graph_separation():
    with report(3, "conditional independence via graph separation") as rep:
        rng = np.random.default_rng(99)
        total_checked = 0
        nontrivial = 0
        verifier_calls = 0
        worst = 0.0
        for sc, inc, params in table_scale_models(range(3000, 3020), sparsity=0.5):
            prec = build_precision(inc, params)
            graph = build_cmrf(inc, params)
            masks = _adjacency_bitmasks(graph)
            n = graph.num_nodes
            by_given = {}
            for a, b in itertools.combinations(range(n), 2):
                rest = [x for x in range(n) if x not in (a, b)]
                for s in subsets_up_to(rest, 3):
                    s_mask = 0
                    for x in s:
                        s_mask |= 1 << x
                    if _separated_bits(masks, a, b, s_mask):
                        by_given.setdefault(s, []).append((a, b))
            if not by_given:
                continue
            # check every separated triple against a conditional covariance
            # computed once per conditioning set
            cov = covariance(prec)
            tol = 1e-8 * np.trace(cov) / n
            flat = []
            for s, pairs in by_given.items():
                if s:
                    sel = list(s)
                    cond = cov - cov[:, sel] @ np.linalg.solve(
                        cov[np.ix_(sel, sel)], cov[sel, :]
                    )
                else:
                    cond = cov
                for a, b in pairs:
                    resid = abs(float(cond[a, b]))
                    assert resid < tol, (a, b, s, resid, tol)
                    worst = max(worst, resid / tol)
                    total_checked += 1
                    if s:
                        nontrivial += 1
                    flat.append((a, b, s))
            # cross-check the library verifier on a sample of them
            for sel in rng.choice(len(flat), size=min(200, len(flat)), replace=False):
                a, b, s = flat[sel]
                query = SeparationQuery(set_a=(a,), set_b=(b,), given=s)
                assert is_graph_separated(graph, query)
                rpt = verify_conditional_independence(prec, graph, query)
                assert rpt.passed, (a, b, s, rpt.residual, rpt.tolerance)
                verifier_calls += 1
        assert total_checked > 0 and nontrivial > 0 and verifier_calls > 0
        rep.detail = (
            f"all {total_checked} separated triples checked ({nontrivial} with "
            f"nonempty conditioning set, {verifier_calls} verifier calls), "
            f"worst residual {worst:.2e} of tolerance"
        )


def test_criterion_4_separation_matches_path_enumeration():
    with report(4, "separation decisions match path enumeration") as rep:
        rng = np.random.default_rng(404)
        graph_queries = 0
        color_queries = 0
        for _ in range(200):
            n = int(rng.integers(3, 9))
            graph = random_colored_graph(
                n, rng, p_link=float(rng.uniform(0.1, 0.5))
            )
            for a, b in itertools.combinations(range(n), 2):
                assert is_color_separated(graph, [a], [b]) == \
                    color_separated_by_enumeration(graph, [a], [b])
                color_queries += 1
                rest = [x for x in range(n) if x not in (a, b)]
                for s in subsets_up_to(rest, len(rest)):
                    query = SeparationQuery(set_a=(a,), set_b=(b,), given=s)
                    assert is_graph_separated(graph, query) == \
                        graph_separated_by_enumeration(graph, [a], [b], s)
                    graph_queries += 1
            # a few set-valued queries per graph
            if n >= 5:
                nodes = rng.permutation(n)
                set_a = tuple(int(x) for x in nodes[:1])
                set_b = tuple(int(x) for x in nodes[1:3])
                given = tuple(int(x) for x in nodes[3:4])
                query = SeparationQuery(set_a=set_a, set_b=set_b, given=given)
                assert is_graph_separated(graph, query) == \
                    graph_separated_by_enumeration(graph, set_a, set_b, given)
                assert is_color_separated(graph, set_a, set_b) == \
                    color_separated_by_enumeration(graph, set_a, set_b)
                graph_queries += 1
        rep.detail = f"{graph_queries} graph and {color_queries} color queries"


def test_criterion_5_loss_decomposition_and_gradients():
    with report(5, "loss split and analytic gradients") as rep:
        # decomposition: 100 random (model, residual) pairs
        worst_split = 0.0
        rng = np.random.default_rng(510)
        for sc, inc, params in table_scale_models(range(5100, 5120)):
            prec = build_precision(inc, params)
            ne = prec.num_edges
            for _ in range(5):
                r = rng.standard_normal(ne)
                rmap = {e: float(r[e]) for e in range(ne)}
                total = 0.0
                for e in range(ne):
                    ph, pd, pu = local_loss_terms(e, rmap, params, inc)
                    total += ph - pd - pu
                direct = 0.5 * float(r @ prec.omega @ r)
                rel = abs(total - direct) / abs(direct)
                assert rel <= 1e-10
                worst_split = max(worst_split, rel)

        # gradients: 100 random states per variant vs central differences
        worst_fd = 0.0
        for model_seed in (5200, 5201):
            rng = np.random.default_rng(model_seed)
            sc = random_2sc(10, None, 12, rng, num_edges=21)
            inc = incidence(sc)
            params = draw_params(inc, rng)
            prec = build_precision(inc, params)
            ne = prec.num_edges
            chol, theta0 = covariance_cholesky(prec), rng.standard_normal(10)
            for variant in ("atc_cmrf", "atc_lgmrf", "atc_plain", "standalone_lms"):
                for _ in range(50):
                    regressors, observations = draw_round(rng, chol, theta0)
                    theta = rng.standard_normal((ne, 10))
                    e = int(rng.integers(ne))
                    nbr = {
                        j: float(observations[j] - regressors[j] @ theta[j])
                        for j in range(ne) if j != e
                    }
                    grad = local_gradient(
                        e, variant,
                        (float(observations[e]), regressors[e], theta[e]),
                        nbr, params, inc,
                    )
                    fd = fd_local_gradient(
                        e, variant, theta, regressors, observations,
                        params, inc, prec,
                    )
                    rel = np.abs(grad - fd).max() / np.abs(fd).max()
                    assert rel < 1e-5, (variant, e, rel)
                    worst_fd = max(worst_fd, rel)
            # centralized direction vs differences of 0.5 * r.T omega r
            for _ in range(100):
                regressors, observations = draw_round(rng, chol, theta0)
                theta = rng.standard_normal(10)

                def objective(th):
                    r = observations - regressors @ th
                    return 0.5 * float(r @ prec.omega @ r)

                analytic = -regressors.T @ (
                    prec.omega @ (observations - regressors @ theta)
                )
                fd = np.zeros(10)
                h = 1e-6
                for m in range(10):
                    plus, minus = theta.copy(), theta.copy()
                    plus[m] += h
                    minus[m] -= h
                    fd[m] = (objective(plus) - objective(minus)) / (2 * h)
                rel = np.abs(analytic - fd).max() / np.abs(fd).max()
                assert rel < 1e-5
                worst_fd = max(worst_fd, rel)
        rep.detail = (
            f"worst split residual {worst_split:.2e}, "
            f"worst gradient mismatch {worst_fd:.2e}"
        )


def test_criterion_6_msd_comparison():
    with report(6, "steady-state MSD comparison") as rep:
        result = run_experiment(ExperimentConfig(seed=2026))
        db = result.steady_state_db
        assert db["atc_cmrf"] <= db["atc_lgmrf"] <= db["atc_plain"] <= db["standalone_lms"]
        assert abs(db["atc_cmrf"] - db["centralized_cmrf"]) <= 2.0
        assert db["standalone_lms"] - db["atc_cmrf"] >= 1.0
        rep.detail = ", ".join(f"{v} {db[v]:.2f} dB" for v in result.variants)


def test_criterion_7_degenerate_couplings_reduce_exactly():
    with report(7, "degenerate couplings collapse variants exactly") as rep:
        lower_only = run_experiment(ExperimentConfig(
            seed=70, num_runs=3, num_iterations=300,
            variants=("atc_cmrf", "atc_lgmrf"), dt_bounds=(0.0, 0.0),
        ))
        assert np.array_equal(
            lower_only.msd_mean["atc_cmrf"], lower_only.msd_mean["atc_lgmrf"]
        )
        assert np.array_equal(
            lower_only.msd_std["atc_cmrf"], lower_only.msd_std["atc_lgmrf"]
        )
        no_coupling = run_experiment(ExperimentConfig(
            seed=71, num_runs=3, num_iterations=300,
            variants=("atc_cmrf", "atc_lgmrf", "atc_plain"),
            dv_bounds=(0.0, 0.0), dt_bounds=(0.0, 0.0),
        ))
        assert np.array_equal(
            no_coupling.msd_mean["atc_cmrf"], no_coupling.msd_mean["atc_plain"]
        )
        assert np.array_equal(
            no_coupling.msd_mean["atc_lgmrf"], no_coupling.msd_mean["atc_plain"]
        )
        rep.detail = "trajectories bitwise identical in both degenerations"


def test_criterion_8_hodge_decomposition():
    with report(8, "hodge decomposition of random signals") as rep:
        rng = np.random.default_rng(808)
        worst_rec = 0.0
        worst_orth = 0.0
        signals = 0
        harmonic_dims = []
        complexes = [
            random_2sc(10, None, 12, seed, num_edges=21)
            for seed in range(8000, 8006)
        ] + [
            # sparse triangle cover leaves holes, so the harmonic part
            # of the split is exercised as well
            random_2sc(8, 0.5, 2, seed, require_trivial_homology=False)
            for seed in range(400, 404)
        ]
        for sc in complexes:
            inc = incidence(sc)
            harmonic_dims.append(harmonic_dimension(inc))
            for _ in range(10):
                x = rng.standard_normal(sc.num_edges)
                irr, sol, har = hodge_decompose(inc, x)
                norm = np.linalg.norm(x)
                rec = np.linalg.norm(irr + sol + har - x) / norm
                assert rec <= 1e-10
                worst_rec = max(worst_rec, rec)
                for u, v in ((irr, sol), (irr, har), (sol, har)):
                    orth = abs(float(u @ v)) / norm**2
                    assert orth <= 1e-8
                    worst_orth = max(worst_orth, orth)
                signals += 1
        assert signals == 100
        assert max(harmonic_dims) > 0
        rep.detail = (
            f"100 signals on 10 complexes (harmonic dimensions up to "
            f"{max(harmonic_dims)}), worst reconstruction {worst_rec:.2e}, "
            f"worst orthogonality {worst_orth:.2e}"
        )
