"""The batched Monte Carlo loop against a one-run-at-a-time oracle.

run_experiment advances groups of runs and all variants together; every
product still runs per (run, variant) slice with single-run shapes, so
its curves must equal the oracle's bit for bit, for any grouping, block
length, variant order and worker count.
"""

import tracemalloc

import numpy as np
import pytest

from cmrf import (
    VARIANTS,
    ExperimentConfig,
    build_complex,
    build_precision,
    combination_weights,
    coupling_matrix,
    diffusion,
    draw_params,
    incidence,
    line_graph,
    model,
    random_2sc,
    run_experiment,
    save_complex,
)

import helpers
from helpers import msd_by_run_loop


@pytest.fixture(scope="module")
def medium_complex_file(tmp_path_factory):
    """A 30-vertex complex with 120 edges and 60 triangles."""
    path = tmp_path_factory.mktemp("complexes") / "c120.json"
    save_complex(
        random_2sc(30, None, 60, 5, num_edges=120, require_trivial_homology=False),
        path,
    )
    return str(path)


def assert_matches_oracle(config):
    result = run_experiment(config)
    mean, std = msd_by_run_loop(config)
    assert result.variants == config.variants
    for curves in (result.msd_mean, result.msd_std, result.steady_state_db):
        assert list(curves) == list(config.variants)
    for v in config.variants:
        assert np.array_equal(result.msd_mean[v], mean[v]), v
        assert np.array_equal(result.msd_std[v], std[v]), v


@pytest.mark.parametrize("seed", [7, 8, 2026])
def test_paper_scale_matches_oracle(seed):
    assert_matches_oracle(ExperimentConfig(seed=seed, num_runs=3, num_iterations=150))


@pytest.mark.parametrize("seed", [8, 9])
def test_medium_scale_matches_oracle(seed, medium_complex_file):
    assert_matches_oracle(ExperimentConfig(
        seed=seed, num_runs=2, num_iterations=60, complex_file=medium_complex_file,
    ))


def test_resampled_complexes_with_varying_edge_counts_match_oracle():
    config = ExperimentConfig(
        seed=9, num_runs=4, num_iterations=40, num_edges=None,
        num_triangles=20, er_probability=0.7, resample_complex=True,
    )
    run_seeds = np.random.SeedSequence(9).spawn(2)[1].spawn(4)
    edge_counts = [
        random_2sc(10, 0.7, 20, np.random.default_rng(s)).num_edges
        for s in run_seeds
    ]
    # consecutive runs sharing an edge count are batched together
    assert len(set(edge_counts)) not in (1, len(edge_counts))
    assert_matches_oracle(config)


def test_batch_closes_at_an_edge_count_change(monkeypatch):
    groups = []
    simulate_group = diffusion._simulate_group

    def spy(config, specs, slots, runs, *rest):
        groups.append([r.num_edges for r in runs])
        simulate_group(config, specs, slots, runs, *rest)

    monkeypatch.setattr(diffusion, "_simulate_group", spy)
    run_seeds = np.random.SeedSequence(9).spawn(2)[1].spawn(4)
    edge_counts = [
        random_2sc(10, 0.7, 20, np.random.default_rng(s)).num_edges
        for s in run_seeds
    ]
    assert edge_counts == [29, 28, 27, 28]
    run_experiment(ExperimentConfig(
        seed=9, num_runs=4, num_iterations=5, num_edges=None,
        num_triangles=20, er_probability=0.7, resample_complex=True,
    ))
    assert groups == [[29], [28], [27], [28]]
    groups.clear()
    # one shared complex: the 4 runs fit the byte budget as one batch
    run_experiment(ExperimentConfig(seed=9, num_runs=4, num_iterations=5))
    assert groups == [[21] * 4]


def test_variants_table_is_the_batch_order():
    # the simulator runs the configured variants in table order and reads
    # which of them couple, combine or are distributed off these prefixes
    specs = list(VARIANTS.values())

    def prefix(pred):
        n = sum(map(pred, specs))
        assert all(map(pred, specs[:n]))
        return n

    coupled = prefix(lambda s: not s.is_centralized
                     and (s.uses_lower_term or s.uses_upper_term))
    combined = prefix(lambda s: s.uses_combination)
    distributed = prefix(lambda s: not s.is_centralized)
    assert 0 < coupled <= combined <= distributed == len(specs) - 1
    # centralized_cmrf reads omega from the first slot when atc_cmrf runs
    assert specs[0].name == "atc_cmrf" and specs[-1].is_centralized


def test_reordered_variants_match_oracle():
    assert_matches_oracle(ExperimentConfig(
        seed=10, num_runs=3, num_iterations=100,
        variants=("centralized_cmrf", "standalone_lms", "atc_lgmrf",
                  "atc_cmrf", "atc_plain"),
    ))


@pytest.mark.parametrize("variants", [
    ("centralized_cmrf",), ("atc_lgmrf", "centralized_cmrf"), ("standalone_lms",),
])
def test_variant_subsets_match_oracle(variants):
    assert_matches_oracle(ExperimentConfig(
        seed=12, num_runs=2, num_iterations=50, variants=variants,
        combine_rule="metropolis",
    ))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_counts_match_oracle(workers):
    assert_matches_oracle(ExperimentConfig(
        seed=13, num_runs=5, num_iterations=40, num_workers=workers,
    ))


@pytest.mark.parametrize("budget", [0, 1 << 30])
def test_group_size_and_block_length_do_not_change_bits(monkeypatch, budget):
    # budget 0: one run per group and 16-round blocks (37 = 2*16 + 5);
    # 1 GiB: all runs in one group and the whole stream in one block
    monkeypatch.setattr(diffusion, "_BATCH_BYTES", budget)
    assert_matches_oracle(ExperimentConfig(seed=14, num_runs=4, num_iterations=37))


@pytest.fixture(scope="module")
def large_complex_file(tmp_path_factory):
    """A 60-vertex complex with 400 edges and 200 triangles."""
    path = tmp_path_factory.mktemp("complexes") / "c400.json"
    save_complex(
        random_2sc(60, None, 200, 0, num_edges=400, require_trivial_homology=False),
        path,
    )
    return str(path)


def with_pendant_and_isolated(sc):
    """``sc`` plus an edge to a new vertex, a lone edge and an isolated vertex."""
    top = max(sc.vertices)
    return build_complex(
        list(sc.vertices) + [top + 1, top + 2, top + 3, top + 4],
        list(sc.edges) + [(sc.vertices[0], top + 1), (top + 2, top + 3)],
        list(sc.triangles),
    )


@pytest.mark.parametrize("shape, extras", [
    ((30, 120, 60), False), ((30, 120, 60), True),
    ((45, 200, 100), False), ((60, 400, 200), False), ((60, 400, 200), True),
], ids=["120", "120-pendant", "200", "400", "400-pendant"])
def test_factored_combine_equals_dense_weights(shape, extras):
    nv, ne, nt = shape
    sc = random_2sc(nv, None, nt, 5, num_edges=ne, require_trivial_homology=False)
    if extras:
        sc = with_pendant_and_isolated(sc)
    adjacency = line_graph(sc)
    op = diffusion._IncidenceCombine.of(np.abs(incidence(sc).b1).astype(float))
    # the row sums are the closed neighborhoods' sizes, exactly
    assert np.array_equal(op.size[:, 0], adjacency.sum(axis=1) + 1.0)
    psi = np.random.default_rng(ne).standard_normal((2, 3, sc.num_edges, 10))
    want = combination_weights(adjacency, "uniform") @ psi
    got = op @ psi
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    if extras:
        # a lone edge is its own neighborhood and keeps its estimate
        assert np.array_equal(got[..., -1, :], psi[..., -1, :])


def combine_factored(num_vertices, num_edges):
    return diffusion._factored(num_edges, num_vertices, diffusion._COMBINE_MIN_EDGES)


def couplings_factored(num_vertices, num_edges, num_triangles):
    return diffusion._factored(num_edges, num_vertices + num_triangles,
                               diffusion._COUPLINGS_MIN_EDGES)


def test_factored_rule_keeps_small_and_medium_complexes_dense():
    # the combine step's factor |b1| has V rows
    assert not combine_factored(10, 21)
    assert not combine_factored(30, 120)
    assert combine_factored(45, 200)
    assert combine_factored(60, 400)
    assert combine_factored(18, 153)  # K18
    assert combine_factored(200, 400)  # sparse: two edges per vertex
    assert combine_factored(100, 150) and not combine_factored(101, 150)
    assert not combine_factored(10, 149)
    # the coupled products' b1 and b2 have V + T rows, and a higher floor
    assert couplings_factored(60, 400, 200)
    assert couplings_factored(200, 400, 10)
    assert couplings_factored(45, 350, 180)
    assert not couplings_factored(50, 300, 100)
    assert not couplings_factored(45, 200, 100)
    assert not couplings_factored(30, 120, 60)
    assert not couplings_factored(60, 400, 300)
    # wide Gram sides stay dense: K18 with 300 or all 816 triangles
    assert not couplings_factored(18, 153, 300)
    assert not couplings_factored(18, 153, 816)
    # the Metropolis rule keeps its dense combine weights
    sc = random_2sc(60, None, 200, 5, num_edges=400, require_trivial_homology=False)
    inc = incidence(sc)
    assert isinstance(diffusion._combine_operator("uniform", sc, inc),
                      diffusion._IncidenceCombine)
    assert isinstance(diffusion._combine_operator("metropolis", sc, inc), np.ndarray)


COUPLED = [VARIANTS["atc_cmrf"], VARIANTS["atc_lgmrf"], VARIANTS["centralized_cmrf"]]


@pytest.mark.parametrize("shape, extras", [
    ((30, 120, 60), False), ((45, 200, 100), False), ((60, 400, 200), False),
    ((60, 400, 200), True), ((18, 153, 816), False),
], ids=["120", "200", "400", "400-pendant", "K18"])
def test_incidence_couplings_equal_dense_products(shape, extras):
    nv, ne, nt = shape
    sc = random_2sc(nv, None, nt, 5, num_edges=ne, require_trivial_homology=False)
    if extras:
        sc = with_pendant_and_isolated(sc)
    inc = incidence(sc)
    params = [draw_params(inc, seed, sparsity=0.3) for seed in range(2)]
    precs = [build_precision(inc, p) for p in params]
    k = np.array([p.k for p in params])[:, None, None]
    rng = np.random.default_rng(ne)
    residual = rng.standard_normal((2, 2, sc.num_edges))
    residual_c = rng.standard_normal((2, sc.num_edges))
    factors = (inc.b1.astype(float), inc.b2.astype(float))
    op = diffusion._IncidenceCouplings.of(factors, k, [(p.d_v, p.d_t) for p in params], COUPLED)
    got, got_c = op(residual, residual_c)
    for i, prec in enumerate(precs):
        for j, spec in enumerate(COUPLED[:2]):
            want = coupling_matrix(prec, spec) @ residual[i, j]
            assert np.abs(got[i, j] - want).max() <= 1e-13 * np.abs(want).max()
        want = prec.omega @ residual_c[i]
        assert np.abs(got_c[i, :, 0] - want).max() <= 1e-13 * np.abs(want).max()
    # each run's rows are the bits of that run alone
    alone, alone_c = diffusion._IncidenceCouplings.of(
        factors, k[1:], [(params[1].d_v, params[1].d_t)], COUPLED)(residual[1:], residual_c[1:])
    assert np.array_equal(alone, got[1:]) and np.array_equal(alone_c, got_c[1:])


def assert_close_to_oracle(config, rtol=1e-12):
    result = run_experiment(config)
    mean, std = msd_by_run_loop(config)
    for v in config.variants:
        np.testing.assert_allclose(result.msd_mean[v], mean[v], rtol=rtol, atol=0)
        np.testing.assert_allclose(result.msd_std[v], std[v], rtol=rtol, atol=0)
    return result


def test_large_scale_factored_combine_matches_oracle(large_complex_file):
    assert combine_factored(60, 400) and couplings_factored(60, 400, 200)
    assert_close_to_oracle(ExperimentConfig(
        seed=15, num_runs=2, num_iterations=60, complex_file=large_complex_file,
    ))


def recorded_setups(monkeypatch):
    """The list that every run set up from now on is appended to."""
    seen = []
    setup_run = diffusion._setup_run

    def spy(*args):
        seen.append(setup_run(*args))
        return seen[-1]

    monkeypatch.setattr(diffusion, "_setup_run", spy)
    return seen


def test_runs_above_the_rule_form_no_coupling_matrix(monkeypatch, large_complex_file):
    def refuse(*args):
        raise AssertionError("a run above the size rule formed an E x E coupling matrix")

    # omega, omega_d and omega_u of a built precision are formed only by _assemble
    monkeypatch.setattr(model, "_assemble", refuse)
    monkeypatch.setattr(diffusion, "coupling_matrix", refuse)
    seen = recorded_setups(monkeypatch)
    config = ExperimentConfig(seed=19, num_runs=2, num_iterations=5,
                              complex_file=large_complex_file)
    assert run_experiment(config).diverged == ()
    # each run keeps its noise factor and its coefficients, nothing else E x E
    assert [r.mats.shape for r in seen] == [(1, 400, 400)] * 2
    assert all(r.coefficients is not None and r.combine is None for r in seen)


def test_large_scale_group_size_does_not_change_bits(monkeypatch, large_complex_file):
    config = ExperimentConfig(
        seed=16, num_runs=2, num_iterations=40, complex_file=large_complex_file,
    )
    curves = []
    for budget in (0, 1 << 30):
        monkeypatch.setattr(diffusion, "_BATCH_BYTES", budget)
        curves.append(run_experiment(config))
    for v in config.variants:
        assert np.array_equal(curves[0].msd_mean[v], curves[1].msd_mean[v]), v
        assert np.array_equal(curves[0].msd_std[v], curves[1].msd_std[v]), v


def test_resampled_factored_combine_matches_oracle(monkeypatch):
    # K18 with every triangle filled: 153 edges and trivial homology.  Its
    # combine step goes through |b1| and its couplings, as those of every
    # trivial-homology complex (V + T > E), stay dense.
    config = ExperimentConfig(
        seed=17, num_runs=2, num_iterations=30, num_vertices=18, num_edges=None,
        er_probability=1.0, num_triangles=816, resample_complex=True,
    )
    assert combine_factored(18, 153) and not couplings_factored(18, 153, 816)
    seen = recorded_setups(monkeypatch)
    results = []
    # budget 0 runs one run per group; 1 GiB stacks both runs' |b1|
    for budget in (0, 1 << 30):
        monkeypatch.setattr(diffusion, "_BATCH_BYTES", budget)
        results.append(assert_close_to_oracle(config))
    for v in config.variants:
        assert np.array_equal(results[0].msd_mean[v], results[1].msd_mean[v]), v
        assert np.array_equal(results[0].msd_std[v], results[1].msd_std[v]), v
    # each run carried its own |b1| and its dense coupling slots
    assert len(seen) == 4
    assert all(isinstance(r.combine, diffusion._IncidenceCombine)
               and r.coefficients is None and r.mats.shape == (3, 153, 153) for r in seen)


def test_resampled_runs_above_the_rule_keep_dense_couplings(monkeypatch):
    # With trivial homology waived, a drawn 60/400/200 complex is above the
    # couplings' size rule; a run on its own complex still keeps dense slots.
    def waived(*args, **kwargs):
        return random_2sc(*args, **kwargs, require_trivial_homology=False)

    monkeypatch.setattr(diffusion, "random_2sc", waived)
    monkeypatch.setattr(helpers, "random_2sc", waived)
    config = ExperimentConfig(
        seed=20, num_runs=2, num_iterations=20, num_vertices=60, num_edges=400,
        num_triangles=200, resample_complex=True,
    )
    assert couplings_factored(60, 400, 200)
    seen = recorded_setups(monkeypatch)
    assert_close_to_oracle(config)
    assert [r.mats.shape for r in seen] == [(3, 400, 400)] * 2
    assert all(r.coefficients is None for r in seen)


@pytest.mark.parametrize("resample", [False, True])
def test_no_combine_operator_without_a_combining_variant(monkeypatch, resample):
    def refuse(*args, **kwargs):
        raise AssertionError("combine operator built for variants that do not combine")

    for name in ("combination_weights", "line_graph", "_combine_operator"):
        monkeypatch.setattr(diffusion, name, refuse)
    assert_matches_oracle(ExperimentConfig(
        seed=18, num_runs=2, num_iterations=20, resample_complex=resample,
        variants=("standalone_lms", "centralized_cmrf"),
    ))


def traced_peak(config):
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peaks of the previous one-run-at-a-time loop, measured with tracemalloc
# (Python 3.11, numpy 2.4): 11.01 MiB on the default config (100 runs x
# 2000 iterations, most of it the 8 MB of per-run curves) and 10.67 MiB at
# 60/400/200 with 2 runs x 100 iterations.  Batching may not raise either
# by more than half.
MIB = 1 << 20


def test_peak_memory_default_config():
    assert traced_peak(ExperimentConfig(seed=2026)) <= 1.5 * 11.01 * MIB


def test_peak_memory_large_scale(tmp_path):
    path = tmp_path / "c400.json"
    save_complex(
        random_2sc(60, None, 200, 0, num_edges=400, require_trivial_homology=False),
        path,
    )
    config = ExperimentConfig(seed=3, num_runs=2, num_iterations=100, complex_file=str(path))
    assert traced_peak(config) <= 1.5 * 10.67 * MIB


def test_large_runs_are_freed_before_the_next_setup(tmp_path):
    # one run at 400 edges fills the byte budget, so its matrices must be
    # released before the next run is set up: two runs peak like one
    path = tmp_path / "c400.json"
    save_complex(
        random_2sc(60, None, 200, 0, num_edges=400, require_trivial_homology=False),
        path,
    )
    one, two = (
        traced_peak(ExperimentConfig(seed=3, num_runs=n, num_iterations=20,
                                     complex_file=str(path)))
        for n in (1, 2)
    )
    # one 400x400 matrix is 1.22 MiB; a kept run holds three
    assert two <= one + 0.5 * MIB
