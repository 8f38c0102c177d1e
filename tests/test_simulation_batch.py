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
    ExperimentConfig,
    diffusion,
    random_2sc,
    run_experiment,
    save_complex,
)

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
    # runs sharing an edge count are batched together, the others apart
    assert len(set(edge_counts)) not in (1, len(edge_counts))
    assert_matches_oracle(config)


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
