import itertools
import time

import numpy as np
import pytest

from cmrf import (
    ClosureViolation,
    DegenerateSimplex,
    DimensionMismatch,
    DuplicateSimplex,
    GenerationFailed,
    build_complex,
    harmonic_dimension,
    hodge_decompose,
    hodge_laplacians,
    incidence,
    line_graph,
    load_complex,
    random_2sc,
    save_complex,
)
from cmrf.simplicial import _enumerate_3cliques, _max_triangles

from helpers import incidence_by_loops, random_2sc_by_selection_loop


def random_complexes(count, allow_holes=True):
    """A varied batch of small random complexes for property tests."""
    out = []
    rng = np.random.default_rng(20240915)
    made = 0
    seed = 0
    while made < count:
        seed += 1
        n = int(rng.integers(4, 10))
        p = float(rng.uniform(0.3, 0.8))
        budget = int(rng.integers(0, 4))
        try:
            sc = random_2sc(
                n, p, budget, seed,
                require_trivial_homology=not allow_holes,
                max_attempts=50,
            )
        except GenerationFailed:
            continue
        out.append(sc)
        made += 1
    return out


class TestBuildComplex:
    def test_canonicalizes_orientation_and_order(self):
        sc = build_complex([3, 1, 2], [(2, 1), (3, 1), (3, 2)], [(3, 2, 1)])
        assert sc.vertices == (1, 2, 3)
        assert sc.edges == ((1, 2), (1, 3), (2, 3))
        assert sc.triangles == ((1, 2, 3),)

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateSimplex):
            build_complex([1, 1, 2], [])

    def test_duplicate_edge_up_to_orientation(self):
        with pytest.raises(DuplicateSimplex):
            build_complex([1, 2], [(1, 2), (2, 1)])

    def test_duplicate_triangle_up_to_orientation(self):
        with pytest.raises(DuplicateSimplex):
            build_complex(
                [1, 2, 3],
                [(1, 2), (1, 3), (2, 3)],
                [(1, 2, 3), (2, 3, 1)],
            )

    def test_degenerate_edge(self):
        with pytest.raises(DegenerateSimplex):
            build_complex([1, 2], [(1, 1)])

    def test_degenerate_triangle(self):
        with pytest.raises(DegenerateSimplex):
            build_complex([1, 2, 3], [(1, 2), (1, 3), (2, 3)], [(1, 2, 2)])

    def test_edge_with_missing_vertex(self):
        with pytest.raises(ClosureViolation):
            build_complex([1, 2], [(1, 3)])

    def test_triangle_with_missing_side(self):
        with pytest.raises(ClosureViolation):
            build_complex([1, 2, 3], [(1, 2), (1, 3)], [(1, 2, 3)])


class TestIncidence:
    @pytest.mark.parametrize("nv, ne, nt", [(10, 21, 12), (30, 120, 60), (60, 400, 200)])
    def test_matches_loop_oracle(self, nv, ne, nt):
        sc = random_2sc(nv, None, nt, seed=5, num_edges=ne, require_trivial_homology=False)
        for got, expected in zip(incidence(sc), incidence_by_loops(sc)):
            assert np.array_equal(got, expected) and got.dtype == expected.dtype

    @pytest.mark.parametrize("vertices", [
        [-1, 2**63, 2**63 + 1],  # numpy would read these ids as floats
        [2**53, 2**53 + 1, 2**63],
        [-(2**70), -1, 0, 2**70],
    ])
    def test_ids_beyond_int64_match_loop_oracle(self, vertices):
        sc = build_complex(vertices, list(itertools.combinations(vertices, 2)),
                           list(itertools.combinations(vertices, 3)))
        inc = incidence(sc)
        for got, expected in zip(inc, incidence_by_loops(sc)):
            assert np.array_equal(got, expected) and got.dtype == expected.dtype
        assert not (inc.b1 @ inc.b2).any()

    def test_filled_triangle_matrices(self, filled_triangle):
        inc = incidence(filled_triangle)
        expected_b1 = np.array([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
        expected_b2 = np.array([[1], [-1], [1]])
        assert np.array_equal(inc.b1, expected_b1)
        assert np.array_equal(inc.b2, expected_b2)
        assert inc.b1.dtype == np.int64 and inc.b2.dtype == np.int64

    def test_boundary_of_boundary_is_zero_exactly(self):
        for sc in random_complexes(15):
            inc = incidence(sc)
            assert np.array_equal(
                inc.b1 @ inc.b2,
                np.zeros((sc.num_vertices, sc.num_triangles), dtype=np.int64),
            )

    def test_column_structure(self):
        for sc in random_complexes(5):
            inc = incidence(sc)
            if sc.num_edges:
                sums = inc.b1.sum(axis=0)
                assert np.array_equal(sums, np.zeros(sc.num_edges, dtype=np.int64))
                assert np.array_equal(np.abs(inc.b1).sum(axis=0), 2 * np.ones(sc.num_edges, dtype=np.int64))
            if sc.num_triangles:
                assert np.array_equal(
                    np.abs(inc.b2).sum(axis=0),
                    3 * np.ones(sc.num_triangles, dtype=np.int64),
                )


class TestHodgeLaplacians:
    def test_filled_triangle_upper_laplacian(self, filled_triangle):
        lap = hodge_laplacians(incidence(filled_triangle))
        expected = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
        assert np.array_equal(lap.l1_up, expected)

    def test_vertex_laplacian_is_graph_laplacian(self, filled_triangle):
        lap = hodge_laplacians(incidence(filled_triangle))
        assert np.array_equal(lap.l0, np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float))

    def test_psd_and_kernel_dimension(self):
        for sc in random_complexes(15):
            inc = incidence(sc)
            lap = hodge_laplacians(inc)
            l1 = lap.l1_down + lap.l1_up
            eigs = np.linalg.eigvalsh(l1) if sc.num_edges else np.zeros(0)
            assert (eigs > -1e-10).all()
            kernel_dim = int((np.abs(eigs) < 1e-8).sum())
            rank_b1 = np.linalg.matrix_rank(inc.b1.astype(float)) if sc.num_edges else 0
            rank_b2 = np.linalg.matrix_rank(inc.b2.astype(float)) if sc.num_triangles else 0
            assert kernel_dim == sc.num_edges - rank_b1 - rank_b2
            assert kernel_dim == harmonic_dimension(inc)

    def test_lower_and_upper_parts_annihilate(self):
        for sc in random_complexes(10):
            lap = hodge_laplacians(incidence(sc))
            assert np.array_equal(
                lap.l1_down @ lap.l1_up, np.zeros((sc.num_edges, sc.num_edges))
            )


class TestHodgeDecompose:
    def test_recombination_and_orthogonality(self):
        rng = np.random.default_rng(11)
        for sc in random_complexes(10):
            if sc.num_edges == 0:
                continue
            inc = incidence(sc)
            x = rng.standard_normal(sc.num_edges)
            irr, sol, har = hodge_decompose(inc, x)
            scale = np.linalg.norm(x) + 1.0
            assert np.abs(irr + sol + har - x).max() < 1e-10 * scale
            assert abs(irr @ sol) < 1e-9 * scale**2
            assert abs(irr @ har) < 1e-9 * scale**2
            assert abs(sol @ har) < 1e-9 * scale**2
            # harmonic part is killed by both Laplacians
            lap = hodge_laplacians(inc)
            assert np.abs((lap.l1_down + lap.l1_up) @ har).max() < 1e-8 * scale

    def test_pure_gradient_signal(self, filled_triangle):
        inc = incidence(filled_triangle)
        x = inc.b1.T.astype(float) @ np.array([2.0, -1.0, 0.5])
        irr, sol, har = hodge_decompose(inc, x)
        assert np.abs(irr - x).max() < 1e-10
        assert np.abs(sol).max() < 1e-10
        assert np.abs(har).max() < 1e-10

    def test_pure_curl_signal(self, filled_triangle):
        inc = incidence(filled_triangle)
        x = inc.b2.astype(float) @ np.array([3.0])
        irr, sol, har = hodge_decompose(inc, x)
        assert np.abs(sol - x).max() < 1e-10
        assert np.abs(irr).max() < 1e-10

    def test_hollow_triangle_cycle_is_harmonic(self):
        sc = build_complex([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        inc = incidence(sc)
        assert harmonic_dimension(inc) == 1
        cycle = np.array([1.0, -1.0, 1.0])  # traverse 1->2->3->1
        irr, sol, har = hodge_decompose(inc, cycle)
        assert np.abs(har - cycle).max() < 1e-10
        assert np.abs(irr).max() < 1e-10
        assert np.abs(sol).max() < 1e-10

    def test_wrong_length_signal(self, filled_triangle):
        with pytest.raises(DimensionMismatch):
            hodge_decompose(incidence(filled_triangle), np.zeros(5))


class TestLineGraph:
    def test_filled_triangle_is_complete(self, filled_triangle):
        adj = line_graph(filled_triangle)
        assert np.array_equal(adj, np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))

    def test_disjoint_edges_are_isolated(self):
        sc = build_complex([1, 2, 3, 4], [(1, 2), (3, 4)])
        assert np.array_equal(line_graph(sc), np.zeros((2, 2), dtype=np.int64))

    def test_matches_lower_laplacian_support(self):
        for sc in random_complexes(10):
            if sc.num_edges == 0:
                continue
            inc = incidence(sc)
            down = inc.b1.T @ inc.b1
            np.fill_diagonal(down, 0)
            assert np.array_equal(line_graph(sc), (down != 0).astype(np.int64))


class TestRandom2sc:
    def test_hits_exact_targets_with_trivial_homology(self):
        sc = random_2sc(10, None, 12, seed=7, num_edges=21)
        assert (sc.num_vertices, sc.num_edges, sc.num_triangles) == (10, 21, 12)
        assert harmonic_dimension(incidence(sc)) == 0

    def test_reproducible(self):
        a = random_2sc(8, 0.5, 3, seed=42)
        b = random_2sc(8, 0.5, 3, seed=42)
        assert a == b
        c = random_2sc(8, 0.5, 3, seed=43)
        assert a != c  # overwhelmingly likely for this density

    @pytest.mark.parametrize("p, nt, message", [
        (0.5, -1, "triangle_budget must be nonnegative"),
        (None, 0, "need er_probability or num_edges"),
    ], ids=["negative-budget", "no-density"])
    def test_bad_arguments_refused(self, p, nt, message):
        with pytest.raises(ValueError) as info:
            random_2sc(4, p, nt, seed=0)
        assert str(info.value) == message

    def test_unreachable_edge_target_fails(self):
        with pytest.raises(GenerationFailed):
            random_2sc(5, 0.0, 0, seed=1, num_edges=3, max_attempts=20)

    def test_unreachable_triangle_budget_fails(self):
        with pytest.raises(GenerationFailed):
            random_2sc(4, 0.5, 5, seed=1, max_attempts=20)

    @pytest.mark.parametrize("nv, ne, nt", [(30, 120, 60), (60, 400, 200), (10, 21, 11)])
    def test_impossible_trivial_homology_fails_before_drawing(self, nv, ne, nt):
        # rank(b1) <= nv - 1 leaves at least ne - nv + 1 cycles to fill
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(GenerationFailed, match=f"at least {ne - nv + 1} triangles"):
            random_2sc(nv, None, nt, rng, num_edges=ne)
        assert rng.bit_generator.state == state
        # the same request without the homology requirement is feasible
        sc = random_2sc(nv, None, nt, 0, num_edges=ne, require_trivial_homology=False)
        assert sc.num_edges == ne

    def test_too_many_edges_fail_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(GenerationFailed, match="do not fit"):
            random_2sc(5, 0.5, 0, rng, num_edges=11, require_trivial_homology=False)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError):
            random_2sc(5, 0.5, 0, rng, num_edges=-1)

    @pytest.mark.parametrize("nv, p, ne, nt, most", [
        (3, None, 0, 2, 0), (4, None, 5, 3, 2), (5, 0.5, None, 11, 10),
        (60, None, 100, 401, 400),
    ])
    def test_triangle_budget_beyond_any_graph_fails_before_drawing(
        self, nv, p, ne, nt, most
    ):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(GenerationFailed, match=f"at most {most}"):
            random_2sc(nv, p, nt, rng, num_edges=ne, require_trivial_homology=False)
        assert rng.bit_generator.state == state

    def test_kruskal_katona_bound_is_tight(self):
        # the most 3-cliques over every graph on up to 5 vertices
        for nv in range(1, 6):
            pairs = list(itertools.combinations(range(nv), 2))
            most = {}
            for size in range(len(pairs) + 1):
                most[size] = max(
                    len(_enumerate_3cliques(nv, list(edges)))
                    for edges in itertools.combinations(pairs, size)
                )
                assert _max_triangles(nv, size) == most[size]
            assert _max_triangles(nv, None) == max(most.values())
        # the extremal graph is reached: a 4-clique minus one edge
        sc = random_2sc(4, None, 2, 0, num_edges=5, require_trivial_homology=False)
        assert sc.num_triangles == 2

    @pytest.mark.parametrize("nv, p, nt, ne, max_attempts, seeds", [
        (10, None, 12, 21, 2000, range(200)),
        # T = 0: only forests pass, with and without an edge count
        (8, None, 0, 5, 2000, range(30)),
        (6, 0.5, 0, None, 2000, range(30)),
        # many graphs disconnected; seeds 22 and 29 fail after drawing
        (8, 0.3, 2, None, 30, range(20, 35)),
        (18, 1.0, 153, None, 2000, [17]),
    ], ids=["paper-scale", "spanning-forests", "forests", "sparse", "K18"])
    def test_matches_selection_loop_oracle(self, nv, p, nt, ne, max_attempts, seeds):
        for seed in seeds:
            want = random_2sc_by_selection_loop(nv, p, nt, seed, num_edges=ne,
                                                max_attempts=max_attempts)
            if want is None:
                with pytest.raises(GenerationFailed, match="no admissible complex"):
                    random_2sc(nv, p, nt, seed, num_edges=ne, max_attempts=max_attempts)
            else:
                assert random_2sc(nv, p, nt, seed, num_edges=ne,
                                  max_attempts=max_attempts) == want, seed

    def test_shared_generator_ends_in_the_oracle_state(self):
        ours, oracle = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(8):
            want = random_2sc_by_selection_loop(10, None, 12, oracle, num_edges=21)
            assert random_2sc(10, None, 12, ours, num_edges=21) == want
        # a failure after drawing leaves the same state too
        assert random_2sc_by_selection_loop(8, 0.3, 2, oracle, max_attempts=3) is None
        with pytest.raises(GenerationFailed):
            random_2sc(8, 0.3, 2, ours, max_attempts=3)
        assert ours.bit_generator.state == oracle.bit_generator.state

    def test_improbable_trivial_homology_fails_after_every_attempt(self):
        # most of the 150 edges lie in no chosen triangle; testing each
        # selection's own complex took about 36 s to give up here
        start = time.perf_counter()
        with pytest.raises(GenerationFailed) as info:
            random_2sc(20, None, 150, 0, num_edges=160)
        assert time.perf_counter() - start < 10.0
        assert str(info.value) == ("no admissible complex after 2000 attempts "
                                   "(n=20, p=0.842, edges=160, triangles=150)")

    def test_homology_requirement_can_be_waived(self):
        # A sparse graph with no triangles almost surely has cycles left
        # unfilled; the default would reject, the flag accepts.
        sc = random_2sc(
            8, 0.6, 0, seed=5, require_trivial_homology=False
        )
        assert sc.num_triangles == 0


class TestSerialization:
    def test_round_trip(self, tmp_path, two_cluster_complex):
        path = tmp_path / "complex.json"
        save_complex(two_cluster_complex, path)
        assert load_complex(path) == two_cluster_complex
