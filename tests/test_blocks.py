"""The Hodge blocks against the dense E x E path.

min_valid_k, the positive-definiteness gate of build_precision and the
covariance of a built precision (covariance_cholesky of it is the
simulator's noise factor) work in vertex and triangle space, each side
of the couplings through its V x V or T x T Gram matrix.  Every check here
compares them with the dense quantities built from couplings_dense:
the couplings themselves, lambda_max of a_d + a_u, a Cholesky of
omega - _PD_RTOL * k * I, inv(omega) and the condition numbers of omega_d
and omega_u.  The complexes put each side's width on both sides of E:
the three benchmark scales (V, T < E), K18 with every triangle filled
(T > E), a forest-like complex (V > E) and K5 beside isolated vertices
(V = T = E).
"""

import itertools

import numpy as np
import pytest

from cmrf import (
    NotPositiveDefinite,
    SgmParams,
    build_complex,
    build_precision,
    covariance_cholesky,
    draw_params,
    incidence,
    min_valid_k,
    random_2sc,
)
from cmrf.diffusion import VARIANTS, ExperimentConfig, _setup_run
from cmrf.model import (
    _PD_RTOL,
    _factor_condition_numbers,
    _sides,
)

from helpers import couplings_by_face_loop, couplings_dense, matrices_of


def _forest_like():
    """8 vertices, 5 edges, 1 triangle: a filled triangle, two pendant
    edges and isolated vertices, so the lower side is wider than E."""
    return build_complex(range(1, 9), [(1, 2), (1, 3), (2, 3), (3, 4), (5, 6)],
                         [(1, 2, 3)])


def _k5_and_isolated_vertices():
    """K5 with every triangle filled and 5 isolated vertices: V = E = T = 10."""
    pairs = list(itertools.combinations(range(1, 6), 2))
    triples = list(itertools.combinations(range(1, 6), 3))
    return build_complex(range(1, 11), pairs, triples)


COMPLEXES = {
    "10/21/12": lambda: random_2sc(10, None, 12, seed=7, num_edges=21),
    "30/120/60": lambda: random_2sc(30, None, 60, seed=7, num_edges=120,
                                    require_trivial_homology=False),
    "60/400/200": lambda: random_2sc(60, None, 200, seed=7, num_edges=400,
                                     require_trivial_homology=False),
    "K18": lambda: random_2sc(18, 1.0, 816, seed=3),
    "forest-like": _forest_like,
    "K5+5": _k5_and_isolated_vertices,
}
COUPLINGS = ["both", "no-d_v", "no-d_t"]


@pytest.fixture(scope="module", params=list(COMPLEXES))
def incidence_of(request):
    return incidence(COMPLEXES[request.param]())


@pytest.fixture(params=COUPLINGS)
def coefficients(request, incidence_of):
    drawn = draw_params(incidence_of, 11, sparsity=0.3)
    d_v, d_t = drawn.d_v, drawn.d_t
    if request.param == "no-d_v":
        d_v = np.zeros_like(d_v)
    elif request.param == "no-d_t":
        d_t = np.zeros_like(d_t)
    return incidence_of, d_v, d_t


def _dense_lambda_max(inc, d_v, d_t):
    a_d, a_u = couplings_dense(inc, d_v, d_t)
    return float(np.linalg.eigvalsh(a_d + a_u)[-1])


def _dense_accepts(inc, params):
    a_d, a_u = couplings_dense(inc, params.d_v, params.d_t)
    eye = np.eye(a_d.shape[0])
    try:
        np.linalg.cholesky(params.k * eye - a_d - a_u - _PD_RTOL * params.k * eye)
    except np.linalg.LinAlgError:
        return False
    return True


def _block_factor(inc, params):
    return covariance_cholesky(build_precision(inc, params))


def test_complexes_put_each_width_on_both_sides_of_e():
    # _spectrum_ends reads the coupling's smallest eigenvalue from the
    # Gram's spectrum differently below E and from E on
    widths = set()
    for make in COMPLEXES.values():
        nv, ne = (inc := incidence(make())).b1.shape
        widths |= {("d", nv < ne), ("u", inc.b2.shape[1] < ne)}
    assert widths == {("d", False), ("d", True), ("u", False), ("u", True)}


def test_sides_keep_the_couplings(coefficients):
    inc, d_v, d_t = coefficients
    for side, coupling in zip(_sides(inc, d_v, d_t), couplings_dense(inc, d_v, d_t)):
        scale = max(np.abs(coupling).max(), 1.0)
        assert np.abs(side.factor @ side.factor.T - coupling).max() <= 1e-13 * scale


def test_lambda_max_matches_dense(coefficients):
    inc, d_v, d_t = coefficients
    dense = _dense_lambda_max(inc, d_v, d_t)
    assert dense > 0
    assert min_valid_k(inc, d_v, d_t, margin=0.0) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("shift, accepted", [(1e-7, True), (1e-11, False), (-1e-6, False)])
def test_gate_decides_as_the_dense_cholesky(coefficients, shift, accepted):
    # the floor is k = lambda_max / (1 - 5e-8); each k lies at least twofold clear of it
    inc, d_v, d_t = coefficients
    params = SgmParams(k=_dense_lambda_max(inc, d_v, d_t) * (1 + shift), d_v=d_v, d_t=d_t)
    assert _dense_accepts(inc, params) == accepted
    if accepted:
        build_precision(inc, params)
    else:
        with pytest.raises(NotPositiveDefinite):
            build_precision(inc, params)


def test_noise_factor_matches_dense_inverse(coefficients):
    inc, d_v, d_t = coefficients
    params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
    chol = _block_factor(inc, params)
    assert np.array_equal(chol, np.tril(chol))
    cov = np.linalg.inv(build_precision(inc, params).omega)
    mean_variance = np.trace(cov) / cov.shape[0]
    assert np.abs(chol @ chol.T - cov).max() <= 1e-10 * mean_variance


def test_matrices_are_the_dense_bits(request, coefficients):
    inc, d_v, d_t = coefficients
    params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
    prec = build_precision(inc, params)
    got = (prec.omega, prec.omega_d, prec.omega_u)
    dense = matrices_of(params.k, *couplings_dense(inc, d_v, d_t))
    if request.node.callspec.params["incidence_of"] != "K18":
        assert [g.tobytes() for g in got] == [w.tobytes() for w in dense]
        return
    # each K18 edge sums 16 triangle coefficients: the assembly adds them
    # in ascending face order, BLAS in an order of its own that changes
    # with the thread count, so there the dense diagonals agree only to
    # rounding and the face-loop oracle holds the bits
    off = ~np.eye(prec.num_edges, dtype=bool)
    for g, w in zip(got, dense):
        assert np.array_equal(g[off], w[off])
        assert np.abs(np.diag(g) - np.diag(w)).max() <= 32 * np.finfo(float).eps * params.k
    loop = matrices_of(params.k, *couplings_by_face_loop(inc, d_v, d_t))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in loop]


def test_factor_condition_numbers_match_dense(coefficients):
    inc, d_v, d_t = coefficients
    params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
    prec = build_precision(inc, params)
    lower, upper = _factor_condition_numbers(inc, params)
    assert lower == pytest.approx(np.linalg.cond(prec.omega_d), rel=1e-9)
    assert upper == pytest.approx(np.linalg.cond(prec.omega_u), rel=1e-9)


def test_condition_number_of_a_nonsingular_lower_coupling():
    # on a path with positive d_v the lower coupling is nonsingular, so
    # omega_d's condition number needs the coupling's smallest eigenvalue
    inc = incidence(build_complex(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)]))
    d_v, d_t = np.linspace(1.0, 3.0, 5), np.zeros(0)
    params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
    prec = build_precision(inc, params)
    assert np.linalg.eigvalsh(params.k * np.eye(4) - prec.omega_d)[0] > 0.1
    lower, upper = _factor_condition_numbers(inc, params)
    assert lower == pytest.approx(np.linalg.cond(prec.omega_d), rel=1e-9)
    assert upper == 1.0


def test_edgeless_complex_is_refused():
    inc = incidence(build_complex([1, 2], []))
    params = SgmParams(k=1.0, d_v=np.ones(2), d_t=np.zeros(0))
    for call in (lambda: min_valid_k(inc, params.d_v, params.d_t),
                 lambda: build_precision(inc, params),
                 lambda: _block_factor(inc, params)):
        with pytest.raises(ValueError, match="empty edge set"):
            call()


@pytest.mark.parametrize("d_v, d_t", [(1e308, 1e308), (1e308, 0.0), (0.0, 1e308)])
def test_overflowing_couplings_are_refused_without_warnings(filled_triangle, d_v, d_t):
    inc = incidence(filled_triangle)
    coefficients = (np.full(3, d_v), np.array([d_t]))
    params = SgmParams(k=1e300, d_v=coefficients[0], d_t=coefficients[1])
    with np.errstate(all="raise"):
        for call in (lambda: min_valid_k(inc, *coefficients),
                     lambda: build_precision(inc, params),
                     lambda: _block_factor(inc, params)):
            with pytest.raises(ValueError, match="couplings overflow"):
                call()


def test_assembly_overflow_is_refused_at_build():
    # near the top of the float range the Gram and the gate pass, yet the
    # assembly's symmetrization a_d + a_d.T overflows: build_precision
    # refuses the model, although it forms no E x E matrix otherwise
    inc = incidence(build_complex([1, 2], [(1, 2)]))
    for k, d in [(1.79e308, 1.7e308), (1e308, 0.9e308)]:
        params = SgmParams(k=k, d_v=np.array([d, 0.0]), d_t=np.zeros(0))
        with np.errstate(all="raise"), pytest.raises(ValueError, match="couplings overflow"):
            build_precision(inc, params)
    # below k = 2**1023 a passed gate keeps the assembly finite
    params = SgmParams(k=8.9e307, d_v=np.array([8.8e307, 0.0]), d_t=np.zeros(0))
    with np.errstate(all="raise"):
        omega = build_precision(inc, params).omega
    assert omega.tobytes() == np.array([[8.9e307 - 8.8e307]]).tobytes()


@pytest.mark.parametrize("scale", ["10/21/12", "K18", "forest-like"])
def test_run_model_is_the_public_steps_bit_for_bit(scale):
    sc = COMPLEXES[scale]()
    inc = incidence(sc)
    bounds = ((0.5, 2.0), (0.1, 3.0))
    config = ExperimentConfig(dv_bounds=bounds[0], dt_bounds=bounds[1], k_margin=0.2, dim=3)
    slots = [VARIANTS["atc_cmrf"], VARIANTS["atc_lgmrf"]]
    run = _setup_run(config, sc, np.random.SeedSequence(5), slots, combines=False)
    rng = np.random.default_rng(np.random.SeedSequence(5))
    params = draw_params(inc, rng, dv_bounds=bounds[0], dt_bounds=bounds[1], margin=0.2)
    want = build_precision(inc, params)
    theta0 = rng.standard_normal(config.dim)
    assert run.k == want.k
    noise, omega, omega_d = run.mats
    assert noise.tobytes() == covariance_cholesky(want).tobytes()
    assert omega.tobytes() == want.omega.tobytes()
    assert omega_d.tobytes() == want.omega_d.tobytes()
    assert run.theta0.tobytes() == theta0.tobytes()
    assert run.rng.standard_normal() == rng.standard_normal()  # the same draws
