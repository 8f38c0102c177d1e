"""Every reader of inv(omega) answers from the model's Hodge blocks; graphs keep their labels.

build_precision keeps the Hodge blocks of the couplings with the
precision, and verify_marginal_independence,
verify_conditional_independence, scan_singleton_pairs and
covariance_cholesky read inv(omega) from them without inverting omega,
whatever the order of reads across models; identity_residuals stays on
the dense inverses.  A precision built by hand, or copied, has no blocks
and is inverted on every call.  Results on built precisions must match
those from an inverse of omega made for them alone
(report_by_fresh_inverse in tests/helpers.py and _read_fresh below):
the same verdicts, and floats within 1e-11 of the mean variance; on a
hand-built precision they must be equal bit for bit.  A built precision
forms omega, omega_d and omega_u once, on the first read of any of them,
and no ``cmrf verify`` path reads them.  The colored graph forms each
color's component labels, its union component labels and its union
adjacency once; a marginal query forms neither of the union ones.
"""

import concurrent.futures
import dataclasses
import gc
import json
import sys
import weakref

import numpy as np
import pytest

from cmrf import (
    CmrfGraph,
    EdgePrecision,
    ExperimentConfig,
    NotSeparated,
    SeparationQuery,
    build_cmrf,
    build_precision,
    cli,
    color_separated_singleton_pairs,
    covariance_cholesky,
    draw_params,
    identity_residuals,
    incidence,
    is_color_separated,
    is_graph_separated,
    model,
    random_2sc,
    run_experiment,
    sample,
    save_complex,
    save_model,
    scan_singleton_pairs,
    verify_conditional_independence,
    verify_marginal_independence,
)
from cmrf.independence import MARGINAL_RTOL

from helpers import couplings_dense, matrices_of, report_by_fresh_inverse


def _bits(report):
    """A report with its floats as exact hex strings."""
    return (report.kind, report.passed, report.residual.hex(),
            report.tolerance.hex(), report.query)


def _models(nv, ne, nt, seeds):
    sc = random_2sc(nv, None, nt, seed=5, num_edges=ne,
                    require_trivial_homology=ne == 21)
    inc = incidence(sc)
    out = []
    for seed in seeds:
        params = draw_params(inc, seed, sparsity=0.5)
        out.append((build_precision(inc, params), build_cmrf(inc, params)))
    return out


def _queries(graph, rng, count):
    """Marginal (color-separated) and conditional queries, interleaved."""
    n = graph.num_nodes
    pairs = color_separated_singleton_pairs(graph)
    neighbors = [set() for _ in range(n)]
    for i, j in graph.links:
        neighbors[i].add(j)
        neighbors[j].add(i)
    queries = []
    while len(queries) < count:
        kind = len(queries) % 3
        if kind == 0 and pairs:
            a, b = pairs[int(rng.integers(len(pairs)))]
            queries.append(SeparationQuery((a,), (b,)))
            continue
        a = int(rng.integers(n))
        outside = [b for b in range(n) if b != a and b not in neighbors[a]]
        if kind == 1 and outside:
            b = outside[int(rng.integers(len(outside)))]
            queries.append(SeparationQuery((a,), (b,), tuple(sorted(neighbors[a]))))
        elif kind == 2:
            others = [x for x in range(n) if x != a]
            picked = rng.choice(others, size=4, replace=False).tolist()
            queries.append(SeparationQuery((a,), tuple(picked[:1]), tuple(sorted(picked[1:]))))
    return queries


def _ask(prec, graph, query):
    """The package's report, or None when the query is not separated."""
    if not query.given:
        assert is_color_separated(graph, query.set_a, query.set_b)
        return verify_marginal_independence(prec, graph, query.set_a, query.set_b)
    if not is_graph_separated(graph, query):
        with pytest.raises(NotSeparated):
            verify_conditional_independence(prec, graph, query)
        return None
    return verify_conditional_independence(prec, graph, query)


# The readers of the covariance besides the verify_* queries.
READERS = ("scan", "identity", "cholesky")


def _read(name, prec, graph):
    """The package's result of one reader, in exactly comparable form."""
    if name == "scan":
        scan = scan_singleton_pairs(prec, graph)
        return scan.pairs, scan.residuals.tobytes(), scan.tolerance, scan.passed
    if name == "identity":
        return tuple(identity_residuals(prec))
    return covariance_cholesky(prec).tobytes()


def _read_fresh(name, prec, graph):
    """What _read gives, from an inverse of omega made for it alone."""
    cov = np.linalg.inv(prec.omega)
    mean_variance = float(np.trace(cov)) / cov.shape[0]
    if name == "scan":
        pairs = color_separated_singleton_pairs(graph)
        rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
        residuals = np.abs(cov[rows, cols])
        tolerance = MARGINAL_RTOL * mean_variance
        return pairs, residuals.tobytes(), tolerance, bool(np.all(residuals < tolerance))
    if name == "identity":
        inv_sum = (np.linalg.inv(prec.omega_u) + np.linalg.inv(prec.omega_d)
                   - np.eye(prec.num_edges) / prec.k)
        sum_rule, product_rule, _, _ = identity_residuals(prec)  # no inverse in these
        return (sum_rule, product_rule, float(np.abs(cov - inv_sum).max()),
                mean_variance)
    return np.linalg.cholesky(cov).tobytes()


@pytest.fixture()
def inverted(monkeypatch):
    """Count np.linalg.inv calls and keep each matrix that was inverted."""
    inv = np.linalg.inv
    matrices = []

    def spy(a):
        matrices.append(a)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    return matrices


@pytest.fixture()
def inversions(monkeypatch):
    """Count np.linalg.inv calls and keep a weak reference to each result."""
    inv = np.linalg.inv
    results = []

    def spy(a):
        out = inv(a)
        results.append(weakref.ref(out))
        return out

    monkeypatch.setattr(np.linalg, "inv", spy)
    return results


def _mean_variance_bound(prec):
    """1e-11 of the mean variance, from a fresh dense inverse."""
    cov = np.linalg.inv(prec.omega)
    return 1e-11 * float(np.trace(cov)) / cov.shape[0]


def _near_report(got, want, bound):
    """The same verdict and query, residual and tolerance within bound."""
    return ((got.kind, got.passed, got.query) == (want.kind, want.passed, want.query)
            and abs(got.residual - want.residual) <= bound
            and abs(got.tolerance - want.tolerance) <= bound)


def _near_read(name, prec, got, want, bound):
    """_read against _read_fresh: exact verdicts and pairs, floats within bound.

    A Cholesky factor is compared through the covariance it gives back.
    """
    if name == "scan":
        (pairs, residuals, tolerance, passed), (pairs0, residuals0, tolerance0, passed0) = \
            got, want
        gap = np.abs(np.frombuffer(residuals) - np.frombuffer(residuals0)).max(initial=0.0)
        return ((pairs, passed) == (pairs0, passed0) and gap <= bound
                and abs(tolerance - tolerance0) <= bound)
    if name == "identity":
        return got == want
    n = prec.num_edges
    chol, chol0 = (np.frombuffer(x).reshape(n, n) for x in (got, want))
    return np.abs(chol @ chol.T - chol0 @ chol0.T).max() <= bound


@pytest.mark.parametrize("scale", [(10, 21, 12), (30, 120, 60)], ids=["21", "120"])
def test_interleaved_reports_match_fresh_inverse(scale):
    models = _models(*scale, seeds=(5, 6, 7))
    bounds = [_mean_variance_bound(prec) for prec, _ in models]
    rng = np.random.default_rng(sum(scale))
    plan = [(m, q) for m, (_, graph) in enumerate(models)
            for q in [*_queries(graph, rng, 30), *READERS * 2]]
    order = rng.permutation(len(plan))
    # runs on one model and switches between models both occur
    switches = sum(plan[i][0] != plan[j][0] for i, j in zip(order, order[1:]))
    assert 0 < switches < len(order) - 1
    answered = 0
    for n in order:
        m, query = plan[n]
        prec, graph = models[m]
        if query in READERS:
            assert _near_read(query, prec, _read(query, prec, graph),
                              _read_fresh(query, prec, graph), bounds[m])
            continue
        report = _ask(prec, graph, query)
        if report is None:
            continue
        answered += 1
        if report.kind == "marginal":
            assert report.residual == 0.0  # the blocks keep the colors' zeros exactly
        assert _near_report(report, report_by_fresh_inverse(prec, report.kind, query),
                            bounds[m])
    assert answered > len(plan) // 2


def test_model_switches_invert_no_edge_matrix(inverted):
    # at scales where V, E and T differ, so that shapes tell the blocks from omega
    models = _models(10, 21, 12, seeds=(5, 6)) + _models(30, 120, 60, seeds=(5,))
    assert all(a.shape in {(10, 10), (12, 12), (30, 30), (60, 60)} for a in inverted)
    assert len(inverted) == 2 * len(models)  # one inverse per Hodge block, at build
    del inverted[:]
    rng = np.random.default_rng(3)
    plan = [(m, q) for m, (_, graph) in enumerate(models)
            for q in [*_queries(graph, rng, 20), "scan", "cholesky", "sample"]]
    answered = 0
    for n in rng.permutation(len(plan)):
        m, query = plan[n]
        prec, graph = models[m]
        if query == "sample":
            sample(prec, 3, seed=n)
        elif query in READERS:
            _read(query, prec, graph)
        else:
            answered += _ask(prec, graph, query) is not None
    assert answered > 20
    assert inverted == []


def test_simulator_inverts_no_edge_matrix(inverted):
    config = ExperimentConfig(seed=2, num_runs=3, num_iterations=5, resample_complex=True)
    run_experiment(config)
    assert inverted and all(a.shape in {(10, 10), (12, 12)} for a in inverted)


def test_every_reader_of_one_model_shares_one_inversion(inverted):
    # the one inversion is that of the Hodge blocks, made at build; of the
    # readers only the identity check inverts, on the dense path
    (prec, graph), = _models(30, 120, 60, seeds=(5,))
    assert [a.shape for a in inverted] == [(30, 30), (60, 60)]
    del inverted[:]
    identity_residuals(prec)
    assert scan_singleton_pairs(prec, graph).pairs
    covariance_cholesky(prec)
    answered = 0
    for query in _queries(graph, np.random.default_rng(4), 60):
        answered += _ask(prec, graph, query) is not None
        if answered == 20:
            break
    assert answered == 20
    identity_residuals(prec)
    scan_singleton_pairs(prec, graph)
    covariance_cholesky(prec)
    # omega, omega_d and omega_u once per identity check
    for matrix in (prec.omega, prec.omega_d, prec.omega_u):
        assert sum(a is matrix for a in inverted) == 2
    assert len(inverted) == 6


def _bump(omega):
    """Change omega in place, keeping it symmetric positive definite."""
    omega[0, 1] = omega[1, 0] = omega[0, 1] + 1.0


def _writeable(omega):
    return omega, lambda: _bump(omega)


def _relocked(omega):
    omega.flags.writeable = False

    def change():
        omega.flags.writeable = True
        _bump(omega)
        omega.flags.writeable = False

    return omega, change


def _read_only_view(omega):
    view = omega.view()
    view.flags.writeable = False
    return view, lambda: _bump(omega)


@pytest.mark.parametrize("hold", [_writeable, _relocked, _read_only_view],
                         ids=["writeable", "relocked", "read-only-view"])
def test_hand_built_precision_is_inverted_afresh(inversions, hold):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 5))
    omega, change = hold(x @ x.T + 5.0 * np.eye(5))
    prec = EdgePrecision(omega=omega, omega_d=omega, omega_u=omega, k=5.0)
    graph = CmrfGraph(num_nodes=5, lower_links=frozenset(), upper_links=frozenset())
    before = verify_marginal_independence(prec, graph, [0], [1])
    change()
    after = verify_marginal_independence(prec, graph, [0], [1])
    assert len(inversions) == 2
    assert after.residual != before.residual
    assert _bits(after) == _bits(report_by_fresh_inverse(prec, "marginal", after.query))
    # the other readers, each on its own hand-built precision; the
    # identity check also inverts omega_d and omega_u, here omega itself
    for reader, per_read in zip(READERS, (1, 3, 1)):
        del inversions[:]
        omega, change = hold(x @ x.T + 5.0 * np.eye(5))
        prec = EdgePrecision(omega=omega, omega_d=omega, omega_u=omega, k=5.0)
        before = _read(reader, prec, graph)
        change()
        after = _read(reader, prec, graph)
        assert len(inversions) == 2 * per_read
        assert after != before
        assert after == _read_fresh(reader, prec, graph)


def test_replaced_omega_is_inverted_afresh(inversions):
    (prec, graph), = _models(10, 21, 12, seeds=(5,))
    i, j = color_separated_singleton_pairs(graph)[0]
    del inversions[:]
    before = verify_marginal_independence(prec, graph, [i], [j])
    changed = np.array(prec.omega)
    changed[i, j] = changed[j, i] = 0.01 * changed[i, i]
    replaced = dataclasses.replace(prec, omega=model._frozen(changed))
    assert replaced._blocks is None
    after = verify_marginal_independence(replaced, graph, [i], [j])
    assert len(inversions) == 1
    assert after.residual != before.residual
    assert _bits(after) == _bits(report_by_fresh_inverse(replaced, "marginal", after.query))


def test_built_precision_is_frozen():
    (prec, _), = _models(10, 21, 12, seeds=(5,))
    for matrix in (prec.omega, prec.omega_d, prec.omega_u):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            matrix += 1.0
        with pytest.raises(ValueError):
            matrix.flags.writeable = True
        assert not matrix.flags.writeable


def test_hodge_blocks_are_read_only_and_private():
    (prec, _), = _models(10, 21, 12, seeds=(5,))
    blocks = prec._blocks
    for array in (blocks.b1, blocks.b2, *blocks.roots, *blocks.inverses):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
        with pytest.raises(ValueError):
            array.flags.writeable = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        prec._blocks = None
    with pytest.raises(AttributeError):
        blocks.mean_variance = 1.0
    with pytest.raises(TypeError):
        EdgePrecision(prec.omega, prec.omega_d, prec.omega_u, prec.k, blocks)
    # left out of comparison and repr
    copy = dataclasses.replace(prec)
    assert copy._blocks is None and copy == prec
    assert "_blocks" not in repr(prec)


def test_kept_covariance_dies_with_its_precision(inversions):
    # what a built precision keeps of its covariance is its Hodge blocks:
    # V x V and T x T floats and the int8 incidence, no E x E array
    (prec, graph), = _models(30, 120, 60, seeds=(5,))
    blocks = prec._blocks
    floats = [*blocks.roots, *blocks.inverses]
    assert [a.shape for a in floats] == [(30,), (60,), (30, 30), (60, 60)]
    assert (blocks.b1.dtype, blocks.b2.dtype) == (np.int8, np.int8)
    i, j = color_separated_singleton_pairs(graph)[0]
    verify_marginal_independence(prec, graph, [i], [j])
    scan_singleton_pairs(prec, graph)
    covariance_cholesky(prec)
    assert len(inversions) == 2  # the blocks, at build
    refs = [weakref.ref(prec), *map(weakref.ref, floats), *inversions]
    del prec, blocks, floats
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.fixture()
def assemblies(monkeypatch):
    """The edge count of each assembly of omega, omega_d and omega_u."""
    assemble, calls = model._assemble, []
    monkeypatch.setattr(model, "_assemble",
                        lambda k, blocks: calls.append(blocks.b1.shape[1]) or assemble(k, blocks))
    return calls


def _eager(inc, params):
    """(omega, omega_d, omega_u) as an eager assembly forms them."""
    return matrices_of(params.k, *couplings_dense(inc, params.d_v, params.d_t))


@pytest.mark.parametrize("scale", [(10, 21, 12), (30, 120, 60), (60, 400, 200)],
                         ids=["21", "120", "400"])
def test_matrices_are_formed_together_on_first_read(assemblies, scale):
    nv, ne, nt = scale
    inc = incidence(random_2sc(nv, None, nt, seed=5, num_edges=ne,
                               require_trivial_homology=ne == 21))
    params = draw_params(inc, 5, sparsity=0.5)
    want = _eager(inc, params)
    prec = build_precision(inc, params)
    # the precision keeps its own coefficients
    params.d_v[:] = 0.0
    params.d_t[:] = 0.0
    assert prec.num_edges == ne and assemblies == []
    assert not set(model._MATRICES) & set(vars(prec))
    first = prec.omega_u
    assert assemblies == [ne]
    formed = (prec.omega, prec.omega_d, prec.omega_u)
    assert formed[2] is first
    for got, expected in zip(formed, want):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got.flags.writeable = True
    assert all(a is b for a, b in zip(formed, (prec.omega, prec.omega_d, prec.omega_u)))
    copy = dataclasses.replace(prec)
    assert copy._blocks is None and copy == prec and repr(copy) == repr(prec)
    assert assemblies == [ne]


def test_threads_form_the_matrices_once(assemblies):
    (prec, _), = _models(30, 120, 60, seeds=(5,))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(getattr, prec, name) for name in model._MATRICES * 4]
            _, pending = concurrent.futures.wait(futures, timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not pending
    assert assemblies == [120]
    assert all(f.result() is getattr(prec, name)
               for f, name in zip(futures, model._MATRICES * 4))


def test_verify_forms_no_edge_matrix(assemblies, tmp_path, capsys):
    sc = random_2sc(30, None, 60, seed=5, num_edges=120, require_trivial_homology=False)
    inc = incidence(sc)
    params = draw_params(inc, 5, sparsity=0.5)
    save_complex(sc, tmp_path / "complex.json")
    path = str(tmp_path / "model.json")
    save_model(params, "complex.json", path)
    graph = build_cmrf(inc, params)
    a, b = color_separated_singleton_pairs(graph)[0]
    blanket = sorted(graph._adjacency[a])
    far = next(j for j in range(graph.num_nodes) if j != a and j not in blanket)
    for query in (["--set-a", str(a), "--set-b", str(b)],
                  ["--set-a", str(a), "--set-b", str(far),
                   "--given", ",".join(map(str, blanket))],
                  ["--scan-singletons"]):
        assert cli.main(["verify", path, *query, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
    assert assemblies == []
    # model check reads the matrices and forms them once; model build reads
    # its cancellations and the k*I check off one coupling record
    assert cli.main(["model", "check", path]) == 0
    assert assemblies == [120]
    assert cli.main(["model", "build", str(tmp_path / "complex.json"), "--seed", "5",
                     "-o", str(tmp_path / "built.json")]) == 0
    assert assemblies == [120]


def test_simulator_assembles_once_per_run(assemblies):
    run_experiment(ExperimentConfig(seed=2, num_runs=3, num_iterations=5))
    assert assemblies == [21, 21, 21]


def test_adjacency_built_once_per_graph(monkeypatch):
    (prec, graph), = _models(30, 120, 60, seeds=(5,))
    calls = []
    for name in ("_components", "_neighbors"):
        build = getattr(model, name)
        monkeypatch.setattr(model, name, lambda n, pairs, name=name, build=build:
                            calls.append((name, len(pairs))) or build(n, pairs))
    rng = np.random.default_rng(2)
    for query in _queries(graph, rng, 60):
        _ask(prec, graph, query)
    color_separated_singleton_pairs(graph)
    # one labelling per color, and one union labelling and union adjacency,
    # each over its links
    lower, upper = len(graph.lower_links), len(graph.upper_links)
    assert sorted(calls) == sorted([("_components", lower), ("_components", upper),
                                    ("_components", lower + upper),
                                    ("_neighbors", lower + upper)])
    assert graph.links is graph.links
    assert graph.lower_links is graph.lower_links
    fresh = CmrfGraph(num_nodes=graph.num_nodes, lower_links=graph.lower_links,
                      upper_links=graph.upper_links)
    assert graph == fresh and hash(graph) == hash(fresh)
    assert graph._adjacency == fresh._adjacency
    assert graph._union_labels == fresh._union_labels
    assert all(np.array_equal(a, b) for a, b in zip(graph._labels, fresh._labels))


def test_marginal_queries_form_no_union_structure(monkeypatch, tmp_path, capsys):
    sc = random_2sc(30, None, 60, seed=5, num_edges=120, require_trivial_homology=False)
    inc = incidence(sc)
    params = draw_params(inc, 5, sparsity=0.5)
    prec, graph = build_precision(inc, params), build_cmrf(inc, params)
    pairs = color_separated_singleton_pairs(graph)
    for i, j in pairs[:20]:
        assert is_color_separated(graph, [i], [j])
        assert verify_marginal_independence(prec, graph, [i], [j]).passed
    assert "_union_labels" not in graph.__dict__ and "_adjacency" not in graph.__dict__
    # nor does the marginal command: two per-color labellings and nothing else
    save_complex(sc, tmp_path / "complex.json")
    path = str(tmp_path / "model.json")
    save_model(params, "complex.json", path)
    calls = []
    for name in ("_components", "_neighbors"):
        build = getattr(model, name)
        monkeypatch.setattr(model, name, lambda n, pairs, name=name, build=build:
                            calls.append(name) or build(n, pairs))
    i, j = pairs[0]
    assert cli.main(["verify", path, "--set-a", str(i), "--set-b", str(j), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert calls == ["_components", "_components"]
