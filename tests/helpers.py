"""Shared test utilities: independent oracles and random model factories.

The separation oracle here decides reachability by exhaustive
enumeration of simple paths with backtracking, deliberately a different
algorithm from the early-exit search inside the package.  The sweep
oracle (graph_separated_by_sweep) is the package's former decision: it
builds the whole set of nodes reachable from A without entering S and
only then tests it against B.  The
per-agent ATC references (local_loss_terms, local_gradient) work edge by
edge from one agent's residual and its neighbors' residuals; a residual
they need and were not given raises KeyError.  The gradient oracle
evaluates central finite differences of the frozen-residual objective
slice assembled from local_loss_terms, a different code path from the
analytic coupling-row gradient.  draw_round draws one round of
measurements through the simulator's own sampling kernel.  The
link, line-graph and clique oracles enumerate pairs and triples of
simplices directly instead of reading supports off incidence products;
the incidence oracle fills b1 and b2 one simplex at a time.
The per-agent view of an ATC round (agent_states) expands a vectorized
round into the messages each agent receives, to test locality.  The
singleton-scan oracles are a double loop over component labels, which
it finds by its own recursive depth-first search, and the former
per-pair loop of verify_marginal_independence calls; the
independence-report oracle inverts omega afresh for every query; the
cancellation oracles are a per-link loop and a scan of the dense E x E
couplings.  The dense couplings (couplings_dense) are the E x E
incidence products the package assembled omega from before it scattered
its sparse coupling records; couplings_by_face_loop fills the same
matrices one face at a time.  The dense support oracle reads links off
the E x E product |B|.T @ diag(keep) @ |B|, as the package did before it
generated them from each face's edges.  The
Monte Carlo oracle (msd_by_run_loop) runs the simulator one run, one
variant and one iteration at a time with the ATC maths written out
inline, against which the batched simulator must agree bit for bit.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from cmrf import (
    CmrfGraph,
    build_precision,
    build_cmrf,
    combination_weights,
    coupling_matrix,
    covariance_cholesky,
    draw_params,
    get_variant,
    incidence,
    line_graph,
    load_complex,
    random_2sc,
    step_sizes,
    verify_marginal_independence,
)
from cmrf.diffusion import _measure
from cmrf.independence import CONDITIONAL_RTOL, MARGINAL_RTOL, IndependenceReport
from cmrf.model import _CANCEL_RTOL, _OVERFLOW, _check_edges


def draw_sparse_model(inc, seed, sparsity=0.5):
    """Random model whose colored graph has a decent chance of gaps."""
    params = draw_params(inc, np.random.default_rng(seed), sparsity=sparsity)
    prec = build_precision(inc, params)
    graph = build_cmrf(inc, params)
    return params, prec, graph


def random_colored_graph(num_nodes, rng, p_link=0.3):
    """A colored graph that need not come from any complex."""
    lower, upper = set(), set()
    for i, j in itertools.combinations(range(num_nodes), 2):
        if rng.random() < p_link:
            lower.add((i, j))
        if rng.random() < p_link:
            upper.add((i, j))
    return CmrfGraph(
        num_nodes=num_nodes,
        lower_links=frozenset(lower),
        upper_links=frozenset(upper),
    )


def adjacency_sets(num_nodes, links):
    adj = [set() for _ in range(num_nodes)]
    for i, j in links:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def path_exists_by_enumeration(adj, sources, targets, blocked):
    """Depth-first enumeration of simple paths, stopping at the first hit."""
    targets = set(targets)
    blocked = set(blocked)

    def extend(node, visited):
        if node in targets:
            return True
        for nxt in sorted(adj[node]):
            if nxt in visited or nxt in blocked:
                continue
            if extend(nxt, visited | {nxt}):
                return True
        return False

    return any(
        s not in blocked and extend(s, {s}) for s in sources
    )


def graph_separated_by_enumeration(graph, set_a, set_b, given=()):
    adj = adjacency_sets(graph.num_nodes, graph.links)
    return not path_exists_by_enumeration(adj, set_a, set_b, given)


def reachable(adj, sources, blocked=()):
    """Nodes reachable from sources along links without entering blocked."""
    blocked = set(blocked)
    reached = {s for s in sources if s not in blocked}
    stack = list(reached)
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in reached and nxt not in blocked:
                reached.add(nxt)
                stack.append(nxt)
    return reached


def graph_separated_by_sweep(graph, query):
    """Separation by the full sweep of the nodes reachable from A avoiding S."""
    adj = adjacency_sets(graph.num_nodes, graph.links)
    return reachable(adj, query.set_a, query.given).isdisjoint(query.set_b)


def color_separated_by_enumeration(graph, set_a, set_b):
    for links in (graph.lower_links, graph.upper_links):
        adj = adjacency_sets(graph.num_nodes, links)
        if path_exists_by_enumeration(adj, set_a, set_b, ()):
            return False
    return True


def subsets_up_to(items, max_size):
    for size in range(max_size + 1):
        yield from itertools.combinations(items, size)


def draw_round(rng, chol, theta0, regressor_variance=0.2):
    """One round (regressors, observations) as the simulator draws it.

    Consumes one standard_normal(E*m + E) per round from ``rng``, the
    E*m regressor entries then the E noise entries; ``chol`` is the
    lower Cholesky factor of the noise covariance.
    """
    ne, m = chol.shape[0], theta0.shape[0]
    draws = rng.standard_normal((1, 1, ne * m + ne))
    regressors, observations = _measure(
        draws, ne, np.sqrt(regressor_variance), chol[None], theta0[None])
    return regressors[0, 0], observations[0, 0]


def local_loss_terms(edge, residuals, params, inc):
    """Edge-wise split (phi_h, phi_d, phi_u) of the instantaneous loss.

    phi_h = (k/2) * r_e**2 needs only the edge's own residual.  phi_d
    couples r_e to residuals of edges sharing a vertex u with
    d_v[u] != 0, phi_u to residuals of edges sharing a triangle t with
    d_t[t] != 0; cross products carry the signed incidence pattern and a
    factor 1/2 so that summing phi_h - phi_d - phi_u over all edges
    recovers 0.5 * r.T @ omega @ r exactly.
    """
    r_e = float(residuals[edge])

    def half_quadratic(incmat, coeffs, col):
        own = cross = 0.0
        for s in np.flatnonzero(col):
            c = coeffs[s]
            own += c * col[s] ** 2
            if c == 0.0:
                continue
            for other in np.flatnonzero(incmat[s]):
                if other != edge:
                    cross += c * col[s] * incmat[s, other] * r_e * residuals[other]
        return float(0.5 * (own * r_e**2 + cross))

    # lower part: rows of b1 are vertices; upper part: triangles in their place
    return (0.5 * params.k * r_e**2,
            half_quadratic(inc.b1, params.d_v, inc.b1[:, edge]),
            half_quadratic(inc.b2.T, params.d_t, inc.b2[edge]))


def local_gradient(edge, variant, own, neighbor_residuals, params, inc):
    """Instantaneous loss gradient at one edge, neighbor residuals frozen.

    ``own`` is the triple (y_e, u_e, theta_e).  Returns
    -u_e * sum_e' omega_v[e, e'] * r_e', built from the edge's own row of
    the couplings and the residuals of the neighbors it couples to.
    """
    spec = get_variant(variant)
    y_e, u_e, theta_e = own
    a_d, a_u = couplings_dense(inc, params.d_v, params.d_t)
    row = np.zeros(inc.b1.shape[1])
    row[edge] = params.k
    if spec.uses_lower_term:
        row -= a_d[edge]
    if spec.uses_upper_term:
        row -= a_u[edge]
    weighted = row[edge] * float(y_e - u_e @ theta_e)
    for other in np.flatnonzero(row):
        if other != edge:
            weighted += row[other] * float(neighbor_residuals[other])
    return -weighted * u_e


def fd_local_gradient(
    edge, variant, theta, regressors, observations, params, inc, prec, h=1e-6
):
    """Central finite differences of the agent's frozen-residual objective.

    The objective slice at edge e sums the variant's active loss terms
    phi_h - phi_d - phi_u over the closed coupling neighborhood of e,
    with every residual frozen except e's own, which varies with theta_e.
    Its exact gradient is what local_gradient returns.
    """
    spec = get_variant(variant)
    row = coupling_matrix(prec, spec)[edge]
    support = sorted(set(np.flatnonzero(row)) | {edge})
    frozen = {
        j: float(observations[j] - regressors[j] @ theta[j])
        for j in range(theta.shape[0])
    }

    def objective(theta_e):
        rmap = dict(frozen)
        rmap[edge] = float(observations[edge] - regressors[edge] @ theta_e)
        total = 0.0
        for j in support:
            ph, pd, pu = local_loss_terms(j, rmap, params, inc)
            total += ph
            if spec.uses_lower_term:
                total -= pd
            if spec.uses_upper_term:
                total -= pu
        return total

    dim = theta.shape[1]
    grad = np.zeros(dim)
    for m in range(dim):
        plus = theta[edge].copy()
        minus = theta[edge].copy()
        plus[m] += h
        minus[m] -= h
        grad[m] = (objective(plus) - objective(minus)) / (2.0 * h)
    return grad


def lower_links_by_loops(sc, d_v):
    """Pairs (i, j), i < j, of edges sharing a vertex u with d_v[u] != 0."""
    coupled = {v for v, d in zip(sc.vertices, d_v) if d != 0}
    return {
        (i, j)
        for (i, e), (j, f) in itertools.combinations(enumerate(sc.edges), 2)
        if set(e) & set(f) & coupled
    }


def upper_links_by_loops(sc, d_t):
    """Pairs (i, j), i < j, of edges sharing a triangle t with d_t[t] != 0."""
    links, edges = set(), edge_index(sc)
    for tri, d in zip(sc.triangles, d_t):
        if d == 0:
            continue
        sides = sorted(edges[s] for s in itertools.combinations(tri, 2))
        links.update(itertools.combinations(sides, 2))
    return links


def edge_index(sc):
    """Map each canonical (tail, head) pair to its column in ``b1``."""
    return {e: i for i, e in enumerate(sc.edges)}


def incidence_by_loops(sc):
    """(b1, b2) filled one simplex at a time through dict index maps."""
    vertex_index = {v: i for i, v in enumerate(sc.vertices)}
    edges = edge_index(sc)
    b1 = np.zeros((sc.num_vertices, sc.num_edges), dtype=np.int64)
    for j, (u, v) in enumerate(sc.edges):
        b1[vertex_index[u], j] = -1
        b1[vertex_index[v], j] = +1
    b2 = np.zeros((sc.num_edges, sc.num_triangles), dtype=np.int64)
    for j, (a, b, c) in enumerate(sc.triangles):
        b2[edges[(b, c)], j] = +1
        b2[edges[(a, c)], j] = -1
        b2[edges[(a, b)], j] = +1
    return b1, b2


def line_graph_by_loops(sc):
    """0/1 adjacency of edges that share a vertex, by pairwise comparison."""
    n = sc.num_edges
    adj = np.zeros((n, n), dtype=np.int64)
    for i, j in itertools.combinations(range(n), 2):
        if set(sc.edges[i]) & set(sc.edges[j]):
            adj[i, j] = adj[j, i] = 1
    return adj


def cliques_by_combinations(num_vertices, edges):
    """All 3-cliques (a, b, c), a < b < c, in lexicographic order."""
    eset = set(edges)
    return [
        (a, b, c)
        for a, b, c in itertools.combinations(range(num_vertices), 3)
        if (a, b) in eset and (a, c) in eset and (b, c) in eset
    ]


def components_by_depth_first(num_nodes, links):
    """Node -> smallest node of its component, by recursive depth-first search."""
    adj = adjacency_sets(num_nodes, links)
    label = {}

    def visit(node, root):
        label[node] = root
        for nxt in adj[node]:
            if nxt not in label:
                visit(nxt, root)

    for start in range(num_nodes):
        if start not in label:
            visit(start, start)
    return label


def separated_pairs_by_double_loop(graph):
    """Color-separated singleton pairs by comparing component labels pairwise."""
    lower = components_by_depth_first(graph.num_nodes, graph.lower_links)
    upper = components_by_depth_first(graph.num_nodes, graph.upper_links)
    return [
        (i, j)
        for i in range(graph.num_nodes)
        for j in range(i + 1, graph.num_nodes)
        if lower[i] != lower[j] and upper[i] != upper[j]
    ]


def scan_by_pair_loop(prec, graph, pairs):
    """One verify_marginal_independence report per pair; returns the scan summary.

    Gives (passed, max_residual, tolerance, reports) as the singleton
    scan of cmrf verify computed them before it had a one-inversion path.
    """
    reports = [verify_marginal_independence(prec, graph, [i], [j]) for i, j in pairs]
    passed = all(r.passed for r in reports)
    worst = max((r.residual for r in reports), default=0.0)
    tolerance = reports[0].tolerance if reports else None
    return passed, worst, tolerance, reports


def report_by_fresh_inverse(prec, kind, query):
    """The report of a separated query, from an inverse of omega made for it alone."""
    cov = np.linalg.inv(prec.omega)
    a, b, s = list(query.set_a), list(query.set_b), list(query.given)
    residual = 0.0
    if a and b:
        cross = cov[np.ix_(a, b)]
        if s:
            cross = cross - cov[np.ix_(a, s)] @ np.linalg.solve(
                cov[np.ix_(s, s)], cov[np.ix_(s, b)]
            )
        residual = float(np.abs(cross).max())
    rtol = MARGINAL_RTOL if kind == "marginal" else CONDITIONAL_RTOL
    tolerance = rtol * (float(np.trace(cov)) / cov.shape[0])
    return IndependenceReport(kind=kind, passed=residual < tolerance,
                              residual=residual, tolerance=tolerance, query=query)


def couplings_dense(inc, d_v, d_t):
    """(a_d, a_u) as the E x E products b1.T @ diag(d_v) @ b1 and b2 @ diag(d_t) @ b2.T.

    Symmetrized as 0.5 * (a + a.T), so that overflow shows as it would in
    a dense assembly; raises ValueError on a complex without edges and
    when an entry overflows, with the package's texts.
    """
    _check_edges(inc)
    b1 = inc.b1.astype(float)
    b2 = inc.b2.astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        a_d = b1.T @ (d_v[:, None] * b1)
        a_u = (b2 * d_t) @ b2.T
        a_d = 0.5 * (a_d + a_d.T)
        a_u = 0.5 * (a_u + a_u.T)
    if not (np.isfinite(a_d).all() and np.isfinite(a_u).all()):
        raise ValueError(_OVERFLOW)
    return a_d, a_u


def couplings_by_face_loop(inc, d_v, d_t):
    """(a_d, a_u) filled one face at a time.

    Each diagonal entry adds its edge's coefficients one face after the
    other in ascending face order; each other entry is set once, from the
    one face its two edges share.
    """
    ne = inc.b1.shape[1]
    parts = []
    for incmat, d in ((inc.b1, d_v), (inc.b2.T, d_t)):
        a = np.zeros((ne, ne))
        for f in range(incmat.shape[0]):
            sides = np.flatnonzero(incmat[f])
            for i in sides:
                a[i, i] += d[f]
                for j in sides:
                    if j != i:
                        a[i, j] = incmat[f, i] * incmat[f, j] * d[f]
        parts.append(a)
    return parts[0], parts[1]


def matrices_of(k, a_d, a_u):
    """(omega, omega_d, omega_u) of the couplings a_d and a_u, formed eagerly."""
    k_eye = k * np.eye(a_d.shape[0])
    return k_eye - a_d - a_u, k_eye - a_d, k_eye - a_u


def shared_face_pairs_dense(incmat, keep):
    """Pairs i < j of columns sharing a kept row, as the E x E product |B|.T @ diag(keep) @ |B|."""
    member = (incmat[keep] != 0).astype(float)
    return np.argwhere(np.triu(member.T @ member > 0, 1))


def cancellations_dense(inc, params):
    """Cancelling links from the dense couplings, by a scan of two E x E triangles."""
    a_d, a_u = couplings_dense(inc, params.d_v, params.d_t)
    lo, up = np.triu(a_d, 1), np.triu(a_u, 1)
    scale = np.maximum(np.abs(lo), np.abs(up))
    rows, cols = np.nonzero((scale > 0) & (np.abs(lo + up) <= _CANCEL_RTOL * scale))
    return list(zip(rows.tolist(), cols.tolist()))


def cancellations_by_loop(inc, params):
    """Colored links whose lower and upper couplings cancel, one link at a time."""
    a_d, a_u = couplings_dense(inc, params.d_v, params.d_t)
    out = []
    for i, j in sorted(build_cmrf(inc, params).links):
        coupling = a_d[i, j] + a_u[i, j]
        scale = max(abs(a_d[i, j]), abs(a_u[i, j]))
        if scale > 0 and abs(coupling) <= _CANCEL_RTOL * scale:
            out.append((i, j))
    return out


@dataclass(frozen=True)
class Message:
    """What one agent sends its line-graph neighbors during a round."""

    residual: float
    regressor: np.ndarray
    psi: np.ndarray


@dataclass(frozen=True)
class AgentState:
    """Per-agent view of a round: own estimate plus received messages."""

    edge_index: int
    theta_hat: np.ndarray
    inbox: dict


def agent_states(theta, regressors, observations, coupling, adjacency, step_size):
    """Expand one distributed round into per-agent states with inboxes.

    Inboxes contain exactly one message per line-graph neighbor, holding
    that neighbor's pre-adapt residual, its regressor, and the
    intermediate estimate psi it computed this round.  Used to check
    that every quantity the round consumed was locally available.
    """
    residual = observations - np.einsum("em,em->e", regressors, theta)
    weighted = coupling @ residual
    psi = theta + step_size * weighted[:, None] * regressors
    agents = []
    for e in range(theta.shape[0]):
        inbox = {
            int(j): Message(
                residual=float(residual[j]),
                regressor=regressors[j].copy(),
                psi=psi[j].copy(),
            )
            for j in np.flatnonzero(adjacency[e])
        }
        agents.append(
            AgentState(edge_index=e, theta_hat=theta[e].copy(), inbox=inbox)
        )
    return agents


def _oracle_run(config, sc, run_seed):
    """One Monte Carlo run, one (variant, iteration) step at a time."""
    rng = np.random.default_rng(run_seed)
    if sc is None:
        sc = random_2sc(config.num_vertices, config.er_probability,
                        config.num_triangles, rng, num_edges=config.num_edges)
    inc = incidence(sc)
    params = draw_params(inc, rng, dv_bounds=config.dv_bounds,
                         dt_bounds=config.dt_bounds, margin=config.k_margin)
    prec = build_precision(inc, params)
    theta0 = rng.standard_normal(config.dim)
    chol = covariance_cholesky(prec)
    combine = combination_weights(line_graph(sc), config.combine_rule)
    steps = step_sizes(prec, config)
    couplings = {v: coupling_matrix(prec, v) for v in config.variants}

    ne, m = sc.num_edges, config.dim
    state = {
        v: np.zeros(m) if get_variant(v).is_centralized else np.zeros((ne, m))
        for v in config.variants
    }
    msd = {v: np.empty(config.num_iterations) for v in config.variants}
    for t in range(config.num_iterations):
        regressors = rng.standard_normal((ne, m)) * np.sqrt(config.regressor_variance)
        noise = rng.standard_normal(ne) @ chol.T
        observations = regressors @ theta0 + noise
        for v in config.variants:
            theta, coupling, mu = state[v], couplings[v], steps[v]
            if get_variant(v).is_centralized:
                residual = observations - regressors @ theta
                theta = theta + mu * (regressors.T @ (coupling @ residual))
                err = theta - theta0
                msd[v][t] = float(err @ err)
            else:
                residual = observations - np.einsum("em,em->e", regressors, theta)
                weighted = coupling @ residual
                theta = theta + mu * weighted[:, None] * regressors
                if get_variant(v).uses_combination:
                    theta = combine @ theta
                err = theta - theta0
                msd[v][t] = float(np.sum(err * err) / ne)
            state[v] = theta
    return msd


def msd_by_run_loop(config):
    """(msd_mean, msd_std) of ``config`` from a serial per-run loop.

    Follows the seed chain that run_experiment documents: the complex
    comes from the first child of the root seed, run i from child i of
    the second.
    """
    complex_seq, runs_seq = np.random.SeedSequence(config.seed).spawn(2)
    if config.complex_file is not None:
        sc = load_complex(config.complex_file)
    elif config.resample_complex:
        sc = None
    else:
        sc = random_2sc(config.num_vertices, config.er_probability,
                        config.num_triangles, np.random.default_rng(complex_seq),
                        num_edges=config.num_edges)
    runs = [_oracle_run(config, sc, s) for s in runs_seq.spawn(config.num_runs)]
    mean, std = {}, {}
    for v in config.variants:
        stack = np.stack([r[v] for r in runs])
        mean[v] = stack.mean(axis=0)
        std[v] = (stack.std(axis=0, ddof=1) if config.num_runs > 1
                  else np.zeros(config.num_iterations))
    return mean, std
