"""Per-layer metrics derived from the spans of a traced run.

Names follow ``<layer>.<function>.<quantity>``.  ``model.*`` and
``simplicial.*`` count every call of the function whatever namespace it
went through; ``diffusion.covariance_cholesky.s`` counts only the calls
made through ``diffusion``.  Operation and byte counts are computed from
array shapes, not measured; their names end in ``_computed``.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Tracer

FLOAT_BYTES = 8


def atc_round_cost(edges: int, dim: int, variant: str) -> tuple[int, int]:
    """(flops, bytes) of one atc_round call, counted from its expressions.

    Distributed variants: residual 2Em+E, coupling matvec 2E^2, adapt
    E+2Em, combine matmul 2E^2 m when the variant combines.  Bytes are
    the operands read once and the result written once: theta,
    regressors, observations, coupling, combine (when used) and the
    (E, m) result.  centralized_cmrf: residual 2Em+E, coupling matvec
    2E^2, regressors.T matvec 2Em, update 2m; bytes for theta (m),
    regressors, observations, coupling and the (m,) result.
    """
    from cmrf.diffusion import get_variant

    e, m = edges, dim
    spec = get_variant(variant)
    if spec.is_centralized:
        flops = 4 * e * m + e + 2 * e * e + 2 * m
        words = 2 * m + e * m + e + e * e
    else:
        combine = spec.uses_combination
        flops = 4 * e * m + 2 * e + 2 * e * e + (2 * e * e * m if combine else 0)
        words = 3 * e * m + e + e * e + (e * e if combine else 0)
    return flops, FLOAT_BYTES * words


def covariance_cost(n: int) -> tuple[float, int]:
    """(flops, bytes) of ``inv`` on an n x n matrix.

    numpy solves A X = I with LAPACK gesv: LU factorization (2/3 n^3)
    plus forward and back substitution for n right-hand sides (2 n^3).
    Bytes: A and the identity read once, X written once.
    """
    return 8.0 * n**3 / 3.0, FLOAT_BYTES * 3 * n * n


def layer_metrics(tracer: Tracer, overhead: dict[str, float]) -> dict[str, float]:
    by_name = defaultdict(list)
    by_via = defaultdict(list)
    names = {}
    for span in tracer.spans:
        names[span.id] = span.name
        by_name[span.name].append(span)
        by_via[f"{span.via}.{span.name.split('.', 1)[1]}"].append(span)

    def seconds(spans):
        return sum(s.seconds for s in spans)

    def self_seconds(spans):
        return sum(s.self_s for s in spans)

    atc = [a for a in tracer.aggregates.values() if a.name == "diffusion.atc_round"]
    atc_calls = sum(a.calls for a in atc)
    atc_cost = [atc_round_cost(*a.shape) for a in atc]
    generate = [a for a in tracer.aggregates.values() if a.name == "diffusion.generate_round"]
    inversions = by_name["model.covariance"]
    inversion_cost = [covariance_cost(s.tag) for s in inversions]
    checks = (len(by_name["independence.verify_marginal_independence"])
              + len(by_name["independence.verify_conditional_independence"]))
    cli = defaultdict(list)
    for span in by_name["cli.main"]:
        cli[span.tag].append(span)

    metrics = {
        "simplicial.random_2sc.s": seconds(by_name["simplicial.random_2sc"]),
        "simplicial.random_2sc.selections": sum(
            1 for s in by_name["simplicial.build_complex"]
            if names.get(s.parent) == "simplicial.random_2sc"
        ),
        "simplicial.line_graph.s": seconds(by_name["simplicial.line_graph"]),
        "simplicial.line_graph.calls": len(by_name["simplicial.line_graph"]),
        "model.min_valid_k.s": seconds(by_name["model.min_valid_k"]),
        "model.build_precision.s": seconds(by_name["model.build_precision"]),
        "model.build_precision.calls": len(by_name["model.build_precision"]),
        "model.covariance.s": seconds(inversions),
        "model.covariance.calls": len(inversions),
        "model.covariance.flops_computed": sum(f for f, _ in inversion_cost),
        "model.covariance.bytes_computed": sum(b for _, b in inversion_cost),
        "model.covariance_cholesky.calls": len(by_name["model.covariance_cholesky"]),
        "independence.is_color_separated.s": seconds(by_name["independence.is_color_separated"]),
        "independence.is_color_separated.calls": len(by_name["independence.is_color_separated"]),
        "independence.is_graph_separated.s": seconds(by_name["independence.is_graph_separated"]),
        "independence.is_graph_separated.calls": len(by_name["independence.is_graph_separated"]),
        "independence.color_separated_singleton_pairs.s": seconds(
            by_name["independence.color_separated_singleton_pairs"]),
        "independence.verify_marginal_independence.self_s": self_seconds(
            by_name["independence.verify_marginal_independence"]),
        "independence.verify_conditional_independence.self_s": self_seconds(
            by_name["independence.verify_conditional_independence"]),
        "independence.covariance_per_check":
            len(by_via["independence.covariance"]) / checks if checks else 0.0,
        "diffusion.atc_round.calls": atc_calls,
        "diffusion.atc_round.us_per_call":
            1e6 * sum(a.seconds for a in atc) / atc_calls if atc_calls else 0.0,
        "diffusion.atc_round.flops_computed": sum(
            a.calls * f for a, (f, _) in zip(atc, atc_cost)),
        "diffusion.atc_round.bytes_computed": sum(
            a.calls * b for a, (_, b) in zip(atc, atc_cost)),
        "diffusion.generate_round.s": sum(a.seconds for a in generate),
        "diffusion.covariance_cholesky.s": seconds(by_via["diffusion.covariance_cholesky"]),
        "diffusion.step_sizes.s": seconds(by_name["diffusion.step_sizes"]),
        "diffusion.combination_weights.s": seconds(by_name["diffusion.combination_weights"]),
        "diffusion.run_experiment.self_s": self_seconds(by_name["diffusion.run_experiment"]),
        "diffusion.write_csv.s": seconds(by_name["diffusion.write_csv"]),
    }
    for sub in ("complex_generate", "model_build", "verify", "simulate"):
        metrics[f"cli.main.{sub}.s"] = seconds(cli[sub])
        metrics[f"cli.main.{sub}.self_s"] = self_seconds(cli[sub])
    for phase, value in overhead.items():
        metrics[f"trace.overhead.{phase}"] = value
    return metrics
