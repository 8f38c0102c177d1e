"""Command line front end.

Subcommands mirror the library layers: ``complex`` generates and
inspects simplicial complexes, ``model`` builds and checks structured
Gaussian models, ``verify`` answers independence queries against a
model, and ``simulate`` runs the distributed estimation comparison.

A JSON config file with one section per subcommand can preload any
option (``--config settings.json``); explicit flags override file
values.  Randomized subcommands require a seed, either as a flag or in
the config file.  All subcommands accept ``--json`` for machine
readable output.  Exit status is 0 when requested checks pass, 1 when a
check fails (for ``simulate``: a variant diverged), 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import diffusion, independence, model, simplicial
from .errors import CmrfError, GenerationFailed, NotColorSeparated, NotSeparated

__all__ = ["main"]


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(x) for x in text.split(",")]


def _parse_coeffs(text: str, length: int, what: str) -> np.ndarray:
    values = [float(x) for x in text.split(",")]
    if len(values) == 1:
        return np.full(length, values[0])
    if len(values) != length:
        raise ValueError(f"{what} needs 1 or {length} values, got {len(values)}")
    return np.asarray(values)


def _load_section(config_path: str | None, section: str) -> dict:
    if config_path is None:
        return {}
    part = simplicial._read_document(config_path, {}).get(section, {})
    if not isinstance(part, dict):
        raise ValueError(f"config section {section!r} must be an object")
    return part


def _seed(args, section: str):
    """The seed of --seed or of a config section that may hold nothing else.

    Like simulate's, a seed is an integer >= 0 and not a bool; None when
    neither the flag nor the section gives one.
    """
    part = _load_section(args.config, section)
    unknown = set(part) - {"seed"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    seed = args.seed if args.seed is not None else part.get("seed")
    if seed is not None:
        diffusion._check_int("seed", seed, 0)
    return seed


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_complex_generate(args) -> int:
    seed = _seed(args, "complex")
    if seed is None:
        raise ValueError("complex generate requires --seed")
    sc = simplicial.random_2sc(
        args.vertices,
        args.probability,
        args.triangles,
        seed,
        num_edges=args.edges,
        require_trivial_homology=not args.allow_nontrivial_homology,
    )
    simplicial.save_complex(sc, args.out)
    hdim = simplicial.harmonic_dimension(simplicial.incidence(sc))
    payload = {
        "out": str(args.out),
        "num_vertices": sc.num_vertices,
        "num_edges": sc.num_edges,
        "num_triangles": sc.num_triangles,
        "harmonic_dimension": hdim,
    }
    _emit(args, payload, [
        f"wrote {args.out}",
        f"vertices={sc.num_vertices} edges={sc.num_edges} "
        f"triangles={sc.num_triangles} harmonic_dimension={hdim}",
    ])
    return 0


def cmd_complex_inspect(args) -> int:
    sc = simplicial.load_complex(args.path)
    inc = simplicial.incidence(sc)
    lap = simplicial.hodge_laplacians(inc)
    rank_b1 = int(np.linalg.matrix_rank(inc.b1.astype(float))) if sc.num_edges else 0
    rank_b2 = int(np.linalg.matrix_rank(inc.b2.astype(float))) if sc.num_triangles else 0
    hdim = sc.num_edges - rank_b1 - rank_b2  # rank-nullity, see harmonic_dimension
    l1 = lap.l1_down + lap.l1_up
    spec_l0 = np.linalg.eigvalsh(lap.l0) if sc.num_vertices else np.zeros(0)
    spec_l1 = np.linalg.eigvalsh(l1) if sc.num_edges else np.zeros(0)
    payload = {
        "num_vertices": sc.num_vertices,
        "num_edges": sc.num_edges,
        "num_triangles": sc.num_triangles,
        "rank_b1": rank_b1,
        "rank_b2": rank_b2,
        "harmonic_dimension": hdim,
        "l0_spectrum_range": [float(spec_l0.min()), float(spec_l0.max())]
        if spec_l0.size else None,
        "l1_spectrum_range": [float(spec_l1.min()), float(spec_l1.max())]
        if spec_l1.size else None,
    }
    lines = [
        f"vertices={sc.num_vertices} edges={sc.num_edges} "
        f"triangles={sc.num_triangles}",
        f"rank(b1)={rank_b1} rank(b2)={rank_b2} harmonic_dimension={hdim}",
    ]
    if spec_l1.size:
        lines.append(
            f"L1 spectrum in [{spec_l1.min():.6g}, {spec_l1.max():.6g}]"
        )
    _emit(args, payload, lines)
    return 0


def cmd_model_build(args) -> int:
    seed = _seed(args, "model")
    sc = simplicial.load_complex(args.complex)
    inc = simplicial.incidence(sc)

    d_v = d_t = None
    if args.dv is not None:
        d_v = _parse_coeffs(args.dv, sc.num_vertices, "--dv")
    if args.dt is not None:
        d_t = _parse_coeffs(args.dt, sc.num_triangles, "--dt")

    if d_v is None or d_t is None:
        if seed is None:
            raise ValueError("model build requires --seed unless --dv and --dt are given")
        drawn = model.draw_params(
            inc,
            seed,
            dv_bounds=(args.coeff_low, args.coeff_high),
            dt_bounds=(args.coeff_low, args.coeff_high),
            margin=args.margin,
            sparsity=args.sparsity,
        )
    if d_v is None and d_t is None:
        params = drawn  # draw_params took k from these coefficients
    else:
        d_v = drawn.d_v if d_v is None else d_v
        d_t = drawn.d_t if d_t is None else d_t
        params = model.SgmParams(
            k=model.min_valid_k(inc, d_v, d_t, args.margin), d_v=d_v, d_t=d_t
        )
    prec = model.build_precision(inc, params)
    model.save_model(params, args.complex, args.out)

    cancels = model.find_cancellations(inc, params)
    diag_const = bool(
        np.allclose(prec.omega, prec.k * np.eye(prec.num_edges), atol=0.0)
    )
    payload = {
        "out": str(args.out),
        "k": float(params.k),
        "num_lower_nonzero": int(np.count_nonzero(params.d_v)),
        "num_upper_nonzero": int(np.count_nonzero(params.d_t)),
        "omega_is_k_identity": diag_const,
        "cancellations": [list(p) for p in cancels],
    }
    lines = [f"wrote {args.out}", f"k={params.k:.6g}"]
    if diag_const:
        lines.append("omega = k*I (no couplings)")
    if cancels:
        lines.append(f"exact cancellations at pairs: {cancels}")
    _emit(args, payload, lines)
    return 0


def cmd_model_check(args) -> int:
    sc, params = model.load_model(args.path)
    inc = simplicial.incidence(sc)
    prec = model.build_precision(inc, params)
    # a model whose products overflow is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        res = model.identity_residuals(prec)
        # numpy's power gives the same bits as a float's, but inf where
        # k**2 overflows instead of raising OverflowError
        checks = {
            "sum_rule": (res.sum_rule, 1e-10 * prec.k),
            "product_rule": (res.product_rule, 1e-10 * float(np.float64(prec.k) ** 2)),
            "inverse_rule": (res.inverse_rule, 1e-10 * res.mean_variance),
        }
    if not np.isfinite(list(checks.values())).all():
        raise ValueError(
            f"{args.path}: the precision identities overflow in double "
            f"precision (k={params.k:.6g})"
        )
    spectrum = np.linalg.eigvalsh(prec.omega)
    lam_min = float(spectrum[0])
    cancels = model.find_cancellations(inc, params)
    passed = all(r < tol for r, tol in checks.values())
    payload = {
        "passed": passed,
        "k": params.k,
        "smallest_eigenvalue": lam_min,
        "condition_number": float(spectrum[-1]) / lam_min,
        "residuals": {k_: r for k_, (r, _) in checks.items()},
        "tolerances": {k_: tol for k_, (_, tol) in checks.items()},
        "cancellations": [list(p) for p in cancels],
    }
    lines = [f"positive definite: smallest eigenvalue {lam_min:.6g} (k={params.k:.6g})"]
    for name, (r, tol) in checks.items():
        verdict = "ok" if r < tol else "FAIL"
        lines.append(f"{name}: residual {r:.3e} (tolerance {tol:.3e}) {verdict}")
    if cancels:
        lines.append(f"exact cancellations at pairs: {cancels}")
    lines.append("PASS" if passed else "FAIL")
    _emit(args, payload, lines)
    return 0 if passed else 1


def cmd_verify(args) -> int:
    if args.scan_singletons and any(
        flag is not None for flag in (args.set_a, args.set_b, args.given)
    ):
        raise ValueError("--scan-singletons takes no --set-a, --set-b or --given")
    sc, params = model.load_model(args.path)
    inc = simplicial.incidence(sc)
    prec = model.build_precision(inc, params)
    graph = model.build_cmrf(inc, params)

    if args.scan_singletons:
        scan = independence.scan_singleton_pairs(prec, graph)
        payload = {
            "passed": scan.passed,
            "num_pairs": len(scan.pairs),
            "pairs": [list(p) for p in scan.pairs],
            "max_residual": scan.max_residual,
            "tolerance": scan.tolerance,
        }
        lines = [
            f"color-separated singleton pairs: {len(scan.pairs)}",
            f"max cross-covariance residual: {scan.max_residual:.3e}",
            "PASS" if scan.passed else "FAIL",
        ]
        _emit(args, payload, lines)
        return 0 if scan.passed else 1

    if args.set_a is None or args.set_b is None:
        raise ValueError("verify requires --set-a and --set-b (or --scan-singletons)")
    set_a = _parse_int_list(args.set_a)
    set_b = _parse_int_list(args.set_b)

    try:
        if args.given is not None:
            query = independence.SeparationQuery(
                set_a=tuple(set_a), set_b=tuple(set_b),
                given=tuple(_parse_int_list(args.given)),
            )
            report = independence.verify_conditional_independence(prec, graph, query)
        else:
            report = independence.verify_marginal_independence(prec, graph, set_a, set_b)
    except NotSeparated:
        _emit(args, {"kind": "conditional", "separated": False, "passed": False}, [
            "not separated: the conditioning set does not block all paths",
        ])
        return 1
    except NotColorSeparated:
        _emit(args, {"kind": "marginal", "separated": False, "passed": False}, [
            "not color-separated: a monochromatic path joins the sets",
        ])
        return 1

    payload = {
        "kind": report.kind,
        "separated": True,
        "passed": report.passed,
        "residual": report.residual,
        "tolerance": report.tolerance,
    }
    lines = [
        f"{report.kind} independence: separated",
        f"residual {report.residual:.3e} (tolerance {report.tolerance:.3e})",
        "PASS" if report.passed else "FAIL",
    ]
    _emit(args, payload, lines)
    return 0 if report.passed else 1


# Flag name -> ExperimentConfig field for the simulate subcommand.
_SIM_FIELDS = {
    "seed": "seed",
    "runs": "num_runs",
    "iterations": "num_iterations",
    "vertices": "num_vertices",
    "edges": "num_edges",
    "triangles": "num_triangles",
    "probability": "er_probability",
    "complex_file": "complex_file",
    "resample_complex": "resample_complex",
    "dim": "dim",
    "regressor_variance": "regressor_variance",
    "step_size": "step_size",
    "combine_rule": "combine_rule",
    "steady_window": "steady_state_window",
    "threads": "num_workers",
}


def cmd_simulate(args) -> int:
    section = _load_section(args.config, "simulate")
    merged = dict(section)
    for flag, key in _SIM_FIELDS.items():
        value = getattr(args, flag)
        if value is not None:
            merged[key] = value
    if args.variants is not None:
        merged["variants"] = [v.strip() for v in args.variants.split(",")]
    if "seed" not in merged:
        raise ValueError("simulate requires --seed (flag or config file)")
    config = diffusion.ExperimentConfig.from_dict(merged)

    try:
        result = diffusion.run_experiment(config)
    except GenerationFailed as exc:
        raise GenerationFailed(
            f"{exc}; write a complex with `cmrf complex generate` (add "
            "--allow-nontrivial-homology to waive trivial homology) and "
            "pass it with --complex-file"
        ) from None
    diffusion.write_csv(result, args.out)
    if config.steady_state_window > config.num_iterations:
        print(f"warning: the steady-state window of {config.steady_state_window} "
              f"iterations is longer than the run; the summary averages all "
              f"{config.num_iterations} iterations", file=sys.stderr)

    diverged = set(result.diverged)
    payload = {
        "out": str(args.out),
        "num_runs": result.num_runs,
        "steady_state_db": {
            v: None if v in diverged else db
            for v, db in result.steady_state_db.items()
        },
        "diverged": list(result.diverged),
    }
    lines = [f"wrote {args.out}", f"runs={result.num_runs}", ""]
    lines.append(f"{'variant':<18} steady-state MSD")
    for v in result.variants:
        if v in diverged:
            lines.append(f"{v:<18} diverged")
        else:
            lines.append(f"{v:<18} {result.steady_state_db[v]:8.2f} dB")
    _emit(args, payload, lines)
    return 1 if diverged else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmrf",
        description="Colored Markov random fields on 2-complexes: "
        "build, query, and simulate.",
    )
    parser.add_argument("--config", help="JSON config file with per-subcommand sections")
    parser.add_argument("--json", action="store_true", help="machine readable output")
    # the shared flags are also accepted after the subcommand; SUPPRESS
    # keeps an absent trailing flag from clobbering a leading one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file with per-subcommand sections")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_complex = sub.add_parser("complex", help="generate or inspect complexes")
    csub = p_complex.add_subparsers(dest="subcommand", required=True)

    p_gen = csub.add_parser("generate", parents=[common],
                            help="sample a random 2-complex")
    p_gen.add_argument("--vertices", type=int, required=True)
    p_gen.add_argument("--edges", type=int, help="exact edge count to hit")
    p_gen.add_argument("--probability", type=float, help="edge probability")
    p_gen.add_argument("--triangles", type=int, default=0)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--allow-nontrivial-homology", action="store_true")
    p_gen.add_argument("-o", "--out", required=True)
    p_gen.set_defaults(func=cmd_complex_generate)

    p_ins = csub.add_parser("inspect", parents=[common], help="report ranks and spectra")
    p_ins.add_argument("path")
    p_ins.set_defaults(func=cmd_complex_inspect)

    p_model = sub.add_parser("model", help="build or check edge-signal models")
    msub = p_model.add_subparsers(dest="subcommand", required=True)

    p_build = msub.add_parser("build", parents=[common], help="draw coefficients and write a model")
    p_build.add_argument("complex", help="complex document to attach the model to")
    p_build.add_argument("--seed", type=int)
    p_build.add_argument("--coeff-low", type=float, default=0.2)
    p_build.add_argument("--coeff-high", type=float, default=5.0)
    p_build.add_argument("--sparsity", type=float, default=0.0,
                         help="probability of zeroing each coefficient")
    p_build.add_argument("--margin", type=float, default=0.1)
    p_build.add_argument("--dv", help="explicit vertex coefficients (scalar or comma list)")
    p_build.add_argument("--dt", help="explicit triangle coefficients (scalar or comma list)")
    p_build.add_argument("-o", "--out", required=True)
    p_build.set_defaults(func=cmd_model_build)

    p_check = msub.add_parser("check", parents=[common], help="verify the precision identities")
    p_check.add_argument("path")
    p_check.set_defaults(func=cmd_model_check)

    p_verify = sub.add_parser("verify", parents=[common], help="independence queries on a model")
    p_verify.add_argument("path")
    p_verify.add_argument("--set-a", help="comma separated edge indices")
    p_verify.add_argument("--set-b", help="comma separated edge indices")
    p_verify.add_argument("--given", help="comma separated conditioning indices")
    p_verify.add_argument("--scan-singletons", action="store_true",
                          help="verify every color-separated singleton pair")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", parents=[common], help="run the MSD comparison")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--runs", type=int)
    p_sim.add_argument("--iterations", type=int)
    p_sim.add_argument("--vertices", type=int)
    p_sim.add_argument("--edges", type=int)
    p_sim.add_argument("--triangles", type=int)
    p_sim.add_argument("--probability", type=float)
    p_sim.add_argument("--complex-file")
    p_sim.add_argument("--resample-complex", action=argparse.BooleanOptionalAction)
    p_sim.add_argument("--dim", type=int)
    p_sim.add_argument("--regressor-variance", type=float)
    p_sim.add_argument("--step-size", type=float)
    p_sim.add_argument("--combine-rule", choices=("uniform", "metropolis"))
    p_sim.add_argument("--steady-window", type=int)
    p_sim.add_argument("--variants", help="comma separated variant names")
    p_sim.add_argument("--threads", type=int, help="worker processes")
    p_sim.add_argument("-o", "--out", default="msd.csv")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CmrfError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
