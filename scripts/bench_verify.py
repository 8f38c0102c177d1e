"""Time the singleton scan, pair checks and conditional queries of ``cmrf verify``, and a model's assembly, before and after a change.

    OPENBLAS_NUM_THREADS=1 python scripts/bench_verify.py --before OLD_CHECKOUT -o OUT.json

OLD_CHECKOUT is an unpacked copy of an earlier commit (``git archive
COMMIT | tar -x -C DIR``); "after" is the checkout holding this script.
Each side runs in its own Python process that imports cmrf from that
side's ``src/``.  Models are fixed: ``random_2sc(V, None, T, seed=5,
num_edges=E)`` at 10/21/12, 30/120/60 and 60/400/200 (trivial homology
required only at 10/21/12, where it is feasible) with
``draw_params(..., 5, sparsity=0.5)``.

Per scale and side the script records:

* ``loop_ms_per_pair``: one ``verify_marginal_independence`` call per
  pair on a fixed sample of at most 200 pairs of one model, the path
  the scan took before the one-inversion scan.  Each call gets its own
  copy of the precision object (``dataclasses.replace``), which carries
  no kept covariance and no Hodge blocks, so each call inverts omega on
  either side, as the loop did before either existed;
* ``scan_s``: one ``scan_singleton_pairs`` call over every pair.  Each
  timed call gets its own such copy, built before the clock starts, so
  each scan inverts omega on either side;
* ``cli_scan_s``: ``cmrf verify MODEL --scan-singletons --json`` in
  process, loading and JSON output included, when ``scan_s`` stays
  under ``CLI_LIMIT_S`` seconds (else null);
* ``cli_pair_ms``: ``cmrf verify MODEL --set-a i --set-b j --json`` in
  process, loading and JSON output included, per call, on a fixed sample
  of at most ``PAIR_SAMPLE`` color-separated pairs (seeded with
  ``PAIR_SEED``); the benchmark's ``marginal_checks_per_s`` runs the
  same command;
* ``pair_stages_ms``: the same pair calls split into their stages, each
  timed alone over the same pairs, in ms per call: ``parser`` (what
  ``cli.main`` spends on its parser, which it builds once per process:
  parsing), ``load_model``, ``incidence``,
  ``build_precision``, ``build_cmrf``, ``separation``
  (``is_color_separated`` on a graph built for that call alone, so any
  search structure a graph forms on first use is inside the time) and
  ``report`` (the residual against its tolerance, from the precision's
  own covariance reader);
* ``build_cmrf_ms`` and ``find_cancellations_ms``: one call of each on
  the model (``model build`` and ``model check`` call
  ``find_cancellations``);
* ``assemble_ms``: one ``model._assemble`` on the built precision's
  Hodge blocks, which forms omega, omega_d and omega_u (``model build``,
  ``model check`` and every simulator run pay it once);
* ``setup_run_ms``: one ``diffusion._setup_run`` on the scale's complex
  with the default config and variants, which draws a simulator run's
  coefficients, builds its model and noise factor and forms its
  coupling matrices;
* ``conditional_ms_per_query``: ``is_graph_separated`` and, when
  separated, ``verify_conditional_independence`` for each of
  ``QUERIES`` queries on a freshly built precision and graph, so the
  first-use adjacency build is inside the time, and so is the one
  inversion of omega on a side that keeps one covariance per model (a
  side with Hodge blocks inverts nothing per query).  The
  queries are the benchmark's conditional mix (``make_queries`` in
  perfbench/run.py, seeded with ``[SEED, 0]``): half Markov-blanket
  queries, half random ones with |S| <= 3;
* ``separation_us_per_query``: ``is_graph_separated`` alone over the
  same queries, on a freshly built graph, so the first-use union
  component labels and adjacency are inside the time.

Times are medians of ``REPEATS`` runs; ``assemble_ms`` and
``setup_run_ms`` each time ``LOOPS`` calls per run.  Each side is
measured twice, in the order before, after, after, before, so that a
drift of the machine's speed during the script weighs on both sides
alike, and each figure is the smaller of the side's two readings.  The output also holds the
machine record of the benchmark runner (perfbench/run.py).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALES = [(10, 21, 12), (30, 120, 60), (60, 400, 200)]
SEED = 5
SPARSITY = 0.5
SAMPLE = 200
PAIR_SAMPLE = 20
PAIR_SEED = 1
REPEATS = 5
CLI_LIMIT_S = 10.0
QUERIES = 200
LOOPS = 20


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _assembly_and_setup(sc, prec) -> tuple[float, float]:
    """(assemble_ms, setup_run_ms): ms per call of model._assemble and diffusion._setup_run."""
    import numpy as np

    from cmrf import diffusion, model

    def per_call_ms(fn):
        return 1e3 * _median_time(lambda: [fn() for _ in range(LOOPS)]) / LOOPS

    config = diffusion.ExperimentConfig(seed=SEED, num_vertices=sc.num_vertices,
                                        num_edges=sc.num_edges,
                                        num_triangles=sc.num_triangles)
    # the coupling slots run_experiment sets up for the default variants
    slots = [spec for spec in diffusion.VARIANTS.values()
             if (spec.uses_lower_term or spec.uses_upper_term) and not spec.is_centralized]
    seed = np.random.SeedSequence(SEED)
    return (per_call_ms(lambda: model._assemble(prec.k, prec._blocks)),
            per_call_ms(lambda: diffusion._setup_run(config, sc, seed, slots, True)))


def _conditional(inc, params, queries) -> tuple[float, float, int]:
    """Median seconds per query, whole and of its separation alone; separated queries."""
    import cmrf
    from cmrf import independence

    def answer(prec, graph):
        separated = 0
        for query in queries:
            if independence.is_graph_separated(graph, query):
                separated += 1
                report = independence.verify_conditional_independence(prec, graph, query)
                if not report.passed:
                    raise SystemExit(f"conditional check failed: {report}")
        return separated

    # one freshly built model per timed run, built before the clock starts
    models = [(cmrf.build_precision(inc, params), cmrf.build_cmrf(inc, params))
              for _ in range(REPEATS + 1)]
    seconds = _median_time(lambda: answer(*models.pop()))

    def separate(graph):
        for query in queries:
            independence.is_graph_separated(graph, query)

    graphs = [cmrf.build_cmrf(inc, params) for _ in range(REPEATS)]
    separation_s = _median_time(lambda: separate(graphs.pop()))
    return seconds / len(queries), separation_s / len(queries), answer(*models.pop())


def _pair_stages(path: str, pairs: list) -> dict:
    """Median ms per pair call of each stage of ``cmrf verify PATH --set-a i --set-b j --json``."""
    from cmrf import cli, independence, model, simplicial

    cli._parser()  # the parser main builds once per process is built before the clock
    sc, params = model.load_model(path)
    inc = simplicial.incidence(sc)
    prec = model.build_precision(inc, params)
    graphs = iter([model.build_cmrf(inc, params) for _ in range(REPEATS * len(pairs))])
    stages = {
        "parser": lambda i, j: cli._parser().parse_args(
            ["verify", path, "--set-a", str(i), "--set-b", str(j), "--json"]),
        "load_model": lambda i, j: model.load_model(path),
        "incidence": lambda i, j: simplicial.incidence(sc),
        "build_precision": lambda i, j: model.build_precision(inc, params),
        "build_cmrf": lambda i, j: model.build_cmrf(inc, params),
        "separation": lambda i, j: independence.is_color_separated(next(graphs), [i], [j]),
        "report": lambda i, j: independence._report(
            "marginal", independence.MARGINAL_RTOL, prec,
            independence.SeparationQuery((i,), (j,))),
    }

    def calls(stage):
        for i, j in pairs:  # each result dropped, as a command drops it
            stage(i, j)

    return {name: 1e3 * _median_time(lambda: calls(stage)) / len(pairs)
            for name, stage in stages.items()}


def measure() -> dict:
    """Measurements of the cmrf importable in this process, one entry per scale."""
    import numpy as np

    import cmrf
    from cmrf import cli, independence

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import make_queries

    out = {}
    for nv, ne, nt in SCALES:
        sc = cmrf.random_2sc(nv, None, nt, seed=SEED, num_edges=ne,
                             require_trivial_homology=ne == 21)
        inc = cmrf.incidence(sc)
        params = cmrf.draw_params(inc, SEED, sparsity=SPARSITY)
        prec = cmrf.build_precision(inc, params)
        graph = cmrf.build_cmrf(inc, params)
        pairs = independence.color_separated_singleton_pairs(graph)
        order = np.random.default_rng(0).permutation(len(pairs))[:SAMPLE]
        sample = [pairs[n] for n in order]

        def loop():
            # a new precision object per call, without Hodge blocks or a
            # kept covariance, so that every call inverts omega
            for i, j in sample:
                independence.verify_marginal_independence(
                    dataclasses.replace(prec), graph, [i], [j])

        loop_s = _median_time(loop) / len(sample)
        entry = {"num_pairs": len(pairs), "sample_pairs": len(sample),
                 "loop_ms_per_pair": 1e3 * loop_s}
        copies = [dataclasses.replace(prec) for _ in range(REPEATS)]
        scan_s = _median_time(lambda: independence.scan_singleton_pairs(copies.pop(), graph))
        entry["scan_s"] = scan_s
        entry["scan_ms_per_pair"] = 1e3 * scan_s / len(pairs)
        with tempfile.TemporaryDirectory() as tmp:
            cmrf.save_complex(sc, Path(tmp) / "complex.json")
            cmrf.save_model(params, "complex.json", Path(tmp) / "model.json")
            path = str(Path(tmp) / "model.json")

            def command(*argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["verify", path, *argv, "--json"])
                if code != 0:
                    raise SystemExit(f"cmrf verify {path} {' '.join(argv)} exited {code}")

            entry["cli_scan_s"] = (_median_time(lambda: command("--scan-singletons"))
                                   if scan_s < CLI_LIMIT_S else None)
            order = np.random.default_rng(PAIR_SEED).permutation(len(pairs))[:PAIR_SAMPLE]
            pair_sample = [pairs[n] for n in order]

            def pair_commands():
                for i, j in pair_sample:
                    command("--set-a", str(i), "--set-b", str(j))

            entry["cli_pair_ms"] = (1e3 * _median_time(pair_commands) / len(pair_sample)
                                    if pair_sample else None)
            entry["pair_stages_ms"] = _pair_stages(path, pair_sample) if pair_sample else None
        entry["build_cmrf_ms"] = 1e3 * _median_time(lambda: cmrf.build_cmrf(inc, params))
        entry["find_cancellations_ms"] = 1e3 * _median_time(
            lambda: cmrf.find_cancellations(inc, params))
        entry["assemble_ms"], entry["setup_run_ms"] = _assembly_and_setup(sc, prec)
        queries = [q for _, q in make_queries(graph, np.random.default_rng([SEED, 0]),
                                              QUERIES)]
        per_query_s, separation_s, separated = _conditional(inc, params, queries)
        entry["conditional_queries"] = len(queries)
        entry["conditional_separated"] = separated
        entry["conditional_ms_per_query"] = 1e3 * per_query_s
        entry["separation_us_per_query"] = 1e6 * separation_s
        out[f"{nv}/{ne}/{nt}"] = entry
    return out


def run_side(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, "--measure"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _smaller(first, second):
    """Field by field, nested ones too, the smaller of two readings of one side."""
    if isinstance(first, dict):
        return {name: _smaller(value, second[name]) for name, value in first.items()}
    return None if first is None else min(first, second)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, help="checkout of the earlier commit")
    parser.add_argument("-o", "--out", type=Path, help="JSON file to write")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.before is None or args.out is None:
        parser.error("--before and --out are required")

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import machine

    readings = {"before": [], "after": []}
    for side in ("before", "after", "after", "before"):
        readings[side].append(run_side(args.before.resolve() if side == "before" else ROOT))
    before, after = (_smaller(*readings[side]) for side in ("before", "after"))
    scales = {}
    for name, old in before.items():
        new = after[name]
        scales[name] = {
            "num_pairs": new["num_pairs"],
            "before": old,
            "after": new,
            "before_scan_s_estimate": old["loop_ms_per_pair"] * old["num_pairs"] / 1e3,
            "speedup_per_pair": (old["loop_ms_per_pair"] / new["scan_ms_per_pair"]
                                 if new["num_pairs"] else None),
            "conditional_speedup": (old["conditional_ms_per_query"]
                                    / new["conditional_ms_per_query"]),
            "separation_speedup": (old["separation_us_per_query"]
                                   / new["separation_us_per_query"]),
            "cli_pair_speedup": (old["cli_pair_ms"] / new["cli_pair_ms"]
                                 if new["num_pairs"] else None),
        }
    doc = {
        "what": "cmrf verify: singleton scan (per-pair loop against one-inversion scan), "
                "pair commands and their stages, graph and cancellation builds, "
                "conditional queries and their separation decisions, the assembly of omega "
                "and one simulator run's set-up on one model",
        "models": f"random_2sc(V, None, T, seed={SEED}, num_edges=E), "
                  f"draw_params(..., {SEED}, sparsity={SPARSITY})",
        "repeats": REPEATS,
        "machine": machine(),
        "scales": scales,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
