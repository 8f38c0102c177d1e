"""Time cmrf's three tasks before and after a change: building the model, checking separation against independence, and simulating ATC estimation.

    OPENBLAS_NUM_THREADS=1 python scripts/bench.py --before OLD_CHECKOUT -o OUT.json

OLD_CHECKOUT is an unpacked copy of an earlier commit (``git archive
COMMIT | tar -x -C DIR``); "after" is the checkout holding this script.
Each reading comes from a child process that imports cmrf from one side's
``src/``.  The complexes, ``random_2sc(V, None, T, seed=5, num_edges=E)``
with trivial homology required only at 10/21/12, are written once by the
after side and read by both.  Per scale (10/21/12, 30/120/60, 60/400/200):

* ``scales``, per side, on the model ``draw_params(inc, 5, sparsity=0.5)``:
  in-process ``cmrf verify --scan-singletons --json`` (``cli_scan_s``)
  and without ``--json`` (``cli_scan_text_s``; their difference, before
  and after, is ``scan_json_s``),
  ``--set-a i --set-b j`` calls on color-separated pairs (``cli_pair_ms``,
  as the benchmark's ``marginal_checks_per_s``; ``pair_stages_ms`` times
  each stage alone), ``build_cmrf``, ``find_cancellations`` and one
  ``model._assemble`` of omega, omega_d and omega_u; and the benchmark's
  conditional query mix (perfbench/run.py ``make_queries``) on a fresh
  model, whole (``conditional_ms_per_query``) and its separation alone
  (``separation_us_per_query``), first-use structures inside the time.
* ``setup``: the simulator's per-run set-up stages, each timed once per
  model ``draw_params(inc, seed)``, seed < ``SETUP_MODELS``: ``min_valid_k``,
  ``build_precision``, ``noise_factor`` (``covariance_cholesky``) and the
  whole ``diffusion._setup_run``; ms as [q1, median, q3] per side.
* ``generate``: the 16 complexes of one sim-paper input set,
  ``random_2sc(10, None, 12, seed * 1000 + i, num_edges=21)`` for i < 16
  (perfbench/workloads.py ``model_seed``), timed as one call per run seed
  in ``GENERATE_SEEDS``; seconds per set as [q1, median, q3] per side,
  and whether both sides drew the same complexes.
* ``simulate``: ``cmrf simulate --complex-file C --seed 1 --runs 2
  --iterations 100``, in process, seconds as [q1, median, q3] per side;
  whether both sides wrote the same CSV bytes, and the largest relative
  difference of msd_mean, of msd_std and of msd_std against msd_mean.
* ``kernel``, after side only, at the default BLAS threads and at one:
  one round's combine step (3 combining variants, m = 10) with the dense
  uniform weights and with ``diffusion._IncidenceCombine``, their largest
  relative difference and whether ``diffusion._factored`` picks the
  factored path; also at the shapes about the size rule: 45/200/100, two
  sparse probes (E/V of 2 and 3), 50/300/100 and 45/350/180 about the
  couplings' edge floor, and K18 with 300 and with all 816 triangles
  filled (T about 2E and 5.3E).
* ``couplings``, after side only, on the same shapes and settings: one
  round's coupled products (atc_cmrf, atc_lgmrf and centralized_cmrf's
  residual) for g runs, g in ``GROUPS``, on models
  ``draw_params(inc, seed)``, seed < g, through the dense coupling slots
  in the simulator's layout (``diffusion._slots`` and
  ``diffusion._DenseCouplings``) and through the incidence
  (``diffusion._IncidenceCouplings``), with their largest relative
  difference and whether ``diffusion._factored`` picks the factored path.

There are ``ROUNDS`` rounds of one child per side at one BLAS thread, the
side that runs first alternating, so slow drift of the machine hits both.
Only children that import cmrf from this checkout (the after side)
measure the kernels.  Each round ends with one more after-side child at
the default threads that measures only the kernels, for their
``default_threads`` readings.  A figure is the median over rounds of each
child's median of ``REPEATS`` calls;
``setup``, ``generate`` and ``simulate`` pool every timed call.  The output also holds
the machine record of perfbench/run.py and the run's wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 5
SPARSITY = 0.5
SCALES = [(10, 21, 12), (30, 120, 60), (60, 400, 200)]
KERNEL_SHAPES = [*SCALES, (45, 200, 100), (200, 400, 10), (150, 450, 50), (50, 300, 100),
                 (45, 350, 180), (18, 153, 300), (18, 153, 816)]
GROUPS = (1, 2)
COUPLED = ("atc_cmrf", "atc_lgmrf", "centralized_cmrf")
ROUNDS = 4
REPEATS = 5
PAIR_SAMPLE = 20
PAIR_SEED = 1
QUERIES = 200
LOOPS = 20
DIM = 10
COMBINING = 3
SIM_RUNS, SIM_ITERATIONS = 2, 100
SIM_ARGS = ["--seed", "1", "--runs", str(SIM_RUNS), "--iterations", str(SIM_ITERATIONS)]
SETUP_MODELS = 5
GENERATE_SEEDS = (7, 11, 24199, 65)
SETUP_STAGES = ("min_valid_k", "build_precision", "noise_factor", "setup_run")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("before", "after")


def _name(shape) -> str:
    return "/".join(map(str, shape))


def _file(directory: Path, name: str, suffix: str) -> Path:
    return directory / f"{name.replace('/', '-')}{suffix}"


def _times(fn) -> list[float]:
    """Seconds of each of ``REPEATS`` calls of ``fn``."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _median_time(fn) -> float:
    return statistics.median(_times(fn))


def _cli(*argv: str) -> None:
    """One in-process ``cmrf`` command, its output dropped; it must exit 0."""
    from cmrf import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"cmrf {' '.join(argv)} exited {code}")


def write_complexes(inputs: Path) -> None:
    """The complex of every scale and probe, as ``inputs/V-E-T.json``."""
    import cmrf

    for nv, ne, nt in dict.fromkeys(SCALES + KERNEL_SHAPES):
        sc = cmrf.random_2sc(nv, None, nt, seed=SEED, num_edges=ne,
                             require_trivial_homology=ne == 21)
        cmrf.save_complex(sc, _file(inputs, _name((nv, ne, nt)), ".json"))


def _conditional(inc, params, queries) -> tuple[float, float, int]:
    """Median seconds per query, whole and of its separation alone; separated queries."""
    from cmrf import build_cmrf, build_precision, independence

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
    models = [(build_precision(inc, params), build_cmrf(inc, params))
              for _ in range(REPEATS + 1)]
    seconds = _median_time(lambda: answer(*models.pop()))

    def separate(graph):
        for query in queries:
            independence.is_graph_separated(graph, query)

    graphs = [build_cmrf(inc, params) for _ in range(REPEATS)]
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


def _verify(sc, complex_path: Path, model_path: Path) -> dict:
    """The ``scales`` readings of one scale."""
    import cmrf
    from cmrf import independence, model
    from run import make_queries

    inc = cmrf.incidence(sc)
    params = cmrf.draw_params(inc, SEED, sparsity=SPARSITY)
    cmrf.save_model(params, str(complex_path), model_path)
    path = str(model_path)
    prec = cmrf.build_precision(inc, params)
    graph = cmrf.build_cmrf(inc, params)
    pairs = independence.color_separated_singleton_pairs(graph)
    order = np.random.default_rng(PAIR_SEED).permutation(len(pairs))[:PAIR_SAMPLE]
    sample = [pairs[n] for n in order]

    def pair_commands():
        for i, j in sample:
            _cli("verify", path, "--set-a", str(i), "--set-b", str(j), "--json")

    queries = [q for _, q in make_queries(graph, np.random.default_rng([SEED, 0]), QUERIES)]
    per_query_s, separation_s, separated = _conditional(inc, params, queries)
    return {
        "num_pairs": len(pairs),
        "cli_scan_s": _median_time(lambda: _cli("verify", path, "--scan-singletons", "--json")),
        "cli_scan_text_s": _median_time(lambda: _cli("verify", path, "--scan-singletons")),
        "cli_pair_ms": 1e3 * _median_time(pair_commands) / len(sample) if sample else None,
        "pair_stages_ms": _pair_stages(path, sample) if sample else None,
        "build_cmrf_ms": 1e3 * _median_time(lambda: cmrf.build_cmrf(inc, params)),
        "find_cancellations_ms": 1e3 * _median_time(lambda: cmrf.find_cancellations(inc, params)),
        "assemble_ms": 1e3 * _median_time(
            lambda: [model._assemble(prec.k, prec._blocks) for _ in range(LOOPS)]) / LOOPS,
        "conditional_queries": len(queries),
        "conditional_separated": separated,
        "conditional_ms_per_query": 1e3 * per_query_s,
        "separation_us_per_query": 1e6 * separation_s,
    }


def _setup(sc) -> dict:
    """Milliseconds of each per-run set-up stage, one entry per model."""
    import cmrf
    from cmrf import diffusion

    config = diffusion.ExperimentConfig()
    # the coupling slots run_experiment sets up for the default variants
    slots = [s for s in diffusion.VARIANTS.values()
             if (s.uses_lower_term or s.uses_upper_term) and not s.is_centralized]
    inc = cmrf.incidence(sc)
    times = {stage: [] for stage in SETUP_STAGES}
    for seed in range(SETUP_MODELS):
        params = cmrf.draw_params(inc, seed)
        prec = cmrf.build_precision(inc, params)
        run_seed = np.random.SeedSequence(seed)
        for stage, fn in [
            ("min_valid_k", lambda: cmrf.min_valid_k(inc, params.d_v, params.d_t)),
            ("build_precision", lambda: cmrf.build_precision(inc, params)),
            ("noise_factor", lambda: cmrf.covariance_cholesky(prec)),
            ("setup_run", lambda: diffusion._setup_run(config, sc, run_seed, slots, True)),
        ]:
            start = time.perf_counter()
            fn()
            times[stage].append(1e3 * (time.perf_counter() - start))
    return times


def _generate() -> dict:
    """Seconds to draw each run seed's sim-paper complexes, and a digest of them all."""
    import cmrf
    import workloads

    w = workloads.WORKLOADS["sim-paper"]
    seconds, digest = [], hashlib.sha256()
    for seed in GENERATE_SEEDS:
        start = time.perf_counter()
        complexes = [cmrf.random_2sc(w.vertices, None, w.triangles, workloads.model_seed(seed, i),
                                     num_edges=w.edges)
                     for i in range(w.models)]
        seconds.append(time.perf_counter() - start)
        for sc in complexes:
            digest.update(repr((sc.vertices, sc.edges, sc.triangles)).encode())
    return {"seconds": seconds, "digest": digest.hexdigest()}


def _per_call_us(fn, ne: int) -> float:
    calls = max(20, 400_000 // (ne * ne))
    return 1e6 * _median_time(lambda: [fn() for _ in range(calls)]) / calls


def _kernel(sc) -> dict:
    """One round's combine step, dense against factored, in microseconds."""
    from cmrf import combination_weights, diffusion, incidence, line_graph

    ne = sc.num_edges
    dense = combination_weights(line_graph(sc), "uniform")
    factored = diffusion._IncidenceCombine.of(np.abs(incidence(sc).b1).astype(float))
    # the combining variants' slice of a (1, 5, E, m) state, as in _round
    psi = np.random.default_rng(0).standard_normal((1, 5, ne, DIM))[:, :COMBINING]
    want, got = dense @ psi, factored @ psi
    return {
        "dense_us": _per_call_us(lambda: dense @ psi, ne),
        "factored_us": _per_call_us(lambda: factored @ psi, ne),
        "max_rel_diff": float(np.abs(got - want).max() / np.abs(want).max()),
        "factored_by_rule": diffusion._factored(ne, sc.num_vertices,
                                                diffusion._COMBINE_MIN_EDGES),
    }


def _couplings(sc) -> dict:
    """One round's coupled products, dense slots against factored, in microseconds."""
    from cmrf import build_precision, coupling_matrix, diffusion, draw_params, incidence

    ne = sc.num_edges
    inc = incidence(sc)
    specs = [diffusion.VARIANTS[name] for name in COUPLED]
    slots = diffusion._slots(specs)
    doc = {"factored_by_rule": diffusion._factored_couplings(sc)}
    for g in GROUPS:
        params = [draw_params(inc, seed) for seed in range(g)]
        precs = [build_precision(inc, p) for p in params]
        mats = np.stack([[coupling_matrix(prec, s) for s in slots] for prec in precs])
        dense = diffusion._DenseCouplings.of(mats, slots, central=True)
        factored = diffusion._IncidenceCouplings.of(
            (inc.b1.astype(float), inc.b2.astype(float)),
            np.array([p.k for p in params])[:, None, None],
            [(p.d_v, p.d_t) for p in params], specs)
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((g, len(specs) - 1, ne)), rng.standard_normal((g, ne))
        want, got = dense(*rows), factored(*rows)
        doc[f"g{g}"] = {
            "dense_us": _per_call_us(lambda: dense(*rows), ne),
            "factored_us": _per_call_us(lambda: factored(*rows), ne),
            "max_rel_diff": max(float(np.abs(b - a).max() / np.abs(a).max())
                                for a, b in zip(want, got)),
        }
    return doc


def measure(inputs: Path, out: Path | None = None) -> dict:
    """Every reading of the cmrf importable in this process; files it writes go to ``out``.

    The kernel readings use this checkout's private kernels, so only a
    cmrf imported from this checkout takes them.  Without ``out`` only the
    kernels are measured.
    """
    import cmrf

    sys.path.insert(0, str(ROOT / "perfbench"))  # for make_queries and workloads
    doc = {"scales": {}, "setup": {}, "generate": _generate() if out else {}, "simulate": {},
           "kernel": {}, "couplings": {}}
    for name in map(_name, SCALES if out else []):
        complex_path = _file(inputs, name, ".json")
        sc = cmrf.load_complex(complex_path)
        doc["scales"][name] = _verify(sc, complex_path, _file(out, name, "-model.json"))
        doc["setup"][name] = _setup(sc)
        argv = ["simulate", "--complex-file", str(complex_path), *SIM_ARGS,
                "-o", str(_file(out, name, ".csv"))]
        doc["simulate"][name] = _times(lambda: _cli(*argv))
    kernels = Path(cmrf.__file__).resolve().is_relative_to(ROOT / "src")
    for name in map(_name, KERNEL_SHAPES if kernels else []):
        sc = cmrf.load_complex(_file(inputs, name, ".json"))
        doc["kernel"][name] = _kernel(sc)
        doc["couplings"][name] = _couplings(sc)
    return doc


def _child(checkout: Path, inputs: Path, out: Path | None, env: dict) -> dict:
    """One child's readings; without ``out`` it measures only the kernels."""
    paths = [inputs]
    if out:
        out.mkdir(exist_ok=True)
        paths.append(out)
    proc = subprocess.run([sys.executable, __file__, "--measure", *map(str, paths)],
                          env=dict(env, PYTHONPATH=str(checkout / "src")),
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def _median(readings: list):
    """Field by field, the median of one side's readings; counts and flags are kept as read."""
    first = readings[0]
    if isinstance(first, dict):
        return {name: _median([r[name] for r in readings]) for name in first}
    return statistics.median(readings) if isinstance(first, float) else first


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4)


def _max_rel_diff(before: Path, after: Path) -> dict:
    """Largest relative difference per CSV column, and of msd_std against msd_mean."""
    old, new = (np.loadtxt(p, delimiter=",", skiprows=1, usecols=(2, 3)) for p in (before, after))
    rel = (np.abs(new - old) / np.abs(old)).max(axis=0)
    return {"msd_mean": float(rel[0]), "msd_std": float(rel[1]),
            "msd_std_vs_mean": float((np.abs(new[:, 1] - old[:, 1]) / old[:, 0]).max())}


def report(readings: dict, default: dict, outs: dict) -> dict:
    """The output sections from each side's child readings; ``outs`` holds each side's files.

    ``default`` is the median reading of the after-side children at the
    default threads.
    """
    scales, setup, simulate = {}, {}, {}
    before, after = (_median(readings[side]) for side in SIDES)
    for name in map(_name, SCALES):
        old, new = before["scales"][name], after["scales"][name]
        scales[name] = {"num_pairs": new["num_pairs"], "before": old, "after": new}
        for speedup, field in (("conditional", "conditional_ms_per_query"),
                               ("separation", "separation_us_per_query"),
                               ("cli_pair", "cli_pair_ms"), ("cli_scan", "cli_scan_s")):
            scales[name][f"{speedup}_speedup"] = old[field] / new[field] if new[field] else None
        scales[name]["scan_json_s"] = [r["cli_scan_s"] - r["cli_scan_text_s"] for r in (old, new)]
        setup[name] = {
            stage: {f"{side}_ms": _quartiles([ms for r in readings[side]
                                               for ms in r["setup"][name][stage]])
                    for side in SIDES}
            for stage in SETUP_STAGES
        }
        old, new = ([t for r in readings[side] for t in r["simulate"][name]] for side in SIDES)
        csv = {side: _file(outs[side], name, ".csv") for side in SIDES}
        simulate[name] = {
            "before_s": _quartiles(old),
            "after_s": _quartiles(new),
            "speedup": statistics.median(old) / statistics.median(new),
            "mc_rounds_per_s": [SIM_RUNS * SIM_ITERATIONS / statistics.median(t)
                                for t in (old, new)],
            "csv_identical": csv["before"].read_bytes() == csv["after"].read_bytes(),
            "max_rel_diff": _max_rel_diff(csv["before"], csv["after"]),
        }
    old, new = ([t for r in readings[side] for t in r["generate"]["seconds"]] for side in SIDES)
    generate = {
        "before_s": _quartiles(old),
        "after_s": _quartiles(new),
        "speedup": statistics.median(old) / statistics.median(new),
        "complexes_identical": len({r["generate"]["digest"]
                                    for side in SIDES for r in readings[side]}) == 1,
    }
    kernels = {section: {"default_threads": default[section], "one_thread": after[section]}
               for section in ("kernel", "couplings")}
    return {"scales": scales, "setup": setup, "generate": generate, "simulate": simulate,
            **kernels}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, help="checkout of the earlier commit")
    parser.add_argument("-o", "--out", type=Path, help="JSON file to write")
    parser.add_argument("--measure", nargs="+", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(*args.measure)))
        return 0
    if args.before is None or args.out is None:
        parser.error("--before and --out are required")

    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import machine

    one_thread = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    default = {name: value for name, value in os.environ.items() if name not in THREAD_VARS}
    checkouts = {"before": args.before.resolve(), "after": ROOT}
    readings, defaults = {side: [] for side in SIDES}, []
    with tempfile.TemporaryDirectory() as tmp:
        inputs, outs = Path(tmp) / "inputs", {side: Path(tmp) / side for side in SIDES}
        inputs.mkdir()
        write_complexes(inputs)
        for r in range(ROUNDS):
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                readings[side].append(_child(checkouts[side], inputs, outs[side], one_thread))
            defaults.append(_child(ROOT, inputs, None, default))
        sections = report(readings, _median(defaults), outs)

    doc = {
        "what": "cmrf's three tasks before and after (see scripts/bench.py), and the "
                "after side's combine step and coupled products, dense against factored",
        "complexes": f"random_2sc(V, None, T, seed={SEED}, num_edges=E)",
        "models": f"scales: draw_params(inc, {SEED}, sparsity={SPARSITY}); "
                  f"setup: draw_params(inc, seed) for seed in range({SETUP_MODELS})",
        "kernel_shape": f"one run, {COMBINING} combining variants, m = {DIM}; "
                        "microseconds per round",
        "couplings_shape": f"g runs, the coupled rows of {', '.join(COUPLED)}; "
                           "microseconds per round",
        "generate_complexes": "random_2sc(10, None, 12, seed * 1000 + i, num_edges=21), "
                              f"i < 16, seed in {list(GENERATE_SEEDS)}; "
                              "seconds per seed as [q1, median, q3]",
        "simulate_command": "cmrf simulate --complex-file C " + " ".join(SIM_ARGS)
                            + "; seconds as [q1, median, q3]",
        "rounds": ROUNDS, "repeats": REPEATS,
        "machine": machine(),
        **sections,
        "wall_s": time.perf_counter() - start,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
