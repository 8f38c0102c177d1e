"""Time the simulator's combine step, dense against factored, and a simulate command and its per-run set-up before and after a change.

    python scripts/bench_combine.py --before OLD_CHECKOUT -o OUT.json

OLD_CHECKOUT is an unpacked copy of an earlier commit (``git archive
COMMIT | tar -x -C DIR``); "after" is the checkout holding this script.
Complexes are fixed: ``random_2sc(V, None, T, seed=5, num_edges=E)``,
with trivial homology required only at 10/21/12, where it is feasible.

The script records:

* ``kernel``: per scale and BLAS thread setting (the library default and
  ``OPENBLAS_NUM_THREADS=1``), the time of one round's combine step for
  3 combining variants with m = 10, as ``_atc_step`` applies it to one
  run: the dense uniform weights ``combination_weights(line_graph(sc))``
  against ``diffusion._IncidenceCombine``, the largest difference
  between the two relative to the largest entry, and whether
  ``diffusion._factored`` picks the factored path there.  Besides the
  four scales of the simulator (10/21/12, 30/120/60, 45/200/100 and
  60/400/200) it times two sparse probes (E/V of 2 and 3) for the
  edges-per-vertex part of the rule.  This part needs the after side.
* ``simulate``: per scale, ``cmrf simulate --complex-file C --seed 1
  --runs 2 --iterations 100`` with all five variants, in process at
  the default BLAS threads, as the benchmark's sim workloads run it.
  Each side runs in its own Python process that imports cmrf from that
  side's ``src/``.  There are ``ROUNDS`` rounds of ``REPEATS`` timed
  commands per side, and the side that runs first alternates, so slow
  drift of the machine hits both.  It
  also reports whether the two sides wrote the same CSV bytes, the
  largest relative difference of their msd_mean and of their msd_std
  columns, and the largest change of msd_std relative to msd_mean (the
  std of few runs cancels where the runs agree, which inflates its
  relative difference).
* ``setup``: per scale, the per-run set-up stages of the simulator, in
  the same child processes and rounds as ``simulate``: ``min_valid_k``,
  ``build_precision``, the noise factor and the whole
  ``diffusion._setup_run``, each timed once per model for
  ``SETUP_MODELS`` models ``draw_params(inc, seed)`` with seeds 0, 1, ...
  on the scale's complex, in milliseconds as [q1, median, q3].  The
  noise factor is ``covariance_cholesky`` of a precision built before
  the clock starts, which reads the precision's Hodge blocks where the
  side keeps them and inverts omega where it does not.  Where a run
  builds its model with the public ``draw_params``, ``build_precision``
  and ``covariance_cholesky``, the first three stages are the steps of
  ``setup_run``.

Times are medians.  The output also holds the machine record of the
benchmark runner (perfbench/run.py).
"""

from __future__ import annotations

import argparse
import contextlib
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
SEED = 5
SCALES = [(10, 21, 12), (30, 120, 60), (45, 200, 100), (60, 400, 200)]
PROBES = [(200, 400, 10), (150, 450, 50)]
SIM_SCALES = [(10, 21, 12), (30, 120, 60), (60, 400, 200)]
DIM = 10
COMBINING = 3
ROUNDS = 6
REPEATS = 5
SIM_RUNS, SIM_ITERATIONS = 2, 100
SIM_ARGS = ["--seed", "1", "--runs", str(SIM_RUNS), "--iterations", str(SIM_ITERATIONS)]
SETUP_MODELS = 5
SETUP_STAGES = ("min_valid_k", "build_precision", "noise_factor", "setup_run")


def _complex(nv: int, ne: int, nt: int):
    import cmrf

    return cmrf.random_2sc(nv, None, nt, seed=SEED, num_edges=ne,
                           require_trivial_homology=ne == 21)


def _median_us(fn, calls: int) -> float:
    times = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(times)


def measure_kernel() -> dict:
    """Combine-step timings of the cmrf importable in this process."""
    import numpy as np

    import cmrf
    from cmrf import diffusion

    out = {}
    for nv, ne, nt in SCALES + PROBES:
        sc = _complex(nv, ne, nt)
        dense = cmrf.combination_weights(cmrf.line_graph(sc), "uniform")
        factored = diffusion._IncidenceCombine.of(diffusion._unsigned(cmrf.incidence(sc)))
        # the combining variants' slice of a (1, 5, E, m) state, as in _atc_step
        psi = np.random.default_rng(0).standard_normal((1, 5, ne, DIM))[:, :COMBINING]
        calls = max(20, 400_000 // (ne * ne))
        want, got = dense @ psi, factored @ psi
        out[f"{nv}/{ne}/{nt}"] = {
            "dense_us": _median_us(lambda: dense @ psi, calls),
            "factored_us": _median_us(lambda: factored @ psi, calls),
            "max_rel_diff": float(np.abs(got - want).max() / np.abs(want).max()),
            "factored_by_rule": diffusion._factored("uniform", nv, ne),
        }
    return out


def measure_simulate(inputs: Path, outputs: Path) -> dict:
    """Median seconds of each scale's simulate command; CSVs go to ``outputs``."""
    from cmrf import cli

    out = {}
    for nv, ne, nt in SIM_SCALES:
        name = f"{nv}-{ne}-{nt}"
        argv = ["simulate", "--complex-file", str(inputs / f"{name}.json"), *SIM_ARGS,
                "-o", str(outputs / f"{name}.csv")]
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            times.append(time.perf_counter() - start)
            if code != 0:
                raise SystemExit(f"cmrf {' '.join(argv)} exited {code}")
        out[f"{nv}/{ne}/{nt}"] = times
    return out


def measure_setup() -> dict:
    """Milliseconds of each per-run set-up stage, per scale, one entry per model."""
    import numpy as np

    import cmrf
    from cmrf import diffusion

    config = diffusion.ExperimentConfig(seed=1, num_runs=SIM_RUNS,
                                        num_iterations=SIM_ITERATIONS)
    slots = [s for s in diffusion.VARIANTS.values()
             if (s.uses_lower_term or s.uses_upper_term) and not s.is_centralized]
    out = {}
    for nv, ne, nt in SIM_SCALES:
        sc = _complex(nv, ne, nt)
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
        out[f"{nv}/{ne}/{nt}"] = times
    return out


def _child(checkout: Path, args: list[str], env: dict | None = None) -> dict:
    env = dict(os.environ if env is None else env, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, __file__, *args],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _csv_columns(path: Path) -> list[list[float]]:
    rows = path.read_text().splitlines()[1:]
    return [[float(x) for x in row.split(",")[2:]] for row in rows]


def _max_rel_diff(before: Path, after: Path) -> dict:
    """Largest relative difference per CSV column, and of msd_std against msd_mean."""
    import numpy as np

    old, new = np.array(_csv_columns(before)), np.array(_csv_columns(after))
    rel = (np.abs(new - old) / np.abs(old)).max(axis=0)
    return {"msd_mean": float(rel[0]), "msd_std": float(rel[1]),
            "msd_std_vs_mean": float((np.abs(new[:, 1] - old[:, 1]) / old[:, 0]).max())}


def _quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, help="checkout of the earlier commit")
    parser.add_argument("-o", "--out", type=Path, help="JSON file to write")
    parser.add_argument("--kernel", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--simulate", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.kernel:
        print(json.dumps(measure_kernel()))
        return 0
    if args.simulate:
        print(json.dumps({"simulate": measure_simulate(*args.simulate),
                          "setup": measure_setup()}))
        return 0
    if args.before is None or args.out is None:
        parser.error("--before and --out are required")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cmrf
    from run import machine

    single = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    kernel = {
        "default_threads": _child(ROOT, ["--kernel"]),
        "one_thread": _child(ROOT, ["--kernel"], dict(os.environ, **single)),
    }

    before_side, after_side = args.before.resolve(), ROOT
    times = {"before": {}, "after": {}}
    stages = {"before": {}, "after": {}}
    simulate, setup = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for side in ("inputs", "before", "after"):
            (tmp / side).mkdir()
        for nv, ne, nt in SIM_SCALES:
            cmrf.save_complex(_complex(nv, ne, nt), tmp / "inputs" / f"{nv}-{ne}-{nt}.json")
        sides = [("before", before_side), ("after", after_side)]
        for r in range(ROUNDS):
            for side, checkout in sides if r % 2 == 0 else sides[::-1]:
                got = _child(checkout, ["--simulate", str(tmp / "inputs"), str(tmp / side)])
                for scale, seconds in got["simulate"].items():
                    times[side].setdefault(scale, []).extend(seconds)
                for scale, per_stage in got["setup"].items():
                    for stage, ms in per_stage.items():
                        stages[side].setdefault(scale, {}).setdefault(stage, []).extend(ms)
        for nv, ne, nt in SIM_SCALES:
            scale, csv = f"{nv}/{ne}/{nt}", f"{nv}-{ne}-{nt}.csv"
            old, new = times["before"][scale], times["after"][scale]
            simulate[scale] = {
                "before_s": _quartiles(old),
                "after_s": _quartiles(new),
                "speedup": statistics.median(old) / statistics.median(new),
                "mc_rounds_per_s": [SIM_RUNS * SIM_ITERATIONS / statistics.median(t)
                                    for t in (old, new)],
                "csv_identical": (tmp / "before" / csv).read_bytes()
                == (tmp / "after" / csv).read_bytes(),
                "max_rel_diff": _max_rel_diff(tmp / "before" / csv, tmp / "after" / csv),
            }
            setup[scale] = {
                stage: {"before_ms": _quartiles(stages["before"][scale][stage]),
                        "after_ms": _quartiles(stages["after"][scale][stage])}
                for stage in SETUP_STAGES
            }

    doc = {
        "what": "diffusion combine step: dense uniform weights against the factored "
                "incidence operator, and a simulate command and its per-run set-up "
                "stages before and after",
        "complexes": f"random_2sc(V, None, T, seed={SEED}, num_edges=E)",
        "kernel_shape": f"one run, {COMBINING} combining variants, m = {DIM}; "
                        "microseconds per round",
        "simulate_command": "cmrf simulate --complex-file C " + " ".join(SIM_ARGS)
                            + "; seconds as [q1, median, q3]",
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "machine": machine(),
        "kernel": kernel,
        "simulate": simulate,
        "setup_models": f"draw_params(inc, seed) for seed in range({SETUP_MODELS})",
        "setup": setup,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
