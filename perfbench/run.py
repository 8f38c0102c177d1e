"""cmrf benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The seed fixes every input: the
complexes and models written by ``cmrf complex generate`` and ``cmrf
model build``, the conditional query batches and the simulate seed.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it records spans around every public cmrf function and
reports the per-layer metrics and the tracing overhead.  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
unit, the failed-operation share and the machine.  Spans, the result and
the machine record are also written under ``.perfbench_work/``.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import ROOT, Workload

WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120
# A traced phase runs a fixed number of blocks; this many times its
# untraced time share is the most it may take before it stops early.
TRACE_CAP = 3.0


@dataclass
class Tally:
    """Work done, busy seconds, operations attempted and failed."""

    work: int = 0
    seconds: float = 0.0
    ops: int = 0
    failed: int = 0

    def add(self, other: "Tally") -> None:
        self.work += other.work
        self.seconds += other.seconds
        self.ops += other.ops
        self.failed += other.failed


@dataclass
class PoolModel:
    path: Path
    prec: object
    graph: object
    pairs: list  # colour-separated singleton pairs, in seeded order
    queries: list  # (is_markov_blanket, SeparationQuery)


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = None
    with contextlib.suppress(TypeError, KeyError):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def make_queries(graph, rng, count: int) -> list:
    """Half Markov-blanket queries (a, b | N(a)), half random with |S| <= 3.

    A Markov-blanket query is always graph-separated.  A random query
    picks a != b and up to three other nodes as S; most of them end in
    "not separated".
    """
    from cmrf.independence import SeparationQuery

    n = graph.num_nodes
    neighbors = [set() for _ in range(n)]
    for i, j in graph.links:
        neighbors[i].add(j)
        neighbors[j].add(i)
    queries = []
    while len(queries) < count:
        a = int(rng.integers(n))
        if len(queries) % 2 == 0:
            outside = [b for b in range(n) if b != a and b not in neighbors[a]]
            if not outside:
                continue
            b = outside[int(rng.integers(len(outside)))]
            queries.append((True, SeparationQuery((a,), (b,), tuple(sorted(neighbors[a])))))
        else:
            b = int(rng.integers(n - 1))
            b += b >= a
            others = [x for x in range(n) if x not in (a, b)]
            given = rng.choice(others, size=int(rng.integers(4)), replace=False)
            queries.append((False, SeparationQuery((a,), (b,), tuple(sorted(int(x) for x in given)))))
    return queries


class Run:
    def __init__(self, w: Workload, seed: int, seconds: float, traced: bool, run_dir: Path):
        import numpy as np
        from cmrf import cli, independence, model, simplicial

        self.np = np
        self.cli_module = cli
        self.independence = independence
        self.model = model
        self.simplicial = simplicial
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.tracer = None
        if traced:
            from spans import Tracer

            self.tracer = Tracer()
        self.tally = Tally()
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.pool: list[PoolModel] = []
        self.random_separated = [0, 0]  # separated, answered (random half)
        self.blocks: dict[str, list] = {}  # phase -> (start offset, work, seconds)
        self.setup_times: list[float] = []

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"problem: {text}", file=sys.stderr)

    def cli(self, argv: list[str]) -> tuple[int | None, str, float]:
        """Run one CLI command in-process; (exit code or None, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_module.main(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if code != 0:
            self.problem(f"cmrf {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return code, out.getvalue(), seconds

    @contextlib.contextmanager
    def recording(self, phase: str):
        if self.tracer is None:
            yield
        else:
            with self.tracer.recording(phase):
                yield

    def setup_children(self, smoke: bool) -> tuple[float, Path]:
        """Make the inputs in fresh processes; return the median time and a directory."""
        times, dirs = [], []
        for k in range(self.w.setups):
            out = self.run_dir / f"setup{k}"
            cmd = [sys.executable, str(ROOT / "perfbench" / "make_inputs.py"),
                   "--workload", self.w.name, "--seed", str(self.seed), "--out", str(out)]
            if smoke:
                cmd.append("--smoke")
            commands = 2 * self.w.models
            self.tally.ops += commands
            start = time.monotonic()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.tally.failed += commands
                self.problem(f"input maker took more than {CHILD_TIMEOUT_S} s")
                continue
            if proc.returncode != 0:
                self.tally.failed += min(max(proc.returncode, 1), commands)
                self.problem(f"input maker exited {proc.returncode}: {proc.stderr.strip()}")
                continue
            times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
            dirs.append(out)
        if not dirs:
            raise SystemExit("error: no input maker succeeded")
        self.setup_times = times
        reference = {p.name: p.read_bytes() for p in sorted(dirs[0].iterdir())}
        for other in dirs[1:]:
            if {p.name: p.read_bytes() for p in sorted(other.iterdir())} != reference:
                self.problem(f"inputs in {other} differ from {dirs[0]} for the same seed")
        return statistics.median(times), dirs[0]

    def setup_in_process(self) -> Path:
        """Make the inputs in this process (traced runs)."""
        out = self.run_dir / "setup0"
        with self.recording("setup"):
            codes = workloads.make_inputs(self.w, self.seed, out,
                                          lambda argv: self.cli(argv)[0])
        self.tally.ops += len(codes)
        self.tally.failed += sum(1 for c in codes if c != 0)
        return out

    def load_pool(self, inputs: Path) -> None:
        model, simplicial, independence = self.model, self.simplicial, self.independence
        with self.recording("setup"):
            for i in range(self.w.models):
                path = inputs / workloads.model_name(i)
                sc, params = model.load_model(path)
                inc = simplicial.incidence(sc)
                prec = model.build_precision(inc, params)
                graph = model.build_cmrf(inc, params)
                pairs = independence.color_separated_singleton_pairs(graph)
                rng = self.np.random.default_rng([self.seed, i])
                self.pool.append(PoolModel(
                    path=path, prec=prec, graph=graph,
                    pairs=[pairs[k] for k in rng.permutation(len(pairs))],
                    queries=make_queries(graph, rng, self.w.queries_per_model),
                ))
        self.marginal_pool = [m for m in self.pool[:self.w.marginal_models] if m.pairs]
        if not self.marginal_pool:
            raise SystemExit("error: no marginal model has a colour-separated singleton pair")
        self.complex_file = inputs / workloads.complex_name(0)

    def sim_block(self, index: int) -> Tally:
        """One `cmrf simulate` command on the first complex of the pool."""
        w = self.w
        csv = self.run_dir / "msd.csv"
        argv = ["simulate", "--complex-file", str(self.complex_file), "--seed", str(self.seed),
                "--runs", str(w.sim_runs), "--iterations", str(w.sim_iterations),
                "--dim", str(workloads.DIM), "--variants", workloads.VARIANTS,
                "--combine-rule", "uniform", "--threads", "1", "-o", str(csv), "--json"]
        code, _, seconds = self.cli(argv)
        ok = code == 0
        if ok:
            data = csv.read_bytes()
            self.digests.add(hashlib.sha256(data).hexdigest())
            if len(self.digests) > 1:
                self.problem("simulate CSV differs between repetitions of one seed")
            for row in data.decode().splitlines()[1:]:
                if not all(math.isfinite(float(x)) for x in row.split(",")[2:]):
                    ok = False
                    self.problem(f"non-finite MSD in {row!r}")
                    break
        return Tally(work=w.sim_runs * w.sim_iterations, seconds=seconds, ops=1,
                     failed=0 if ok else 1)

    def _cycle(self, models: list[PoolModel], one, index: int) -> Tally:
        """One block: ``one(model, index)`` for every model, in pool order."""
        tally = Tally()
        for m in models:
            tally.add(one(m, index))
        return tally

    def scan_block(self, index: int) -> Tally:
        return self._cycle(self.marginal_pool, self._scan, index)

    def pair_block(self, index: int) -> Tally:
        return self._cycle(self.marginal_pool, self._pair, index)

    def conditional_block(self, index: int) -> Tally:
        return self._cycle(self.pool, self._conditional, index)

    def _scan(self, m: PoolModel, index: int) -> Tally:
        """`cmrf verify --scan-singletons` on one model."""
        code, out, seconds = self.cli(["verify", str(m.path), "--scan-singletons", "--json"])
        if code is None:
            return Tally(seconds=seconds, ops=1 + len(m.pairs), failed=1 + len(m.pairs))
        payload = json.loads(out)
        pairs = payload["num_pairs"]
        if pairs != len(m.pairs):
            self.problem(f"scan of {m.path.name} checked {pairs} pairs, expected {len(m.pairs)}")
        ok = code == 0 and payload["passed"]
        # The scan reports only whether all of its checks passed.
        return Tally(work=pairs, seconds=seconds, ops=1 + pairs, failed=0 if ok else 1 + pairs)

    def _pair(self, m: PoolModel, index: int) -> Tally:
        """`cmrf verify --set-a i --set-b j` on the index-th pair of one model."""
        a, b = m.pairs[index % len(m.pairs)]
        code, out, seconds = self.cli(
            ["verify", str(m.path), "--set-a", str(a), "--set-b", str(b), "--json"])
        ok = code == 0 and json.loads(out)["passed"]
        return Tally(work=1, seconds=seconds, ops=2, failed=0 if ok else 2)

    def _conditional(self, m: PoolModel, index: int) -> Tally:
        """The index-th batch of conditional queries on one model.

        A query asks is_graph_separated and, when separated, checks the
        conditional cross-covariance.  A Markov-blanket query that is not
        separated, a failed check or an exception counts as failed.
        """
        independence = self.independence
        size = self.w.query_block
        first = index * size
        batch = [m.queries[(first + j) % len(m.queries)] for j in range(size)]
        failed = separated_random = 0
        start = time.perf_counter()
        for blanket, query in batch:
            try:
                if independence.is_graph_separated(m.graph, query):
                    separated_random += not blanket
                    report = independence.verify_conditional_independence(m.prec, m.graph, query)
                    failed += not report.passed
                elif blanket:
                    failed += 1
            except Exception:
                failed += 1
                print(traceback.format_exc(), file=sys.stderr)
        seconds = time.perf_counter() - start
        if failed:
            self.problem(f"{failed} conditional queries failed on {m.path.name}")
        self.random_separated[0] += separated_random
        self.random_separated[1] += sum(1 for blanket, _ in batch if not blanket)
        return Tally(work=size, seconds=seconds, ops=size, failed=failed)

    def phases(self):
        marginal = self.scan_block if self.w.marginal_mode == "scan" else self.pair_block
        return (("sim", self.sim_block), ("marginal", marginal),
                ("conditional", self.conditional_block))

    def measure(self) -> dict[str, float]:
        """Untraced: interleave the phases' blocks for the run's seconds.

        The next block always comes from the phase whose busy time is
        furthest below its share, so every phase samples the whole run.
        Returns each phase's work per busy second (README.md, "Noise").
        """
        phases = [(name, block, share)
                  for (name, block), share in zip(self.phases(), self.w.shares)]
        busy = dict.fromkeys((name for name, _, _ in phases), 0.0)
        blocks = self.blocks = {name: [] for name in busy}
        start = time.monotonic()
        while time.monotonic() - start < self.seconds or not all(blocks.values()):
            name, block, share = min(phases, key=lambda p: busy[p[0]] / p[2])
            at = time.monotonic() - start
            tally = block(len(blocks[name]))
            busy[name] += tally.seconds
            blocks[name].append((at, tally.work, tally.seconds))
            self.tally.ops += tally.ops
            self.tally.failed += tally.failed
        return {name: sum(w for _, w, _ in values) / sum(s for _, _, s in values)
                for name, values in blocks.items()}

    def measure_traced(self) -> dict[str, float]:
        """Traced: a fixed number of blocks per phase, each run untraced and traced.

        The untraced and traced twins of a block do the same work; their
        order alternates.  Returns the tracing overhead per phase as the
        traced time per unit of work over the untraced one, minus one.
        """
        overhead = {}
        for (phase, block), share, count in zip(self.phases(), self.w.shares,
                                                self.w.trace_blocks):
            plain, traced = Tally(), Tally()
            start = time.monotonic()
            for index in range(count):
                for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                    if with_trace:
                        with self.recording(phase):
                            traced.add(block(index))
                    else:
                        plain.add(block(index))
                if time.monotonic() - start > TRACE_CAP * share * self.seconds:
                    print(f"note: traced {phase} phase stopped after {index + 1} of "
                          f"{count} blocks", file=sys.stderr)
                    break
            for tally in (plain, traced):
                self.tally.ops += tally.ops
                self.tally.failed += tally.failed
            overhead[phase] = (traced.seconds * plain.work) / (plain.seconds * traced.work) - 1.0
        return overhead


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="paper-scale inputs and a few blocks, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    workloads.use_source_tree()
    from layers import layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    run_dir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    if args.trace:
        run = Run(w, args.seed, args.seconds, True, run_dir)
        run.load_pool(run.setup_in_process())
        values = layer_metrics(run.tracer, run.measure_traced())
        run.tracer.write(run_dir / "trace.jsonl")
    else:
        run = Run(w, args.seed, args.seconds, False, run_dir)
        setup_s, inputs = run.setup_children(args.smoke)
        run.load_pool(inputs)
        rates = run.measure()
        values = {
            "setup_s": setup_s,
            "mc_rounds_per_s": rates["sim"],
            "marginal_checks_per_s": rates["marginal"],
            "conditional_queries_per_s": rates["conditional"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    missing = set(units) - set(values)
    if missing:
        run.problem(f"metrics not computed: {sorted(missing)}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    attempted, failed = max(run.tally.ops, 1), run.tally.failed
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    host = machine()
    random_sep, random_total = run.random_separated
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(host))
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_op_share {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if random_total:
        print(f"random conditional queries separated: {random_sep / random_total:.3f}")
    (run_dir / "result.json").write_text(
        json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                    "machine": host, "result": result,
                    "setup_times": run.setup_times, "blocks": run.blocks}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
