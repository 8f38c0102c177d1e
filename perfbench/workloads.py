"""Workload definitions shared by the benchmark runner and its input maker.

A workload fixes the scale of its complexes (vertices, edges, triangles),
how many models one run draws from its seed, how large one simulate
command is, and how the run's measuring time is split between the three
phases (simulate, marginal checks, conditional queries).  Every phase
runs on every workload, so every metric exists on every workload; the
shares say which phase a workload is about.  README.md gives the reasons
for each choice.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SPARSITY = 0.5
DIM = 10
VARIANTS = "atc_cmrf,atc_lgmrf,atc_plain,standalone_lms,centralized_cmrf"


@dataclass(frozen=True)
class Workload:
    name: str
    vertices: int
    edges: int
    triangles: int
    allow_nontrivial_homology: bool
    # Models (complex + coefficients) drawn per run.  Per-check and
    # per-query cost depend on a model's link count, so a run averages
    # over several models instead of resting on one.
    models: int
    # The first this many models take part in the marginal phase.
    marginal_models: int
    sim_runs: int
    sim_iterations: int
    # A marginal block runs, for each marginal model, either
    # "scan": one `cmrf verify --scan-singletons`, or
    # "pair": one `cmrf verify --set-a i --set-b j`, for scales where a
    # full scan takes minutes.
    marginal_mode: str
    # A conditional block answers query_block queries on every model.
    queries_per_model: int
    query_block: int
    # Share of the busy time of an untraced run given to the simulate,
    # marginal and conditional phases.
    shares: tuple[float, float, float]
    # Fixed number of traced blocks per phase in a traced run, so that
    # per-layer totals describe the same work on every commit.
    trace_blocks: tuple[int, int, int]
    setups: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-paper",
            vertices=10, edges=21, triangles=12,
            allow_nontrivial_homology=False,
            models=16, marginal_models=16,
            sim_runs=4, sim_iterations=500,
            marginal_mode="scan",
            queries_per_model=400, query_block=20,
            shares=(0.6, 0.2, 0.2),
            trace_blocks=(24, 32, 32),
        ),
        Workload(
            name="sim-large",
            vertices=60, edges=400, triangles=200,
            allow_nontrivial_homology=True,
            models=3, marginal_models=3,
            sim_runs=2, sim_iterations=100,
            marginal_mode="pair",
            queries_per_model=200, query_block=8,
            shares=(0.6, 0.2, 0.2),
            trace_blocks=(16, 16, 16),
        ),
        Workload(
            name="verify-medium",
            vertices=30, edges=120, triangles=60,
            allow_nontrivial_homology=True,
            models=6, marginal_models=2,
            sim_runs=2, sim_iterations=250,
            marginal_mode="scan",
            queries_per_model=1000, query_block=25,
            shares=(0.1, 0.55, 0.35),
            trace_blocks=(12, 1, 24),
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload shrunk to paper scale and a few blocks."""
    return replace(
        w, vertices=10, edges=21, triangles=12, models=2, marginal_models=2,
        sim_runs=1, sim_iterations=20, queries_per_model=20, query_block=10,
        trace_blocks=(1, 1, 1), setups=1,
    )


def use_source_tree() -> None:
    """Import cmrf from the checkout's src/, never from an installed copy."""
    if not (SRC / "cmrf" / "__init__.py").is_file():
        raise SystemExit(f"error: no cmrf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cmrf

    if Path(cmrf.__file__).resolve().parent != SRC / "cmrf":
        raise SystemExit(f"error: imported cmrf from {cmrf.__file__}, not {SRC}")


def model_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def complex_name(index: int) -> str:
    return f"complex{index}.json"


def model_name(index: int) -> str:
    return f"model{index}.json"


def input_commands(w: Workload, seed: int) -> list[list[str]]:
    """CLI argument lists that write a run's inputs into the current directory."""
    commands = []
    for i in range(w.models):
        s = str(model_seed(seed, i))
        generate = [
            "complex", "generate", "--vertices", str(w.vertices),
            "--edges", str(w.edges), "--triangles", str(w.triangles),
            "--seed", s, "-o", complex_name(i),
        ]
        if w.allow_nontrivial_homology:
            generate.append("--allow-nontrivial-homology")
        commands.append(generate)
        commands.append([
            "model", "build", complex_name(i), "--seed", s,
            "--sparsity", str(SPARSITY), "-o", model_name(i),
        ])
    return commands


def make_inputs(w: Workload, seed: int, out_dir: Path, cli_main) -> list[int]:
    """Run the input commands inside ``out_dir``; return their exit codes.

    Model documents store the complex path as given and resolve it
    against their own directory, so the commands use bare file names and
    run with ``out_dir`` as working directory.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(out_dir)
    try:
        return [cli_main(argv) for argv in input_commands(w, seed)]
    finally:
        os.chdir(here)
