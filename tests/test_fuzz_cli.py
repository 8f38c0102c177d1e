"""Seeded fuzz of the command line input paths.

Small complex, model and config documents, most of them nearly valid and
many of them broken (wrong types, NaN, negative or out-of-range values,
missing keys, 0-4 vertices, edges and triangles), go through every
subcommand via cli.main.  Whatever they hold, a command must return 0
(checks passed), 1 (a check failed) or 2 (bad input) and raise nothing;
bad input is reported on an ``error:`` line, never as a traceback.
"""

import itertools
import json
import math

import numpy as np
import pytest

from cmrf.cli import main

CASES = 60

# Values that a field of the wrong kind or range may take instead.
ODD_VALUES = [-1, 0, 1, 2.5, -0.5, 1e308, math.nan, math.inf, "1", True, None, [], {}]


def _odd(rng):
    return ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]


def _maybe(rng, value, p=0.15):
    """value, or with probability p a value of the wrong kind or range."""
    return _odd(rng) if rng.random() < p else value


def _complex_doc(rng, nv):
    """A complex on nv vertices with random edges and filled 3-cliques."""
    vertices = list(range(nv))
    edges = [list(e) for e in itertools.combinations(vertices, 2) if rng.random() < 0.6]
    have = {tuple(e) for e in edges}
    cliques = [list(t) for t in itertools.combinations(vertices, 3)
               if {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} <= have]
    triangles = [t for t in cliques if rng.random() < 0.6]
    doc = {"vertices": vertices, "edges": edges, "triangles": triangles}
    if rng.random() < 0.3:  # one broken entry: a wrong value or an unknown vertex
        key = ["vertices", "edges", "triangles"][int(rng.integers(3))]
        entries = doc[key]
        if entries and rng.random() < 0.5:
            entry = entries[int(rng.integers(len(entries)))]
            if isinstance(entry, list):
                entry[int(rng.integers(len(entry)))] = _maybe(rng, 7, p=0.7)
            else:
                entries[0] = _odd(rng)
        else:
            doc[key] = _odd(rng)
    if rng.random() < 0.1:
        del doc[["vertices", "edges", "triangles"][int(rng.integers(3))]]
    return doc


def _model_doc(rng, nv, nt):
    doc = {
        "k": _maybe(rng, float(rng.uniform(0.5, 30.0))),
        "d_v": [_maybe(rng, float(rng.uniform(0.0, 3.0)), 0.05) for _ in range(nv)],
        "d_t": [_maybe(rng, float(rng.uniform(0.0, 3.0)), 0.05) for _ in range(nt)],
        "complex_file": _maybe(rng, "complex.json", 0.1),
    }
    if rng.random() < 0.2:  # a coefficient list of the wrong length
        doc[["d_v", "d_t"][int(rng.integers(2))]].append(1.0)
    if rng.random() < 0.1:
        del doc[list(doc)[int(rng.integers(len(doc)))]]
    return doc


def _config_doc(rng):
    seed = _maybe(rng, int(rng.integers(5)), 0.4)
    simulate = {"seed": seed}
    for key in ("step_size", "regressor_variance", "k_margin", "num_triangles",
                "steady_state_window", "combine_rule", "variants"):
        if rng.random() < 0.2:
            simulate[key] = _odd(rng)
    doc = {"complex": {"seed": seed}, "model": {"seed": seed}, "simulate": simulate}
    if rng.random() < 0.2:
        doc[["complex", "model", "simulate"][int(rng.integers(3))]]["sparsity"] = 0.9
    if rng.random() < 0.1:
        doc = _odd(rng)
    return doc


def _indices(rng, n):
    """A comma list of edge indices, some of them out of range or not numbers."""
    picks = [str(int(rng.integers(-1, n + 2))) for _ in range(int(rng.integers(0, 3)))]
    if rng.random() < 0.1:
        picks.append("x")
    return ",".join(picks)


def _commands(rng, paths, nv, ne, nt):
    seed = str(int(rng.integers(-1, 4)))
    small = ["--runs", "1", "--iterations", "3", "-o", paths["csv"]]
    # "--flag=value", as a list that starts with a negative index needs
    verify = ["verify", paths["model"], f"--set-a={_indices(rng, ne)}",
              f"--set-b={_indices(rng, ne)}"]
    if rng.random() < 0.5:
        verify.append(f"--given={_indices(rng, ne)}")
    build = ["model", "build", paths["complex"], "-o", paths["built"],
             "--sparsity", str(_maybe(rng, 0.5))]
    if rng.random() < 0.3:
        build += ["--dv", str(_maybe(rng, 1.0)), "--dt", str(_maybe(rng, 1.0))]
    return [
        ["complex", "inspect", paths["complex"]],
        ["complex", "generate", "--vertices", str(nv), "--edges", str(ne),
         "--triangles", str(nt), "--seed", seed, "-o", paths["generated"]],
        ["--config", paths["config"], "complex", "generate", "--vertices", str(nv),
         "--edges", str(ne), "--triangles", str(nt), "-o", paths["generated"]],
        build + ["--seed", seed],
        ["--config", paths["config"]] + build,
        ["model", "check", paths["model"]],
        ["--json", "model", "check", paths["model"]],
        ["verify", paths["model"], "--scan-singletons"],
        verify,
        ["simulate", "--complex-file", paths["complex"], "--seed", seed] + small,
        ["simulate", "--vertices", str(nv), "--edges", str(ne),
         "--triangles", str(nt), "--seed", seed] + small,
        ["--config", paths["config"], "simulate", "--complex-file", paths["complex"]]
        + small,
    ]


def test_cli_survives_fuzzed_documents(tmp_path, capsys):
    rng = np.random.default_rng(20261019)
    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("complex", "model", "config", "built", "generated")}
    paths["csv"] = str(tmp_path / "msd.csv")
    codes = set()
    # an empty --set-a or --set-b warns by design; other warnings pass through
    with pytest.warns(UserWarning, match="empty query set"):
        for case in range(CASES):
            # every vertex and edge count of 0-4 comes up, then random ones
            nv, ne = (case % 5, case // 5) if case < 25 else rng.integers(0, 5, 2)
            nt = int(rng.integers(0, 5))
            cdoc = _complex_doc(rng, int(nv))
            with open(paths["complex"], "w") as f:
                json.dump(cdoc, f)
            triangles = cdoc.get("triangles")
            num_t = len(triangles) if isinstance(triangles, list) else 0
            with open(paths["model"], "w") as f:
                json.dump(_model_doc(rng, int(nv), num_t), f)
            with open(paths["config"], "w") as f:
                json.dump(_config_doc(rng), f)
            for argv in _commands(rng, paths, int(nv), int(ne), nt):
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (argv, code)
                assert "Traceback" not in err, (argv, err)
                if code == 2:
                    assert "error:" in err, (argv, err)
                codes.add(code)
    # the documents reach the checks, not only the input errors
    assert codes == {0, 1, 2}
