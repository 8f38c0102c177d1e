"""Every ``--json`` output and written document is the text of ``json.dumps(value, indent=2)``.

The writer ``simplicial._json_text`` renders lists of integer rows
without the json module; these tests hold it to json's bytes, value by
value and on the output of each command.
"""

import json

import numpy as np
import pytest

from cmrf import (
    SgmParams,
    build_cmrf,
    draw_params,
    incidence,
    independence,
    load_model,
    min_valid_k,
    random_2sc,
    save_complex,
    save_model,
)
from cmrf.cli import main
from cmrf.simplicial import _json_text

NASTY = "é\"\n"

WRITER_CASES = {
    "empty-list": [],
    "empty-object": {},
    "empty-tuple": (),
    "empty-rows": [[], []],
    "int-pairs": [[0, 1], [2, 3]],
    "int-pair-tuples": [(0, 1), (2, 3)],
    "int-triples": [[0, 1, 2], [3, 4, 5]],
    "int-triple-tuples": ((0, 1, 2), (3, 4, 5)),
    "lists-and-tuples": [(0, 1), [2, 3]],
    "one-row": [(7,)],
    "negative-ints": [[-1, 0], [5, -10]],
    "mixed-lengths": [[0, 1], [2]],
    "an-empty-row": [[0, 1], []],
    "bool-in-a-pair": [[True, 0]],
    "bool-among-ints": [True, 1],
    "bools-as-rows": [[False, True], [True, False]],
    "flat-ints": [0, 1, 2],
    "beyond-int64": [[2**63, -(2**64)], [2**100, 0]],
    "float-pairs": [[0.5, 1.0]],
    "int-and-float-rows": [[0, 1], [0.5, 1]],
    "numpy-float": np.float64(0.1),
    "numpy-floats-in-rows": [[np.float64(1.5), 2.0]],
    "nan": float("nan"),
    "infinities": [float("inf"), -float("inf")],
    "negative-zero": -0.0,
    "string": NASTY,
    "strings-as-rows": [[NASTY], ["x"]],
    "none": None,
    "nested-objects": {
        "pairs": [(0, 1), (1, 2)],
        "inner": {"rows": [[3, 4, 5]], "scalar": 1.5, "empty": {}, NASTY: [NASTY]},
        "list-of-objects": [{"rows": [[0, 1]]}],
        "none": None,
        "empty": [],
    },
    "object-of-scalars": {"kind": "marginal", "passed": True, "residual": 0.0,
                          "tolerance": 1e-10, "nan": float("nan")},
    "non-string-key": {1: [[0, 1]], "a": [(2, 3)]},
    "deep-rows": {"a": {"b": {"c": [(0, 1)]}}},
}


@pytest.mark.parametrize("value", WRITER_CASES.values(), ids=WRITER_CASES)
def test_writer_gives_the_bytes_of_json(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [[np.int64(1), 2]],
    [(0, 1), (np.int64(1), 2)],
    {"pairs": [(0, np.int32(1))]},
], ids=["alone", "later-row", "in-an-object"])
def test_writer_refuses_a_numpy_integer_as_json_does(value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError, match="not JSON serializable"):
        _json_text(value)


def _round_trips(text: str) -> None:
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.fixture(scope="module")
def docs(tmp_path_factory, filled_triangle, two_cluster_complex):
    """Path by name of the documents the commands read, all in one directory."""
    root = tmp_path_factory.mktemp("json_output")
    save_complex(filled_triangle, root / "triangle.json")
    save_complex(two_cluster_complex, root / "clusters.json")
    inc = incidence(two_cluster_complex)
    d_v, d_t = np.array([0, 0, 1.0, 2.0, 1.5, 0]), np.array([1.0, 2.0])
    save_model(SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t), "clusters.json",
               root / "clusters_model.json")
    sc = random_2sc(30, None, 60, seed=5, num_edges=120, require_trivial_homology=False)
    save_complex(sc, root / "scale.json")
    save_model(draw_params(incidence(sc), 5, sparsity=0.5), "scale.json",
               root / "scale_model.json")
    for name, coefficients in [("cancelling", ["--dv", "1.5,0,0", "--dt", "1.5"]),
                               ("identity", ["--dv", "1", "--dt", "1"])]:
        path = root / f"{name}_model.json"
        assert main(["model", "build", str(root / "triangle.json"), *coefficients,
                     "-o", str(path)]) == 0
    return {path.stem: str(path) for path in root.iterdir()} | {"dir": str(root)}


# (id, argv with {document} fields, exit code, what the payload must show)
COMMANDS = [
    ("complex-generate", ["complex", "generate", "--vertices", "10", "--edges", "21",
                          "--triangles", "12", "--seed", "7", "-o", "{dir}/generated.json"],
     0, {"num_edges": 21}),
    ("complex-inspect", ["complex", "inspect", "{scale}"], 0, {"num_edges": 120}),
    ("model-build", ["model", "build", "{scale}", "--seed", "3", "-o", "{dir}/built.json"],
     0, {"cancellations": []}),
    ("model-build-cancelling", ["model", "build", "{triangle}", "--dv", "1.5,0,0", "--dt",
                                "1.5", "-o", "{dir}/built_cancelling.json"],
     0, {"cancellations": [[0, 1]]}),
    ("model-check", ["model", "check", "{scale_model}"], 0, {"cancellations": []}),
    ("model-check-cancelling", ["model", "check", "{cancelling_model}"],
     0, {"cancellations": [[0, 1]]}),
    ("verify-marginal", ["verify", "{clusters_model}", "--set-a", "0", "--set-b", "3,4,5,6"],
     0, {"kind": "marginal", "separated": True}),
    ("verify-conditional", ["verify", "{clusters_model}", "--set-a", "0", "--set-b", "3,4,5,6",
                            "--given", "1,2"],
     0, {"kind": "conditional", "separated": True}),
    ("verify-marginal-not-separated", ["verify", "{clusters_model}", "--set-a", "0",
                                       "--set-b", "1"],
     1, {"kind": "marginal", "separated": False}),
    ("verify-conditional-not-separated", ["verify", "{clusters_model}", "--set-a", "0",
                                          "--set-b", "3", "--given", "6"],
     1, {"kind": "conditional", "separated": False}),
    ("scan-no-pairs", ["verify", "{identity_model}", "--scan-singletons"],
     0, {"num_pairs": 0, "pairs": []}),
    ("scan-many-pairs", ["verify", "{scale_model}", "--scan-singletons"], 0, {"passed": True}),
    ("simulate-diverged", ["simulate", "--seed", "1", "--runs", "2", "--iterations", "300",
                           "--step-size", "0.05", "-o", "{dir}/msd.csv"],
     1, {"diverged": ["standalone_lms"]}),
]


@pytest.mark.parametrize("argv, code, shows", [c[1:] for c in COMMANDS],
                         ids=[c[0] for c in COMMANDS])
def test_command_output_round_trips(capsys, docs, argv, code, shows):
    assert main([arg.format(**docs) for arg in argv] + ["--json"]) == code
    text = capsys.readouterr().out
    _round_trips(text)
    payload = json.loads(text)
    assert {key: payload[key] for key in shows} == shows


def test_scan_lists_every_pair(capsys, docs):
    assert main(["verify", docs["scale_model"], "--scan-singletons", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    sc, params = load_model(docs["scale_model"])
    pairs = independence.color_separated_singleton_pairs(build_cmrf(incidence(sc), params))
    assert len(pairs) > 1000 and payload["pairs"] == [list(p) for p in pairs]


def test_written_documents_round_trip(docs):
    assert {"triangle", "clusters", "scale", "clusters_model", "scale_model",
            "cancelling_model", "identity_model"} <= set(docs)
    for name, path in docs.items():
        if name != "dir":
            with open(path) as f:
                _round_trips(f.read())
