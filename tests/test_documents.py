"""The exact error text of every rejected complex and model document.

These cases pin, byte for byte, the text load_complex and load_model
give for each kind of defect, and the documents next to them that must
still load.
"""

import json

import numpy as np
import pytest

from cmrf import (
    ClosureViolation,
    DegenerateSimplex,
    DuplicateSimplex,
    InvalidDocument,
    build_complex,
    incidence,
    load_complex,
    load_model,
)

BIG = 2 ** 70  # beyond int64

TRIANGLE = {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 2]],
            "triangles": [[0, 1, 2]]}


def _with(**fields):
    doc = dict(TRIANGLE, **fields)
    return {key: value for key, value in doc.items() if value is not None}


# (id, document, error type, message after "<path>: " or the whole message)
COMPLEX_CASES = [
    ("bool-in-integers", _with(vertices=[0, True, 2]),
     InvalidDocument, "{path}: 'vertices' must be a list of integers"),
    ("float-in-integers", _with(vertices=[0, 1.0, 2]),
     InvalidDocument, "{path}: 'vertices' must be a list of integers"),
    ("bool-in-edge", _with(edges=[[0, 1], [1, 2], [0, True]]),
     InvalidDocument, "{path}: 'edges' must be a list of integer pairs"),
    ("float-in-triangle", _with(triangles=[[0, 1, 2.0]]),
     InvalidDocument, "{path}: 'triangles' must be a list of integer triples"),
    ("three-element-edge", _with(edges=[[0, 1], [1, 2], [0, 1, 2]]),
     InvalidDocument, "{path}: 'edges' must be a list of integer pairs"),
    ("two-element-triangle", _with(triangles=[[0, 1]]),
     InvalidDocument, "{path}: 'triangles' must be a list of integer triples"),
    ("edge-not-a-list", _with(edges=[[0, 1], [1, 2], "02"]),
     InvalidDocument, "{path}: 'edges' must be a list of integer pairs"),
    ("vertices-not-a-list", _with(vertices=3),
     InvalidDocument, "{path}: 'vertices' must be a list of integers"),
    ("edges-an-object", _with(edges={"0": 1}),
     InvalidDocument, "{path}: 'edges' must be a list of integer pairs"),
    ("missing-vertices", _with(vertices=None),
     InvalidDocument, "{path}: missing key 'vertices'"),
    ("not-an-object", [0, 1, 2],
     InvalidDocument, "{path}: expected a JSON object"),
    ("duplicate-vertex", _with(vertices=[0, 1, 2, 1]),
     DuplicateSimplex, "duplicate vertex id"),
    ("duplicate-reversed-edge", _with(edges=[[0, 1], [1, 2], [0, 2], [1, 0]]),
     DuplicateSimplex, "duplicate edge (up to orientation)"),
    ("duplicate-triangle", _with(triangles=[[0, 1, 2], [2, 0, 1]]),
     DuplicateSimplex, "duplicate triangle (up to orientation)"),
    ("degenerate-edge", _with(edges=[[0, 1], [2, 2], [0, 2]]),
     DegenerateSimplex, "edge (2, 2) repeats a vertex"),
    ("degenerate-triangle", _with(triangles=[[1, 0, 1]]),
     DegenerateSimplex, "triangle (1, 0, 1) repeats a vertex"),
    ("edge-missing-vertex", _with(edges=[[0, 1], [1, 2], [0, 7]]),
     ClosureViolation, "edge (0, 7) uses a missing vertex"),
    ("triangle-missing-side", _with(edges=[[0, 1], [0, 2]], triangles=[[2, 1, 0]]),
     ClosureViolation, "triangle (0, 1, 2) is missing side (1, 2)"),
    ("triangle-missing-vertex", _with(triangles=[[0, 1, 5]]),
     ClosureViolation, "triangle (0, 1, 5) is missing side (0, 5)"),
    ("big-edge-missing-vertex", _with(edges=[[0, 1], [1, 2], [0, BIG]]),
     ClosureViolation, f"edge (0, {BIG}) uses a missing vertex"),
    ("big-duplicate-vertex", _with(vertices=[0, 1, 2, BIG, BIG]),
     DuplicateSimplex, "duplicate vertex id"),
    ("big-degenerate-edge", _with(vertices=[0, 1, 2, BIG], edges=[[0, 1], [BIG, BIG]]),
     DegenerateSimplex, f"edge ({BIG}, {BIG}) repeats a vertex"),
]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("doc, error, message",
                         [case[1:] for case in COMPLEX_CASES],
                         ids=[case[0] for case in COMPLEX_CASES])
def test_complex_error_text(tmp_path, doc, error, message):
    path = _write(tmp_path, "complex.json", doc)
    with pytest.raises(error) as info:
        load_complex(path)
    assert type(info.value) is error
    assert str(info.value) == message.format(path=path)


MODEL = {"k": 10.0, "d_v": [1.0, 2, 0.5], "d_t": [1.5], "complex_file": "complex.json"}

MODEL_CASES = [
    ("bool-in-numbers", dict(MODEL, d_v=[1.0, True, 0.5]),
     "{path}: 'd_v' must be a list of numbers"),
    ("string-in-numbers", dict(MODEL, d_t=["1.5"]),
     "{path}: 'd_t' must be a list of numbers"),
    ("null-in-numbers", dict(MODEL, d_t=[None]),
     "{path}: 'd_t' must be a list of numbers"),
    ("nested-numbers", dict(MODEL, d_v=[[1.0], 2, 0.5]),
     "{path}: 'd_v' must be a list of numbers"),
    ("numbers-not-a-list", dict(MODEL, d_v=1.0),
     "{path}: 'd_v' must be a list of numbers"),
    ("k-a-bool", dict(MODEL, k=True),
     "{path}: 'k' must be a number"),
    ("k-a-list", dict(MODEL, k=[10.0]),
     "{path}: 'k' must be a number"),
    ("k-beyond-float", dict(MODEL, k=10**400),
     "{path}: 'k' must be a number"),
    ("int-beyond-float-in-numbers", dict(MODEL, d_v=[1.0, 10**400, 0.5]),
     "{path}: 'd_v' must be a list of numbers"),
    ("complex-file-a-number", dict(MODEL, complex_file=3),
     "{path}: 'complex_file' must be a string"),
    ("missing-d-t", {key: value for key, value in MODEL.items() if key != "d_t"},
     "{path}: missing key 'd_t'"),
]


@pytest.mark.parametrize("doc, message", [case[1:] for case in MODEL_CASES],
                         ids=[case[0] for case in MODEL_CASES])
def test_model_error_text(tmp_path, doc, message):
    _write(tmp_path, "complex.json", TRIANGLE)
    path = _write(tmp_path, "model.json", doc)
    with pytest.raises(InvalidDocument) as info:
        load_model(path)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize("case", ["bool-in-edge", "three-element-edge",
                                  "triangle-missing-side", "duplicate-reversed-edge"])
def test_model_names_its_complex_in_the_error(tmp_path, case):
    _, doc, error, message = next(c for c in COMPLEX_CASES if c[0] == case)
    complex_path = _write(tmp_path, "complex.json", doc)
    path = _write(tmp_path, "model.json", MODEL)
    with pytest.raises(error) as info:
        load_model(path)
    assert str(info.value) == message.format(path=complex_path)


def test_documents_that_load(tmp_path):
    # no triangles key: the complex has none
    path = _write(tmp_path, "complex.json", _with(triangles=None))
    sc = load_complex(path)
    assert sc.triangles == () and sc.edges == ((0, 1), (0, 2), (1, 2))
    # integer coefficients and k are numbers
    _write(tmp_path, "complex.json", TRIANGLE)
    _, params = load_model(_write(tmp_path, "model.json", dict(MODEL, k=10, d_t=[2])))
    assert params.k == 10.0 and params.d_t.tolist() == [2.0]
    # vertex ids beyond int64 stay exact Python integers
    doc = {"vertices": [BIG, 0, -1], "edges": [[BIG, 0], [-1, BIG], [0, -1]],
           "triangles": [[0, BIG, -1]]}
    sc = load_complex(_write(tmp_path, "big.json", doc))
    assert (sc.vertices, sc.edges, sc.triangles) == (
        (-1, 0, BIG), ((-1, 0), (-1, BIG), (0, BIG)), ((-1, 0, BIG),))
    small = build_complex([-1, 0, 1], [(1, 0), (-1, 1), (0, -1)], [(0, 1, -1)])
    for got, want in zip(incidence(sc), incidence(small)):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    # a negative id beside ids in [2**63, 2**64), which numpy reads as floats
    doc = {"vertices": [-1, 2**63, 2**63 + 1], "edges": [[2**63 + 1, 2**63]]}
    sc = load_complex(_write(tmp_path, "mixed.json", doc))
    assert sc.edges == ((2**63, 2**63 + 1),)
    assert incidence(sc).b1.tolist() == [[0], [-1], [1]]
