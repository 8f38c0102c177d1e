import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from cmrf import (
    SgmParams,
    build_precision,
    incidence,
    load_model,
    min_valid_k,
    model,
    save_complex,
    save_model,
)
from cmrf.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def triangle_doc(tmp_path, filled_triangle):
    path = tmp_path / "triangle.json"
    save_complex(filled_triangle, path)
    return path


@pytest.fixture()
def clustered_model_doc(tmp_path, two_cluster_complex):
    cpath = tmp_path / "clusters.json"
    save_complex(two_cluster_complex, cpath)
    inc = incidence(two_cluster_complex)
    d_v = np.zeros(6)
    d_v[[2, 3, 4]] = [1.0, 2.0, 1.5]
    d_t = np.array([1.0, 2.0])
    params = SgmParams(k=min_valid_k(inc, d_v, d_t), d_v=d_v, d_t=d_t)
    mpath = tmp_path / "clusters_model.json"
    save_model(params, "clusters.json", mpath)
    return mpath


class TestComplexCommands:
    def test_generate_then_inspect(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, text, _ = run_cli(
            capsys, "complex", "generate", "--vertices", "10", "--edges", "21",
            "--triangles", "12", "--seed", "7", "-o", str(out),
        )
        assert code == 0
        assert out.exists()
        assert "edges=21" in text and "triangles=12" in text

        code, text, _ = run_cli(capsys, "complex", "inspect", str(out))
        assert code == 0
        assert "harmonic_dimension=0" in text

    def test_inspect_reports_trivial_kernel_for_filled_triangle(
        self, capsys, triangle_doc
    ):
        code, text, _ = run_cli(
            capsys, "--json", "complex", "inspect", str(triangle_doc)
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["harmonic_dimension"] == 0
        assert doc["rank_b1"] == 2 and doc["rank_b2"] == 1

    def test_generate_requires_seed(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "complex", "generate", "--vertices", "5",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "seed" in err

    def test_generate_failure_is_clean(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "complex", "generate", "--vertices", "5",
            "--probability", "0.0", "--edges", "3", "--seed", "1",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("nv, ne, nt", [(30, 120, 60), (60, 400, 200)])
    def test_generate_refuses_impossible_homology(self, tmp_path, capsys, nv, ne, nt):
        out = tmp_path / "x.json"
        argv = ["complex", "generate", "--vertices", str(nv), "--edges", str(ne),
                "--triangles", str(nt), "--seed", "1", "-o", str(out)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and f"at least {ne - nv + 1} triangles" in err
        assert not out.exists()
        code, text, _ = run_cli(capsys, *argv, "--allow-nontrivial-homology")
        assert code == 0 and f"edges={ne}" in text

    def test_generate_one_vertex_complex(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, text, err = run_cli(
            capsys, "complex", "generate", "--vertices", "1", "--edges", "0",
            "--seed", "1", "-o", str(out),
        )
        assert code == 0 and "Traceback" not in err
        assert "vertices=1 edges=0 triangles=0" in text
        assert json.loads(out.read_text()) == {"vertices": [0], "edges": [], "triangles": []}


class TestModelCommands:
    def test_check_inverts_each_matrix_once(self, capsys, monkeypatch, clustered_model_doc):
        inv, calls = np.linalg.inv, []
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
        code, text, _ = run_cli(capsys, "model", "check", str(clustered_model_doc))
        assert code == 0 and text.endswith("PASS\n")
        assert len(calls) == 3  # omega_u, omega_d and omega

    def test_check_refuses_an_overflowing_model(self, tmp_path, triangle_doc):
        path = tmp_path / "huge_k.json"
        path.write_text(json.dumps({
            "k": 1e308, "d_v": [1.0, 1.0, 1.0], "d_t": [1.0],
            "complex_file": triangle_doc.name,
        }))
        for flags in ([], ["--json"]):
            proc = subprocess.run(
                [sys.executable, "-m", "cmrf.cli", *flags, "model", "check", str(path)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == (
                f"error: {path}: the precision identities overflow in double "
                "precision (k=1e+308)\n"
            )

    def test_build_and_check(self, tmp_path, capsys, triangle_doc):
        out = tmp_path / "model.json"
        code, text, _ = run_cli(
            capsys, "model", "build", str(triangle_doc), "--seed", "3",
            "-o", str(out),
        )
        assert code == 0 and out.exists()

        code, text, _ = run_cli(capsys, "model", "check", str(out))
        assert code == 0
        assert "PASS" in text

    def test_check_json_reports_condition_number(self, capsys, clustered_model_doc):
        code, text, _ = run_cli(capsys, "model", "check", str(clustered_model_doc))
        assert code == 0 and "condition" not in text
        code, text, _ = run_cli(capsys, "model", "check", str(clustered_model_doc), "--json")
        doc = json.loads(text)
        sc, params = load_model(clustered_model_doc)
        omega = build_precision(incidence(sc), params).omega
        assert doc["condition_number"] == pytest.approx(np.linalg.cond(omega), rel=1e-9)
        assert doc["condition_number"] >= 1.0

    @pytest.mark.parametrize("coeffs, calls", [
        ((), 1), (("--dv", "1.5"), 2), (("--dv", "1.5", "--dt", "0.5"), 1),
    ], ids=["drawn", "dv-given", "both-given"])
    def test_build_computes_k_once_per_coefficient_set(
        self, tmp_path, capsys, monkeypatch, triangle_doc, coeffs, calls
    ):
        seen = []
        real = model.min_valid_k

        def spy(inc, d_v, d_t, margin=0.1):
            seen.append(margin)
            return real(inc, d_v, d_t, margin)

        monkeypatch.setattr(model, "min_valid_k", spy)
        out = tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "model", "build", str(triangle_doc), "--seed", "3",
                             "--sparsity", "0.5", *coeffs, "-o", str(out))
        assert code == 0 and len(seen) == calls
        sc, params = load_model(out)
        # k always belongs to the coefficients written out
        assert params.k == real(incidence(sc), params.d_v, params.d_t)

    def test_build_with_zero_couplings_reports_identity(
        self, tmp_path, capsys, triangle_doc
    ):
        out = tmp_path / "model.json"
        code, text, _ = run_cli(
            capsys, "model", "build", str(triangle_doc),
            "--dv", "0", "--dt", "0", "-o", str(out),
        )
        assert code == 0
        assert "omega = k*I" in text

    def test_build_reports_exact_cancellation(self, tmp_path, capsys, triangle_doc):
        out = tmp_path / "model.json"
        code, text, _ = run_cli(
            capsys, "model", "build", str(triangle_doc),
            "--dv", "1.5,0,0", "--dt", "1.5", "-o", str(out),
        )
        assert code == 0
        assert "cancellations" in text

    def test_build_without_seed_or_coeffs_fails(self, tmp_path, capsys, triangle_doc):
        code, _, err = run_cli(
            capsys, "model", "build", str(triangle_doc),
            "-o", str(tmp_path / "m.json"),
        )
        assert code == 2 and "seed" in err


class TestVerifyCommand:
    def test_marginal_pass(self, capsys, clustered_model_doc):
        code, text, _ = run_cli(
            capsys, "verify", str(clustered_model_doc),
            "--set-a", "0", "--set-b", "3,4,5,6",
        )
        assert code == 0
        assert "PASS" in text

    def test_marginal_rejected_when_connected(self, capsys, clustered_model_doc):
        code, text, _ = run_cli(
            capsys, "verify", str(clustered_model_doc),
            "--set-a", "0", "--set-b", "1",
        )
        assert code == 1
        assert "not color-separated" in text

    def test_conditional_pass(self, capsys, clustered_model_doc):
        code, text, _ = run_cli(
            capsys, "verify", str(clustered_model_doc),
            "--set-a", "0", "--set-b", "3,4,5,6", "--given", "1,2",
        )
        assert code == 0
        assert "conditional" in text and "PASS" in text

    def test_conditional_unblocked(self, capsys, clustered_model_doc):
        code, text, _ = run_cli(
            capsys, "verify", str(clustered_model_doc),
            "--set-a", "0", "--set-b", "3", "--given", "6",
        )
        assert code == 1
        assert "not separated" in text

    @pytest.mark.parametrize("given", [(), ("--given", "1")], ids=["marginal", "conditional"])
    def test_empty_set_warns_once(self, capsys, clustered_model_doc, given):
        with pytest.warns(UserWarning, match="empty query set") as caught:
            code, text, _ = run_cli(capsys, "verify", str(clustered_model_doc),
                                    "--set-a", "", "--set-b", "3", *given)
        assert code == 0 and text.endswith("PASS\n")
        assert len(caught) == 1

    def test_scan_singletons(self, capsys, clustered_model_doc):
        code, text, _ = run_cli(
            capsys, "--json", "verify", str(clustered_model_doc),
            "--scan-singletons",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["passed"] is True
        assert [0, 3] in doc["pairs"] and doc["num_pairs"] >= 4

    def test_scan_inverts_once(self, capsys, monkeypatch, clustered_model_doc):
        inv, calls = np.linalg.inv, []
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
        code, text, _ = run_cli(
            capsys, "verify", str(clustered_model_doc), "--scan-singletons", "--json",
        )
        assert code == 0 and json.loads(text)["num_pairs"] >= 4
        assert calls == [(7, 7)]

    def test_scan_without_pairs(self, tmp_path, capsys, triangle_doc):
        out = tmp_path / "model.json"
        run_cli(capsys, "model", "build", str(triangle_doc), "--dv", "1", "--dt", "1",
                "-o", str(out))
        code, text, _ = run_cli(capsys, "verify", str(out), "--scan-singletons", "--json")
        assert code == 0
        assert json.loads(text) == {"passed": True, "num_pairs": 0, "pairs": [],
                                    "max_residual": 0.0, "tolerance": None}
        code, text, _ = run_cli(capsys, "verify", str(out), "--scan-singletons")
        assert code == 0
        assert text == ("color-separated singleton pairs: 0\n"
                        "max cross-covariance residual: 0.000e+00\nPASS\n")

    def test_shared_flags_accepted_after_subcommand(self, capsys, clustered_model_doc):
        code, text, _ = run_cli(
            capsys, "verify", str(clustered_model_doc),
            "--scan-singletons", "--json",
        )
        assert code == 0
        assert json.loads(text)["passed"] is True

    @pytest.mark.parametrize("query", [
        ("--set-a", "0", "--set-b", "5", "--given", "6"),
        ("--set-a", "0", "--set-b", "5"),
        ("--given", ""),
    ], ids=["all", "marginal", "empty-given"])
    def test_scan_refuses_query_flags(self, capsys, clustered_model_doc, query):
        code, text, err = run_cli(
            capsys, "verify", str(clustered_model_doc), "--scan-singletons", *query,
        )
        assert code == 2 and text == ""
        assert err.startswith("error:") and "--scan-singletons" in err

    def test_overlapping_sets_error(self, capsys, clustered_model_doc):
        code, _, err = run_cli(
            capsys, "verify", str(clustered_model_doc),
            "--set-a", "0", "--set-b", "0",
        )
        assert code == 2 and "error:" in err


class TestSimulateCommand:
    def test_refuses_impossible_homology(self, tmp_path, capsys):
        out = tmp_path / "msd.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--seed", "1", "--vertices", "30", "--edges", "120",
            "--triangles", "60", "--runs", "1", "--iterations", "2", "-o", str(out),
        )
        assert code == 2 and "at least 91 triangles" in err
        assert "--allow-nontrivial-homology" in err and "--complex-file" in err
        assert not out.exists()

    def test_nontrivial_complex_file_runs_medium_scale(self, tmp_path, capsys):
        complex_path = tmp_path / "sc.json"
        code, _, _ = run_cli(
            capsys, "complex", "generate", "--seed", "1", "--vertices", "30",
            "--edges", "120", "--triangles", "60", "--allow-nontrivial-homology",
            "-o", str(complex_path),
        )
        assert code == 0
        out = tmp_path / "msd.csv"
        code, text, _ = run_cli(
            capsys, "simulate", "--seed", "1", "--complex-file", str(complex_path),
            "--runs", "1", "--iterations", "20", "-o", str(out),
        )
        assert code == 0 and "atc_cmrf" in text
        assert len(out.read_text().splitlines()) == 1 + 5 * 20

    def test_reordered_variants_keep_their_order(self, tmp_path, capsys):
        order = ["centralized_cmrf", "standalone_lms", "atc_lgmrf", "atc_cmrf",
                 "atc_plain"]
        out = tmp_path / "msd.csv"
        argv = ["simulate", "--seed", "1", "--runs", "2", "--iterations", "5",
                "--variants", ",".join(order), "-o", str(out)]
        code, text, _ = run_cli(capsys, "--json", *argv)
        assert code == 0
        assert list(json.loads(text)["steady_state_db"]) == order
        rows = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert rows == [v for v in order for _ in range(5)]
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [line.split()[0] for line in text.splitlines()[4:]] == order

    def test_default_csv_bytes(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, _, _ = run_cli(capsys, "simulate", "--seed", "1", "--runs", "4",
                             "--iterations", "200", "-o", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest().startswith("844db74219487ff3")

    def test_small_run_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "msd.csv"
        code, text, _ = run_cli(
            capsys, "simulate", "--seed", "4", "--runs", "2",
            "--iterations", "25", "-o", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,iteration,msd_mean,msd_std"
        assert len(lines) == 1 + 5 * 25
        assert "atc_cmrf" in text and "dB" in text

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "simulate", "--seed", "9", "--runs", "2",
                "--iterations", "15", "-o", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "simulate": {
                "seed": 11, "num_runs": 3, "num_iterations": 10,
                "variants": ["atc_cmrf", "standalone_lms"],
            }
        }))
        out = tmp_path / "msd.csv"
        code, text, _ = run_cli(
            capsys, "--json", "--config", str(cfg),
            "simulate", "--runs", "2", "-o", str(out),
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["num_runs"] == 2  # flag beats file
        assert set(doc["steady_state_db"]) == {"atc_cmrf", "standalone_lms"}
        assert doc["diverged"] == []
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 10

    def test_requires_seed(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--runs", "1", "--iterations", "2",
            "-o", str(tmp_path / "x.csv"),
        )
        assert code == 2 and "seed" in err

    def test_window_longer_than_run_warns(self, tmp_path, capsys):
        out = tmp_path / "msd.csv"
        argv = ["simulate", "--seed", "1", "--runs", "1", "-o", str(out)]
        code, text, err = run_cli(capsys, *argv, "--iterations", "20")
        assert code == 0 and "atc_cmrf" in text
        assert err.count("\n") == 1 and err.startswith("warning:")
        assert "averages all 20 iterations" in err
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5 * 20
        # the warning changes neither the summary nor the CSV
        window = ["--steady-window", "20", "--iterations", "20"]
        code, same_text, err = run_cli(capsys, *argv, *window)
        assert code == 0 and err == "" and same_text == text
        assert out.read_text().splitlines() == lines

    def test_diverging_run_is_a_failure(self, tmp_path, capsys):
        out = tmp_path / "msd.csv"
        code, text, _ = run_cli(
            capsys, "simulate", "--seed", "1", "--runs", "1", "--iterations", "300",
            "--step-size", "0.5", "-o", str(out),
        )
        assert code == 1
        assert "dB" not in text
        for v in ("atc_cmrf", "standalone_lms"):
            assert any(line.split() == [v, "diverged"] for line in text.splitlines())
        assert len(out.read_text().splitlines()) == 1 + 5 * 300

    def test_one_diverging_variant_is_named(self, tmp_path, capsys):
        # standalone_lms grows from about 10.8 dB to 132 dB at this step size
        out = tmp_path / "msd.csv"
        code, text, _ = run_cli(
            capsys, "--json", "simulate", "--seed", "1", "--runs", "2",
            "--iterations", "300", "--step-size", "0.05", "-o", str(out),
        )
        assert code == 1
        doc = json.loads(text)
        assert doc["diverged"] == ["standalone_lms"]
        assert doc["steady_state_db"]["standalone_lms"] is None
        finite = {v: db for v, db in doc["steady_state_db"].items() if db is not None}
        assert set(finite) == {"atc_cmrf", "atc_lgmrf", "atc_plain", "centralized_cmrf"}
        assert all(db < 0 for db in finite.values())
        assert len(out.read_text().splitlines()) == 1 + 5 * 300



def write_edited(src, dst, edit):
    """Copy a JSON document from src to dst after applying edit(doc)."""
    doc = json.loads(src.read_text())
    edit(doc)
    dst.write_text(json.dumps(doc))
    return dst


class TestDocumentSchemas:
    @pytest.mark.parametrize("edit, key", [
        (lambda d: d.pop("edges"), "edges"),
        (lambda d: d.pop("vertices"), "vertices"),
        (lambda d: d.update(edges={"a": 1}), "edges"),
        (lambda d: d.update(vertices=[1, "2", 3]), "vertices"),
        (lambda d: d.update(edges=[[1, 2], [1, 3], [2, None]]), "edges"),
        (lambda d: d.update(triangles=[[1, 2]]), "triangles"),
    ], ids=["no-edges", "no-vertices", "edges-object", "string-vertex",
            "null-endpoint", "short-triangle"])
    def test_bad_complex_document(self, tmp_path, capsys, triangle_doc, edit, key):
        bad = write_edited(triangle_doc, tmp_path / "bad.json", edit)
        code, _, err = run_cli(capsys, "complex", "inspect", str(bad))
        assert code == 2
        assert err.startswith("error:") and repr(key) in err

    def test_complex_document_must_be_an_object(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        code, _, err = run_cli(capsys, "complex", "inspect", str(bad))
        assert code == 2 and "JSON object" in err

    @pytest.mark.parametrize("argv", [
        ["complex", "inspect", "{bad}"],
        ["model", "check", "{bad}"],
        ["verify", "{model}", "--scan-singletons"],
        ["--config", "{bad}", "simulate", "--seed", "1", "-o", "{out}"],
        ["--config", "{bad}", "model", "build", "{complex}", "-o", "{out}"],
    ], ids=["complex", "model", "complex-of-model", "simulate-config",
            "build-config"])
    def test_non_json_document_names_its_file(self, tmp_path, capsys, triangle_doc, argv):
        paths = {"bad": tmp_path / "not_json.txt", "model": tmp_path / "model.json",
                 "complex": triangle_doc, "out": tmp_path / "out"}
        paths["bad"].write_text("k = 8\n")
        paths["model"].write_text(json.dumps({
            "k": 8.0, "d_v": [1.0, 1.0, 1.0], "d_t": [1.0],
            "complex_file": paths["bad"].name,
        }))
        code, text, err = run_cli(capsys, *[a.format(**paths) for a in argv])
        assert code == 2 and text == ""
        assert err.startswith(f"error: {paths['bad']}: not a JSON document")
        assert len(err.splitlines()) == 1
        assert not paths["out"].exists()

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d.pop("d_t"), "d_t"),
        (lambda d: d.pop("k"), "k"),
        (lambda d: d.pop("complex_file"), "complex_file"),
        (lambda d: d.update(k="8"), "k"),
        (lambda d: d.update(d_v=3.0), "d_v"),
        (lambda d: d.update(d_t=[1.0, None]), "d_t"),
        (lambda d: d.update(complex_file=7), "complex_file"),
    ], ids=["no-d_t", "no-k", "no-complex_file", "string-k", "scalar-d_v",
            "null-d_t", "numeric-complex_file"])
    def test_bad_model_document(self, tmp_path, capsys, clustered_model_doc, edit, key):
        bad = write_edited(
            clustered_model_doc, clustered_model_doc.parent / "bad.json", edit
        )
        for argv in (["model", "check"], ["verify", "--scan-singletons"]):
            code, _, err = run_cli(capsys, *argv, str(bad))
            assert code == 2
            assert err.startswith("error:") and repr(key) in err


SIM = ["simulate", "--seed", "1", "-o", "{out}"]
BUILD = ["model", "build", "{complex}", "--seed", "1", "-o", "{out}"]


@pytest.mark.parametrize("argv, message", [
    (SIM + ["--runs", "1", "--iterations", "0"], "num_iterations"),
    (SIM + ["--runs", "1", "--iterations", "2", "--steady-window", "0"],
     "steady_state_window"),
    (SIM + ["--runs", "0", "--iterations", "2"], "num_runs"),
    (SIM + ["--runs", "1", "--iterations", "2", "--threads", "0"], "num_workers"),
    (["--config", "{config}"] + SIM + ["--iterations", "2"], "num_runs"),
    (BUILD + ["--sparsity", "1.5"], "sparsity"),
    (BUILD + ["--sparsity", "-0.5"], "sparsity"),
    (BUILD + ["--dv", "nan"], "finite"),
    (BUILD + ["--dt", "inf"], "finite"),
    (["model", "check", "{nan_model}"], "finite"),
], ids=["iterations-0", "steady-window-0", "runs-0", "threads-0",
        "config-runs-string", "sparsity-1.5", "sparsity-negative", "dv-nan",
        "dt-inf", "model-with-nan"])
def test_bad_numbers_exit_2(tmp_path, capsys, triangle_doc, argv, message):
    nan_model = tmp_path / "nan_model.json"
    nan_model.write_text(json.dumps({
        "k": 8.0, "d_v": [float("nan"), 0.0, 0.0], "d_t": [1.0],
        "complex_file": triangle_doc.name,
    }))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"simulate": {"num_runs": "2"}}))
    paths = {"out": tmp_path / "out", "complex": triangle_doc,
             "nan_model": nan_model, "config": config}
    code, _, err = run_cli(capsys, *[a.format(**paths) for a in argv])
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("field, value, message", [
    ("step_size", "0.1", "step_size"),
    ("step_size", float("nan"), "step_size"),
    ("regressor_variance", float("inf"), "regressor_variance"),
    ("regressor_variance", 0.0, "regressor_variance"),
    ("k_margin", None, "k_margin"),
    ("er_probability", "0.5", "er_probability"),
    ("seed", "1", "seed"),
    ("seed", -1, "seed"),
    ("num_runs", True, "num_runs"),
    ("dim", 2.5, "dim"),
    ("num_edges", "21", "num_edges"),
    ("dv_bounds", [0.2], "dv_bounds"),
    ("dt_bounds", "0.2,5.0", "dt_bounds"),
    ("dt_bounds", [0.2, "5"], "dt_bounds"),
    ("variants", "atc_cmrf", "variants"),
    ("variants", ["atc_cmrf", 3], "variants"),
    ("variants", [], "variants"),
    ("variants", ["atc_cmrf", "atc_cmrf"], "variants"),
    ("resample_complex", "yes", "resample_complex"),
    ("complex_file", 5, "complex_file"),
    ("step_size_overrides", [1e-3], "step_size_overrides"),
    ("step_size_overrides", {"atc_plain": "1e-3"}, "step_size_overrides"),
    ("step_size_overrides", {"atc_typo": 1e-3}, "atc_typo"),
    ("combine_rule", 5, "combination rule"),
])
def test_bad_config_values_exit_2(tmp_path, capsys, field, value, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"simulate": {
        "seed": 1, "num_runs": 1, "num_iterations": 3, field: value,
    }}))
    out = tmp_path / "msd.csv"
    code, _, err = run_cli(capsys, "--config", str(config), "simulate", "-o", str(out))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert not out.exists()


EDGELESS = {"vertices": [0, 1, 2], "edges": []}


@pytest.mark.parametrize("argv", [
    ["model", "build", "{complex}", "--seed", "1", "-o", "{out}"],
    ["model", "build", "{complex}", "--dv", "1", "--dt", "1", "-o", "{out}"],
    ["simulate", "--complex-file", "{complex}", "--seed", "1", "--runs", "1",
     "--iterations", "3", "-o", "{out}"],
    ["simulate", "--vertices", "1", "--edges", "0", "--triangles", "0",
     "--seed", "1", "--runs", "1", "--iterations", "3", "-o", "{out}"],
], ids=["build-seed", "build-coefficients", "simulate-file", "simulate-one-vertex"])
def test_edgeless_model_exits_2(tmp_path, capsys, argv):
    complex_path = tmp_path / "edgeless.json"
    complex_path.write_text(json.dumps(EDGELESS))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *[a.format(complex=complex_path, out=out)
                                     for a in argv])
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error:") and "empty edge set" in err
    assert not out.exists()


# complex generate and model build without --seed, by config section
SEEDLESS = {
    "complex": ["complex", "generate", "--vertices", "10", "--edges", "21",
                "--triangles", "12", "-o", "{out}"],
    "model": ["model", "build", "{complex}", "-o", "{out}"],
}


def _run_seedless(capsys, tmp_path, triangle_doc, section, out, config=None, *extra):
    config_flag = [] if config is None else ["--config", str(tmp_path / "config.json")]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps({section: config}))
    argv = [a.format(complex=triangle_doc, out=out) for a in SEEDLESS[section]]
    return run_cli(capsys, *config_flag, *argv, *extra)


@pytest.mark.parametrize("config, message", [
    ({"seed": 2.9}, "seed must be an integer >= 0, got 2.9"),
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"seed": "2"}, "seed must be an integer >= 0, got '2'"),
    ({"seed": 2, "sparsity": 0.9}, "unknown config keys: ['sparsity']"),
], ids=["float", "bool", "negative", "string", "unknown-key"])
@pytest.mark.parametrize("section", SEEDLESS)
def test_bad_config_seed_exits_2(tmp_path, capsys, triangle_doc, section, config, message):
    out = tmp_path / "out.json"
    code, _, err = _run_seedless(capsys, tmp_path, triangle_doc, section, out, config)
    assert code == 2 and err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("section", SEEDLESS)
def test_config_seed_writes_flag_bytes(tmp_path, capsys, triangle_doc, section):
    by_flag, by_config = tmp_path / "by_flag.json", tmp_path / "by_config.json"
    code, _, _ = _run_seedless(capsys, tmp_path, triangle_doc, section, by_flag,
                               None, "--seed", "2")
    assert code == 0
    code, _, _ = _run_seedless(capsys, tmp_path, triangle_doc, section, by_config,
                               {"seed": 2})
    assert code == 0
    assert by_config.read_bytes() == by_flag.read_bytes()


def test_config_must_be_an_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "--config", str(config), "simulate", "--seed", "1",
                           "-o", str(tmp_path / "msd.csv"))
    assert code == 2
    assert err.startswith("error:") and "JSON object" in err


def test_module_entry_point_shows_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "cmrf.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for name in ("complex", "model", "verify", "simulate"):
        assert name in proc.stdout


def test_module_entry_point_missing_model_exits_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cmrf.cli", "verify", str(tmp_path / "missing.json"),
         "--set-a", "0", "--set-b", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error:")
