"""scripts/bench.py still runs against the current cmrf: its child measurement, in process, at the paper scale."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
SCALE = "10/21/12"
SCALE_FIELDS = (
    "num_pairs", "cli_scan_s", "cli_scan_text_s", "cli_pair_ms", "build_cmrf_ms",
    "find_cancellations_ms", "assemble_ms", "conditional_queries", "conditional_separated",
    "conditional_ms_per_query", "separation_us_per_query",
)
PAIR_STAGES = ("parser", "load_model", "incidence", "build_precision", "build_cmrf",
               "separation", "report")
SETUP_STAGES = ("min_valid_k", "build_precision", "noise_factor", "setup_run")


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "path", list(sys.path))  # measure() adds perfbench/
    for name, value in [("SCALES", [(10, 21, 12)]), ("KERNEL_SHAPES", [(10, 21, 12)]),
                        ("REPEATS", 1), ("SETUP_MODELS", 1), ("LOOPS", 1),
                        ("GENERATE_SEEDS", (7, 11))]:
        monkeypatch.setattr(module, name, value)
    return module


def positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def test_child_measurement_gives_every_kept_field(bench, tmp_path):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    bench.write_complexes(inputs)
    reading = bench.measure(inputs, out)
    # both sides read the same child; two readings, as quartiles need two values
    doc = bench.report({"before": [reading, reading], "after": [reading, reading]},
                       reading, {"before": out, "after": out})

    scale = doc["scales"][SCALE]
    for side in ("before", "after"):
        fields = scale[side]
        assert all(positive(fields[name]) for name in SCALE_FIELDS), fields
        assert all(positive(fields["pair_stages_ms"][name]) for name in PAIR_STAGES)
        for stage in SETUP_STAGES:
            quartiles = doc["setup"][SCALE][stage][f"{side}_ms"]
            assert len(quartiles) == 3 and all(map(positive, quartiles))
    assert scale["num_pairs"] == 20 and scale["after"]["conditional_queries"] == 200
    assert positive(scale["cli_scan_speedup"])
    assert len(scale["scan_json_s"]) == 2 and all(map(math.isfinite, scale["scan_json_s"]))

    generate = doc["generate"]
    for side in ("before", "after"):
        assert len(generate[f"{side}_s"]) == 3 and all(map(positive, generate[f"{side}_s"]))
    assert positive(generate["speedup"]) and generate["complexes_identical"] is True
    assert len(reading["generate"]["seconds"]) == 2

    simulate = doc["simulate"][SCALE]
    assert all(map(positive, simulate["before_s"] + simulate["after_s"]))
    assert all(map(positive, simulate["mc_rounds_per_s"]))
    assert simulate["csv_identical"]
    assert set(simulate["max_rel_diff"].values()) == {0.0}

    for setting in ("default_threads", "one_thread"):
        kernel = doc["kernel"][setting][SCALE]
        assert positive(kernel["dense_us"]) and positive(kernel["factored_us"])
        assert kernel["max_rel_diff"] < 1e-14
        assert kernel["factored_by_rule"] is False
        couplings = doc["couplings"][setting][SCALE]
        assert couplings["factored_by_rule"] is False
        for g in bench.GROUPS:
            assert positive(couplings[f"g{g}"]["dense_us"])
            assert positive(couplings[f"g{g}"]["factored_us"])
            assert couplings[f"g{g}"]["max_rel_diff"] < 1e-14


def test_child_without_an_output_directory_measures_only_the_kernels(bench, tmp_path):
    bench.write_complexes(tmp_path)
    reading = bench.measure(tmp_path)
    assert not (reading["scales"] or reading["setup"] or reading["generate"]
                or reading["simulate"])
    assert list(reading["kernel"]) == list(reading["couplings"]) == [SCALE]
