"""Tests of the benchmark's own logic, and a smoke run of every workload."""

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_subtract_merged_children():
    trace = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("b", 20, 50, 0, 0),  # overlaps a: the union 10..50 is covered once
        ("a.inner", 12, 14, 1, 0),
        ("late", 90, 120, 0, 0),  # clipped to the parent's end
    ]
    assert [round(s * 1e9) for s in spans.self_times(trace)] == [50, 18, 30, 2, 30]


def test_tracer_nests_spans_and_counts():
    tracer = spans.Tracer(iteration=3)

    def inner():
        tracer.count("calls")
        return tracer.call("inner", lambda: 7, (), {})

    assert tracer.call("outer", inner, (), {}) == 7
    assert [(name, parent, it) for name, _, _, parent, it in tracer.spans] == [
        ("outer", -1, 3),
        ("inner", 0, 3),
    ]
    assert tracer.counters == {"calls": 1}


def test_metric_names_and_units_match_benchmark_json():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


def test_predicted_ch_limits():
    settings = (0.0, 3 * math.pi / 4, 3 * math.pi / 8, math.pi / 8)
    ideal = checks.predicted_ch(1.0, 1.0, 0.0, 1e-9, settings)
    assert abs(ideal - (math.sqrt(2) - 1) / 2) < 1e-12
    assert checks.predicted_ch(1.0, 1.0, 1.0, 0.1, settings) == pytest.approx(-0.5)


def test_schema_subset_rejects_bad_reports():
    schema = json.loads(run.SCHEMA.read_text())
    config = {
        "seed": 1, "n_events": 1, "workers": 1, "eta_1": 1.0, "eta_2": 1.0,
        "background_fraction": 0.0, "br_weight": 1.0, "m_parent": 2.98, "m_vector": 1.02,
        "settings": [0.0] * 4, "bin_width": 0.1, "output_dir": ".",
    }
    good = {"kind": "kinematics", "config": config, "beta": 0.73, "space_like_ok": True,
            "beta_min": 0.59}
    assert checks.schema_errors(good, schema) == []
    assert checks.schema_errors({**good, "beta": 1.5}, schema) != []
    assert checks.schema_errors({**good, "config": {**config, "seed": True}}, schema) != []
    assert checks.schema_errors({**good, "kind": "hardy"}, schema) != []
    assert checks.schema_errors(good, {"if": {}}) == ["$: schema keyword 'if' is not supported"]


def _run(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_has_no_errors(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", trace, "--scale", "0.001")
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert detail["perfbench"]["error_rate"] == 0, detail["perfbench"]["failures"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in metrics.values())
    elif workload == "pipeline":
        assert metrics["mesonlab.derive_kappa.cold_calls"] == 2
        assert metrics["qcore.born_probability.calls"] == 2 * 2048
        assert metrics["mesonlab.write_events_csv.mb_per_s"] > 0
        assert 0.7 < metrics["mesonlab.coincidence_fraction"] < 0.9
    else:
        assert metrics["search.objective_calls"] > 1000
        assert metrics["spin1.maximize_ch_vv.self_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = _run("--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
