"""The scale benchmark: report structure, gate metrics, and serialization."""

import json

import pytest

from repro.experiments.bench_check import scale_metrics
from repro.experiments.bench_scale import run_scale_benchmark, write_report
from repro.util.errors import ReproError


@pytest.fixture(scope="module")
def report():
    # Small and single-repeat: structure is what's under test here; the
    # committed BENCH_scale.json carries the real 500-device numbers.
    return run_scale_benchmark(size=60, shape="hub-spoke", seed=3, repeats=1)


class TestRunScaleBenchmark:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ReproError):
            run_scale_benchmark(shape="torus")
        with pytest.raises(ReproError):
            run_scale_benchmark(repeats=0)

    def test_report_sections(self, report):
        assert set(report) == {"generated", "compile", "verify", "repeats"}
        assert set(report["compile"]) == {
            "cold_ms", "incremental_ms", "incremental_speedup",
        }
        generated = report["generated"]
        assert generated["shape"] == "hub-spoke"
        assert generated["requested_size"] == 60
        assert generated["devices"] > 0
        assert generated["policies"] > 0

    def test_ratios_positive(self, report):
        compile_ = report["compile"]
        assert compile_["cold_ms"] > 0
        assert compile_["incremental_ms"] > 0
        assert compile_["incremental_speedup"] > 0
        assert report["verify"]["ms"] > 0
        assert report["verify"]["policies_per_s"] > 0


class TestScaleMetrics:
    def test_extracts_gated_ratios(self):
        committed = {
            "compile": {
                "cold_ms": 230.0, "incremental_ms": 92.0,
                "incremental_speedup": 2.5,
            },
        }
        assert scale_metrics(committed) == {
            "scale.compile.incremental_speedup": (2.5, True, None),
        }

    def test_empty_report_no_metrics(self):
        assert scale_metrics({}) == {}


class TestWriteReport:
    def test_round_trips_stable_json(self, report, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        write_report(report, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == report
