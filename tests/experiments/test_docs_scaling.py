"""docs/SCALING.md must track the generator, compile path, and benchmark code.

The handbook documents public constants, CLI flags, and every key of
``BENCH_scale.json``; this check (part of ``make docs-check``) fails when
code moves and the handbook doesn't.
"""

import json
import re
from pathlib import Path

import pytest

from repro.experiments.bench_check import TOLERANCE
from repro.obs import registry
from repro.experiments.bench_scale import (
    DEFAULT_REPEATS,
    DEFAULT_SIZE,
    run_scale_benchmark,
)
from repro.scenarios.generate import SHAPES

ROOT = Path(__file__).resolve().parents[2]
DOCS = ROOT / "docs" / "SCALING.md"
REPORT = ROOT / "BENCH_scale.json"


def report_keys():
    """Every key path of the scale report, committed or freshly built."""
    if REPORT.exists():
        report = json.loads(REPORT.read_text())
    else:  # first run on a branch that never produced one
        report = run_scale_benchmark(size=60, shape="hub-spoke", repeats=1)
    keys = set()
    for section, value in report.items():
        keys.add(section)
        if isinstance(value, dict):
            keys.update(value)
    return keys


@pytest.mark.docs_check
class TestScalingHandbook:
    def test_exists(self):
        assert DOCS.exists(), "docs/SCALING.md missing"

    def test_every_shape_documented(self):
        text = DOCS.read_text()
        for shape in SHAPES:
            assert f"`{shape}`" in text, f"shape {shape} not documented"

    def test_constants_current(self):
        text = DOCS.read_text()
        assert f"default size {DEFAULT_SIZE}" in text, (
            "documented default size is stale"
        )
        assert f"default {DEFAULT_REPEATS} repeats" in text, (
            "documented default repeat count is stale"
        )
        assert f"within {TOLERANCE:.0%}" in text, (
            "documented gate tolerance is stale"
        )

    def test_every_report_key_documented(self):
        text = DOCS.read_text()
        documented = set(re.findall(r"`([a-z_.]+)`", text))
        missing = report_keys() - documented
        assert not missing, f"BENCH_scale.json keys not in handbook: {missing}"

    def test_instrumentation_cross_referenced(self):
        text = DOCS.read_text()
        for name in (
            "dataplane.build.ms", "dataplane.build.cold",
            "dataplane.build.incremental", "dataplane.deps.spf_full",
            "dataplane.deps.spf_delta", "dataplane.deps.spf_reused",
        ):
            assert f"`{name}`" in text, f"{name} not documented"
            assert registry().get(name) is not None, f"{name} not registered"

    def test_reference_compiler_cross_referenced(self):
        text = DOCS.read_text()
        for path in (
            "tests/control/reference.py",
            "tests/control/test_reference_equivalence.py",
        ):
            assert path in text
            assert (ROOT / path).exists(), f"{path} moved"
