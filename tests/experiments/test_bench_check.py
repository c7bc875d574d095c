"""The bench --check regression gate: metric extraction and comparison."""

from repro.experiments.bench_check import (
    compare,
    dataplane_metrics,
    rollout_metrics,
)

DATAPLANE_REPORT = {
    "networks": {
        "university": {
            "compile": {"cold_ms": 20.0, "incremental_ms": 8.0},
            "verify": {
                "ospf": {"speedup": 4.0},
                "vlan": {"speedup": 3.2},
            },
        },
    },
    "acceptance": {
        "university_single_device_verify_speedup": 3.2,
        "target": 3.0,
    },
}

ROLLOUT_REPORT = {
    "networks": {
        "enterprise": {
            "push": {"probe_overhead_x": 2.1, "probe_speedup": 4.5},
        },
    },
}


class TestMetricExtraction:
    def test_dataplane_metrics(self):
        metrics = dataplane_metrics(DATAPLANE_REPORT)
        assert metrics["university.compile.speedup"] == (2.5, True, 2.0)
        assert metrics["university.verify.min_speedup"] == (3.2, True, 3.0)

    def test_rollout_metrics(self):
        metrics = rollout_metrics(ROLLOUT_REPORT)
        assert metrics["enterprise.push.probe_overhead_x"] == (2.1, False, 3.0)
        assert metrics["enterprise.push.probe_speedup"] == (4.5, True, None)


class TestCompare:
    def test_within_tolerance_passes(self):
        committed = {"m": (4.0, True, None)}
        assert compare(committed, {"m": (3.3, True, None)}) == []

    def test_higher_better_regression_fails(self):
        committed = {"m": (4.0, True, None)}
        failures = compare(committed, {"m": (3.0, True, None)})
        assert len(failures) == 1 and "m:" in failures[0]

    def test_lower_better_regression_fails(self):
        committed = {"m": (2.0, False, None)}
        assert compare(committed, {"m": (2.6, False, None)})
        assert compare(committed, {"m": (2.3, False, None)}) == []

    def test_acceptance_target_loosens_the_bound(self):
        # Committed 2.1 with a 3.0 ceiling: the gate allows up to
        # 3.0 * 1.2, not 2.1 * 1.2 — drift inside the acceptance
        # envelope is not a regression.
        committed = {"m": (2.1, False, 3.0)}
        assert compare(committed, {"m": (2.9, False, 3.0)}) == []
        assert compare(committed, {"m": (3.7, False, 3.0)})
        # And symmetrically for floors: committed 4.0, target 3.0.
        committed = {"m": (4.0, True, 3.0)}
        assert compare(committed, {"m": (2.5, True, 3.0)}) == []
        assert compare(committed, {"m": (2.3, True, 3.0)})

    def test_new_fresh_metrics_are_not_gated(self):
        committed = {"m": (4.0, True, None)}
        fresh = {"m": (4.0, True, None), "new": (1.0, True, None)}
        assert compare(committed, fresh) == []

    def test_missing_committed_metric_fails(self):
        # A gate the fresh run stops emitting must not pass silently.
        committed = {"gone": (4.0, True, None), "m": (4.0, True, None)}
        failures = compare(committed, {"m": (4.0, True, None)})
        assert len(failures) == 1 and "gone:" in failures[0]
        assert "missing" in failures[0]

    def test_improvements_pass(self):
        committed = {"m": (4.0, True, None), "n": (2.0, False, None)}
        fresh = {"m": (9.0, True, None), "n": (0.5, False, None)}
        assert compare(committed, fresh) == []
