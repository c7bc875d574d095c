"""Seeded chaos campaigns: reproducible, and every scenario two-state."""

import pytest

from repro.faults.chaos import campaign_names, run_campaign
from repro.util.errors import ReproError


@pytest.fixture(scope="module")
def push_failures_report():
    return run_campaign("push-failures", seed=7)


class TestCampaignCatalog:
    def test_names(self):
        assert campaign_names() == [
            "adversarial", "approvals", "canary", "monitor-timeouts",
            "push-failures", "smoke", "tenants",
        ]

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ReproError, match="unknown campaign"):
            run_campaign("nope", seed=7)


class TestPushFailures:
    def test_campaign_passes(self, push_failures_report):
        failed = [
            outcome.label for outcome in push_failures_report.scenarios
            if not outcome.ok
        ]
        assert not failed, f"scenarios failed: {failed}"

    def test_every_scenario_is_two_state(self, push_failures_report):
        for outcome in push_failures_report.scenarios:
            assert outcome.outcome in ("committed", "rolled-back"), (
                f"{outcome.label}: third outcome {outcome.outcome!r}"
            )
            assert outcome.state_invariant, outcome.label
            assert outcome.audit_intact, outcome.label

    def test_transient_fault_is_retried_to_commit(self, push_failures_report):
        outcome = self._scenario(push_failures_report, "transient-retried")
        assert outcome.outcome == "committed"
        assert outcome.resolved
        assert outcome.faults_fired  # the fault really fired

    def test_fatal_fault_rolls_back(self, push_failures_report):
        outcome = self._scenario(push_failures_report, "fatal-rollback")
        assert outcome.outcome == "rolled-back"
        assert not outcome.resolved
        assert outcome.rollback_reason

    def test_crash_is_resumed_to_commit(self, push_failures_report):
        outcome = self._scenario(push_failures_report, "crash-mid-push-resume")
        assert outcome.crashed
        assert outcome.resumed
        assert outcome.outcome == "committed"
        assert outcome.resolved

    def test_audit_failure_fails_closed(self, push_failures_report):
        outcome = self._scenario(push_failures_report, "audit-fail-closed")
        assert outcome.outcome == "rolled-back"
        assert outcome.audit_intact

    def test_metrics_surface_fault_paths(self, push_failures_report):
        metrics = push_failures_report.metrics
        assert metrics["faults.injected"] > 0
        assert metrics["push.rollbacks"] >= 2
        assert metrics["push.resumes"] >= 1
        assert metrics["retry.attempts"] > 0

    @staticmethod
    def _scenario(report, label):
        return next(o for o in report.scenarios if o.label == label)


class TestReproducibility:
    def test_same_seed_same_report(self):
        first = run_campaign("monitor-timeouts", seed=7)
        second = run_campaign("monitor-timeouts", seed=7)
        assert first.to_dict() == second.to_dict()

    def test_probabilistic_campaign_is_seed_deterministic(self):
        # timeout-storm fires monitor timeouts with probability 0.4.
        first = run_campaign("monitor-timeouts", seed=11)
        second = run_campaign("monitor-timeouts", seed=11)
        assert first.to_dict() == second.to_dict()
        assert first.ok


class TestSmoke:
    def test_smoke_campaign_passes(self):
        report = run_campaign("smoke", seed=7)
        assert report.ok
        assert len(report.scenarios) == 7


class TestApprovals:
    @pytest.fixture(scope="class")
    def approvals_report(self):
        return run_campaign("approvals", seed=7)

    def test_campaign_passes(self, approvals_report):
        failed = [
            outcome.label for outcome in approvals_report.scenarios
            if not outcome.ok
        ]
        assert not failed, f"scenarios failed: {failed}"
        assert len(approvals_report.scenarios) == 11

    def test_clean_quorum_commits_with_intact_replicas(
        self, approvals_report,
    ):
        outcome = self._scenario(approvals_report, "quorum-approves-clean")
        assert outcome.outcome == "committed"
        assert outcome.resolved
        assert outcome.audit_status == "intact"
        assert outcome.approval_ok

    def test_unresponsive_quorum_never_pushes(self, approvals_report):
        outcome = self._scenario(approvals_report, "quorum-timeout-denies")
        assert outcome.outcome == "not-imported"
        assert outcome.state_invariant  # byte-identical to pre-push
        assert not outcome.resolved

    def test_break_glass_override_commits_flagged(self, approvals_report):
        outcome = self._scenario(approvals_report, "break-glass-override")
        assert outcome.outcome == "committed"
        assert outcome.faults_fired  # the approvers really crashed
        assert approvals_report.metrics["approvals.break_glass"] >= 1

    def test_crash_after_approval_resumes_without_rerequest(
        self, approvals_report,
    ):
        outcome = self._scenario(
            approvals_report, "crash-after-approval-resume"
        )
        assert outcome.crashed
        assert outcome.resumed
        assert outcome.outcome == "committed"
        assert outcome.approval_ok  # exactly one proposed record

    def test_tampered_minority_is_detected_and_served_around(
        self, approvals_report,
    ):
        outcome = self._scenario(approvals_report, "replica-tamper-minority")
        assert outcome.outcome == "committed"
        assert outcome.audit_status == "degraded"
        assert outcome.audit_flagged  # detection IS the success condition
        assert any("chain broken" in flag for flag in outcome.audit_flagged)

    def test_quorum_loss_fails_closed(self, approvals_report):
        outcome = self._scenario(approvals_report, "replica-crash-quorum-lost")
        assert outcome.outcome == "not-imported"
        assert outcome.audit_status == "lost"
        assert outcome.state_invariant

    def test_metrics_surface_the_gate(self, approvals_report):
        metrics = approvals_report.metrics
        assert metrics["approvals.requested"] >= 10
        assert metrics["approvals.granted"] > 0
        assert metrics["approvals.denied"] >= 3
        assert metrics["approvals.mediated"] >= 1
        assert metrics["approvals.timeouts"] >= 2
        assert metrics["audit.replica.appends"] > 0
        assert metrics["audit.replica.flagged"] > 0
        assert metrics["audit.replica.quorum_lost"] >= 1

    def test_same_seed_same_report(self, approvals_report):
        again = run_campaign("approvals", seed=7)
        assert approvals_report.to_dict() == again.to_dict()

    @staticmethod
    def _scenario(report, label):
        return next(o for o in report.scenarios if o.label == label)


class TestCanary:
    @pytest.fixture(scope="class")
    def canary_report(self):
        return run_campaign("canary", seed=7)

    def test_campaign_passes(self, canary_report):
        failed = [
            outcome.label for outcome in canary_report.scenarios
            if not outcome.ok
        ]
        assert not failed, f"scenarios failed: {failed}"

    def test_clean_push_commits_every_wave(self, canary_report):
        outcome = self._scenario(canary_report, "canary-clean")
        assert outcome.outcome == "committed"
        assert outcome.resolved
        assert outcome.waves == 2
        assert outcome.wave_records_ok
        assert not outcome.quarantined

    def test_probe_failure_quarantines_and_rolls_back(self, canary_report):
        outcome = self._scenario(canary_report, "probe-fail-quarantine")
        assert outcome.outcome == "rolled-back"
        assert outcome.state_invariant  # byte-identical to pre-push
        assert outcome.quarantined
        assert "HealthProbeError" in outcome.rollback_reason

    def test_breaker_trip_quarantines_the_flapper(self, canary_report):
        outcome = self._scenario(canary_report, "device-flap-breaker")
        assert outcome.outcome == "rolled-back"
        assert outcome.quarantined
        assert "CircuitOpenError" in outcome.rollback_reason

    def test_flaps_within_budget_still_commit(self, canary_report):
        outcome = self._scenario(canary_report, "flap-within-budget")
        assert outcome.outcome == "committed"
        assert outcome.resolved
        assert not outcome.quarantined
        assert outcome.faults_fired  # the flaps really happened

    def test_midwave_crash_resumes_to_commit(self, canary_report):
        outcome = self._scenario(canary_report, "crash-midwave-resume")
        assert outcome.crashed
        assert outcome.resumed
        assert outcome.outcome == "committed"
        assert outcome.resolved
        # Every wave — including the one replayed by resume() — left an
        # allowed audit record.
        assert outcome.wave_records_ok

    def test_rollout_metrics_surface(self, canary_report):
        metrics = canary_report.metrics
        assert metrics["rollout.waves"] > 0
        assert metrics["rollout.probes"] > 0
        assert metrics["rollout.quarantined"] >= 2
        assert metrics["rollout.breaker.trips"] >= 1

    def test_same_seed_same_report(self, canary_report):
        again = run_campaign("canary", seed=7)
        assert canary_report.to_dict() == again.to_dict()

    @staticmethod
    def _scenario(report, label):
        return next(o for o in report.scenarios if o.label == label)
