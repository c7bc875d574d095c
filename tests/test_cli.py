"""CLI tests (python -m repro ...)."""

import io

import pytest

from repro.cli import main


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestShow:
    def test_enterprise_summary(self):
        code, text = run("show", "--network", "enterprise")
        assert code == 0
        assert "routers: 9" in text
        assert "links: 22" in text
        assert "gw" in text

    def test_unknown_network(self):
        code, text = run("show", "--network", "atlantis")
        assert code == 2
        assert "error:" in text

    def test_snapshot_directory_input(self, tmp_path):
        code, _ = run("snapshot", "--network", "enterprise", str(tmp_path / "s"))
        assert code == 0
        code, text = run("show", "--network", str(tmp_path / "s"))
        assert code == 0
        assert "routers: 9" in text


class TestPolicies:
    def test_lists_policies(self):
        code, text = run("policies", "--network", "enterprise")
        assert code == 0
        assert "policies mined" in text
        assert "[reachability" in text
        assert "[isolation" in text

    def test_waypoints_flag(self):
        code, text = run("policies", "--network", "enterprise", "--waypoints")
        assert code == 0
        assert "[waypoint" in text

    def test_robust_flag_reduces_count(self):
        _, base = run("policies", "--network", "enterprise")
        _, robust = run("policies", "--network", "enterprise", "--robust")
        base_count = int(base.split()[0])
        robust_count = int(robust.split()[0])
        assert robust_count < base_count


class TestIssues:
    def test_lists_three(self):
        code, text = run("issues", "--network", "enterprise")
        assert code == 0
        for issue_id in ("ospf", "isp", "vlan"):
            assert issue_id in text


class TestResolve:
    @pytest.mark.parametrize("workflow", ["current", "heimdall"])
    def test_resolves_isp_issue(self, workflow):
        code, text = run(
            "resolve", "--network", "enterprise",
            "--issue", "isp", "--workflow", workflow,
        )
        assert code == 0
        assert "resolved: True" in text

    def test_heimdall_reports_steps(self):
        code, text = run("resolve", "--network", "enterprise", "--issue", "isp")
        assert "twin setup" in text
        assert "changes imported" in text

    def test_unknown_issue(self):
        code, text = run("resolve", "--network", "enterprise",
                         "--issue", "gremlins")
        assert code == 1
        assert "unknown issue" in text


class TestSnapshot:
    def test_writes_directory(self, tmp_path):
        target = tmp_path / "snap"
        code, text = run("snapshot", "--network", "enterprise", str(target))
        assert code == 0
        assert (target / "topology.json").exists()
        assert (target / "configs" / "gw.cfg").exists()


class TestObsReport:
    def test_human_report(self):
        code, text = run("obs", "report", "--network", "enterprise",
                         "--issue", "ospf")
        assert code == 0
        assert "resolved=True" in text
        assert "traces: 1" in text
        assert "heimdall.session" in text
        assert "monitor.execute" in text
        assert "enforcer.verify" in text
        assert "monitor.commands" in text
        assert "chain intact" in text

    def test_json_report(self):
        import json

        code, text = run("obs", "report", "--network", "enterprise",
                         "--issue", "ospf", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["scenario"]["resolved"] is True
        assert payload["audit"]["chain_intact"] is True
        assert payload["audit"]["correlated"] > 0
        (trace,) = payload["traces"]
        assert trace["name"] == "heimdall.session"
        assert trace["children"]
        assert payload["metrics"]["monitor.commands"]["value"] > 0

    def test_writes_json_file(self, tmp_path):
        import json

        target = tmp_path / "obs.json"
        code, text = run("obs", "report", "--network", "enterprise",
                         "--issue", "vlan", "-o", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["scenario"]["issue"] == "vlan"

    def test_unknown_issue(self):
        code, text = run("obs", "report", "--network", "enterprise",
                         "--issue", "gremlins")
        assert code == 1
        assert "unknown issue" in text

    def test_observability_left_disabled(self):
        from repro import obs

        run("obs", "report", "--network", "enterprise", "--issue", "ospf")
        assert not obs.enabled()
        obs.reset()


class TestBenchConcurrent:
    def test_stress_smoke_writes_report(self, tmp_path):
        import json

        from repro.util import rand

        out_path = tmp_path / "stress.json"
        code, text = run(
            "bench", "--concurrent", "2", "--seed", "7",
            "-o", str(out_path),
        )
        rand.reset()
        assert code == 0
        assert "[ok" in text and "[FAIL" not in text
        report = json.loads(out_path.read_text())
        assert report["ok"] is True
        assert report["sessions"] == 2

    def test_rejects_bad_session_count(self, tmp_path, monkeypatch):
        # Zero is rejected like a negative count; it must not fall through
        # to the default perf suite, which writes BENCH_dataplane.json.
        monkeypatch.chdir(tmp_path)
        for count in ("0", "-3"):
            code, text = run("bench", "--concurrent", count)
            assert code != 0, count
            assert "at least one session" in text, count
            assert list(tmp_path.iterdir()) == [], count

    def test_rejects_bad_scale_and_tenant_counts(self, tmp_path, monkeypatch):
        # Zero is a size like any other, not "flag not given": it must be
        # rejected instead of running the perf suite.
        monkeypatch.chdir(tmp_path)
        for flag, error in (
            ("--scale", "size must be >= 40 devices"),
            ("--tenants", "need at least one session"),
        ):
            for count in ("0", "-3"):
                code, text = run("bench", flag, count, "--repeats", "1")
                assert code != 0, (flag, count)
                assert error in text, (flag, count)
                assert list(tmp_path.iterdir()) == [], (flag, count)


class TestChaosCli:
    def test_list_names_only(self):
        from repro.faults.chaos import campaign_names

        code, text = run("chaos", "--list")
        assert code == 0
        assert text.splitlines() == [
            "adversarial", "approvals", "canary", "monitor-timeouts",
            "push-failures", "smoke", "tenants",
        ]
        assert text.splitlines() == campaign_names()

    def test_list_campaigns_shows_scenarios(self):
        from repro.faults.chaos import campaign_names

        code, text = run("chaos", "--list-campaigns")
        assert code == 0
        assert "canary (5 scenarios)" in text
        assert "probe-fail-quarantine [staged]: expect rolled-back" in text
        assert "push-failures (5 scenarios)" in text
        # Monolithic scenarios are not marked staged.
        assert "transient-retried: expect committed" in text
        # The quorum-approvals campaign and its headline scenarios.
        assert "approvals (11 scenarios)" in text
        assert "quorum-timeout-denies: expect not-imported" in text
        assert "replica-tamper-minority: expect committed" in text
        # Every registered campaign appears in the listing.
        for name in campaign_names():
            assert f"{name} (" in text

    def test_matrix_sweeps_every_campaign_across_seeds(self, monkeypatch):
        import repro.faults.chaos as chaos_module

        ran = []

        class _StubOutcome:
            ok = True

        class _StubReport:
            ok = True
            scenarios = [_StubOutcome()]

        def fake_run_campaign(name, seed):
            ran.append((name, seed))
            return _StubReport()

        monkeypatch.setattr(
            chaos_module, "campaign_names", lambda: ["alpha", "beta"]
        )
        monkeypatch.setattr(chaos_module, "run_campaign", fake_run_campaign)
        code, text = run("chaos", "--matrix", "--seed", "3", "--seeds", "2")
        assert code == 0
        assert ran == [
            ("alpha", 3), ("alpha", 4), ("beta", 3), ("beta", 4),
        ]
        assert "matrix PASSED: 2 campaigns x 2 seeds" in text

    def test_matrix_fails_when_any_cell_fails(self, monkeypatch):
        import repro.faults.chaos as chaos_module

        class _StubOutcome:
            ok = False

        class _StubReport:
            ok = False
            scenarios = [_StubOutcome()]

        monkeypatch.setattr(
            chaos_module, "campaign_names", lambda: ["alpha"]
        )
        monkeypatch.setattr(
            chaos_module, "run_campaign", lambda name, seed: _StubReport()
        )
        code, text = run("chaos", "--matrix", "--seeds", "1")
        assert code == 1
        assert "matrix FAILED: alpha@7" in text


class TestAuditCli:
    def test_export_then_verify_replicated_chains(self, tmp_path):
        import json

        target = tmp_path / "chains.json"
        code, text = run(
            "audit", "export", "--network", "enterprise", "--issue", "ospf",
            "--replicas", "3", "-o", str(target),
        )
        assert code == 0
        assert "exported 3 chains" in text
        payload = json.loads(target.read_text())
        assert payload["quorum"] == 2
        assert len(payload["replicas"]) == 3

        code, text = run("audit", "verify", str(target))
        assert code == 0
        assert text.count("[ok    ]") == 3
        assert "quorum verdict: intact (3/3 chains agree, quorum 2)" in text

    def test_tampered_replica_is_caught_offline(self, tmp_path):
        target = tmp_path / "tampered.json"
        code, _ = run(
            "audit", "export", "--network", "enterprise", "--issue", "ospf",
            "--replicas", "3", "--tamper", "1", "-o", str(target),
        )
        assert code == 0
        code, text = run("audit", "verify", str(target))
        assert code == 1
        assert "[BROKEN] audit-replica-1: first broken MAC link" in text
        assert "quorum verdict: degraded (2/3 chains agree" in text

    def test_single_chain_export_verifies(self, tmp_path):
        target = tmp_path / "single.json"
        code, text = run(
            "audit", "export", "--network", "enterprise", "--issue", "ospf",
            "-o", str(target),
        )
        assert code == 0
        assert "exported 1 chain " in text
        code, text = run("audit", "verify", str(target))
        assert code == 0
        assert "quorum verdict: intact (1/1 chains agree, quorum 1)" in text

    def test_unknown_issue(self, tmp_path):
        code, text = run(
            "audit", "export", "--network", "enterprise",
            "--issue", "gremlins", "-o", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "unknown issue" in text


class TestBenchRollout:
    def test_rollout_bench_writes_report(self, tmp_path):
        import json

        out_path = tmp_path / "rollout.json"
        code, text = run(
            "bench", "--rollout", "--repeats", "1", "-o", str(out_path),
        )
        assert code == 0
        assert "monolithic" in text and "canary" in text
        report = json.loads(out_path.read_text())
        rows = report["networks"]["enterprise"]
        assert rows["waves"] == 2
        assert rows["probes_per_push"] == 2
        push = rows["push"]
        assert push["monolithic_ms"] > 0
        assert push["canary_incremental_ms"] > 0
        assert push["canary_cold_ms"] > 0
