"""Staged canary rollouts: plans, probes, breakers, quarantine, resume."""

import ipaddress

import pytest

from repro import faults, obs
from repro.config.apply import apply_changes
from repro.config.diffing import diff_networks
from repro.config.model import StaticRoute
from repro.config.serializer import serialize_config
from repro.core.enforcer.audit import AuditTrail
from repro.core.enforcer.enclave import SimulatedEnclave
from repro.core.enforcer.rollout import (
    CircuitBreaker,
    HealthProbe,
    RolloutConfig,
    RolloutPlan,
)
from repro.core.enforcer.scheduler import ChangeScheduler
from repro.faults.registry import Rule
from repro.util import rand
from repro.util.errors import PushCrashed

from tests.fixtures import square_network


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    faults.disarm()
    rand.reset()
    obs.disable()
    obs.reset()


def _serialized(network):
    return {
        device: serialize_config(config)
        for device, config in network.configs.items()
    }


def _changes(mutate):
    production = square_network()
    modified = production.copy()
    mutate(modified)
    return production, diff_networks(production.configs, modified.configs)


def _three_devices(net):
    """Same-category changes on three devices -> three per-device waves."""
    net.config("r1").interface("Gi0/0").description = "wave-a"
    net.config("r2").interface("Gi0/0").description = "wave-b"
    net.config("r3").interface("Gi0/0").description = "wave-c"


def _two_categories_one_device(net):
    """An interface change and a static route on r1 -> one wave, two
    batches (the next hop is r2's live p2p address, so probes stay
    healthy)."""
    net.config("r1").interface("Gi0/0").description = "first"
    net.config("r1").static_routes.append(StaticRoute(
        prefix=ipaddress.ip_network("10.99.0.0/16"),
        next_hop=ipaddress.ip_address("10.0.12.2"),
    ))


def _expected_after(production, changes):
    expected = production.copy()
    apply_changes(expected.configs, changes)
    return _serialized(expected)


def _marker_kinds(journal):
    return [entry.kind for entry in journal.entries]


class TestRolloutPlan:
    def _batches(self, mutate):
        production, changes = _changes(mutate)
        return ChangeScheduler().schedule(changes)

    def test_flat_batches_is_a_permutation(self):
        batches = self._batches(_three_devices)
        plan = RolloutPlan.from_batches(batches, RolloutConfig())
        original = sorted(
            repr(change) for batch in batches for change in batch
        )
        planned = sorted(
            repr(change) for batch in plan.flat_batches for change in batch
        )
        assert planned == original

    def test_default_is_one_device_per_wave(self):
        plan = RolloutPlan.from_batches(
            self._batches(_three_devices), RolloutConfig()
        )
        assert [wave.devices for wave in plan.waves] == [
            ("r1",), ("r2",), ("r3",),
        ]

    def test_per_device_change_order_is_preserved(self):
        batches = self._batches(_two_categories_one_device)
        assert len(batches) == 2  # two categories
        plan = RolloutPlan.from_batches(batches, RolloutConfig())
        assert len(plan.waves) == 1
        flat = [
            change for batch in plan.flat_batches for change in batch
        ]
        scheduled = [change for batch in batches for change in batch]
        assert [repr(c) for c in flat] == [repr(c) for c in scheduled]

    def test_canary_devices_lead(self):
        plan = RolloutPlan.from_batches(
            self._batches(_three_devices),
            RolloutConfig(canary=("r3",)),
        )
        assert plan.device_order == ["r3", "r1", "r2"]
        assert plan.waves[0].devices == ("r3",)

    def test_wave_size_chunks_devices(self):
        plan = RolloutPlan.from_batches(
            self._batches(_three_devices), RolloutConfig(wave_size=2)
        )
        assert [wave.devices for wave in plan.waves] == [
            ("r1", "r2"), ("r3",),
        ]

    def test_wave_plan_roundtrips_to_plain_data(self):
        plan = RolloutPlan.from_batches(
            self._batches(_three_devices), RolloutConfig()
        )
        exported = plan.wave_plan()
        assert [entry["index"] for entry in exported] == [0, 1, 2]
        assert all(
            isinstance(entry["batch_indices"], list) for entry in exported
        )


class TestStagedPush:
    def test_clean_staged_push_matches_monolithic_result(self):
        production, changes = _changes(_three_devices)
        expected = _expected_after(production, changes)
        trail = AuditTrail(SimulatedEnclave())
        report = ChangeScheduler().push(
            production, changes, audit=trail, rollout=RolloutConfig()
        )
        assert report.committed
        assert report.waves == 3
        assert len(report.probes) == 3
        assert all(probe.healthy for probe in report.probes)
        assert _serialized(production) == expected

    def test_wave_markers_journaled_in_order(self):
        # The default config interleaves apply, probe and commit per wave.
        production, changes = _changes(_three_devices)
        report = ChangeScheduler().push(
            production, changes, rollout=RolloutConfig()
        )
        kinds = _marker_kinds(report.journal)
        assert kinds == [
            "intent",
            "wave-start", "batch-start", "batch-committed", "probe",
            "wave-committed",
            "wave-start", "batch-start", "batch-committed", "probe",
            "wave-committed",
            "wave-start", "batch-start", "batch-committed", "probe",
            "wave-committed",
            "done",
        ]
        assert report.journal.committed_waves == {0, 1, 2}

    def test_every_wave_writes_an_allowed_audit_record(self):
        production, changes = _changes(_three_devices)
        trail = AuditTrail(SimulatedEnclave())
        ChangeScheduler().push(
            production, changes, audit=trail, actor="SES-9",
            rollout=RolloutConfig(),
        )
        waves = [r for r in trail.records if r.action == "enforcer.wave"]
        assert [r.resource for r in waves] == [
            "production:wave:0", "production:wave:1", "production:wave:2",
        ]
        assert all(r.allowed and r.actor == "SES-9" for r in waves)
        assert trail.verify()

    def test_probe_failure_quarantines_wave_and_rolls_back(self):
        production, changes = _changes(_three_devices)
        pre_push = _serialized(production)
        trail = AuditTrail(SimulatedEnclave())
        faults.arm({"rollout.wave.probe_fail": Rule(nth=2)}, seed=7)
        report = ChangeScheduler().push(
            production, changes, audit=trail, rollout=RolloutConfig()
        )
        assert report.status == "rolled-back"
        assert "HealthProbeError" in report.rollback_reason
        assert report.quarantined == ["r2"]
        assert _serialized(production) == pre_push
        # Wave 0 committed healthy, wave 1 failed; both are on the trail,
        # and the rollback record names the quarantine.
        waves = [r for r in trail.records if r.action == "enforcer.wave"]
        assert [(r.resource, r.allowed) for r in waves] == [
            ("production:wave:0", True), ("production:wave:1", False),
        ]
        rollback = next(
            r for r in trail.records if r.action == "enforcer.rollback"
        )
        assert "quarantined: r2" in rollback.command
        assert trail.verify()

    def test_breaker_trip_quarantines_the_flapping_device(self):
        production, changes = _changes(_three_devices)
        pre_push = _serialized(production)
        faults.arm(
            {"rollout.device.flap": Rule(probability=1.0, times=99)}, seed=7
        )
        report = ChangeScheduler().push(
            production, changes, rollout=RolloutConfig(flap_budget=2)
        )
        assert report.status == "rolled-back"
        assert "CircuitOpenError" in report.rollback_reason
        assert report.quarantined == ["r1"]
        assert _serialized(production) == pre_push

    def test_probe_failure_stops_before_the_next_wave(self):
        # A failed probe on wave 1 must stop the push before wave 2
        # touches production: no batch of wave 2 ever starts.
        production, changes = _changes(_three_devices)
        pre_push = _serialized(production)
        faults.arm({"rollout.wave.probe_fail": Rule(nth=2)}, seed=7)
        report = ChangeScheduler().push(
            production, changes, rollout=RolloutConfig()
        )
        assert report.status == "rolled-back"
        assert report.quarantined == ["r2"]
        assert _serialized(production) == pre_push
        journal = report.journal
        assert journal.committed_waves == {0}
        wave_two = set(journal.wave_plan[2]["batch_indices"])
        started = {
            entry.batch_index for entry in journal.entries
            if entry.kind == "batch-start"
        }
        assert started and not started & wave_two
        assert 2 not in {
            entry.wave_index for entry in journal.entries
            if entry.kind == "wave-start"
        }

    def test_unhealthy_probe_rolls_back(self):
        # A real (not fault-injected) probe failure: r2's wave installs a
        # static route to a next hop nobody owns, and the verdict
        # quarantines exactly r2's wave.
        production = square_network()
        modified = production.copy()
        modified.config("r1").interface("Gi0/0").description = "wave-a"
        modified.config("r2").static_routes.append(StaticRoute(
            prefix=ipaddress.ip_network("10.99.0.0/16"),
            next_hop=ipaddress.ip_address("10.0.23.99"),
        ))
        modified.config("r3").interface("Gi0/0").description = "wave-c"
        changes = diff_networks(production.configs, modified.configs)
        pre_push = _serialized(production)
        report = ChangeScheduler().push(
            production, changes, rollout=RolloutConfig()
        )
        assert report.status == "rolled-back"
        assert report.quarantined == ["r2"]
        assert _serialized(production) == pre_push

    def test_flaps_within_budget_retry_to_commit(self):
        production, changes = _changes(_three_devices)
        expected = _expected_after(production, changes)
        faults.arm({"rollout.device.flap": Rule(nth=1, times=2)}, seed=7)
        report = ChangeScheduler().push(
            production, changes, rollout=RolloutConfig()
        )
        assert report.committed
        assert not report.quarantined
        assert _serialized(production) == expected


class TestHealthProbe:
    def test_probe_reports_newly_dead_route(self):
        production = square_network()
        probe = HealthProbe.for_push(production, config=RolloutConfig())
        # A wave "applied" a static route to a next hop nobody owns.
        production.config("r1").static_routes.append(StaticRoute(
            prefix=ipaddress.ip_network("10.99.0.0/16"),
            next_hop=ipaddress.ip_address("10.0.12.99"),
        ))
        result = probe.check(production, {"r1"}, wave_index=0)
        assert not result.healthy
        assert any("10.0.12.99" in dead for dead in result.dead_routes)
        assert "UNHEALTHY" in result.summary()

    def test_probe_ignores_preexisting_dead_routes(self):
        production = square_network()
        production.config("r1").static_routes.append(StaticRoute(
            prefix=ipaddress.ip_network("10.98.0.0/16"),
            next_hop=ipaddress.ip_address("10.0.12.99"),
        ))
        probe = HealthProbe.for_push(production, config=RolloutConfig())
        production.config("r2").interface("Gi0/0").description = "wave"
        result = probe.check(production, {"r2"}, wave_index=0)
        assert result.healthy

    def test_live_next_hop_probes_healthy(self):
        production = square_network()
        probe = HealthProbe.for_push(production, config=RolloutConfig())
        production.config("r1").static_routes.append(StaticRoute(
            prefix=ipaddress.ip_network("10.99.0.0/16"),
            next_hop=ipaddress.ip_address("10.0.12.2"),
        ))
        result = probe.check(production, {"r1"}, wave_index=0)
        assert result.healthy
        assert "healthy" in result.summary()


class TestCircuitBreaker:
    def test_trips_exactly_at_budget(self):
        breaker = CircuitBreaker(budget=2)
        assert not breaker.record("r1")
        assert not breaker.tripped("r1")
        assert breaker.record("r1")  # second failure spends the budget
        assert breaker.tripped("r1")
        assert not breaker.tripped("r2")

    def test_counts_are_per_device(self):
        breaker = CircuitBreaker(budget=2)
        breaker.record("r1")
        breaker.record("r2")
        assert not breaker.tripped("r1")
        assert not breaker.tripped("r2")


class TestResumeBoundaries:
    """resume() when the journal ends exactly on a batch/wave marker."""

    def test_resume_when_journal_ends_on_wave_start(self):
        # MIDWAVE nth=2 crashes at wave 1's first batch: the journal's
        # last markers are `wave-committed 0`, `wave-start 1` — wave 0 is
        # fully committed, wave 1 never mutated production.
        production, changes = _changes(_three_devices)
        expected = _expected_after(production, changes)
        trail = AuditTrail(SimulatedEnclave())
        faults.arm({"rollout.crash.midwave": Rule(nth=2)}, seed=7)
        scheduler = ChangeScheduler()
        with pytest.raises(PushCrashed) as excinfo:
            scheduler.push(
                production, changes, audit=trail, rollout=RolloutConfig(),
            )
        journal = excinfo.value.journal
        assert _marker_kinds(journal)[-2:] == ["wave-committed", "wave-start"]
        assert journal.committed_waves == {0}
        assert journal.committed == {0}
        faults.disarm()

        report = scheduler.resume(production, journal, audit=trail)
        assert report.resumed
        assert report.committed
        assert _serialized(production) == expected
        # Wave 0 was not replayed: batch 0 has exactly one start/commit
        # marker pair, and its probe ran exactly once.
        kinds = _marker_kinds(journal)
        assert kinds.count("batch-start") == 3
        assert kinds.count("batch-committed") == 3
        assert kinds.count("probe") == 3
        # Resume re-probed waves 1 and 2, so every wave has an allowed
        # audit record.
        waves = [
            r.resource for r in trail.records
            if r.action == "enforcer.wave" and r.allowed
        ]
        assert waves == [
            "production:wave:0", "production:wave:1", "production:wave:2",
        ]

    def test_resume_when_journal_ends_on_batch_committed(self):
        # One wave, two batches: MIDWAVE nth=2 crashes between the wave's
        # batches, so the journal ends exactly on `batch-committed 0` —
        # inside a wave, with no wave-committed marker and no probe yet.
        production, changes = _changes(_two_categories_one_device)
        expected = _expected_after(production, changes)
        faults.arm({"rollout.crash.midwave": Rule(nth=2)}, seed=7)
        scheduler = ChangeScheduler()
        with pytest.raises(PushCrashed) as excinfo:
            scheduler.push(production, changes, rollout=RolloutConfig())
        journal = excinfo.value.journal
        assert _marker_kinds(journal)[-1] == "batch-committed"
        assert journal.committed == {0}
        assert journal.committed_waves == set()
        faults.disarm()

        report = scheduler.resume(production, journal)
        assert report.resumed
        assert report.committed
        assert _serialized(production) == expected
        # Batch 0 was skipped on replay (exactly one start/commit pair);
        # the wave's probe ran exactly once, after the replayed batch 1.
        kinds = _marker_kinds(journal)
        assert kinds.count("batch-start") == 2
        assert kinds.count("batch-committed") == 2
        assert kinds.count("probe") == 1
        assert report.waves == 1

    def test_resume_mid_batch_restores_then_reprobes(self):
        # The generic push.crash fault fires mid-batch: production is
        # half-mutated inside wave 0. resume() must restore the pre-batch
        # snapshot, replay the batch, and still run the wave's probe.
        production, changes = _changes(_three_devices)
        expected = _expected_after(production, changes)
        faults.arm({"push.crash": Rule(nth=2)}, seed=7)
        scheduler = ChangeScheduler()
        with pytest.raises(PushCrashed) as excinfo:
            scheduler.push(production, changes, rollout=RolloutConfig())
        journal = excinfo.value.journal
        assert _marker_kinds(journal)[-1] == "batch-start"
        faults.disarm()

        report = scheduler.resume(production, journal)
        assert report.committed
        assert _serialized(production) == expected
        assert "batch-restored" in _marker_kinds(journal)
        assert len(report.probes) >= 1
