"""Mega-network generator tests: determinism, validity, and seeded issues.

Small sizes on purpose — the generator's structure is size-independent, so
everything worth proving (determinism, policy validity, issue injection)
holds at 60 devices and runs in CI time. The 500-device acceptance numbers
live in the scale benchmark (``bench --scale``), not here.
"""

import hashlib
import json

import pytest

from repro.control.builder import build_dataplane
from repro.dataplane.forwarding import trace_flow
from repro.emulation.network import EmulatedNetwork
from repro.policy.verification import PolicyVerifier
from repro.scenarios.generate import (
    SHAPES,
    generate_network,
    generate_scenario,
    network_fingerprint,
)
from repro.util.errors import ReproError

SMALL = {"fat-tree": 60, "campus": 80, "hub-spoke": 60}


@pytest.fixture(scope="module")
def scenarios():
    """One small scenario per shape, generated once for the module."""
    return {
        shape: generate_scenario(shape=shape, size=size, seed=3)
        for shape, size in SMALL.items()
    }


class TestDeterminism:
    def test_same_seed_same_network(self):
        a = generate_network(shape="campus", size=80, seed=3)
        b = generate_network(shape="campus", size=80, seed=3)
        assert network_fingerprint(a) == network_fingerprint(b)

    def test_different_seed_different_network(self):
        a = generate_network(shape="campus", size=80, seed=3)
        b = generate_network(shape="campus", size=80, seed=4)
        assert network_fingerprint(a) != network_fingerprint(b)

    def test_scenario_metadata_round_trips(self, scenarios):
        for shape, scenario in scenarios.items():
            assert scenario.shape == shape
            assert scenario.seed == 3
            assert scenario.requested_size == SMALL[shape]


class TestValidation:
    def test_unknown_shape_rejected(self):
        with pytest.raises(ReproError):
            generate_scenario(shape="torus", size=100)

    def test_undersized_rejected(self):
        with pytest.raises(ReproError):
            generate_scenario(shape="campus", size=10)

    def test_shapes_is_the_public_contract(self):
        assert set(SMALL) == set(SHAPES)


class TestGeneratedValidity:
    def test_size_lands_near_request(self, scenarios):
        for shape, scenario in scenarios.items():
            requested = scenario.requested_size
            assert abs(scenario.device_count - requested) <= 0.15 * requested

    def test_compiles_and_every_policy_holds(self, scenarios):
        for shape, scenario in scenarios.items():
            plane = build_dataplane(scenario.network, use_cache=False)
            report = PolicyVerifier(scenario.policies).verify_dataplane(plane)
            broken = [r.policy.policy_id for r in report.results if not r.holds]
            assert not broken, (shape, broken)

    def test_policy_ids_unique(self, scenarios):
        for scenario in scenarios.values():
            ids = [policy.policy_id for policy in scenario.policies]
            assert len(ids) == len(set(ids))

    def test_lans_cover_all_generated_hosts(self, scenarios):
        for shape, scenario in scenarios.items():
            lan_hosts = {
                host for lan in scenario.lans for host, _ip, _port in lan.hosts
            }
            extras = set(scenario.network.hosts()) - lan_hosts
            assert lan_hosts <= set(scenario.network.hosts()), shape
            # The only hosts outside a LAN are the provider-edge externals.
            assert all(host.startswith("ext") for host in extras), (
                shape, extras,
            )


class TestSeededIssues:
    def test_three_issue_classes(self, scenarios):
        for scenario in scenarios.values():
            assert set(scenario.issues) == {"ospf", "vlan", "ifdown"}

    def test_injection_breaks_resolution_repairs(self, scenarios):
        for shape, scenario in scenarios.items():
            for issue in scenario.issues.values():
                assert issue.is_resolved(scenario.network), (
                    shape, issue.issue_id,
                )
                production = scenario.network.copy()
                issue.inject(production)
                assert not issue.is_resolved(production), (
                    shape, issue.issue_id,
                )

    def test_root_cause_devices_exist(self, scenarios):
        for scenario in scenarios.values():
            for issue in scenario.issues.values():
                assert scenario.network.topology.has_device(
                    issue.root_cause_device
                )

    def test_fix_scripts_repair_on_console(self, scenarios):
        """Replaying each prepared fix on a direct console resolves it."""
        scenario = scenarios["campus"]
        for issue in scenario.issues.values():
            production = scenario.network.copy()
            issue.inject(production)
            emnet = EmulatedNetwork.attached(production)
            for step in issue.fix_script:
                console = emnet.console(step.device)
                for command in step.commands:
                    result = console.execute(command)
                    assert result.ok, (issue.issue_id, command, result.error)
            assert issue.is_resolved(production), issue.issue_id


# Fat-tree-120 is the estate size of the ticket benchmark's drift workload.
SWEEP_SEEDS = range(40)
# Seeds whose first remote-host draw was fenced by the guest->secure ACLs
# (their ifdown / ospf tickets could never be resolved); rejection sampling
# redraws them, and only them.
REDRAWN_SEEDS = {23, 33}
# sha256 over (seed, network fingerprint, issue endpoints) of every other
# sweep seed, as generated before rejection sampling was added.
UNCHANGED_DIGEST = (
    "d225647ed3e8cd938751285f37ed0a32060262a58512a2eb7d58db184cee10c8"
)


def _issue_digest(seeds):
    records = []
    for seed in seeds:
        scenario = generate_scenario(shape="fat-tree", size=120, seed=seed)
        endpoints = sorted(
            (issue_id, issue.src_host, issue.dst_host)
            for issue_id, issue in scenario.issues.items()
        )
        records.append([seed, network_fingerprint(scenario.network), endpoints])
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


class TestSeededIssueSweep:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_ticket_flow_delivered_clean_and_broken_injected(self, seed):
        scenario = generate_scenario(shape="fat-tree", size=120, seed=seed)
        clean = build_dataplane(scenario.network, use_cache=False)
        for issue_id, issue in sorted(scenario.issues.items()):
            flow = issue.ticket_flow(scenario.network)
            assert trace_flow(clean, flow, issue.src_host).success, issue_id
            production = scenario.network.copy()
            issue.inject(production)
            broken = build_dataplane(production, use_cache=False)
            assert not trace_flow(broken, flow, issue.src_host).success, (
                issue_id
            )

    def test_other_seeds_unchanged(self):
        seeds = [seed for seed in SWEEP_SEEDS if seed not in REDRAWN_SEEDS]
        assert _issue_digest(seeds) == UNCHANGED_DIGEST
