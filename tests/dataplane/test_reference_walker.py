"""The forwarding walker against the plain reference walker (tests/dataplane/reference.py).

Every flow must produce the same :class:`ForwardingTrace` on both: the
same disposition and, hop by hop, the same device, ingress and egress
interface, route and note. The flows are every ordered host pair plus
flows started on each router, on the paper networks and on generated
estates, each clean and with every seeded issue injected.
"""

import ipaddress

import pytest

from repro.config.model import StaticRoute
from repro.control.builder import build_dataplane
from repro.dataplane.forwarding import Disposition, trace_flow
from repro.net.flow import Flow
from repro.scenarios.enterprise import build_enterprise_network
from repro.scenarios.generate import generate_scenario
from repro.scenarios.issues import standard_issues
from repro.scenarios.university import build_university_network
from tests.dataplane import reference
from tests.fixtures import square_network

PAPER = {
    "enterprise": build_enterprise_network,
    "university": build_university_network,
}

# (shape, size, seed): every generated shape at N~40-120.
GENERATED = [
    ("campus", 40, 1),
    ("hub-spoke", 60, 3),
    ("fat-tree", 120, 11),
]


def _paper(name, issue_id):
    network = PAPER[name]()
    if issue_id is not None:
        standard_issues(name)[issue_id].inject(network)
    return network


def _generated(shape, size, seed, issue_id):
    scenario = generate_scenario(shape=shape, size=size, seed=seed)
    if issue_id is not None:
        scenario.issues[issue_id].inject(scenario.network)
    return scenario.network


def _cases():
    for name in sorted(PAPER):
        for issue_id in (None, *sorted(standard_issues(name))):
            yield pytest.param(
                _paper, (name, issue_id), id=f"{name}-{issue_id or 'clean'}"
            )
    for shape, size, seed in GENERATED:
        issue_ids = sorted(generate_scenario(shape, size, seed).issues)
        for issue_id in (None, *issue_ids):
            yield pytest.param(
                _generated, (shape, size, seed, issue_id),
                id=f"{shape}-{size}-s{seed}-{issue_id or 'clean'}",
            )


def _summary(trace):
    return (
        trace.disposition,
        [
            (hop.device, hop.in_interface, hop.out_interface, hop.route, hop.note)
            for hop in trace.hops
        ],
    )


def assert_same_trace(dataplane, flow, start_device=None):
    actual = trace_flow(dataplane, flow, start_device)
    expected = reference.reference_trace(dataplane, flow, start_device)
    assert _summary(actual) == _summary(expected), (str(flow), start_device)
    assert actual == expected
    return actual


def _flows(network):
    """``(flow, start_device)`` for all host pairs and router-started flows."""
    hosts = network.hosts()
    addresses = {host: network.host_address(host) for host in hosts}
    for src in hosts:
        for dst in hosts:
            if src != dst:
                yield Flow(addresses[src], addresses[dst], "icmp"), src
    for router in network.routers():
        primary = network.config(router).primary_address
        if primary is None:
            continue
        for dst in hosts:
            yield Flow(primary.ip, addresses[dst], "icmp"), router
        # Implicit start: the walker resolves the owner itself.
        yield Flow(addresses[hosts[0]], primary.ip, "tcp", 40000, 22), None
    # A source nobody owns.
    unowned = ipaddress.IPv4Address("192.0.2.1")
    yield Flow(unowned, addresses[hosts[0]], "icmp"), None


@pytest.mark.parametrize("build,args", list(_cases()))
def test_walker_matches_reference(build, args):
    network = build(*args)
    dataplane = build_dataplane(network, use_cache=False)
    dispositions = set()
    for flow, start in _flows(network):
        dispositions.add(assert_same_trace(dataplane, flow, start).disposition)
    assert {Disposition.DELIVERED, Disposition.SOURCE_DOWN} <= dispositions


ADDRESS_NETWORKS = {
    **PAPER,
    # The paper networks run no BGP; a generated estate peers with an ISP.
    "fat-tree-40": lambda: generate_scenario("fat-tree", 40, seed=7).network,
}


@pytest.mark.parametrize("name", sorted(ADDRESS_NETWORKS))
def test_address_helpers_match_reference(name):
    """Address, and string, arguments answer as the parsing reference does."""
    network = ADDRESS_NETWORKS[name]()
    if name not in PAPER:
        assert any(config.bgp for config in network.configs.values())
    probes = [ipaddress.IPv4Address("192.0.2.1")]
    for config in network.configs.values():
        for address in config.owned_addresses():
            probes.extend((address.ip, address.ip + 1))
    for config in network.configs.values():
        for probe in probes:
            for arg in (probe, str(probe)):
                assert config.owns_address(arg) == reference.owns_address(
                    config, arg
                )
                assert config.interface_for_address(
                    arg
                ) is reference.interface_for_address(config, arg)
                if config.bgp is not None:
                    assert config.bgp.neighbor_for(
                        arg
                    ) is reference.neighbor_for(config.bgp, arg)
    for probe in probes:
        assert network.device_owning_ip(probe) == reference.device_owning_ip(
            network, probe
        )


class TestEdgeCases:
    def test_duplicate_ip_first_owner_in_configs_order_wins(self):
        network = square_network()
        h2_ip = network.host_address("h2")
        # r4 precedes h2 in configs order, so it becomes the first owner.
        loopback = network.config("r4").interface("Lo0", create=True)
        loopback.address = ipaddress.IPv4Interface(f"{h2_ip}/32")
        assert network.device_owning_ip(h2_ip) == "r4"
        assert reference.device_owning_ip(network, h2_ip) == "r4"

        dataplane = build_dataplane(network, use_cache=False)
        h1_ip = network.host_address("h1")
        trace = assert_same_trace(dataplane, Flow(h2_ip, h1_ip, "icmp"))
        assert trace.path()[0] == "r4"
        assert_same_trace(dataplane, Flow(h1_ip, h2_ip, "icmp"))
        assert_same_trace(dataplane, Flow(h1_ip, h2_ip, "icmp"), "r2")

    def test_destination_on_shutdown_interface_is_owned(self):
        network = square_network()
        iface = network.config("r3").interface("Gi0/2")
        iface.shutdown = True
        assert network.config("r3").owns_address(iface.address.ip)
        assert reference.owns_address(network.config("r3"), iface.address.ip)

        dataplane = build_dataplane(network, use_cache=False)
        src = network.host_address("h1")
        trace = assert_same_trace(
            dataplane, Flow(src, iface.address.ip, "icmp"), "r3"
        )
        assert trace.disposition is Disposition.DELIVERED
        assert_same_trace(dataplane, Flow(src, iface.address.ip, "icmp"), "h1")
        assert_same_trace(
            dataplane, Flow(src, network.host_address("h3"), "icmp"), "h1"
        )

    def test_transit_host_does_not_forward(self):
        network = square_network()
        network.config("r2").static_routes.append(StaticRoute(
            prefix=ipaddress.IPv4Network("10.9.9.0/24"),
            next_hop=network.host_address("h2"),
        ))
        dataplane = build_dataplane(network, use_cache=False)
        flow = Flow(
            network.host_address("h1"), ipaddress.IPv4Address("10.9.9.1"), "icmp"
        )
        trace = assert_same_trace(dataplane, flow, "r2")
        assert trace.disposition is Disposition.NOT_FORWARDED
        assert trace.path() == ["r2", "h2"]
        assert trace.hops[-1].note == "hosts do not forward"

    def test_live_config_edits_are_seen_without_recompile(self):
        network = square_network()
        dataplane = build_dataplane(network, use_cache=False)
        flow = Flow(network.host_address("h1"), network.host_address("h2"), "icmp")
        assert assert_same_trace(dataplane, flow).success

        # Forwarding reads live configs: an in-place edit after the
        # compile shows in the next trace.
        network.config("h2").interface("eth0").shutdown = True
        trace = assert_same_trace(dataplane, flow)
        assert trace.disposition is Disposition.ARP_FAILURE
        assert trace.path() == ["h1", "r1", "r2"]

    def test_interface_argument_is_rejected_as_before(self):
        config = square_network().config("r1")
        iface = ipaddress.IPv4Interface("10.0.12.1/24")
        for check in (
            config.owns_address,
            config.interface_for_address,
            lambda arg: reference.owns_address(config, arg),
        ):
            with pytest.raises(ipaddress.AddressValueError):
                check(iface)
