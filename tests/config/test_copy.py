"""``DeviceConfig.copy`` shares immutable records and owns mutable ones."""

import ipaddress

import pytest
from hypothesis import given, settings

from repro.config.model import StaticRoute
from repro.config.serializer import serialize_config
from repro.scenarios.enterprise import build_enterprise_network
from repro.scenarios.university import build_university_network

from tests.config.strategies import device_configs


@pytest.fixture(
    params=[build_enterprise_network, build_university_network],
    ids=["enterprise", "university"],
)
def network(request):
    return request.param()


def test_copy_shares_addresses_and_frozen_records(network):
    for original in network.configs.values():
        copied = original.copy()
        for name, iface in original.interfaces.items():
            twin = copied.interfaces[name]
            assert twin is not iface
            assert twin == iface
            assert twin.address is iface.address
        for ours, theirs in zip(copied.static_routes, original.static_routes):
            assert ours is theirs
        for name, acl in original.acls.items():
            assert copied.acls[name] is not acl
            assert copied.acls[name].entries is not acl.entries
            for ours, theirs in zip(copied.acls[name].entries, acl.entries):
                assert ours is theirs
        if original.ospf is not None:
            assert copied.ospf is not original.ospf
            for ours, theirs in zip(
                copied.ospf.networks, original.ospf.networks
            ):
                assert ours is theirs
        if original.bgp is not None:
            assert copied.bgp is not original.bgp
            for ours, theirs in zip(
                copied.bgp.neighbors, original.bgp.neighbors
            ):
                assert ours is theirs


def test_copy_serializes_identically(network):
    for original in network.configs.values():
        assert serialize_config(original.copy()) == serialize_config(original)


def test_editing_a_copy_leaves_the_original_unchanged(network):
    for original in network.configs.values():
        before = serialize_config(original)
        copied = original.copy()
        for iface in copied.interfaces.values():
            iface.description = "edited"
            iface.shutdown = not iface.shutdown
            if iface.address is not None:
                iface.address = ipaddress.ip_interface("192.0.2.1/30")
        copied.static_routes.append(StaticRoute(
            prefix=ipaddress.ip_network("198.51.100.0/24"),
            next_hop=ipaddress.ip_address("192.0.2.2"),
        ))
        for acl in copied.acls.values():
            acl.entries.clear()
        if copied.ospf is not None:
            copied.ospf.networks.clear()
            copied.ospf.passive_interfaces.add("Gi9/9")
        if copied.bgp is not None:
            copied.bgp.neighbors.clear()
        assert serialize_config(original) == before


@given(device_configs())
@settings(max_examples=50, deadline=None)
def test_copy_roundtrips_generated_configs(config):
    copied = config.copy()
    assert copied == config
    assert serialize_config(copied) == serialize_config(config)
    for name, iface in config.interfaces.items():
        assert copied.interfaces[name] is not iface
