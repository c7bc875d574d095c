"""Seeded mega-network generator: fat-tree, campus, and hub-and-spoke.

The two paper scenarios top out at 36 devices; the scale claims in
docs/SCALING.md need networks two orders of magnitude larger. This module
generates them: parameterized, seeded topologies of 500–5000 devices with
the same realism the hand-written scenarios have — OSPF areas, per-LAN
VLAN segments, inter-LAN ACLs, an eBGP edge to an upstream provider,
explicit invariant policies, and seeded misconfiguration issues compatible
with :class:`repro.scenarios.issues.Issue` (so workflows, benchmarks, and
chaos campaigns treat a generated network exactly like a scenario one).

Determinism is the contract: ``generate_scenario(shape, size, seed)`` is a
pure function of its arguments — the generator draws from
:func:`repro.util.rand.independent`, which ignores the process-wide chaos
seed, so the same parameters always produce a byte-identical snapshot
(fingerprint-tested in ``tests/scenarios/test_generate.py``).

Shapes (parameter reference in docs/SCALING.md):

* ``fat-tree`` — k-ary data-center fabric: (k/2)^2 cores (area 0),
  k pods of k/2 aggregation + k/2 edge routers (one OSPF area per pod),
  one host LAN per edge router, a WAN router speaking eBGP off core01;
* ``campus`` — two backbone cores, one gateway router per building
  (one OSPF area per building), floor LANs behind access switches, and a
  border router speaking eBGP to the provider;
* ``hub-spoke`` — a redundant hub pair, S spoke routers dual-homed to
  both hubs, one LAN per spoke, provider eBGP at hub1.

``size`` is a target device count; the generator solves each shape's
parameters to land within a few devices of it (resolved values are in
``GeneratedScenario.params``).
"""

import ipaddress
from dataclasses import dataclass, field

from repro.config.model import OspfConfig, OspfNetwork
from repro.dataplane.reachability import host_flow
from repro.net.addressing import prefixlen_to_wildcard
from repro.policy.model import (
    IsolationPolicy,
    ReachabilityPolicy,
    WaypointPolicy,
)
from repro.scenarios.builder import NetworkBuilder
from repro.scenarios.issues import FixStep, Issue
from repro.util import rand
from repro.util.errors import ReproError

SHAPES = ("fat-tree", "campus", "hub-spoke")

_EXTERNAL_SUBNET = "198.18.0.0/24"
_PEERING_SUBNET = "203.0.113.0/30"
_CAMPUS_AS = 64512
_PROVIDER_AS = 64601


@dataclass
class Lan:
    """One generated host LAN: the unit issues and policies sample from."""

    name: str
    router: str
    router_iface: str
    switch: str
    vlan_id: int
    subnet: object  # IPv4Network
    gateway: object  # IPv4Address
    area: int
    hosts: list = field(default_factory=list)  # (host, ip, switch_port)
    tag: str = "user"  # "user" | "guest" | "secure"


@dataclass
class GeneratedScenario:
    """A generated network plus its invariant policies and seeded issues."""

    shape: str
    seed: int
    requested_size: int
    network: object
    policies: list
    issues: dict
    params: dict
    lans: list

    @property
    def device_count(self):
        return len(self.network.configs)


def network_fingerprint(network):
    """The content fingerprint of a network (topology + every config)."""
    from repro.control.cache import snapshot_fingerprint

    return snapshot_fingerprint(network)[0]


def generate_network(shape="fat-tree", size=500, seed=7):
    """Just the :class:`~repro.net.network.Network` of a generated scenario."""
    return generate_scenario(shape=shape, size=size, seed=seed).network


def generate_scenario(shape="fat-tree", size=500, seed=7):
    """Generate a seeded scenario: network + policies + issues.

    ``size`` targets the total device count (routers + switches + hosts);
    the resolved shape parameters land within a few devices of it.
    """
    if shape not in SHAPES:
        raise ReproError(
            f"unknown shape {shape!r}: expected one of {', '.join(SHAPES)}"
        )
    if size < 40:
        raise ReproError(f"size must be >= 40 devices, got {size}")
    rng = rand.independent(f"generate:{shape}:{size}:{seed}")
    if shape == "fat-tree":
        builder, lans, params, waypoint = _build_fat_tree(size)
    elif shape == "campus":
        builder, lans, params, waypoint = _build_campus(size)
    else:
        builder, lans, params, waypoint = _build_hub_spoke(size)
    _tag_and_filter(builder, lans, rng)
    network = builder.build()
    policies = _invariant_policies(network, lans, waypoint, rng)
    issues = _seeded_issues(network, lans, rng)
    params["waypoint"] = waypoint
    return GeneratedScenario(
        shape=shape,
        seed=seed,
        requested_size=size,
        network=network,
        policies=policies,
        issues=issues,
        params=params,
        lans=lans,
    )


# -- shared construction helpers ----------------------------------------------


class _Ports:
    """Sequential interface names per device (Gi0/1, Gi0/2, ...)."""

    def __init__(self, prefix="Gi0/"):
        self.prefix = prefix
        self._next = {}

    def next(self, device):
        index = self._next.get(device, 0) + 1
        self._next[device] = index
        return f"{self.prefix}{index}"


class _Subnets:
    """Sequential /30 transfer nets under 10.200.0.0/14."""

    def __init__(self):
        self._base = int(ipaddress.IPv4Address("10.200.0.0"))
        self._index = 0

    def next(self):
        address = ipaddress.IPv4Address(self._base + 4 * self._index)
        self._index += 1
        return f"{address}/30"


def _lan_subnet(index):
    """The /24 of the ``index``-th generated LAN (10.1.0.0 upward)."""
    return ipaddress.IPv4Network(
        (int(ipaddress.IPv4Address("10.1.0.0")) + 256 * index, 24)
    )


def _ospf_interface(builder, router, iface_name, area, passive=False):
    """Activate OSPF on exactly one interface, in exactly one area.

    Unlike :meth:`NetworkBuilder.enable_ospf` (which covers every routed
    interface a router currently has with one area), this appends a single
    network statement — the per-interface control multi-area shapes need.
    """
    config = builder.config(router)
    if config.ospf is None:
        config.ospf = OspfConfig(process_id=1)
    iface = config.interface(iface_name)
    statement = OspfNetwork(prefix=iface.address.network, area=area)
    if statement not in config.ospf.networks:
        config.ospf.networks.append(statement)
    if passive:
        config.ospf.passive_interfaces.add(iface_name)


def _add_lan(builder, ports, lan_name, router, vlan_id, subnet, area, hosts):
    """One host LAN: router gateway iface + access switch + ``hosts`` hosts."""
    switch = f"sw-{lan_name}"
    builder.switch(switch)
    builder.vlan(switch, vlan_id, name=f"{lan_name}-users")
    sw_ports = _Ports("Fa0/")
    gateway = subnet.network_address + 1
    router_iface = ports.next(router)
    builder.access_link(
        router, router_iface, switch, sw_ports.next(switch), vlan_id
    )
    builder.address(router, router_iface, f"{gateway}/{subnet.prefixlen}")
    _ospf_interface(builder, router, router_iface, area, passive=True)
    lan = Lan(
        name=lan_name,
        router=router,
        router_iface=router_iface,
        switch=switch,
        vlan_id=vlan_id,
        subnet=subnet,
        gateway=gateway,
        area=area,
    )
    for i in range(hosts):
        host = f"h-{lan_name}-{i + 1:02d}"
        builder.host(host)
        port = sw_ports.next(switch)
        builder.access_link(host, "eth0", switch, port, vlan_id)
        ip = subnet.network_address + 100 + i
        builder.lan_host(host, "eth0", f"{ip}/{subnet.prefixlen}", gateway)
        lan.hosts.append((host, ip, port))
    return lan


def _add_provider_edge(builder, ports, border, local_as=_CAMPUS_AS):
    """The eBGP edge: provider router + external host + the session pair."""
    provider = "isp-rtr"
    builder.router(provider)
    peering = ipaddress.IPv4Network(_PEERING_SUBNET)
    border_ip, provider_ip = list(peering.hosts())[:2]
    builder.p2p(
        border, ports.next(border), provider, ports.next(provider),
        _PEERING_SUBNET,
    )
    builder.host("ext1")
    builder.attach_host(
        "ext1", "eth0", provider, ports.next(provider), _EXTERNAL_SUBNET
    )
    builder.enable_bgp(
        border, _CAMPUS_AS, neighbors=[(str(provider_ip), _PROVIDER_AS)]
    )
    builder.enable_bgp(
        provider, _PROVIDER_AS,
        neighbors=[(str(border_ip), _CAMPUS_AS)],
        networks=[_EXTERNAL_SUBNET],
    )
    # The interior learns the way out via OSPF default origination on the
    # border (the university scenario's pattern); the border resolves the
    # external prefix through its BGP route.
    builder.config(border).ospf.default_information_originate = True


# -- fat-tree ------------------------------------------------------------------


def _fat_tree_dims(size):
    """``(k, hosts_per_lan)`` landing the device count nearest ``size``."""
    best = None
    for k in range(4, 21, 2):
        routers = 5 * k * k // 4
        lans = k * k // 2  # one per edge router; one switch each
        fixed = routers + lans + 2  # + wan router + ext1
        hosts = max(2, round((size - fixed) / lans))
        error = abs(fixed + lans * hosts - size)
        if best is None or (error, -k) < (best[0], -best[1]):
            best = (error, k, hosts)
    return best[1], best[2]


def _build_fat_tree(size):
    k, hosts = _fat_tree_dims(size)
    half = k // 2
    builder = NetworkBuilder(f"gen-fat-tree-{size}")
    ports = _Ports()
    subnets = _Subnets()

    cores = [f"core{c:02d}" for c in range(1, half * half + 1)]
    for core in cores:
        builder.router(core)
    lans = []
    lan_index = 0
    for p in range(1, k + 1):
        aggs = [f"p{p:02d}-agg{a}" for a in range(1, half + 1)]
        edges = [f"p{p:02d}-edge{e}" for e in range(1, half + 1)]
        for router in aggs + edges:
            builder.router(router)
        # Aggregation uplinks: agg a connects to cores [(a-1)*half .. a*half).
        for a, agg in enumerate(aggs):
            for core in cores[a * half:(a + 1) * half]:
                iface_a, iface_c = ports.next(agg), ports.next(core)
                builder.p2p(agg, iface_a, core, iface_c, subnets.next())
                _ospf_interface(builder, agg, iface_a, 0)
                _ospf_interface(builder, core, iface_c, 0)
        # Pod mesh: every edge to every agg, in the pod's own area.
        for edge in edges:
            for agg in aggs:
                iface_e, iface_a = ports.next(edge), ports.next(agg)
                builder.p2p(edge, iface_e, agg, iface_a, subnets.next())
                _ospf_interface(builder, edge, iface_e, p)
                _ospf_interface(builder, agg, iface_a, p)
        for e, edge in enumerate(edges):
            lans.append(_add_lan(
                builder, ports, f"p{p:02d}e{e + 1}", edge, 10,
                _lan_subnet(lan_index), p, hosts,
            ))
            lan_index += 1
    _add_provider_edge(builder, ports, "core01")
    params = {"k": k, "pods": k, "hosts_per_lan": hosts, "lans": len(lans)}
    return builder, lans, params, "core01"


# -- campus --------------------------------------------------------------------


def _campus_dims(size):
    """``(buildings, floors, hosts_per_lan)`` nearest ``size``."""
    floors = 2 if size < 200 else 4
    fixed = 5  # core1 core2 border isp-rtr ext1
    buildings = max(2, round((size - fixed) / (1 + floors * 11)))
    per_building = (size - fixed) / buildings
    hosts = max(2, round((per_building - 1) / floors - 1))
    return buildings, floors, hosts


def _build_campus(size):
    buildings, floors, hosts = _campus_dims(size)
    builder = NetworkBuilder(f"gen-campus-{size}")
    ports = _Ports()
    subnets = _Subnets()

    for core in ("core1", "core2"):
        builder.router(core)
    iface_1, iface_2 = ports.next("core1"), ports.next("core2")
    builder.p2p("core1", iface_1, "core2", iface_2, subnets.next())
    _ospf_interface(builder, "core1", iface_1, 0)
    _ospf_interface(builder, "core2", iface_2, 0)

    lans = []
    lan_index = 0
    for b in range(1, buildings + 1):
        gw = f"b{b:02d}-gw"
        builder.router(gw)
        for core in ("core1", "core2"):
            iface_g, iface_c = ports.next(gw), ports.next(core)
            builder.p2p(gw, iface_g, core, iface_c, subnets.next())
            _ospf_interface(builder, gw, iface_g, 0)
            _ospf_interface(builder, core, iface_c, 0)
        for f in range(1, floors + 1):
            lans.append(_add_lan(
                builder, ports, f"b{b:02d}f{f}", gw, 10,
                _lan_subnet(lan_index), b, hosts,
            ))
            lan_index += 1

    builder.router("border")
    for core in ("core1", "core2"):
        iface_b, iface_c = ports.next("border"), ports.next(core)
        builder.p2p("border", iface_b, core, iface_c, subnets.next())
        _ospf_interface(builder, "border", iface_b, 0)
        _ospf_interface(builder, core, iface_c, 0)
    _add_provider_edge(builder, ports, "border")
    params = {
        "buildings": buildings, "floors": floors, "hosts_per_lan": hosts,
        "lans": len(lans),
    }
    return builder, lans, params, "border"


# -- hub-and-spoke -------------------------------------------------------------


def _hub_spoke_dims(size):
    """``(spokes, hosts_per_lan)`` nearest ``size``."""
    fixed = 4  # hub1 hub2 isp-rtr ext1
    spokes = max(3, round((size - fixed) / 14))
    hosts = max(2, round((size - fixed) / spokes - 2))
    return spokes, hosts


def _build_hub_spoke(size):
    spokes, hosts = _hub_spoke_dims(size)
    builder = NetworkBuilder(f"gen-hub-spoke-{size}")
    ports = _Ports()
    subnets = _Subnets()

    for hub in ("hub1", "hub2"):
        builder.router(hub)
    iface_1, iface_2 = ports.next("hub1"), ports.next("hub2")
    builder.p2p("hub1", iface_1, "hub2", iface_2, subnets.next())
    _ospf_interface(builder, "hub1", iface_1, 0)
    _ospf_interface(builder, "hub2", iface_2, 0)

    lans = []
    for s in range(1, spokes + 1):
        spoke = f"spoke{s:03d}"
        builder.router(spoke)
        for hub in ("hub1", "hub2"):
            iface_s, iface_h = ports.next(spoke), ports.next(hub)
            builder.p2p(spoke, iface_s, hub, iface_h, subnets.next())
            _ospf_interface(builder, spoke, iface_s, 0)
            _ospf_interface(builder, hub, iface_h, 0)
        lans.append(_add_lan(
            builder, ports, f"s{s:03d}", spoke, 10,
            _lan_subnet(s - 1), 0, hosts,
        ))
    _add_provider_edge(builder, ports, "hub1")
    params = {"spokes": spokes, "hosts_per_lan": hosts, "lans": len(lans)}
    return builder, lans, params, "hub1"


# -- ACL segmentation ----------------------------------------------------------


def _tag_and_filter(builder, lans, rng):
    """Pick guest and secure LANs; fence guests out of secure LANs by ACL.

    Roughly one LAN in ten is *secure* (its gateway filters inbound-to-LAN
    traffic) and one in five is *guest* (the untrusted source the filter
    names). The ACL goes outbound on the secure LAN's gateway interface —
    deny each guest subnet, permit everything else — so exactly the
    guest→secure pairs break and every other flow is untouched; the
    isolation policies assert the former, the reachability policies the
    latter.
    """
    if len(lans) < 4:
        return
    secure_count = max(1, len(lans) // 10)
    guest_count = max(1, len(lans) // 5)
    shuffled = rng.sample(lans, secure_count + guest_count)
    secure, guests = shuffled[:secure_count], shuffled[secure_count:]
    for lan in secure:
        lan.tag = "secure"
    for lan in guests:
        lan.tag = "guest"
    for lan in secure:
        wildcard = prefixlen_to_wildcard(lan.subnet.prefixlen)
        entries = [
            f"deny ip {guest.subnet.network_address} "
            f"{prefixlen_to_wildcard(guest.subnet.prefixlen)} "
            f"{lan.subnet.network_address} {wildcard}"
            for guest in sorted(guests, key=lambda g: g.name)
        ]
        entries.append("permit ip any any")
        acl_name = f"protect-{lan.name}"
        builder.acl(lan.router, acl_name, entries)
        builder.apply_acl(lan.router, lan.router_iface, acl_name, "out")


# -- invariant policies --------------------------------------------------------


def _invariant_policies(network, lans, waypoint, rng):
    """Explicit policies encoding the generator's intent.

    Mining (:func:`repro.policy.mining.mine_policies`) is quadratic in
    hosts — hopeless at 5000 devices — and the generator *knows* its
    intent, so it emits the invariants directly: cross-LAN reachability for
    allowed pairs, isolation for every fenced guest→secure pair, and
    waypoint-through-the-border for external traffic.
    """
    policies = []
    guests = [lan for lan in lans if lan.tag == "guest"]
    secure = [lan for lan in lans if lan.tag == "secure"]

    reach_count = min(48, 2 * len(lans))
    for _ in range(reach_count):
        src_lan, dst_lan = rng.sample(lans, 2)
        if src_lan.tag == "guest" and dst_lan.tag == "secure":
            continue  # fenced by ACL; covered by isolation policies below
        src = rng.choice(src_lan.hosts)[0]
        dst = rng.choice(dst_lan.hosts)[0]
        policies.append(ReachabilityPolicy(
            policy_id=f"gen-reach-{src}-{dst}",
            flow=host_flow(network, src, dst),
            comment=f"{src_lan.name} -> {dst_lan.name} stays reachable",
        ))

    for lan in secure:
        for guest in sorted(guests, key=lambda g: g.name)[:2]:
            src = rng.choice(guest.hosts)[0]
            dst = rng.choice(lan.hosts)[0]
            policies.append(IsolationPolicy(
                policy_id=f"gen-isolate-{src}-{dst}",
                flow=host_flow(network, src, dst),
                comment=f"guest {guest.name} fenced out of {lan.name}",
            ))

    for lan in rng.sample(lans, min(6, len(lans))):
        src = rng.choice(lan.hosts)[0]
        policies.append(WaypointPolicy(
            policy_id=f"gen-waypoint-{src}-ext1",
            flow=host_flow(network, src, "ext1"),
            waypoint=waypoint,
            comment=f"external traffic from {lan.name} exits via {waypoint}",
        ))

    unique = {}
    for policy in policies:
        unique.setdefault(policy.policy_id, policy)
    return list(unique.values())


# -- seeded issues -------------------------------------------------------------


def _remote_host(rng, others, victim):
    """A host of a random LAN in ``others`` that ``victim`` lets in.

    Rejection sampling: the LAN is redrawn while the ACLs of
    :func:`_tag_and_filter` fence it out of ``victim`` (guest into
    secure), so a ticket's flow always works on the clean estate. Draws
    that were valid the first time consume the same randomness as
    before, which keeps those estates' issues unchanged. On a tiny estate
    where every LAN in ``others`` is fenced (a 40-device campus has one
    LAN besides the victims), the first draw stands.
    """
    lan = rng.choice(others)
    if victim.tag == "secure" and any(o.tag != "guest" for o in others):
        while lan.tag == "guest":
            lan = rng.choice(others)
    return rng.choice(lan.hosts)[0]


def _seeded_issues(network, lans, rng):
    """The three standard misconfig classes, instantiated on random LANs."""
    victims = rng.sample(lans, min(3, len(lans)))
    others = [lan for lan in lans if lan not in victims] or lans
    issues = {}

    ospf_lan = victims[0]
    remote = _remote_host(rng, others, ospf_lan)
    local = rng.choice(ospf_lan.hosts)[0]
    wildcard = prefixlen_to_wildcard(ospf_lan.subnet.prefixlen)

    def inject_ospf(network, _lan=ospf_lan):
        config = network.config(_lan.router)
        target = _lan.subnet
        config.ospf.networks = [
            statement for statement in config.ospf.networks
            if statement.prefix != target
        ]

    issues["ospf"] = Issue(
        issue_id="ospf",
        title=f"LAN {ospf_lan.name} not advertised",
        description=(
            f"{remote} cannot reach {local} ({ospf_lan.subnet}); the prefix "
            f"is missing from OSPF on {ospf_lan.router}."
        ),
        src_host=remote,
        dst_host=local,
        root_cause_device=ospf_lan.router,
        complexity="moderate",
        fix_script=[FixStep(ospf_lan.router, (
            "show ip ospf neighbor",
            "show running-config",
            "configure terminal",
            "router ospf 1",
            f"network {ospf_lan.subnet.network_address} {wildcard} "
            f"area {ospf_lan.area}",
            "end",
            "write memory",
        ))],
        _inject=inject_ospf,
    )

    vlan_lan = victims[1 % len(victims)]
    victim_host, _ip, victim_port = rng.choice(vlan_lan.hosts)
    peer = rng.choice(
        [h for h, _ip, _p in vlan_lan.hosts if h != victim_host]
        or [vlan_lan.hosts[0][0]]
    )

    def inject_vlan(network, _lan=vlan_lan, _port=victim_port):
        network.config(_lan.switch).interface(_port).access_vlan = (
            _lan.vlan_id + 10
        )

    issues["vlan"] = Issue(
        issue_id="vlan",
        title=f"Access port in the wrong VLAN on {vlan_lan.switch}",
        description=(
            f"{victim_host} lost connectivity to {peer} after maintenance "
            f"on {vlan_lan.switch}."
        ),
        src_host=victim_host,
        dst_host=peer,
        root_cause_device=vlan_lan.switch,
        complexity="complex",
        fix_script=[FixStep(vlan_lan.switch, (
            "show vlan",
            "show interfaces",
            "configure terminal",
            f"interface {victim_port}",
            f"switchport access vlan {vlan_lan.vlan_id}",
            "end",
            "write memory",
        ))],
        _inject=inject_vlan,
    )

    down_lan = victims[2 % len(victims)]
    down_remote = _remote_host(rng, others, down_lan)
    down_local = rng.choice(down_lan.hosts)[0]

    def inject_ifdown(network, _lan=down_lan):
        network.config(_lan.router).interface(_lan.router_iface).shutdown = (
            True
        )

    issues["ifdown"] = Issue(
        issue_id="ifdown",
        title=f"Gateway interface down on {down_lan.router}",
        description=f"{down_remote} cannot reach {down_local}.",
        src_host=down_remote,
        dst_host=down_local,
        root_cause_device=down_lan.router,
        complexity="simple",
        fix_script=[FixStep(down_lan.router, (
            "show interfaces",
            "configure terminal",
            f"interface {down_lan.router_iface}",
            "no shutdown",
            "end",
            "write memory",
        ))],
        _inject=inject_ifdown,
    )
    return issues
