"""Structured device configuration model.

One :class:`DeviceConfig` per device, holding exactly the sections the
scenario networks and the console need: interfaces, OSPF, static routes,
ACLs, VLANs, credentials, and host networking (default gateway). The model is
vendor-neutral internally; :mod:`repro.config.parser` and
:mod:`repro.config.serializer` map it to/from IOS-style text.
"""

import copy
import ipaddress
from dataclasses import dataclass, field, replace

from repro.util.errors import ConfigError


def _as_address(address):
    """``address`` as an ``IPv4Address``, parsing only what is not one yet.

    The exact-type test keeps an ``IPv4Interface`` (a subclass) on the
    parsing path, which rejects it as before.
    """
    if type(address) is ipaddress.IPv4Address:
        return address
    return ipaddress.IPv4Address(str(address))


@dataclass
class InterfaceConfig:
    """Per-interface configuration."""

    name: str
    description: str = None
    address: ipaddress.IPv4Interface = None
    shutdown: bool = False
    ospf_cost: int = None
    access_group_in: str = None
    access_group_out: str = None
    switchport_mode: str = None  # None | "access" | "trunk"
    access_vlan: int = None
    trunk_vlans: tuple = None  # tuple of allowed VLAN ids on a trunk

    def __post_init__(self):
        if self.switchport_mode not in (None, "access", "trunk"):
            raise ConfigError(
                f"unknown switchport mode {self.switchport_mode!r}"
            )

    @property
    def is_routed(self):
        """Whether this interface has an IP address (L3 port)."""
        return self.address is not None

    @property
    def is_switchport(self):
        """Whether this interface is an L2 switch port."""
        return self.switchport_mode is not None

    def carries_vlan(self, vlan_id):
        """Whether this switchport carries ``vlan_id`` frames."""
        if self.switchport_mode == "access":
            return self.access_vlan == vlan_id
        if self.switchport_mode == "trunk":
            return self.trunk_vlans is None or vlan_id in self.trunk_vlans
        return False

    def __deepcopy__(self, memo):
        # Every field is immutable, so a shallow copy is a deep one; it
        # shares the parsed address instead of re-parsing its text.
        return replace(self)


@dataclass(frozen=True)
class OspfNetwork:
    """A ``network <addr> <wildcard> area <n>`` statement."""

    prefix: ipaddress.IPv4Network
    area: int = 0

    def covers(self, address):
        """Whether an interface address activates OSPF under this statement."""
        return address.ip in self.prefix

    def __deepcopy__(self, memo):
        return self  # immutable: copies share it


@dataclass
class OspfConfig:
    """A ``router ospf <pid>`` process."""

    process_id: int = 1
    networks: list = field(default_factory=list)
    passive_interfaces: set = field(default_factory=set)
    default_information_originate: bool = False
    reference_bandwidth_mbps: int = 100

    def activates(self, iface_cfg):
        """Whether OSPF runs on ``iface_cfg`` given the network statements."""
        if not iface_cfg.is_routed or iface_cfg.shutdown:
            return False
        return any(net.covers(iface_cfg.address) for net in self.networks)

    def is_passive(self, iface_name):
        """Passive interfaces advertise their prefix but form no adjacency."""
        return iface_name in self.passive_interfaces


@dataclass(frozen=True)
class BgpNeighbor:
    """A ``neighbor <ip> remote-as <asn>`` statement."""

    address: ipaddress.IPv4Address
    remote_as: int

    def __deepcopy__(self, memo):
        return self  # immutable: copies share it


@dataclass
class BgpConfig:
    """A ``router bgp <asn>`` process (eBGP only; see repro.control.bgp)."""

    asn: int
    neighbors: list = field(default_factory=list)
    networks: list = field(default_factory=list)  # IPv4Network to originate

    def neighbor_for(self, address):
        """The neighbor statement for ``address``, or ``None``."""
        target = int(_as_address(address))
        for neighbor in self.neighbors:
            if int(neighbor.address) == target:
                return neighbor
        return None


@dataclass(frozen=True)
class StaticRoute:
    """An ``ip route <prefix> <mask> <next-hop>`` statement."""

    prefix: ipaddress.IPv4Network
    next_hop: ipaddress.IPv4Address
    distance: int = 1

    def __deepcopy__(self, memo):
        return self  # immutable: copies share it


@dataclass
class VlanConfig:
    """A VLAN declaration with an optional name."""

    vlan_id: int
    name: str = None


@dataclass
class DeviceConfig:
    """Complete configuration of one device.

    The same model serves routers, switches, and hosts; irrelevant sections
    are simply empty (a host has one addressed interface and a default
    gateway; a switch has switchports and VLANs).
    """

    hostname: str
    interfaces: dict = field(default_factory=dict)
    ospf: OspfConfig = None
    bgp: BgpConfig = None
    static_routes: list = field(default_factory=list)
    acls: dict = field(default_factory=dict)
    vlans: dict = field(default_factory=dict)
    default_gateway: ipaddress.IPv4Address = None
    enable_secret: str = None
    snmp_community: str = None
    vty_password: str = None

    # -- interfaces --------------------------------------------------------

    def interface(self, name, create=False):
        """Fetch an interface config, optionally creating it."""
        if name not in self.interfaces:
            if not create:
                raise ConfigError(
                    f"{self.hostname}: no interface {name!r} configured"
                )
            self.interfaces[name] = InterfaceConfig(name=name)
        return self.interfaces[name]

    def routed_interfaces(self):
        """All interfaces with an IP address, in declaration order."""
        return [i for i in self.interfaces.values() if i.is_routed]

    def active_interfaces(self):
        """All non-shutdown interfaces."""
        return [i for i in self.interfaces.values() if not i.shutdown]

    # -- ACLs ---------------------------------------------------------------

    def acl(self, name):
        """Fetch an ACL by name/number, raising on unknown names."""
        try:
            return self.acls[str(name)]
        except KeyError:
            raise ConfigError(
                f"{self.hostname}: no access-list {name!r}"
            ) from None

    def add_acl(self, acl):
        """Register an ACL under its name."""
        self.acls[str(acl.name)] = acl
        return acl

    # -- addresses ----------------------------------------------------------

    def owned_addresses(self):
        """All interface addresses configured on this device."""
        return [i.address for i in self.interfaces.values() if i.is_routed]

    def owns_address(self, address):
        """Whether any interface carries exactly this IP.

        Shutdown interfaces count: ownership is configuration, not liveness.
        Forwarding asks this on every hop, so it compares integers against
        the live interfaces and builds no address objects.
        """
        target = int(_as_address(address))
        for iface in self.interfaces.values():
            if iface.address is not None and int(iface.address) == target:
                return True
        return False

    def interface_for_address(self, address):
        """The interface whose subnet contains ``address``, or ``None``."""
        target = int(_as_address(address))
        for iface in self.interfaces.values():
            if iface.address is None:
                continue
            network = iface.address.network
            if target & int(network.netmask) == int(network.network_address):
                return iface
        return None

    @property
    def primary_address(self):
        """First configured interface address (hosts have exactly one)."""
        addresses = self.owned_addresses()
        return addresses[0] if addresses else None

    # -- copying ------------------------------------------------------------

    def copy(self):
        """Deep copy, used for snapshots and twin-network cloning."""
        return copy.deepcopy(self)
