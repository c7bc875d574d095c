"""A deliberately plain reference walker: the test oracle for forwarding.

This is the forwarding walk as it read before the hot path was tuned, and
every address question is answered the obvious way:

* ownership and subnet tests parse ``str(address)`` into a fresh
  ``IPv4Address`` and compare address objects (the fast path compares
  integers and parses only what is not an ``IPv4Address`` yet);
* the transit-host test is membership in ``network.hosts()``, a list
  rebuilt on every hop (the fast path asks the topology for the kind);
* next-hop resolution compares ``iface.address.ip`` objects.

It shares only the plain data types (``Hop``, ``ForwardingTrace``,
``Disposition``) and the FIB lookup with the code under test.
"""

import ipaddress

from repro.dataplane.forwarding import Disposition, ForwardingTrace, Hop

_MAX_HOPS = 64


def owns_address(config, address):
    """Whether any interface of ``config`` carries exactly this IP."""
    target = ipaddress.IPv4Address(str(address))
    return any(i.address.ip == target for i in config.routed_interfaces())


def interface_for_address(config, address):
    """The interface of ``config`` whose subnet contains ``address``."""
    target = ipaddress.IPv4Address(str(address))
    for iface in config.routed_interfaces():
        if target in iface.address.network:
            return iface
    return None


def neighbor_for(bgp, address):
    """The BGP neighbor statement for ``address``, or ``None``."""
    target = ipaddress.IPv4Address(str(address))
    for neighbor in bgp.neighbors:
        if neighbor.address == target:
            return neighbor
    return None


def device_owning_ip(network, address):
    """The first device in ``configs`` order that owns ``address``."""
    for name, config in network.configs.items():
        if owns_address(config, address):
            return name
    return None


def resolve_next_hop(dataplane, device, out_interface, target_ip):
    """The live (device, interface) owning ``target_ip`` on the segment."""
    segment = dataplane.segments.segment_of(device, out_interface)
    if segment is None:
        return None
    network = dataplane.network
    for other_device, other_iface in segment.endpoints:
        if (other_device, other_iface) == (device, out_interface):
            continue
        iface_cfg = network.config(other_device).interfaces.get(other_iface)
        if iface_cfg is None or not iface_cfg.is_routed or iface_cfg.shutdown:
            continue
        if iface_cfg.address.ip == target_ip:
            return (other_device, other_iface)
    return None


def reference_trace(dataplane, flow, start_device=None):
    """Trace ``flow`` from ``start_device`` (default: its source's owner)."""
    if start_device is None:
        start_device = device_owning_ip(dataplane.network, flow.src_ip)
        if start_device is None:
            return ForwardingTrace(flow=flow, disposition=Disposition.SOURCE_DOWN)
    return _Walker(dataplane, flow).walk(start_device)


class _Walker:
    """Stateful walk of one flow through the data plane."""

    def __init__(self, dataplane, flow):
        self.dataplane = dataplane
        self.network = dataplane.network
        self.flow = flow
        self.trace = ForwardingTrace(flow=flow)
        self._visited = set()

    def walk(self, device, in_interface=None):
        while True:
            hop = Hop(device=device, in_interface=in_interface)
            self.trace.hops.append(hop)

            if device in self._visited:
                return self._finish(Disposition.LOOP, hop, "revisited device")
            self._visited.add(device)

            config = self.network.config(device)

            if in_interface is not None and not self._permitted(
                config, in_interface, "in", hop
            ):
                return self._finish(Disposition.DENIED_IN, hop)

            if owns_address(config, self.flow.dst_ip):
                return self._finish(Disposition.DELIVERED, hop)

            if device in self.network.hosts() and in_interface is not None:
                return self._finish(
                    Disposition.NOT_FORWARDED, hop, "hosts do not forward"
                )

            route = self.dataplane.fib(device).lookup(self.flow.dst_ip)
            if route is None:
                return self._finish(Disposition.NO_ROUTE, hop)
            hop.route = route
            hop.out_interface = route.out_interface

            if not self._permitted(config, route.out_interface, "out", hop):
                return self._finish(Disposition.DENIED_OUT, hop)

            target_ip = (
                route.next_hop if route.next_hop is not None else self.flow.dst_ip
            )
            next_endpoint = resolve_next_hop(
                self.dataplane, device, route.out_interface, target_ip
            )
            if next_endpoint is None:
                return self._finish(
                    Disposition.ARP_FAILURE, hop, f"no endpoint owns {target_ip}"
                )

            if len(self.trace.hops) >= _MAX_HOPS:
                return self._finish(Disposition.LOOP, hop, "hop limit")

            device, in_interface = next_endpoint

    def _permitted(self, config, iface_name, direction, hop):
        """Apply the interface's ACL in ``direction``; absent ACLs permit."""
        iface = config.interfaces.get(iface_name)
        if iface is None:
            return True
        acl_name = (
            iface.access_group_in if direction == "in" else iface.access_group_out
        )
        if acl_name is None or acl_name not in config.acls:
            # IOS treats a reference to a missing ACL as permit-all.
            return True
        permitted = config.acls[acl_name].permits(self.flow)
        if not permitted:
            hop.note = f"acl {acl_name} {direction} denied"
        return permitted

    def _finish(self, disposition, hop, note=""):
        if note:
            hop.note = note if not hop.note else f"{hop.note}; {note}"
        self.trace.disposition = disposition
        return self.trace
