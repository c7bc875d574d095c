"""Packet forwarding simulation with ACL enforcement and loop detection.

:func:`trace_flow` walks one concrete :class:`~repro.net.flow.Flow` through
the data plane hop by hop, recording the interface, route, and ACL decision
at every device — the simulated equivalent of ``traceroute`` plus the
explanations Batfish gives for why a packet was dropped.

Every hop reads the live configs; nothing config-derived is memoized on
the plane (``tests/control/test_cache_rebind.py``). The hop itself is kept
cheap instead: addresses compare as integers, the transit-host test is one
topology lookup, and traces are slotted because the trace caches hold
thousands of them. ``tests/dataplane/reference.py`` keeps the plain walker
as the test oracle.
"""

import enum
from dataclasses import dataclass, field

from repro.net.topology import DeviceKind

_MAX_HOPS = 64


class Disposition(enum.Enum):
    """Terminal fate of a traced flow."""

    DELIVERED = "delivered"
    DENIED_IN = "denied-in"  # dropped by an ingress ACL
    DENIED_OUT = "denied-out"  # dropped by an egress ACL
    NO_ROUTE = "no-route"
    ARP_FAILURE = "arp-failure"  # next hop not alive on the egress segment
    LOOP = "loop"
    NOT_FORWARDED = "not-forwarded"  # arrived at a host that is not the target
    SOURCE_DOWN = "source-down"

    @property
    def success(self):
        return self is Disposition.DELIVERED


@dataclass(slots=True)
class Hop:
    """One device the flow visited."""

    device: str
    in_interface: str = None
    out_interface: str = None
    route: object = None  # the Route used to leave this device, if any
    note: str = ""


@dataclass(slots=True)
class ForwardingTrace:
    """The full record of one traced flow."""

    flow: object
    disposition: Disposition = None
    hops: list = field(default_factory=list)

    @property
    def success(self):
        return self.disposition is not None and self.disposition.success

    def path(self):
        """Device names visited, in order."""
        return [hop.device for hop in self.hops]

    @property
    def last_device(self):
        return self.hops[-1].device if self.hops else None

    def __str__(self):
        arrows = " -> ".join(self.path()) or "(nowhere)"
        return f"{self.flow}: {arrows} [{self.disposition.value}]"


def trace_flow(dataplane, flow, start_device=None):
    """Trace ``flow`` from ``start_device`` (default: the owner of its source IP)."""
    network = dataplane.network
    if start_device is None:
        start_device = network.device_owning_ip(flow.src_ip)
        if start_device is None:
            trace = ForwardingTrace(flow=flow)
            trace.disposition = Disposition.SOURCE_DOWN
            return trace
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
        network = self.network
        dataplane = self.dataplane
        dst_ip = self.flow.dst_ip
        dst = int(dst_ip)
        while True:
            hop = Hop(device=device, in_interface=in_interface)
            self.trace.hops.append(hop)

            if device in self._visited:
                return self._finish(Disposition.LOOP, hop, "revisited device")
            self._visited.add(device)

            config = network.config(device)

            if in_interface is not None and not self._permitted(
                config, in_interface, "in", hop
            ):
                return self._finish(Disposition.DENIED_IN, hop)

            if config.owns_address(dst_ip):
                return self._finish(Disposition.DELIVERED, hop)

            if (
                in_interface is not None
                and network.kind(device) is DeviceKind.HOST
            ):
                return self._finish(
                    Disposition.NOT_FORWARDED, hop, "hosts do not forward"
                )

            route = dataplane.fib(device).lookup(dst)
            if route is None:
                return self._finish(Disposition.NO_ROUTE, hop)
            hop.route = route
            hop.out_interface = route.out_interface

            if not self._permitted(config, route.out_interface, "out", hop):
                return self._finish(Disposition.DENIED_OUT, hop)

            target_ip = route.next_hop if route.next_hop is not None else dst_ip
            next_endpoint = dataplane.resolve_next_hop(
                device, route.out_interface, target_ip
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
        acl = config.acls[acl_name]
        permitted = acl.permits(self.flow)
        if not permitted:
            hop.note = f"acl {acl_name} {direction} denied"
        return permitted

    def _finish(self, disposition, hop, note=""):
        if note:
            hop.note = note if not hop.note else f"{hop.note}; {note}"
        self.trace.disposition = disposition
        return self.trace
