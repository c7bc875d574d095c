"""The change-dependency graph: invalidation cones for incremental compiles.

Given a config diff, this module answers "what can that change have
invalidated?" — the question every incremental consumer of the compiler
shares. A change maps to its **cone**: the L2 segments it can rewire, the
OSPF adjacency set and SPF region it can perturb, and therefore the routers
whose routes can differ. The builder rebuilds only the cone; the risk
classifier scores a change set by the size of its cone.

Two invariants govern everything here (docs/ARCHITECTURE.md "Dependency
graph & incremental SPF"):

* **over-scoping is always safe** — a too-wide cone recomputes artifacts
  that come out identical (the ``dataplane.deps.overscope`` fault point
  deliberately widens the cone to the whole network and the chaos suite
  asserts the plane is unchanged);
* **under-scoping is impossible by construction** — every predicate below
  is conservative: any config field a compile stage reads is part of the
  diff view that dirties that stage.
"""

from dataclasses import dataclass, field

from repro import faults
from repro.control.l2 import compute_segments
from repro.obs import metrics as obs_metrics
from repro.util.errors import DepsOverscopeError

_CONE_DEVICES = obs_metrics.histogram(
    "dataplane.deps.cone_devices", unit="devices",
    help="invalidation-cone size (devices whose artifacts may be rebuilt) "
         "per incremental compile",
)
_SPF_FULL = obs_metrics.counter(
    "dataplane.deps.spf_full", unit="routers",
    help="SPF sources recomputed with a full Dijkstra during incremental "
         "OSPF runs",
)
_SPF_DELTA = obs_metrics.counter(
    "dataplane.deps.spf_delta", unit="routers",
    help="SPF sources that reused their shortest-path tree and only "
         "re-selected routes against the advertisement delta",
)
_SPF_REUSED = obs_metrics.counter(
    "dataplane.deps.spf_reused", unit="routers",
    help="SPF sources whose baseline route lists were reused verbatim "
         "(no advertisement or edge delta reached them)",
)
_ROUTERS_RECOMPUTED = obs_metrics.counter(
    "dataplane.deps.routers_recomputed", unit="routers",
    help="router FIBs rebuilt (not shared with the baseline) per "
         "incremental compile",
)
_OVERSCOPED = obs_metrics.counter(
    "dataplane.deps.overscoped", unit="cones",
    help="invalidation cones widened to the whole network by the "
         "dataplane.deps.overscope fault point",
)

OVERSCOPE_FAULT = faults.fault_point(
    "dataplane.deps.overscope", error=DepsOverscopeError,
    help="the cone computation distrusts itself and widens the cone to the "
         "whole network; every artifact recompiles (over-invalidation is "
         "always safe, so the resulting plane must be byte-identical)",
)

# Change categories/kinds that cannot move routes on any *other* device:
# ACLs and management state are not inputs to the compile at all, and a
# static route (or host gateway) only ever lands in its own device's FIB.
_LOCAL_CATEGORIES = frozenset({"acl", "mgmt", "credential"})
_LOCAL_KINDS = frozenset({
    "static_route", "static_routes_reordered", "default_gateway",
    "interface.description",
})


@dataclass(frozen=True)
class InvalidationCone:
    """What one config diff can have invalidated, stage by stage.

    ``changed`` is the devices whose config content differs;
    ``segments`` is the (possibly recomputed) segment table to compile
    against; the dirty flags say which protocol runs must be redone and
    how. ``ospf_dirty_routers`` names the routers whose OSPF-relevant
    state changed — the seeds the incremental SPF propagates deltas from.
    """

    changed: frozenset
    segments: object
    l2_dirty: bool
    routing_l2_dirty: bool
    ospf_dirty_routers: frozenset
    bgp_dirty: bool
    overscoped: bool = False
    _region: frozenset = field(default=None, compare=False)

    @property
    def ospf_dirty(self):
        return self.routing_l2_dirty or bool(self.ospf_dirty_routers)


def invalidation_cone(artifacts, base_network, network, changed):
    """Classify what the diff between two snapshots can have invalidated.

    ``artifacts`` is the baseline's :class:`CompiledDataplane`;
    ``changed`` the devices whose fingerprints differ. Returns an
    :class:`InvalidationCone` carrying the segment table the compile
    should use (the baseline's, shared, unless the diff is L2-relevant).
    """
    routers = network.routers()
    router_set = set(routers)
    try:
        OVERSCOPE_FAULT.fire(devices=len(changed))
    except DepsOverscopeError:
        _OVERSCOPED.inc()
        cone = InvalidationCone(
            changed=frozenset(network.configs),
            segments=compute_segments(network),
            l2_dirty=True,
            routing_l2_dirty=True,
            ospf_dirty_routers=frozenset(router_set),
            bgp_dirty=_has_bgp(base_network, network, routers),
            overscoped=True,
        )
        _CONE_DEVICES.observe(len(network.configs))
        return cone

    old_new = {d: (base_network.config(d), network.config(d)) for d in changed}

    l2_dirty = any(l2_relevant_diff(old, new) for old, new in old_new.values())
    segments = compute_segments(network) if l2_dirty else artifacts.segments
    # The protocols see segments only via same_segment on router endpoints,
    # so a rewired host-only broadcast domain leaves both runs valid.
    routing_l2_dirty = l2_dirty and (
        router_partition(segments, router_set)
        != router_partition(artifacts.segments, router_set)
    )
    ospf_dirty_routers = frozenset(
        device for device, (old, new) in old_new.items()
        if device in router_set and ospf_relevant_diff(old, new)
    )
    bgp_dirty = _has_bgp(base_network, network, routers) and (
        routing_l2_dirty
        or any(bgp_relevant_diff(old, new) for old, new in old_new.values())
    )
    cone = InvalidationCone(
        changed=frozenset(changed),
        segments=segments,
        l2_dirty=l2_dirty,
        routing_l2_dirty=routing_l2_dirty,
        ospf_dirty_routers=ospf_dirty_routers,
        bgp_dirty=bgp_dirty,
    )
    _CONE_DEVICES.observe(len(cone_devices(cone, artifacts, router_set)))
    return cone


def cone_devices(cone, artifacts, router_set):
    """The devices whose compiled artifacts the cone may rebuild.

    Changed devices always; if a routing run is dirty, every router in the
    SPF region(s) the dirty routers belong to (their routes can move); if
    the router partition itself changed (or BGP is dirty — session
    discovery is global), every router.
    """
    devices = set(cone.changed)
    if cone.routing_l2_dirty or cone.bgp_dirty or cone.overscoped:
        return devices | router_set
    if cone.ospf_dirty_routers:
        devices |= spf_region(
            artifacts.ospf, cone.ospf_dirty_routers & router_set
        )
    return devices


def record_spf(full, delta, reused):
    """Count one incremental OSPF run's per-source outcomes."""
    if full:
        _SPF_FULL.inc(full)
    if delta:
        _SPF_DELTA.inc(delta)
    if reused:
        _SPF_REUSED.inc(reused)


def record_fib_rebuilds(count):
    """Count the router FIBs one incremental compile actually rebuilt."""
    if count:
        _ROUTERS_RECOMPUTED.inc(count)


# -- diff predicates (what each compile stage reads) ---------------------------


def l2_relevant_diff(old, new):
    """Whether two configs differ in anything the segment computation reads."""

    def view(config):
        return {
            name: (
                iface.shutdown, iface.is_routed, iface.switchport_mode,
                iface.access_vlan, iface.trunk_vlans,
            )
            for name, iface in config.interfaces.items()
        }

    return view(old) != view(new)


def ospf_relevant_diff(old, new):
    """Whether two configs differ in anything the OSPF run reads."""
    if old.ospf != new.ospf:
        return True

    def view(config):
        return {
            name: (iface.address, iface.shutdown, iface.ospf_cost)
            for name, iface in config.interfaces.items()
        }

    return view(old) != view(new)


def bgp_relevant_diff(old, new):
    """Whether two configs differ in anything the BGP run reads."""
    if old.bgp != new.bgp or old.static_routes != new.static_routes:
        return True

    def view(config):
        return {
            name: (iface.address, iface.shutdown)
            for name, iface in config.interfaces.items()
        }

    return view(old) != view(new)


def router_partition(segments, router_set):
    """Each router endpoint mapped to the router endpoints in its segment.

    Two segment tables with equal partitions answer every
    ``same_segment(router_endpoint, router_endpoint)`` query identically,
    which is the only way OSPF adjacency discovery and BGP session
    discovery consume the table.
    """
    partition = {}
    for segment in segments:
        members = frozenset(
            endpoint for endpoint in segment.endpoints
            if endpoint[0] in router_set
        )
        for endpoint in members:
            partition[endpoint] = members
    return partition


def _has_bgp(base_network, network, routers):
    return any(
        network.config(r).bgp is not None
        or base_network.config(r).bgp is not None
        for r in routers
    )


# -- SPF regions and change-set cones (the risk classifier's view) -------------


def spf_region(ospf, seeds):
    """Routers reachable from ``seeds`` over the OSPF adjacency graph.

    The connected-component closure: a routing change on a seed can move
    routes on exactly these routers (plus nothing outside — SPF never
    crosses a partition). Seeds are always in their own region.
    """
    adjacency = {}
    for neighbor in ospf.neighbors:
        adjacency.setdefault(neighbor.local_device, set()).add(
            neighbor.remote_device
        )
    region = set(seeds)
    frontier = list(seeds)
    while frontier:
        device = frontier.pop()
        for peer in adjacency.get(device, ()):
            if peer not in region:
                region.add(peer)
                frontier.append(peer)
    return region


def wave_cone(plane, devices, changes):
    """The devices a wave's changes can influence, judged on ``plane``.

    Conservative per change: purely local kinds (ACLs, management state,
    a device's own static routes) stay on their device; anything that can
    move a segment or a route widens to the device's broadcast-domain
    neighbours plus its SPF region. The risk classifier
    (:mod:`repro.core.enforcer.risk`) scales a change set's score by the
    fraction of the network this cone covers.
    """
    cone = set(devices)
    for change in changes:
        if (
            change.category in _LOCAL_CATEGORIES
            or change.kind in _LOCAL_KINDS
        ):
            continue
        device = change.device
        config = plane.network.configs.get(device)
        if config is not None:
            for iface_name in config.interfaces:
                segment = plane.segments.segment_of(device, iface_name)
                if segment is not None:
                    cone.update(segment.devices())
                    cone.update(segment.switches)
        # A switch has no L3 endpoints; it appears as the stitching device
        # of the segments its VLANs carry.
        for segment in plane.segments:
            if device in segment.switches:
                cone.update(segment.devices())
                cone.update(segment.switches)
        cone |= spf_region(plane.ospf, {device})
    return frozenset(cone)

