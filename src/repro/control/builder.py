"""Compile a :class:`~repro.net.network.Network` into a :class:`DataPlane`.

Route sources, merged per IOS administrative distance:

* **connected** (AD 0): every live addressed interface;
* **static** (AD from the route, default 1): installed only when the next hop
  is resolvable through a connected subnet — an unresolvable static route is
  silently not installed, exactly the IOS behaviour the ISP-reconfiguration
  scenario relies on;
* **ospf** (AD 110): from :mod:`repro.control.ospf`.

Hosts get their connected subnet plus a default route via their gateway
(when the gateway is on-subnet). Switches forward at L2 only and get an
empty FIB.

Compilation is cached and incremental (see :mod:`repro.control.cache` and
the "Performance architecture" section of DESIGN.md): every build is keyed
by a content fingerprint of the snapshot, identical snapshots share one set
of compiled artifacts, and a build given a ``baseline`` reuses the
baseline's L2 segments, routing results, and per-device FIBs wherever the
changed configs cannot have affected them.
"""

import ipaddress

from repro.control import deps
from repro.control.bgp import compute_bgp_routes
from repro.control.cache import (
    CompiledDataplane,
    dataplane_cache,
    derived_fingerprint,
    snapshot_fingerprint,
)
from repro.control.l2 import compute_segments
from repro.control.ospf import compute_ospf_routes, incremental_ospf_routes
from repro.control.routes import Route, select_best_routes
from repro.dataplane.fib import Fib
from repro.dataplane.plane import DataPlane
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.state import STATE as _OBS
from repro.util.clock import monotonic_s

_DEFAULT = ipaddress.IPv4Network("0.0.0.0/0")

_BUILD_COLD = obs_metrics.counter(
    "dataplane.build.cold", unit="builds",
    help="from-scratch compiles (no reusable baseline artifacts)",
)
_BUILD_INCREMENTAL = obs_metrics.counter(
    "dataplane.build.incremental", unit="builds",
    help="compiles that reused baseline artifacts for unchanged devices",
)
_BUILD_SHARED = obs_metrics.counter(
    "dataplane.build.shared", unit="builds",
    help="identical-snapshot builds that shared the baseline wholesale",
)
_BUILD_MS = obs_metrics.histogram(
    "dataplane.build.ms", unit="ms",
    help="wall-clock milliseconds per compile (cache hits excluded)",
)


def build_dataplane(network, baseline=None, changed_devices=None,
                    use_cache=True, same_except=None):
    """Compute L2 segments, run routing, and install per-device FIBs.

    Keyword arguments:

    ``baseline``
        An already-compiled :class:`DataPlane` of a *semantically close*
        snapshot over the same topology (e.g. production while compiling a
        candidate). Artifacts whose inputs did not change between the
        baseline and ``network`` are reused instead of recomputed: L2
        segments when no changed device touched shutdown/addressing/
        switchport state, the OSPF and BGP runs when no changed stanza is
        routing-relevant, and each unchanged device's FIB object when its
        route set provably cannot differ. The result is byte-identical to a
        from-scratch build (property-tested in
        ``tests/control/test_incremental.py``).

    ``changed_devices``
        Optional hint naming devices the caller knows it edited. The real
        changed set is always *derived* from per-device config fingerprints
        (so a wrong hint can cause extra recomputation, never a wrong data
        plane); the hint is unioned in for devices whose edits the caller
        wants treated as dirty regardless.

    ``use_cache``
        When true (default), the process-wide compile cache is consulted
        first and populated after a miss. Two networks with equal content
        hashes share one set of compiled artifacts; the returned plane is
        always rebound to the *calling* network object.

    ``same_except``
        The caller's **assertion** that ``network`` is content-identical to
        ``baseline``'s network outside this device set (same topology
        included), letting fingerprinting re-hash only those devices
        instead of re-serializing the whole snapshot. Unlike
        ``changed_devices`` this is trusted, not verified — a false
        assertion poisons the compile cache — so pass it only for networks
        you derived from the baseline yourself (the enforcer's candidate
        copies). Requires ``baseline``; implies those devices are dirty.
    """
    artifacts_in = getattr(baseline, "artifacts", None) if baseline else None
    if same_except is not None and artifacts_in is not None:
        fingerprint, topology_fp, device_fps = derived_fingerprint(
            artifacts_in, network, same_except
        )
        if changed_devices is None:
            changed_devices = same_except
    else:
        fingerprint, topology_fp, device_fps = snapshot_fingerprint(network)
    cache = dataplane_cache() if use_cache else None
    if cache is not None:
        artifacts = cache.get(fingerprint)
        if artifacts is not None:
            return _plane(network, artifacts)
    started = monotonic_s() if _OBS.enabled else 0.0
    with obs_trace.span("dataplane.build", incremental=baseline is not None):
        if baseline is not None:
            artifacts = _incremental_compile(
                network, fingerprint, topology_fp, device_fps, baseline,
                changed_devices,
            )
        else:
            artifacts = _full_compile(
                network, fingerprint, topology_fp, device_fps
            )
    if _OBS.enabled:
        _BUILD_MS.observe((monotonic_s() - started) * 1000.0)
    if cache is not None:
        cache.put(fingerprint, artifacts)
    return _plane(network, artifacts)


def _plane(network, artifacts):
    """Bind shared compile artifacts to the calling network."""
    return DataPlane(
        network, artifacts.segments, artifacts.fibs, artifacts.ospf,
        bgp=artifacts.bgp, artifacts=artifacts,
    )


def _full_compile(network, fingerprint, topology_fp, device_fps):
    _BUILD_COLD.inc()
    segments = compute_segments(network)
    ospf = compute_ospf_routes(network, segments)
    bgp = compute_bgp_routes(network, segments)

    sort_pos = {}
    fibs = {}
    for router in network.routers():
        fibs[router] = _router_fib(network, router, ospf, bgp, sort_pos)
    for host in network.hosts():
        fibs[host] = Fib(_host_routes(network.config(host)))
    for switch in network.switches():
        fibs[switch] = Fib()
    return CompiledDataplane(
        fingerprint, topology_fp, device_fps, segments, fibs, ospf, bgp
    )


def _router_fib(network, router, ospf, bgp, sort_pos):
    """The router's FIB, identical to ``Fib(select_best_routes(...))``
    over its connected, static, BGP and OSPF candidates, in that order.

    The OSPF list already holds one winner per prefix, so it seeds the
    per-prefix table directly, keyed by the prefix keys the OSPF run kept
    beside it, and only the few local candidates go through
    :func:`select_best_routes`. Local candidates precede OSPF in the
    candidate order, so a local route wins ties (``<=``). ``sort_pos`` maps
    a prefix key to the FIB's canonical ``(-prefixlen, str(prefix))`` sort
    key; one table serves every router of a compile, so each unique prefix
    is stringified once.
    """
    chosen = dict(zip(
        ospf._keys.get(router, ()), ospf.routes_by_device.get(router, ())
    ))
    config = network.config(router)
    local = list(_connected_routes(config))
    local.extend(_static_routes(config))
    local.extend(bgp.routes_by_device.get(router, ()))
    for route in select_best_routes(local):
        net = route.prefix
        key = (int(net.network_address), net.prefixlen)
        current = chosen.get(key)
        if current is None or route.sort_key() <= current.sort_key():
            chosen[key] = route

    sort_pos_get = sort_pos.get
    ordered = []
    for key, route in chosen.items():
        pos = sort_pos_get(key)
        if pos is None:
            net = route.prefix
            pos = (-net.prefixlen, str(net))
            sort_pos[key] = pos
        ordered.append((pos, key, route))
    ordered.sort(key=lambda item: item[0])
    return Fib._from_canonical([(key, route) for _pos, key, route in ordered])


# -- incremental rebuild -------------------------------------------------------


def _incremental_compile(network, fingerprint, topology_fp, device_fps,
                         baseline, changed_hint):
    """Recompile only what the changed configs can have affected.

    The invalidation cone — which devices' artifacts a diff can move, stage
    by stage — is computed by :func:`repro.control.deps.invalidation_cone`;
    each of its predicates is conservative (any doubt recomputes):

    * **L2 segments** depend on interface up/down state, routed-ness, and
      switchport configuration; a change to any of those on any changed
      device recomputes the segment table, otherwise the baseline's is
      shared as-is.
    * **OSPF** depends on the segment table plus each router's OSPF process
      and its interfaces' address/cost/shutdown state. Both OSPF and BGP
      consume the segment table *only* through ``same_segment`` queries on
      router endpoint pairs, so a recomputed segment table that left the
      router-endpoint partition intact (e.g. a host moved between VLANs)
      does not invalidate either protocol run. When the partition *is*
      intact, OSPF re-runs incrementally: the dirty routers seed a delta
      propagation that reruns Dijkstra only for sources the changed edges
      can reach (:func:`repro.control.ospf.incremental_ospf_routes`).
    * **BGP** additionally depends on static routes (the "network must be in
      the RIB" origination rule) and on address ownership anywhere in the
      network (session discovery resolves neighbor addresses globally), so
      any address/shutdown edit recomputes it — but only when BGP speakers
      exist at all.
    * **FIBs** are rebuilt for changed devices, and for unchanged routers
      only when a recomputed protocol run actually produced different routes
      for them; every other device shares the baseline's Fib object (which
      downstream differential analysis exploits via identity checks).
    """
    artifacts = getattr(baseline, "artifacts", None)
    if (
        artifacts is None
        or artifacts.topology_fingerprint != topology_fp
        or set(artifacts.device_fingerprints) != set(device_fps)
    ):
        return _full_compile(network, fingerprint, topology_fp, device_fps)

    base_fps = artifacts.device_fingerprints
    changed = {name for name, fp in device_fps.items() if base_fps[name] != fp}
    if changed_hint is not None:
        changed |= set(changed_hint) & set(device_fps)
    if not changed:
        _BUILD_SHARED.inc()
        return artifacts  # identical snapshot: share everything
    _BUILD_INCREMENTAL.inc()

    base_network = baseline.network
    cone = deps.invalidation_cone(artifacts, base_network, network, changed)
    segments = cone.segments
    changed = cone.changed  # the overscope fault widens this to everything

    routers = network.routers()
    if cone.ospf_dirty:
        incremental = None
        if not cone.routing_l2_dirty and not cone.overscoped:
            incremental = incremental_ospf_routes(
                network, segments, artifacts.ospf, cone.ospf_dirty_routers
            )
        if incremental is None:
            ospf = compute_ospf_routes(network, segments)
            deps.record_spf(len(ospf._spf or ()), 0, 0)
        else:
            ospf, (spf_full, spf_delta, spf_reused) = incremental
            deps.record_spf(spf_full, spf_delta, spf_reused)
    else:
        ospf = artifacts.ospf

    bgp = (
        compute_bgp_routes(network, segments)
        if cone.bgp_dirty else artifacts.bgp
    )

    protocols_dirty = cone.ospf_dirty or cone.bgp_dirty
    sort_pos = {}
    fibs = {}
    rebuilt = 0
    for router in routers:
        if router not in changed and (
            not protocols_dirty
            or (
                ospf.routes_by_device.get(router, [])
                == artifacts.ospf.routes_by_device.get(router, [])
                and bgp.routes_by_device.get(router, [])
                == artifacts.bgp.routes_by_device.get(router, [])
            )
        ):
            fibs[router] = artifacts.fibs[router]
        else:
            fibs[router] = _router_fib(network, router, ospf, bgp, sort_pos)
            rebuilt += 1
    for host in network.hosts():
        if host in changed:
            fibs[host] = Fib(_host_routes(network.config(host)))
        else:
            fibs[host] = artifacts.fibs[host]
    for switch in network.switches():
        fibs[switch] = artifacts.fibs[switch]  # always empty at L3
    deps.record_fib_rebuilds(rebuilt)

    return CompiledDataplane(
        fingerprint, topology_fp, device_fps, segments, fibs, ospf, bgp
    )


# -- route sources -------------------------------------------------------------


def _connected_routes(config):
    for iface in config.routed_interfaces():
        if iface.shutdown:
            continue
        yield Route(
            prefix=iface.address.network,
            protocol="connected",
            out_interface=iface.name,
        )


def _static_routes(config):
    for static in config.static_routes:
        out_iface = _resolving_interface(config, static.next_hop)
        if out_iface is None:
            continue  # next hop unreachable: route not installed
        yield Route(
            prefix=static.prefix,
            protocol="static",
            out_interface=out_iface.name,
            next_hop=static.next_hop,
            distance=static.distance,
        )


def _host_routes(config):
    routes = list(_connected_routes(config))
    if config.default_gateway is not None:
        out_iface = _resolving_interface(config, config.default_gateway)
        if out_iface is not None:
            routes.append(
                Route(
                    prefix=_DEFAULT,
                    protocol="static",
                    out_interface=out_iface.name,
                    next_hop=config.default_gateway,
                )
            )
    return routes


def _resolving_interface(config, next_hop):
    """The live connected interface whose subnet contains ``next_hop``."""
    for iface in config.routed_interfaces():
        if not iface.shutdown and next_hop in iface.address.network:
            return iface
    return None
