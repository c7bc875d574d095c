"""A deliberately slow reference compiler: the test oracle for the builder.

Each algorithm here is the plain, obviously correct form of one the
builder speeds up, and reuses the builder's per-device helpers for
everything else:

* adjacency discovery scans every router pair (the builder hash-joins on
  ``(area, subnet)``);
* Dijkstra rebuilds its adjacency list and sorts each node's neighbors on
  every visit (the builder shares one pre-sorted index across sources);
* OSPF route selection walks the flat advertisement list and resolves each
  advertiser's next hop afresh (the builder groups by advertiser and
  caches next hops);
* each router's FIB is ``Fib(select_best_routes(...))`` over every
  candidate (the builder merges per-prefix winners against a shared
  sort-key table).
"""

import heapq

from repro.control import ospf
from repro.control.bgp import compute_bgp_routes
from repro.control.builder import (
    _connected_routes,
    _host_routes,
    _static_routes,
)
from repro.control.l2 import compute_segments
from repro.control.routes import Route, select_best_routes
from repro.dataplane.fib import Fib


def reference_compile(network):
    """``(neighbors, routes_by_device, fibs)`` for ``network``."""
    segments = compute_segments(network)
    routers = network.routers()
    active = {
        name: ospf._ospf_interfaces(network.config(name)) for name in routers
    }
    prepared = {
        name: ospf._prepare_entries(network.config(name), active[name])
        for name in routers
    }
    neighbors, edges = discover_adjacencies(segments, prepared)
    advertisements = [
        ad
        for name in routers
        for ad in ospf._router_advertisements(
            name, network.config(name), active[name]
        )
    ]
    routes_by_device = {}
    for router in routers:
        if not active[router]:
            routes_by_device[router] = []
            continue
        dist, first_hop = dijkstra(router, edges)
        routes_by_device[router] = routes_for(
            network.config(router), router, dist, first_hop, advertisements
        )

    bgp = compute_bgp_routes(network, segments)
    fibs = {}
    for router in routers:
        config = network.config(router)
        candidates = list(_connected_routes(config))
        candidates.extend(_static_routes(config))
        candidates.extend(bgp.routes_by_device.get(router, []))
        candidates.extend(routes_by_device[router])
        fibs[router] = Fib(select_best_routes(candidates))
    for host in network.hosts():
        fibs[host] = Fib(_host_routes(network.config(host)))
    for switch in network.switches():
        fibs[switch] = Fib()
    return neighbors, routes_by_device, fibs


def discover_adjacencies(segments, prepared):
    """Adjacencies and SPF edges from a scan over all router pairs."""
    neighbors = []
    edges = []
    routers = sorted(prepared)
    for i, u in enumerate(routers):
        for v in routers[i + 1:]:
            pair_n, pair_e = ospf._pair_adjacencies(
                segments, u, prepared[u], v, prepared[v]
            )
            neighbors.extend(pair_n)
            edges.extend(pair_e)
    return neighbors, edges


def dijkstra(source, edges):
    """Shortest paths from ``source``; neighbors sorted on every visit."""
    adjacency = {}
    for u, v, cost, iface_u, iface_v in edges:
        adjacency.setdefault(u, []).append((v, cost, iface_u, iface_v))
    dist = {source: 0}
    first_hop = {}
    heap = [(0, source, None)]
    visited = set()
    while heap:
        d, node, hop = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if hop is not None:
            first_hop[node] = hop
        for neighbor, cost, iface_u, iface_v in sorted(
            adjacency.get(node, []), key=lambda e: (e[1], e[0])
        ):
            candidate = d + cost
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                next_hop = hop if hop is not None else (iface_u, iface_v)
                heapq.heappush(heap, (candidate, neighbor, next_hop))
    return dist, first_hop


def routes_for(config, router, dist, first_hop, advertisements):
    """OSPF winners per prefix over the flat advertisement list."""
    local_prefixes = ospf._local_prefix_keys(config)
    best = {}
    for prefix, key, advertiser, advertiser_cost in advertisements:
        if advertiser == router or key in local_prefixes:
            continue
        if advertiser not in dist or advertiser not in first_hop:
            continue
        out_iface, remote_iface = first_hop[advertiser]
        metric = dist[advertiser] + advertiser_cost
        rank = (metric, str(remote_iface.address.ip))
        current = best.get(key)
        if current is None or rank < current[0]:
            best[key] = (rank, prefix, metric, out_iface, remote_iface)
    return [
        Route(
            prefix=prefix,
            protocol="ospf",
            out_interface=out_iface.name,
            next_hop=remote_iface.address.ip,
            metric=metric,
        )
        for (_rank, prefix, metric, out_iface, remote_iface) in best.values()
    ]
