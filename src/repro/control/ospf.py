"""OSPF route computation: adjacency discovery + Dijkstra SPF.

A faithful-enough OSPF for the scenario networks: adjacencies form between
routers whose OSPF-activated, non-passive interfaces share an L2 segment,
an IP subnet, and an area; costs come from ``ip ospf cost`` (default 1);
every activated interface's prefix is advertised (passive interfaces
advertise but do not peer — the classic LAN-facing configuration); and
``default-information originate`` injects 0.0.0.0/0. All areas share one SPF
graph (the scenario networks are single-area; inter-area distance-vector
summarisation is out of scope and documented as such).

Every run retains its working state (per-router adjacency preparations,
per-router advertisements, per-pair edge lists, and each source's
``(dist, first_hop)`` tree) on the result, so a later run over a slightly
different snapshot can go through :func:`incremental_ospf_routes`: recompute
only the dirty routers' inputs, diff the advertisement and edge multisets,
and rerun full Dijkstra only for sources the edge delta can actually reach
(see docs/ARCHITECTURE.md "Dependency graph & incremental SPF" for the
correctness argument). Sources untouched by the edge delta reuse their
shortest-path tree; sources untouched by both deltas reuse their baseline
route lists verbatim — which downstream FIB sharing detects by identity.
"""

import heapq
import ipaddress
from collections import Counter
from dataclasses import dataclass, field

from repro.control.routes import ADMIN_DISTANCE, Route

DEFAULT_PREFIX = ipaddress.IPv4Network("0.0.0.0/0")

_INF = float("inf")

_OSPF_DISTANCE = ADMIN_DISTANCE["ospf"]


@dataclass(frozen=True)
class OspfNeighbor:
    """A formed adjacency between two router interfaces."""

    local_device: str
    local_interface: str
    remote_device: str
    remote_interface: str
    area: int


@dataclass
class OspfRouteComputation:
    """Result of an OSPF run: adjacencies and per-router routes."""

    neighbors: list = field(default_factory=list)
    routes_by_device: dict = field(default_factory=dict)

    def __post_init__(self):
        # Indexed once at construction — the computation result is a
        # snapshot, and emulated "show ip ospf neighbor" hits this per call.
        by_local = {}
        for neighbor in self.neighbors:
            by_local.setdefault(neighbor.local_device, []).append(neighbor)
        self._by_local_device = {
            device: tuple(items) for device, items in by_local.items()
        }
        # Retained working state for incremental_ospf_routes; populated by
        # compute_ospf_routes/_retain, absent on hand-built results (tests),
        # in which case the incremental path declines and the caller does a
        # full recompute.
        self._routers = None
        self._prep = None
        self._ads = None
        self._pairs = None
        self._spf = None
        # router -> the prefix key of each entry of routes_by_device[router],
        # in list order: the FIB merge and route patching index by it.
        self._keys = None

    def neighbors_of(self, device):
        """Adjacencies where ``device`` is the local side (memoized tuple)."""
        return self._by_local_device.get(device, ())

    def _retain(self, routers, prepared, ads_by_router, pairs, spf, keys):
        self._routers = tuple(routers)
        self._prep = prepared
        self._ads = ads_by_router
        self._pairs = pairs
        self._spf = spf
        self._keys = keys


def _ospf_interfaces(config):
    """(iface, area) pairs for every OSPF-activated interface."""
    if config.ospf is None:
        return []
    activated = []
    for iface in config.interfaces.values():
        if not config.ospf.activates(iface):
            continue
        area = next(
            net.area
            for net in config.ospf.networks
            if net.covers(iface.address)
        )
        activated.append((iface, area))
    return activated


def _interface_cost(iface):
    return iface.ospf_cost if iface.ospf_cost is not None else 1


def compute_ospf_routes(network, segments):
    """Run OSPF over ``network`` given its L2 ``segments``."""
    routers = network.routers()
    active = {name: _ospf_interfaces(network.config(name)) for name in routers}
    prepared = {
        name: _prepare_entries(network.config(name), active[name])
        for name in routers
    }
    neighbors, edges, pairs = _discover_adjacencies(segments, prepared)
    ads_by_router = {
        name: _router_advertisements(name, network.config(name), active[name])
        for name in routers
    }
    adjacency = _adjacency_index(edges)
    grouped_ads = _grouped_advertisements(routers, ads_by_router)
    hop_cache = {}

    result = OspfRouteComputation(neighbors=neighbors)
    routes_by_device = result.routes_by_device
    spf = {}
    keys = {}
    for router in routers:
        if not active[router]:
            routes_by_device[router], keys[router] = [], []
            continue
        dist, first_hop = _dijkstra(router, adjacency)
        spf[router] = (dist, first_hop)
        routes_by_device[router], keys[router] = _routes_for(
            network.config(router), router, dist, first_hop, grouped_ads,
            hop_cache,
        )
    result._retain(routers, prepared, ads_by_router, pairs, spf, keys)
    return result


def incremental_ospf_routes(network, segments, baseline, dirty):
    """Re-run OSPF reusing ``baseline``'s retained state where valid.

    ``dirty`` names the routers whose OSPF-relevant config differs from the
    baseline snapshot (the cone's ``ospf_dirty_routers``); everything else
    is content-identical by fingerprint. Returns ``(result, (full, delta,
    reused))`` — the per-source outcome counts — or ``None`` when the
    baseline carries no retained state (hand-built result, different router
    set), in which case the caller must fall back to a full run.

    Per source, in decreasing reuse:

    * **reused** — no advertisement delta and no relevant edge delta: the
      baseline route-list *object* is shared (FIB sharing sees identity);
    * **delta** — the shortest-path tree is provably intact (no changed
      edge ``(u, v, cost)`` satisfies ``dist[u] + cost <= dist[v]`` on the
      old tree), so the baseline route list is patched in place: only the
      prefixes whose advertisement candidates changed are re-selected
      (:func:`_patch_routes`);
    * **full** — the source is dirty itself or the edge delta can reach its
      tree: full Dijkstra.
    """
    if baseline._spf is None:
        return None
    routers = network.routers()
    if tuple(routers) != baseline._routers:
        return None
    router_set = set(routers)
    dirty = {name for name in dirty if name in router_set}

    prepared = dict(baseline._prep)
    ads_by_router = dict(baseline._ads)
    for name in sorted(dirty):
        config = network.config(name)
        active = _ospf_interfaces(config)
        prepared[name] = _prepare_entries(config, active)
        ads_by_router[name] = _router_advertisements(name, config, active)

    # Rebuild adjacencies in exact cold order: clean pairs come from the
    # baseline verbatim, dirty-involving pairs are re-paired and their edge
    # multisets diffed. Only pairs that had adjacencies before, or that
    # share an (area, subnet) bucket with a dirty router now, can carry
    # any. Edge identity includes interface names *and* addresses — a
    # same-cost renumbering must register as a delta or a reused tree
    # would emit a stale next hop.
    candidates = set(baseline._pairs)
    candidates.update(
        (u, v) for u, v in _candidate_pairs(prepared)
        if u in dirty or v in dirty
    )
    neighbors = []
    edges = []
    pairs = {}
    changed_edges = set()
    for u, v in sorted(candidates):
        if u in dirty or v in dirty:
            pair_n, pair_e = _pair_adjacencies(
                segments, u, prepared[u], v, prepared[v]
            )
            old_n, old_e = baseline._pairs.get((u, v), ((), ()))
            old_count = Counter(_edge_key(e) for e in old_e)
            new_count = Counter(_edge_key(e) for e in pair_e)
            for key in (old_count - new_count) + (new_count - old_count):
                changed_edges.add(key[:3])  # (u, v, cost)
        else:
            pair_n, pair_e = baseline._pairs[(u, v)]
        if pair_n or pair_e:
            pairs[(u, v)] = (tuple(pair_n), tuple(pair_e))
        neighbors.extend(pair_n)
        edges.extend(pair_e)

    # The advertisement delta, as the prefix keys whose candidate set
    # changed: a clean source with an intact tree can only see route
    # changes for these keys, so its baseline list is *patched* instead of
    # re-selected from scratch (_patch_routes).
    affected_keys = set()
    for name in sorted(dirty):
        old_ads = Counter(baseline._ads.get(name, ()))
        new_ads = Counter(ads_by_router[name])
        for ad in (old_ads - new_ads) + (new_ads - old_ads):
            affected_keys.add(ad[1])
    ads_dirty = bool(affected_keys)
    advertisements = [ad for name in routers for ad in ads_by_router[name]]
    ads_for_affected = {key: [] for key in affected_keys}
    key_order = {}
    for index, ad in enumerate(advertisements):
        if ad[1] in ads_for_affected:
            ads_for_affected[ad[1]].append(ad)
            key_order.setdefault(ad[1], index)

    # Shared by every source that needs a full Dijkstra; built on first use
    # because a small edit often needs none.
    adjacency = None
    grouped_ads = _grouped_advertisements(routers, ads_by_router)
    hop_cache = {}

    result = OspfRouteComputation(neighbors=neighbors)
    routes_by_device = result.routes_by_device
    spf = {}
    keys = {}
    full = delta = reused = 0
    for router in routers:
        if not ads_by_router[router]:
            # No activated interfaces: no ads, no routes — active-ness is
            # purely local, so other routers' changes cannot alter this.
            routes_by_device[router], keys[router] = [], []
            continue
        old = None if router in dirty else baseline._spf.get(router)
        if old is None or _spf_affected(old[0], changed_edges):
            if adjacency is None:
                adjacency = _adjacency_index(edges)
            dist, first_hop = _dijkstra(router, adjacency)
            full += 1
            spf[router] = (dist, first_hop)
            routes_by_device[router], keys[router] = _routes_for(
                network.config(router), router, dist, first_hop, grouped_ads,
                hop_cache,
            )
            continue
        spf[router] = old
        if not ads_dirty:
            routes_by_device[router] = baseline.routes_by_device[router]
            keys[router] = baseline._keys[router]
            reused += 1
            continue
        delta += 1
        routes_by_device[router], keys[router] = _patch_routes(
            network.config(router), router, old[0], old[1],
            baseline.routes_by_device[router], baseline._keys[router],
            ads_for_affected, key_order, hop_cache,
        )
    result._retain(routers, prepared, ads_by_router, pairs, spf, keys)
    return result, (full, delta, reused)


def _spf_affected(old_dist, changed_edges):
    """Whether any changed edge can perturb the tree behind ``old_dist``.

    A changed (added *or* removed) edge ``(u, v, cost)`` is relevant iff
    ``old_dist[u] + cost <= old_dist[v]``: strictly-worse edges never set a
    final distance and never win a first hop (strict-< relaxation, unique
    ``(dist, node)`` heap entries), and the ``<=`` case covers equal-cost
    edges whose presence can flip the deterministic tie-break. Edges whose
    tail is unreachable are irrelevant: any chain of new edges re-attaching
    an unreachable region is triggered by its first edge out of the
    reachable side.
    """
    for u, v, cost in changed_edges:
        if u not in old_dist:
            continue
        if old_dist[u] + cost <= old_dist.get(v, _INF):
            return True
    return False


def _edge_key(edge):
    u, v, cost, iface_u, iface_v = edge
    return (
        u, v, cost, iface_u.name, iface_v.name,
        iface_u.address, iface_v.address,
    )


def _prepare_entries(config, active):
    """Non-passive (iface, area, subnet_key) pairing candidates for one router.

    Pre-filters passive interfaces and pre-resolves each candidate's subnet
    once: ``IPv4Interface.network`` constructs a fresh object per access,
    which the quadratic pairing would otherwise pay repeatedly.
    """
    ospf = config.ospf
    entries = []
    for iface, area in active:
        if ospf.is_passive(iface.name):
            continue
        net = iface.address.network
        entries.append(
            (iface, area, (int(net.network_address), net.prefixlen))
        )
    return entries


def _pair_adjacencies(segments, u, entries_u, v, entries_v):
    """Adjacencies and SPF edges (both directions) between one router pair."""
    neighbors = []
    edges = []
    for iface_u, area_u, net_u in entries_u:
        for iface_v, area_v, net_v in entries_v:
            if area_u != area_v or net_u != net_v:
                continue
            if not segments.same_segment(
                (u, iface_u.name), (v, iface_v.name)
            ):
                continue
            neighbors.append(
                OspfNeighbor(u, iface_u.name, v, iface_v.name, area_u)
            )
            neighbors.append(
                OspfNeighbor(v, iface_v.name, u, iface_u.name, area_u)
            )
            edges.append((u, v, _interface_cost(iface_u), iface_u, iface_v))
            edges.append((v, u, _interface_cost(iface_v), iface_v, iface_u))
    return neighbors, edges


def _candidate_pairs(prepared):
    """Router pairs ``(u, v)``, ``u < v``, sharing an ``(area, subnet)``.

    Only such pairs can form an adjacency, so hashing every prepared entry
    into its bucket and pairing bucket members replaces a scan over all
    O(R^2) router pairs.
    """
    buckets = {}
    for name, entries in prepared.items():
        for _iface, area, net_key in entries:
            buckets.setdefault((area, net_key), set()).add(name)
    candidates = set()
    for members in buckets.values():
        if len(members) < 2:
            continue
        ordered = sorted(members)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1:]:
                candidates.add((u, v))
    return candidates


def _discover_adjacencies(segments, prepared):
    """All adjacencies, the SPF edge list, and the per-pair index.

    Pairs are visited in sorted order, so the output order is that of a
    scan over every router pair. ``pairs`` maps ``(u, v)`` with ``u < v``
    to that pair's (neighbors, edges) tuples — only non-empty pairs are
    stored — so an incremental run can splice clean pairs back in cold
    order and diff only dirty ones.
    """
    neighbors = []
    edges = []
    pairs = {}
    for u, v in sorted(_candidate_pairs(prepared)):
        pair_n, pair_e = _pair_adjacencies(
            segments, u, prepared[u], v, prepared[v]
        )
        if pair_n or pair_e:
            pairs[(u, v)] = (tuple(pair_n), tuple(pair_e))
        neighbors.extend(pair_n)
        edges.extend(pair_e)
    return neighbors, edges, pairs


def _router_advertisements(router, config, active):
    """(prefix, prefix_key, advertiser, cost_at_advertiser) for every
    activated interface, plus the default-route origination.

    ``prefix_key`` is the cheap-to-hash ``(network_int, prefixlen)`` form
    that :func:`_routes_for` uses for its per-prefix bookkeeping.
    """
    ads = []
    for iface, _area in active:
        net = iface.address.network
        ads.append((
            net, (int(net.network_address), net.prefixlen), router,
            _interface_cost(iface),
        ))
    ospf = config.ospf
    if ospf is not None and ospf.default_information_originate and active:
        ads.append((DEFAULT_PREFIX, (0, 0), router, 1))
    return ads


def _grouped_advertisements(routers, ads_by_router):
    """``[(advertiser, ads), ...]`` in router order, advertisers with ads only.

    Concatenated, the groups are the flat advertisement list, so selection
    visits candidates in the same order while resolving each advertiser's
    distance and next hop once per group.
    """
    return [(name, ads_by_router[name]) for name in routers
            if ads_by_router[name]]


def _adjacency_index(edges):
    """``node -> [(neighbor, cost, iface_u, iface_v), ...]`` for SPF.

    Built once per compile and shared by every Dijkstra source. Each list
    keeps edge discovery order, and :func:`_dijkstra` does not depend on
    any other: relaxation is strict-``<``, so heap entries are unique in
    ``(distance, name)``, and only parallel equal-cost edges to one
    neighbor compete, where the first discovered wins.
    """
    adjacency = {}
    for u, v, cost, iface_u, iface_v in edges:
        adjacency.setdefault(u, []).append((v, cost, iface_u, iface_v))
    return adjacency


def _dijkstra(source, adjacency):
    """Shortest paths from ``source``; returns (dist, first_hop).

    ``adjacency`` is an :func:`_adjacency_index`. Of two equal-distance
    paths the one through the node popped first wins (strict-``<``
    relaxation, heap entries ordered by ``(distance, name)``).
    ``first_hop[r]`` is ``(out_interface_cfg, remote_interface_cfg)`` of the
    first SPF edge toward ``r``.
    """
    dist = {source: 0}
    first_hop = {}
    # Heap entries carry the node name for deterministic tie-breaking.
    heap = [(0, source, None)]
    visited = set()
    while heap:
        d, node, hop = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if hop is not None:
            first_hop[node] = hop
        for neighbor, cost, iface_u, iface_v in adjacency.get(node, ()):
            candidate = d + cost
            if candidate < dist.get(neighbor, _INF):
                dist[neighbor] = candidate
                next_hop = hop if hop is not None else (iface_u, iface_v)
                heapq.heappush(heap, (candidate, neighbor, next_hop))
    return dist, first_hop


def _local_prefix_keys(config):
    """Prefix keys of the router's own live connected subnets."""
    local_prefixes = set()
    for iface in config.routed_interfaces():
        if not iface.shutdown:
            net = iface.address.network
            local_prefixes.add((int(net.network_address), net.prefixlen))
    return local_prefixes


def _routes_for(config, router, dist, first_hop, grouped_ads, hop_cache):
    """OSPF routes installed on ``router``, with their prefix keys.

    Returns ``(routes, keys)``, ``keys[i]`` being the ``(network_int,
    prefixlen)`` key of ``routes[i]``. Candidates rank on ``(metric,
    str(next_hop))`` — equivalent to ``Route.sort_key()`` since every OSPF
    route shares one admin distance — the first one wins ties, and only
    the winners become ``Route`` objects.
    """
    local_prefixes = _local_prefix_keys(config)
    best = {}
    best_get = best.get
    for advertiser, ads in grouped_ads:
        if advertiser == router or advertiser not in first_hop:
            continue
        out_iface, remote_iface = first_hop[advertiser]
        hop_addr, hop_ip = _next_hop(remote_iface, hop_cache)
        base_dist = dist[advertiser]
        for prefix, key, _advertiser, advertiser_cost in ads:
            if key in local_prefixes:
                continue
            rank = (base_dist + advertiser_cost, hop_ip)
            current = best_get(key)
            if current is None or rank < current[0]:
                best[key] = (rank, prefix, out_iface, hop_addr)
    return [_ospf_route(*entry) for entry in best.values()], list(best)


def _next_hop(remote_iface, hop_cache):
    """``(address, str(address))`` of the next hop through ``remote_iface``.

    ``hop_cache`` maps ``id(remote interface)`` to that pair and is shared
    by every source of one compile: stringifying next hops otherwise
    dominates the compile. It must not outlive the compile, since the ids
    are valid only while these configs are.
    """
    hop = hop_cache.get(id(remote_iface))
    if hop is None:
        address = remote_iface.address.ip
        hop = (address, str(address))
        hop_cache[id(remote_iface)] = hop
    return hop


def _ospf_route(rank, prefix, out_iface, hop_addr):
    return Route(
        prefix=prefix,
        protocol="ospf",
        out_interface=out_iface.name,
        next_hop=hop_addr,
        metric=rank[0],
        distance=_OSPF_DISTANCE,
    )


def _patch_routes(config, router, dist, first_hop, base_routes, base_keys,
                  ads_for_affected, key_order, hop_cache):
    """Patch one clean source's baseline routes against the ads delta.

    The source's tree is intact and its own config is clean, so every
    candidate's rank is what it was on the baseline run; only the prefixes
    in ``ads_for_affected`` gained or lost candidates. Winners for those
    keys are re-selected (same strict-``<`` first-wins tie-break as
    :func:`_routes_for`) and spliced into a copy of the baseline list:
    unchanged winners keep their baseline ``Route`` objects, removed keys
    drop out, new keys append in flat-advertisement order. Returns
    ``(routes, keys)`` like :func:`_routes_for`; a patch that changes
    nothing returns the baseline list *objects*, which downstream FIB
    sharing detects by identity. List order can deviate from a cold run's
    insertion order when an affected prefix has several advertisers, but
    never in content — and FIB construction is order-insensitive (one
    winner per prefix, totally-ordered sort).
    """
    local_prefixes = _local_prefix_keys(config)

    def winner(key):
        if key in local_prefixes:
            return None
        best = None
        for prefix, _key, advertiser, advertiser_cost in ads_for_affected[key]:
            if advertiser == router or advertiser not in first_hop:
                continue
            out_iface, remote_iface = first_hop[advertiser]
            hop_addr, hop_ip = _next_hop(remote_iface, hop_cache)
            rank = (dist[advertiser] + advertiser_cost, hop_ip)
            if best is None or rank < best[0]:
                best = (rank, prefix, out_iface, hop_addr)
        return best

    index_of = {key: index for index, key in enumerate(base_keys)}
    routes = list(base_routes)
    keys = list(base_keys)
    changed = False
    removals = []
    additions = []
    for key in ads_for_affected:
        best = winner(key)
        old_index = index_of.get(key)
        if best is None:
            if old_index is not None:
                removals.append(old_index)
                changed = True
            continue
        route = _ospf_route(*best)
        if old_index is not None:
            if route != base_routes[old_index]:
                routes[old_index] = route
                changed = True
        else:
            additions.append((key_order[key], key, route))
            changed = True
    if not changed:
        return base_routes, base_keys
    for index in sorted(removals, reverse=True):
        del routes[index]
        del keys[index]
    for _order, key, route in sorted(additions, key=lambda item: item[0]):
        routes.append(route)
        keys.append(key)
    return routes, keys
