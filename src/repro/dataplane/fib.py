"""Forwarding information base with longest-prefix-match lookup."""

from repro.obs import metrics as obs_metrics
from repro.obs.state import STATE as _OBS

# lookup() is the hottest function in the repo (every hop of every trace),
# so the counters are guarded at the call site on one attribute read
# instead of paying a method call per lookup while disabled.
_LOOKUPS = obs_metrics.counter(
    "fib.lookups", unit="lookups",
    help="LPM lookups served (every forwarding hop performs one)",
)
_LOOKUP_MISSES = obs_metrics.counter(
    "fib.lookup.misses", unit="lookups",
    help="LPM lookups with no matching route (traffic dropped as no-route)",
)


class Fib:
    """An installed route table for one device.

    Lookup uses a prefix-length-bucketed exact-match table: one dict per
    distinct prefix length, keyed by the masked integer network address, and
    scanned longest-prefix first. That makes a lookup O(#distinct prefix
    lengths) dict probes instead of a linear scan over every route — the
    same structure hardware LPM and software routers use before graduating
    to a compressed trie.

    Tie-break semantics are identical to the historical linear scan: routes
    are pre-sorted by ``(-prefixlen, str(prefix))`` and the *first* route in
    that order wins for each prefix, so duplicate prefixes resolve exactly
    as before.
    """

    def __init__(self, routes=()):
        self._routes = sorted(
            routes, key=lambda r: (-r.prefix.prefixlen, str(r.prefix))
        )
        # One exact-match bucket per distinct prefix length, longest first.
        # setdefault over the sorted list keeps first-route-wins tie-breaks.
        by_len = {}
        by_prefix = {}
        for route in self._routes:
            prefix = route.prefix
            bucket = by_len.setdefault(prefix.prefixlen, {})
            bucket.setdefault(int(prefix.network_address), route)
            by_prefix.setdefault(prefix, route)
        self._buckets = [
            (_mask(plen), table)
            for plen, table in sorted(by_len.items(), reverse=True)
        ]
        self._by_prefix = by_prefix

    @classmethod
    def _from_canonical(cls, ordered):
        """Construct from ``[(key, route), ...]`` already in canonical order.

        Fast path for the router FIBs of
        :func:`repro.control.builder._router_fib`, which selects one winner
        per prefix and sorts by a per-compile ``(-prefixlen, str(prefix))``
        table — re-deriving both here would redo work the compile already
        paid for once per *unique* prefix instead of once per installed
        route. ``key`` is the route's ``(int(network_address), prefixlen)``
        pair; keys must be unique and ordered exactly as ``__init__`` would
        sort the routes, which keeps the two constructors behaviourally
        indistinguishable (asserted against ``Fib(select_best_routes(...))``
        by ``tests/control/test_reference_equivalence.py``). ``_by_prefix``
        is built lazily on the first exact-prefix query — it is off the
        forwarding hot path entirely.
        """
        fib = cls.__new__(cls)
        fib._routes = [route for _key, route in ordered]
        by_len = {}
        for (address, plen), route in ordered:
            by_len.setdefault(plen, {})[address] = route
        fib._buckets = [
            (_mask(plen), table)
            for plen, table in sorted(by_len.items(), reverse=True)
        ]
        fib._by_prefix = None
        return fib

    def lookup(self, dst_ip):
        """The longest-prefix-match route for ``dst_ip``, or ``None``."""
        if _OBS.enabled:
            _LOOKUPS.inc()
        addr = int(dst_ip)
        for mask, table in self._buckets:
            route = table.get(addr & mask)
            if route is not None:
                return route
        if _OBS.enabled:
            _LOOKUP_MISSES.inc()
        return None

    def routes(self):
        """All installed routes, most-specific first."""
        return list(self._routes)

    def route_for_prefix(self, prefix):
        """The installed route for exactly ``prefix``, or ``None``."""
        if self._by_prefix is None:
            by_prefix = {}
            for route in self._routes:
                by_prefix.setdefault(route.prefix, route)
            self._by_prefix = by_prefix
        return self._by_prefix.get(prefix)

    def __len__(self):
        return len(self._routes)

    def __iter__(self):
        return iter(self._routes)


def _mask(prefixlen):
    """The IPv4 netmask for ``prefixlen`` as an int."""
    return (0xFFFFFFFF << (32 - prefixlen)) & 0xFFFFFFFF
