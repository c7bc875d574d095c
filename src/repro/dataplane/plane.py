"""The compiled data plane: per-device FIBs plus L2 segment structure."""

import threading

from repro.util.errors import TopologyError


class DataPlane:
    """Everything needed to forward a packet through the network.

    Produced by :func:`repro.control.builder.build_dataplane`; consumed by
    :mod:`repro.dataplane.forwarding` and the policy verifier. The data plane
    is a snapshot — recompute it after configs change.

    When built through the compile cache, ``artifacts`` carries the shared
    :class:`~repro.control.cache.CompiledDataplane` this plane was rebound
    from: its fingerprints let differential analysis identify exactly which
    devices changed between two planes, and its trace cache is shared by
    every plane with the same content fingerprint so traces computed once
    are reused across verifier runs.
    """

    def __init__(self, network, segments, fibs, ospf, bgp=None, artifacts=None):
        self.network = network
        self.segments = segments
        self._fibs = fibs
        self.ospf = ospf
        self.bgp = bgp
        self.artifacts = artifacts
        if artifacts is not None:
            self.trace_cache = artifacts.trace_cache
            self.trace_lock = artifacts.trace_lock
            self.owner_cache = artifacts.owner_cache
        else:
            self.trace_cache = {}
            self.trace_lock = threading.Lock()
            self.owner_cache = {}
        # device -> bool memo for binding_intact(); per plane, so one
        # verification pass re-hashes each device at most once. Benign
        # lock-free races: the value is deterministic for this plane.
        self._binding_memo = {}
        self._binding_asserted = False

    def assert_binding_intact(self):
        """Caller's promise: no in-place config mutation while this plane lives.

        Skips the re-hash drift guard in :meth:`binding_intact` for the rest
        of this plane's lifetime. Sound only for callers that own both the
        plane and its network and will not mutate any config in place until
        they drop the plane — the enforcer's verify pipeline qualifies (it
        builds the candidate itself and the sessions layer serializes
        production mutation against verification), an interactive twin
        console does not. Like the ``changed_devices`` assertion of
        :func:`~repro.control.cache.derived_fingerprint`, a false promise
        silently corrupts shared state, so assert only from code that
        constructs its snapshots itself.
        """
        self._binding_asserted = True

    @property
    def fingerprint(self):
        """Snapshot content hash, or ``None`` for hand-assembled planes."""
        return self.artifacts.fingerprint if self.artifacts is not None else None

    @property
    def device_fingerprints(self):
        """Per-device config hashes, or ``None`` for hand-assembled planes."""
        if self.artifacts is None:
            return None
        return self.artifacts.device_fingerprints

    def binding_intact(self, devices):
        """Whether ``devices``' live configs still match this plane's build.

        A compile-cache hit rebinds shared artifacts to the calling network
        by fingerprint equality *at rebind time*; a caller that later
        mutates configs in place leaves the plane stale. Consumers that
        publish results into the **shared** trace cache (the reachability
        analyzer) call this first so a drifted plane can never poison the
        cache for an unrelated session. Hand-assembled planes (no
        artifacts) trivially pass — their caches are private — as do planes
        whose owner promised no in-place mutation via
        :meth:`assert_binding_intact`.
        """
        if self.artifacts is None or self._binding_asserted:
            return True
        expected = self.artifacts.device_fingerprints
        from repro.control.cache import config_fingerprint

        for device in devices:
            clean = self._binding_memo.get(device)
            if clean is None:
                config = self.network.configs.get(device)
                clean = (
                    config is not None
                    and config_fingerprint(config) == expected.get(device)
                )
                self._binding_memo[device] = clean
            if not clean:
                return False
        return True

    def fib(self, device):
        """The FIB of ``device`` (empty for switches)."""
        try:
            return self._fibs[device]
        except KeyError:
            raise TopologyError(f"no FIB for device {device!r}") from None

    def resolve_next_hop(self, device, out_interface, target_ip):
        """The (device, interface) owning ``target_ip`` on the egress segment.

        ``target_ip`` is the route's next hop, or the destination itself for
        connected routes. Returns ``None`` when no live endpoint on the
        segment owns the address (dead next hop / host down at L2).
        """
        segment = self.segments.segment_of(device, out_interface)
        if segment is None:
            return None
        target = int(target_ip)
        configs = self.network.configs
        for other_device, other_iface in segment.endpoints:
            if other_device == device and other_iface == out_interface:
                continue
            iface_cfg = configs[other_device].interfaces.get(other_iface)
            if iface_cfg is None or iface_cfg.address is None or iface_cfg.shutdown:
                continue
            if int(iface_cfg.address) == target:
                return (other_device, other_iface)
        return None
