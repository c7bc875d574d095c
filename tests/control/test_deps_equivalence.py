"""Property-style equivalence: cone-scoped compiles are route-identical.

The invalidation cone (:mod:`repro.control.deps`) decides what an
incremental compile may skip; these tests prove the skipping is invisible.
For every scenario issue — and for seeded multi-change sequences that
chain incremental baselines — the cone-scoped compile must produce exactly
the FIBs, segment structure, and traces of a cold compile of the same
snapshot. The chaos case arms the ``dataplane.deps.overscope`` fault:
a deliberately widened cone recompiles everything and must still come out
identical (over-invalidation is always safe).
"""

import ipaddress
import random

import pytest

from repro import faults, obs
from repro.config.diffing import diff_networks
from repro.config.model import StaticRoute
from repro.control import deps
from repro.control.builder import build_dataplane
from repro.control.cache import clear_dataplane_cache
from repro.dataplane.differential import default_probe_flows
from repro.dataplane.reachability import ReachabilityAnalyzer
from repro.faults.registry import Rule
from repro.scenarios.enterprise import build_enterprise_network
from repro.scenarios.issues import standard_issues
from repro.scenarios.university import build_university_network

from tests.fixtures import square_network

SCENARIOS = {
    "enterprise": build_enterprise_network,
    "university": build_university_network,
}

CASES = [
    (scenario, issue_id)
    for scenario in sorted(SCENARIOS)
    for issue_id in standard_issues(scenario)
]


@pytest.fixture(autouse=True)
def _clean_state():
    clear_dataplane_cache()
    yield
    clear_dataplane_cache()
    faults.disarm()
    obs.disable()
    obs.reset()


def _segment_structure(segments):
    return {segment.endpoints for segment in segments}


def _assert_planes_equivalent(incremental, scratch, label):
    assert incremental.fingerprint == scratch.fingerprint, label
    for device in scratch.network.configs:
        assert list(incremental.fib(device)) == list(scratch.fib(device)), (
            f"{label}: FIB mismatch on {device}"
        )
    assert _segment_structure(incremental.segments) == _segment_structure(
        scratch.segments
    ), label
    analyzer_inc = ReachabilityAnalyzer(incremental)
    analyzer_scratch = ReachabilityAnalyzer(scratch)
    for start, flow in default_probe_flows(scratch.network):
        trace_inc = analyzer_inc.trace(flow, start_device=start)
        trace_scratch = analyzer_scratch.trace(flow, start_device=start)
        assert trace_inc.disposition == trace_scratch.disposition, (
            f"{label}: {flow} disposition diverged"
        )
        assert trace_inc.path() == trace_scratch.path(), (
            f"{label}: {flow} path diverged"
        )


@pytest.mark.parametrize("scenario,issue_id", CASES)
def test_cone_scoped_compile_matches_cold(scenario, issue_id):
    network = SCENARIOS[scenario]()
    issue = standard_issues(scenario)[issue_id]
    baseline = build_dataplane(network, use_cache=False)
    broken = network.copy()
    issue.inject(broken)
    incremental = build_dataplane(
        broken, baseline=baseline, use_cache=False,
    )
    scratch = build_dataplane(broken, use_cache=False)
    _assert_planes_equivalent(incremental, scratch, f"{scenario}/{issue_id}")


# -- seeded multi-change sequences ---------------------------------------------


def _routed_interfaces(config):
    return [
        iface for iface in config.interfaces.values()
        if iface.address is not None
    ]


def _mutate_ospf_cost(rng, network):
    router = rng.choice(network.routers())
    ifaces = _routed_interfaces(network.config(router))
    if not ifaces:
        return None
    iface = rng.choice(ifaces)
    iface.ospf_cost = rng.randint(2, 20)
    return f"ospf_cost {router}/{iface.name}"


def _mutate_static_route(rng, network):
    router = rng.choice(network.routers())
    network.config(router).static_routes.append(StaticRoute(
        prefix=ipaddress.ip_network(f"10.{rng.randint(200, 250)}.0.0/24"),
        next_hop=ipaddress.ip_address(f"10.0.{rng.randint(1, 9)}.2"),
    ))
    return f"static_route {router}"


def _mutate_shutdown(rng, network):
    router = rng.choice(network.routers())
    ifaces = _routed_interfaces(network.config(router))
    if not ifaces:
        return None
    iface = rng.choice(ifaces)
    iface.shutdown = not iface.shutdown
    return f"shutdown {router}/{iface.name}"


def _mutate_ospf_network(rng, network):
    router = rng.choice(network.routers())
    ospf = network.config(router).ospf
    if ospf is None or len(ospf.networks) < 2:
        return None
    del ospf.networks[rng.randrange(len(ospf.networks))]
    return f"ospf_network {router}"


def _mutate_description(rng, network):
    device = rng.choice(sorted(network.configs))
    ifaces = list(network.config(device).interfaces.values())
    if not ifaces:
        return None
    rng.choice(ifaces).description = f"step-{rng.randint(0, 999)}"
    return f"description {device}"


MUTATIONS = (
    _mutate_ospf_cost,
    _mutate_static_route,
    _mutate_shutdown,
    _mutate_ospf_network,
    _mutate_description,
)


@pytest.mark.parametrize("seed", [7, 21, 1337])
def test_seeded_change_sequence_chains_incrementally(seed):
    """Each step compiles against the previous *incremental* plane.

    This is the enforcer's steady state: baselines are themselves products
    of incremental compiles, so retained SPF state and patched route lists
    must stay equivalent to cold across arbitrary chains, not just one hop.
    """
    rng = random.Random(seed)
    network = build_enterprise_network()
    baseline = build_dataplane(network, use_cache=False)
    steps = 0
    while steps < 5:
        mutate = rng.choice(MUTATIONS)
        current = baseline.network.copy()
        label = mutate(rng, current)
        if label is None:
            continue
        steps += 1
        incremental = build_dataplane(
            current, baseline=baseline, use_cache=False,
        )
        scratch = build_dataplane(current, use_cache=False)
        _assert_planes_equivalent(
            incremental, scratch, f"seed={seed} step={steps} ({label})"
        )
        baseline = incremental


# -- the overscope fault: over-invalidation is always safe ---------------------


def test_overscoped_cone_still_compiles_identically():
    obs.enable()
    network = SCENARIOS["university"]()
    issue = standard_issues("university")["ospf"]
    baseline = build_dataplane(network, use_cache=False)
    broken = network.copy()
    issue.inject(broken)
    faults.arm({"dataplane.deps.overscope": Rule(nth=1)}, seed=7)
    widened = build_dataplane(broken, baseline=baseline, use_cache=False)
    faults.disarm()
    scratch = build_dataplane(broken, use_cache=False)
    _assert_planes_equivalent(widened, scratch, "overscope")
    overscoped = obs.registry().get("dataplane.deps.overscoped")
    assert overscoped is not None and overscoped.value == 1


# -- wave cones (the rollout engine's view) ------------------------------------


def test_local_change_cone_stays_on_device():
    production = square_network()
    plane = build_dataplane(production, use_cache=False)
    modified = production.copy()
    modified.config("r1").interface("Gi0/0").description = "local"
    changes = diff_networks(production.configs, modified.configs)
    cone = deps.wave_cone(plane, ("r1",), changes)
    assert cone == frozenset({"r1"})


def test_routing_change_cone_covers_spf_region():
    production = square_network()
    plane = build_dataplane(production, use_cache=False)
    modified = production.copy()
    modified.config("r1").interface("Gi0/0").ospf_cost = 42
    changes = diff_networks(production.configs, modified.configs)
    cone = deps.wave_cone(plane, ("r1",), changes)
    assert {"r1", "r2", "r3", "r4"} <= cone
