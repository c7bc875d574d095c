"""The compile path against the slow reference compiler (tests/control/reference.py).

Cold compiles must match the reference exactly: the same OSPF neighbor
list, the same per-router route lists in the same order, and the same FIB
contents in the same canonical order. Incremental compiles that break
and then fix every seeded issue must match the reference compiles of the
broken and the clean snapshot; their route lists are compared as multisets because a patched list may order an
affected prefix differently (see ``repro.control.ospf._patch_routes``),
which a FIB never sees.
"""

from collections import Counter

import pytest

from repro.control.builder import build_dataplane
from repro.control.cache import clear_dataplane_cache
from repro.scenarios.enterprise import build_enterprise_network
from repro.scenarios.generate import generate_scenario
from repro.scenarios.issues import standard_issues
from repro.scenarios.university import build_university_network
from tests.control.reference import reference_compile

PAPER = {
    "enterprise": build_enterprise_network,
    "university": build_university_network,
}

# (shape, size, seed): every generated shape at N~40-120, plus the
# 80-device campus the sharded-compile tests used.
GENERATED = [
    ("campus", 40, 1),
    ("campus", 80, 3),
    ("campus", 120, 5),
    ("hub-spoke", 60, 3),
    ("hub-spoke", 120, 2),
    ("fat-tree", 40, 7),
    ("fat-tree", 120, 11),
]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_dataplane_cache()
    yield
    clear_dataplane_cache()


def _generated(shape, size, seed):
    scenario = generate_scenario(shape=shape, size=size, seed=seed)
    return scenario.network, scenario.issues


def _paper(name):
    return PAPER[name](), standard_issues(name)


def _cases():
    for name in sorted(PAPER):
        yield pytest.param(_paper, (name,), id=name)
    for shape, size, seed in GENERATED:
        yield pytest.param(
            _generated, (shape, size, seed), id=f"{shape}-{size}-s{seed}"
        )


def assert_fibs_match(plane, network, fibs):
    for device in network.configs:
        actual, expected = plane.fib(device), fibs[device]
        assert actual.routes() == expected.routes(), device
        assert actual._buckets == expected._buckets, device


@pytest.mark.parametrize("build,args", list(_cases()))
def test_cold_compile_matches_reference(build, args):
    network, _issues = build(*args)
    plane = build_dataplane(network, use_cache=False)
    neighbors, routes_by_device, fibs = reference_compile(network)

    assert plane.ospf.neighbors == neighbors
    assert plane.ospf.routes_by_device == routes_by_device
    assert_fibs_match(plane, network, fibs)


def assert_incremental_matches(plane, network, expected, label):
    neighbors, routes_by_device, fibs = expected
    assert plane.ospf.neighbors == neighbors, label
    assert set(plane.ospf.routes_by_device) == set(routes_by_device)
    for router, routes in routes_by_device.items():
        assert Counter(plane.ospf.routes_by_device[router]) == Counter(
            routes
        ), (label, router)
    assert_fibs_match(plane, network, fibs)


@pytest.mark.parametrize("build,args", list(_cases()))
def test_incremental_compile_matches_reference(build, args):
    """Break each seeded issue incrementally, then fix it again.

    Breaking mostly withdraws routes; fixing re-adds them, which drives
    the patch path's route additions.
    """
    network, issues = build(*args)
    clean = build_dataplane(network, use_cache=False)
    clean_expected = reference_compile(network)
    assert issues
    for issue_id, issue in sorted(issues.items()):
        broken = network.copy()
        issue.inject(broken)
        changed = {issue.root_cause_device}
        plane = build_dataplane(
            broken, baseline=clean, changed_devices=changed, use_cache=False,
        )
        assert_incremental_matches(
            plane, broken, reference_compile(broken), f"break {issue_id}"
        )
        fixed = build_dataplane(
            network, baseline=plane, changed_devices=changed,
            use_cache=False,
        )
        assert_incremental_matches(
            fixed, network, clean_expected, f"fix {issue_id}"
        )
