"""Concurrent policy verification: verifiers on many threads share one cache."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.control.builder import build_dataplane
from repro.control.cache import clear_dataplane_cache
from repro.dataplane.reachability import ReachabilityAnalyzer
from repro.policy.mining import mine_policies
from repro.policy.verification import PolicyVerifier
from tests.fixtures import square_network


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_dataplane_cache()
    yield
    clear_dataplane_cache()


@pytest.fixture()
def network():
    return square_network()


@pytest.fixture()
def policies(network):
    mined = mine_policies(network)
    assert len(mined) > 1, "concurrency tests need a multi-policy set"
    return mined


def _digest(report):
    return [(r.policy.policy_id, r.holds) for r in report.results]


class TestThreadSafety:
    def test_concurrent_verify_dataplane(self, network, policies):
        """Many serial verifiers hammering one plane's shared trace cache."""
        plane = build_dataplane(network)
        with ThreadPoolExecutor(max_workers=8) as pool:
            reports = list(pool.map(
                lambda _: PolicyVerifier(policies).verify_dataplane(plane),
                range(16),
            ))
        expected = _digest(PolicyVerifier(policies).verify_dataplane(plane))
        for report in reports:
            assert _digest(report) == expected

    def test_shared_analyzer_populates_one_cache(self, network, policies):
        plane = build_dataplane(network, use_cache=False)
        analyzer = ReachabilityAnalyzer(plane)
        PolicyVerifier(policies).verify_dataplane(plane, analyzer=analyzer)
        # The plane-attached cache and the analyzer's are one and the same,
        # and the sweep populated it.
        assert plane.trace_cache
        second = ReachabilityAnalyzer(plane)
        before = len(plane.trace_cache)
        PolicyVerifier(policies).verify_dataplane(plane, analyzer=second)
        assert len(plane.trace_cache) >= before
