"""Policy verification over a data plane (the Batfish-check stand-in)."""

from dataclasses import dataclass, field

from repro.control.builder import build_dataplane
from repro.dataplane.reachability import ReachabilityAnalyzer
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.state import STATE as _OBS
from repro.util.clock import monotonic_s

_POLICY_CHECKS = obs_metrics.counter(
    "policy.checks", unit="checks",
    help="individual policy evaluations",
)
_VERIFY_MS = obs_metrics.histogram(
    "policy.verify.ms", unit="ms",
    help="wall-clock milliseconds per full verification pass",
)


@dataclass
class VerificationReport:
    """Results of verifying one policy set against one data plane."""

    results: list = field(default_factory=list)

    @property
    def violations(self):
        """Results for policies that do not hold."""
        return [r for r in self.results if not r.holds]

    @property
    def holds(self):
        """Whether every policy holds."""
        return not self.violations

    @property
    def checked_count(self):
        return len(self.results)

    @property
    def violation_count(self):
        return len(self.violations)

    def violated_policies(self):
        """The policy objects that were violated."""
        return [r.policy for r in self.violations]

    def summary(self):
        return (
            f"{self.checked_count - self.violation_count}/{self.checked_count}"
            f" policies hold"
        )


class PolicyVerifier:
    """Checks a policy set against network states.

    One verifier instance is reusable across network states; each
    :meth:`verify` call compiles (or receives) a data plane and traces every
    policy's representative flow.

    Policies are checked serially, in order. One verifier may serve many
    threads at once: the analyzer's trace cache is thread-safe.
    """

    def __init__(self, policies):
        self.policies = list(policies)

    def verify_dataplane(self, dataplane, analyzer=None):
        """Check all policies against an already-compiled data plane.

        Pass an ``analyzer`` to share one trace cache with other consumers
        of the same plane (the enforcer shares it with its differential
        impact analysis); by default one is created over the plane, which
        itself shares the plane's cache-attached trace store when present.
        """
        if analyzer is None:
            analyzer = ReachabilityAnalyzer(dataplane)
        report = VerificationReport()
        started = monotonic_s() if _OBS.enabled else 0.0
        with obs_trace.span(
            "verify.policies", policies=len(self.policies)
        ) as vspan:
            for policy in self.policies:
                with obs_trace.span("verify.policy", policy=policy.policy_id):
                    report.results.append(policy.check(analyzer))
            _POLICY_CHECKS.inc(len(self.policies))
            vspan.set(violations=report.violation_count)
        if _OBS.enabled:
            _VERIFY_MS.observe((monotonic_s() - started) * 1000.0)
        return report

    def verify_network(self, network):
        """Compile ``network`` and check all policies."""
        return self.verify_dataplane(build_dataplane(network))

    def __len__(self):
        return len(self.policies)
