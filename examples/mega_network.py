#!/usr/bin/env python3
"""Mega-network walkthrough: generate, compile, verify, fix a ticket.

The paper's networks prove the workflow at ~30 devices; this example runs
it at managed-estate scale (docs/SCALING.md is the full handbook):

1. generate a seeded 500-device fat-tree with invariant policies and
   seeded misconfiguration issues;
2. compile it cold, then rebuild it incrementally after a one-device
   edit;
3. verify every invariant policy on the compiled data plane;
4. inject a seeded issue and fix it through the ordinary Heimdall ticket
   workflow — scoping keeps the twin tiny even when production is huge.

Run:  python examples/mega_network.py
"""

import time

from repro import Heimdall
from repro.control.builder import build_dataplane
from repro.policy.verification import PolicyVerifier
from repro.scenarios.generate import generate_scenario


def timed(fn):
    """``(result, milliseconds)`` of one call."""
    start = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - start) * 1000.0


def main():
    # ---- 1. generate the estate --------------------------------------------
    scenario = generate_scenario(shape="fat-tree", size=500, seed=7)
    production = scenario.network
    print(f"generated {scenario.shape}-{scenario.requested_size} "
          f"(seed {scenario.seed}): {scenario.device_count} devices — "
          f"{len(production.routers())} routers, "
          f"{len(production.hosts())} hosts, "
          f"{len(scenario.lans)} LANs, params {scenario.params}")
    print(f"{len(scenario.policies)} invariant policies, "
          f"{len(scenario.issues)} seeded issues\n")

    # ---- 2. cold compile, then an incremental rebuild ---------------------
    plane, cold_ms = timed(
        lambda: build_dataplane(production, use_cache=False)
    )
    print(f"cold compile: {cold_ms:.0f} ms")
    edited = production.copy()
    edit = scenario.issues["ospf"]
    edit.inject(edited)
    candidate, incremental_ms = timed(lambda: build_dataplane(
        edited, baseline=plane, changed_devices={edit.root_cause_device},
        use_cache=False,
    ))
    rebuilt = sum(
        1 for d in edited.configs if candidate.fib(d) is not plane.fib(d)
    )
    print(f"incremental rebuild after editing {edit.root_cause_device}: "
          f"{incremental_ms:.0f} ms, {rebuilt} FIBs rebuilt\n")

    # ---- 3. verify the invariants at scale ---------------------------------
    report = PolicyVerifier(scenario.policies).verify_dataplane(plane)
    holding = sum(1 for r in report.results if r.holds)
    print(f"verify: {holding}/{len(report.results)} policies hold "
          f"on the clean network\n")

    # ---- 4. a ticket at scale: the twin stays small ------------------------
    issue = scenario.issues["ifdown"]
    issue.inject(production)
    print(f"injected: {issue.title} (root cause {issue.root_cause_device})")

    heimdall = Heimdall(production, policies=scenario.policies)
    session = heimdall.open_ticket(issue)
    print(f"twin scope: {len(session.twin.scope)} of "
          f"{scenario.device_count} devices")
    for step in issue.fix_script:
        for command in step.commands:
            result = session.execute(step.device, command)
            assert result.ok, result.error
    outcome = session.submit()
    print(f"enforcer: approved={outcome.approved}, "
          f"resolved={outcome.resolved}")
    print(f"audit chain intact: {heimdall.audit.verify()}")


if __name__ == "__main__":
    main()
