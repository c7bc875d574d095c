"""Multi-tenant front-door benchmark (``bench --tenants N``).

Measures what org isolation costs. The same workload — N optimistic
maintenance sessions, round-robined over M orgs, every session editing a
**distinct** device of its org's network so each import lands clean (or
semantically rebased) — runs twice:

* **front door** — through :class:`~repro.core.frontdoor.FrontDoor`:
  registry lookup, capability-token validation, token-bucket admission,
  bounded queue, and the org's bulkhead workers (``workers`` per org);
* **direct** — the PR-9 baseline: each org's
  :class:`~repro.core.sessions.SessionManager` driven by plain worker
  threads of the *same* per-org width, no admission machinery.

``overhead_ratio = frontdoor_elapsed / direct_elapsed`` is the gated
acceptance number (target: ≤ 1.3×, wired into ``bench --check``). The
report also carries a deterministic **flood** phase — a one-slot tenant
whose second admission must shed with a typed
:class:`~repro.util.errors.FrontDoorOverloadError` and a finite
retry-after — plus the isolation invariants (every session imported,
zero ``tenancy.violation`` records, every org's audit chain verifies).

Wall-clock is real ``monotonic_s`` seconds, like the other benchmarks.
"""

import queue
import threading

from repro.core.frontdoor import FrontDoor
from repro.core.heimdall import Heimdall
from repro.core.sessions import SessionManager
from repro.core.tenancy import TenantSpec
from repro.experiments.bench_dataplane import NETWORKS, write_report
from repro.scenarios.issues import FixStep, standard_issues
from repro.util import rand
from repro.util.clock import monotonic_s
from repro.util.errors import FrontDoorOverloadError, ReproError

__all__ = ["run_tenants_bench", "tenants_acceptance", "write_report"]

DEFAULT_SESSIONS = 24
DEFAULT_ORGS = 3

#: The gated bound: admission control may cost at most 30% of the direct
#: multi-org throughput at equal load and equal worker width.
OVERHEAD_TARGET = 1.3

#: Per-org bulkhead width used by BOTH phases (front-door workers and the
#: direct baseline's pool), so the ratio isolates admission overhead.
WORKERS_PER_ORG = 2

_SCOPE_ISSUE = "ospf"  # widest twin scope of the standard issues


def _edit_script(production, device, tag):
    """A single-device interface-description edit, unique per ``tag``."""
    iface = sorted(production.config(device).interfaces)[0]
    return (FixStep(device, (
        "configure terminal",
        f"interface {iface}",
        f"description tenants bench edit {tag}",
        "end",
        "write memory",
    )),)


def _session_devices(production, issue, count):
    """``count`` distinct editable devices inside the issue's twin scope."""
    from repro.control.builder import build_dataplane
    from repro.core.twin.scoping import SCOPING_STRATEGIES

    scope = sorted(
        SCOPING_STRATEGIES["heimdall"](
            production, issue, build_dataplane(production)
        )
    )
    devices = [
        device for device in scope
        if production.config(device).interfaces
    ]
    if len(devices) < count:
        raise ReproError(
            f"{count} sessions per org need {count} scoped devices; "
            f"only {len(devices)} available"
        )
    return devices[:count]


def _session_work(issue, script):
    """The callable one admitted session runs on its org's manager."""
    def work(manager):
        session = manager.open_ticket(
            issue, mode="optimistic", profile="interface"
        )
        try:
            session.run_fix_script(script)
        except ReproError:
            session.abandon("bench edit failed")
            raise
        return session.submit()

    return work


def _plan_org(network, sessions_per_org):
    """(production, issue, scripts) for one org's session pack."""
    production = NETWORKS[network]()
    issue = standard_issues(network)[_SCOPE_ISSUE]
    devices = _session_devices(production, issue, sessions_per_org)
    scripts = [
        _edit_script(production, device, f"{index}:{device}")
        for index, device in enumerate(devices)
    ]
    return production, issue, scripts


def _phase_stats(outcomes, errors, elapsed_s):
    imported = sum(
        1 for outcome in outcomes
        if outcome is not None and outcome.status in ("clean", "rebased")
    )
    return {
        "elapsed_s": round(elapsed_s, 3),
        "throughput_per_s": (
            round(len(outcomes) / elapsed_s, 3) if elapsed_s else None
        ),
        "imported": imported,
        "errors": [error for error in errors if error],
    }


def run_tenants_bench(sessions=DEFAULT_SESSIONS, orgs=DEFAULT_ORGS,
                      network="university", seed=7):
    """Run the isolation-overhead benchmark; returns the report dict.

    Args:
        sessions: total maintenance sessions (split round-robin over
            ``orgs``; must divide into at most 23 per university org).
        orgs: tenant count.
        network: scenario network every org runs a copy of.
        seed: :mod:`repro.util.rand` seed.
    """
    if sessions < orgs:
        raise ReproError(
            f"need at least one session per org ({orgs}), got {sessions}"
        )
    if orgs < 1:
        raise ReproError(f"need at least one org, got {orgs}")
    if network not in NETWORKS:
        raise ReproError(
            f"unknown network {network!r}; expected {'/'.join(NETWORKS)}"
        )
    rand.seed(seed)
    org_ids = [f"org-{index}" for index in range(orgs)]
    per_org = [
        sessions // orgs + (1 if index < sessions % orgs else 0)
        for index in range(orgs)
    ]

    # -- phase 1: through the front door -------------------------------------
    plans = {org: _plan_org(network, count)
             for org, count in zip(org_ids, per_org)}
    frontdoor = FrontDoor([
        TenantSpec(
            org_id=org, network=plans[org][0],
            queue_limit=max(count, 1), burst=max(count, 1),
            rate_per_s=1000.0, workers=WORKERS_PER_ORG,
        )
        for org, count in zip(org_ids, per_org)
    ])
    tokens = {
        org: frontdoor.issue_token(org, f"bench-{org}") for org in org_ids
    }
    fd_outcomes, fd_errors = [], []
    started = monotonic_s()
    admissions = []
    for org, count in zip(org_ids, per_org):
        _, issue, scripts = plans[org]
        for index in range(count):
            admissions.append(frontdoor.admit(
                tokens[org], org, _session_work(issue, scripts[index]),
                scope="session.submit", label=f"{org}:{index}",
            ))
    for admission in admissions:
        try:
            fd_outcomes.append(admission.result())
            fd_errors.append(None)
        except ReproError as exc:
            fd_outcomes.append(None)
            fd_errors.append(f"{type(exc).__name__}: {exc}")
    fd_elapsed = monotonic_s() - started
    frontdoor.close()

    violations = 0
    audits_ok = True
    for org in org_ids:
        heimdall = frontdoor.deployment(org).heimdall
        violations += len(
            heimdall.audit.query(action_prefix="tenancy.violation")
        )
        audits_ok = audits_ok and heimdall.audit.verify()

    # -- phase 2: direct managers, same per-org worker width -----------------
    direct_plans = {org: _plan_org(network, count)
                    for org, count in zip(org_ids, per_org)}
    managers = {
        org: SessionManager(Heimdall(direct_plans[org][0]))
        for org in org_ids
    }
    direct_outcomes, direct_errors = [], []
    lock = threading.Lock()

    def run_direct(org, index):
        _, issue, scripts = direct_plans[org]
        try:
            outcome = _session_work(issue, scripts[index])(managers[org])
            with lock:
                direct_outcomes.append(outcome)
                direct_errors.append(None)
        except ReproError as exc:
            with lock:
                direct_outcomes.append(None)
                direct_errors.append(f"{type(exc).__name__}: {exc}")

    pending = {org: queue.SimpleQueue() for org in org_ids}
    for org, count in zip(org_ids, per_org):
        for index in range(count):
            pending[org].put(index)

    def drain(org):
        while True:
            try:
                index = pending[org].get_nowait()
            except queue.Empty:
                return
            run_direct(org, index)

    workers = [
        threading.Thread(
            target=drain, args=(org,), name=f"direct-{org}-{slot}",
        )
        for org in org_ids
        for slot in range(WORKERS_PER_ORG)
    ]
    started = monotonic_s()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    direct_elapsed = monotonic_s() - started

    # -- phase 3: deterministic flood — the bound must shed, typed -----------
    flood = _flood_phase(network)

    frontdoor_stats = _phase_stats(fd_outcomes, fd_errors, fd_elapsed)
    direct_stats = _phase_stats(direct_outcomes, direct_errors,
                                direct_elapsed)
    overhead_ratio = (
        round(fd_elapsed / direct_elapsed, 3) if direct_elapsed else None
    )
    invariants = {
        "frontdoor_all_imported": frontdoor_stats["imported"] == sessions
        and not frontdoor_stats["errors"],
        "direct_all_imported": direct_stats["imported"] == sessions
        and not direct_stats["errors"],
        "zero_violations": violations == 0,
        "audit_chains_verify": audits_ok,
        "flood_sheds_typed": flood["shed"],
    }
    acceptance = {
        "overhead_ratio": overhead_ratio,
        "target": OVERHEAD_TARGET,
        "pass": overhead_ratio is not None
        and overhead_ratio <= OVERHEAD_TARGET,
    }
    return {
        "seed": seed,
        "network": network,
        "orgs": orgs,
        "sessions": sessions,
        "workers_per_org": WORKERS_PER_ORG,
        "frontdoor": frontdoor_stats,
        "direct": direct_stats,
        "overhead_ratio": overhead_ratio,
        "flood": flood,
        "violations": violations,
        "invariants": invariants,
        "acceptance": acceptance,
        "ok": all(invariants.values()) and acceptance["pass"],
    }


def _flood_phase(network):
    """One-slot tenant: admission #1 runs, #2 must shed with retry-after."""
    frontdoor = FrontDoor([
        TenantSpec(
            org_id="flood", network=NETWORKS[network](),
            queue_limit=1, burst=1, rate_per_s=0.1, workers=1,
        )
    ])
    token = frontdoor.issue_token("flood", "bench-flood")
    first = frontdoor.admit(
        token, "flood", lambda manager: "ran", label="flood:0"
    ).result()
    shed = False
    retry_after_s = None
    try:
        frontdoor.admit(token, "flood", lambda manager: "never", label="flood:1")
    except FrontDoorOverloadError as exc:
        shed = True
        retry_after_s = exc.retry_after_s
    frontdoor.close()
    return {
        "first_admission": first,
        "shed": shed and retry_after_s is not None,
        "retry_after_s": (
            round(retry_after_s, 3) if retry_after_s is not None else None
        ),
    }


def tenants_acceptance(report):
    """The gated number: ``{"tenants.overhead_ratio": value}``."""
    return {"tenants.overhead_ratio": report["overhead_ratio"]}
