"""Seeded chaos campaigns over the scenario networks.

A **campaign** is a fixed list of scenarios; a **scenario** is one ticket
resolved end-to-end (inject issue → twin session → verify → push) with a
fault plan armed at a chosen phase. Everything derives from the campaign
seed, so ``python -m repro.cli chaos --seed 7 --campaign push-failures``
produces the identical report every run.

After every scenario the runner checks the **push atomicity invariant**:
production's serialized configs are byte-identical either to the pre-push
snapshot (fully rolled back / nothing imported) or to the pre-push snapshot
with the journaled change set applied (fully committed) — never anything in
between — and the audit chain still verifies. A crashed push is recovered
with :meth:`~repro.core.enforcer.scheduler.ChangeScheduler.resume` before
the check, which is exactly the recovery protocol docs/ROBUSTNESS.md
specifies.
"""

from dataclasses import dataclass, field

from repro import faults, obs
from repro.config.serializer import serialize_config
from repro.core.approvals import ApprovalConfig
from repro.core.enforcer.audit import ReplicatedAuditTrail
from repro.core.enforcer.risk import RiskConfig
from repro.core.enforcer.rollout import RolloutConfig
from repro.core.heimdall import Heimdall
from repro.faults.adversary import generate_attacks
from repro.faults.registry import Rule
from repro.policy.mining import mine_policies
from repro.policy.verification import PolicyVerifier
from repro.scenarios.enterprise import build_enterprise_network
from repro.scenarios.issues import FixStep, standard_issues
from repro.scenarios.university import build_university_network
from repro.util.errors import (
    AuditQuorumError,
    PrivilegeError,
    PushCrashed,
    ReproError,
)

_BUILDERS = {
    "enterprise": build_enterprise_network,
    "university": build_university_network,
}

# Metrics the campaign report surfaces (all registered at import time by
# the instrumented modules; see docs/OBSERVABILITY.md).
REPORT_METRICS = (
    "faults.injected",
    "push.rollbacks",
    "push.resumes",
    "retry.attempts",
    "retry.exhausted",
    "monitor.timeouts",
    "rollout.waves",
    "rollout.probes",
    "rollout.probe.violations",
    "rollout.quarantined",
    "rollout.breaker.trips",
    "approvals.requested",
    "approvals.granted",
    "approvals.denied",
    "approvals.mediated",
    "approvals.timeouts",
    "approvals.break_glass",
    "audit.replica.appends",
    "audit.replica.flagged",
    "audit.replica.quorum_lost",
    "monitor.denied",
    "tenancy.violation",
    "tenancy.tokens.issued",
    "tenancy.tokens.denied",
    "tenancy.break_glass",
    "frontdoor.admitted",
    "frontdoor.shed",
    "sessions.listener.error",
)

# The second-device change the canary scenarios ride along with the
# standard single-device fixes: a harmless static route to an unused
# prefix via a live next hop, so the staged push has (at least) two waves
# to probe without perturbing any reachability policy. The route action is
# covered by the ``routing`` task profile the ospf tickets run under.
_CANARY_EXTRA = {
    # dist2's Gi0/1 faces dist1's 10.0.7.1 (always up).
    "enterprise": (FixStep("dist2", (
        "configure terminal",
        "ip route 10.99.0.0 255.255.0.0 10.0.7.1",
        "end",
        "write memory",
    )),),
}


@dataclass(frozen=True)
class Scenario:
    """One fault-injected ticket resolution.

    ``arm_phase`` picks when the plan arms: ``"session"`` before the twin
    commands run (monitor faults), ``"push"`` after them, just before
    submit (apply/crash/audit faults — the twin session stays clean).
    ``expect`` is the deterministic expected outcome, or ``None`` when the
    plan is probabilistic and only the two-state invariant is asserted.
    """

    label: str
    network: str
    issue: str
    plan: dict  # fault point name -> Rule
    arm_phase: str = "push"  # "session" | "push"
    expect: str = None  # "committed" | "rolled-back" | None
    # Staged-rollout knobs: a RolloutConfig makes the scenario's push
    # wave-based; extra_script appends FixSteps (a second device's benign
    # change, so the rollout has multiple waves); expect_quarantine
    # asserts the rolled-back push reported quarantined devices.
    rollout: object = None
    extra_script: tuple = ()
    expect_quarantine: bool = False
    # Approvals/replication knobs: an ApprovalConfig turns on the
    # high-risk quorum gate; audit_replicas >= 1 runs the replicated
    # tamper-evident trail; expect_audit asserts the post-run cross-check
    # verdict ("intact" | "degraded" | "lost") — the tamper scenarios
    # *expect* "degraded" (detection is the success condition).
    approvals: object = None
    audit_replicas: int = 0
    expect_audit: str = None
    # Adversarial-technician knob: an Attack (repro.faults.adversary)
    # overrides the ticket's profile/exemptions, optionally skips the
    # legitimate fix, runs the malicious script + escalation probes, and
    # asserts which layer (monitor or verifier) stopped the attack.
    attack: object = None
    # Multi-tenant knob: a non-empty case name routes the scenario to the
    # front-door isolation runner (repro.faults.tenants) instead of the
    # single-deployment flow below.
    tenants_case: str = ""


@dataclass
class ScenarioOutcome:
    """What one scenario ended in, plus its invariant verdicts."""

    label: str
    network: str
    issue: str
    outcome: str = ""  # committed | rolled-back | not-imported
    crashed: bool = False
    resumed: bool = False
    resolved: bool = False
    rollback_reason: str = ""
    state_invariant: bool = False
    audit_intact: bool = False
    expected: str = None
    expectation_met: bool = True
    faults_fired: list = field(default_factory=list)
    error: str = ""
    # Staged-rollout verdicts (trivially true for monolithic scenarios):
    # a committed staged push must carry a passing MAC-covered audit
    # record for *every* wave, and a scenario expecting quarantine must
    # report at least one quarantined device.
    waves: int = 0
    quarantined: list = field(default_factory=list)
    wave_records_ok: bool = True
    quarantine_ok: bool = True
    # Approvals/replication verdicts (trivially true without the gate):
    # a committed push under an approvals config must carry a granted,
    # change-set-bound approval — proposed exactly once, even across a
    # crash + resume; the replicated trail's cross-check status must match
    # the scenario's expectation.
    audit_status: str = ""
    audit_flagged: list = field(default_factory=list)
    approval_ok: bool = True
    # Adversarial verdicts (trivially true for fault-shaped scenarios):
    # the attack must have drawn at least the expected monitor denials,
    # every escalation probe must have been refused, and the layer the
    # attack expects to be blocked by must actually have blocked it.
    attack_kind: str = ""
    denied_commands: int = 0
    escalations_refused: int = 0
    blocked_by: str = ""
    attack_ok: bool = True
    # Multi-tenant verdicts (trivially true for single-deployment
    # scenarios): zero cross-tenant leaks, violation-refusal records
    # matching the probes exactly, and load shed exactly where expected —
    # see repro.faults.tenants.
    tenant_ok: bool = True
    violations: int = 0
    shed: int = 0

    @property
    def ok(self):
        return self.state_invariant and self.audit_intact and (
            self.expectation_met
        ) and self.wave_records_ok and self.quarantine_ok and (
            self.approval_ok
        ) and self.attack_ok and self.tenant_ok and not self.error

    def to_dict(self):
        return {
            "label": self.label,
            "network": self.network,
            "issue": self.issue,
            "outcome": self.outcome,
            "crashed": self.crashed,
            "resumed": self.resumed,
            "resolved": self.resolved,
            "rollback_reason": self.rollback_reason,
            "state_invariant": self.state_invariant,
            "audit_intact": self.audit_intact,
            "expected": self.expected,
            "expectation_met": self.expectation_met,
            "faults_fired": list(self.faults_fired),
            "error": self.error,
            "waves": self.waves,
            "quarantined": list(self.quarantined),
            "wave_records_ok": self.wave_records_ok,
            "quarantine_ok": self.quarantine_ok,
            "audit_status": self.audit_status,
            "audit_flagged": list(self.audit_flagged),
            "approval_ok": self.approval_ok,
            "attack_kind": self.attack_kind,
            "denied_commands": self.denied_commands,
            "escalations_refused": self.escalations_refused,
            "blocked_by": self.blocked_by,
            "attack_ok": self.attack_ok,
            "tenant_ok": self.tenant_ok,
            "violations": self.violations,
            "shed": self.shed,
            "ok": self.ok,
        }


@dataclass
class CampaignReport:
    """All scenario outcomes of one seeded campaign run."""

    campaign: str
    seed: int
    scenarios: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(outcome.ok for outcome in self.scenarios)

    def to_dict(self):
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "ok": self.ok,
            "scenarios": [outcome.to_dict() for outcome in self.scenarios],
            "metrics": self.metrics,
        }


# -- campaign catalog ---------------------------------------------------------

def _campaigns(seed=7):
    """Campaign name -> scenario list (a function so Rules are fresh).

    ``seed`` parameterises the generated campaigns (today: the
    adversarial attack variants); the hand-written fault campaigns are
    seed-independent — their Rules are seeded at arm time instead.
    """
    push_failures = [
        Scenario(
            label="transient-retried",
            network="university", issue="ospf",
            plan={"device.apply.transient": Rule(nth=1, times=2)},
            expect="committed",
        ),
        Scenario(
            label="fatal-rollback",
            network="university", issue="ospf",
            plan={"device.apply.fatal": Rule(nth=1)},
            expect="rolled-back",
        ),
        Scenario(
            label="transient-exhausted",
            network="university", issue="vlan",
            plan={"device.apply.transient": Rule(probability=1.0, times=99)},
            expect="rolled-back",
        ),
        Scenario(
            label="crash-mid-push-resume",
            network="enterprise", issue="ospf",
            plan={"push.crash": Rule(nth=2)},
            expect="committed",
        ),
        Scenario(
            label="audit-fail-closed",
            network="enterprise", issue="isp",
            # During enforce, append #1 is the verify record and #2 the
            # push's commit record; failing #2 must roll the push back.
            plan={"audit.append": Rule(nth=2)},
            expect="rolled-back",
        ),
    ]
    monitor_timeouts = [
        Scenario(
            label="command-timeout",
            network="university", issue="ospf",
            plan={"monitor.timeout": Rule(nth=2)},
            arm_phase="session",
        ),
        Scenario(
            label="timeout-storm",
            network="enterprise", issue="vlan",
            plan={"monitor.timeout": Rule(probability=0.4, times=99)},
            arm_phase="session",
        ),
    ]
    canary_extra = _CANARY_EXTRA["enterprise"]
    canary = [
        Scenario(
            label="canary-clean",
            network="enterprise", issue="ospf",
            plan={},
            rollout=RolloutConfig(), extra_script=canary_extra,
            expect="committed",
        ),
        Scenario(
            label="probe-fail-quarantine",
            network="enterprise", issue="ospf",
            # The second wave's probe reports a violation: its devices are
            # quarantined and the committed first wave rolls back too.
            plan={"rollout.wave.probe_fail": Rule(nth=2)},
            rollout=RolloutConfig(), extra_script=canary_extra,
            expect="rolled-back", expect_quarantine=True,
        ),
        Scenario(
            label="device-flap-breaker",
            network="enterprise", issue="ospf",
            # Every apply flaps; the flap budget is spent after two, the
            # breaker opens, and the device is quarantined.
            plan={"rollout.device.flap": Rule(probability=1.0, times=99)},
            rollout=RolloutConfig(flap_budget=2), extra_script=canary_extra,
            expect="rolled-back", expect_quarantine=True,
        ),
        Scenario(
            label="flap-within-budget",
            network="enterprise", issue="ospf",
            # Two flaps on one device stay under the default budget of 3:
            # retried, probed healthy, committed.
            plan={"rollout.device.flap": Rule(nth=1, times=2)},
            rollout=RolloutConfig(), extra_script=canary_extra,
            expect="committed",
        ),
        Scenario(
            label="crash-midwave-resume",
            network="enterprise", issue="ospf",
            # The pusher dies at the second wave's batch; resume() replays
            # only the uncommitted wave and re-probes it.
            plan={"rollout.crash.midwave": Rule(nth=2)},
            rollout=RolloutConfig(), extra_script=canary_extra,
            expect="committed",
        ),
    ]
    # The ospf fixes score well above this threshold (routing change with
    # a network-wide invalidation cone), so every scenario here runs the
    # full quorum gate; 3 replicas / quorum 2 is the smallest replicated
    # trail that can lose a minority and keep serving.
    risky = RiskConfig(threshold=0.5)
    approvals = [
        Scenario(
            label="quorum-approves-clean",
            network="university", issue="ospf",
            plan={},
            approvals=ApprovalConfig(risk=risky), audit_replicas=3,
            expect="committed", expect_audit="intact",
        ),
        Scenario(
            label="approver-crash-quorum-holds",
            network="university", issue="ospf",
            # One approver abstains; 2-of-3 still reaches quorum.
            plan={"approvals.approver.crash": Rule(nth=1)},
            approvals=ApprovalConfig(risk=risky), audit_replicas=3,
            expect="committed", expect_audit="intact",
        ),
        Scenario(
            label="quorum-timeout-denies",
            network="university", issue="ospf",
            # Every approver crashes: zero votes, deny by default.
            plan={"approvals.approver.crash": Rule(probability=1.0, times=99)},
            approvals=ApprovalConfig(risk=risky), audit_replicas=3,
            expect="not-imported", expect_audit="intact",
        ),
        Scenario(
            label="forced-timeout-denies",
            network="enterprise", issue="ospf",
            plan={"approvals.timeout": Rule(nth=1)},
            approvals=ApprovalConfig(risk=risky), audit_replicas=3,
            expect="not-imported", expect_audit="intact",
        ),
        Scenario(
            label="mediated-conflict-approves",
            network="university", issue="ospf",
            # 2 approve vs 1 reject: mediation upholds the majority.
            plan={},
            approvals=ApprovalConfig(risk=risky, votes={"admin-2": "reject"}),
            audit_replicas=3,
            expect="committed", expect_audit="intact",
        ),
        Scenario(
            label="veto-denies",
            network="university", issue="ospf",
            plan={},
            approvals=ApprovalConfig(
                risk=risky,
                votes={"admin-1": "reject", "admin-2": "reject",
                       "admin-3": "reject"},
            ),
            audit_replicas=3,
            expect="not-imported", expect_audit="intact",
        ),
        Scenario(
            label="break-glass-override",
            network="university", issue="ospf",
            # Unresponsive quorum + a configured emergency actor: granted,
            # but the override is indelibly flagged in the audit chain.
            plan={"approvals.approver.crash": Rule(probability=1.0, times=99)},
            approvals=ApprovalConfig(risk=risky, break_glass_actor="oncall"),
            audit_replicas=3,
            expect="committed", expect_audit="intact",
        ),
        Scenario(
            label="crash-after-approval-resume",
            network="enterprise", issue="ospf",
            # The pusher dies after the journal's approval marker but
            # before the first batch commits; resume() replays the batches
            # WITHOUT re-requesting approvals (the judge asserts exactly
            # one proposed record).
            plan={"push.crash": Rule(nth=1)},
            approvals=ApprovalConfig(risk=risky), audit_replicas=3,
            expect="committed", expect_audit="intact",
        ),
        Scenario(
            label="replica-tamper-minority",
            network="university", issue="ospf",
            # One replica's record is rewritten without its key: its own
            # chain breaks, the cross-check flags it, quorum serves on.
            plan={"audit.replica.tamper": Rule(nth=3)},
            approvals=ApprovalConfig(risk=risky), audit_replicas=3,
            expect="committed", expect_audit="degraded",
        ),
        Scenario(
            label="replica-partition-diverges",
            network="university", issue="ospf",
            # One replica misses one append: self-valid but diverged.
            plan={"audit.replica.partition": Rule(nth=2)},
            approvals=ApprovalConfig(risk=risky), audit_replicas=3,
            expect="committed", expect_audit="degraded",
        ),
        Scenario(
            label="replica-crash-quorum-lost",
            network="university", issue="ospf",
            # Every replica dies on the first fan-out: append quorum lost,
            # the trail fails closed, and nothing is ever imported.
            plan={"audit.replica.crash": Rule(probability=1.0, times=99)},
            approvals=ApprovalConfig(risk=risky), audit_replicas=3,
            expect="not-imported", expect_audit="lost",
        ),
    ]
    # Attacker-shaped coverage: every scenario is a seeded Attack riding a
    # legitimate cover ticket; the attack's own expectations (denials,
    # refused escalations, blocking layer) compose with the two-state
    # invariant judge all scenarios share.
    adversarial = [
        Scenario(
            label=attack.label,
            network=attack.network,
            issue=attack.cover_issue,
            plan={},
            expect=attack.expect,
            attack=attack,
        )
        for attack in generate_attacks(seed)
    ]
    # Multi-tenant isolation: every scenario stands up a two-org front
    # door (repro.faults.tenants) and is judged on zero cross-tenant
    # leaks, probe-exact violation records, and bounded-queue shedding on
    # top of the shared state/audit invariants.
    tenants = [
        Scenario(
            label="clean-isolation",
            network="university", issue="ospf",
            plan={}, tenants_case="clean",
            expect="committed",
        ),
        Scenario(
            label="cross-tenant-denied",
            network="university", issue="ospf",
            plan={}, tenants_case="cross-tenant",
            expect="committed",
        ),
        Scenario(
            label="token-theft-refused",
            network="university", issue="ospf",
            plan={"tenancy.token.theft": Rule(nth=1)},
            tenants_case="token-theft",
            expect="committed",
        ),
        Scenario(
            label="token-replay-refused",
            network="university", issue="vlan",
            plan={"tenancy.token.replay": Rule(nth=1)},
            tenants_case="token-replay",
            expect="committed",
        ),
        Scenario(
            label="expired-token-race",
            network="university", issue="ospf",
            plan={"tenancy.token.expired": Rule(nth=1)},
            tenants_case="expired-race",
            expect="committed",
        ),
        Scenario(
            label="registry-crash-fail-closed",
            network="enterprise", issue="ospf",
            plan={"tenancy.registry.crash": Rule(nth=1)},
            tenants_case="registry-crash",
            expect="committed",
        ),
        Scenario(
            label="queue-flood-sheds",
            network="university", issue="ospf",
            plan={"frontdoor.queue.flood": Rule(probability=1.0, times=3)},
            tenants_case="queue-flood",
            expect="committed",
        ),
        Scenario(
            label="noisy-neighbor-isolated",
            network="university", issue="ospf",
            plan={"frontdoor.noisy.neighbor": Rule(nth=1)},
            tenants_case="noisy-neighbor",
            expect="committed",
        ),
        Scenario(
            label="break-glass-elevation",
            network="university", issue="ospf",
            # Every approver crashes during the *elevation* round; the
            # configured break-glass actor rescues it, indelibly flagged.
            plan={"approvals.approver.crash": Rule(probability=1.0,
                                                   times=99)},
            tenants_case="break-glass",
            expect="committed",
        ),
    ]
    smoke = [
        push_failures[0], push_failures[1], push_failures[3],
        push_failures[4],
        monitor_timeouts[0],
        canary[1], canary[4],
    ]
    return {
        "push-failures": push_failures,
        "monitor-timeouts": monitor_timeouts,
        "canary": canary,
        "approvals": approvals,
        "adversarial": adversarial,
        "tenants": tenants,
        "smoke": smoke,
    }


def campaign_names():
    """The runnable campaign names."""
    return sorted(_campaigns())


def campaigns(seed=7):
    """Campaign name -> scenario list (fresh Rules; safe to introspect)."""
    return _campaigns(seed)


# -- runner -------------------------------------------------------------------

def run_campaign(name, seed):
    """Run campaign ``name`` under ``seed``; returns a :class:`CampaignReport`.

    Observability is enabled for the duration so fault paths land in the
    metrics the report surfaces (and in spans/audit correlation).
    """
    campaigns = _campaigns(seed)
    if name not in campaigns:
        raise ReproError(
            f"unknown campaign {name!r}; choose from "
            f"{', '.join(sorted(campaigns))}"
        )
    report = CampaignReport(campaign=name, seed=seed)
    obs.reset()
    obs.enable()
    try:
        for index, scenario in enumerate(campaigns[name]):
            report.scenarios.append(
                run_scenario(scenario, seed=f"{seed}:{index}:{scenario.label}")
            )
    finally:
        obs.disable()
    registry = obs.registry()
    report.metrics = {
        metric_name: registry.get(metric_name).value
        for metric_name in REPORT_METRICS
        if registry.get(metric_name) is not None
    }
    return report


def run_scenario(scenario, seed):
    """Run one scenario; always disarms the fault registry on exit."""
    if scenario.tenants_case:
        from repro.faults.tenants import run_tenants_scenario

        return run_tenants_scenario(scenario, seed)
    outcome = ScenarioOutcome(
        label=scenario.label, network=scenario.network, issue=scenario.issue,
        expected=scenario.expect,
    )
    network = _BUILDERS[scenario.network]()
    policies = mine_policies(network)
    issue = standard_issues(scenario.network)[scenario.issue]
    issue.inject(network)
    heimdall = Heimdall(
        network, policies=policies, rollout=scenario.rollout, approvals=scenario.approvals,
        audit_replicas=scenario.audit_replicas,
    )
    attack = scenario.attack
    open_kwargs = {}
    if attack is not None:
        outcome.attack_kind = attack.kind
        if attack.profile:
            open_kwargs["profile"] = attack.profile
        if attack.exempt_devices:
            open_kwargs["exempt_devices"] = tuple(attack.exempt_devices)
    session = heimdall.open_ticket(issue, **open_kwargs)
    ticket_outcome = None
    try:
        if scenario.arm_phase == "session":
            faults.arm(scenario.plan, seed=seed)
        if attack is None or attack.run_fix:
            session.run_fix_script(issue.fix_script)
        if scenario.extra_script:
            session.run_fix_script(scenario.extra_script)
        if attack is not None:
            # The malicious part of the ticket: denied commands come back
            # as failed results (never exceptions), refused escalations
            # raise and are counted — both are the defense working.
            for step in attack.script:
                for command in step.commands:
                    session.execute(step.device, command)
            outcome.denied_commands = session.twin.monitor.stats.denied
            for requested in attack.escalations:
                try:
                    session.request_escalation(requested, attack.label)
                except PrivilegeError:
                    outcome.escalations_refused += 1
        # The twin session never touches production: this is the pre-push
        # baseline the atomicity invariant compares against.
        baseline = network.copy()
        if scenario.arm_phase == "push":
            faults.arm(scenario.plan, seed=seed)
        try:
            ticket_outcome = session.submit()
        except PushCrashed as crash:
            outcome.crashed = True
            resume_kwargs = {}
            if scenario.rollout is not None:
                resume_kwargs["policy_verifier"] = PolicyVerifier(
                    heimdall.policies
                )
            resumed = heimdall.scheduler.resume(
                network, crash.journal,
                audit=heimdall.audit, actor="recovery", clock=heimdall.clock,
                **resume_kwargs,
            )
            outcome.resumed = resumed.resumed
        except AuditQuorumError:
            # The replicated trail lost its append quorum mid-enforce:
            # everything downstream fails closed. Nothing was imported —
            # the state invariant and the "lost" cross-check verdict below
            # are the assertions, not an error.
            pass
        outcome.faults_fired = [
            f"{firing.point}#{firing.call_index}"
            for firing in faults.registry().firings
        ]
    except ReproError as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
        baseline = None
    finally:
        faults.disarm()

    _judge(outcome, heimdall, network, baseline, issue)
    if scenario.expect is not None:
        outcome.expectation_met = outcome.outcome == scenario.expect
    if scenario.expect_quarantine:
        outcome.quarantine_ok = bool(outcome.quarantined)
    if scenario.expect_audit is not None:
        # For replication scenarios the cross-check verdict IS the
        # assertion: a tampered minority must be *detected* (degraded), a
        # lost quorum must be *reported* as lost — both count as the audit
        # layer working.
        outcome.audit_intact = outcome.audit_status == scenario.expect_audit
    if scenario.attack is not None:
        _judge_attack(outcome, scenario.attack, ticket_outcome)
    return outcome


def _judge_attack(outcome, attack, ticket_outcome):
    """Every seeded attack must be stopped by the layer it targets.

    ``monitor``-blocked attacks must draw at least ``min_denied``
    denied-with-reason results; ``verifier``-blocked attacks must end in a
    rejected enforcement decision. Escalation probes must all be refused.
    The state/audit invariants (shared with every chaos scenario) separately
    prove nothing malicious reached production.
    """
    checks = [
        outcome.denied_commands >= attack.min_denied,
        outcome.escalations_refused == len(attack.escalations),
    ]
    if attack.expect_blocked_by == "verifier":
        checks.append(
            ticket_outcome is not None and not ticket_outcome.approved
        )
    outcome.attack_ok = all(checks)
    if outcome.attack_ok:
        outcome.blocked_by = attack.expect_blocked_by


def _judge(outcome, heimdall, network, baseline, issue):
    """Fill in the outcome classification and invariant verdicts."""
    journal = heimdall.scheduler.last_journal
    if baseline is None:
        # The scenario errored before a baseline existed; nothing to judge.
        outcome.state_invariant = False
        outcome.audit_intact = heimdall.audit.verify()
        _judge_replication(outcome, heimdall)
        outcome.outcome = "error"
        return

    if journal is None:
        outcome.outcome = "not-imported"
    else:
        outcome.outcome = journal.state
        outcome.rollback_reason = next(
            (entry.detail for entry in journal.entries
             if entry.kind == "rolled-back"),
            "",
        )

    actual = {
        device: serialize_config(config)
        for device, config in network.configs.items()
    }
    pre_push = {
        device: serialize_config(config)
        for device, config in baseline.configs.items()
    }
    if journal is None or journal.state == "rolled-back":
        outcome.state_invariant = actual == pre_push
    else:
        from repro.config.apply import apply_changes

        expected_network = baseline.copy()
        for batch in journal.batches:
            apply_changes(expected_network.configs, batch)
        expected = {
            device: serialize_config(config)
            for device, config in expected_network.configs.items()
        }
        outcome.state_invariant = actual == expected
    outcome.resolved = issue.is_resolved(network)
    outcome.audit_intact = heimdall.audit.verify()
    _judge_replication(outcome, heimdall)
    _judge_approval(outcome, heimdall, journal)

    if journal is not None and journal.wave_plan is not None:
        outcome.waves = len(journal.committed_waves)
        outcome.quarantined = journal.quarantined_devices()
        if journal.state == "committed":
            # Every wave of a committed staged push must have left an
            # allowed wave record in the audit trail — including waves
            # replayed by resume() after a crash.
            wave_records = {
                record.resource
                for record in heimdall.audit.query(
                    action_prefix="enforcer.wave", allowed=True
                )
            }
            outcome.wave_records_ok = all(
                f"production:wave:{entry['index']}" in wave_records
                for entry in journal.wave_plan
            )


def _judge_replication(outcome, heimdall):
    """Record the replicated trail's cross-check verdict, when one runs."""
    if not isinstance(heimdall.audit, ReplicatedAuditTrail):
        return
    verdict = heimdall.audit.cross_check()
    outcome.audit_status = verdict.status
    outcome.audit_flagged = [
        f"replica {index}: {reason}" for index, reason in verdict.flagged
    ]


def _judge_approval(outcome, heimdall, journal):
    """No unapproved high-risk change is ever pushed.

    A committed journal under an approvals deployment must carry a granted
    approval bound to it, and the request must have been proposed exactly
    once — a crash + resume never re-runs the quorum round.
    """
    if heimdall.approvals is None:
        return
    if journal is None or journal.state != "committed":
        return  # nothing imported: deny-by-default held by construction
    if outcome.audit_status == "lost":
        # A lost trail cannot prove the approval history; reads would
        # fail closed anyway, so treat the committed push as unproven.
        outcome.approval_ok = False
        return
    proposed = heimdall.audit.query(action_prefix="approvals.proposed")
    granted = heimdall.audit.query(
        action_prefix="approvals.decision", allowed=True
    )
    if not proposed and journal.approval_id is None:
        return  # the change set scored below the gate; nothing to prove
    outcome.approval_ok = (
        bool(journal.approval_id)
        and len(proposed) == 1
        and len(granted) == 1
    )
