"""The Heimdall orchestrator: the three-step workflow of paper Figure 4.

1. A Privilege_msp is generated for the ticket (task-driven, policy-guarded);
2. the technician resolves the ticket on an isolated twin network;
3. the policy enforcer verifies the twin's changes and imports the approved
   ones into the production network in a safe order.

All durations are charged to a :class:`~repro.util.clock.SimulatedClock`
through a :class:`~repro.util.clock.CostModel`, which is what the Figure 7
pilot study measures.

When the observability layer (:mod:`repro.obs`) is enabled, every session
carries a root span (``heimdall.session``) that the whole lifecycle hangs
off — ticket open, privilege generation, twin boot, each mediated command,
and the enforcer's verify/import — and every audit record written along the
way carries that trace's id (see docs/OBSERVABILITY.md).
"""

from dataclasses import dataclass, field

from repro.control.builder import build_dataplane
from repro.core.approvals import ApprovalCoordinator
from repro.core.enforcer.audit import AuditTrail, ReplicatedAuditTrail
from repro.core.enforcer.enclave import SimulatedEnclave
from repro.core.enforcer.risk import RiskClassifier
from repro.core.enforcer.scheduler import ChangeScheduler
from repro.core.enforcer.verifier import ChangeVerifier
from repro.core.privilege.generator import (
    TASK_PROFILES,
    escalate,
    generate_privilege_spec,
    profile_for_issue,
)
from repro.core.privilege.translator import policy_guard_rules
from repro.core.twin.monitor import MonitoredConsole, ReferenceMonitor
from repro.core.twin.scoping import SCOPING_STRATEGIES
from repro.core.twin.twin import TwinNetwork
from repro.obs import trace as obs_trace
from repro.policy.mining import mine_policies
from repro.util.clock import CostModel, SimulatedClock
from repro.util.errors import PrivilegeError, TenancyError
from repro.util.ids import IdAllocator

# Profiles a ticket class may escalate into (paper §7: escalations move from
# more to less restrictive as diagnosis progresses). Anything else is an
# invalid escalation and is refused + audited.
ESCALATION_LADDER = {
    "monitoring": ("interface",),
    "interface": ("routing",),
    "routing": ("acl",),
    "vlan": ("interface",),
    "connectivity": ("acl",),
    "acl": (),
}


@dataclass
class TicketOutcome:
    """Everything the experiments need to know about one resolved ticket."""

    issue_id: str
    approved: bool
    resolved: bool
    changes: list
    decision: object
    denied_commands: int
    command_count: int
    duration_s: float
    breakdown: dict = field(default_factory=dict)


class Heimdall:
    """One Heimdall deployment guarding one production network.

    A deployment may serve many concurrent sessions: the shared mutable
    state here — the id allocator, the audit trail, the simulated clock,
    and the scheduler's push counter — is individually thread-safe, but
    ``open_ticket`` (production snapshot + twin clone) and ``enforce``
    (verify + push) read/write production itself and must not interleave.
    :class:`repro.core.sessions.SessionManager` provides that serialization
    plus per-element leases and stale-base detection; drive concurrent
    tickets through it rather than calling this class from N threads.
    """

    def __init__(self, production=None, policies=None,
                 scoping_strategy="heimdall",
                 clock=None, cost_model=None, rollout=None,
                 approvals=None, audit_replicas=0, audit_quorum=None,
                 tenants=None, org_id=""):
        # Multi-tenant service mode: N org-isolated deployments behind one
        # admission front door (docs/ARCHITECTURE.md "Tenancy & front
        # door"). All work routes through self.frontdoor; the single-tenant
        # surface on this instance stays unusable (fail closed).
        if tenants is not None:
            from repro.core.frontdoor import FrontDoor

            if production is not None:
                raise TenancyError(
                    "pass either production= (single tenant) or tenants= "
                    "(multi-tenant front door), not both"
                )
            self.frontdoor = FrontDoor(
                tenants, approvals=approvals,
                audit_replicas=audit_replicas, audit_quorum=audit_quorum,
            )
            self.production = None
            self.org_id = ""
            return
        if production is None:
            raise TenancyError(
                "a single-tenant Heimdall needs a production network; "
                "multi-tenant service goes through "
                "Heimdall(tenants=...).frontdoor"
            )
        self.frontdoor = None
        self.org_id = org_id
        self.production = production
        self.policies = (
            list(policies) if policies is not None else mine_policies(production)
        )
        self.scoping_strategy = scoping_strategy
        # Staged canary imports: a RolloutConfig makes every approved push
        # wave-based with post-wave health probes (docs/ARCHITECTURE.md
        # "Staged rollout"); None keeps monolithic transactional pushes.
        self.rollout = rollout
        self.clock = clock if clock is not None else SimulatedClock()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.enclave = SimulatedEnclave()
        # audit_replicas >= 1 replaces the single chain with a replicated
        # trail: N independent HMAC chains, quorum-voted reads, fail-closed
        # appends (docs/ROBUSTNESS.md "Approvals & replicated tamper
        # evidence").
        # Chain keys are org-scoped so no two tenants' trails ever share
        # sealing material — a forged cross-tenant record can't verify.
        if audit_replicas:
            self.audit = ReplicatedAuditTrail(
                self.enclave, clock=self.clock, replicas=audit_replicas,
                quorum=audit_quorum,
                key_prefix=(
                    f"{org_id}:audit-replica" if org_id else "audit-replica"
                ),
            )
        else:
            self.audit = AuditTrail(
                self.enclave, clock=self.clock,
                key_id=f"{org_id}:audit-trail" if org_id else "audit-trail",
            )
        self.scheduler = ChangeScheduler()
        # An ApprovalConfig turns on the high-risk quorum gate: enforce()
        # scores every approved change set and routes over-threshold ones
        # through the approvals state machine before the push.
        if approvals is not None:
            self.approvals = ApprovalCoordinator(
                approvals, audit=self.audit, clock=self.clock
            )
            self.risk_classifier = RiskClassifier(config=approvals.risk)
        else:
            self.approvals = None
            self.risk_classifier = None
        self._ids = IdAllocator()

    # -- workflow step 1+2: privilege and twin -------------------------------

    def open_ticket(self, issue, profile=None, strategy=None,
                    exempt_devices=()):
        """Generate the Privilege_msp and boot the twin for ``issue``.

        ``exempt_devices`` releases named devices from the policy-derived
        guard rules — the admin's lever when a ticket must touch a policy
        enforcement point (e.g. the broken thing *is* an ACL). Exemptions
        are a conscious, per-ticket decision, never automatic.

        Args:
            issue: the :class:`~repro.scenarios.issues.Issue` being worked.
            profile: task profile override (inferred from the issue class
                when omitted).
            strategy: twin scoping strategy override.
            exempt_devices: devices released from policy guard rules.

        Returns:
            A :class:`TicketSession` holding the booted twin, the generated
            Privilege_msp, and (when observability is on) the session's
            root span.
        """
        if self.production is None:
            raise TenancyError(
                "this Heimdall fronts multiple tenants; route work through "
                "heimdall.frontdoor with a capability token"
            )
        strategy = strategy or self.scoping_strategy
        profile = profile or profile_for_issue(issue)

        session_span = obs_trace.start_span(
            "heimdall.session", issue=issue.issue_id
        )
        with obs_trace.span("ticket.open", parent=session_span):
            with obs_trace.span("twin.scope", strategy=strategy):
                dataplane = build_dataplane(self.production)
                scope = SCOPING_STRATEGIES[strategy](
                    self.production, issue, dataplane
                )
            with obs_trace.span("privilege.generate", profile=profile):
                guards = policy_guard_rules(
                    self.policies, dataplane, exempt_devices=exempt_devices
                )
                spec = generate_privilege_spec(
                    scope, profile, extra_rules=guards
                )
            self.clock.advance(
                self.cost_model.privilege_generation_s,
                step="generate privilege",
            )

            with obs_trace.span("twin.boot") as boot_span:
                twin = TwinNetwork(
                    self.production, issue, spec,
                    audit=self.audit, strategy=strategy, dataplane=dataplane,
                )
                boot_span.set(nodes=twin.node_count())
            self.clock.advance(
                self.cost_model.twin_boot_s(twin.node_count()),
                step="twin setup",
            )
        session_id = self._ids.allocate(
            f"{self.org_id}:SESSION" if self.org_id else "SESSION"
        )
        session_span.set(session_id=session_id)
        return TicketSession(
            self, issue, twin, spec, profile, session_id, span=session_span
        )

    # -- workflow step 3: verify + import ----------------------------------------

    def enforce(self, session):
        """Verify the twin's change set and import approved changes.

        With an approvals configuration, verifier-approved change sets are
        additionally risk-scored; high-risk sets must win an M-of-N quorum
        round (:mod:`repro.core.approvals`) before the scheduler will push
        them. A denied round leaves the decision's ``approval`` in its
        rejected state and imports nothing — deny by default.

        Args:
            session: the :class:`TicketSession` being closed out.

        Returns:
            The verifier's
            :class:`~repro.core.enforcer.verifier.EnforcementDecision`
            (``risk``/``approval`` carry the quorum outcome when the gate
            ran).
        """
        with obs_trace.span("enforcer.enforce", parent=session.span):
            changes = session.twin.changes()
            verifier = ChangeVerifier(self.policies, session.privilege_spec)
            decision = verifier.verify(self.production, changes)
            self.clock.advance(
                self.cost_model.verify_s(verifier.constraint_count),
                step="verify changes",
            )
            self.audit.record(
                actor=session.session_id,
                device="-",
                command=f"submit {len(changes)} changes",
                action="enforcer.verify",
                resource="production",
                allowed=decision.approved,
                outcome=decision.summary(),
            )
            approval = None
            if decision.approved and changes and self.approvals is not None:
                decision.risk = self.risk_classifier.assess(
                    self.production, changes
                )
                if decision.risk.high:
                    request = self.approvals.require(
                        session.session_id, changes, decision.risk
                    )
                    decision.approval = self.approvals.collect(request)
                    if not decision.approval.granted:
                        # Deny by default: the verifier approved the
                        # change, but the quorum did not — nothing is
                        # pushed, and the refusal is on the record.
                        self.audit.record(
                            actor=session.session_id,
                            device="-",
                            command=f"push refused: "
                                    f"{decision.approval.summary()}",
                            action="enforcer.approval",
                            resource="production",
                            allowed=False,
                            outcome="unapproved high-risk change not pushed",
                        )
                        return decision
                    approval = decision.approval
            if decision.approved and changes:
                with obs_trace.span(
                    "production.import", changes=len(changes)
                ):
                    batches = self.scheduler.schedule(changes)
                    # Transactional: the push journals, retries transient
                    # device failures, and rolls back to the pre-push
                    # snapshot on fatal/audit failure. A simulated pusher
                    # crash (PushCrashed) propagates with the journal for
                    # scheduler.resume(). With a rollout config the push
                    # is additionally staged into health-probed waves; the
                    # probes check the policies this verification pass
                    # proved invariant across the full change set.
                    rollout_kwargs = {}
                    if self.rollout is not None:
                        rollout_kwargs = {
                            "rollout": self.rollout,
                            "policy_verifier": verifier.policy_verifier,
                            "invariant_policy_ids":
                                decision.invariant_policy_ids(),
                        }
                    push_report = self.scheduler.push(
                        self.production, changes, batches=batches,
                        audit=self.audit, actor=session.session_id,
                        clock=self.clock, risk=decision.risk,
                        approval=approval, **rollout_kwargs,
                    )
                    decision.push_report = push_report
                    self.clock.advance(
                        len(changes) * (
                            self.cost_model.schedule_per_change_s
                            + self.cost_model.commit_per_change_s
                        ),
                        step="schedule + commit",
                    )
                    if push_report.committed:
                        for change in changes:
                            self.audit.record(
                                actor=session.session_id,
                                device=change.device,
                                command=change.summary(),
                                action=change.action,
                                resource=change.device,
                                allowed=True,
                                outcome="committed",
                            )
        return decision

    # -- extension: emergency mode (paper §7) --------------------------------------

    def emergency_console(self, device, privilege_spec):
        """A monitored console directly on production, bypassing the twin.

        Still mediated: emergency mode relaxes *where* commands run, never
        *whether* they are authorised or audited.
        """
        from repro.emulation.network import EmulatedNetwork

        attached = EmulatedNetwork.attached(self.production)
        monitor = ReferenceMonitor(
            privilege_spec, audit=self.audit, actor="emergency"
        )
        return MonitoredConsole(monitor, attached.console(device))


class TicketSession:
    """A technician's working session on one twin.

    ``span`` is the session's observability root
    (:data:`~repro.obs.trace.NULL_SPAN` while the layer is disabled); it
    stays open across calls and is finished by :meth:`submit` or
    :meth:`abandon`.
    """

    def __init__(self, heimdall, issue, twin, privilege_spec, profile,
                 session_id, span=obs_trace.NULL_SPAN):
        self._heimdall = heimdall
        self.issue = issue
        self.twin = twin
        self.privilege_spec = privilege_spec
        self.profile = profile
        self.session_id = session_id
        self.span = span
        self.command_count = 0
        self.escalations = []
        self._consoles = {}

    # -- technician actions -----------------------------------------------------

    def console(self, device):
        """A monitored console inside the twin (persistent per session,
        so configuration mode survives across :meth:`execute` calls)."""
        if device not in self._consoles:
            self._consoles[device] = self.twin.console(device)
        return self._consoles[device]

    def execute(self, device, command):
        """Run one command on ``device``, charging its simulated cost.

        Args:
            device: twin device name to run on.
            command: the raw command line.

        Returns:
            The mediated :class:`~repro.emulation.console.CommandResult`.
        """
        with obs_trace.span(
            "twin.command", parent=self.span, device=device, command=command
        ):
            result = self.console(device).execute(command)
        self.command_count += 1
        self._charge(command)
        return result

    def run_fix_script(self, fix_script):
        """Replay a prepared fix script; returns all command results."""
        results = []
        for step in fix_script:
            for command in step.commands:
                results.append(self.execute(step.device, command))
        return results

    def _charge(self, command):
        cost_model = self._heimdall.cost_model
        if command.startswith(("write", "copy")):
            self._heimdall.clock.advance(
                cost_model.save_config_s, step="save changes"
            )
            return
        if self._is_config_command(command):
            seconds = cost_model.command_config_s
        else:
            seconds = cost_model.command_s
        self._heimdall.clock.advance(seconds, step="perform operations")

    @staticmethod
    def _is_config_command(command):
        head = command.split()[0] if command.split() else ""
        return head not in ("show", "ping", "traceroute")

    # -- extension: privilege escalation (paper §7) ----------------------------------

    def request_escalation(self, requested_profile, justification=""):
        """Ask for an additional task profile mid-ticket.

        Valid requests follow the escalation ladder for the session's
        profile; anything else (unknown profile, skipping rungs) is refused.
        Both outcomes are audited — distinguishing valid escalations from
        subversive ones is exactly the open question the paper flags, so the
        conservative ladder errs toward refusal.
        """
        valid = (
            requested_profile in TASK_PROFILES
            and requested_profile in ESCALATION_LADDER.get(self.profile, ())
        )
        escalation_span = obs_trace.span(
            "privilege.escalation", parent=self.span,
            requested=requested_profile, granted=valid,
        )
        with escalation_span:
            self._record_escalation(requested_profile, justification, valid)
        if not valid:
            raise PrivilegeError(
                f"escalation from {self.profile!r} to {requested_profile!r} "
                "refused"
            )
        escalate(self.privilege_spec, self.twin.scope, requested_profile)
        self.escalations.append(requested_profile)
        self.profile = requested_profile
        return True

    def _record_escalation(self, requested_profile, justification, valid):
        self._heimdall.audit.record(
            actor=self.session_id,
            device="-",
            command=f"escalate {self.profile} -> {requested_profile}: "
                    f"{justification or 'no justification'}",
            action="privilege.escalation",
            resource="privilege_msp",
            allowed=valid,
            outcome="granted" if valid else "refused",
        )

    # -- completion ------------------------------------------------------------------

    def submit(self):
        """Close the session: verify, import, and report the outcome.

        Returns:
            A :class:`TicketOutcome` summarising the enforcer's decision,
            resolution status, and the simulated time breakdown.
        """
        start = self._heimdall.clock.now
        decision = self._heimdall.enforce(self)
        resolved = self.issue.is_resolved(self._heimdall.production)
        self.span.set(approved=decision.approved, resolved=resolved)
        self.span.finish()
        return TicketOutcome(
            issue_id=self.issue.issue_id,
            approved=decision.approved,
            resolved=resolved,
            changes=decision.changes,
            decision=decision,
            denied_commands=self.twin.monitor.stats.denied,
            command_count=self.command_count,
            duration_s=self._heimdall.clock.now,
            breakdown=dict(self._heimdall.clock.breakdown()),
        )

    def abandon(self, reason=""):
        """Close without importing anything (changes are discarded)."""
        with obs_trace.span("session.abandon", parent=self.span):
            self._heimdall.audit.record(
                actor=self.session_id,
                device="-",
                command=f"abandon: {reason}",
                action="enforcer.abandon",
                resource="production",
                allowed=True,
                outcome="no changes imported",
            )
        self.span.set(abandoned=True)
        self.span.finish()
        return None
