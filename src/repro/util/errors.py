"""Error hierarchy for the Heimdall reproduction.

Every package raises subclasses of :class:`ReproError` so that callers can
catch library failures without masking programming errors (``TypeError`` and
friends propagate untouched).
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TopologyError(ReproError):
    """Invalid topology construction or lookup (unknown node, duplicate link)."""


class ConfigError(ReproError):
    """Configuration text or model is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmulationError(ReproError):
    """Emulated node or console failure (unknown command, node not running)."""


class PrivilegeError(ReproError):
    """An action was denied by the privilege specification."""

    def __init__(self, message, action=None, resource=None):
        super().__init__(message)
        self.action = action
        self.resource = resource


class VerificationError(ReproError):
    """Policy verification failed (a proposed change violates network policy)."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class SchedulingError(ReproError):
    """Change scheduling failed (cyclic dependencies, unsafe ordering)."""


class EnforcementError(ReproError):
    """The policy enforcer rejected a change set or detected tampering."""


# -- push / recovery ---------------------------------------------------------
#
# The transactional scheduler (docs/ROBUSTNESS.md) discriminates failures by
# type: transient errors are retried with backoff, fatal errors roll the
# push back to its pre-push snapshot, and crashes leave a journal behind for
# :meth:`~repro.core.enforcer.scheduler.ChangeScheduler.resume`.


class ApplyError(ReproError):
    """A change could not be applied to a production device."""

    def __init__(self, message, device=None, change=None):
        super().__init__(message)
        self.device = device
        self.change = change


class TransientDeviceError(ApplyError):
    """A device apply failed in a way worth retrying (lost session, busy)."""


class FatalApplyError(ApplyError):
    """A device apply failed permanently; the push must roll back."""


class CircuitOpenError(ApplyError):
    """A device's circuit breaker opened: its transient-failure budget for
    this push is spent, so further applies to it are refused and the wave
    quarantines the device instead of retrying forever."""


class HealthProbeError(ReproError):
    """A post-wave health probe failed on the mixed-version dataplane.

    Carries which invariant policies broke (or which routes failed the
    convergence check) so the rollback audit record can name them.
    """

    def __init__(self, message, wave_index=None, violations=(), device=None):
        super().__init__(message)
        self.wave_index = wave_index
        self.violations = tuple(violations)
        self.device = device


class PushCrashed(ReproError):
    """The pusher process died mid-push (simulated by fault injection).

    Unlike :class:`FatalApplyError` there is no in-process cleanup: the
    journal written so far is all that survives, and recovery happens via
    ``ChangeScheduler.resume(production, journal)``.
    """

    def __init__(self, message, journal=None):
        super().__init__(message)
        self.journal = journal


class JournalError(ReproError):
    """A push journal is unusable (wrong state, snapshot mismatch)."""


class DepsOverscopeError(ReproError):
    """The dependency-cone computation declared itself untrustworthy.

    Raised only by the ``dataplane.deps.overscope`` fault point; the
    builder catches it and falls back to whole-network invalidation —
    over-scoping a cone is always safe, under-scoping never is.
    """


class MonitorTimeout(ReproError):
    """A mediated command exceeded the reference monitor's time budget."""

    def __init__(self, message, device=None, command=None, timeout_s=None):
        super().__init__(message)
        self.device = device
        self.command = command
        self.timeout_s = timeout_s


class AuditWriteError(ReproError):
    """The audit trail could not be extended; dependent commits fail closed."""


class AuditQuorumError(AuditWriteError):
    """Fewer audit replicas than the quorum are live and agreeing.

    Raised by :class:`~repro.core.enforcer.audit.ReplicatedAuditTrail` when
    an append cannot land on a quorum of replicas, or when a read finds no
    quorum of self-consistent, content-agreeing chains. Subclassing
    :class:`AuditWriteError` keeps the existing fail-closed semantics: a
    push whose history cannot be durably witnessed does not commit.
    """


class AuditReplicaError(ReproError):
    """Base class for injected per-replica audit failures."""

    def __init__(self, message, replica=None):
        super().__init__(message)
        self.replica = replica


class AuditReplicaCrash(AuditReplicaError):
    """An audit replica died; it misses this and every later append."""


class AuditReplicaTamper(AuditReplicaError):
    """An attacker rewrote a record on one replica (without its key)."""


class AuditReplicaPartition(AuditReplicaError):
    """An audit replica was partitioned for one append; its chain stays
    self-consistent but silently diverges from the majority content."""


# -- quorum approvals ---------------------------------------------------------
#
# High-risk changes need an M-of-N quorum of admin approvals before the
# scheduler will push them (repro.core.approvals, docs/ROBUSTNESS.md
# "Approvals & replicated tamper evidence").


class ApprovalError(ReproError):
    """An approval workflow failed or was used incorrectly."""


class ApprovalRequiredError(ApprovalError):
    """A high-risk change set reached the scheduler without a granted
    quorum approval covering it; the push is refused before any journal
    or device mutation exists (fail closed)."""


class ApprovalTimeout(ApprovalError):
    """The approval round timed out before quorum (injected via the
    ``approvals.timeout`` fault point); deny-by-default applies."""


class ApproverCrash(ApprovalError):
    """An approver identity became unresponsive mid-round (injected via
    the ``approvals.approver.crash`` fault point); it abstains."""

    def __init__(self, message, approver=None):
        super().__init__(message)
        self.approver = approver


# -- multi-tenant front door --------------------------------------------------
#
# One Heimdall-as-a-service front door admits many customer organisations
# (repro.core.tenancy, repro.core.frontdoor): every session, lease, journal,
# approval round, and audit chain is keyed by org_id, cross-tenant access
# fails closed, and admission is rate-limited behind bounded per-tenant
# queues.


class TenancyError(ReproError):
    """A multi-tenant surface was used incorrectly or refused an action."""


class TenantIsolationError(TenancyError):
    """A principal of one org tried to touch another org's state (or an
    unknown org's); refused before any tenant state was read or written,
    counted on ``tenancy.violation`` and MAC-audited on the victim's
    chain."""

    def __init__(self, message, org_id="", token_org=""):
        super().__init__(message)
        self.org_id = org_id
        self.token_org = token_org


class TenantRegistryError(TenancyError):
    """The tenant registry failed mid-admission (injected via the
    ``tenancy.registry.crash`` fault point); admission fails closed."""


class CapabilityError(TenancyError):
    """A capability token was refused; deny by default."""


class TokenExpiredError(CapabilityError):
    """The token's clock-charged lifetime is over (``now >= expires_at``
    — the expiry instant itself already denies)."""


class TokenReplayError(CapabilityError):
    """A revoked token was presented again; replay is refused."""


class TokenForgedError(CapabilityError):
    """The token's MAC does not verify under the org's sealed key."""


class CapabilityDeniedError(CapabilityError):
    """The token verifies but does not carry the required scope."""


class FrontDoorError(ReproError):
    """The multi-tenant front door refused or failed a request."""


class FrontDoorOverloadError(FrontDoorError):
    """Load was shed: the tenant's bounded queue, token bucket, or quota
    is exhausted. Carries ``retry_after_s`` so the caller backs off
    instead of queueing unboundedly."""

    def __init__(self, message, retry_after_s=None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class NoisyNeighborError(FrontDoorError):
    """Injected only (``frontdoor.noisy.neighbor``): one tenant's request
    storm drains that tenant's own token bucket; the front door absorbs
    the storm and other tenants must stay unaffected."""


# -- concurrent sessions -----------------------------------------------------
#
# The session manager (repro.core.sessions) runs N ticket sessions against
# one production network under per-element leases and optimistic base
# fingerprints (docs/ARCHITECTURE.md "Concurrency model").


class SessionError(ReproError):
    """A managed session was used incorrectly (closed twice, unknown mode)."""


class LeaseError(SessionError):
    """A lease request could not be granted."""

    def __init__(self, message, elements=()):
        super().__init__(message)
        self.elements = tuple(elements)


class LeaseTimeout(LeaseError):
    """A lease request stayed blocked past its timeout."""


class StaleBaseError(SessionError):
    """A session's base snapshot no longer matches production at submit."""
