"""Ordered, crash-safe change push (paper §4.3: "updating routers in the
wrong order can result in inconsistent behavior").

The scheduler orders a verified change set into **batches by category** —
L2 substrate first, then interface state, then routing, then ACLs, then
management — so that every prerequisite a later change relies on is already
in place. Within a batch, changes touching the *same link or subnet* land
together (both sides of a renumbered link in one batch), which is what
prevents the transient blackholes a naive per-device push creates.

:meth:`ChangeScheduler.push` is **transactional** (docs/ROBUSTNESS.md):
it writes a :class:`~repro.core.enforcer.journal.PushJournal` (intent →
per-batch commit markers → done) around every mutation, retries transient
device failures with bounded backoff, rolls production back to a
byte-identical pre-push snapshot on fatal failure, and — when the pusher
dies mid-push — leaves a journal that :meth:`ChangeScheduler.resume`
replays idempotently. The outcome is always one of exactly two states:
fully committed or fully rolled back.

:meth:`ChangeScheduler.push` can also verify invariant policies between
batches and report transient violations — the measurement behind ablation
A2.

With a :class:`~repro.core.enforcer.rollout.RolloutConfig` the push runs
**staged** (docs/ARCHITECTURE.md "Staged rollout"): the batches are
partitioned into per-device waves, each wave's mixed-version dataplane is
health-probed before the next wave starts, a failed wave quarantines its
offending device and rolls *every* applied wave back, and the journal's
wave markers keep :meth:`ChangeScheduler.resume` idempotent across
mid-wave crashes.
"""

import threading
from dataclasses import dataclass, field

from repro import faults
from repro.config.apply import apply_change
from repro.core.enforcer.journal import (
    COMMITTED,
    ROLLED_BACK,
    PushJournal,
)
from repro.core.enforcer.rollout import (
    FLAP_FAULT,
    MIDWAVE_CRASH_FAULT,
    CircuitBreaker,
    HealthProbe,
    RolloutPlan,
    Wave,
    quarantine_devices,
    record_committed_wave,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.util.errors import (
    ApplyError,
    ApprovalRequiredError,
    AuditWriteError,
    CircuitOpenError,
    FatalApplyError,
    HealthProbeError,
    JournalError,
    PushCrashed,
    ReproError,
    TransientDeviceError,
)
from repro.util.retry import RetryPolicy, retry_call

_CHANGES_COMMITTED = obs_metrics.counter(
    "enforcer.changes.committed", unit="changes",
    help="verified changes applied to production",
)
_PUSH_BATCHES = obs_metrics.counter(
    "enforcer.push.batches", unit="batches",
    help="ordered batches applied during production imports",
)
_PUSH_ROLLBACKS = obs_metrics.counter(
    "push.rollbacks", unit="pushes",
    help="pushes rolled back to their pre-push snapshot",
)
_PUSH_RESUMES = obs_metrics.counter(
    "push.resumes", unit="pushes",
    help="crashed pushes completed from their journal",
)
_LISTENER_ERRORS = obs_metrics.counter(
    "sessions.listener.error", unit="errors",
    help="progress-listener callbacks (wave or approval) that raised; "
         "swallowed so the push/round is never aborted by an observer",
)

# Fault points the chaos campaigns exercise (docs/ROBUSTNESS.md catalog).
# The device-apply failure modes live here, on the *production* apply path:
# the verifier simulates the same changes on candidate copies, and faults
# must never fire there.
_TRANSIENT_FAULT = faults.fault_point(
    "device.apply.transient", error=TransientDeviceError,
    help="a production device apply fails transiently (lost session, "
         "device busy); retried with bounded exponential backoff",
)
_FATAL_FAULT = faults.fault_point(
    "device.apply.fatal", error=FatalApplyError,
    help="a production device apply fails permanently (rejected config); "
         "the push rolls back to its pre-push snapshot",
)
_CRASH_FAULT = faults.fault_point(
    "push.crash", error=PushCrashed,
    help="the pusher process dies mid-batch; only the journal survives, "
         "and resume() completes the push from it",
)

CATEGORY_ORDER = ("vlan", "l2", "interface", "routing", "acl", "mgmt", "credential")


@dataclass
class PushReport:
    """What happened during one push."""

    batches: list = field(default_factory=list)  # list[list[ConfigChange]]
    transient_violations: int = 0
    checked_states: int = 0
    status: str = COMMITTED  # journal.COMMITTED | journal.ROLLED_BACK
    rollback_reason: str = ""
    resumed: bool = False
    journal: object = None  # the PushJournal, when journaling was on
    # Staged-rollout outcome (empty for monolithic pushes).
    waves: int = 0  # waves fully applied + probed healthy
    probes: list = field(default_factory=list)  # ProbeResult per probe run
    quarantined: list = field(default_factory=list)  # devices, sorted

    @property
    def change_count(self):
        return sum(len(batch) for batch in self.batches)

    @property
    def committed(self):
        return self.status == COMMITTED


class ChangeScheduler:
    """Orders and applies verified change sets, transactionally.

    ``retry_policy`` governs transient-failure retries during pushes
    (:class:`~repro.util.retry.RetryPolicy` defaults when ``None``).
    ``last_journal`` always holds the most recent push's journal — after a
    :class:`~repro.util.errors.PushCrashed` escape it is what
    :meth:`resume` recovers from.
    """

    def __init__(self, category_order=CATEGORY_ORDER, retry_policy=None):
        self.category_order = tuple(category_order)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.last_journal = None
        # Optional callback(event_dict) fired on staged-wave transitions;
        # the sessions layer registers one for wave-granular push progress.
        self.wave_listener = None
        self._push_counter = 0
        # Concurrent sessions funnel their pushes through one scheduler;
        # the id counter is the only mutation outside the (externally
        # serialized) push body, so it carries its own lock.
        self._counter_lock = threading.Lock()

    def schedule(self, changes):
        """Batches of changes in safe application order.

        The output is a permutation of the input: nothing is dropped or
        invented (property-tested).
        """
        rank = {category: i for i, category in enumerate(self.category_order)}
        batches = {}
        for change in changes:
            batches.setdefault(rank.get(change.category, len(rank)), []).append(
                change
            )
        ordered = []
        for key in sorted(batches):
            batch = sorted(
                batches[key],
                key=lambda c: (c.kind, str(c.path), c.device),
            )
            ordered.append(batch)
        return ordered

    def naive_order(self, changes):
        """The baseline: one batch per device, in diff order (ablation A2)."""
        by_device = {}
        for change in changes:
            by_device.setdefault(change.device, []).append(change)
        return [by_device[device] for device in sorted(by_device)]

    def push(self, production, changes, policy_verifier=None,
             invariant_policy_ids=None, batches=None, audit=None,
             actor="enforcer", clock=None, rollout=None, risk=None,
             approval=None):
        """Apply ``changes`` to ``production`` batch by batch, atomically.

        The push journals its intent and a pre-push snapshot first, then
        applies each batch between ``batch-start``/``batch-committed``
        markers. Transient device failures retry under the scheduler's
        retry policy; a fatal failure (or a failed audit append — audit
        failures fail *closed*) restores the snapshot and reports
        ``rolled-back``. A simulated pusher crash raises
        :class:`~repro.util.errors.PushCrashed` carrying the journal;
        :meth:`resume` finishes the push from it.

        With a ``policy_verifier``, the network state after every batch is
        checked and violations of *invariant* policies (those holding both
        before and after the full push — i.e. policies no batch is supposed
        to disturb) are counted as transient.

        Args:
            production: the network to mutate, batch by batch.
            changes: the verified change set.
            policy_verifier: optional
                :class:`~repro.policy.verification.PolicyVerifier` for
                between-batch invariant checking (monolithic pushes) or
                post-wave health probes (staged pushes).
            invariant_policy_ids: explicit invariant set; computed from the
                verifier when omitted.
            batches: a precomputed :meth:`schedule` result to reuse.
            audit: optional :class:`~repro.core.enforcer.audit.AuditTrail`;
                the commit record is written *inside* the transaction, so a
                failed append rolls the push back.
            clock: optional :class:`~repro.util.clock.SimulatedClock` to
                charge retry backoff to.
            rollout: a :class:`~repro.core.enforcer.rollout.RolloutConfig`
                to run the push **staged**: batches partitioned into
                device waves, a mixed-version health probe after each
                wave, per-device circuit breakers, quarantine + full
                rollback on wave failure. ``None`` (default) keeps the
                monolithic transactional behaviour.
            risk: the change set's
                :class:`~repro.core.enforcer.risk.RiskAssessment`; a
                high-risk assessment makes ``approval`` mandatory.
            approval: the granted
                :class:`~repro.core.approvals.ApprovalRequest` covering
                exactly this change set.

        Returns:
            A :class:`PushReport`; ``report.status`` is ``committed`` or
            ``rolled-back`` — there is no third outcome.

        Raises:
            ApprovalRequiredError: ``risk`` is high and ``approval`` is
                missing, not granted, or bound to a different change set.
                Raised *before* the journal exists — nothing was mutated,
                the push fails closed.
        """
        if risk is not None and risk.high:
            if approval is None:
                raise ApprovalRequiredError(
                    f"high-risk change set (score {risk.score:.2f} >= "
                    f"{risk.threshold:.2f}) has no quorum approval; "
                    f"refusing to push"
                )
            if not approval.granted:
                raise ApprovalRequiredError(
                    f"approval {approval.request_id} is "
                    f"{approval.state}, not granted; refusing to push"
                )
            if not approval.covers(changes):
                raise ApprovalRequiredError(
                    f"approval {approval.request_id} covers a different "
                    f"change set; refusing to push"
                )
            if clock is not None and approval.expired(clock.now):
                raise ApprovalRequiredError(
                    f"approval {approval.request_id} expired at "
                    f"{approval.expires_at:g} (now {clock.now:g}); "
                    f"refusing to push"
                )
        scheduled = batches if batches is not None else self.schedule(changes)
        with self._counter_lock:
            self._push_counter += 1
            push_id = f"PUSH-{self._push_counter:04d}"

        invariants = None
        if policy_verifier is not None:
            invariants = (
                set(invariant_policy_ids)
                if invariant_policy_ids is not None
                else self._stable_policies(policy_verifier, production, changes)
            )

        if rollout is not None:
            return self._push_staged(
                production, scheduled, push_id, rollout,
                policy_verifier=policy_verifier,
                invariants=invariants, audit=audit, actor=actor, clock=clock,
                approval=approval,
            )

        report = PushReport(batches=scheduled)
        journal = PushJournal(push_id, report.batches, production)
        if approval is not None:
            journal.mark_approval(approval.request_id)
        self.last_journal = journal
        report.journal = journal
        with obs_trace.span(
            "enforcer.push", batches=len(report.batches),
            changes=report.change_count, push_id=push_id,
        ) as push_span:
            try:
                for index, batch in enumerate(report.batches):
                    journal.mark_batch_start(index, production)
                    self._apply_batch(
                        production, batch, index=index, clock=clock,
                        actor=actor,
                    )
                    journal.mark_batch_committed(index)
                    _PUSH_BATCHES.inc()
                    _CHANGES_COMMITTED.inc(len(batch))
                    if policy_verifier is not None:
                        interim = policy_verifier.verify_network(production)
                        report.checked_states += 1
                        report.transient_violations += sum(
                            1
                            for result in interim.violations
                            if result.policy.policy_id in invariants
                        )
                self._commit(journal, report, audit=audit, actor=actor)
            except PushCrashed as crash:
                # A simulated pusher death: no in-process cleanup happens
                # (that is the point); the journal rides on the exception
                # for out-of-process recovery via resume().
                crash.journal = journal
                push_span.set(crashed=True)
                raise
            except ReproError as exc:
                self._rollback(
                    production, journal, report,
                    reason=f"{type(exc).__name__}: {exc}",
                    audit=audit, actor=actor,
                )
            push_span.set(status=report.status)
        return report

    def _push_staged(self, production, scheduled, push_id, rollout,
                     policy_verifier=None, invariants=None, audit=None,
                     actor="enforcer", clock=None, approval=None):
        """The wave-based canary push (docs/ARCHITECTURE.md "Staged rollout").

        Same two-state outcome contract as the monolithic push; the journal
        additionally carries wave/probe/quarantine markers and the report
        carries per-probe results and the quarantine list.
        """
        plan = RolloutPlan.from_batches(scheduled, rollout)
        invariants = tuple(sorted(invariants)) if invariants else ()
        report = PushReport(batches=plan.flat_batches)
        journal = PushJournal(
            push_id, plan.flat_batches, production,
            wave_plan=plan.wave_plan(), invariant_policies=invariants,
            rollout=rollout,
        )
        if approval is not None:
            journal.mark_approval(approval.request_id)
        self.last_journal = journal
        report.journal = journal
        with obs_trace.span(
            "enforcer.push", batches=len(report.batches),
            changes=report.change_count, push_id=push_id,
            waves=len(plan), staged=True,
        ) as push_span:
            probe = HealthProbe.for_push(
                production, policy_verifier=policy_verifier,
                invariant_policy_ids=invariants, config=rollout,
                devices=plan.device_order,
            )
            breaker = CircuitBreaker(rollout.flap_budget)
            applied_devices = set()
            try:
                for wave in plan.waves:
                    self._run_wave(
                        production, journal, wave, probe, breaker,
                        applied_devices, report, total_waves=len(plan),
                        audit=audit, actor=actor, clock=clock,
                    )
                self._commit(journal, report, audit=audit, actor=actor)
            except PushCrashed as crash:
                crash.journal = journal
                push_span.set(crashed=True)
                raise
            except ReproError as exc:
                report.quarantined = journal.quarantined_devices()
                self._rollback(
                    production, journal, report,
                    reason=f"{type(exc).__name__}: {exc}",
                    audit=audit, actor=actor,
                )
            push_span.set(status=report.status, waves_committed=report.waves)
        return report

    def _run_wave(self, production, journal, wave, probe, breaker,
                  applied_devices, report, total_waves, audit=None,
                  actor="enforcer", clock=None):
        """Apply one wave's batches, probe the mixed-version state, commit.

        Already-committed batch indices are skipped, so the same method
        replays an interrupted wave during :meth:`resume`. A wave failure
        quarantines the offending device(s) in the journal and re-raises
        for the caller's rollback path.
        """
        with obs_trace.span(
            "rollout.wave", wave=wave.index, devices=",".join(wave.devices),
            changes=wave.change_count,
        ) as wave_span:
            journal.mark_wave_start(wave.index)
            self._notify_wave(
                actor, journal, wave, total_waves, status="started",
            )
            try:
                for batch_index, batch in zip(wave.batch_indices, wave.batches):
                    if batch_index in journal.committed:
                        continue
                    MIDWAVE_CRASH_FAULT.fire(
                        wave=wave.index, batch=batch_index,
                    )
                    journal.mark_batch_start(batch_index, production)
                    self._apply_batch(
                        production, batch, index=batch_index, clock=clock,
                        actor=actor, breaker=breaker,
                    )
                    journal.mark_batch_committed(batch_index)
                    _PUSH_BATCHES.inc()
                    _CHANGES_COMMITTED.inc(len(batch))
                applied_devices.update(wave.devices)
                result = probe.check(
                    production, applied_devices, wave.index
                )
                report.probes.append(result)
                report.checked_states += 1
                journal.mark_probe(wave.index, result.healthy, result.summary())
                if not result.healthy:
                    raise HealthProbeError(
                        f"wave {wave.index} probe failed: {result.summary()}",
                        wave_index=wave.index,
                        violations=result.violations + result.dead_routes,
                    )
                journal.mark_wave_committed(wave.index)
                record_committed_wave()
                report.waves += 1
                self._wave_audit(
                    audit, actor, journal, wave, total_waves,
                    healthy=True, detail=result.summary(),
                )
                self._notify_wave(
                    actor, journal, wave, total_waves, status="committed",
                )
                wave_span.set(status="committed")
            except PushCrashed:
                wave_span.set(status="crashed")
                raise
            except HealthProbeError as exc:
                # Probe verdicts (and the rollout.wave.probe_fail fault)
                # indict the whole wave: quarantine every device it touched.
                quarantine_devices(
                    journal, wave.devices, f"probe failed: {exc}"
                )
                self._fail_wave(
                    audit, actor, journal, wave, total_waves, exc, wave_span,
                )
                raise
            except ApplyError as exc:
                offender = exc.device if exc.device in wave.devices else None
                offenders = (offender,) if offender else wave.devices
                quarantine_devices(
                    journal, offenders, f"{type(exc).__name__}: {exc}"
                )
                self._fail_wave(
                    audit, actor, journal, wave, total_waves, exc, wave_span,
                )
                raise

    def _fail_wave(self, audit, actor, journal, wave, total_waves, exc,
                   wave_span):
        """Record a failed wave's outcome (audit best-effort + span)."""
        wave_span.set(status="failed", error=type(exc).__name__)
        self._notify_wave(
            actor, journal, wave, total_waves, status="failed",
        )
        if audit is None:
            return
        try:
            self._wave_audit(
                audit, actor, journal, wave, total_waves,
                healthy=False, detail=f"{type(exc).__name__}: {exc}",
            )
        except AuditWriteError:
            # The push is already failing; the rollback record (also
            # best-effort) is the terminal audit statement.
            pass

    def _wave_audit(self, audit, actor, journal, wave, total_waves,
                    healthy, detail):
        """The MAC-covered audit record for one wave outcome.

        Healthy-wave records fail **closed** like the commit record: a
        push whose wave outcomes cannot be audited must not proceed.
        """
        if audit is None:
            return
        quarantined = journal.quarantined_devices()
        command = (
            f"wave {wave.index + 1}/{total_waves} {journal.push_id}: "
            f"{wave.change_count} changes on {','.join(wave.devices)}; "
            f"{detail}"
        )
        if quarantined:
            command += f"; quarantined: {','.join(quarantined)}"
        audit.record(
            actor=actor,
            device=",".join(wave.devices),
            command=command,
            action="enforcer.wave",
            resource=f"production:wave:{wave.index}",
            allowed=healthy,
            outcome="wave committed" if healthy else "wave failed",
        )

    def _notify_wave(self, actor, journal, wave, total_waves, status):
        """Tell the registered wave listener (the sessions layer's
        wave-granular push progress) about a wave transition."""
        listener = self.wave_listener
        if listener is None:
            return
        try:
            listener({
                "actor": actor,
                "push_id": journal.push_id,
                "wave": wave.index,
                "waves": total_waves,
                "devices": list(wave.devices),
                "status": status,
            })
        except Exception:
            # A broken progress observer must never abort the push — the
            # wave either committed or rolled back regardless of whether
            # anyone managed to watch it happen.
            _LISTENER_ERRORS.inc()

    # -- the transactional machinery ------------------------------------------

    def _apply_batch(self, production, batch, index, clock=None,
                     actor="enforcer", breaker=None):
        """Apply one batch, retrying transient per-change failures.

        Backoff jitter is keyed per ``(actor, device)``: each session's
        retry delays are a pure function of the seed and its own identity,
        so interleaved pushes from concurrent sessions see exactly the
        delays they would see running alone.

        With a ``breaker`` (staged pushes) every transient failure charges
        the device's flap budget; a spent budget raises
        :class:`~repro.util.errors.CircuitOpenError` — not retryable — so
        the wave fails fast and quarantines that device. Errors are also
        tagged with the offending device for quarantine attribution.
        """
        for change in batch:
            _CRASH_FAULT.fire(batch=index, device=change.device)

            def apply_once(change=change):
                if breaker is not None and breaker.tripped(change.device):
                    raise CircuitOpenError(
                        f"circuit open for {change.device}: flap budget "
                        f"({breaker.budget}) spent",
                        device=change.device, change=change,
                    )
                try:
                    if breaker is not None:
                        FLAP_FAULT.fire(device=change.device, kind=change.kind)
                    _TRANSIENT_FAULT.fire(device=change.device, kind=change.kind)
                    _FATAL_FAULT.fire(device=change.device, kind=change.kind)
                    apply_change(production.config(change.device), change)
                except ApplyError as exc:
                    if exc.device is None:
                        exc.device = change.device
                    if breaker is not None and isinstance(
                        exc, TransientDeviceError
                    ):
                        breaker.record(change.device)
                    raise

            retry_call(
                apply_once,
                policy=self.retry_policy,
                retryable=(TransientDeviceError,),
                clock=clock,
                step="retry backoff",
                jitter_key=f"{actor}:{change.device}",
            )

    def _commit(self, journal, report, audit=None, actor="enforcer"):
        """Write the commit audit record, then the terminal done marker.

        Audit failures fail closed: when the trail cannot record that the
        push happened, the push must not have happened — the caller's
        except-path rolls everything back.
        """
        if audit is not None:
            command = (
                f"commit {journal.push_id}: "
                f"{report.change_count} changes in "
                f"{len(report.batches)} batches"
            )
            if journal.wave_plan is not None:
                command += (
                    f" over {len(journal.wave_plan)} waves "
                    f"({report.waves} probed healthy)"
                )
            # Raises AuditWriteError when the trail is down; the caller's
            # except-path turns that into a rollback.
            audit.record(
                actor=actor,
                device="-",
                command=command,
                action="enforcer.commit",
                resource="production",
                allowed=True,
                outcome="committed",
            )
        journal.mark_done()
        report.status = COMMITTED

    def _rollback(self, production, journal, report, reason, audit=None,
                  actor="enforcer"):
        """Restore the pre-push snapshot; verify it is byte-identical."""
        with obs_trace.span("enforcer.rollback", reason=reason):
            journal.restore_snapshot(production)
            if not journal.snapshot_matches(production):
                raise JournalError(
                    f"rollback of {journal.push_id} did not restore the "
                    f"pre-push snapshot"
                )
            journal.mark_rolled_back(reason)
            report.status = ROLLED_BACK
            report.rollback_reason = reason
            _PUSH_ROLLBACKS.inc()
            if audit is not None:
                command = f"rollback {journal.push_id}: {reason}"
                quarantined = journal.quarantined_devices()
                if quarantined:
                    command += f"; quarantined: {','.join(quarantined)}"
                # Best effort: a push that rolled back *because* the audit
                # trail is down cannot audit its own rollback.
                try:
                    audit.record(
                        actor=actor,
                        device="-",
                        command=command,
                        action="enforcer.rollback",
                        resource="production",
                        allowed=False,
                        outcome="rolled back to pre-push snapshot",
                    )
                except AuditWriteError:
                    pass

    def resume(self, production, journal, audit=None, actor="enforcer",
               clock=None, policy_verifier=None):
        """Finish a crashed push from its journal, idempotently.

        Restores the pre-batch snapshot of the one possibly half-applied
        batch, then re-applies every batch without a commit marker, in
        order. Applying resume() to an already-terminal journal raises —
        recovery never double-commits.

        Approvals are deliberately **not** re-requested here: a journal
        carrying an ``approval`` marker proves the quorum round concluded
        (granted) before the first mutation, and the grant is bound to the
        journal's exact change set — replaying those batches is what the
        quorum approved.

        Staged pushes (a journal with a ``wave_plan``) resume at wave
        granularity: waves with a ``wave-committed`` marker were applied
        *and* probed healthy before the crash, so only the remaining waves
        replay — each re-probed against a pre-push baseline reconstructed
        from the journal's snapshot (pass ``policy_verifier`` so resumed
        probes re-check the journal's invariant policies, not just route
        convergence).

        Returns:
            A :class:`PushReport` with ``resumed=True``; ``status`` is
            ``committed``, or ``rolled-back`` when recovery itself hit a
            fatal failure.
        """
        if journal.terminal:
            raise JournalError(
                f"push {journal.push_id} already {journal.state}; "
                f"nothing to resume"
            )
        report = PushReport(
            batches=[list(batch) for batch in journal.batches],
            resumed=True,
            journal=journal,
        )
        self.last_journal = journal
        with obs_trace.span(
            "enforcer.resume", push_id=journal.push_id,
            committed=len(journal.committed),
            staged=journal.wave_plan is not None,
        ) as span:
            restored = journal.restore_inflight_batch(production)
            span.set(restored_batch=restored)
            try:
                if journal.wave_plan is not None:
                    self._resume_staged(
                        production, journal, report,
                        policy_verifier=policy_verifier, audit=audit,
                        actor=actor, clock=clock,
                    )
                else:
                    for index, batch in journal.uncommitted_batches():
                        journal.mark_batch_start(index, production)
                        self._apply_batch(
                            production, batch, index=index, clock=clock,
                            actor=actor,
                        )
                        journal.mark_batch_committed(index)
                        _PUSH_BATCHES.inc()
                        _CHANGES_COMMITTED.inc(len(batch))
                self._commit(journal, report, audit=audit, actor=actor)
                _PUSH_RESUMES.inc()
            except PushCrashed as crash:
                crash.journal = journal
                span.set(crashed=True)
                raise
            except ReproError as exc:
                if journal.wave_plan is not None:
                    report.quarantined = journal.quarantined_devices()
                self._rollback(
                    production, journal, report,
                    reason=f"{type(exc).__name__}: {exc}",
                    audit=audit, actor=actor,
                )
            span.set(status=report.status)
        return report

    def _resume_staged(self, production, journal, report,
                       policy_verifier=None, audit=None, actor="enforcer",
                       clock=None):
        """Replay the uncommitted waves of a crashed staged push.

        The health probe's pre-push baseline is rebuilt from the journal's
        snapshot (production already carries the committed waves, so a
        fresh copy of it would be the wrong baseline). Already-committed
        waves only contribute their devices to the probe's cumulative
        applied set; their probes passed before the crash and their audit
        records were already written.
        """
        rollout = journal.rollout
        total_waves = len(journal.wave_plan)
        report.waves = len(journal.committed_waves)
        probe = HealthProbe.for_journal(
            production, journal, policy_verifier=policy_verifier,
            config=rollout,
        )
        breaker = CircuitBreaker(
            rollout.flap_budget if rollout is not None else 3
        )
        applied_devices = set()
        for plan_entry in journal.wave_plan:
            if plan_entry["index"] in journal.committed_waves:
                applied_devices.update(plan_entry["devices"])
        for plan_entry in journal.uncommitted_waves():
            wave = Wave(
                index=plan_entry["index"],
                devices=tuple(plan_entry["devices"]),
                batches=[
                    journal.batches[i] for i in plan_entry["batch_indices"]
                ],
                batch_indices=list(plan_entry["batch_indices"]),
            )
            self._run_wave(
                production, journal, wave, probe, breaker,
                applied_devices, report, total_waves=total_waves,
                audit=audit, actor=actor, clock=clock,
            )

    def _stable_policies(self, policy_verifier, production, changes):
        """Policies holding both before and after the full change set."""
        from repro.config.apply import apply_changes

        before = {
            r.policy.policy_id
            for r in policy_verifier.verify_network(production).results
            if r.holds
        }
        candidate = production.copy()
        apply_changes(candidate.configs, changes)
        after = {
            r.policy.policy_id
            for r in policy_verifier.verify_network(candidate).results
            if r.holds
        }
        return before & after
