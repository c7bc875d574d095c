"""The three ticket workloads: closed loops over seeded ticket sequences.

Each workload builds its deployments in :meth:`setup`, then :meth:`run`
works tickets until a deadline and records, per ticket, the wall-clock
milliseconds the technician waits. Every input (ticket order, the estate,
drift targets, the tenant-mix shuffle) comes from the seed alone.

* ``paper-tickets`` — one technician round-robins the six standard
  (network, issue) tickets on long-lived enterprise and university
  productions. University pushes are staged (default ``RolloutConfig``);
  enterprise pushes are monolithic. Every fix returns production to a
  snapshot the compile cache already holds.
* ``estate-drift`` — one technician works the three seeded issues of a
  generated ~120-device fat-tree. Before each ticket an unmanaged
  out-of-band edit (a unique interface description) lands on production,
  so every snapshot is new to the compile cache.
* ``tenant-mix`` — two university orgs behind one ``FrontDoor`` (two
  bulkhead workers each); one generator keeps two requests in flight.
  Rounds start while both orgs are idle: all three issues are injected per
  org, then a seeded shuffle of fix tickets, disjoint-section maintenance
  edits and read-only diagnosis sessions runs.
"""

import queue
import random
import time

from repro.control.cache import clear_dataplane_cache
from repro.core.enforcer.rollout import RolloutConfig
from repro.core.frontdoor import FrontDoor
from repro.core.heimdall import Heimdall
from repro.core.tenancy import TenantSpec
from repro.policy.mining import mine_policies
from repro.scenarios.enterprise import build_enterprise_network
from repro.scenarios.generate import generate_scenario
from repro.scenarios.issues import FixStep, standard_issues
from repro.scenarios.university import build_university_network
from repro.util import rand
from repro.util.errors import FrontDoorOverloadError, ReproError

ESTATE_SIZE = 120
ESTATES = 3
IN_FLIGHT = 2
WORKERS_PER_ORG = 2
MAINTENANCE_PER_ORG = 3  # one per issue root-cause device
DIAGNOSIS_PER_ORG = 2
REQUEST_TIMEOUT_S = 120.0

PROBE_LOOPS = 50_000
PROBE_SHARE = 0.04

now = time.perf_counter


class Recorder:
    """Per-ticket samples and failures of one measured phase."""

    def __init__(self):
        # (ticket type, ms) samples; a type is one entry of the workload's
        # ticket sequence, such as university/ospf or maintenance/isp.
        self.ticket_ms = []
        self.traced_ms = []  # traced tickets of a traced run
        self.traced = []  # their ids
        self.open_ms = []
        self.submit_ms = []
        self.command_ms = []  # ms
        self.attempted = 0
        self.failures = []  # (ticket id, reason)
        self.statuses = {}
        self.probes = []  # host-speed loop times, ms
        self.started = now()
        self.ended = None

    def probe(self):
        """Time the host-speed loop between tickets, off the ticket clock,
        until the probes have taken ``PROBE_SHARE`` of the run so far."""
        while sum(self.probes) < PROBE_SHARE * (now() - self.started) * 1e3:
            started = now()
            total = 0
            for value in range(PROBE_LOOPS):
                total += value & 7
            self.probes.append((now() - started) * 1e3)

    def ticket(self, ticket, kind, ms, traced):
        if traced:
            self.traced.append(ticket)
            self.traced_ms.append((kind, ms))
        else:
            self.ticket_ms.append((kind, ms))

    def fail(self, ticket, reason):
        self.failures.append((ticket, reason))

    @property
    def completed(self):
        return self.attempted - len(self.failures)


def _read_only(command):
    return command.split()[0] in ("show", "ping", "traceroute")


class _SingleTechnician:
    """A closed loop of single-tenant tickets: inject, open, fix, submit."""

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.count = 0

    def _ticket(self, heimdall, issue, rec, label):
        ticket = f"{label}#{self.count}"
        tracer = self.tracer
        traced = tracer.wants(self.count // len(self.order))
        self.count += 1
        tracer.set_ticket(ticket, traced)
        # Spans opened on helper threads (parallel rollout probes) belong
        # to the one ticket in flight.
        tracer.default_ticket, tracer.default_traced = ticket, traced
        rec.attempted += 1
        issue.inject(heimdall.production)
        try:
            self._work(heimdall, issue, rec, label, ticket, traced)
        except ReproError as exc:
            rec.fail(ticket, f"{type(exc).__name__}: {exc}")

    def _work(self, heimdall, issue, rec, kind, ticket, traced):
        tracer = self.tracer
        started = now()
        with tracer.span("ticket"):
            with tracer.span("stage.open"):
                session = heimdall.open_ticket(issue)
            opened = now()
            with tracer.span("stage.fix"):
                for step in issue.fix_script:
                    for command in step.commands:
                        sent = now()
                        result = session.execute(step.device, command)
                        rec.command_ms.append((now() - sent) * 1e3)
                        if not result.ok:
                            rec.fail(ticket, f"{command!r}: {result.error}")
            fixed = now()
            with tracer.span("stage.submit"):
                outcome = session.submit()
            ended = now()
        rec.ticket(ticket, kind, (ended - started) * 1e3, traced)
        rec.open_ms.append((kind, (opened - started) * 1e3))
        rec.submit_ms.append((kind, (ended - fixed) * 1e3))
        if not (outcome.approved and outcome.resolved):
            rec.fail(ticket, f"approved={outcome.approved} "
                             f"resolved={outcome.resolved}")

    def close(self):
        pass


class PaperTickets(_SingleTechnician):
    name = "paper-tickets"

    def setup(self):
        clear_dataplane_cache()
        rand.seed(self.seed)
        self.deployments = {}
        for network, build, rollout in (
            ("enterprise", build_enterprise_network, None),
            ("university", build_university_network, RolloutConfig()),
        ):
            production = build()
            self.deployments[network] = (
                Heimdall(production, policies=mine_policies(production),
                         rollout=rollout),
                standard_issues(network),
            )
        self.order = [
            (network, issue_id)
            for network in ("enterprise", "university")
            for issue_id in ("ospf", "isp", "vlan")
        ]
        random.Random(f"paper-tickets:{self.seed}").shuffle(self.order)
        warm = Recorder()
        for _ in self.order:
            self._next(warm)
        self.count = 0
        return warm

    def _next(self, rec):
        network, issue_id = self.order[self.count % len(self.order)]
        heimdall, issues = self.deployments[network]
        self._ticket(heimdall, issues[issue_id], rec,
                     f"{network}/{issue_id}")

    def run(self, deadline, rec):
        while now() < deadline:
            rec.probe()
            self._next(rec)

    def audits(self):
        return {network: heimdall.audit.verify()
                for network, (heimdall, _) in self.deployments.items()}


class EstateDrift(_SingleTechnician):
    name = "estate-drift"

    def setup(self):
        clear_dataplane_cache()
        rand.seed(self.seed)
        # Several estates per run: one estate's seeded issue placement
        # moves ticket times by ~10% from seed to seed, and a run that
        # rotates over a few of them averages that out.
        self.estates = []
        for index in range(ESTATES):
            scenario = generate_scenario(
                "fat-tree", size=ESTATE_SIZE, seed=self.seed * ESTATES + index
            )
            self.estates.append((
                Heimdall(scenario.network, policies=scenario.policies),
                scenario.issues,
                sorted(scenario.network.routers()),
            ))
        self.drift = random.Random(f"estate-drift:{self.seed}")
        self.order = [
            (index, issue_id)
            for index in range(ESTATES)
            for issue_id in ("ifdown", "ospf", "vlan")
        ]
        self.drift.shuffle(self.order)
        warm = Recorder()
        self._next(warm)
        self.count = 0
        return warm

    def _next(self, rec):
        index, issue_id = self.order[self.count % len(self.order)]
        heimdall, issues, routers = self.estates[index]
        config = heimdall.production.config(self.drift.choice(routers))
        iface = self.drift.choice(sorted(config.interfaces))
        config.interface(iface).description = (
            f"out-of-band change {self.seed}-{self.drift.getrandbits(32):08x}"
        )
        self._ticket(heimdall, issues[issue_id], rec,
                     f"estate{index}/{issue_id}")

    def run(self, deadline, rec):
        while now() < deadline:
            rec.probe()
            self._next(rec)

    def audits(self):
        return {f"estate{index}": heimdall.audit.verify()
                for index, (heimdall, _, _) in enumerate(self.estates)}


class TenantMix:
    """Two orgs behind one front door, two requests in flight."""

    name = "tenant-mix"
    orgs = ("org-a", "org-b")

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.frontdoor = None
        self.round = 0

    def setup(self):
        self.close()
        clear_dataplane_cache()
        rand.seed(self.seed)
        specs = []
        for org in self.orgs:
            production = build_university_network()
            specs.append(TenantSpec(
                org_id=org, network=production,
                policies=mine_policies(production),
                workers=WORKERS_PER_ORG,
            ))
        self.frontdoor = FrontDoor(specs)
        self.issues = {org: standard_issues("university")
                       for org in self.orgs}
        self.shuffle = random.Random(f"tenant-mix:{self.seed}")
        self.done = queue.Queue()
        warm = Recorder()
        # Warm-up: one diagnosis session per org compiles each production.
        self._round(now() + 3600.0, warm, [
            ("diagnosis", org, self.issues[org]["ospf"], None)
            for org in self.orgs
        ])
        self.round = 0
        return warm

    def _requests(self):
        """One round's seeded shuffle over both orgs."""
        requests = []
        for org in self.orgs:
            issues = self.issues[org]
            for issue_id in sorted(issues):
                requests.append(("fix", org, issues[issue_id], None))
            for issue_id in sorted(issues)[:MAINTENANCE_PER_ORG]:
                issue = issues[issue_id]
                production = self.frontdoor.deployment(org).heimdall.production
                device = issue.root_cause_device
                iface = self.shuffle.choice(
                    sorted(production.config(device).interfaces)
                )
                text = f"maintenance {self.seed}-{self.round}-{issue_id}"
                requests.append(("maintenance", org, issue,
                                 (device, iface, text)))
            for _ in range(DIAGNOSIS_PER_ORG):
                issue = issues[self.shuffle.choice(sorted(issues))]
                requests.append(("diagnosis", org, issue, None))
        self.shuffle.shuffle(requests)
        return requests

    def run(self, deadline, rec):
        while now() < deadline:
            for org in self.orgs:
                production = self.frontdoor.deployment(org).heimdall.production
                for issue in self.issues[org].values():
                    issue.inject(production)
            rec.probe()
            self._round(deadline, rec, self._requests())
            self.round += 1

    def _round(self, deadline, rec, requests):
        """Admit ``requests`` two at a time until done or past deadline."""
        pending = list(reversed(requests))
        inflight = {}
        maintenance = []
        while pending or inflight:
            while pending and len(inflight) < IN_FLIGHT and now() < deadline:
                kind, org, issue, edit = pending.pop()
                ticket = f"{org}/{self.round}/{len(pending)}/{kind}"
                admission = self._admit(ticket, kind, org, issue, edit, rec)
                if admission is not None:
                    inflight[ticket] = (admission, kind, org, issue, edit)
            if not pending or now() >= deadline:
                pending = []
            if not inflight:
                break
            ticket, times = self.done.get(timeout=REQUEST_TIMEOUT_S)
            admission, kind, org, issue, edit = inflight.pop(ticket)
            self._finish(ticket, admission, kind,
                         f"{kind}/{issue.issue_id}", times, rec)
            if kind == "maintenance":
                maintenance.append((ticket, org, edit))
        for ticket, org, (device, iface, text) in maintenance:
            production = self.frontdoor.deployment(org).heimdall.production
            if production.config(device).interface(iface).description != text:
                rec.fail(ticket, f"maintenance edit missing on {device}")

    def _admit(self, ticket, kind, org, issue, edit, rec):
        tracer = self.tracer
        traced = tracer.wants(self.round)
        tracer.set_ticket(ticket, traced)
        rec.attempted += 1
        token = self.frontdoor.issue_token(org, f"tech-{ticket}")
        times = {"admit": now(), "traced": traced}
        work = self._work(ticket, kind, issue, edit, times)
        try:
            admission = self.frontdoor.admit(
                token, org, work, scope="session.submit", label=ticket
            )
        except FrontDoorOverloadError as exc:
            tracer.count("frontdoor.shed")
            rec.fail(ticket, f"shed: {exc}")
            return None
        return admission

    def _work(self, ticket, kind, issue, edit, times):
        tracer = self.tracer
        done = self.done

        def work(manager):
            times["start"] = now()
            tracer.set_ticket(ticket, times["traced"])
            tracer.record("frontdoor.queue_wait", times["admit"],
                          times["start"], ticket)
            try:
                with tracer.span("ticket"):
                    return self._session(manager, kind, issue, edit, times)
            finally:
                times["end"] = now()
                done.put((ticket, times))

        return work

    def _session(self, manager, kind, issue, edit, times):
        tracer = self.tracer
        if kind == "fix":
            script = issue.fix_script
            profile = None
        elif kind == "maintenance":
            device, iface, text = edit
            script = (FixStep(device, (
                "configure terminal", f"interface {iface}",
                f"description {text}", "end", "write memory",
            )),)
            profile = "interface"
        else:
            script = [
                FixStep(step.device,
                        [c for c in step.commands if _read_only(c)])
                for step in issue.fix_script
            ]
            profile = None
        with tracer.span("stage.open"):
            session = manager.open_ticket(
                issue, mode="optimistic", profile=profile
            )
        times["opened"] = now()
        failed = []
        with tracer.span("stage.fix"):
            for step in script:
                for command in step.commands:
                    sent = now()
                    result = session.execute(step.device, command)
                    times.setdefault("commands", []).append(
                        (now() - sent) * 1e3
                    )
                    if not result.ok:
                        failed.append(f"{command!r}: {result.error}")
        if kind == "diagnosis":
            changes = session.twin.changes()
            session.abandon("diagnosis only")
            return {"failed": failed, "changes": len(changes)}
        times["fixed"] = now()
        with tracer.span("stage.submit"):
            outcome = session.submit()
        return {"failed": failed, "outcome": outcome}

    def _finish(self, ticket, admission, kind, label, times, rec):
        rec.command_ms.extend(times.get("commands", ()))
        try:
            result = admission.result()
        except ReproError as exc:
            rec.fail(ticket, f"{type(exc).__name__}: {exc}")
            return
        rec.ticket(ticket, label, (times["end"] - times["admit"]) * 1e3,
                   times["traced"])
        rec.open_ms.append((label, (times["opened"] - times["start"]) * 1e3))
        for reason in result["failed"]:
            rec.fail(ticket, reason)
        if kind == "diagnosis":
            if result["changes"]:
                rec.fail(ticket, f"diagnosis changed {result['changes']}")
            return
        rec.submit_ms.append((label, (times["end"] - times["fixed"]) * 1e3))
        outcome = result["outcome"]
        rec.statuses[outcome.status] = rec.statuses.get(outcome.status, 0) + 1
        if outcome.status == "rebased":
            self.tracer.count("sessions.rebased", ticket=ticket)
        if outcome.status == "conflict":
            self.tracer.count("sessions.conflicts", ticket=ticket)
        resolved = (
            outcome.ticket_outcome is not None
            and outcome.ticket_outcome.resolved
        )
        if not outcome.imported or (kind == "fix" and not resolved):
            rec.fail(ticket, f"{kind} {outcome.status}: imported="
                             f"{outcome.imported} resolved={resolved} "
                             f"{outcome.reason}")

    def audits(self):
        return {org: self.frontdoor.deployment(org).heimdall.audit.verify()
                for org in self.orgs}

    def close(self):
        if self.frontdoor is not None:
            self.frontdoor.close()
            self.frontdoor = None


WORKLOADS = {cls.name: cls for cls in (PaperTickets, EstateDrift, TenantMix)}
