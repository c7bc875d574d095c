"""Traced-run instrumentation: spans around each layer's public calls.

Nothing here edits the program. :func:`install` replaces public functions
and methods with timing wrappers from the outside. Modules bind free
functions by name (``from repro.x import f``), so a function wrapper is
installed in every loaded ``repro`` module that holds the original object,
not only in the defining one.

Spans are kept in memory as ``(id, name, start, end, parent, ticket)`` and
written out when the run ends. A span's parent is the innermost open span
of the same thread; a span opened on a thread with no open span (a rollout
probe worker, say) has no parent and belongs to ``tracer.default_ticket``.
Hot inner calls (``trace_flow``, trace-cache lookups, compile-cache gets)
are counted, not spanned: they would multiply the span count by thousands
and their time belongs to the layer call that issued them.
"""

import functools
import importlib
import itertools
import sys
import threading
import time

#: (module, qualified name, span name) for every wrapped call. A name that
#: appears twice sums both calls under one span name.
SPANNED = (
    ("repro.core.frontdoor", "FrontDoor.admit", "frontdoor.admit"),
    ("repro.core.tenancy", "TokenAuthority.issue", "tenancy.token"),
    ("repro.core.tenancy", "TokenAuthority.validate", "tenancy.token"),
    ("repro.core.sessions", "SessionManager.open_ticket", "sessions.open"),
    ("repro.core.sessions", "SessionManager.submit", "sessions.submit"),
    ("repro.core.sessions", "LeaseManager.acquire", "sessions.lease_wait"),
    ("repro.core.heimdall", "Heimdall.open_ticket", "heimdall.open"),
    ("repro.core.heimdall", "Heimdall.enforce", "heimdall.enforce"),
    ("repro.core.privilege.generator", "generate_privilege_spec",
     "privilege.generate"),
    ("repro.core.privilege.translator", "policy_guard_rules",
     "privilege.generate"),
    ("repro.core.twin.twin", "TwinNetwork.__init__", "twin.boot"),
    ("repro.core.twin.twin", "TwinNetwork.changes", "twin.changes"),
    ("repro.core.twin.monitor", "ReferenceMonitor.execute", "twin.monitor"),
    ("repro.emulation.network", "EmulatedNetwork.__init__",
     "emulation.boot"),
    ("repro.emulation.console", "Console.execute", "emulation.command"),
    ("repro.config.model", "DeviceConfig.copy", "config.copy"),
    ("repro.net.network", "Network.copy", "config.copy"),
    ("repro.config.serializer", "serialize_config", "config.serialize"),
    ("repro.config.parser", "parse_config", "config.parse"),
    ("repro.config.apply", "apply_changes", "config.apply"),
    ("repro.config.diffing", "diff_networks", "config.diff"),
    ("repro.config.diffing", "diff_configs", "config.diff"),
    ("repro.control.builder", "build_dataplane", "control.compile"),
    ("repro.dataplane.differential", "diff_reachability", "dataplane.impact"),
    ("repro.dataplane.differential", "seed_unaffected_traces",
     "dataplane.seed"),
    ("repro.policy.verification", "PolicyVerifier.verify_dataplane",
     "policy.verify"),
    ("repro.core.enforcer.verifier", "ChangeVerifier.verify",
     "enforcer.verify"),
    ("repro.core.enforcer.scheduler", "ChangeScheduler.push", "enforcer.push"),
    ("repro.core.enforcer.rollout", "HealthProbe.check",
     "enforcer.rollout_probe"),
    ("repro.core.enforcer.audit", "AuditTrail.record", "enforcer.audit"),
)


#: Per-layer metrics and their units. ``ms`` metrics are milliseconds per
#: traced ticket; ``count`` metrics are counts per traced ticket, except the
#: two cache sizes read at the end of the run.
PER_LAYER = {
    "frontdoor.admit_ms": "ms",
    "frontdoor.queue_wait_ms": "ms",
    "frontdoor.shed": "count",
    "tenancy.token_ms": "ms",
    "sessions.open_self_ms": "ms",
    "sessions.submit_self_ms": "ms",
    "sessions.lease_wait_ms": "ms",
    "sessions.rebased": "count",
    "sessions.conflicts": "count",
    "privilege.generate_ms": "ms",
    "twin.scope_ms": "ms",
    "twin.scope_devices": "count",
    "twin.boot_self_ms": "ms",
    "twin.changes_ms": "ms",
    "twin.monitor_self_ms": "ms",
    "twin.denied": "count",
    "emulation.boot_ms": "ms",
    "emulation.command_self_ms": "ms",
    "emulation.recompiles": "count",
    "config.copies": "count",
    "config.copy_ms": "ms",
    "config.serialize_ms": "ms",
    "config.parse_ms": "ms",
    "config.apply_ms": "ms",
    "config.diff_ms": "ms",
    "control.compiles_cold": "count",
    "control.compiles_incremental": "count",
    "control.cache_hits": "count",
    "control.compile_cold_ms": "ms",
    "control.compile_incremental_ms": "ms",
    "control.cache_entries": "count",
    "dataplane.impact_ms": "ms",
    "dataplane.flows_probed": "count",
    "dataplane.traces": "count",
    "dataplane.traces_seeded": "count",
    "dataplane.trace_reuse_ratio": "ratio",
    "dataplane.cached_traces": "count",
    "policy.verify_ms": "ms",
    "policy.checks": "count",
    "enforcer.verify_self_ms": "ms",
    "enforcer.push_ms": "ms",
    "enforcer.rollout_probe_ms": "ms",
    "enforcer.audit_records": "count",
    "enforcer.audit_ms": "ms",
    "stage.open_uncovered_ms": "ms",
    "stage.fix_uncovered_ms": "ms",
    "stage.submit_uncovered_ms": "ms",
    "trace.overhead_ms": "ms",
}

# span name -> per-layer metric of its outermost duration / its self time.
_DURATION = {
    "frontdoor.admit": "frontdoor.admit_ms",
    "frontdoor.queue_wait": "frontdoor.queue_wait_ms",
    "tenancy.token": "tenancy.token_ms",
    "sessions.lease_wait": "sessions.lease_wait_ms",
    "privilege.generate": "privilege.generate_ms",
    "twin.scope": "twin.scope_ms",
    "twin.changes": "twin.changes_ms",
    "emulation.boot": "emulation.boot_ms",
    "config.copy": "config.copy_ms",
    "config.serialize": "config.serialize_ms",
    "config.parse": "config.parse_ms",
    "config.apply": "config.apply_ms",
    "config.diff": "config.diff_ms",
    "dataplane.impact": "dataplane.impact_ms",
    "policy.verify": "policy.verify_ms",
    "enforcer.push": "enforcer.push_ms",
    "enforcer.rollout_probe": "enforcer.rollout_probe_ms",
    "enforcer.audit": "enforcer.audit_ms",
}
_SELF = {
    "sessions.open": "sessions.open_self_ms",
    "sessions.submit": "sessions.submit_self_ms",
    "twin.boot": "twin.boot_self_ms",
    "twin.monitor": "twin.monitor_self_ms",
    "emulation.command": "emulation.command_self_ms",
    "enforcer.verify": "enforcer.verify_self_ms",
    "stage.open": "stage.open_uncovered_ms",
    "stage.fix": "stage.fix_uncovered_ms",
    "stage.submit": "stage.submit_uncovered_ms",
}


class Tracer:
    """In-memory spans and per-ticket counters for one traced run."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, ticket]
        self.counts = {}  # (ticket, name) -> int
        self.default_ticket = None
        self.default_traced = False
        self.planes = {}  # compile fingerprint -> trace cache
        self._local = threading.local()
        self._lock = threading.Lock()  # guards counts and planes
        self._ids = itertools.count()

    # -- context --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @staticmethod
    def wants(cycle):
        """Whether tickets of workload cycle ``cycle`` are traced.

        Cycles alternate, so traced and untraced tickets interleave over
        the run and their ``ticket_ms_p50`` difference is the tracing
        overhead, free of host drift between two phases.
        """
        return cycle % 2 == 0

    def set_ticket(self, ticket, traced):
        """Bind the calling thread's spans and counts to ``ticket``."""
        self._local.ticket = ticket
        self._local.traced = traced

    def ticket(self):
        return getattr(self._local, "ticket", None) or self.default_ticket

    def active(self):
        return getattr(self._local, "traced", self.default_traced)

    def inside(self, name):
        """Whether a span called ``name`` is open on this thread."""
        return any(span[1] == name for span in self._stack())

    # -- recording ------------------------------------------------------------

    def open(self, name):
        stack = self._stack()
        span = [next(self._ids), name, time.perf_counter(), None,
                stack[-1][0] if stack else None, self.ticket()]
        stack.append(span)
        return span

    def close(self, span):
        span[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def record(self, name, start, end, ticket):
        """A span measured elsewhere (a queue wait across threads)."""
        self.spans.append([next(self._ids), name, start, end, None, ticket])

    def count(self, name, amount=1, ticket=None):
        key = (ticket if ticket is not None else self.ticket(), name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name):
        return _SpanContext(self, name) if self.active() else _NULL_CONTEXT

    # -- wrapping -------------------------------------------------------------

    def spanned(self, original, name, after=None):
        """``original`` timed as span ``name``; ``after(args, kwargs,
        result)`` runs inside the span to add counts."""
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active():
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer.close(span)

        return wrapper

    # -- output ---------------------------------------------------------------

    def dump(self):
        """JSON-ready spans (ms relative to the first span) and counts."""
        spans = sorted(self.spans, key=lambda span: span[2])
        origin = spans[0][2] if spans else 0.0
        return {
            "fields": ["id", "name", "start_ms", "end_ms", "parent", "ticket"],
            "spans": [
                [s[0], s[1], round((s[2] - origin) * 1e3, 4),
                 round((s[3] - origin) * 1e3, 4), s[4], s[5]]
                for s in spans
            ],
            "counts": [
                [ticket, name, value]
                for (ticket, name), value in sorted(
                    self.counts.items(), key=lambda item: str(item[0])
                )
            ],
        }


class _SpanContext:
    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name
        self._span = None

    def __enter__(self):
        self._span = self._tracer.open(self._name)
        return self._span

    def __exit__(self, *exc):
        self._tracer.close(self._span)
        return False


class NullTracer:
    """The untraced run: same calls, nothing recorded."""

    default_ticket = None

    @staticmethod
    def wants(cycle):
        return False

    def set_ticket(self, ticket, traced):
        pass

    def span(self, name):
        return _NULL_CONTEXT

    def record(self, name, start, end, ticket):
        pass

    def count(self, name, amount=1, ticket=None):
        pass


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


# -- installation -------------------------------------------------------------


def _replace_everywhere(original, wrapper):
    """Rebind every ``repro`` module attribute that is ``original``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _install(module_name, qualname, make):
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, attr, make(vars(cls)[attr]))
        return
    original = getattr(module, qualname)
    _replace_everywhere(original, make(original))


def install(tracer):
    """Wrap every call in :data:`SPANNED`, plus the counted hot calls."""
    from repro.control import cache as control_cache
    from repro.core.twin import scoping

    extras = {
        "repro.core.twin.twin:TwinNetwork.__init__": _after_boot(tracer),
        "repro.core.twin.monitor:ReferenceMonitor.execute":
            _after_monitor(tracer),
        "repro.dataplane.differential:diff_reachability":
            lambda args, kwargs, diff: tracer.count(
                "dataplane.flows_probed", diff.probed
            ),
        "repro.dataplane.differential:seed_unaffected_traces":
            lambda args, kwargs, seeded: tracer.count(
                "dataplane.traces_seeded", seeded
            ),
        "repro.policy.verification:PolicyVerifier.verify_dataplane":
            lambda args, kwargs, report: tracer.count(
                "policy.checks", report.checked_count
            ),
        "repro.core.enforcer.audit:AuditTrail.record":
            lambda args, kwargs, result: tracer.count(
                "enforcer.audit_records"
            ),
        "repro.config.model:DeviceConfig.copy":
            lambda args, kwargs, result: tracer.count("config.copies"),
    }
    for module_name, qualname, name in SPANNED:
        key = f"{module_name}:{qualname}"
        if key == "repro.control.builder:build_dataplane":
            _install(module_name, qualname,
                     lambda original: _compile_wrapper(tracer, original))
            continue
        after = extras.get(key)
        _install(module_name, qualname,
                 lambda original, name=name, after=after:
                 tracer.spanned(original, name, after))
    _install("repro.dataplane.forwarding", "trace_flow",
             lambda original: _trace_wrapper(tracer, original))
    _install("repro.dataplane.reachability",
             "ReachabilityAnalyzer.trace",
             lambda original: _lookup_wrapper(tracer, original))
    for strategy, function in list(scoping.SCOPING_STRATEGIES.items()):
        scoping.SCOPING_STRATEGIES[strategy] = tracer.spanned(
            function, "twin.scope"
        )
    cache_cls = type(control_cache.dataplane_cache())
    original_get = cache_cls.get

    def get(self, fingerprint):
        artifacts = original_get(self, fingerprint)
        if artifacts is not None:
            tracer._local.cache_hit = True
        return artifacts

    cache_cls.get = get


def _after_boot(tracer):
    def after(args, kwargs, result):
        tracer.count("twin.scope_devices", len(args[0].scope))
    return after


def _after_monitor(tracer):
    def after(args, kwargs, result):
        if result.denied:
            tracer.count("twin.denied")
    return after


def _trace_wrapper(tracer, original):
    """``trace_flow`` counted; a call inside a trace lookup is a miss."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.active():
            return original(*args, **kwargs)
        tracer.count("dataplane.traces")
        if getattr(tracer._local, "in_lookup", False):
            tracer.count("dataplane.trace_misses")
        return original(*args, **kwargs)

    return wrapper


def _lookup_wrapper(tracer, original):
    """``ReachabilityAnalyzer.trace`` (a cached trace lookup) counted."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.active():
            return original(*args, **kwargs)
        tracer.count("dataplane.trace_lookups")
        tracer._local.in_lookup = True
        try:
            return original(*args, **kwargs)
        finally:
            tracer._local.in_lookup = False

    return wrapper


def _compile_wrapper(tracer, original):
    """``build_dataplane`` classified as cache hit, cold or incremental."""

    @functools.wraps(original)
    def wrapper(network, baseline=None, *args, **kwargs):
        if not tracer.active():
            return original(network, baseline, *args, **kwargs)
        tracer._local.cache_hit = False
        if tracer.inside("emulation.command"):
            tracer.count("emulation.recompiles")
        span = tracer.open("control.compile")
        try:
            plane = original(network, baseline, *args, **kwargs)
        finally:
            tracer.close(span)
        if tracer._local.cache_hit:
            kind = "hit"
            tracer.count("control.cache_hits")
        elif baseline is not None:
            kind = "incremental"
            tracer.count("control.compiles_incremental")
        else:
            kind = "cold"
            tracer.count("control.compiles_cold")
        span[1] = f"control.compile.{kind}"
        artifacts = getattr(plane, "artifacts", None)
        if artifacts is not None:
            with tracer._lock:
                tracer.planes[artifacts.fingerprint] = artifacts.trace_cache
        return plane

    return wrapper


# -- derivation ---------------------------------------------------------------


def derive(tracer, tickets):
    """Per-layer metrics, per ticket, from the spans of ``tickets``.

    Returns ``(metrics, breakdown)``: the :data:`PER_LAYER` values (minus
    ``trace.overhead_ms``, which the runner adds) and, for each ticket
    stage, the self time of every span name under it, per ticket.
    """
    from repro.control.cache import dataplane_cache

    keep = set(tickets)
    count = max(len(keep), 1)
    spans = [span for span in tracer.spans if span[5] in keep]
    by_id = {span[0]: span for span in spans}
    child_ms = {}
    for span in spans:
        if span[4] is not None:
            child_ms[span[4]] = (
                child_ms.get(span[4], 0.0) + (span[3] - span[2]) * 1e3
            )

    totals = {name: 0.0 for name in PER_LAYER}
    breakdown = {}
    for span in spans:
        span_id, name, start, end, parent, _ticket = span
        duration = (end - start) * 1e3
        self_ms = duration - child_ms.get(span_id, 0.0)
        base = name.rsplit(".", 1)[0] if name.startswith(
            "control.compile.") else name
        ancestor = by_id.get(parent)
        nested = False
        stage = None
        while ancestor is not None:
            if ancestor[1] == name or (
                base == "control.compile"
                and ancestor[1].startswith("control.compile.")
            ):
                nested = True
            if ancestor[1].startswith("stage."):
                stage = ancestor[1]
            ancestor = by_id.get(ancestor[4])
        if name in _SELF:
            totals[_SELF[name]] += self_ms
        if not nested:
            if name in _DURATION:
                totals[_DURATION[name]] += duration
            elif name == "control.compile.cold":
                totals["control.compile_cold_ms"] += duration
            elif name == "control.compile.incremental":
                totals["control.compile_incremental_ms"] += duration
        if stage is not None:
            stage_rows = breakdown.setdefault(stage, {})
            stage_rows[name] = stage_rows.get(name, 0.0) + self_ms

    counts = {}
    for (ticket, name), value in tracer.counts.items():
        if ticket in keep:
            counts[name] = counts.get(name, 0) + value

    metrics = {}
    for name, unit in PER_LAYER.items():
        if unit == "ms":
            metrics[name] = totals[name] / count
        elif unit == "count":
            metrics[name] = counts.get(name, 0) / count
    lookups = counts.get("dataplane.trace_lookups", 0)
    misses = counts.get("dataplane.trace_misses", 0)
    metrics["dataplane.trace_reuse_ratio"] = (
        1.0 - misses / lookups if lookups else 0.0
    )
    cache = dataplane_cache()
    metrics["control.cache_entries"] = float(len(cache))
    metrics["dataplane.cached_traces"] = float(sum(
        len(traces) for fingerprint, traces in tracer.planes.items()
        if fingerprint in cache
    ))
    metrics.pop("trace.overhead_ms", None)
    breakdown = {
        stage: {
            name: round(ms / count, 4)
            for name, ms in sorted(rows.items(), key=lambda item: -item[1])
        }
        for stage, rows in breakdown.items()
    }
    return metrics, breakdown
