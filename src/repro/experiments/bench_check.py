"""Regression gate: fresh benchmark ratios vs the committed reports.

``python -m repro.cli bench --check`` (wired into ``make check``) re-runs a
small-repeat pass of the data-plane and rollout benchmarks and compares the
**ratio** metrics — verify/compile speedups and the staged-push probe
overhead — against the numbers committed in ``BENCH_dataplane.json`` and
``BENCH_rollout.json``. Ratios, not milliseconds: absolute wall-clock moves
with the machine, but a cold-vs-incremental quotient on the same host in
the same process is stable enough to gate on.

A gated metric regressing by more than :data:`TOLERANCE` (20%) fails the
check, and so does a committed metric the fresh run no longer reports —
retiring a gate means editing the committed report. Improvements and
missing committed reports (first run on a branch that never produced one)
are fine. Metrics with a stated acceptance
target (the university verify gate, the probe-overhead ceiling) take the
*looser* of committed-relative and target-relative bounds: the committed
number embeds one run's noise, and drift inside the acceptance envelope
is not a regression worth failing the build over.
"""

import json
import os

from repro.util.errors import ReproError

TOLERANCE = 0.20  # fraction of the committed value

CHECK_REPEATS = 3  # enough for a stable median without make check crawling

DATAPLANE_REPORT = "BENCH_dataplane.json"
ROLLOUT_REPORT = "BENCH_rollout.json"
SCALE_REPORT = "BENCH_scale.json"
TENANTS_REPORT = "BENCH_tenants.json"

SCALE_CHECK_SIZE = 500  # ceiling for --check re-runs: keep the gate fast

TENANTS_CHECK_SESSIONS = 12  # ceiling for --check re-runs of the tenants gate


def _load(path):
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _compile_speedup(rows):
    compile_ = rows["compile"]
    incremental = compile_["incremental_ms"]
    return compile_["cold_ms"] / incremental if incremental > 0 else float("inf")


def dataplane_metrics(report):
    """The gated ratio metrics of one dataplane benchmark report.

    Returns ``name -> (value, higher_is_better, acceptance_target)``.
    Aggregates (per-network minima) rather than per-issue rows: the
    per-issue ratios divide small medians and flap run to run, while a
    real fast-path regression drags every issue down together.
    """
    metrics = {}
    for name, rows in report.get("networks", {}).items():
        target = 2.0 if name == "university" else None
        metrics[f"{name}.compile.speedup"] = (
            _compile_speedup(rows), True, target,
        )
        verify = rows.get("verify", {})
        if verify:
            metrics[f"{name}.verify.min_speedup"] = (
                min(row["speedup"] for row in verify.values()), True, None,
            )
    acceptance = report.get("acceptance")
    if acceptance:
        metrics["university.verify.min_speedup"] = (
            acceptance["university_single_device_verify_speedup"], True,
            acceptance.get("target", 3.0),
        )
    return metrics


def rollout_metrics(report):
    """The gated ratio metrics of one rollout benchmark report."""
    metrics = {}
    for name, rows in report.get("networks", {}).items():
        push = rows["push"]
        metrics[f"{name}.push.probe_overhead_x"] = (
            push["probe_overhead_x"], False, 3.0,
        )
        metrics[f"{name}.push.probe_speedup"] = (
            push["probe_speedup"], True, None,
        )
    return metrics


def scale_metrics(report):
    """The gated ratio metric of one scale benchmark report.

    Only the cold-vs-incremental compile ratio is gated: absolute
    milliseconds move with the machine, a same-process quotient does not.
    """
    metrics = {}
    compile_ = report.get("compile", {})
    if "incremental_speedup" in compile_:
        metrics["scale.compile.incremental_speedup"] = (
            compile_["incremental_speedup"], True, None,
        )
    return metrics


def tenants_metrics(report):
    """The gated ratio metric of one tenants benchmark report.

    The isolation-overhead ratio is front-door elapsed over direct
    elapsed for the identical workload in the same process — a quotient,
    so machine-portable — and lower is better, bounded by the committed
    acceptance target.
    """
    metrics = {}
    ratio = report.get("overhead_ratio")
    if ratio is not None:
        target = report.get("acceptance", {}).get("target")
        metrics["tenants.overhead_ratio"] = (ratio, False, target)
    return metrics


def compare(committed, fresh, tolerance=TOLERANCE):
    """Regressions of ``fresh`` vs ``committed`` beyond ``tolerance``.

    Both are ``name -> (value, higher_is_better, target)`` maps. Every
    committed metric is gated: one missing from ``fresh`` fails, so a gate
    cannot drop out silently; metrics only ``fresh`` reports are new and
    not gated yet. A metric with an acceptance ``target`` is allowed the
    looser of the committed-relative and target-relative bounds. Returns a
    list of human-readable failures.
    """
    failures = []
    for name in sorted(committed):
        base, higher_better, target = committed[name]
        if name not in fresh:
            failures.append(
                f"{name}: committed but missing from the fresh report"
            )
            continue
        value = fresh[name][0]
        if base <= 0:
            continue
        if higher_better:
            bound = base if target is None else min(base, target)
            floor = bound * (1.0 - tolerance)
            if value < floor:
                failures.append(
                    f"{name}: {value:.2f} < {floor:.2f} "
                    f"(committed {base:.2f}, tolerance {tolerance:.0%})"
                )
        else:
            bound = base if target is None else max(base, target)
            ceiling = bound * (1.0 + tolerance)
            if value > ceiling:
                failures.append(
                    f"{name}: {value:.2f} > {ceiling:.2f} "
                    f"(committed {base:.2f}, tolerance {tolerance:.0%})"
                )
    return failures


def _gate(extract, committed, fresh, failures):
    """Compare one suite's reports; returns how many metrics were gated."""
    gated = extract(committed)
    failures.extend(compare(gated, extract(fresh)))
    return len(gated)


def run_check(repeats=CHECK_REPEATS, out=None, root="."):
    """Run the regression gate; returns the process exit code.

    Missing committed reports skip their half of the gate (nothing to
    regress against) — the check only ever compares like with like.
    """
    from repro.experiments.bench_dataplane import run_benchmarks
    from repro.experiments.bench_rollout import run_rollout_benchmarks
    from repro.experiments.bench_scale import run_scale_benchmark

    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")
    failures = []
    checked = 0

    committed = _load(os.path.join(root, DATAPLANE_REPORT))
    if committed is not None:
        fresh = run_benchmarks(repeats=repeats)
        checked += _gate(dataplane_metrics, committed, fresh, failures)
    elif out is not None:
        out.write(f"{DATAPLANE_REPORT} not found; dataplane gate skipped\n")

    committed = _load(os.path.join(root, ROLLOUT_REPORT))
    if committed is not None:
        fresh = run_rollout_benchmarks(repeats=repeats)
        checked += _gate(rollout_metrics, committed, fresh, failures)
    elif out is not None:
        out.write(f"{ROLLOUT_REPORT} not found; rollout gate skipped\n")

    committed = _load(os.path.join(root, TENANTS_REPORT))
    if committed is not None:
        from repro.experiments.bench_tenants import run_tenants_bench

        fresh = run_tenants_bench(
            sessions=min(
                committed.get("sessions", TENANTS_CHECK_SESSIONS),
                TENANTS_CHECK_SESSIONS,
            ),
            orgs=committed.get("orgs", 3),
            network=committed.get("network", "university"),
            seed=committed.get("seed", 7),
        )
        checked += _gate(tenants_metrics, committed, fresh, failures)
    elif out is not None:
        out.write(f"{TENANTS_REPORT} not found; tenants gate skipped\n")

    committed = _load(os.path.join(root, SCALE_REPORT))
    if committed is not None:
        generated = committed.get("generated", {})
        fresh = run_scale_benchmark(
            size=min(generated.get("requested_size", 500), SCALE_CHECK_SIZE),
            shape=generated.get("shape", "fat-tree"),
            seed=generated.get("seed", 7),
            repeats=repeats,
        )
        checked += _gate(scale_metrics, committed, fresh, failures)
    elif out is not None:
        out.write(f"{SCALE_REPORT} not found; scale gate skipped\n")

    if out is not None:
        for failure in failures:
            out.write(f"REGRESSION {failure}\n")
        status = "FAIL" if failures else "ok"
        out.write(
            f"bench --check: {checked} gated metrics, "
            f"{len(failures)} regressions ({status})\n"
        )
    return 1 if failures else 0
