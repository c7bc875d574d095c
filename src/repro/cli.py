"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``show``      — network summary and device inventory;
* ``policies``  — mine and list the network's implied policies;
* ``issues``    — list the reproducible issues for a scenario network;
* ``resolve``   — inject an issue and resolve it via a workflow;
* ``snapshot``  — dump a network to an editable snapshot directory;
* ``report``    — regenerate the full paper-vs-measured markdown report;
* ``bench``     — run the data-plane perf suite, write ``BENCH_dataplane.json``;
* ``obs report`` — resolve one issue with observability enabled and render
  the span trees, metrics, and audit/trace correlation (optionally as JSON);
* ``chaos``     — run a seeded fault-injection campaign over the scenario
  networks and report the push-atomicity invariant per scenario
  (``--matrix`` runs every campaign across several seeds);
* ``audit export`` / ``audit verify`` — dump a ticket's tamper-evident
  audit chains (single or replicated) to JSON, then re-walk the HMAC
  links offline and quorum-vote the replicas' content.

``--network`` accepts a scenario name (``enterprise`` / ``university``) or
a path to a snapshot directory written by ``snapshot`` /
:func:`repro.scenarios.io.save_network`.
"""

import argparse
import sys
from pathlib import Path

from repro.msp.workflows import CurrentWorkflow, HeimdallWorkflow
from repro.policy.mining import mine_policies
from repro.scenarios.enterprise import build_enterprise_network
from repro.scenarios.io import load_network, save_network
from repro.scenarios.issues import standard_issues
from repro.scenarios.university import build_university_network
from repro.util.errors import ReproError

_SCENARIOS = {
    "enterprise": build_enterprise_network,
    "university": build_university_network,
}


def _resolve_network(spec):
    """A Network from a scenario name or snapshot directory path."""
    if spec in _SCENARIOS:
        return _SCENARIOS[spec]()
    path = Path(spec)
    if path.is_dir():
        return load_network(path)
    raise ReproError(
        f"unknown network {spec!r}: expected "
        f"{'/'.join(_SCENARIOS)} or a snapshot directory"
    )


def _add_network_argument(parser):
    parser.add_argument(
        "--network", default="enterprise",
        help="scenario name (enterprise/university) or snapshot directory",
    )


# -- commands -----------------------------------------------------------------


def cmd_show(args, out):
    network = _resolve_network(args.network)
    summary = network.summary()
    out.write(f"network: {network.name}\n")
    for key in ("routers", "switches", "hosts", "links", "config_lines"):
        out.write(f"  {key}: {summary[key]}\n")
    out.write("devices:\n")
    for device in network.topology.devices():
        neighbors = ", ".join(network.topology.neighbors(device.name))
        out.write(f"  {device.name:12} {device.kind.value:7} -> {neighbors}\n")
    return 0


def cmd_policies(args, out):
    network = _resolve_network(args.network)
    policies = mine_policies(
        network,
        include_waypoints=args.waypoints,
        max_failures=1 if args.robust else 0,
    )
    out.write(f"{len(policies)} policies mined from {network.name}\n")
    for policy in policies:
        out.write(f"  [{policy.kind:12}] {policy.policy_id}\n")
    return 0


def cmd_issues(args, out):
    network = _resolve_network(args.network)
    if network.name not in _SCENARIOS:
        out.write("standard issues exist only for the scenario networks\n")
        return 1
    for issue in standard_issues(network.name).values():
        out.write(f"{issue.issue_id:6} [{issue.complexity:8}] {issue.title}\n")
        out.write(f"       {issue.description}\n")
    return 0


def cmd_resolve(args, out):
    network = _resolve_network(args.network)
    if network.name not in _SCENARIOS:
        out.write("resolve requires a scenario network\n")
        return 1
    issues = standard_issues(network.name)
    if args.issue not in issues:
        out.write(f"unknown issue {args.issue!r}; choose from "
                  f"{', '.join(issues)}\n")
        return 1
    issue = issues[args.issue]
    policies = mine_policies(network)
    issue.inject(network)
    out.write(f"injected: {issue.title}\n")

    if args.workflow == "current":
        workflow = CurrentWorkflow()
    else:
        workflow = HeimdallWorkflow(policies=policies)
    result = workflow.resolve(network, issue)

    out.write(f"workflow: {result.workflow}\n")
    out.write(f"resolved: {result.resolved}\n")
    out.write(f"simulated duration: {result.duration_s:.1f}s\n")
    for step, seconds in result.breakdown.items():
        out.write(f"  {step}: {seconds:.1f}s\n")
    if result.detail is not None:
        out.write(f"changes imported: {len(result.detail.changes)}\n")
        impact = result.detail.decision.impact
        if impact is not None:
            out.write(f"impact: {impact.summary()}\n")
    return 0 if result.resolved else 1


def cmd_snapshot(args, out):
    network = _resolve_network(args.network)
    save_network(network, args.directory)
    out.write(f"snapshot of {network.name} written to {args.directory}\n")
    return 0


def cmd_bench(args, out):
    from repro.experiments.bench_dataplane import run_benchmarks, write_report

    if args.check:
        from repro.experiments.bench_check import run_check

        return run_check(repeats=args.repeats if args.repeats != 7 else 3,
                         out=out)
    if args.concurrent is not None:
        return _bench_concurrent(args, out)
    if args.rollout:
        return _bench_rollout(args, out)
    if args.scale is not None:
        return _bench_scale(args, out)
    if args.tenants is not None:
        return _bench_tenants(args, out)
    args.output = args.output or "BENCH_dataplane.json"
    report = run_benchmarks(networks=args.networks, repeats=args.repeats)
    write_report(report, args.output)
    for name, rows in report["networks"].items():
        for issue_id, verify in rows["verify"].items():
            out.write(
                f"{name}/{issue_id}: cold {verify['cold_ms']}ms -> "
                f"incremental {verify['incremental_ms']}ms "
                f"({verify['speedup']}x)\n"
            )
    if "acceptance" in report:
        gate = report["acceptance"]
        out.write(
            f"university verify speedup: "
            f"{gate['university_single_device_verify_speedup']}x "
            f"(target {gate['target']}x)\n"
        )
    out.write(f"benchmark report written to {args.output}\n")
    return 0


def _bench_scale(args, out):
    """Generated mega-network scale benchmark; writes BENCH_scale.json."""
    from repro.experiments.bench_scale import (
        run_scale_benchmark,
        write_report,
    )

    report = run_scale_benchmark(
        size=args.scale, shape=args.shape, seed=args.seed,
        repeats=args.repeats,
    )
    output = args.output or "BENCH_scale.json"
    write_report(report, output)
    generated = report["generated"]
    compile_ = report["compile"]
    out.write(
        f"{generated['shape']} x{generated['devices']} devices "
        f"({generated['routers']} routers): "
        f"cold compile {compile_['cold_ms']}ms, "
        f"incremental {compile_['incremental_ms']}ms "
        f"({compile_['incremental_speedup']}x)\n"
    )
    out.write(
        f"verify: {report['verify']['ms']}ms for "
        f"{generated['policies']} policies "
        f"({report['verify']['policies_per_s']} policies/s)\n"
    )
    out.write(f"scale benchmark report written to {output}\n")
    return 0


def _bench_rollout(args, out):
    """Monolithic vs staged canary push timings; writes BENCH_rollout.json."""
    from repro.experiments.bench_rollout import (
        run_rollout_benchmarks,
        write_report,
    )

    output = args.output or "BENCH_rollout.json"
    networks = [n for n in (args.networks or []) if n == "enterprise"] or None
    report = run_rollout_benchmarks(networks=networks, repeats=args.repeats)
    for name, rows in report["networks"].items():
        push = rows["push"]
        out.write(
            f"{name}: monolithic {push['monolithic_ms']}ms -> canary "
            f"{push['canary_incremental_ms']}ms over {rows['waves']} waves "
            f"({rows['probes_per_push']} probes, "
            f"{push['probe_overhead_x']}x overhead)\n"
        )
        out.write(
            f"  probe compile: cold {push['canary_cold_ms']}ms -> "
            f"incremental {push['canary_incremental_ms']}ms "
            f"({push['probe_speedup']}x)\n"
        )
    write_report(report, output)
    out.write(f"rollout benchmark report written to {output}\n")
    return 0


def _bench_tenants(args, out):
    """Front-door vs direct multi-org throughput; exit 0 iff gate passes."""
    from repro.experiments.bench_tenants import (
        run_tenants_bench,
        write_report,
    )

    network = (args.networks or ["university"])[0]
    output = args.output or "BENCH_tenants.json"
    report = run_tenants_bench(
        sessions=args.tenants, orgs=args.orgs, network=network,
        seed=args.seed,
    )
    write_report(report, output)
    out.write(
        f"{network}: {report['sessions']} sessions over {report['orgs']} "
        f"orgs — front door {report['frontdoor']['elapsed_s']}s "
        f"({report['frontdoor']['throughput_per_s']}/s), direct "
        f"{report['direct']['elapsed_s']}s "
        f"({report['direct']['throughput_per_s']}/s)\n"
    )
    flood = report["flood"]
    out.write(
        f"  flood: shed={'yes' if flood['shed'] else 'NO'} "
        f"retry_after={flood['retry_after_s']}s\n"
    )
    for invariant, held in sorted(report["invariants"].items()):
        out.write(f"  [{'ok' if held else 'FAIL':4}] {invariant}\n")
    gate = report["acceptance"]
    state = "pass" if gate["pass"] else "FAIL"
    out.write(
        f"isolation overhead {gate['overhead_ratio']}x "
        f"(target <= {gate['target']}x): {state}\n"
    )
    out.write(f"tenants benchmark report written to {output}\n")
    return 0 if report["ok"] else 1


def _bench_concurrent(args, out):
    """N threaded sessions against one production; exit 0 iff no torn state."""
    from repro.experiments.bench_concurrent import (
        run_concurrent_bench,
        write_report,
    )

    networks = args.networks or ["enterprise"]
    output = args.output or "BENCH_concurrent.json"
    ok = True
    for name in networks:
        report = run_concurrent_bench(
            sessions=args.concurrent, network=name, seed=args.seed
        )
        ok = ok and report["ok"]
        out.write(
            f"{name}: {report['sessions']} concurrent sessions in "
            f"{report['elapsed_s']}s ({report['throughput_per_s']}/s)\n"
        )
        out.write(
            "  outcomes: "
            + ", ".join(
                f"{status}={count}"
                for status, count in sorted(report["outcomes"].items())
            )
            + "\n"
        )
        for issue_id, row in sorted(report["per_issue"].items()):
            out.write(
                f"  {issue_id}: {row['imported']}/{row['sessions']} "
                f"sessions imported\n"
            )
        for invariant, held in sorted(report["invariants"].items()):
            out.write(
                f"  [{'ok' if held else 'FAIL':4}] {invariant}\n"
            )
    write_report(report, output)
    out.write(f"stress report written to {output}\n")
    return 0 if ok else 1


def cmd_obs_report(args, out):
    """Run one ticket end-to-end with observability on; report what it saw."""
    import json as json_module

    from repro import obs
    from repro.core.heimdall import Heimdall

    network = _resolve_network(args.network)
    if network.name not in _SCENARIOS:
        out.write("obs report requires a scenario network\n")
        return 1
    issues = standard_issues(network.name)
    if args.issue not in issues:
        out.write(f"unknown issue {args.issue!r}; choose from "
                  f"{', '.join(issues)}\n")
        return 1
    issue = issues[args.issue]
    policies = mine_policies(network)
    issue.inject(network)

    obs.reset()
    obs.enable()
    try:
        heimdall = Heimdall(network, policies=policies)
        session = heimdall.open_ticket(issue)
        session.run_fix_script(issue.fix_script)
        outcome = session.submit()
    finally:
        obs.disable()

    tracer = obs.tracer()
    correlated = sum(
        1 for record in heimdall.audit.records
        if record.trace_id and tracer.find_trace(record.trace_id) is not None
    )
    audit_summary = {
        "records": len(heimdall.audit),
        "correlated": correlated,
        "chain_intact": heimdall.audit.verify(),
    }

    if args.json:
        payload = obs.report_dict()
        payload["scenario"] = {
            "network": network.name,
            "issue": issue.issue_id,
            "resolved": outcome.resolved,
            "approved": outcome.approved,
        }
        payload["audit"] = audit_summary
        json_module.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(
            f"scenario: {network.name}/{issue.issue_id} "
            f"resolved={outcome.resolved} approved={outcome.approved}\n"
        )
        obs.render_report(out)
        out.write(
            f"audit: {audit_summary['records']} records, "
            f"{correlated} with resolvable trace ids, chain "
            f"{'intact' if audit_summary['chain_intact'] else 'BROKEN'}\n"
        )
    if args.output:
        payload = obs.report_dict()
        payload["scenario"] = {
            "network": network.name,
            "issue": issue.issue_id,
            "resolved": outcome.resolved,
            "approved": outcome.approved,
        }
        payload["audit"] = audit_summary
        with open(args.output, "w") as handle:
            json_module.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write(f"observability report written to {args.output}\n")
    return 0


def cmd_audit(args, out):
    """Offline audit-chain tooling: export chains, verify them later."""
    if args.audit_command == "export":
        return _audit_export(args, out)
    return _audit_verify(args, out)


def _audit_export(args, out):
    """Resolve one ticket, then dump its audit chains to JSON."""
    import json as json_module

    from repro.core.enforcer.audit import export_chains
    from repro.core.heimdall import Heimdall

    network = _resolve_network(args.network)
    if network.name not in _SCENARIOS:
        out.write("audit export requires a scenario network\n")
        return 1
    issues = standard_issues(network.name)
    if args.issue not in issues:
        out.write(f"unknown issue {args.issue!r}; choose from "
                  f"{', '.join(issues)}\n")
        return 1
    issue = issues[args.issue]
    policies = mine_policies(network)
    issue.inject(network)

    heimdall = Heimdall(
        network, policies=policies, audit_replicas=args.replicas
    )
    session = heimdall.open_ticket(issue)
    session.run_fix_script(issue.fix_script)
    session.submit()

    payload = export_chains(heimdall.audit)
    if args.tamper is not None:
        # Demo/test hook: corrupt one exported replica's newest record
        # *without* its key, exactly the attacker model `audit verify`
        # must catch.
        records = payload["replicas"][args.tamper]["records"]
        if records:
            records[-1]["outcome"] = (
                records[-1]["outcome"] + " [tampered]"
            ).strip()
    with open(args.output, "w") as handle:
        json_module.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    chains = payload["replicas"]
    out.write(
        f"exported {len(chains)} chain{'s' if len(chains) != 1 else ''} "
        f"({sum(len(c['records']) for c in chains)} records, quorum "
        f"{payload['quorum']}) to {args.output}\n"
    )
    return 0


def _audit_verify(args, out):
    """Re-walk exported chains offline; exit 0 iff fully intact."""
    import json as json_module

    from repro.core.enforcer.audit import verify_export

    with open(args.chains) as handle:
        payload = json_module.load(handle)
    result = verify_export(payload)
    for replica in result["replicas"]:
        if replica["intact"]:
            out.write(
                f"  [ok    ] {replica['key_id']}: "
                f"{replica['records']} records, chain intact\n"
            )
        else:
            out.write(
                f"  [BROKEN] {replica['key_id']}: first broken MAC link "
                f"at record {replica['first_broken']} "
                f"of {replica['records']}\n"
            )
    out.write(
        f"quorum verdict: {result['status']} "
        f"({result['agreeing']}/{len(result['replicas'])} chains agree, "
        f"quorum {result['quorum']})\n"
    )
    return 0 if result["status"] == "intact" else 1


def cmd_chaos(args, out):
    """Run one seeded chaos campaign; exit 0 iff every invariant held."""
    import json as json_module

    from repro.faults.chaos import campaign_names, campaigns, run_campaign

    if args.list:
        for name in campaign_names():
            out.write(f"{name}\n")
        return 0
    if args.matrix:
        return _chaos_matrix(args, out, campaign_names, run_campaign)
    if args.list_campaigns:
        for name, scenarios in sorted(campaigns().items()):
            out.write(f"{name} ({len(scenarios)} scenarios)\n")
            for scenario in scenarios:
                staged = " [staged]" if scenario.rollout is not None else ""
                out.write(
                    f"  {scenario.network}/{scenario.issue} "
                    f"{scenario.label}{staged}: expect "
                    f"{scenario.expect or 'any'}\n"
                )
        return 0

    report = run_campaign(args.campaign, seed=args.seed)
    if args.json:
        json_module.dump(report.to_dict(), out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(
            f"campaign: {report.campaign} (seed {report.seed})\n"
        )
        for scenario in report.scenarios:
            flags = []
            if scenario.crashed:
                flags.append("crashed")
            if scenario.resumed:
                flags.append("resumed")
            if scenario.resolved:
                flags.append("resolved")
            out.write(
                f"  [{'ok' if scenario.ok else 'FAIL':4}] "
                f"{scenario.network}/{scenario.issue} {scenario.label}: "
                f"{scenario.outcome}"
                f"{' (' + ', '.join(flags) + ')' if flags else ''}\n"
            )
            out.write(
                f"         state invariant: "
                f"{'held' if scenario.state_invariant else 'VIOLATED'}; "
                f"audit chain: "
                f"{'intact' if scenario.audit_intact else 'BROKEN'}"
            )
            if scenario.faults_fired:
                shown = scenario.faults_fired[:6]
                more = len(scenario.faults_fired) - len(shown)
                out.write(f"; faults: {', '.join(shown)}"
                          + (f" (+{more} more)" if more else ""))
            if scenario.rollback_reason:
                out.write(f"; reason: {scenario.rollback_reason}")
            if scenario.error:
                out.write(f"; error: {scenario.error}")
            out.write("\n")
        out.write("metrics:\n")
        for name, value in sorted(report.metrics.items()):
            out.write(f"  {name}: {value}\n")
        out.write(
            f"campaign {'PASSED' if report.ok else 'FAILED'}: "
            f"{sum(1 for s in report.scenarios if s.ok)}/"
            f"{len(report.scenarios)} scenarios held the push-atomicity "
            f"invariant\n"
        )
    if args.output:
        with open(args.output, "w") as handle:
            json_module.dump(report.to_dict(), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
        out.write(f"chaos report written to {args.output}\n")
    return 0 if report.ok else 1


def _chaos_matrix(args, out, campaign_names, run_campaign):
    """Every registered campaign across ``--seeds`` consecutive seeds."""
    names = campaign_names()
    failures = []
    for name in names:
        for offset in range(args.seeds):
            seed = args.seed + offset
            report = run_campaign(name, seed=seed)
            held = sum(1 for s in report.scenarios if s.ok)
            out.write(
                f"[{'ok' if report.ok else 'FAIL':4}] {name} seed {seed}: "
                f"{held}/{len(report.scenarios)} scenarios ok\n"
            )
            if not report.ok:
                failures.append(f"{name}@{seed}")
    if failures:
        out.write(f"matrix FAILED: {', '.join(failures)}\n")
        return 1
    out.write(
        f"matrix PASSED: {len(names)} campaigns x {args.seeds} seeds\n"
    )
    return 0


def cmd_report(args, out):
    from repro.experiments.report import render_report

    if args.output:
        with open(args.output, "w") as handle:
            render_report(handle)
        out.write(f"report written to {args.output}\n")
    else:
        render_report(out)
    return 0


# -- entry point ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heimdall reproduction (HotNets'21) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="network summary")
    _add_network_argument(show)
    show.set_defaults(func=cmd_show)

    policies = sub.add_parser("policies", help="mine network policies")
    _add_network_argument(policies)
    policies.add_argument("--waypoints", action="store_true",
                          help="also mine waypoint policies")
    policies.add_argument("--robust", action="store_true",
                          help="keep only 1-failure-robust policies")
    policies.set_defaults(func=cmd_policies)

    issues = sub.add_parser("issues", help="list reproducible issues")
    _add_network_argument(issues)
    issues.set_defaults(func=cmd_issues)

    resolve = sub.add_parser("resolve", help="inject and resolve an issue")
    _add_network_argument(resolve)
    resolve.add_argument("--issue", required=True,
                         help="issue id (ospf/isp/vlan)")
    resolve.add_argument("--workflow", choices=("current", "heimdall"),
                         default="heimdall")
    resolve.set_defaults(func=cmd_resolve)

    snapshot = sub.add_parser("snapshot", help="write a snapshot directory")
    _add_network_argument(snapshot)
    snapshot.add_argument("directory")
    snapshot.set_defaults(func=cmd_snapshot)

    report = sub.add_parser("report", help="full reproduction report")
    report.add_argument("-o", "--output", default=None)
    report.set_defaults(func=cmd_report)

    bench = sub.add_parser(
        "bench", help="data-plane perf suite (writes BENCH_dataplane.json)"
    )
    bench.add_argument(
        "--network", action="append", dest="networks",
        choices=("enterprise", "university"),
        help="benchmark only this scenario (repeatable; default: all)",
    )
    bench.add_argument("--repeats", type=int, default=7)
    bench.add_argument(
        "--concurrent", type=int, default=None, metavar="N",
        help="run the concurrent-session stress benchmark with N threaded "
             "sessions instead of the perf suite",
    )
    bench.add_argument(
        "--rollout", action="store_true",
        help="run the staged-rollout push benchmark instead of the perf "
             "suite (writes BENCH_rollout.json)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="regression gate: re-run a short pass and fail if any "
             "speedup/overhead ratio regressed >20%% vs the committed "
             "BENCH_*.json reports",
    )
    bench.add_argument(
        "--scale", type=int, default=None, metavar="N",
        help="run the mega-network scale benchmark on a generated N-device "
             "topology instead of the perf suite (writes BENCH_scale.json)",
    )
    bench.add_argument(
        "--tenants", type=int, default=None, metavar="N",
        help="run the multi-tenant front-door benchmark with N sessions "
             "split over --orgs orgs instead of the perf suite (writes "
             "BENCH_tenants.json)",
    )
    bench.add_argument(
        "--orgs", type=int, default=3,
        help="tenant org count for --tenants (default: 3)",
    )
    bench.add_argument(
        "--shape", choices=("fat-tree", "campus", "hub-spoke"),
        default="fat-tree",
        help="generated topology shape for --scale (default: fat-tree)",
    )
    bench.add_argument(
        "--seed", type=int, default=7,
        help="rand seed for the concurrent stress, scale, and tenants "
             "benchmarks",
    )
    bench.add_argument(
        "-o", "--output", default=None,
        help="report path (default: BENCH_dataplane.json, "
             "BENCH_concurrent.json with --concurrent, "
             "BENCH_rollout.json with --rollout, "
             "BENCH_scale.json with --scale, or "
             "BENCH_tenants.json with --tenants)",
    )
    bench.set_defaults(func=cmd_bench)

    obs_parser = sub.add_parser(
        "obs", help="observability tooling (tracing + metrics)"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="resolve one issue with observability on and report spans "
             "+ metrics + audit correlation",
    )
    _add_network_argument(obs_report)
    obs_report.add_argument("--issue", default="ospf",
                            help="issue id to resolve (default: ospf)")
    obs_report.add_argument("--json", action="store_true",
                            help="emit the JSON report to stdout")
    obs_report.add_argument("-o", "--output", default=None,
                            help="also write the JSON report to this path")
    obs_report.set_defaults(func=cmd_obs_report)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign (push atomicity invariant)",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="campaign seed; same seed, same report")
    chaos.add_argument("--campaign", default="smoke",
                       help="campaign name (see --list)")
    chaos.add_argument("--list", action="store_true",
                       help="list campaign names and exit")
    chaos.add_argument("--list-campaigns", action="store_true",
                       help="list campaigns with their scenarios and exit")
    chaos.add_argument("--json", action="store_true",
                       help="emit the JSON report to stdout")
    chaos.add_argument("--matrix", action="store_true",
                       help="run every registered campaign across --seeds "
                            "consecutive seeds and exit nonzero on any "
                            "failure")
    chaos.add_argument("--seeds", type=int, default=5,
                       help="seed count for --matrix (default: 5, starting "
                            "at --seed)")
    chaos.add_argument("-o", "--output", default=None,
                       help="also write the JSON report to this path")
    chaos.set_defaults(func=cmd_chaos)

    audit = sub.add_parser(
        "audit",
        help="tamper-evident audit chain tooling (export + offline verify)",
    )
    audit_sub = audit.add_subparsers(dest="audit_command", required=True)
    audit_export = audit_sub.add_parser(
        "export",
        help="resolve one ticket and dump its audit chains to JSON",
    )
    _add_network_argument(audit_export)
    audit_export.add_argument("--issue", default="ospf",
                              help="issue id to resolve (default: ospf)")
    audit_export.add_argument(
        "--replicas", type=int, default=0, metavar="N",
        help="run a replicated trail with N chains (default: single chain)",
    )
    audit_export.add_argument(
        "--tamper", type=int, default=None, metavar="REPLICA",
        help="corrupt this replica's newest exported record (keyless "
             "attacker model; verify must flag it)",
    )
    audit_export.add_argument("-o", "--output", default="AUDIT_chains.json",
                              help="export path (default: AUDIT_chains.json)")
    audit_export.set_defaults(func=cmd_audit)
    audit_verify = audit_sub.add_parser(
        "verify",
        help="re-walk exported chains offline: first broken MAC link per "
             "chain + replica-quorum verdict",
    )
    audit_verify.add_argument("chains", help="export file to verify")
    audit_verify.set_defaults(func=cmd_audit)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that's not our error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
