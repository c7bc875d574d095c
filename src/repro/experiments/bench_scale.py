"""Scale benchmark: a generated mega-network through the compile path.

``python -m repro.cli bench --scale N`` generates a seeded topology
(:mod:`repro.scenarios.generate`), times a cold compile and a one-device
incremental rebuild of it, times a serial policy sweep over the generated
invariants on a freshly compiled plane, and writes ``BENCH_scale.json``.
``bench --check`` gates the report's cold-vs-incremental ratio alongside
the dataplane, rollout, and tenants suites; see docs/SCALING.md for how to
read the report.
"""

import json
import statistics

from repro.control.builder import build_dataplane
from repro.experiments.bench_dataplane import median_ms
from repro.policy.verification import PolicyVerifier
from repro.scenarios.generate import SHAPES, generate_scenario
from repro.util.clock import monotonic_s
from repro.util.errors import ReproError

DEFAULT_SIZE = 500
DEFAULT_REPEATS = 5  # odd: the median is a real sample


def run_scale_benchmark(size=DEFAULT_SIZE, shape="fat-tree", seed=7,
                        repeats=DEFAULT_REPEATS):
    """Benchmark one generated network; returns the report dict."""
    if shape not in SHAPES:
        raise ReproError(f"unknown shape {shape!r} (choose from {SHAPES})")
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")

    started = monotonic_s()
    scenario = generate_scenario(shape=shape, size=size, seed=seed)
    generate_ms = (monotonic_s() - started) * 1000.0
    network = scenario.network

    cold_ms = median_ms(
        lambda: build_dataplane(network, use_cache=False), repeats
    )

    # Incremental rebuild of a one-device edit against the cold baseline —
    # the mega-network analogue of one ticket's candidate compile.
    baseline = build_dataplane(network, use_cache=False)
    issue = next(iter(scenario.issues.values()))
    production = network.copy()
    issue.inject(production)
    incremental_ms = median_ms(
        lambda: build_dataplane(
            production, baseline=baseline,
            changed_devices={issue.root_cause_device}, use_cache=False,
        ),
        repeats,
    )

    # Each sweep gets a fresh plane, so every pass traces cold.
    verifier = PolicyVerifier(scenario.policies)
    samples = []
    for _ in range(repeats):
        plane = build_dataplane(network, use_cache=False)
        start = monotonic_s()
        verifier.verify_dataplane(plane)
        samples.append((monotonic_s() - start) * 1000.0)
    verify_ms = statistics.median(samples)
    policies_per_s = (
        len(scenario.policies) / (verify_ms / 1000.0) if verify_ms > 0
        else float("inf")
    )

    incremental_speedup = (
        cold_ms / incremental_ms if incremental_ms > 0 else float("inf")
    )
    return {
        "generated": {
            "shape": shape,
            "requested_size": size,
            "seed": seed,
            "devices": scenario.device_count,
            "routers": len(network.routers()),
            "hosts": len(network.hosts()),
            "policies": len(scenario.policies),
            "issues": len(scenario.issues),
            "generate_ms": round(generate_ms, 3),
        },
        "compile": {
            "cold_ms": round(cold_ms, 3),
            "incremental_ms": round(incremental_ms, 3),
            "incremental_speedup": round(incremental_speedup, 2),
        },
        "verify": {
            "ms": round(verify_ms, 3),
            "policies_per_s": round(policies_per_s, 1),
        },
        "repeats": repeats,
    }


def write_report(report, path):
    """Write the scale benchmark report as stable, diffable JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
