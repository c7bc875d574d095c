# Convenience entry points; everything also runs as plain pytest/python.
# PYTHONPATH=src keeps the repo usable without an editable install.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test docs-check bench bench-check bench-scale obs-report report \
	chaos chaos-matrix semdiff-lint stress stress-tenants check

test:
	$(PYTHON) -m pytest tests/

# Validate that every metric documented in docs/OBSERVABILITY.md and every
# fault point in docs/ROBUSTNESS.md is registered by code (both catalog
# tests import the whole package, so nothing escapes), and vice versa —
# plus docs/SCALING.md against the generator/compile/benchmark constants.
docs-check:
	$(PYTHON) -m pytest -m docs_check tests/obs/test_docs_catalog.py \
		tests/faults/test_docs_catalog.py \
		tests/experiments/test_docs_scaling.py

bench:
	$(PYTHON) -m repro.cli bench

# Perf regression gate: a short benchmark pass whose speedup/overhead
# ratios must stay within 20% of the committed BENCH_*.json reports
# (dataplane, rollout, and scale suites).
bench-check:
	$(PYTHON) -m repro.cli bench --check

# Mega-network smoke: generate + compile + verify a small scenario
# end to end. The committed BENCH_scale.json comes from the full run
# (`bench --scale 500`); this target only proves the pipeline works here,
# so its throwaway report goes to /tmp — never into the repo, and never
# read by `bench --check`.
bench-scale:
	$(PYTHON) -m repro.cli bench --scale 120 --shape hub-spoke --repeats 2 \
		-o /tmp/BENCH_scale_smoke.json

obs-report:
	$(PYTHON) -m repro.cli obs report --network university --issue ospf

report:
	$(PYTHON) -m repro.cli report -o report.md

# Fixed-seed chaos campaigns (push atomicity invariant: the smoke mix, the
# staged-rollout canary scenarios, the quorum-approvals/replicated-audit
# scenarios, and the adversarial-technician attacks) + the tier-1 suite.
# Same seed, same report — see docs/ROBUSTNESS.md.
chaos:
	$(PYTHON) -m repro.cli chaos --seed 7 --campaign smoke
	$(PYTHON) -m repro.cli chaos --seed 7 --campaign canary
	$(PYTHON) -m repro.cli chaos --seed 7 --campaign approvals
	$(PYTHON) -m repro.cli chaos --seed 7 --campaign adversarial
	$(PYTHON) -m repro.cli chaos --seed 7 --campaign tenants
	$(PYTHON) -m pytest -x -q tests/

# Assert the semantic-diff section taxonomy is total and in lockstep with
# the risk classifier: every diff kind maps to exactly one section, and
# the section set and the risk weight table are the same set.
semdiff-lint:
	$(PYTHON) -m pytest -x -q tests/config/test_semdiff.py

# Every registered campaign across 5 consecutive seeds — the deep chaos
# sweep. Deliberately NOT part of `check` (the single-seed smoke above
# stays the pre-merge gate); run it before robustness-sensitive releases.
chaos-matrix:
	$(PYTHON) -m repro.cli chaos --matrix --seed 7 --seeds 5

# Seeded, bounded-size concurrent-session stress benchmark: 8 threaded
# sessions (fix / disjoint-section maintenance / duplicate-fix roles)
# against one production; exits non-zero unless every session ends
# imported or deterministically rejected/rebased with the journal and
# audit invariants intact (docs/ARCHITECTURE.md "Concurrency model").
stress:
	$(PYTHON) -m repro.cli bench --concurrent 8 --seed 7 -o BENCH_concurrent.json

# Multi-tenant front-door stress: 24 sessions over 3 org-isolated
# deployments, front door vs direct, plus a deterministic flood probe;
# exits non-zero unless every session imports with zero cross-tenant
# violations and the isolation-overhead gate (<= 1.3x) holds
# (docs/ARCHITECTURE.md "Tenancy & front door").
stress-tenants:
	$(PYTHON) -m repro.cli bench --tenants 24 --orgs 3 --seed 7 \
		-o BENCH_tenants.json

# The default pre-merge gate.
check: docs-check chaos stress stress-tenants bench-scale bench-check
