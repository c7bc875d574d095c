"""Lint: threads and worker pools start only in allowlisted modules.

ROADMAP.md: concurrency stays only where a committed benchmark shows it
winning. The front door's bulkheads run requests on worker threads, and
the two stress drivers run sessions concurrently on purpose; every other
module runs on its caller's thread. This test greps the source tree for
thread and pool starts anywhere else, so a new one has to be argued for
by extending the allowlist.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ALLOWED = frozenset({
    "core/frontdoor.py",
    "experiments/bench_concurrent.py",
    "experiments/bench_tenants.py",
})

FORBIDDEN = (
    re.compile(r"\bThread\s*\("),
    re.compile(r"\bThreadPoolExecutor\b"),
    re.compile(r"\bProcessPoolExecutor\b"),
    re.compile(r"^\s*(?:import|from)\s+(?:multiprocessing|_thread)\b",
               re.MULTILINE),
    re.compile(r"^\s*from\s+threading\s+import\s+[^\n]*\bThread\b",
               re.MULTILINE),
)


def _offenders():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in ALLOWED:
            continue
        text = path.read_text()
        for pattern in FORBIDDEN:
            for match in pattern.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                offenders.append(
                    f"{relative}:{line}: {match.group(0).strip()}"
                )
    return offenders


def test_thread_starts_only_in_allowlisted_modules():
    offenders = _offenders()
    assert not offenders, (
        "thread or worker-pool start outside the allowlist "
        f"({', '.join(sorted(ALLOWED))}):\n" + "\n".join(offenders)
    )


def test_allowlisted_modules_exist():
    for relative in ALLOWED:
        assert (SRC / relative).is_file(), relative
