"""The benchmark's own test.

    python3 perfbench/selftest.py [WORKLOAD ...]

1. Every oracle rejects a tampered result and names the operation.
2. Two traced runs of each workload (all four by default) report identical
   work counts: every per-layer metric with unit "count".
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   nonzero without printing a result.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fermionant as fm  # noqa: E402

from oracles import check_round  # noqa: E402
from workloads import WORKLOADS, build_rounds, encode  # noqa: E402


def _tamper(value):
    if isinstance(value, str):
        return str(int(value) + 1)
    if isinstance(value, list):
        return [str(int(value[0]) + 1)] + value[1:]
    key = next(iter(value))
    return {**value, key: str(int(value[key]) + 1)}


def check_oracles() -> list[str]:
    problems = []
    for workload in ("dp-dense", "dp-medial", "graph-poly"):
        rnd = build_rounds(fm, workload, 0)[0]
        results = {label: encode(fn()) for label, fn in rnd.ops}
        if check_round(fm, workload, rnd, results):
            problems.append(f"{workload}: correct results rejected")
        for label in results:
            wrong = check_round(fm, workload, rnd, {**results, label: _tamper(results[label])})
            if label not in {w[0] for w in wrong}:
                problems.append(f"{workload}: tampered {label} not caught")
    return problems


def _traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def check_counts(workloads: list[str]) -> list[str]:
    problems = []
    for workload in workloads:
        first, second = _traced_counts(workload), _traced_counts(workload)
        if first != second:
            diff = {k: (first[k], second[k]) for k in first if first[k] != second.get(k)}
            problems.append(f"{workload}: counts differ between runs: {diff}")
        print(f"{workload}: {sum(1 for v in first.values() if v)} nonzero counts", flush=True)
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dp-medial", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    workloads = sys.argv[1:] or list(WORKLOADS)
    problems = check_oracles() + check_bare_directory() + check_counts(workloads)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
