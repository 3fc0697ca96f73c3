"""Benchmark of the fermionant package, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads and metrics are declared in BENCHMARK.json; sizes, work-count
formulas and the layer -> metric -> workload predictions are in
perfbench/spec.json.  The package is imported from the checkout's src/ in
fresh interpreters (worker.py, or `python -m fermionant.cli verify`), one
caller at a time.  Every result is checked by perfbench/oracles.py after the
timed loop.

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload once
untraced and once under the span tracer and reports the per-layer metrics.
A human-readable summary comes first; the last line of stdout is the JSON
result.  The exit status is 0 when every result is correct, 1 on any oracle
mismatch or failed operation (the offending instance is named on stderr),
and 2 when the package or the benchmark's own files are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))  # the oracles import the package from the checkout
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 175.0  # a child still running this long after its run began is killed
P90_MIN_SAMPLES = 100
MISMATCHES_SHOWN = 20


class ChildFailed(Exception):
    pass


def _spawn(argv: list[str], stdout_path: Path, stderr_path: Path,
           deadline: float) -> tuple[float, float]:
    """Run a child to completion; returns (wall seconds, peak RSS in MB).
    The child is killed at the monotonic-clock deadline or when this process
    is interrupted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with stdout_path.open("wb") as out, stderr_path.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise ChildFailed(f"{argv[1:4]} still running {RUN_TIMEOUT_S} s into the run")
                time.sleep(0.005)
        finally:
            if not pid:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 4):  # 4: verify found a violation, checked by the oracle
        raise ChildFailed(f"{argv[1:4]} exited {proc.returncode}: "
                          f"{stderr_path.read_text(errors='replace')[-2000:]}")
    return wall, usage.ru_maxrss / 1024.0


def _worker(deadline: float, workload: str, seed: int, tag: str, *extra: str) -> tuple[dict, float]:
    """Run worker.py; returns its report and peak RSS in MB."""
    stdout_path, stderr_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--t0", repr(time.monotonic()), *extra]
    _, rss = _spawn(argv, stdout_path, stderr_path, deadline)
    lines = stdout_path.read_text().strip().splitlines()
    if not lines:
        raise ChildFailed(f"worker {tag} printed no report")
    return json.loads(lines[-1]), rss


def _verify_cli(deadline: float, seed: int, tag: str) -> dict:
    stdout_path, stderr_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    argv = [sys.executable, "-m", "fermionant.cli", "verify", "--seed", str(seed)]
    wall, rss = _spawn(argv, stdout_path, stderr_path, deadline)
    return {"wall_s": wall, "peak_rss_mb": rss, "stdout": stdout_path.read_bytes(),
            "stderr": stderr_path.read_text()}


def _family_walls(stderr: str) -> dict[str, float]:
    """Per-family wall times from verify's stderr summary lines
    "<family>: P/I passed (T.TTs) ok"."""
    walls = {}
    for line in stderr.splitlines():
        name, sep, rest = line.partition(": ")
        if sep and " passed (" in rest:
            walls[f"verify.family.{name}.wall_s"] = float(rest.split("(")[1].split("s)")[0])
    return walls


def _setup_s(deadline: float, workload: str, seed: int) -> tuple[float, list[float]]:
    samples = [_worker(deadline, workload, seed, f"{workload}-setup{i}", "--setup-only")[0]["setup_s"]
               for i in range(SETUP_SAMPLES)]
    return statistics.median(samples), samples


class Run:
    """Everything one invocation measured and checked."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[dict] = []

    def fail(self, instance, what: str, detail: str) -> None:
        self.mismatches.append({"instance": instance, "what": what, "detail": detail})

    @property
    def correct(self) -> bool:
        return not self.mismatches and self.failed == 0

    # -- verify-harness -------------------------------------------------
    def _check_verify(self, run: dict, pinned: str | None) -> None:
        from oracles import check_verify_payload

        sha = hashlib.sha256(run["stdout"]).hexdigest()
        for problem in check_verify_payload(run["stdout"], self.seed, pinned, sha):
            self.fail({"seed": self.seed}, "verify payload", problem)
        try:
            identities = json.loads(run["stdout"])["identities"]
            self.attempted += sum(i["instances"] for i in identities)
            self.failed += sum(i["instances"] - i["passes"] for i in identities)
        except (ValueError, KeyError):
            self.attempted += 1
            self.failed += 1

    def verify_harness(self) -> None:
        pinned = json.loads((HERE / "refs" / "verify.json").read_text())["sha256"].get(str(self.seed))
        if not self.trace:
            self.metrics["setup_s"], samples = _setup_s(self.deadline, self.workload, self.seed)
            self.notes["setup_s"] = f"median of {len(samples)} fresh interpreters"
        timed = _verify_cli(self.deadline, self.seed, "verify-harness-run")
        self._check_verify(timed, pinned)
        if not self.trace:
            instances = self.attempted
            self.metrics["wall_s"] = timed["wall_s"]
            self.metrics["ops_per_s"] = instances / timed["wall_s"]
            self.metrics["peak_rss_mb"] = timed["peak_rss_mb"]
            self.notes["ops_per_s"] = f"{instances} identity instances"
            return
        spans = OUT / f"spans-verify-harness-seed{self.seed}.json"
        stdout_file = OUT / "verify-harness-traced-payload.stdout"
        report, _ = _worker(self.deadline, self.workload, self.seed, "verify-harness-traced",
                            "--trace-out", str(spans), "--stdout-file", str(stdout_file))
        if stdout_file.read_bytes() != timed["stdout"]:
            self.fail({"seed": self.seed}, "determinism",
                      "traced and untraced runs gave different stdout")
        self.metrics.update(report["layers"])
        self.metrics.update(_family_walls(timed["stderr"]))
        self.metrics["trace.overhead_s"] = report["wall_s"] - timed["wall_s"]
        self.notes["spans"] = f"{report['spans']} spans in {spans.relative_to(ROOT)}"

    # -- time-boxed workloads -------------------------------------------
    def _check_rounds(self, records: list) -> None:
        import fermionant as fm
        from oracles import check_round
        from workloads import build_rounds

        rounds = build_rounds(fm, self.workload, self.seed)
        for index, _, _, ops in records:
            rnd = rounds[index]
            instance = {"seed": self.seed, **rnd.instance}
            results = {}
            for label, _, value, error in ops:
                self.attempted += 1
                if error is not None:
                    self.failed += 1
                    self.fail(instance, label, f"raised {error}")
                else:
                    results[label] = value
            wrong = check_round(fm, self.workload, rnd, results)
            self.failed += len({label for label, _ in wrong})
            for label, detail in wrong:
                self.fail(instance, label, detail)

    def _timed(self, min_rounds: int) -> tuple[dict, float]:
        return _worker(self.deadline, self.workload, self.seed, f"{self.workload}-run",
                       "--seconds", str(self.seconds), "--min-rounds", str(min_rounds))

    def time_boxed(self) -> None:
        from workloads import TRACE_ROUNDS

        if not self.trace:
            self.metrics["setup_s"], samples = _setup_s(self.deadline, self.workload, self.seed)
            self.notes["setup_s"] = f"median of {len(samples)} fresh interpreters"
            report, rss = self._timed(1)
            self._check_rounds(report["rounds"])
            op_times = [op[1] for rec in report["rounds"] for op in rec[3]]
            # mean, not median: rounds mix instance shapes, so round times are multimodal
            rounds = [rec[1] for rec in report["rounds"] if rec[2]]
            self.metrics["wall_s"] = statistics.fmean(rounds)
            self.metrics["ops_per_s"] = len(op_times) / report["timed_s"]
            self.metrics["peak_rss_mb"] = rss
            self.metrics["op_p50_s"] = statistics.median(op_times)
            self.notes["wall_s"] = f"mean of {len(rounds)} complete rounds"
            self.notes["ops_per_s"] = f"{len(op_times)} ops in {report['timed_s']:.2f} s"
            self.notes["op_p50_s"] = f"{len(op_times)} samples"
            if len(op_times) >= P90_MIN_SAMPLES:
                self.metrics["op_p90_s"] = statistics.quantiles(op_times, n=10, method="inclusive")[8]
                self.notes["op_p90_s"] = f"{len(op_times)} samples"
            return
        n = TRACE_ROUNDS[self.workload]
        plain, _ = self._timed(n)
        spans = OUT / f"spans-{self.workload}-seed{self.seed}.json"
        traced, _ = _worker(self.deadline, self.workload, self.seed, f"{self.workload}-traced",
                            "--trace-out", str(spans))
        self._check_rounds(plain["rounds"])
        self._check_rounds(traced["rounds"])
        first = [rec[1] for rec in plain["rounds"][:n]]
        self.metrics.update(traced["layers"])
        self.metrics["trace.overhead_s"] = (statistics.fmean(rec[1] for rec in traced["rounds"])
                                            - statistics.fmean(first))
        self.notes["trace.overhead_s"] = f"mean round of the first {n}, traced minus untraced"
        self.notes["spans"] = f"{traced['spans']} spans in {spans.relative_to(ROOT)}"

    def execute(self) -> None:
        OUT.mkdir(exist_ok=True)
        try:
            if self.workload == "verify-harness":
                self.verify_harness()
            else:
                self.time_boxed()
        except ChildFailed as exc:  # a crashed or hung child fails the run; it is not skipped
            self.fail({"seed": self.seed}, "child process", str(exc))
            self.failed = self.attempted = max(self.attempted, 1)
        if self.mismatches and self.failed == 0:  # a whole-payload mismatch is one wrong answer
            self.failed = 1
        self.attempted = max(self.attempted, 1)
        self.metrics["error_rate"] = self.failed / self.attempted


def _provenance(run: Run) -> dict:
    from workloads import sizes

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "sizes": sizes()[run.workload],
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _declared(trace: bool) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def _summary(run: Run, declared: list[dict]) -> list[str]:
    units = {m["name"]: m["unit"] for m in declared}
    units.update({"op_p50_s": "s", "op_p90_s": "s", "error_rate": "ratio"})
    lines = [f"{run.workload} seed={run.seed} trace={int(run.trace)}: "
             f"{run.attempted - run.failed}/{run.attempted} correct"]
    names = [m["name"] for m in declared]
    if not run.trace:
        names += ["op_p50_s", "op_p90_s", "error_rate"]
    for name in names:
        if name not in run.metrics:
            if name == "op_p90_s" and run.workload != "verify-harness":
                lines.append(f"  {name:<50} n/a       (needs {P90_MIN_SAMPLES} samples)")
            continue
        value = run.metrics[name]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"  {name:<50} {shown:<14} {units[name]:<6} {run.notes.get(name, '')}".rstrip())
    if "spans" in run.notes:
        lines.append(f"  {run.notes['spans']}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    run = Run(workload, seed, seconds, trace)
    run.execute()
    declared = _declared(trace)
    for line in _summary(run, declared):
        print(line)
    for m in run.mismatches[:MISMATCHES_SHOWN]:
        sys.stderr.write(f"MISMATCH {workload} {m['what']}: {m['detail']}\n"
                         f"  instance: {json.dumps(m['instance'])}\n")
    if len(run.mismatches) > MISMATCHES_SHOWN:
        sys.stderr.write(f"... and {len(run.mismatches) - MISMATCHES_SHOWN} more mismatches\n")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": run.metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in declared},
    }
    record = {"provenance": _provenance(run), "result": result, "all_metrics": run.metrics,
              "notes": run.notes, "mismatches": run.mismatches[:MISMATCHES_SHOWN]}
    path = OUT / f"record-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record: {path.relative_to(ROOT)}")
    return run, result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        results = [run_one(w, args.seed, args.seconds, bool(args.trace))[0] for w in WORKLOADS]
        return 0 if all(r.correct for r in results) else 1
    _, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    missing = [p for p in (ROOT / "src" / "fermionant" / "__init__.py", ROOT / "BENCHMARK.json",
                           HERE / "refs" / "verify.json", HERE / "refs" / "dp_dense.json")
               if not p.is_file()]
    if missing:
        sys.stderr.write(f"perfbench: missing {', '.join(str(p) for p in missing)}; "
                         "run from a full checkout\n")
        sys.exit(2)
    sys.exit(main())
