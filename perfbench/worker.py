"""One fresh interpreter of a benchmark run; started by run.py.

    worker.py --workload W --seed S --t0 T --setup-only
        Import the package, build the workload's inputs, report setup_s (the
        time since the parent's CLOCK_MONOTONIC stamp T) and exit.
    worker.py --workload W --seed S --t0 T --seconds X [--min-rounds R]
        Then run whole rounds in a closed loop (one caller, one thread) until
        X seconds have passed and at least R rounds are done.
    worker.py --workload W --seed S --t0 T --trace-out SPANS [--stdout-file F]
        Install the tracer first, then run the workload's fixed traced rounds
        (for verify-harness: `fermionant verify` in-process, its stdout saved
        to F), write the spans to SPANS and report per-layer metrics.

The report is one JSON object on the last line of stdout.  Results are
returned as JSON for run.py to check; nothing is checked here.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _loop(rounds, seconds: float, min_rounds: int, tracer=None) -> tuple[list, float]:
    """Closed loop over rounds; returns per-round records and the timed span."""
    from workloads import encode

    records = []
    start = time.perf_counter()
    i = 0
    while i < min_rounds or time.perf_counter() - start < seconds:
        rnd = rounds[i % len(rounds)]
        ops = []
        r0 = time.perf_counter()
        for label, fn in rnd.ops:
            o0 = time.perf_counter()
            try:
                value = tracer.span(f"bench.op.{label.split()[0]}", fn) if tracer else fn()
                error = None
            except Exception as exc:  # a failure is counted by run.py, never skipped
                value, error = None, f"{type(exc).__name__}: {exc}"
            ops.append([label, time.perf_counter() - o0, value, error])
            if i >= min_rounds and time.perf_counter() - start >= seconds:
                break
        complete = len(ops) == len(rnd.ops)
        records.append([i % len(rounds), time.perf_counter() - r0, complete, ops])
        i += 1
    timed = time.perf_counter() - start
    for rec in records:  # encode outside the timed region
        for op in rec[3]:
            if op[3] is None:
                op[2] = encode(op[2])
    return records, timed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--trace-out")
    parser.add_argument("--stdout-file")
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if args.workload == "verify-harness":
        import fermionant.cli as cli
    else:
        import fermionant as fm
        from workloads import build_rounds

        def build():
            return build_rounds(fm, args.workload, args.seed)

        rounds = tracer.span("bench.setup", build) if tracer else build()
    report: dict = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if args.workload == "verify-harness":
        if tracer is None:
            raise SystemExit("verify-harness runs untraced through the CLI itself")
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            tracer.span("bench.verify", lambda: cli.main(["verify", "--seed", str(args.seed)]))
        report["wall_s"] = time.perf_counter() - t0
        Path(args.stdout_file).write_text(out.getvalue(), encoding="utf-8")
    else:
        from workloads import TRACE_ROUNDS

        if tracer is None:
            records, timed = _loop(rounds, args.seconds, args.min_rounds)
        else:
            n = TRACE_ROUNDS[args.workload]
            records, timed = _loop(rounds, 0.0, n, tracer)
        report["timed_s"] = timed
        report["rounds"] = records

    if tracer is not None:
        from fermionant.characters import _mn

        info = _mn.cache_info()
        lookups = info.hits + info.misses
        report["layers"] = tracer.layer_metrics()
        report["layers"]["characters.mn_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
        report["spans"] = len(tracer.start)
        tracer.write(Path(args.trace_out))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
