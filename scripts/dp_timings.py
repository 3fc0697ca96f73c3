"""Timings of the dp fermionant on dense matrices (entries drawn uniformly
from +-1, +-2, +-3, seeded), stdlib only.

    python3 scripts/dp_timings.py levels [H ...]
        For each h (default 4..13), the cost of one cover level with h
        vertices above its lowest vertex, done by submask walks and by the
        subset convolution: level m = 1 of a dense (h+2) x (h+2) matrix, the
        only level the two runs do differently (every other level walks
        submasks), best of a few k = 2 runs with the cycle sums memoised.
        The crossover sets ``matrixfn._CONVOLVE_MIN_H``.
    python3 scripts/dp_timings.py dense [N ...]
        For each n (default 14 16 18 20), in a fresh process: Ferm_2 from a
        cold memo (cycle sums plus cover), then Ferm_3, Ferm_-1 and Ferm_1 on
        the same matrix (cover only), and the process's peak RSS.

Each line is one JSON object on stdout.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from fermionant import Matrix, fermionant, matrixfn  # noqa: E402

ENTRIES = (1, -1, 2, -2, 3, -3)


def dense_matrix(n: int, seed: int) -> Matrix:
    rng = random.Random(f"dp-timings-{n}-{seed}")
    return Matrix(tuple(tuple(rng.choice(ENTRIES) for _ in range(n)) for _ in range(n)))


def _best_of(runs: int, call) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def time_levels(hs: list[int]) -> None:
    rule = matrixfn._level_kind
    try:
        for h in hs:
            a = dense_matrix(h + 2, 0)
            row = {"h": h}
            for kind in ("submask", "convolve"):
                matrixfn._level_kind = lambda m, hh, count, kind=kind: kind if m == 1 else "submask"
                matrixfn._cycle_sums.cache_clear()
                matrixfn._cycle_sums(a)
                row[f"{kind}_s"] = round(_best_of(3 if h < 12 else 1, lambda: fermionant(a, 2, "dp")), 5)
            row["convolve_over_submask"] = round(row["convolve_s"] / row["submask_s"], 3)
            print(json.dumps(row), flush=True)
    finally:
        matrixfn._level_kind = rule
        matrixfn._cycle_sums.cache_clear()


def time_dense(n: int) -> None:
    a = dense_matrix(n, 0)
    row: dict[str, object] = {"n": n}
    for k in (2, 3, -1, 1):
        t0 = time.perf_counter()
        fermionant(a, k, "dp")
        row[f"k={k}_s"] = round(time.perf_counter() - t0, 3)
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    row["python"] = sys.version.split()[0]
    print(json.dumps(row), flush=True)


def main(argv: list[str]) -> None:
    mode, args = (argv[0], [int(x) for x in argv[1:]]) if argv else ("", [])
    if mode == "levels":
        time_levels(args or list(range(4, 14)))
    elif mode == "dense":
        for n in args or [14, 16, 18, 20]:
            subprocess.run([sys.executable, __file__, "dense-one", str(n)], check=True)
    elif mode == "dense-one" and len(args) == 1:
        time_dense(args[0])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
