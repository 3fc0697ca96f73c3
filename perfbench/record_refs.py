"""Record the pinned references the oracles compare against.

    python3 perfbench/record_refs.py dp-dense
        Draws the dp-dense matrix pool from a fixed seed, computes Ferm_2 and
        Ferm_3 of each by the dp route, confirms both by the colouring
        expansion below, and writes refs/dp_dense.json.
    python3 perfbench/record_refs.py verify SEED [SEED ...]
        Runs `fermionant verify --seed SEED` and adds the sha256 of its stdout
        to refs/verify.json.

The colouring expansion: sgn(pi) = (-1)^(n - cycles), and k^cycles counts the
colourings of [n] with k colours that are constant on the cycles of pi, so

    Ferm_k(A) = sum over maps f: [n] -> [k] of prod_c det(A[f^-1(c)]),

a sum of products of principal minors that shares no code with the dp.
References are a regression oracle: they pin what this code computed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fermionant as fm  # noqa: E402

from workloads import DP_DENSE_REFS, VERIFY_REFS  # noqa: E402

POOL_SEED = "dp-dense-pool"
POOL_SIZE = 48
N = 14
ENTRIES = (-3, -2, -1, 1, 2, 3)  # dense: every entry nonzero


def principal_minors(a: fm.Matrix) -> list[int]:
    n = a.n
    out = [1] * (1 << n)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        out[mask] = fm.determinant(fm.Matrix(tuple(tuple(a.rows[i][j] for j in idx) for i in idx)))
    return out


def colouring_ferm23(a: fm.Matrix) -> tuple[int, int]:
    """(Ferm_2, Ferm_3) by the colouring expansion."""
    d = principal_minors(a)
    full = (1 << a.n) - 1
    pair = [0] * (full + 1)  # pair[U] = sum over T within U of d[T] d[U \ T]
    for u in range(full + 1):
        s = 0
        t = u
        while True:
            s += d[t] * d[u ^ t]
            if t == 0:
                break
            t = (t - 1) & u
        pair[u] = s
    ferm3 = sum(d[t] * pair[full ^ t] for t in range(full + 1))
    return pair[full], ferm3


def record_dp_dense() -> None:
    rng = random.Random(POOL_SEED)
    matrices, ferm = [], []
    for i in range(POOL_SIZE):
        rows = [[rng.choice(ENTRIES) for _ in range(N)] for _ in range(N)]
        a = fm.Matrix(tuple(tuple(r) for r in rows))
        f2, f3 = fm.fermionant(a, 2, "dp"), fm.fermionant(a, 3, "dp")
        if (f2, f3) != colouring_ferm23(a):
            raise SystemExit(f"pool matrix {i}: dp and colouring expansion disagree")
        matrices.append(rows)
        ferm.append({"2": str(f2), "3": str(f3)})
        print(f"matrix {i}: Ferm_2 = {f2}, Ferm_3 = {f3}", flush=True)
    head = {"n": N, "entries": list(ENTRIES), "pool_seed": POOL_SEED,
            "confirmed_by": "colouring expansion"}
    lines = [json.dumps(head)[:-1] + ","]
    lines.append(' "matrices": [\n  ' + ",\n  ".join(json.dumps(m) for m in matrices) + "],")
    lines.append(' "ferm": [\n  ' + ",\n  ".join(json.dumps(f) for f in ferm) + "]}")
    DP_DENSE_REFS.write_text("\n".join(lines) + "\n")


def record_verify(seeds: list[int]) -> None:
    doc = json.loads(VERIFY_REFS.read_text())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for seed in seeds:
        proc = subprocess.run([sys.executable, "-m", "fermionant.cli", "verify", "--seed", str(seed)],
                              capture_output=True, env=env, cwd=ROOT, check=True)
        doc["sha256"][str(seed)] = hashlib.sha256(proc.stdout).hexdigest()
        print(f"seed {seed}: {doc['sha256'][str(seed)]}", flush=True)
    doc["sha256"] = dict(sorted(doc["sha256"].items(), key=lambda kv: int(kv[0])))
    VERIFY_REFS.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["dp-dense"]:
        record_dp_dense()
    elif sys.argv[1:2] == ["verify"] and len(sys.argv) > 2:
        record_verify([int(s) for s in sys.argv[2:]])
    else:
        raise SystemExit(__doc__)
