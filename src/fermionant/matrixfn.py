"""Exact matrix functions: determinant, permanent, fermionant, immanant.

The fermionant with parameter k of an n x n matrix A is

    (-1)^n * sum over permutations pi of (-k)^(cycles of pi) * prod A[i, pi(i)]

so k = 1 recovers the determinant.  Three routes are provided:

* ``brute``     -- the definition itself, read off the class sums w_mu
                   (n <= 9); the oracle for the others.
* ``dp``        -- subset dynamic programming over directed cycle covers
                   (n <= 20): first the weight sum C(S) of single cycles with
                   vertex set exactly S through min(S), which does not depend
                   on k and is memoised on the last matrix; then covers
                   combined one cycle at a time, each cycle weighted -k, over
                   the sets without vertex 0 and the full set, the only sets
                   peeling a cycle off the full set can leave.
* ``immanants`` -- the character expansion: sum over Young diagrams lam of n
                   with at most k rows of (semistandard tableau count of lam)
                   * (immanant of the transposed diagram), for integer k >= 1.

The class sums w_mu (for each cycle type mu, the weight summed over the
permutations of that type) come from the package's one permutation sweep, a
depth-first search that prunes at zero entries.  It is memoised on the last
matrix, so ``brute``, ``fermionant_cycle_poly``, ``cycle_type_weight_sums``,
``immanant`` and ``immanants`` share a single sweep per matrix.

All arithmetic is exact; capacity bounds are keyword-tunable with the safe
defaults given above.  Everything here is a pure function; the dp route is
sequential and deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .characters import character
from .errors import CapacityError
from .partitions import Partition, count_ssyt, partitions_with_depth_at_most, transpose
from .polynomials import UniPolynomial

BRUTE_DEFAULT_MAX_N = 9
DP_DEFAULT_MAX_N = 20
PERMANENT_DEFAULT_MAX_N = 20
IMMANANTS_DEFAULT_MAX_K = 4


@dataclass(frozen=True)
class Matrix:
    """Square matrix of exact integers, stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        for i, r in enumerate(rows):
            if len(r) != n:
                raise ValueError(f"matrix must be square, got row of length {len(r)} in dimension {n}")
            for j, v in enumerate(r):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError(f"entry ({i}, {j}) must be an integer, got {v!r}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def determinant(a: Matrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = a.n
    if n == 0:
        return 1
    m = [list(r) for r in a.rows]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[c][c]
        for r in range(c + 1, n):
            row_r = m[r]
            row_c = m[c]
            factor = row_r[c]
            for j in range(c + 1, n):
                row_r[j] = (pivot * row_r[j] - factor * row_c[j]) // prev
            row_r[c] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def permanent(a: Matrix, *, max_n: int = PERMANENT_DEFAULT_MAX_N) -> int:
    """Exact permanent by Ryser's inclusion-exclusion with Gray-code updates."""
    n = a.n
    if n > max_n:
        raise CapacityError(f"permanent limited to n <= {max_n}, got {n}")
    if n == 0:
        return 1
    rows = a.rows
    sums = [0] * n
    total = 0
    gray = 0
    sign = 1 if n % 2 == 0 else -1
    for i in range(1, 1 << n):
        new_gray = i ^ (i >> 1)
        bit = gray ^ new_gray
        col = bit.bit_length() - 1
        if new_gray & bit:
            for r in range(n):
                sums[r] += rows[r][col]
        else:
            for r in range(n):
                sums[r] -= rows[r][col]
        gray = new_gray
        prod = 1
        for s in sums:
            prod *= s
            if not prod:
                break
        total += -prod if i % 2 else prod
    return sign * total


@lru_cache(maxsize=1)
def _class_sums(a: Matrix) -> tuple[tuple[Partition, int], ...]:
    """For each cycle type mu, the sum of prod A[i, pi(i)] over the
    permutations of type mu with nonzero weight; the package's one sweep.

    Row i goes to a free column depth first, and a zero entry prunes its
    whole subtree.  The placed arcs form chains head -> ... -> tail; row i is
    always a tail and a free column always a head, so each arc closes a cycle
    or joins two chains in O(1).  A cycle type is carried as the integer key
    sum of (n+1)^length over its cycles.  The result is a tuple, so callers
    cannot corrupt the memo.
    """
    n = a.n
    if n == 0:
        return ((Partition(()), 1),)
    rows = a.rows
    nonzero = [[(j, x) for j, x in enumerate(r) if x] for r in rows]
    power = [(n + 1) ** length for length in range(n + 1)]
    head = list(range(n))  # head[t] of the chain ending at tail t
    tail = list(range(n))  # tail[h] of the chain starting at head h
    size = [1] * n  # size[h]: vertices on the chain starting at head h
    free = [True] * n
    last = n - 1
    last_row = rows[last]
    sums: dict[int, int] = {}

    def extend(i: int, w: int, key: int) -> None:
        h = head[i]
        if i == last:  # one free column is left, and it closes the chain
            x = last_row[h]
            if x:
                key += power[size[h]]
                sums[key] = sums.get(key, 0) + w * x
            return
        for j, x in nonzero[i]:
            if not free[j]:
                continue
            free[j] = False
            if j == h:
                extend(i + 1, w * x, key + power[size[h]])
            else:
                t = tail[j]
                tail[h] = t
                head[t] = h
                size_h = size[h]
                size[h] = size_h + size[j]
                extend(i + 1, w * x, key)
                tail[h] = i
                head[t] = j
                size[h] = size_h
            free[j] = True

    extend(0, 1, 0)
    # extend refers to itself through its closure; breaking that cycle frees
    # the search state now rather than at the next cyclic collection, which
    # otherwise lets one dead state per matrix pile up and raise peak memory
    del extend
    return tuple((_decode_cycle_type(key, n), w) for key, w in sums.items())


def _decode_cycle_type(key: int, n: int) -> Partition:
    """Inverse of the key sum of (n+1)^length: base-(n+1) digit l counts the
    cycles of length l."""
    parts: list[int] = []
    for length in range(n, 0, -1):
        parts.extend([length] * (key // (n + 1) ** length % (n + 1)))
    return Partition(tuple(parts))


def fermionant_cycle_poly(a: Matrix, *, max_n: int = BRUTE_DEFAULT_MAX_N) -> UniPolynomial:
    """f(z) = sum over permutations of z^(cycle count) * prod A[i, pi(i)].

    f(1) is the permanent, (-1)^n f(-1) the determinant, and the fermionant
    is (-1)^n f(-k).  Read off the memoised class sums: f = sum over cycle
    types mu of w_mu z^depth(mu).
    """
    n = a.n
    if n > max_n:
        raise CapacityError(f"cycle polynomial enumeration limited to n <= {max_n}, got {n}")
    coeffs = [0] * (n + 1)
    for mu, w in _class_sums(a):
        coeffs[mu.depth] += w
    return UniPolynomial(tuple(coeffs))


def cycle_type_weight_sums(a: Matrix, *, max_n: int = BRUTE_DEFAULT_MAX_N) -> dict[Partition, int]:
    """For each cycle type mu of n, the sum over permutations of type mu of
    prod A[i, pi(i)]; types with no permutation of nonzero weight are absent.
    A fresh dict over the memoised class sums, which also feed the cycle
    polynomial, so one pruned sweep per matrix serves every route but dp."""
    n = a.n
    if n > max_n:
        raise CapacityError(f"class-sum enumeration limited to n <= {max_n}, got {n}")
    return dict(_class_sums(a))


def _fermionant_brute(a: Matrix, k: int, max_n: int) -> int:
    f = fermionant_cycle_poly(a, max_n=max_n)
    value = f(-k)
    return -value if a.n % 2 else value


@lru_cache(maxsize=1)
def _cycle_sums(a: Matrix) -> tuple[int, ...]:
    """C[S]: the weight sum of the single directed cycles with vertex set
    exactly S that pass through min(S).  It does not depend on k, so it is
    memoised on the last matrix and the dp pays for it once per matrix
    rather than once per k.

    For each lowest vertex m, paths from m with interior above m are grown
    breadth first by vertex set; a set's cycles are closed back to m as soon
    as its paths are complete, and its paths are then dropped, so only about
    two popcount layers are held at a time.  Closing the empty path at m
    gives the 1-cycle, the diagonal entry.
    """
    n = a.n
    rows = a.rows
    C = [0] * (1 << n)
    for m in range(n):
        bit_m = 1 << m
        higher = range(m + 1, n)
        # paths[mask][j]: weight sum of simple paths m -> j with interior in
        # `higher`, mask over the vertices above m that the path uses.  Every
        # path into mask comes from a set one vertex smaller, which the queue
        # finishes first, so paths[mask] is complete when mask is dequeued.
        paths: dict[int, dict[int, int]] = {0: {m: 1}}
        queue = deque((0,))
        while queue:
            mask = queue.popleft()
            ends = paths.pop(mask)
            s = 0
            for j, w in ends.items():
                row_j = rows[j]
                wa = row_j[m]
                if wa:
                    s += w * wa
                for l in higher:
                    bit = 1 << l
                    if mask & bit:
                        continue
                    wa = row_j[l]
                    if not wa:
                        continue
                    nm = mask | bit
                    d = paths.get(nm)
                    if d is None:
                        paths[nm] = {l: w * wa}
                        queue.append(nm)
                    else:
                        d[l] = d.get(l, 0) + w * wa
            if s:
                C[mask | bit_m] = s
    return tuple(C)


def _fermionant_dp(a: Matrix, k: int, max_n: int) -> int:
    n = a.n
    if n > max_n:
        raise CapacityError(f"dp fermionant limited to n <= {max_n}, got {n}")
    if n == 0:
        return 1
    C = _cycle_sums(a)
    full = (1 << n) - 1

    # covers: peel off the cycle through the lowest vertex of each subset.
    # Peeling the full set leaves only sets without vertex 0, and peeling
    # those leaves only their subsets, so no other set is ever read.
    negk = -k
    F = [0] * (full + 1)
    F[0] = 1
    for S in (*range(2, full, 2), full):
        low = S & (-S)
        rest = S ^ low
        acc = 0
        Tp = rest
        while True:
            c = C[low | Tp]
            if c:
                acc += c * F[S ^ (low | Tp)]
            if Tp == 0:
                break
            Tp = (Tp - 1) & rest
        F[S] = negk * acc
    return -F[full] if n % 2 else F[full]


def immanant(a: Matrix, lam: Partition, *, max_n: int = BRUTE_DEFAULT_MAX_N) -> int:
    """sum over permutations of chi_lam(pi) * prod A[i, pi(i)].

    The single-column shape gives the determinant, the single row the
    permanent.  chi is a class function, so the sum is grouped by cycle type.
    """
    n = a.n
    if lam.size != n:
        raise ValueError(f"shape {lam} partitions {lam.size}, matrix has dimension {n}")
    sums = cycle_type_weight_sums(a, max_n=max_n)
    return sum(character(lam, mu) * w for mu, w in sums.items())


def fermionant_via_immanants(
    a: Matrix, k: int, *, max_n: int = BRUTE_DEFAULT_MAX_N, max_k: int = IMMANANTS_DEFAULT_MAX_K
) -> int:
    """Fermionant through the character expansion over Young diagrams of
    depth at most k (transposed inside the immanant), for integer k >= 1."""
    n = a.n
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"immanants route requires a positive integer k, got {k}")
    if k > max_k:
        raise CapacityError(f"immanants route limited to k <= {max_k}, got {k}")
    if n > max_n:
        raise CapacityError(f"immanants route limited to n <= {max_n}, got {n}")
    if n == 0:
        return 1
    sums = cycle_type_weight_sums(a, max_n=max_n)
    total = 0
    for lam in partitions_with_depth_at_most(n, k):
        d = count_ssyt(lam, k)
        lam_t = transpose(lam)
        imm = sum(character(lam_t, mu) * w for mu, w in sums.items())
        total += d * imm
    return total


def fermionant(
    a: Matrix,
    k: int,
    algorithm: str = "dp",
    *,
    brute_max_n: int = BRUTE_DEFAULT_MAX_N,
    dp_max_n: int = DP_DEFAULT_MAX_N,
) -> int:
    """Fermionant of a with parameter k via ``brute``, ``dp`` or
    ``immanants``.  k may be any integer for brute/dp; the immanants route
    requires 1 <= k <= 4.  All routes agree wherever their bounds overlap."""
    if algorithm == "brute":
        return _fermionant_brute(a, k, brute_max_n)
    if algorithm == "dp":
        return _fermionant_dp(a, k, dp_max_n)
    if algorithm == "immanants":
        return fermionant_via_immanants(a, k, max_n=brute_max_n)
    raise ValueError(f"unknown algorithm {algorithm!r}; expected brute, dp or immanants")
