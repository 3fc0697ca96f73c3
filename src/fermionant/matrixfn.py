"""Exact matrix functions: determinant, permanent, fermionant, immanant.

The fermionant with parameter k of an n x n matrix A is

    (-1)^n * sum over permutations pi of (-k)^(cycles of pi) * prod A[i, pi(i)]

so k = 1 recovers the determinant.  Three routes are provided:

* ``brute``     -- the definition itself, read off the class sums w_mu
                   (n <= 10); the oracle for the others.
* ``dp``        -- subset dynamic programming over directed cycle covers
                   (n <= 20), in three phases: the weight sums of single
                   cycles by vertex set (``_cycle_sums``) and from them the
                   cycles through up to ``_FOLD`` dense lowest vertices,
                   folded into a polynomial in -k (``_fold_top``), both
                   k-free and memoised on the last matrix; then, per k, the
                   cover levels above the fold, each a list walk over its
                   cycles or one ranked subset convolution
                   (``_fermionant_dp``).
* ``immanants`` -- the character expansion: sum over Young diagrams lam of n
                   with at most k rows of (semistandard tableau count of lam)
                   * (immanant of the transposed diagram), for integer k >= 1.

The class sums w_mu (for each cycle type mu, the weight summed over the
permutations of that type) come from a transfer over the rows: a state is
the set of open chains the rows placed so far leave, with the cycle type
closed so far, so partial permutations that leave the same chains are summed
together rather than swept one by one, and zero entries make no move.  The
class sums are memoised on the last matrix, so ``brute``,
``fermionant_cycle_poly``, ``cycle_type_weight_sums``, ``immanant`` and
``immanants`` share a single transfer per matrix; the immanants route also
reads the transposed Schur-Weyl expansion once per (n, k).

All arithmetic is exact.  The capacity bounds given above are the module
constants ``BRUTE_MAX_N``, ``DP_MAX_N`` and ``PERMANENT_MAX_N``, each checked
once, where its kernel starts.  Everything here is a pure function; the dp
route is sequential and deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import add, and_, lshift, mul, sub

from .characters import character, schur_weyl_expand
from .errors import CapacityError
from .partitions import Partition, transpose
from .polynomials import UniPolynomial

BRUTE_MAX_N = 10
DP_MAX_N = 20
PERMANENT_MAX_N = 20


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


def permanent(a: Matrix) -> int:
    """Exact permanent by Ryser's inclusion-exclusion with Gray-code updates."""
    n = a.n
    if n > PERMANENT_MAX_N:
        raise CapacityError(f"permanent limited to n <= {PERMANENT_MAX_N}, got {n}")
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
    permutations of type mu with nonzero weight, a cycle type carried as the
    integer key sum of (n+1)^length over its cycles.  The result is a tuple,
    so callers cannot corrupt the memo.

    A transfer over the rows.  Once rows 0..d-1 are placed, the arcs
    i -> pi(i) form chains, each ending at a row still to place; a state
    records, for each such row, the head of its chain and the chain's size,
    plus the key of the cycles closed so far, and maps to the weight summed
    over the partial permutations that leave it, so those that leave the
    same chains are summed rather than visited one by one.  Row d sends its
    chain over a nonzero entry to a head h: if h heads d's own chain, that
    closes a cycle and adds (n+1)^size to the key; else the chain of the
    later row t headed by h takes d's head, and the two sizes add.  A zero
    entry makes no move, so a state with none left drops out.  A state is
    one int: the key in the low bits, then one (head, size) slot per row
    still to place, row d lowest.  States whose weights cancel to 0 are
    kept, so a class sum that cancels stays a key.

    The brute bound is checked here, so every route through the class sums
    (brute, the cycle polynomial, immanants) meets it before any work.
    """
    n = a.n
    if n > BRUTE_MAX_N:
        raise CapacityError(f"class-sum transfer limited to n <= {BRUTE_MAX_N}, got {n}")
    if n == 0:
        return ((Partition(()), 1),)
    power = [(n + 1) ** length for length in range(n + 1)]
    bits = n.bit_length()
    field = (1 << bits) - 1
    key_bits = power[n].bit_length()
    key_mask = (1 << key_bits) - 1
    width = 2 * bits
    slots = 0
    for t in range(n - 1, -1, -1):
        slots = slots << width | 1 << bits | t
    states = {slots << key_bits: 1}
    for row in a.rows:
        nxt: dict[int, int] = {}
        for state, w in states.items():
            slots = state >> key_bits
            head = slots & field
            size = slots >> bits & field
            rest = slots >> width
            base = state & key_mask | rest << key_bits  # row d's slot dropped
            x = row[head]
            if x:  # close the chain of row d into a cycle
                s = base + power[size]
                nxt[s] = nxt.get(s, 0) + w * x
            grow = size << bits
            shift = key_bits
            while rest:  # join the chain of a later row t, headed by h
                h = rest & field
                x = row[h]
                if x:
                    s = base + (head - h + grow << shift)
                    nxt[s] = nxt.get(s, 0) + w * x
                rest >>= width
                shift += width
        states = nxt
    return tuple((_decode_cycle_type(key, n), w) for key, w in states.items())


def _decode_cycle_type(key: int, n: int) -> Partition:
    """Inverse of the key sum of (n+1)^length: base-(n+1) digit l counts the
    cycles of length l."""
    parts: list[int] = []
    for length in range(n, 0, -1):
        parts.extend([length] * (key // (n + 1) ** length % (n + 1)))
    return Partition(tuple(parts))


def fermionant_cycle_poly(a: Matrix) -> UniPolynomial:
    """f(z) = sum over permutations of z^(cycle count) * prod A[i, pi(i)].

    f(1) is the permanent, (-1)^n f(-1) the determinant, and the fermionant
    is (-1)^n f(-k).  Read off the memoised class sums: f = sum over cycle
    types mu of w_mu z^depth(mu).
    """
    sums = _class_sums(a)
    coeffs = [0] * (a.n + 1)
    for mu, w in sums:
        coeffs[mu.depth] += w
    return UniPolynomial(tuple(coeffs))


def cycle_type_weight_sums(a: Matrix) -> dict[Partition, int]:
    """For each cycle type mu of n, the sum over permutations of type mu of
    prod A[i, pi(i)]; types with no permutation of nonzero weight are absent.
    A fresh dict over the memoised class sums, which also feed the cycle
    polynomial, so one transfer per matrix serves every route but dp."""
    return dict(_class_sums(a))


def _fermionant_brute(a: Matrix, k: int) -> int:
    value = fermionant_cycle_poly(a)(-k)
    return -value if a.n % 2 else value


# Levels with at least this many vertices above their lowest vertex, and too
# many cycles for a list walk, are done by one subset convolution: the
# crossover that ``python3 scripts/dp_timings.py levels`` measures on dense
# matrices.
_CONVOLVE_MIN_H = 6


def _list_cap(h: int) -> int:
    """The most nonzero cycles the cover phase walks as a list at a level
    with h vertices above its lowest vertex.  Below ``_CONVOLVE_MIN_H`` every
    level is a list walk (a level holds at most 2^h cycles); from there up a
    list of count cycles costs count * 2^h steps and is kept while count <=
    3^h >> h, else the level is convolved.  The rule is kept as it is,
    though 3^h is not what the convolution costs: ``python3
    scripts/dp_timings.py levels 2 ... 11`` reads the convolve/list time of
    a dense level (its convolution against a list of all 2^h cycles) as
    1.1-1.2 at h = 5 and about 0.8, 0.5, 0.33, 0.2-0.3, 0.1 and 0.06 at
    h = 6..11.  The one rule that sets a level's kind."""
    return 1 << h if h < _CONVOLVE_MIN_H else 3**h >> h


def _row_bound(rows: Iterable[Sequence[int]]) -> int:
    """prod_i max(1, sum_j |a_ij|) over the rows given: it bounds every sum
    of products that take their entries from distinct rows, the digit
    widths of the dp's packed integers."""
    bound = 1
    for row in rows:
        bound *= max(1, sum(map(abs, row)))
    return bound


# A cycle-sum level with more than _PACK_BLOCK vertices above its lowest
# vertex, whose block averages at least _PACK_MIN_DEGREE nonzeros a row,
# carries its next _PACK_BLOCK vertices as packed digits.  Measured when
# packing was added (CHANGES.md; README "Capacity bounds"): with every level
# packed against none, the cycle sums took 1.9-3.3x the time at 1.7-3
# nonzeros a row, 0.78-1.7x at 3.5-4.4 and 0.16-0.72x at 4.8 or more.
_PACK_BLOCK = 5
_PACK_MIN_DEGREE = 4.5


def _low_block(h: int, succ: list[int]) -> int:
    """How many vertices above m the cycle-sum search at level m packs into
    digits, given h and the level's rows as nonzero masks over the vertices
    from m up: ``_PACK_BLOCK`` where h exceeds it and the block is dense,
    else 0, the unpacked search.  Packing pays for every digit, nonzero or
    not, so sparse levels such as medial line digraphs stay unpacked.  The
    one rule that sets a level's block."""
    if h <= _PACK_BLOCK or sum(map(int.bit_count, succ)) < _PACK_MIN_DEGREE * (h + 1):
        return 0
    return _PACK_BLOCK


@lru_cache(maxsize=1)
def _cycle_sums(
    a: Matrix,
) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...] | None, ...], tuple[tuple[int, ...], ...]]:
    """(C, walks, top).  C[S]: the weight sum of the single directed cycles
    with vertex set exactly S that pass through min(S).  walks[m]: the
    sorted tuple of nonzero (S, C[S]) with min(S) = m, or None when m has
    more of them than ``_list_cap`` allows, so the cover phase folds that
    level into the top or takes it as one subset convolution.  top: the
    cover's folded top from C and walks, as ``_fold_top`` builds it.  None
    depends on k, so all three are memoised on the last matrix and the dp
    pays for them once per matrix rather than once per k.

    For each lowest vertex m, weighted paths from m with interior above m
    are grown one popcount layer at a time (Held and Karp's path dp, 1962).
    A vertex set X keeps one list of its paths' weight sums over the ends
    m..n-1.  The paths on X + {l} that end at l all come from X, so adding l
    sets one entry, the dot product of X's list with column l: one C-level
    sum(map(mul, ...)) rather than an interpreted step per end.  Closing X
    back to m is the dot product with column m; closing the empty path gives
    the 1-cycle, the diagonal entry.  X also carries a reach mask, the
    vertices its nonzero ends have a nonzero entry to, and tries only those;
    a dot product of 0 creates no set.  So a sparse matrix, such as a medial
    line digraph with two nonzeros a row, pays about two dot products per
    end rather than h.  Each set is dropped once extended, so about two
    layers are held at a time.

    A dense level packs its next b vertices m+1..m+b, the low block, as
    ``_low_block`` rules (the search above is b = 0).  A set then names
    only m and its vertices above the block, H, and each end's entry is one
    integer whose 2^b fixed-width signed digits hold the path sums for every
    low subset L at once, digit L at bit W * L, so every dot product does
    the work of 2^b sets.  The paths on H first gain their low vertices in
    up to b rounds: a round takes the dot product of the last round's ends
    with column w, keeps the digits whose L lacks w by the offset trick
    ((t + off) & keep_w) - (off & keep_w), off holding half a digit in each,
    and shifts them by W * 2^(w-1), from L to L + {w}.  Closing to m is one
    dot product, its digits sliced into C[{m} + H + L]; each step to a
    vertex above the block is one dot product, as unpacked.

    W is the bit length of R = prod_i max(1, sum_j |a_ij|), over the rows
    and columns from m up, plus a sign bit, so every digit read lies in
    (-2^(W-1), 2^(W-1)) and no digit borrows from or carries into the next.
    A digit sums products of one entry from each of distinct rows, so R
    bounds it: a path sum or cycle sum, and also a masked-out digit, whose
    walks revisit w once at their last step, so their rows are still
    distinct.

    The search collects the nonzero cycles it closes, but no more than one
    past the cap (one packed closing past it), so a dense level allocates no
    long list and a sparse one is not rescanned over all 2^h sets.
    """
    n = a.n
    rows = a.rows
    C = [0] * (1 << n)
    walks: list[tuple[tuple[int, int], ...] | None] = [None] * n
    columns = list(zip(*rows))
    bits = [1 << l for l in range(n)]
    nonzero = [sum(compress(bits, row)) for row in rows]  # each row's nonzero columns
    for m in range(n):
        h = n - 1 - m
        cap = _list_cap(h)
        found: list[tuple[int, int]] = []
        # Vertex m+i is bit i: cols[i] is its column over the rows m..n-1,
        # succ[i] the vertices from m up it has a nonzero entry to.
        cols = [col[m:] for col in columns[m:]]
        succ = [z >> m for z in nonzero[m:]]
        b = _low_block(h, succ)
        highs = (2 << h) - (2 << b)  # the bits above the low block 1..b
        if b:
            width = _row_bound(row[m:] for row in rows[m:]).bit_length() + 1
            digit = (1 << width) - 1
            half = 1 << (width - 1)
            span = width << b
            off = half * ((1 << span) - 1) // digit  # half in every digit
            # for each low vertex w: its column, over the low ends alone,
            # keep, off & keep and the shift; keep is all-ones in the digits
            # whose subset lacks w, runs of 2^(w-1) with period 2^w digits
            lows = []
            for w in range(1, b + 1):
                keep = ((1 << (width << w - 1)) - 1) * ((1 << span) - 1) // ((1 << (width << w)) - 1)
                lows.append((cols[w], cols[w][1:b + 1], keep, off & keep, width << w - 1))
            shifts = range(0, span, width)
            stride = 2 << m
            stop = stride << b
        # layer[mask] = [vec, reach] for the sets of one popcount, mask
        # holding m and the paths' vertices above the low block: vec[i]
        # sums the paths m -> m+i on exactly mask (digit L of it, with the
        # low vertices in L, when packed), reach ORs succ over its nonzero
        # ends.
        layer = {1: [[1] + [0] * h, succ[0]]}
        while layer:
            nxt: dict[int, list] = {}
            while layer:
                mask, (vec, reach) = layer.popitem()
                if b:
                    # paths on mask end at m or above the block; each round
                    # steps every path of the last one to a low vertex w
                    # not in its digit's subset, moving digit L to L + {w}
                    new = [((sum(map(mul, vec, col)) + off & keep) - offk) << shift
                           for col, _, keep, offk, shift in lows]
                    ends = new
                    for _ in range(b - 1):
                        if not any(new):
                            break
                        new = [((sum(map(mul, new, low)) + off & keep) - offk) << shift
                               for _, low, keep, offk, shift in lows]
                        ends = list(map(add, ends, new))
                    vec[1:b + 1] = ends
                    for w, v in enumerate(ends, 1):
                        if v:
                            reach |= succ[w]
                if reach & 1:
                    s = sum(map(mul, vec, cols[0]))
                    if s and b:
                        s += off
                        start = mask << m
                        sums = [(s >> t & digit) - half for t in shifts]
                        C[start:start + stop:stride] = sums
                        if len(found) <= cap:
                            found += [(S, c) for S, c in zip(range(start, start + stop, stride), sums) if c]
                    elif s:
                        C[mask << m] = s
                        if len(found) <= cap:
                            found.append((mask << m, s))
                targets = reach & highs & ~mask
                while targets:
                    bit = targets & -targets
                    targets ^= bit
                    i = bit.bit_length() - 1
                    w = sum(map(mul, vec, cols[i]))
                    if w:
                        entry = nxt.get(mask | bit)
                        if entry is None:
                            entry = nxt[mask | bit] = [[0] * (h + 1), 0]
                        entry[0][i] = w
                        entry[1] |= succ[i]
            layer = nxt
        if len(found) <= cap:
            walks[m] = tuple(sorted(found))
    C, walks = tuple(C), tuple(walks)
    return C, walks, _fold_top(C, walks, rows)


def _subset_sums(v: list[int], h: int, op) -> None:
    """In place over 2^h entries indexed by subsets of h bits: for each bit,
    v[X | bit] = op(v[X | bit], v[X]) for every X without it, so op = add
    gives the zeta transform (sums over subsets) and op = sub its inverse,
    the Moebius transform.  Each bit is a few slice operations that run at
    C speed: strided slices, one per offset, while the bit is low, then
    contiguous halves, one per block."""
    size = 1 << h
    for i in range(h):
        step = 1 << i
        span = step << 1
        if step * step <= size // 2:
            for o in range(step):
                v[o + step::span] = map(op, v[o + step::span], v[o::span])
        else:
            for b in range(0, size, span):
                v[b + step:b + span] = map(op, v[b + step:b + span], v[b:b + step])


def _rank_zeta(values: Iterable[int], shifts: Sequence[int], h: int) -> list[int]:
    """One factor of a ranked subset convolution over h bits (Bjorklund,
    Husfeldt, Kaski and Koivisto, "Fourier meets Moebius", STOC 2007): the
    value at X packed as digit |X|, value << shifts[X] with shifts[X] =
    W * |X| for a digit width W, then zeta-transformed.  Digit t of the
    pointwise product of two factors at X, once Moebius-transformed, sums
    the products over the pairs (T, U) with T | U = X and |T| + |U| = t, so
    every digit below |X| is 0 and digit |X| is the subset convolution
    itself, summed over the disjoint pairs.  ``_rank_read`` reads it."""
    v = list(map(lshift, values, shifts))
    _subset_sums(v, h, add)
    return v


def _rank_read(v: list[int], shifts: Sequence[int], h: int, width: int, scale: int) -> list[int]:
    """scale times the subset convolution at each X, from v, a pointwise
    product of ``_rank_zeta`` factors, Moebius-transformed in place here:
    digit |X| read as a signed residue mod 2^width.  The read is exact
    whenever every convolution value lies in (-2^(width-1), 2^(width-1)):
    the digits below |X| are 0, so they lend it nothing, and the digits
    above it, which may hold anything, are masked off."""
    _subset_sums(v, h, sub)
    digit = (1 << width) - 1
    half = 1 << (width - 1)
    return [scale * ((x >> s & digit ^ half) - half) for x, s in zip(v, shifts)]


# At most this many leading unlisted cover levels are folded into the dp's
# per-matrix top, whose products ``_fold_top`` writes out for f <= 3
# (``python3 scripts/dp_timings.py levels`` sets it to 1).  Each level folded
# halves each further k, but a fourth costs the first k more than it saves
# (14 set partitions to convolve, not 4), as measured when the fold was
# added (CHANGES.md; README "Capacity bounds").
_FOLD = 3


def _fold_top(C: tuple[int, ...], walks: tuple, rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """(P_1, ..., P_f), the folded top of the cover that
    ``_fermionant_dp`` describes: f is the length of the leading run of
    levels 0, 1, ... that ``_cycle_sums`` left unlisted, at most ``_FOLD``,
    so the top is () when level 0 is listed.  With L = {0..f-1} and H the
    other h = n - f vertices, P_j[Z] for Z within H sits at index Z >> f
    and sums the covers of L | Z by j cycles that each meet L.  Grouped by
    the blocks the cycles cut from L, P_j is a sum of ranked subset
    convolutions over H of the slices C_B[Z] = C[B | Z] = C[B::2^f], one
    per partition of L into j blocks B:

        P_1 = C_L, the slice C[2^f - 1::2^f] itself;
        P_2 = C_0 * C_1 at f = 2, and C_0 * C_12 + C_1 * C_02 + C_2 * C_01
              at f = 3;
        P_3 = C_0 * C_1 * C_2.

    Each term of P_j[Z] is a product of entries from the distinct rows of
    L | Z in distinct columns, one permutation counted once, so |P_j[Z]| <=
    R = prod_i max(1, sum_j |a_ij|), and the digit width is W = bits(R) + 1,
    free of k.  The terms of P_2 are summed in the zeta domain and share one
    Moebius transform.  Each pointwise product is masked to its low h + 1
    digits, which is exact: the transforms only add and subtract, so every
    value stays congruent mod 2^(W(h+1)) to the unmasked one, and the read
    of digit |Z| <= h sees only those low bits.  A singleton's zeta
    transform is freed after its last use, its P_2 term at f = 3, and each
    pair's is made only for its term, so at most five transforms are alive
    at once.
    """
    n = len(rows)
    f = 0
    while f < min(_FOLD, n) and walks[f] is None:
        f += 1
    if not f:
        return ()
    step = 1 << f
    p1 = C[step - 1::step]
    if f == 1:
        return (p1,)
    h = n - f
    width = _row_bound(rows).bit_length() + 1
    keep = (1 << width * (h + 1)) - 1
    shifts = [width * Z.bit_count() for Z in range(1 << h)]

    def zeta(block: int) -> list[int]:
        return _rank_zeta(C[block::step], shifts, h)

    def times(u: Iterable[int], v: Iterable[int]) -> Iterable[int]:
        return map(and_, map(mul, u, v), repeat(keep))

    singles = [zeta(1 << i) for i in range(f)]
    last = tuple(_rank_read(list(reduce(times, singles)), shifts, h, width, 1))  # P_f, the singletons' product
    if f == 2:
        return p1, last
    p2 = repeat(0)
    for i in range(3):  # C_i * C_(L - i), popping C_i for its last use
        p2 = list(map(add, p2, times(singles.pop(0), zeta(7 ^ 1 << i))))
    return p1, tuple(_rank_read(p2, shifts, h, width, 1)), last


def _fermionant_dp(a: Matrix, k: int) -> int:
    """The dp route.  Sets are peeled one cycle at a time, the cycle through
    their lowest vertex m, with levels m taken from n-1 down.  A level
    above the folded top (below) is done in one of two ways, as
    ``_cycle_sums`` kept its cycles:

    * list walk -- where m has at most ``_list_cap(h)`` nonzero cycles, h
      the number of vertices above m, each set reads only the listed cycles
      that fit in it;
    * subset convolution -- otherwise the 2^h values F[{m} | X] = -k * sum
      over T within X of C[{m} | T] * F[X - T] form one ranked subset
      convolution (``_rank_zeta``) of the strided slices C[2^m::2^(m+1)]
      and F[0::2^(m+1)], in O(h^2 2^h) digit operations rather than 3^h.
      The sum is over the cycle covers of {m} | X of a product of entries
      times (-k)^(cycles - 1), so its absolute value is at most
      prod_i max(1, sum_j |a_ij|) * max(1, |k|)^n, and the digit width B is
      that bound's bit length plus 1, for the sign.

    The cover is folded at the top.  Let f be the length of the leading run
    of unlisted levels 0, 1, ..., at most ``_FOLD``, L = {0..f-1} and H the
    other h = n - f vertices.  The cycles of a cover of the full set that
    meet L cover L | Z for some Z within H, and the rest cover H - Z (the
    split of a set-partition sum used by Bjorklund, Husfeldt and Koivisto,
    "Set partitioning via inclusion-exclusion", SIAM J. Comput. 2009), so

        F[full] = sum over j = 1..f of (-k)^j * sum over Z of P_j[Z] * F[H - Z]

    with P_j[Z] the weight of the covers of L | Z by j cycles that each
    meet L.  The P_j do not depend on k: ``_fold_top`` builds them once per
    matrix, memoised with the cycle sums, so each k runs only the levels
    from f up and then f dot products with the reversed slice
    F[2^n - 2^f::-2^f], whose entry Z >> f is F[H - Z].  Where level 0 is
    listed, f = 0 and the list walk's last level is level 0.
    """
    n = a.n
    if n > DP_MAX_N:
        raise CapacityError(f"dp fermionant limited to n <= {DP_MAX_N}, got {n}")
    if n == 0:
        return 1
    C, walks, top = _cycle_sums(a)
    full = (1 << n) - 1
    f = len(top)

    # covers: peel off the cycle through the lowest vertex m of each set S,
    # so F[S] reads only sets whose lowest vertex is above m, which the
    # descending m finishes first.  Peeling the full set leaves only sets
    # without vertex 0, and peeling those leaves only their subsets, so the
    # only set with vertex 0 ever read is the full set: level 0, when not
    # folded, walks that set alone.
    negk = -k
    F = [0] * (full + 1)
    F[0] = 1
    if None in walks[f:]:
        width = (max(1, abs(k)) ** n * _row_bound(a.rows)).bit_length() + 1
        # width * |X| for the largest level convolved, and every smaller one
        shifts = [width * X.bit_count() for X in range(1 << (n - 1 - walks.index(None, f)))]
    for m in range(n - 1, f - 1, -1):
        low = 1 << m
        walk = walks[m]
        if walk is None:
            h = n - 1 - m
            stride = low << 1
            cz = list(map(mul, _rank_zeta(C[low::stride], shifts, h), _rank_zeta(F[0::stride], shifts, h)))
            F[low::stride] = _rank_read(cz, shifts, h, width, negk)
        elif walk:  # with no cycle lowest at m, every F[S] here stays 0
            for S in range(low if m else full, full + 1, low << 1):
                acc = 0
                for cyc, c in walk:
                    if cyc & S == cyc:
                        acc += c * F[S ^ cyc]
                F[S] = negk * acc
    if top:
        step = 1 << f
        rest = F[-step::-step]  # F[H - Z] at index Z >> f
        value = sum(negk**j * sum(map(mul, p, rest)) for j, p in enumerate(top, 1))
    else:
        value = F[full]
    return -value if n % 2 else value


def immanant(a: Matrix, lam: Partition) -> int:
    """sum over permutations of chi_lam(pi) * prod A[i, pi(i)].

    The single-column shape gives the determinant, the single row the
    permanent.  chi is a class function, so the sum is grouped by cycle type.
    """
    n = a.n
    if lam.size != n:
        raise ValueError(f"shape {lam} partitions {lam.size}, matrix has dimension {n}")
    return sum(character(lam, mu) * w for mu, w in _class_sums(a))


def fermionant_via_immanants(a: Matrix, k: int) -> int:
    """Fermionant through the character expansion over Young diagrams of
    depth at most k (transposed inside the immanant), for integer k >= 1."""
    n = a.n
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"immanants route requires a positive integer k, got {k!r}")
    if n == 0:
        return 1
    _class_sums(a)  # the brute bound, met before the expansion is built
    return sum(d * immanant(a, lam_t) for lam_t, d in _transposed_expansion(n, k))


@lru_cache(maxsize=None)
def _transposed_expansion(n: int, k: int) -> tuple[tuple[Partition, int], ...]:
    """(transpose(lam), d_lam) over ``schur_weyl_expand(n, k)``, built once
    per (n, k); a tuple, so callers cannot corrupt the memo."""
    return tuple((transpose(lam), d) for lam, d in schur_weyl_expand(n, k).items())


def fermionant(a: Matrix, k: int, algorithm: str = "dp") -> int:
    """Fermionant of a with parameter k via ``brute``, ``dp`` or
    ``immanants``.  k may be any integer for brute/dp; the immanants route
    requires k >= 1.  All routes agree wherever their bounds overlap."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"k must be an integer, got {k!r}")
    if algorithm == "brute":
        return _fermionant_brute(a, k)
    if algorithm == "dp":
        return _fermionant_dp(a, k)
    if algorithm == "immanants":
        return fermionant_via_immanants(a, k)
    raise ValueError(f"unknown algorithm {algorithm!r}; expected brute, dp or immanants")
