from __future__ import annotations

import functools
import itertools
import json
import math
import random
from pathlib import Path

import pytest

from fermionant import (
    CapacityError,
    Matrix,
    Partition,
    connected_components,
    cycle_type,
    cycle_type_weight_sums,
    determinant,
    fermionant,
    fermionant_cycle_poly,
    fermionant_via_immanants,
    generate_plane_graph,
    immanant,
    medial_line_adjacency,
    permanent,
    tutte_diagonal,
)
from fermionant import matrixfn

from oracles import (
    colouring_fermionant,
    cycle_cover_fermionant_brute,
    cycle_cover_fermionants_brute,
    cycle_sums_brute,
    folded_top_brute,
)

DP_DENSE_REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs" / "dp_dense.json"


def random_matrix(rng, n, lo=-3, hi=3):
    return Matrix(tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n)))


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix(((1, 2),))
    with pytest.raises(ValueError):
        Matrix(((1.5,),))
    assert Matrix.identity(3).rows[2] == (0, 0, 1)


def test_matrix_rejects_bool_entries():
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        Matrix(((True,),))
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        Matrix(((1, 0), (False, 1)))


def test_determinant_examples():
    assert determinant(Matrix(((2,),))) == 2
    assert determinant(Matrix(((1, 2), (3, 4)))) == -2
    assert determinant(Matrix.identity(5)) == 1
    assert determinant(Matrix(((0, 1), (1, 0)))) == -1


def test_permanent_examples():
    assert permanent(Matrix(((1, 2), (3, 4)))) == 10
    assert permanent(Matrix(((1, 1, 1),) * 3)) == 6
    assert permanent(Matrix(((0, 0), (5, 7)))) == 0


def test_cycle_poly_examples():
    assert fermionant_cycle_poly(Matrix(((5,),))).coeffs == (0, 5)
    assert fermionant_cycle_poly(Matrix.identity(2)).coeffs == (0, 0, 1)
    assert fermionant_cycle_poly(Matrix(((1, 1), (1, 1)))).coeffs == (0, 1, 1)


def test_cycle_poly_specializations():
    rng = random.Random(11)
    for n in range(1, 8):
        for _ in range(5):
            a = random_matrix(rng, n)
            f = fermionant_cycle_poly(a)
            assert f(1) == permanent(a)
            assert (-1) ** n * f(-1) == determinant(a)


def test_fermionant_examples():
    j2 = Matrix(((1, 1), (1, 1)))
    for k in range(-2, 5):
        assert fermionant(j2, k, "brute") == k * k - k
    for n in range(1, 6):
        assert fermionant(Matrix.identity(n), 3, "dp") == 3**n
    c5 = Matrix(
        tuple(
            tuple(1 if j in ((i + 1) % 5, (i - 1) % 5) else 0 for j in range(5))
            for i in range(5)
        )
    )
    assert fermionant(c5, 2, "brute") == 4


def sparse_matrices(rng, n):
    """Zero-heavy inputs: about 70% zeros, a zero diagonal, a permutation
    matrix and a two-block diagonal matrix."""
    entries = (1, -1, 2, -3)

    def entry():
        return 0 if rng.random() < 0.7 else rng.choice(entries)

    yield Matrix(tuple(tuple(entry() for _ in range(n)) for _ in range(n)))
    yield Matrix(tuple(tuple(0 if i == j else rng.choice(entries) for j in range(n)) for i in range(n)))
    perm = list(range(n))
    rng.shuffle(perm)
    yield Matrix(tuple(tuple(rng.choice(entries) if j == perm[i] else 0 for j in range(n)) for i in range(n)))
    cut = rng.randint(0, n)
    yield Matrix(
        tuple(
            tuple(rng.choice(entries) if (i < cut) == (j < cut) else 0 for j in range(n))
            for i in range(n)
        )
    )


def test_fermionant_matches_independent_definition():
    rng = random.Random(5)
    cases = [random_matrix(rng, n) for n in range(1, 6) for _ in range(10)]
    cases += [a for n in range(8) for _ in range(2) for a in sparse_matrices(rng, n)]
    for a in cases:
        rows = [list(r) for r in a.rows]
        for k in (-2, 0, 1, 2, 3):
            expected = cycle_cover_fermionant_brute(rows, k)
            assert fermionant(a, k, "brute") == expected
            assert fermionant(a, k, "dp") == expected


def test_route_agreement():
    rng = random.Random(23)
    for n in range(2, 8):
        for _ in range(10):
            a = random_matrix(rng, n)
            for k in (1, 2, 3):
                brute = fermionant(a, k, "brute")
                assert fermionant(a, k, "dp") == brute
                assert fermionant_via_immanants(a, k) == brute


def test_fermionant_k1_is_determinant():
    rng = random.Random(7)
    for n in range(2, 7):
        a = random_matrix(rng, n)
        assert fermionant(a, 1, "dp") == determinant(a)


def test_conjugation_invariance():
    rng = random.Random(13)
    for n in range(2, 7):
        a = random_matrix(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        b = Matrix(tuple(tuple(a.rows[perm[i]][perm[j]] for j in range(n)) for i in range(n)))
        for k in (1, 2, 3):
            assert fermionant(a, k, "dp") == fermionant(b, k, "dp")


def test_immanant_examples():
    m = Matrix(((1, 2), (3, 4)))
    assert immanant(m, Partition((1, 1))) == determinant(m)
    assert immanant(m, Partition((2,))) == permanent(m)
    j3 = Matrix(((1, 1, 1),) * 3)
    assert immanant(j3, Partition((2, 1))) == 0
    with pytest.raises(ValueError):
        immanant(m, Partition((3,)))


def test_immanant_row_linearity():
    rng = random.Random(17)
    for n in range(2, 6):
        a = random_matrix(rng, n)
        split_row = rng.randrange(n)
        u = [rng.randint(-3, 3) for _ in range(n)]
        v = [a.rows[split_row][j] - u[j] for j in range(n)]

        def with_row(row):
            rows = [list(r) for r in a.rows]
            rows[split_row] = row
            return Matrix(tuple(tuple(r) for r in rows))

        for lam_parts in [(n,), (1,) * n, (n - 1, 1)]:
            lam = Partition(lam_parts)
            assert immanant(a, lam) == immanant(with_row(u), lam) + immanant(with_row(v), lam)


def test_via_immanants_j2_decomposition():
    # depth <= 2 diagrams of 2: [2] with 3 two-letter SSYT pairing with the
    # transposed (determinant) immanant 0, and [1,1] with 1 filling pairing
    # with the permanent immanant 2
    j2 = Matrix(((1, 1), (1, 1)))
    assert immanant(j2, Partition((1, 1))) == 0
    assert immanant(j2, Partition((2,))) == 2
    assert fermionant_via_immanants(j2, 2) == 3 * 0 + 1 * 2 == 2
    assert fermionant(j2, 2, "brute") == 2


def class_sums_by_enumeration(a):
    """Reference class sums: every permutation, typed by partitions.cycle_type;
    a type appears once some permutation of it has nonzero weight."""
    sums = {}
    for perm in itertools.permutations(range(a.n)):
        w = 1
        for i, j in enumerate(perm):
            w *= a.rows[i][j]
        if w:
            mu = cycle_type(perm)
            sums[mu] = sums.get(mu, 0) + w
    return sums


def test_class_sums_match_enumeration():
    rng = random.Random(61)
    for n in range(7):
        for _ in range(12):
            a = Matrix(tuple(tuple(rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)) for _ in range(n)))
            assert cycle_type_weight_sums(a) == class_sums_by_enumeration(a)
    # past n = 6 the transfer holds many chain states per row: two dense
    # matrices, a zero-heavy one and one with a zero diagonal, at n = 7 and 8
    for n in (7, 8):
        zero_heavy, zero_diagonal, _, _ = sparse_matrices(rng, n)
        for a in (random_matrix(rng, n), random_matrix(rng, n), zero_heavy, zero_diagonal):
            assert cycle_type_weight_sums(a) == class_sums_by_enumeration(a), a
    # rows with one nonzero entry among the others, the same with a zero row
    # (no permutation, so no class at all), a permutation matrix (one class)
    # and two blocks (each permutation a pair of block permutations)
    for n in (4, 6, 7):
        rows = [list(r) for r in random_matrix(rng, n).rows]
        for i in rng.sample(range(n), n // 2):
            rows[i] = [0] * n
            rows[i][rng.randrange(n)] = rng.choice((1, -1, 2, -3))
        one_nonzero = Matrix(tuple(map(tuple, rows)))
        rows[rng.randrange(n)] = [0] * n
        assert cycle_type_weight_sums(Matrix(tuple(map(tuple, rows)))) == {}
        _, _, permutation, _ = sparse_matrices(rng, n)
        assert len(cycle_type_weight_sums(permutation)) == 1
        cut = rng.randint(1, n - 1)
        blocks = Matrix(
            tuple(
                tuple(x if (i < cut) == (j < cut) else 0 for j, x in enumerate(r))
                for i, r in enumerate(random_matrix(rng, n).rows)
            )
        )
        for a in (one_nonzero, permutation, blocks):
            assert cycle_type_weight_sums(a) == class_sums_by_enumeration(a), a
    assert cycle_type_weight_sums(Matrix(())) == {Partition(()): 1}
    # the two 3-cycles have weights +1 and -1: the class sum cancels to zero
    # but stays a key, and no other type has a nonzero-weight permutation
    cancel = Matrix(((0, 1, 1), (-1, 0, 1), (1, 1, 0)))
    assert cycle_type_weight_sums(cancel) == {Partition((3,)): 0}
    assert class_sums_by_enumeration(cancel) == {Partition((3,)): 0}


def test_class_sums_memo_is_not_shared_or_bypassed():
    a = Matrix(((1, 2, 0), (0, 3, 1), (4, 0, 5)))
    expected = class_sums_by_enumeration(a)
    sums = cycle_type_weight_sums(a)
    sums[Partition((1, 1, 1))] += 7
    assert cycle_type_weight_sums(a) == expected


def test_dp_cycle_sums_are_memoised_per_matrix(fold_tops):
    rng = random.Random(71)
    a, b = random_matrix(rng, 6), random_matrix(rng, 6)
    # a 6-cycle plus the 1-cycle at vertex 0: its vertices keep cycle lists
    c = Matrix(
        tuple(
            tuple(rng.choice((1, -2, 3)) if j == (i + 1) % 6 or i == j == 0 else 0 for j in range(6))
            for i in range(6)
        )
    )
    expected = {
        (m, k): cycle_cover_fermionant_brute([list(r) for r in m.rows], k) for m in (a, b, c) for k in (1, 2, 3)
    }
    for m in (a, c):
        matrixfn._cycle_sums.cache_clear()
        misses = matrixfn._cycle_sums.cache_info().misses
        for k in (1, 2, 3):
            assert fermionant(m, k, "dp") == expected[m, k]
        assert matrixfn._cycle_sums.cache_info().misses == misses + 1
        sums, walks, top = matrixfn._cycle_sums(m)
        assert isinstance(sums, tuple) and isinstance(walks, tuple) and top == ()
        assert all(w is None or isinstance(w, tuple) for w in walks)
    # the lists are part of the one memoised value, not a second memo
    six_cycle = math.prod(c.rows[i][(i + 1) % 6] for i in range(6))
    assert matrixfn._cycle_sums(c)[1][0] == ((0b1, c.rows[0][0]), (0b111111, six_cycle))
    for k in (1, 2, 3):
        for m in (a, b, c):
            assert fermionant(m, k, "dp") == expected[m, k]
    # a dense top: every k reads the one folded top, built with the cycle
    # sums, so it too is part of the one memoised value
    d = random_matrix(random.Random(72), 10, 1, 3)
    rows = [list(r) for r in d.rows]
    matrixfn._cycle_sums.cache_clear()
    fold_tops.clear()
    assert fermionant(d, -1, "dp") == permanent(d)
    assert fermionant(d, 1, "dp") == determinant(d)
    for k in (2, 3):
        assert fermionant(d, k, "dp") == colouring_fermionant(rows, k)
    assert len(fold_tops) == 1 and len(fold_tops[0]) == matrixfn._FOLD
    top = matrixfn._cycle_sums(d)[2]
    assert top is fold_tops[0]
    assert isinstance(top, tuple) and all(isinstance(p, tuple) for p in top)


def test_dp_walks_sparse_and_dense_cycle_lists_in_one_matrix():
    rng = random.Random(83)
    n = 8
    rows = [[0] * n for _ in range(n)]
    # sparse block on vertices 0..2: a 3-cycle, a 2-cycle and two 1-cycles,
    # none lowest at vertex 1
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 2)):
        rows[i][j] = rng.choice((1, -1, 2, -3))
    # dense block on vertices 3..7
    for i in range(3, n):
        for j in range(3, n):
            rows[i][j] = rng.choice((1, -1, 2, -2, 3, -3))
    a = Matrix(tuple(tuple(r) for r in rows))
    _, walks, top = matrixfn._cycle_sums(a)
    assert top == ()  # level 0 is listed
    assert len(walks[0]) == 3 and walks[1] == () and len(walks[2]) == 1
    assert all(isinstance(w, tuple) for w in walks[3:])
    for k in (-2, 0, 1, 2, 3):
        assert fermionant(a, k, "dp") == cycle_cover_fermionant_brute(rows, k)


def test_dp_medial_line_digraphs_match_tutte_diagonal(packed_levels):
    rng = random.Random(97)
    for edges in (8, 9):
        g = generate_plane_graph(rng.randrange(2**31), edges)
        while g.num_edges != edges:
            g = generate_plane_graph(rng.randrange(2**31), edges)
        a = medial_line_adjacency(g)
        assert a.n == 2 * edges
        c, _ = connected_components(g.graph)
        for k in (2, 3):
            assert fermionant(a, k, "dp") == (-k) ** c * tutte_diagonal(g.graph, 1 - k)
        assert any(w is not None for w in matrixfn._cycle_sums(a)[1])
        # two nonzeros a row: the unpacked search at every level
        assert not packed_levels(a)


FORCED_KS = (-2, -1, 0, 1, 2, 3)


@functools.lru_cache(maxsize=None)
def forced_level_cases():
    """Small and zero-heavy matrices, n <= 8, with brute Ferm_k for each k
    in FORCED_KS, enumerated once for every forced level kind."""
    rng = random.Random(89)
    cases = [random_matrix(rng, n) for n in range(1, 7) for _ in range(3)]
    cases += [a for n in range(9) for a in sparse_matrices(rng, n)]
    # diagonal with unit entries at the vertices a forced convolution folds:
    # at k = +-1 the one cover of the others, peeled at the first level
    # above the fold, reaches the dp's digit-width bound exactly
    fold = matrixfn._FOLD
    diagonal = (1,) * fold + (2, -3, 3, -2, 3, 2, -2, 3)[: 8 - fold]
    cases.append(Matrix(tuple(tuple(d if i == j else 0 for j in range(8)) for i, d in enumerate(diagonal))))
    return tuple((a, cycle_cover_fermionants_brute([list(r) for r in a.rows], FORCED_KS)) for a in cases)


@pytest.fixture
def force_level_kind(monkeypatch):
    """Make every cover level take one kind: "list" keeps every level's
    cycles, level 0 included, so each level is a list walk and nothing is
    folded; "convolve" keeps none, so the leading levels with a cycle, up to
    ``_FOLD`` of them, are folded into the per-matrix top and every level
    above them with a cycle is a subset convolution."""

    def force(kind):
        rule = (lambda h: 0) if kind == "convolve" else (lambda h: 1 << h)
        monkeypatch.setattr(matrixfn, "_list_cap", rule)
        matrixfn._cycle_sums.cache_clear()

    yield force
    matrixfn._cycle_sums.cache_clear()


PACKED = ["pack1", "pack2", "pack3", "pack5"]


@pytest.fixture
def force_packing(monkeypatch):
    """Make the cycle-sum search pack every level with h >= 1, at b =
    min(block, h): "pack3" packs the next three vertices, so a level with
    more above it walks several high sets, steps between them and masks
    digits, and one with fewer packs them all.  Returns the blocks the rule
    handed out, so a test can see the packed search ran."""
    blocks = []

    def force(kind):
        block = int(kind.removeprefix("pack"))

        def rule(h, succ):
            blocks.append(min(block, h))
            return blocks[-1]

        monkeypatch.setattr(matrixfn, "_low_block", rule)
        matrixfn._cycle_sums.cache_clear()
        return blocks

    yield force
    matrixfn._cycle_sums.cache_clear()


@pytest.fixture
def packed_levels(monkeypatch):
    """packed_levels(a): the levels m at which a fresh cycle-sum search of a
    packs a low block under the default rule."""
    rule = matrixfn._low_block
    seen = []

    def spy(h, succ):
        seen.append((h, rule(h, succ)))
        return seen[-1][1]

    monkeypatch.setattr(matrixfn, "_low_block", spy)

    def levels(a):
        seen.clear()
        matrixfn._cycle_sums.cache_clear()
        matrixfn._cycle_sums(a)
        assert len(seen) == a.n
        return {a.n - 1 - h for h, b in seen if b}

    yield levels
    matrixfn._cycle_sums.cache_clear()


@pytest.fixture
def fold_tops(monkeypatch):
    """The folded tops built since the fixture started, in order: a spy on
    ``_fold_top``, which the cycle-sum search calls once per matrix."""
    fold = matrixfn._fold_top
    built = []

    def spy(C, walks, rows):
        built.append(fold(C, walks, rows))
        return built[-1]

    monkeypatch.setattr(matrixfn, "_fold_top", spy)
    matrixfn._cycle_sums.cache_clear()
    yield built
    matrixfn._cycle_sums.cache_clear()


def folded_levels(fold_tops, a):
    """How many leading cover levels a fresh cycle-sum search of a folds."""
    matrixfn._cycle_sums.cache_clear()
    matrixfn._cycle_sums(a)
    return len(fold_tops[-1])


@pytest.mark.parametrize("kind", ["convolve", "list", *PACKED])
def test_dp_forced_level_kind_matches_definition(force_level_kind, force_packing, kind):
    """Every cover level of one kind, or every cycle-sum level packed (with
    the default cover rule), against the brute Ferm_k."""
    if kind in PACKED:
        blocks = force_packing(kind)
    else:
        force_level_kind(kind)
    unlisted = set()  # whether a folded level, and one convolved per k, went unlisted
    folds = set()  # the numbers of levels folded into the top
    for a, expected in forced_level_cases():
        _, walks, top = matrixfn._cycle_sums(a)
        folds.add(len(top))
        if kind == "list":
            assert all(isinstance(w, tuple) for w in walks), a
        elif kind == "convolve":
            assert not any(walks), a  # None, or () at a level with no cycle
            unlisted |= {m >= len(top) for m, w in enumerate(walks) if w is None}
        for k, value in expected.items():
            assert fermionant(a, k, "dp") == value, (a, k, kind)
    assert unlisted == ({False, True} if kind == "convolve" else set())
    if kind == "convolve":
        # the full fold at n >= _FOLD, and shorter ones at smaller n
        assert {1, 2, matrixfn._FOLD} <= folds
    elif kind == "list":
        assert folds == {0}
    if kind in PACKED:
        assert max(blocks) == int(kind.removeprefix("pack"))


def test_dp_fold_reads_a_top_value_at_its_width_bound(force_level_kind):
    """Diagonal, n = 10, every level forced unlisted: the 1-cycles are the
    one cover of the folded vertices, so the top is 0 but for P_f[{}], their
    product, which the other entries, all +-1, make equal to the top's
    width bound R = prod_i max(1, sum_j |a_ij|)."""
    force_level_kind("convolve")
    fold = matrixfn._FOLD
    diagonal = (3, -3, 3, 3, -3, 3)[:fold] + tuple((-1) ** i for i in range(10 - fold))
    a = Matrix(tuple(tuple(d if i == j else 0 for j in range(10)) for i, d in enumerate(diagonal)))
    top = matrixfn._cycle_sums(a)[2]
    assert len(top) == fold
    assert top[-1][0] == math.prod(diagonal[:fold]) == -math.prod(map(abs, diagonal))
    assert not any(top[-1][1:]) and not any(map(any, top[:-1]))
    for k in (1, -1, 3, -3):
        assert fermionant(a, k, "dp") == k**10 * math.prod(diagonal)


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_fold_top_matches_cover_enumeration(force_level_kind, monkeypatch, fold):
    """The folded top against the definition: P_j[Z], the weight of the
    permutations of L | Z with j cycles, each meeting L.  Every level is
    forced unlisted and ``_FOLD`` set to fold, so the top folds the leading
    run of levels with a cycle, up to fold of them: dense matrices fold all
    fold levels, zero-heavy ones may stop sooner."""
    monkeypatch.setattr(matrixfn, "_FOLD", fold)
    force_level_kind("convolve")
    rng = random.Random(127)
    cases = [random_matrix(rng, n) for n in range(1, 9)]
    cases += [a for n in range(1, 9) for a in sparse_matrices(rng, n)]
    folds = set()
    for a in cases:
        top = matrixfn._cycle_sums(a)[2]
        folds.add(len(top))
        assert list(map(list, top)) == folded_top_brute([list(r) for r in a.rows], len(top)), a
    assert folds == set(range(fold + 1))


def cycle_sums_cases():
    """n <= 7: dense, zero-heavy, 0/1 and +-1 matrices, the +-1 ones with
    every entry nonzero, so that many sets' path sums cancel to 0; a 2-cycle
    of large entries; and the medial line digraph of a 4-edge plane graph
    (n = 8)."""
    rng = random.Random(113)
    cases = [random_matrix(rng, n) for n in range(1, 8) for _ in range(2)]
    cases += [a for n in range(1, 8) for a in sparse_matrices(rng, n)]
    cases += [random_matrix(rng, n, 0, 1) for n in range(2, 8)]
    signs = [[[rng.choice((1, -1)) for _ in range(n)] for _ in range(n)] for n in range(3, 8) for _ in range(2)]
    cases += [Matrix(tuple(map(tuple, rows))) for rows in signs]
    g = generate_plane_graph(rng.randrange(2**31), 4)
    while g.num_edges != 4:
        g = generate_plane_graph(rng.randrange(2**31), 4)
    # its one cycle sum, c^2, equals the packing's width bound R exactly
    c = 10**6 + 3
    return cases + [Matrix(((0, c), (c, 0))), medial_line_adjacency(g)]


@pytest.mark.parametrize("forced", [None, "list", *PACKED])
def test_cycle_sums_match_cycle_enumeration(force_level_kind, force_packing, forced):
    """The whole memoised (C, walks) against the definition: C[S] summed over
    the cycles on S, and each level's walk as ``_list_cap`` allows it for
    the true cycle count, a kept list holding exactly the nonzero (S, C[S])
    lowest at m in order of S, and None past the cap.  Forcing every level
    to a list also covers the levels too dense to list by default; forcing
    every level to pack covers the packed search on every kind of input."""
    if forced == "list":
        force_level_kind(forced)
    elif forced:
        blocks = force_packing(forced)
    cases = cycle_sums_cases()
    cancelled = 0
    for a in cases:
        expected = cycle_sums_brute([list(r) for r in a.rows])
        C, walks, _ = matrixfn._cycle_sums(a)
        assert C == tuple(expected), a
        for m, walk in enumerate(walks):
            cycles = tuple((S, c) for S, c in enumerate(expected) if c and S & -S == 1 << m)
            listed = forced == "list" or len(cycles) <= matrixfn._list_cap(a.n - 1 - m)
            assert walk == (cycles if listed else None), (a, m)
        if all(all(row) for row in a.rows):
            cancelled += expected[1:].count(0)
    assert cancelled > 0
    # the medial line digraph has a nonempty list level under either rule
    assert any(isinstance(w, tuple) and w for w in matrixfn._cycle_sums(cases[-1])[1])
    if forced in PACKED:
        assert max(blocks) == int(forced.removeprefix("pack"))


def sparse_vertex_matrix(rng, n, v, partner):
    """Dense, except that vertex v reaches only itself and its partner, and
    is reached only from them: level v holds two cycles, so it is a list."""
    rows = [[rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(n)] for _ in range(n)]
    for j in range(n):
        if j not in (v, partner):
            rows[v][j] = 0
            rows[j][v] = 0
    return Matrix(tuple(map(tuple, rows)))


def three_kind_matrix(rng):
    """n = 13 with vertex 3 sparse, its partner vertex 7: vertex 3 has two
    cycles above it (a list walk), the dense vertices 0, 1, 2, 4, 5 and 6
    have h = 6..12 above them and too many cycles to list (0, 1 and 2
    folded into the top, the others subset convolutions), and vertices 7
    and up have h <= 5 (list walks)."""
    return sparse_vertex_matrix(rng, 13, 3, 7)


def test_dp_matches_independent_oracles_at_n_10_to_13(packed_levels, fold_tops):
    rng = random.Random(107)
    huge = Matrix(tuple(tuple(rng.randint(-10**6, 10**6) for _ in range(10)) for _ in range(10)))
    rows = [list(r) for r in random_matrix(rng, 11).rows]
    rows[6] = [0] * 11
    zero_row = Matrix(tuple(map(tuple, rows)))
    # rank 3: a 12x3 by 3x12 product
    u, v = random_matrix(rng, 12).rows, random_matrix(rng, 12).rows
    rank3 = Matrix(tuple(tuple(sum(u[i][t] * v[t][j] for t in range(3)) for j in range(12)) for i in range(12)))
    three_kinds = three_kind_matrix(rng)
    walks = matrixfn._cycle_sums(three_kinds)[1]
    assert {0, 1, 2, 4, 5, 6} == {m for m, w in enumerate(walks) if w is None}
    assert len(walks[3]) == 2 and isinstance(walks[7], tuple)
    dense = random_matrix(rng, 12)
    # vertex 2 sparse: the leading run of unlisted levels stops at level 2
    sparse_two = sparse_vertex_matrix(rng, 12, 2, 9)
    walks = matrixfn._cycle_sums(sparse_two)[1]
    assert walks[0] is None and walks[1] is None and len(walks[2]) == 2
    fold = matrixfn._FOLD
    cases = [
        (huge, (1, -1, 2, 3, 50, -50), fold),
        (zero_row, (1, -1, 2, 3, 50, -50), fold),
        (rank3, (1, -1, 2, 3), fold),
        (dense, (1, -1, 2, 3), fold),
        (three_kinds, (1, -1, 2, 3), min(fold, 3)),
        (sparse_two, (1, -1, 2, 3), 2),
    ]
    for a, ks, folded in cases:
        n = a.n
        rows = [list(r) for r in a.rows]
        assert packed_levels(a), n  # dense enough to pack under the default rule
        assert folded_levels(fold_tops, a) == folded, n
        for k in ks:
            if k == 1:
                expected = determinant(a)
            elif k == -1:
                expected = (-1) ** n * permanent(a)
            else:
                expected = colouring_fermionant(rows, k)
            assert fermionant(a, k, "dp") == expected, (n, k)
    assert determinant(rank3) == 0
    assert all(fermionant(zero_row, k, "dp") == 0 for k in (2, 50))


def test_dp_meets_the_three_congruences_at_n_14_to_16():
    """f(z) = sum over permutations of z^cycles * prod a has integer
    coefficients and Ferm_k = (-1)^n f(-k), so Ferm_k = Ferm_j (mod k - j).
    Three j need no dp: j = 1 gives the Bareiss determinant, j = 0 gives 0
    (every permutation has a cycle), j = -1 gives (-1)^n times the Ryser
    permanent.  Neither kernel shares code with the dp, and large |k| keeps
    the moduli from being vacuous, as k - 1 = 1 is at k = 2."""
    rng = random.Random(113)
    rows = [list(r) for r in random_matrix(rng, 14).rows]
    rows[9] = [0] * 14
    zero_row = Matrix(tuple(map(tuple, rows)))
    # rank 4: a 15x4 by 4x15 product
    u, v = random_matrix(rng, 15).rows, random_matrix(rng, 15).rows
    rank4 = Matrix(tuple(tuple(sum(u[i][t] * v[t][j] for t in range(4)) for j in range(15)) for i in range(15)))
    dense = [random_matrix(rng, n) for n in (14, 15, 16)]
    for a in (zero_row, rank4, *dense):
        n, det, perm = a.n, determinant(a), permanent(a)
        for k in (2, 3, 50, -50):
            ferm = fermionant(a, k, "dp")
            assert (ferm - det) % (k - 1) == 0, (n, k)
            assert ferm % k == 0, (n, k)
            assert (ferm - (-1) ** n * perm) % (k + 1) == 0, (n, k)
    assert determinant(rank4) == 0 and permanent(zero_row) == 0
    assert all(determinant(a) != 0 and permanent(a) != 0 for a in dense)


def test_colouring_oracle_matches_definition():
    rng = random.Random(109)
    for n in range(7):
        for a in (random_matrix(rng, n), *sparse_matrices(rng, n)):
            rows = [list(r) for r in a.rows]
            expected = cycle_cover_fermionants_brute(rows, (-50, -3, -1, 0, 1, 2, 3, 50))
            assert {k: colouring_fermionant(rows, k) for k in expected} == expected


def test_dp_reproduces_pinned_dense_n14_values(packed_levels):
    # read only: three matrices of the benchmark's dense pool, whose Ferm_2
    # and Ferm_3 were confirmed by the colouring expansion when recorded
    refs = json.loads(DP_DENSE_REFS.read_text())
    assert refs["n"] == 14 and refs["confirmed_by"] == "colouring expansion"
    for rows, pinned in list(zip(refs["matrices"], refs["ferm"]))[:3]:
        a = Matrix(tuple(map(tuple, rows)))
        # every entry nonzero: each level with more than a block above it packs
        assert packed_levels(a) == set(range(a.n - 1 - matrixfn._PACK_BLOCK))
        assert None in matrixfn._cycle_sums(a)[1][1:]
        assert fermionant(a, 2, "dp") == int(pinned["2"])
        assert fermionant(a, 3, "dp") == int(pinned["3"])


def test_via_immanants_rejects_bad_k():
    a = Matrix.identity(2)
    with pytest.raises(ValueError):
        fermionant_via_immanants(a, 0)
    with pytest.raises(ValueError):
        fermionant_via_immanants(a, -1)
    for k in (True, 2.0, 1.5):
        with pytest.raises(ValueError, match="integer k"):
            fermionant_via_immanants(a, k)
    assert fermionant_via_immanants(a, 1) == determinant(a)
    b = Matrix(((1, 2, 0), (-1, 3, 2), (2, 0, 1)))
    assert fermionant_via_immanants(b, 5) == fermionant(b, 5, "brute")


def test_capacity_errors():
    big = Matrix.identity(11)
    with pytest.raises(CapacityError):
        fermionant(big, 2, "brute")
    with pytest.raises(ValueError):
        fermionant(big, 2, "magic")
    small = Matrix(((1, 2), (3, 4)))
    for algorithm in ("brute", "dp", "immanants"):
        for k in (2.0, 1.5, True, False):
            with pytest.raises(ValueError, match="k must be an integer"):
                fermionant(small, k, algorithm)
