from __future__ import annotations

import itertools
import random

import pytest

from fermionant import (
    CapacityError,
    Matrix,
    Partition,
    cycle_type,
    cycle_type_weight_sums,
    determinant,
    fermionant,
    fermionant_cycle_poly,
    fermionant_via_immanants,
    immanant,
    permanent,
)

from oracles import cycle_cover_fermionant_brute


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
    with pytest.raises(CapacityError):
        permanent(Matrix.identity(3), max_n=2)


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


def test_fermionant_matches_independent_definition():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(10):
            a = random_matrix(rng, n)
            rows = [list(r) for r in a.rows]
            for k in (-2, 1, 2, 3):
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
    with pytest.raises(CapacityError):
        cycle_type_weight_sums(a, max_n=2)
    with pytest.raises(CapacityError):
        fermionant_cycle_poly(a, max_n=2)


def test_cycle_poly_capacity():
    with pytest.raises(CapacityError):
        fermionant_cycle_poly(Matrix.identity(4), max_n=3)


def test_via_immanants_rejects_bad_k():
    a = Matrix.identity(2)
    with pytest.raises(ValueError):
        fermionant_via_immanants(a, 0)
    with pytest.raises(ValueError):
        fermionant_via_immanants(a, -1)
    with pytest.raises(CapacityError):
        fermionant_via_immanants(a, 5)
    assert fermionant_via_immanants(a, 1) == determinant(a)


def test_capacity_errors():
    big = Matrix.identity(10)
    with pytest.raises(CapacityError):
        fermionant(big, 2, "brute")
    with pytest.raises(CapacityError):
        fermionant(big, 2, "dp", dp_max_n=9)
    with pytest.raises(ValueError):
        fermionant(big, 2, "magic")
