from __future__ import annotations

import pytest

from fermionant import (
    Partition,
    all_partitions,
    character,
    class_size,
    count_syt,
    schur_weyl_expand,
)

from oracles import fixed_point_count, sign_of_type


def test_trivial_and_sign_characters():
    for n in range(1, 8):
        for mu in all_partitions(n):
            assert character(Partition((n,)), mu) == 1
            assert character(Partition((1,) * n), mu) == sign_of_type(mu.parts)


def test_s3_values():
    # [2,1] is the standard representation of S_3
    assert character(Partition((3,)), Partition((2, 1))) == 1
    assert character(Partition((1, 1, 1)), Partition((3,))) == 1
    assert character(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert character(Partition((2, 1)), Partition((3,))) == -1


@pytest.mark.parametrize("n", range(2, 8))
def test_standard_representation_is_fix_minus_one(n):
    # the permutation representation splits as trivial + standard, so the
    # [n-1, 1] character equals (number of fixed points) - 1 on every class
    lam = Partition((n - 1, 1))
    for mu in all_partitions(n):
        assert character(lam, mu) == fixed_point_count(mu.parts) - 1, mu


def test_character_size_mismatch_rejected():
    with pytest.raises(ValueError):
        character(Partition((2, 1)), Partition((2,)))


def test_empty_partition_character():
    assert character(Partition(()), Partition(())) == 1


def test_identity_column_equals_syt_counts():
    for n in range(0, 9):
        identity = Partition((1,) * n)
        for lam in all_partitions(n):
            assert character(lam, identity) == count_syt(lam), lam


@pytest.mark.parametrize("n", range(1, 8))
def test_column_orthogonality(n):
    import math

    lams = all_partitions(n)
    mus = all_partitions(n)
    for a in lams:
        for b in lams:
            total = sum(
                class_size(mu) * character(a, mu) * character(b, mu) for mu in mus
            )
            assert total == (math.factorial(n) if a == b else 0), (a, b)


def test_schur_weyl_examples():
    assert schur_weyl_expand(2, 2) == {Partition((2,)): 3, Partition((1, 1)): 1}
    assert schur_weyl_expand(1, 5) == {Partition((1,)): 5}


def test_schur_weyl_identity():
    for n in range(1, 9):
        for k in range(1, 5):
            expansion = schur_weyl_expand(n, k)
            assert all(lam.depth <= k for lam in expansion)
            for mu in all_partitions(n):
                total = sum(d * character(lam, mu) for lam, d in expansion.items())
                assert total == k ** mu.depth, (n, k, mu)


# Every argument check of the expansion: a call and the fragment of its message.
REJECTIONS = {
    "n-zero": (lambda: schur_weyl_expand(0, 2), "n must be positive"),
    "k-zero": (lambda: schur_weyl_expand(3, 0), "k must be positive"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_every_argument_rejection(case):
    call, fragment = REJECTIONS[case]
    with pytest.raises(ValueError, match=fragment):
        call()
