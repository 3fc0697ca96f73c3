from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fermionant import (
    Partition,
    all_partitions,
    class_size,
    count_ssyt,
    count_syt,
    cycle_type,
    partitions_with_depth_at_most,
    transpose,
)

from oracles import class_sizes_brute, partitions_brute, ssyt_count_brute, syt_count_brute


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bins = draw(st.integers(min_value=1, max_value=n))
    assignment = draw(st.lists(st.integers(0, bins - 1), min_size=n, max_size=n))
    parts = sorted(Counter(assignment).values(), reverse=True)
    return Partition(tuple(parts))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition(()).size == 0
    assert Partition(()).width == 0
    assert Partition(()).depth == 0


def test_partition_rejects_bool_parts():
    # True == 1, so (True, True) would pass as the shape [1, 1]
    with pytest.raises(ValueError, match=r"positive integers, got \(True, True\)"):
        Partition((True, True))
    with pytest.raises(ValueError, match="positive integers"):
        Partition((2, False))


def test_partition_text_round_trip():
    p = Partition((3, 2, 1))
    assert str(p) == "3,2,1"
    assert Partition.from_text("3,2,1") == p
    assert Partition.from_text("") == Partition(())
    assert Partition.from_text(" 3 , 2,1 ") == p


@pytest.mark.parametrize("text", ["+3", "1_0", "\u0661", "3,\u0662", "-3"])
def test_partition_text_parts_are_ascii_digits(text):
    with pytest.raises(ValueError, match="cannot parse partition"):
        Partition.from_text(text)


def test_enumeration_examples():
    assert [p.parts for p in partitions_with_depth_at_most(3, 1)] == [(3,)]
    assert [p.parts for p in partitions_with_depth_at_most(4, 2)] == [(4,), (3, 1), (2, 2)]
    assert [p.parts for p in partitions_with_depth_at_most(0, 5)] == [()]


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_enumeration_against_brute_filter(n, k):
    got = {p.parts for p in partitions_with_depth_at_most(n, k)}
    assert got == partitions_brute(n, k)
    # canonical order: descending lexicographic, no duplicates
    listed = [p.parts for p in partitions_with_depth_at_most(n, k)]
    assert listed == sorted(set(listed), reverse=True)


def test_transpose_examples():
    assert transpose(Partition((3, 1))).parts == (2, 1, 1)
    assert transpose(Partition((4,))).parts == (1, 1, 1, 1)
    assert transpose(Partition(())).parts == ()


@given(partition_strategy())
def test_transpose_involution_and_shape_swap(lam):
    t = transpose(lam)
    assert transpose(t) == lam
    assert t.width == lam.depth
    assert t.depth == lam.width
    assert t.size == lam.size


def test_count_syt_examples():
    assert count_syt(Partition((5,))) == 1
    assert count_syt(Partition((2, 1))) == 2
    assert count_syt(Partition((2, 2))) == 2


def test_count_ssyt_examples():
    assert count_ssyt(Partition((1, 1, 1)), 2) == 0
    assert count_ssyt(Partition((2,)), 2) == 3
    assert count_ssyt(Partition((2, 1)), 2) == 2


def test_hook_formulas_match_enumeration():
    for n in range(0, 7):
        for lam in all_partitions(n):
            assert count_syt(lam) == syt_count_brute(lam.parts), lam
            for k in range(1, 5):
                assert count_ssyt(lam, k) == ssyt_count_brute(lam.parts, k), (lam, k)


def test_class_size_examples():
    assert class_size(Partition((1, 1, 1, 1))) == 1
    assert class_size(Partition((6,))) == 120
    assert class_size(Partition((2, 1))) == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_class_sizes_against_enumeration(n):
    brute = class_sizes_brute(n)
    for mu in all_partitions(n):
        assert class_size(mu) == brute[mu.parts], mu
    total = sum(class_size(mu) for mu in all_partitions(n))
    assert total == sum(brute.values())


def test_cycle_type():
    assert cycle_type((0, 1, 2)).parts == (1, 1, 1)
    assert cycle_type((1, 2, 0)).parts == (3,)
    assert cycle_type((1, 0, 3, 2)).parts == (2, 2)


# Every argument check of the enumerations: a call and the fragment of its message.
REJECTIONS = {
    "depth-n-negative": (lambda: partitions_with_depth_at_most(-1, 2), "n must be nonnegative"),
    "depth-k-zero": (lambda: partitions_with_depth_at_most(3, 0), "k must be positive"),
    "ssyt-k-zero": (lambda: count_ssyt(Partition((2, 1)), 0), "k must be positive"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_every_argument_rejection(case):
    call, fragment = REJECTIONS[case]
    with pytest.raises(ValueError, match=fragment):
        call()
