"""Integer partitions / Young diagrams and tableau-counting formulas.

A partition is a weakly decreasing tuple of positive integers.  It plays two
roles here: as the shape of a Young diagram (indexing irreducible characters
of the symmetric group) and as a cycle type (a conjugacy class of S_n, whose
number of parts is the cycle count of any permutation in the class).

All counts are exact Python integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, prod


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive parts; ``Partition(())`` is the
    unique partition of 0 (the empty diagram)."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            if isinstance(p, bool) or not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {self.parts}")
        for a, b in itertools.pairwise(self.parts):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        """Number of rows."""
        return len(self.parts)

    @property
    def width(self) -> int:
        """Length of the first row (0 for the empty diagram)."""
        return self.parts[0] if self.parts else 0

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the comma-separated form used on the command line, e.g.
        "3,2,1": each part ASCII digits, with spaces around it allowed."""
        text = text.strip()
        if not text:
            return cls(())
        tokens = [t.strip() for t in text.split(",")]
        if not all(t.isascii() and t.isdigit() for t in tokens):
            raise ValueError(f"cannot parse partition {text!r}")
        return cls(tuple(map(int, tokens)))


def transpose(lam: Partition) -> Partition:
    """Conjugate diagram: rows become columns.  An involution that swaps
    width and depth."""
    parts = lam.parts
    return Partition(tuple(sum(1 for p in parts if p > i) for i in range(lam.width)))


def partitions_with_depth_at_most(n: int, k: int) -> list[Partition]:
    """All partitions of n with at most k parts, in descending lexicographic
    order ([n] first).  n = 0 yields just the empty partition."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")

    out: list[Partition] = []

    def rec(remaining: int, bound: int, rows_left: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        if rows_left == 0:
            return
        # first part large enough that the rest still fits in rows_left - 1 rows
        for p in range(min(bound, remaining), 0, -1):
            if remaining - p <= p * (rows_left - 1):
                acc.append(p)
                rec(remaining - p, p, rows_left - 1, acc)
                acc.pop()

    rec(n, n, k, [])
    return out


def all_partitions(n: int) -> list[Partition]:
    """All partitions of n, descending lexicographic."""
    return partitions_with_depth_at_most(n, max(n, 1))


def _hook_lengths(lam: Partition) -> list[int]:
    parts = lam.parts
    col = transpose(lam).parts
    return [
        (parts[i] - j) + (col[j] - i) - 1
        for i in range(len(parts))
        for j in range(parts[i])
    ]


def count_syt(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam, by the hook-length
    formula n! / prod(hooks)."""
    n = lam.size
    if n == 0:
        return 1
    return factorial(n) // prod(_hook_lengths(lam))


def count_ssyt(lam: Partition, k: int) -> int:
    """Number of semistandard tableaux of shape lam with entries in {1..k},
    by the hook-content formula prod(k + j - i) / prod(hooks).

    Zero whenever the diagram has more than k rows (the first column cannot
    be filled strictly increasingly), which the content factor k + 1 - depth
    produces automatically.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if lam.size == 0:
        return 1
    num = prod(
        k + j - i for i in range(lam.depth) for j in range(lam.parts[i])
    )
    if num == 0:
        return 0
    return num // prod(_hook_lengths(lam))


def class_size(mu: Partition) -> int:
    """Number of permutations in S_n with cycle type mu: n! / z_mu where
    z_mu = prod over distinct part sizes p of p^m * m!."""
    n = mu.size
    z = 1
    for p, grp in itertools.groupby(mu.parts):
        m = len(list(grp))
        z *= p**m * factorial(m)
    return factorial(n) // z


def cycle_type(perm: tuple[int, ...]) -> Partition:
    """Cycle type of a permutation given in one-line notation on 0..n-1."""
    n = len(perm)
    seen = [False] * n
    lengths: list[int] = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            lengths.append(length)
    lengths.sort(reverse=True)
    return Partition(tuple(lengths))
