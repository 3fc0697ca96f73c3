"""Exact integer polynomials: univariate and bivariate.

UniPolynomial stores coefficients by ascending degree with no trailing
zeros; the zero polynomial has an empty coefficient tuple and degree -1
(sentinel).  BivarPolynomial stores a read-only map from (x_degree, y_degree)
to a nonzero coefficient.  Both are hashable; equality is coefficient-wise
and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping


def _power(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _join_terms(terms: Iterable[tuple[int, str]]) -> str:
    """Signed sum of (nonzero coefficient, monomial) terms in the given order,
    e.g. "x^2 - 3y + 1"; "0" when there are none."""
    out = ""
    for c, mon in terms:
        term = mon if mon and c == 1 else "-" + mon if mon and c == -1 else f"{c}{mon}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


@dataclass(frozen=True)
class UniPolynomial:
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls) -> "UniPolynomial":
        return cls(())

    @classmethod
    def constant(cls, value: int) -> "UniPolynomial":
        return cls((value,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "UniPolynomial":
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return 0

    def __add__(self, other: "UniPolynomial") -> "UniPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return UniPolynomial(tuple(out))

    def __mul__(self, other: "UniPolynomial") -> "UniPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] += u * v
        return UniPolynomial(tuple(out))

    def shift(self, degrees: int) -> "UniPolynomial":
        """Multiply by z^degrees."""
        if not self.coeffs:
            return self
        return UniPolynomial((0,) * degrees + self.coeffs)

    def __call__(self, z: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def to_json(self) -> list[str]:
        """Coefficient array by ascending degree, decimal strings."""
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        return _join_terms(
            (c, _power("z", d)) for d, c in reversed(list(enumerate(self.coeffs))) if c
        )


@dataclass(frozen=True)
class BivarPolynomial:
    coeffs: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        nonzero = {k: v for k, v in self.coeffs.items() if v != 0}
        object.__setattr__(self, "coeffs", MappingProxyType(nonzero))

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __reduce__(self):
        return BivarPolynomial, (dict(self.coeffs),)  # a mappingproxy does not pickle

    @classmethod
    def zero(cls) -> "BivarPolynomial":
        return cls({})

    @classmethod
    def monomial(cls, x_deg: int, y_deg: int, coeff: int = 1) -> "BivarPolynomial":
        return cls({(x_deg, y_deg): coeff})

    def coefficient(self, x_deg: int, y_deg: int) -> int:
        return self.coeffs.get((x_deg, y_deg), 0)

    def __add__(self, other: "BivarPolynomial") -> "BivarPolynomial":
        out = self.coeffs.copy()  # the dict's own copy; dict(proxy) is the slow generic path
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BivarPolynomial(out)

    def __mul__(self, other: "BivarPolynomial") -> "BivarPolynomial":
        out: dict[tuple[int, int], int] = {}
        for (i, j), u in self.coeffs.items():
            for (a, b), v in other.coeffs.items():
                k = (i + a, j + b)
                out[k] = out.get(k, 0) + u * v
        return BivarPolynomial(out)

    def __call__(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def substitute_diagonal(self, sub: UniPolynomial) -> UniPolynomial:
        """Evaluate with x = y = sub(z), yielding a univariate polynomial.

        Used to form T(G; z+1, z+1) from the two-variable Tutte polynomial.
        """
        by_degree = [0] * (1 + max((i + j for i, j in self.coeffs), default=-1))
        for (i, j), c in self.coeffs.items():
            by_degree[i + j] += c
        acc = UniPolynomial.zero()
        for c in reversed(by_degree):
            acc = acc * sub + UniPolynomial.constant(c)
        return acc

    def to_json(self) -> dict[str, str]:
        """Map "x_deg,y_deg" -> decimal-string coefficient, keys sorted."""
        return {f"{i},{j}": str(c) for (i, j), c in sorted(self.coeffs.items())}

    def __str__(self) -> str:
        return _join_terms(
            (c, _power("x", i) + _power("y", j))
            for (i, j), c in sorted(self.coeffs.items(), reverse=True)
        )
