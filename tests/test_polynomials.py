from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, strategies as st

from fermionant import BivarPolynomial, UniPolynomial

coeff_lists = st.lists(st.integers(-9, 9), max_size=6)


def test_trailing_zeros_and_degree_sentinel():
    assert UniPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    zero = UniPolynomial((0, 0))
    assert zero.coeffs == ()
    assert zero.degree == -1
    assert zero == UniPolynomial.zero()


def test_uni_arithmetic_and_eval():
    p = UniPolynomial((1, 1))      # 1 + z
    q = UniPolynomial((0, 1))      # z
    assert (p * q).coeffs == (0, 1, 1)
    assert (p + q).coeffs == (1, 2)
    assert p.shift(2).coeffs == (0, 0, 1, 1)
    assert p(4) == 5
    assert (p * p)(-2) == 1
    assert UniPolynomial.monomial(3, 5).coeffs == (0, 0, 0, 5)


def test_uni_serialization_and_str():
    assert UniPolynomial((0, 3, 1)).to_json() == ["0", "3", "1"]
    assert str(UniPolynomial((0, 3, 1))) == "z^2 + 3z"
    assert str(UniPolynomial.zero()) == "0"
    assert str(UniPolynomial((-1, -1))) == "-z - 1"


@given(coeff_lists, coeff_lists, st.integers(-5, 5))
def test_uni_evaluation_is_a_ring_homomorphism(a, b, z):
    p, q = UniPolynomial(tuple(a)), UniPolynomial(tuple(b))
    assert (p + q)(z) == p(z) + q(z)
    assert (p * q)(z) == p(z) * q(z)


def test_bivar_zero_coefficients_dropped():
    p = BivarPolynomial({(1, 0): 1, (0, 1): 0})
    assert p.coeffs == {(1, 0): 1}
    assert p.coefficient(0, 1) == 0


def test_bivar_is_hashable_consistently_with_equality():
    p = BivarPolynomial({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    q = BivarPolynomial({(0, 1): 1, (1, 0): 1, (2, 0): 1, (3, 3): 0})
    assert p == q and hash(p) == hash(q)
    assert len({p, q, BivarPolynomial.zero(), BivarPolynomial({})}) == 2
    assert pickle.loads(pickle.dumps(p)) == p
    assert BivarPolynomial.monomial(1, 0) != BivarPolynomial.monomial(0, 1)


def test_bivar_coefficients_cannot_be_changed():
    source = {(1, 0): 1}
    p = BivarPolynomial(source)
    with pytest.raises(TypeError):
        p.coeffs[(0, 0)] = 5
    source[(0, 0)] = 5
    assert p.coeffs == {(1, 0): 1}
    assert dict(p.coeffs.items()) == {(1, 0): 1}
    assert str(p) == "x" and p.to_json() == {"1,0": "1"}


def test_bivar_arithmetic_and_eval():
    x = BivarPolynomial.monomial(1, 0)
    y = BivarPolynomial.monomial(0, 1)
    p = x * x + x + y
    assert p.coeffs == {(2, 0): 1, (1, 0): 1, (0, 1): 1}
    assert p(2, 2) == 8
    assert p(-1, -1) == -1


def test_bivar_diagonal_substitution():
    x = BivarPolynomial.monomial(1, 0)
    y = BivarPolynomial.monomial(0, 1)
    p = x * x + x + y                       # triangle Tutte polynomial
    sub = UniPolynomial((1, 1))             # z + 1
    assert p.substitute_diagonal(sub).coeffs == (3, 4, 1)
    rng = random.Random(11)
    for _ in range(200):
        terms = rng.randint(0, 8)
        p = BivarPolynomial(
            {(rng.randint(0, 5), rng.randint(0, 5)): rng.randint(-9, 9) for _ in range(terms)}
        )
        sub = UniPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 3))))
        q = p.substitute_diagonal(sub)
        for z in range(-3, 4):
            assert q(z) == p(sub(z), sub(z))


def test_bivar_serialization():
    p = BivarPolynomial({(2, 0): 1, (0, 1): -3})
    assert p.to_json() == {"0,1": "-3", "2,0": "1"}
    assert str(BivarPolynomial.zero()) == "0"
