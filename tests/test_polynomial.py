"""Exact polynomial arithmetic.

Claims checked:
  * ring operations agree with hand-expanded products and sums
  * Horner evaluation, synthetic division and divmod are consistent
  * monic gcd and the squarefree part behave on known factorizations
  * the modular squarefree part equals m / gcd(m, m') from the rational
    Euclidean gcd, also past an unlucky prime
  * exactness tracking and immutability hold up, and pickling round-trips
  * the primitive integer part of int, Fraction and negative-leading
    coefficient lists matches its definition
"""

import math
import pickle
from fractions import Fraction

import mpmath
import pytest

from dgexcess import (MatrixPowers, Polynomial, enumerate_digraphs,
                      orthogonal_monomial_basis)
from dgexcess.polynomial import _gcd_mod, _prime, _primitive


def P(*coeffs):
    return Polynomial(coeffs)


def test_construction_trims_and_tracks_exactness():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0).is_zero and P().is_zero
    assert P(0).degree == -1
    assert P(1, Fraction(1, 2)).exact
    assert not P(1.0, 2.0).exact


def test_ring_operations():
    p = P(1, 1)            # 1 + x
    q = P(-1, 1)           # x - 1
    assert p * q == P(-1, 0, 1)
    assert p + q == P(0, 2)
    assert p - p == Polynomial.zero()
    assert (-p) + p == Polynomial.zero()
    assert 3 * p == P(3, 3)
    assert p * Polynomial.zero() == Polynomial.zero()
    assert P(1)(17) == 1


def test_evaluation_is_horner_and_generic():
    p = P(Fraction(1), Fraction(-2), Fraction(1))   # (x-1)^2
    assert p(Fraction(3)) == 4
    assert p(1) == 0
    assert abs(p(1.5) - 0.25) < 1e-15
    assert Polynomial.zero()(5) == 0


def test_derivative():
    assert P(5, 3, 0, 2).derivative() == P(3, 0, 6)
    assert P(7).derivative().is_zero


def test_synthetic_division_matches_divmod():
    p = P(-6, 11, -6, 1)   # (x-1)(x-2)(x-3)
    q, r = p.synthetic_divide(2)
    assert r == 0
    assert q * P(-2, 1) == p
    q2, r2 = divmod(p, P(-2, 1))
    assert q2 == q and r2.is_zero


def test_divmod_and_floordiv():
    a = P(Fraction(2), 0, Fraction(1))
    b = P(1, 1)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(a, Polynomial.zero())
    with pytest.raises(ValueError):
        divmod(P(1.0, 1.0), P(1.0))
    with pytest.raises(ValueError):
        P(1, 0, 1) // P(1, 1)
    assert P(-1, 0, 1) // P(1, 1) == P(-1, 1)


def test_gcd_and_squarefree_part():
    a = P(-1, 1) * P(-1, 1) * P(-2, 1)     # (x-1)^2 (x-2)
    b = P(-1, 1) * P(-3, 1)
    assert Polynomial.gcd(a, b) == P(-1, 1)
    assert a.squarefree_part() == P(-1, 1) * P(-2, 1)
    assert a.squarefree_part() is a.squarefree_part()    # computed once
    sq = P(0, -2, 0, 1)                    # x^3 - 2x, already squarefree
    assert sq.squarefree_part() == sq.monic()
    assert Polynomial.gcd(a, Polynomial.zero()) == a.monic()


def test_monic_and_coefficient_access():
    p = P(2, 0, 4)
    assert p.monic() == P(Fraction(1, 2), 0, 1)
    assert p.coeffs[-1] != 1
    assert p.coefficient(1) == 0
    assert p.coefficient(9) == 0


def test_immutability_and_hashing():
    p = P(1, 2)
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(P(1, 2)) == hash(P(1, 2))
    assert P(1, 2) != P(1, 2, 3)


def test_pickle_round_trip():
    exact = P(Fraction(-4, 3), 0, 1)
    inexact = P(mpmath.mpf("0.5"), mpmath.mpf(2) / 3)
    for p in (exact, inexact, P(1, 2), P()):
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.coeffs == p.coeffs and q.exact == p.exact
    assert pickle.loads(pickle.dumps(exact)).squarefree_part() == \
        exact.squarefree_part()


# -- Modular square-free part against the rational Euclidean route -----------

def euclid_squarefree(m):
    return (m // m.gcd(m.derivative())).monic()


def prod(*factors):
    out = P(1)
    for f in factors:
        out = out * f
    return out


def test_squarefree_part_planted_repeated_factors():
    x = P(0, 1)
    cases = [
        prod(P(-1, 1), P(-1, 1), P(-1, 1), P(-1, 1), P(-1, 1)),   # (x-1)^5
        prod(P(1, 0, 1), P(1, 0, 1), P(-2, 1), P(3, 1), P(3, 1), P(3, 1)),
        prod(P(-10 ** 30, 1), P(-10 ** 30, 1), P(7, 1)),
        # the repeated factor has coefficients far past one 62-bit prime,
        # so the Chinese remainder step needs several of them
        prod(P(-2 ** 200, 3), P(-2 ** 200, 3), P(5, 0, -2 ** 150, 1)),
        prod(P(-2, 0, 0, 1), P(-2, 0, 0, 1), x, x, P(1, 1, 1)),
    ]
    for m in cases:
        s = m.squarefree_part()
        assert s == euclid_squarefree(m)
        assert s.coeffs[-1] == 1 and s.degree < m.degree


def test_squarefree_part_non_monic_rational_inputs():
    half, third = Fraction(1, 2), Fraction(2, 3)
    cases = [
        prod(P(-half, 1), P(-half, 1), P(third, 1)).scale(Fraction(3, 2)),
        prod(P(Fraction(-5, 7), Fraction(1, 3)), P(Fraction(-5, 7), Fraction(1, 3)),
             P(1, 0, Fraction(4, 9))).scale(-11),
        P(Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)),
        P(-6, 0, 4),                                          # 4x^2 - 6
    ]
    for m in cases:
        assert m.squarefree_part() == euclid_squarefree(m)


def test_squarefree_part_constants_and_linears():
    for m in (P(1), P(-3), P(Fraction(5, 4)), P(0, 1), P(-7, 2),
              P(Fraction(1, 3), Fraction(-2, 9))):
        s = m.squarefree_part()
        assert s == euclid_squarefree(m)
        assert s.degree == m.degree and s.coeffs[-1] == 1


def test_squarefree_part_of_the_n4_corpus_minimal_polynomials():
    minpolys = {orthogonal_monomial_basis(MatrixPowers(G.adjacency)).minpoly
                for G in enumerate_digraphs(4, "strongly_connected")}
    repeated = 0
    for m in minpolys:
        s = m.squarefree_part()
        assert s == euclid_squarefree(m)
        repeated += s.degree < m.degree
    assert repeated > 0            # some corpus members are not diagonalizable


def test_squarefree_part_survives_an_unlucky_prime():
    p = _prime(0)                  # the first prime the modular route tries
    # 0 and p coincide modulo p, so there the gcd with the derivative
    # gains the factor x and its degree is too high
    square_free = prod(P(0, 1), P(-p, 1))
    repeated = prod(P(0, 1), P(-p, 1), P(-1, 1), P(-1, 1))
    for m in (square_free, repeated):
        f = [int(c) for c in m.coeffs]
        df = [int(c) for c in m.derivative().coeffs]
        true_degree = m.gcd(m.derivative()).degree
        assert len(_gcd_mod(f, df, p)) - 1 == true_degree + 1
        assert m.squarefree_part() == euclid_squarefree(m)
    # a leading coefficient divisible by the first prime skips it
    m = prod(P(-1, p), P(-1, p), P(2, 1))
    assert m.squarefree_part() == euclid_squarefree(m)


def test_squarefree_part_rejects_zero_and_inexact():
    with pytest.raises(ValueError):
        Polynomial.zero().squarefree_part()
    with pytest.raises(ValueError):
        P(1.0, 2.0, 1.0).squarefree_part()
    with pytest.raises(ValueError):
        P(1, 0.5).squarefree_part()


def _primitive_by_definition(coeffs):
    den = 1
    for c in coeffs:
        den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in coeffs]
    content = math.gcd(*ints)
    sign = -1 if ints[-1] < 0 else 1
    return [sign * c // content for c in ints]


def test_primitive_part_of_int_fraction_and_negative_leading_inputs():
    cases = [
        ([2, 4, 6], [1, 2, 3]),
        ([0, -3, 0, -6], [0, 1, 0, 2]),
        ([Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)], [3, -2, 5]),
        ([Fraction(-4, 9), 0, Fraction(2, 3)], [-2, 0, 3]),
        ([1, Fraction(7, 4), -2], [-4, -7, 8]),
        ([-5], [1]),
        ([True, 3], [1, 3]),
        ([Fraction(6, 1), Fraction(-9)], [-2, 3]),
    ]
    for coeffs, expected in cases:
        got = _primitive(coeffs)
        assert got == expected == _primitive_by_definition(coeffs), coeffs
        assert all(type(c) is int for c in got)
    m = orthogonal_monomial_basis(MatrixPowers(
        next(iter(enumerate_digraphs(4, "strongly_connected"))).adjacency)).minpoly
    assert _primitive(m.coeffs) == _primitive_by_definition(m.coeffs)
