"""Pre-distance polynomials, spectral routes and the Hoffman polynomial.

Claims checked:
  * exact pre-distance data on the named graphs (norms, and the layer
    weights delta_k against them)
  * the float spectral route reproduces the exact coefficients
  * the conjugation polynomial maps A to its transpose
  * Hoffman polynomial: exact on rational Perron values, high-precision
    otherwise, and H(A) = J exactly for the regular graphs
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from dgexcess import (MatrixPowers, Polynomial, build_digraph, complete,
                      delta_profile, directed_cycle, distance_structure,
                      hoffman_polynomial, hypercube, path, petersen,
                      predistance_polynomials,
                      spectral_predistance, spectrum, conjugation_polynomial)
from dgexcess.generators import paley_tournament


# -- Exact pre-distance basis ------------------------------------------------

def test_predistance_path3():
    G = path(3)
    ds = distance_structure(G)
    basis = predistance_polynomials(G)
    assert basis.d == 2 and ds.diameter == 2
    assert basis.norms2 == (Fraction(1), Fraction(4, 3), Fraction(8, 9))
    # delta_k / epsilon_k = 1, 1, 3/4: the last layer falls short
    assert delta_profile(ds).delta == (Fraction(1), Fraction(4, 3), Fraction(2, 3))
    assert basis.polys[2] == Polynomial((Fraction(-4, 3), 0, 1))


def test_predistance_petersen():
    G = petersen()
    basis = predistance_polynomials(G)
    assert basis.norms2 == (Fraction(1), Fraction(3), Fraction(6))
    # distance-regular: every layer weight equals its norm
    assert delta_profile(distance_structure(G)).delta == basis.norms2


def test_predistance_excess_degenerate_when_d_exceeds_diameter():
    # triangle with a pendant vertex: diameter 2 but four distinct
    # eigenvalues, so the distance matrices stop before the basis does
    paw = build_digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2),
                            (0, 3), (3, 0)])
    basis = predistance_polynomials(paw)
    assert basis.d == 3 and distance_structure(paw).diameter == 2
    assert basis.dhat == 3


# -- Spectral route ----------------------------------------------------------

def test_spectral_predistance_matches_exact():
    for G in (petersen(), directed_cycle(6), hypercube(3)):
        spec = spectrum(G)
        exact = predistance_polynomials(G)
        numeric = spectral_predistance(spec)
        for p, q in zip(exact.polys, numeric.polys):
            for i in range(max(p.degree, q.degree) + 1):
                assert abs(float(p.coefficient(i)) - q.coefficient(i)) < 1e-8


def test_conjugation_polynomial_cycles():
    f3 = conjugation_polynomial(spectrum(directed_cycle(3)))
    assert f3.degree == 2
    assert abs(f3.coefficient(2) - 1) < 1e-8
    assert abs(f3.coefficient(0)) < 1e-8 and abs(f3.coefficient(1)) < 1e-8
    f4 = conjugation_polynomial(spectrum(directed_cycle(4)))
    assert abs(f4.coefficient(3) - 1) < 1e-8


def test_conjugation_fixes_symmetric_and_transposes_tournament():
    spec = spectrum(petersen())
    f = conjugation_polynomial(spec)
    assert abs(f.coefficient(1) - 1) < 1e-8
    G = paley_tournament(7)
    f = conjugation_polynomial(spectrum(G))
    powers = MatrixPowers(G.adjacency)
    fA = sum(f.coefficient(k) * powers[k].astype(float)
             for k in range(f.degree + 1))
    assert np.abs(fA - G.adjacency.T).max() < 1e-8


# -- Hoffman polynomial ------------------------------------------------------

def hoffman_matrix(hp, G):
    """H(A) from the schoolbook matrix polynomial, at the Hoffman
    polynomial's precision when it is numeric."""
    with mpmath.workdps(hp.dps):
        return oracles.naive_matrix_polynomial(hp.poly.coeffs, G.adjacency.tolist())


def test_hoffman_exact_complete():
    hp = hoffman_polynomial(complete(4))
    assert hp.exact and hp.lambda0_exact == 3
    assert hp.poly == Polynomial((1, 1))
    assert hoffman_matrix(hp, complete(4)) == [[1] * 4] * 4


def test_hoffman_exact_petersen_and_cycle():
    hp = hoffman_polynomial(petersen())
    assert hp.exact
    assert hp.poly == Polynomial((-2, 1, 1))       # x^2 + x - 2
    assert hoffman_matrix(hp, petersen()) == [[1] * 10] * 10
    hp6 = hoffman_polynomial(directed_cycle(6))
    assert hp6.poly == Polynomial((1,) * 6)
    assert hoffman_matrix(hp6, directed_cycle(6)) == [[1] * 6] * 6


def test_hoffman_numeric_path3():
    hp = hoffman_polynomial(path(3))
    assert not hp.exact
    with mpmath.workdps(hp.dps):
        assert abs(hp.poly.coefficient(2) - mpmath.mpf(3) / 4) < 1e-30
        assert abs(hp.poly.coefficient(1) - 3 * mpmath.sqrt(2) / 4) < 1e-30
    dev = max(abs(x - 1) for row in hoffman_matrix(hp, path(3)) for x in row)
    assert float(dev) > 0.1                        # H(A) = J needs regularity


def test_hoffman_matrix_rank_one_positive():
    hp = hoffman_polynomial(path(3))
    M = np.array(hoffman_matrix(hp, path(3)), dtype=float)
    assert (M > 0).all()
    s = np.linalg.svd(M, compute_uv=False)
    assert s[1] < 1e-12 * s[0]                     # numerically rank one
