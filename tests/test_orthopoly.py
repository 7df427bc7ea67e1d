"""Pre-distance polynomials, spectral routes and the Hoffman polynomial.

Claims checked:
  * exact pre-distance data on the named graphs (norms, and the layer
    weights delta_k against them)
  * the float spectral route reproduces the exact coefficients, and
    its Gram-Schmidt on Python floats gives the bits (and the lost-rank
    alarm) of the same steps on numpy scalars
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
from dgexcess.generators import circulant, paley_tournament
from dgexcess.linalg import SpectrumError
from dgexcess.orthopoly import _moment_matrix


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


def _numpy_scalar_predistance(spec):
    """Gram-Schmidt on numpy scalars and arrays, as spectral_predistance
    first did it: (polys, norms2) or the SpectrumError text."""
    mu = _moment_matrix(spec, max(spec.dhat + 1, 1))
    polys, norms2 = [], []
    for k in range(spec.dhat + 1):
        r = np.zeros(k + 1)
        r[k] = 1.0
        for j, pj in enumerate(polys):
            ip = sum(c * mu[i, k] for i, c in enumerate(pj))
            r[:len(pj)] -= (ip / norms2[j]) * pj
        nrm = float(sum(c * mu[i, k] for i, c in enumerate(r)))
        if nrm <= 0:
            return f"spectral Gram-Schmidt lost rank at degree {k}"
        polys.append(r)
        norms2.append(nrm)
    return polys, norms2


def test_spectral_predistance_on_floats_equals_the_numpy_scalar_route():
    digraphs = [petersen(), hypercube(4), directed_cycle(9), paley_tournament(19),
                path(12), path(32), circulant(9, (2, 3, 4, 6, 8)),
                circulant(12, (5, 7, 8, 10, 11)), circulant(37, (1, 10, 23))]
    lost = 0
    for G in digraphs:
        spec = spectrum(G)
        want = _numpy_scalar_predistance(spec)
        if isinstance(want, str):
            lost += 1
            with pytest.raises(SpectrumError, match=f"^{want}$"):
                spectral_predistance(spec)
            continue
        got = spectral_predistance(spec)
        assert [[c.hex() for c in p.coeffs] for p in got.polys] == \
            [[float(c).hex() for c in p] for p in want[0]], G.n
        assert [x.hex() for x in got.norms2] == [x.hex() for x in want[1]], G.n
    assert lost == 2       # path(32) at degree 26, circulant(37) at degree 31


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
