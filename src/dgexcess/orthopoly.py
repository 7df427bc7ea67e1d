"""Pre-distance polynomials and their spectral-side counterparts.

The pre-distance polynomials are the monic orthogonal sequence of the
adjacency matrix under the trace inner product; their squared norms are
the generic layer weights that the excess comparisons run on.  Built
twice: exactly from integer moments (linalg.MonomialBasis, which
predistance_polynomials returns once the diameter is checked against
it), and numerically from the spectrum alone.  The two routes agreeing
is one of the standing cross-checks.

Also here: the conjugation polynomial (interpolates z -> conj z on the
spectrum, giving f(A) = A^T exactly when A is normal) and the Hoffman
polynomial H = n S(x) / S(lambda0), with (x - lambda0) S(x) the minimal
polynomial.  The Perron value is simple, so H(A) is the rank-one matrix
n u v^T / (v^T u) built from the right and left Perron vectors, and the
all-ones matrix precisely on regular digraphs.  The analysis uses the
polynomial only for its Perron value and exactness track and never
evaluates it at A: the weighted layers come from the Perron vectors
(excess.weighted_layers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .digraph import Digraph, distance_structure
from .linalg import (MatrixPowers, MonomialBasis, Spectrum, SpectrumError,
                     hoffman_ingredients, minimal_polynomial,
                     orthogonal_monomial_basis, perron_value, working_dps)
from .polynomial import Polynomial


def predistance_polynomials(G: Digraph, powers: MatrixPowers = None,
                            monomial_basis: MonomialBasis = None,
                            structure=None) -> MonomialBasis:
    """The pre-distance basis of G, the monomial basis itself; the
    monomial basis and the distance structure are reused when given.
    powers is not read: the basis reads only G's adjacency matrix.
    Raises ArithmeticError when the diameter exceeds dhat, which no
    consistent moment table allows."""
    if monomial_basis is None:
        monomial_basis = orthogonal_monomial_basis(G)
    if structure is None:
        structure = distance_structure(G)
    D = structure.diameter
    dhat = monomial_basis.dhat
    if D > dhat:
        raise ArithmeticError(f"diameter {D} exceeds minimal polynomial bound {dhat}")
    return monomial_basis


# -- Spectral route ----------------------------------------------------------

@dataclass(frozen=True)
class SpectralBasis:
    polys: tuple
    norms2: tuple


def _moment_matrix(spec: Spectrum, top: int) -> np.ndarray:
    """mu[i, j] = <x^i, x^j> from eigenvalues alone; validated real."""
    lam = np.array([z for z, _ in spec.values], dtype=complex)
    mult = np.array([m for _, m in spec.values], dtype=float)
    V = np.vander(lam, top + 1, increasing=True)
    mu = (V.T * mult) @ V.conj() / spec.n
    scale = max(1.0, float(np.abs(mu).max()))
    if float(np.abs(mu.imag).max()) > 1e-8 * scale:
        raise SpectrumError("spectral moment matrix has a large imaginary part")
    return mu.real


def _dot(p: list, col: list):
    """sum_i p[i] col[i] over i < len(p), added left to right from the
    int 0, one rounding per product and per sum (sum() compensates float
    sums from Python 3.12 on)."""
    acc = 0
    for c, m in zip(p, col):
        acc = acc + c * m
    return acc


def spectral_predistance(spec: Spectrum) -> SpectralBasis:
    """Gram-Schmidt over the spectral inner product, no matrix arithmetic.

    Runs to the known degree bound dhat instead of hunting for a zero
    norm numerically.  p_k starts from x^k and loses, for j = 0..k-1 in
    turn, its projection <p, p_j> / <p_j, p_j> times p_j, each inner
    product taken against column k of the float64 moment matrix
    (_moment_matrix); the squared norm is <p_k, x^k>.  The arithmetic is
    plain Python floats, one IEEE operation per product, sum and
    quotient.  Raises SpectrumError when a squared norm is not positive
    ("lost rank at degree k").
    """
    top = spec.dhat + 1
    cols = _moment_matrix(spec, max(top, 1)).T.tolist()
    polys = []
    norms2 = []
    for k in range(spec.dhat + 1):
        col = cols[k]
        r = [0.0] * k + [1.0]
        for pj, nj in zip(polys, norms2):
            q = _dot(pj, col) / nj
            for i, c in enumerate(pj):
                r[i] = r[i] - q * c
        nrm = float(_dot(r, col))
        if nrm <= 0:
            raise SpectrumError(f"spectral Gram-Schmidt lost rank at degree {k}")
        polys.append(r)
        norms2.append(nrm)
    return SpectralBasis(tuple(Polynomial(tuple(p)) for p in polys), tuple(norms2))


def conjugation_polynomial(spec: Spectrum) -> Polynomial:
    """Lagrange interpolation of z -> conj z on the distinct eigenvalues.

    On a normal adjacency matrix the result satisfies f(A) = A^T, which
    is how transpose-polynomiality gets tested numerically.
    """
    lam = [complex(z) for z, _ in spec.values]
    full = Polynomial((1.0 + 0j,))
    for z in lam:
        full = full * Polynomial((-z, 1.0 + 0j))
    f = Polynomial.zero()
    for z in lam:
        quotient, _ = full.synthetic_divide(z)
        den = quotient(z)
        if abs(den) < 1e-12 * max(1.0, abs(z)) ** max(spec.d, 1):
            raise ValueError("coincident eigenvalues, conjugation polynomial undefined")
        f = f + quotient.scale(np.conj(z) / den)
    coeffs = [complex(c) for c in f.coeffs]
    scale = max([1.0] + [abs(c) for c in coeffs])
    if max([0.0] + [abs(c.imag) for c in coeffs]) > 1e-8 * scale:
        raise SpectrumError("conjugation polynomial has large imaginary coefficients")
    return Polynomial(tuple(c.real for c in coeffs))


# -- Hoffman polynomial ------------------------------------------------------

@dataclass(frozen=True)
class HoffmanPolynomial:
    """H = n S(x) / S(lambda0) with (x - lambda0) S(x) the minimal polynomial."""

    poly: Polynomial
    exact: bool
    lambda0: object          # mpf
    lambda0_exact: object    # Fraction | None
    dps: int


def hoffman_polynomial(G: Digraph, powers: MatrixPowers = None,
                       minpoly: Polynomial = None, dps=None) -> HoffmanPolynomial:
    """H and the Perron value it is scaled at, which perron_value finds
    (at once for a regular digraph, whose degree it is).  powers is not
    read: the minimal polynomial, when not given, comes from G."""
    if dps is None:
        dps = working_dps()
    if minpoly is None:
        minpoly = minimal_polynomial(G)[0]
    return _hoffman_at(G.n, minpoly, perron_value(G.adjacency, minpoly, dps), dps)


def _hoffman_at(n: int, minpoly: Polynomial, perron, dps: int) -> HoffmanPolynomial:
    """H for an n-vertex digraph, scaled at perron = (mpf, Fraction | None),
    the Perron value perron_value returns at dps digits."""
    lam, lam_exact = perron
    if lam_exact is not None:
        S, S0 = hoffman_ingredients(minpoly, lam_exact)
        if S0 == 0:
            raise ArithmeticError("Perron value is a repeated root, Hoffman scaling broke")
        H = S.scale(Fraction(n) / S0)
        return HoffmanPolynomial(H, True, lam, lam_exact, dps)
    with mpmath.workdps(dps):
        S, S0 = hoffman_ingredients(minpoly, lam, dps)
        H = S.scale(n / S0)
    return HoffmanPolynomial(H, False, lam, None, dps)
