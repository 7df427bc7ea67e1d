"""Exact matrix arithmetic and the spectral side of the adjacency algebra.

Two arithmetic tracks coexist.  All quantities derivable from integer
matrix entries are exact at any size: every sum over powers of A that
the exact core reads (the moments, the projection tables, the masked
power rule's walk counts, the traces) is a Python integer from one
helper, _power_image, taken straight from float64 products while the
caller's proven bound stays below 2^53, and beyond it recovered by the
Chinese remainder theorem from float64 products modulo word-size
primes, each small enough that float64 stays exact.  The power rows
start from m seed rows, the identity (every vertex, m = n) or e_0
(vertex 0 alone, m = 1, for a certified vertex-transitive digraph,
whose sums are n times their row-0 part), and the primes are sized
from the image's inner length m n.
Fraction-free (Bareiss) elimination on them gives the leading minors,
hence the norms of the orthogonal basis, and the basis polynomials and
the minimal polynomial come from its triangle by fraction-free
back-substitution: the minimal polynomial at once, with integer
coefficients, each basis polynomial's integer numerator when it is
first read.  Every division is exact, and ``fractions.Fraction`` values
are formed only for the output.
Quantities that live at an irrational Perron value go through mpmath at
a working precision controlled by the ``DGEXCESS_PRECISION``
environment variable (decimal digits, default 50), read at call time;
the Perron vectors there are fixed-point integers, refined past that
precision by float64 solves against exact integer residuals.

The direct oracles (classify) read their float64 products of 0/1
distance matrices as they are, since every count there is at most
n < 2^53.  Every other integer matrix product goes through
exact_matmul, which takes the caller's proven bound on the product's
entries and picks the arithmetic from it: a float64 (BLAS) product
below 2^53, int64 below 2^62, Python-integer object arrays beyond.
MatrixPowers, the explicit powers that matrix_polynomial reads (the
analysis evaluates only the conjugation polynomial f(A) that way, and
sums it in float64 since f's coefficients are floats), takes each step
that way, so they escalate from float64 through int64 to object arrays
before any entry can round or overflow; nothing here ever wraps
silently.

The numeric spectrum (spectrum) starts from one float64
np.linalg.eigvals of A, which also seeds the Perron value.  Its
clusters are Newton-polished on the square-free part of the minimal
polynomial: those on the real axis together on float64 arrays
(_newton_real), the others one at a time in complex arithmetic
(_newton_complex).  The two give the same bits: from a real start the
imaginary parts stay zero, and the array pass repeats the complex
loop's products and sums on the real parts.  Only the division needs
care.  A cluster mean is a numpy scalar, float64 when eigvals returned a
real array and complex128 otherwise; the first step from a float64 mean
divides exactly, as Python's complex division does, and every other
step multiplies by the reciprocal, as numpy's complex scalar division
does.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .polynomial import Polynomial, _prime

_INT64_SAFE = 2 ** 62
_FLOAT_EXACT = 2 ** 53   # float64 holds every integer of smaller magnitude


class SpectrumError(RuntimeError):
    """Numeric eigenvalue clustering disagrees with the exact root count."""


class PerronError(RuntimeError):
    """No admissible Perron value (real, positive, simple, maximal modulus)."""


def working_dps() -> int:
    raw = os.environ.get("DGEXCESS_PRECISION", "50")
    try:
        dps = int(raw)
    except ValueError:
        raise ValueError(f"DGEXCESS_PRECISION must be an integer, got {raw!r}")
    return max(dps, 15)


def exact_matmul(P: np.ndarray, Q: np.ndarray, bound: int) -> np.ndarray:
    """P @ Q exactly, for integer matrices with sum_k |P_ik| |Q_kj| <= bound
    for every i, j, a bound the caller has proved.

    Every partial sum is then at most bound in absolute value, so below
    2^53 a float64 (BLAS) product is exact in any summation order and
    is cast back to int64; below 2^62 the product runs in int64, and
    beyond that on Python-int object arrays.  Returns int64 in the first
    two cases and object otherwise.  Operands may be int64, object, or
    float64 holding integers below 2^53; a float64 operand is used as
    is, so a caller that multiplies by the same matrix again converts it
    once.
    """
    if bound < _FLOAT_EXACT:
        return (np.asarray(P, dtype=np.float64)
                @ np.asarray(Q, dtype=np.float64)).astype(np.int64)
    P, Q = (M if M.dtype == object else M.astype(np.int64, copy=False) for M in (P, Q))
    if bound < _INT64_SAFE:
        return P @ Q
    return P.astype(object) @ Q.astype(object)


class MatrixPowers:
    """Lazily extended list I, A, A^2, ... of exact integer matrices, the
    explicit powers that matrix_polynomial reads.  The exact core forms
    none of them: passed in place of a digraph, only A is read.

    Each step is one exact_matmul at the bound max|A^k| times the largest
    absolute column sum of A, so a power is int64 until its entries may
    pass 2^62 and a Python-int object array from then on.
    """

    def __init__(self, A: np.ndarray):
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("square matrix required")
        self.n = A.shape[0]
        self.A = A.astype(np.int64)
        self._pow = [np.eye(self.n, dtype=np.int64), self.A]
        self._max_col = max(int(np.abs(self.A).sum(axis=0).max()), 1)
        # converted once; exact, since every entry is below 2^53 when the
        # column sums are, and exact_matmul converts it back past 2^53
        self._right = self.A.astype(np.float64) if self._max_col < _FLOAT_EXACT else self.A

    def __getitem__(self, k: int) -> np.ndarray:
        if k < 0:
            raise IndexError("negative power")
        while len(self._pow) <= k:
            last = self._pow[-1]
            bound = int(np.abs(last).max()) * self._max_col
            self._pow.append(exact_matmul(last, self._right, bound))
        return self._pow[k]


def matrix_polynomial(p: Polynomial, powers: MatrixPowers) -> np.ndarray:
    """p(A), summed term by term from the constant up, the zero
    coefficients skipped.  A p with float coefficients only (the
    conjugation polynomial) sums in float64: each exact power converted
    to float64 once, which rounds as the Python int to float conversion
    does and raises the same OverflowError past the float range, so the
    entries equal those of the object-array sum.  Any other p (exact, or
    complex) gives an object array, exact when p is."""
    n = powers.n
    real = not p.exact and all(isinstance(c, float) for c in p.coeffs)
    acc = np.zeros((n, n), dtype=np.float64 if real else object)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, c in enumerate(p.coeffs):
            if c == 0:
                continue
            acc = acc + powers[k].astype(np.float64 if real else object) * c
    return acc


def normality_test(A: np.ndarray) -> bool:
    """A A^T == A^T A, exactly, at the bound n max|A|^2 on either product."""
    A = np.asarray(A)
    bound = A.shape[0] * int(np.abs(A).max(initial=0)) ** 2
    if bound < _FLOAT_EXACT:
        A = A.astype(np.float64)    # converted once for both products
    return bool((exact_matmul(A, A.T, bound) == exact_matmul(A.T, A, bound)).all())


# -- Orthogonal monomial basis and the minimal polynomial -------------------

@dataclass(frozen=True)
class MonomialBasis:
    """Monic orthogonal polynomials of A under the trace inner product:
    the pre-distance polynomials.

    polys[k] has degree k and Fraction coefficients; norms2[k] =
    <p_k, p_k> > 0 is a Fraction, the generic layer weight epsilon_k.
    Both come from the fraction-free elimination of the integer moment
    matrix (orthogonal_monomial_basis): norms2 and the minimal
    polynomial, monic with int coefficients, at once, and polys as a
    read-only sequence that back-substitutes p_k on integers on its
    first read,
    polys.numerator(k) = D_{k-1} p_k over polys.denominator(k) = D_{k-1},
    and forms the Fraction polynomial only when polys[k] is read;
    polys.pivots holds the leading minors D_0..D_dhat.
    The first monic residual with norm zero is the minimal polynomial, so
    dhat = its degree minus one = len(polys) - 1, read without forming
    any p_k; d, the number of distinct eigenvalues minus one, is the
    degree of its (memoized) square-free part minus one.
    """

    polys: Sequence
    norms2: tuple
    minpoly: Polynomial

    @property
    def dhat(self) -> int:
        return len(self.polys) - 1

    @property
    def d(self) -> int:
        return self.minpoly.squarefree_part().degree - 1


def _back_substitute(pivots: list, upper: list, k: int) -> tuple:
    """c_k = D_{k-1} p_k, the monic p_k's integer numerator vector (lowest
    degree first), from the elimination's pivots D_i and upper rows.

    c solves U c = 0 on rows 0..k-1, where U[i][i] = D_i and U[i][j] =
    upper[i][j - i - 1] for j > i: pivot row i is an integer combination
    of moment rows 0..i, each orthogonal to p_k.  Starting from c_k =
    D_{k-1}, each c_i is an integer (a minor, by Cramer's rule), so
    every division by D_i is exact.
    """
    c = [0] * k + [pivots[k - 1] if k else 1]
    for i in range(k - 1, -1, -1):
        c[i] = -sum(map(operator.mul, upper[i], c[i + 1:])) // pivots[i]
    return tuple(c)


def _monic(c: tuple, den: int) -> Polynomial:
    """The polynomial c / den with Fraction coefficients."""
    return Polynomial(tuple(Fraction(a, den) for a in c))


class _MonicSequence(Sequence):
    """MonomialBasis.polys, p_0, ..., p_dhat on integers: numerator(k) =
    c_k = D_{k-1} p_k is back-substituted on its first read, and the
    Fraction polynomial p_k = c_k / D_{k-1} is formed from it only when
    p_k itself is read.  pivots holds D_0, ..., D_dhat."""

    def __init__(self, pivots: list, upper: list):
        self.pivots, self._upper = pivots, upper
        self._nums = [None] * len(pivots)
        self._polys = [None] * len(pivots)

    def __len__(self) -> int:
        return len(self._polys)

    def numerator(self, k: int) -> tuple:
        """c_k, the integer coefficients of D_{k-1} p_k."""
        k = range(len(self))[k]
        c = self._nums[k]
        if c is None:
            c = self._nums[k] = _back_substitute(self.pivots, self._upper, k)
        return c

    def denominator(self, k: int) -> int:
        """D_{k-1}, with D_{-1} = 1: p_k = numerator(k) / denominator(k)."""
        k = range(len(self))[k]
        return self.pivots[k - 1] if k else 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        k = range(len(self))[k]
        p = self._polys[k]
        if p is None:
            p = self._polys[k] = _monic(self.numerator(k), self.denominator(k))
        return p

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _MonicSequence)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


def _power_rows(A: np.ndarray, K: int, seed: np.ndarray, p: int = None) -> np.ndarray:
    """seed A^0..seed A^{K-1} as the rows of one float64 array, each
    product flattened, every product reduced modulo p when p is given;
    seed is m float64 rows of length n, here the first m unit rows, and
    A is a float64 matrix whose products the caller has proved exact."""
    m, n = seed.shape
    V = np.empty((K, m * n))
    V[:1] = seed.ravel()    # no row at all when K = 0
    for k in range(1, K):
        P = V[k - 1].reshape(m, n) @ A
        V[k] = (P if p is None else P.astype(np.int64) % p).ravel()
    return V


def _max_row_sum(A: np.ndarray) -> int:
    """r, the largest absolute row sum of A and at least 1: every entry
    of A^k, and every row sum of |A^k|, is at most r^k."""
    return max(int(np.abs(A).sum(axis=1).max()), 1)


def _power_image(A: np.ndarray, K: int, bound: int, image, rows: int = None) -> list:
    """image(V) as exact Python integers (tolist), V the rows of A^0..A^{K-1}
    restricted to their first `rows` rows (all n when not given), each
    power's rows flattened into one row of a float64 array; image is a
    product of V with 0/1 rows or with itself, or a gather.

    bound is the caller's proof that every partial sum of image(V) and
    every entry of V, at most r^(K-1) (_max_row_sum), is at most bound
    in absolute value.  Below 2^53 all of it is taken straight in
    float64.  At or above it the same products run modulo word-size
    primes, small enough that every partial sum of an inner length
    rows * n stays below 2^53, until their product exceeds twice the
    bound, and the Chinese remainder theorem with a symmetric lift gives
    the integers.
    """
    n = A.shape[0]
    seed = np.eye(n if rows is None else rows, n)
    if bound < _FLOAT_EXACT:
        return image(_power_rows(A.astype(np.float64), K, seed)).astype(np.int64).tolist()
    width = seed.size
    bits = (53 - width.bit_length()) // 2
    modulus, lift = 1, None
    for i in itertools.count():
        if modulus > 2 * bound:
            break
        p = _prime(i, bits)
        Ap = (A % p).astype(np.float64)
        assert n * (p - 1) * int(Ap.max(initial=0)) < _FLOAT_EXACT
        assert width * (p - 1) ** 2 < _FLOAT_EXACT
        residues = image(_power_rows(Ap, K, seed, p)).astype(np.int64) % p
        if lift is None:
            lift = residues.astype(object)
        else:
            # p < 2^26, so every int64 product here stays below 2^52
            step = (residues - (lift % p).astype(np.int64)) % p
            lift = lift + modulus * (step * pow(modulus, -1, p) % p).astype(object)
        modulus *= p
    lift[lift > modulus // 2] -= modulus
    return lift.tolist()


def _moment_rows(A: np.ndarray, start: int, K: int, rows: int = None) -> list:
    """Rows start..K-1 of the moment matrix m_ij = n <A^i, A^j>, the sum
    of the entrywise product of A^i and A^j, for j < K, as exact Python
    integers.  With rows = 1, on a certified vertex-transitive digraph,
    each sum is n times its row-0 part, taken at the bound r^(2K-2);
    otherwise it runs over all n rows at the bound n r^(2K-2): |A^i| <=
    r^i entrywise and each row of |A^j| sums to at most r^j."""
    n = A.shape[0]
    rows = n if rows is None else rows
    bound = rows * _max_row_sum(A) ** (2 * K - 2)
    table = _power_image(A, K, bound, lambda V: V[start:] @ V.T, rows)
    if rows == n:
        return table
    return [[n * x for x in row] for row in table]


def orthogonal_monomial_basis(G) -> MonomialBasis:
    """Gram-Schmidt over 1, x, x^2, ... by fraction-free elimination.

    Bareiss elimination (Bareiss 1968) runs row by row on the integer
    moment matrix m_ij = n <A^i, A^j>.  The moment rows come straight
    from float64 products while their bound stays below 2^53, and from
    word-size primes by the Chinese remainder theorem beyond it
    (_moment_rows), rows 0..7 first and then in doubling blocks up to row n, until a
    leading minor vanishes; no power of A is formed as a matrix of big
    integers.  Once row k has been reduced by the pivot rows 0..k-1 it
    holds the leading minor D_k = det(m_ij)_{i,j<=k}
    as its pivot, and <p_k, p_k> = D_k / (n D_{k-1}).  Row k needs only
    m_k0..m_kk: by symmetry, entry k of pivot row i equals the entry row
    k has in column i when pivot i reduces it, so that entry is appended
    to pivot row i as it is read.  Every division is an exact integer
    one.  The first vanishing minor gives the minimal polynomial, formed
    at once by back-substitution (_back_substitute) and kept on
    integers; p_0..p_dhat are back-substituted the same way, each on
    its first read.

    G is a digraph, its adjacency matrix, or a MatrixPowers, of which
    only A is read.  A digraph whose vertex_transitive certificate holds
    takes each moment as n times its row-0 sum; the matrix and the
    MatrixPowers forms always sum over every row.
    """
    A = _adjacency(G)
    n = A.shape[0]
    rows = 1 if getattr(G, "vertex_transitive", False) else n
    table = []    # rows of m_ij, extended until a leading minor vanishes
    pivots = []   # D_0, D_1, ...
    upper = []    # upper[i][j - i - 1]: entry j > i of pivot row i
    norms2 = []
    k = 0
    while True:
        if k == len(table):
            table += _moment_rows(A, k, min(max(2 * k, 8), n + 1), rows)
        row = table[k][:k + 1]
        prev = 1
        for i, piv in enumerate(pivots):
            f = row[i]
            up = upper[i]
            up.append(f)
            for j, u in enumerate(up, i + 1):
                row[j] = (piv * row[j] - f * u) // prev
            prev = piv
        # row[k] = D_k and prev = D_{k-1}
        if row[k] == 0:
            # monic over the integers, so D_{k-1} divides all of c_k
            c = _back_substitute(pivots, upper, k)
            if any(a % prev for a in c):
                raise ArithmeticError("minimal polynomial not integral, moment table corrupt")
            minpoly = Polynomial(tuple(a // prev for a in c))
            return MonomialBasis(_MonicSequence(pivots, upper), tuple(norms2), minpoly)
        if row[k] < 0:
            raise ArithmeticError("negative norm in Gram-Schmidt, moment table corrupt")
        pivots.append(row[k])
        upper.append([])
        norms2.append(Fraction(row[k], n * prev))
        k += 1
        if k > n:
            raise ArithmeticError("minimal polynomial degree exceeded matrix size")


def _adjacency(G) -> np.ndarray:
    """The int64 adjacency matrix of a digraph, a MatrixPowers or the
    matrix itself."""
    A = G.A if isinstance(G, MatrixPowers) else getattr(G, "adjacency", G)
    return np.asarray(A, dtype=np.int64)


def minimal_polynomial(G):
    """Minimal polynomial (monic, integer coefficients) and dhat = deg - 1."""
    m = orthogonal_monomial_basis(G).minpoly
    return m, m.degree - 1


def power_traces(G, m: int):
    """tr(A^0), tr(A^1), ..., tr(A^m) as exact integers, the diagonal sums
    of the power rows (_power_image) at the bound n r^m."""
    A = _adjacency(G)
    n = A.shape[0]
    return _power_image(A, m + 1, n * _max_row_sum(A) ** m,
                        lambda V: V @ np.eye(n).ravel())


# -- Perron value and full spectrum -----------------------------------------

def _poly_mpf(p: Polynomial):
    coeffs = []
    for c in p.coeffs:
        if isinstance(c, Fraction):
            coeffs.append(mpmath.mpf(c.numerator) / c.denominator)
        else:
            coeffs.append(mpmath.mpf(c))
    return Polynomial(coeffs)


def _magnitude(p: Polynomial, x):
    """sum |c_k| |x|^k, the scale of the rounding error when p(x) is
    evaluated by Horner's rule."""
    return sum(abs(c) * abs(x) ** k for k, c in enumerate(p.coeffs))


def refine_real_root(s: Polynomial, seed: float, dps: int):
    """Newton-polish a real root of s to dps digits; certify integer roots.

    Returns (value_mpf, exact) where exact is a Fraction when the root
    is provably rational (monic integer polynomial, so rational means
    integer) and None otherwise.  Evaluating s near the root cancels
    about log10(cond) digits, cond = sum |c_k x^k| / |x s'(x)|, so the
    iteration carries that many guard digits on top of ten.  Raises
    PerronError when the Newton step never falls below the target or
    the polished value leaves a residual above it.
    """
    ds = s.derivative()
    with mpmath.workdps(dps + 10):
        x = mpmath.mpf(seed)
        slope = abs(x * _poly_mpf(ds)(x))
        cond = _magnitude(_poly_mpf(s), x) / slope if slope else 1
    guard = 10 + max(0, int(mpmath.ceil(mpmath.log10(cond))))
    with mpmath.workdps(dps + guard):
        sm = _poly_mpf(s)
        dsm = _poly_mpf(ds)
        eps = mpmath.mpf(10) ** (-(dps + 5))
        converged = False
        for _ in range(200):
            fx = sm(x)
            dfx = dsm(x)
            if dfx == 0:
                break
            step = fx / dfx
            x = x - step
            if abs(step) <= eps * max(1, abs(x)):
                converged = True
                break
        if not converged or abs(sm(x)) > mpmath.mpf(10) ** (-dps) * _magnitude(sm, x):
            raise PerronError(f"Newton refinement from {seed!r} did not converge "
                              f"to a root at {dps} digits")
    with mpmath.workdps(dps + 10):
        c = int(mpmath.nint(x))
        if s(c) == 0 and abs(x - c) < mpmath.mpf(10) ** (-dps):
            return mpmath.mpf(c), Fraction(c)
        return +x, None


def _regular_degree(A: np.ndarray):
    """k when every row and column sum of A is k, else None."""
    row = A.sum(axis=1)
    k = int(row[0])
    if np.all(row == k) and np.all(A.sum(axis=0) == k):
        return k
    return None


def perron_value(A: np.ndarray, minpoly: Polynomial, dps=None):
    """Largest real eigenvalue, refined to working precision and certified
    exact when rational.  Returns (mpf, Fraction | None).  A regular
    digraph of degree k with minpoly(k) = 0 returns k at once; any other
    is polished on minpoly's square-free part, computed once per minpoly,
    from the largest real float64 eigenvalue."""
    if dps is None:
        dps = working_dps()
    return _perron_value(A, minpoly, dps, lambda: _eigenvalues(A))


def _eigenvalues(A: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals of A in float64: a float64 array when every
    eigenvalue comes out real, a complex128 one otherwise."""
    return np.linalg.eigvals(A.astype(np.float64))


def _perron_value(A: np.ndarray, minpoly: Polynomial, dps: int, eigenvalues):
    """perron_value at dps digits, its float seed read from eigenvalues(),
    which is called only off the regular fast path and returns
    _eigenvalues(A)."""
    n = A.shape[0]
    if n == 1:
        return mpmath.mpf(0), Fraction(0)
    # integer fast path: a regular graph pins the Perron value to its degree
    k = _regular_degree(A)
    if k is not None and minpoly(k) == 0:
        return mpmath.mpf(k), Fraction(k)
    w = eigenvalues()
    seed = float(max(z.real for z in w if abs(z.imag) < 1e-6 * max(1.0, abs(z))))
    return refine_real_root(minpoly.squarefree_part(), seed, dps)


def _solve_m_matrix(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b exactly for a nonsingular M-matrix of Fractions held
    as an object array.

    Every leading principal minor of such a matrix is positive, so
    Gaussian elimination needs no pivoting and each pivot is checked to
    be positive.  Skips the zero entries of sparse rows and columns.
    """
    M, b = M.copy(), b.copy()
    m = len(b)
    for k in range(m):
        p = M[k, k]
        if not p > 0:
            raise PerronError("Perron system has a non-positive pivot")
        rows = k + 1 + np.flatnonzero(M[k + 1:, k] != 0)
        if not len(rows):
            continue
        f = M[rows, k] / p
        cols = k + 1 + np.flatnonzero(M[k, k + 1:] != 0)
        if len(cols):
            M[np.ix_(rows, cols)] -= np.outer(f, M[k, cols])
        b[rows] -= f * b[k]
    x = np.empty(m, dtype=object)
    for k in range(m - 1, -1, -1):
        acc = b[k]
        for j in k + 1 + np.flatnonzero(M[k, k + 1:] != 0):
            acc = acc - M[k, j] * x[j]
        x[k] = acc / M[k, k]
    return x


def _exact_perron_vector(A: np.ndarray, lam: Fraction) -> np.ndarray:
    """Right Perron vector of A at a rational lam, as Python integers."""
    m = A.shape[0] - 1
    M = np.array([[lam * (i == j) - int(A[i, j]) for j in range(m)]
                  for i in range(m)], dtype=object)
    x = _solve_m_matrix(M, np.array([Fraction(int(c)) for c in A[:-1, -1]], dtype=object))
    scale = math.lcm(*(c.denominator for c in x))
    x = np.array([int(c * scale) for c in x] + [scale], dtype=object)
    if A[-1].astype(object).dot(x) != lam * scale:
        raise PerronError("Perron vector misses the dropped equation")
    return x


def _refined_perron_vector(A: np.ndarray, lam, dps: int) -> np.ndarray:
    """Right Perron vector of A at an mpf lam, as Python integers in fixed
    point with the last entry 2^bits, by mixed-precision iterative
    refinement: each step forms the residual of the principal system
    exactly on integers and solves for the correction in float64.

    Raises PerronError when the float64 solve fails, when the
    corrections do not fall below 2^-(dps+5 digits) max|x| within
    bits/8 steps (a step that gains less than a byte is diverging), when
    an entry is not positive, or when the dropped equation misses by
    more than 10^(-dps//2) relative.
    """
    bits = math.ceil((dps + 20) * math.log2(10))
    tol = math.ceil((dps + 5) * math.log2(10))
    one = 1 << bits
    L = int(mpmath.ldexp(lam, bits))
    Ap = A[:-1, :-1].astype(object)
    b = A[:-1, -1].astype(object) * one
    M = float(lam) * np.eye(len(b)) - A[:-1, :-1]
    x = np.zeros(len(b), dtype=object)
    for _ in range(bits // 8):
        r = b - ((x * L) >> bits) + Ap.dot(x)
        try:
            dx = np.linalg.solve(M, [ri / one for ri in r])
            step = np.array([(p << bits) // q for p, q in map(float.as_integer_ratio, dx)],
                            dtype=object)
        except (np.linalg.LinAlgError, OverflowError, ValueError):
            # singular or non-finite in float64
            raise PerronError("Perron vector refinement lost the float64 solve") from None
        x += step
        if max(map(abs, step)) << tol <= max(map(abs, x)):
            break
    else:
        raise PerronError(f"Perron vector refinement did not converge at {dps} digits")
    if not all(c > 0 for c in x):
        raise PerronError("Perron vector has a non-positive entry")
    x = np.append(x, one)
    dropped = A[-1].astype(object).dot(x)
    if abs(dropped - L) * 10 ** (dps // 2) > dropped + L:
        raise PerronError("Perron vector misses the dropped equation")
    return x


def perron_vectors(A: np.ndarray, lambda0):
    """Right and left Perron vectors u, v (A u = lambda0 u, v^T A = lambda0 v^T).

    Any positive rescaling of u or v leaves u v^T / (v^T u) unchanged;
    both come back as object arrays of positive Python integers.  A
    regular digraph gives the all-ones vectors.  Otherwise each comes
    from the principal (n-1) x (n-1) system of lambda0 I - A with its
    last entry fixed; the system is nonsingular because A is irreducible
    and nonnegative.  It is solved exactly when lambda0 is rational, and
    otherwise by iterative refinement in fixed point to the current
    mpmath precision plus twenty digits.  Either way the dropped n-th
    equation is checked (exactly, or to half the digits) and a miss
    raises PerronError.
    """
    A = np.asarray(A)
    n = A.shape[0]
    if _regular_degree(A) is not None:
        ones = np.ones(n, dtype=np.int64).astype(object)
        return ones, ones
    if isinstance(lambda0, (int, Fraction)):
        lam = Fraction(lambda0)
        return _exact_perron_vector(A, lam), _exact_perron_vector(A.T, lam)
    lam, dps = mpmath.mpf(lambda0), mpmath.mp.dps
    return _refined_perron_vector(A, lam, dps), _refined_perron_vector(A.T, lam, dps)


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues with multiplicities, Perron value first.

    values holds (complex, multiplicity) pairs; multiplicities sum to n.
    lambda0 is an mpmath refinement of the Perron value and
    lambda0_exact its Fraction certificate when rational.  d counts
    distinct eigenvalues minus one and is exact (degree of the
    square-free part of the minimal polynomial); dhat comes from the
    minimal polynomial itself.
    """

    values: tuple
    lambda0: object
    lambda0_exact: object
    n: int
    d: int
    dhat: int

    @property
    def exact_lambda0(self) -> bool:
        return self.lambda0_exact is not None


def _newton_complex(coeffs, dcoeffs, z, iterations=80):
    for _ in range(iterations):
        f = 0.0 + 0.0j
        for c in reversed(coeffs):
            f = f * z + c
        df = 0.0 + 0.0j
        for c in reversed(dcoeffs):
            df = df * z + c
        if df == 0:
            return z
        step = f / df
        z = z - step
        if abs(step) <= 1e-14 * max(1.0, abs(z)):
            break
    return z


def _newton_real(coeffs, dcoeffs, starts, divide_first: bool, iterations=80) -> list:
    """_newton_complex from every real start at once, bit for bit.

    coeffs and dcoeffs are the complex coefficient lists _newton_complex
    takes, all with imaginary part +0.0.  From a real start the
    imaginary parts of z, s(z), s'(z) and the step stay zero while
    everything is finite, and the real parts see exactly the products
    and sums of the complex loop, so one Horner pass over a float64
    array evaluates s and s' at every live start.  Each start keeps its
    own exits: df == 0 leaves it where it is, and a step within 1e-14
    max(1, |z|) stops it after that step.  The step is fr / dfr on the
    first iteration when divide_first is set (a float64 start, which
    Python's complex division divides exactly) and fr * (1 / dfr)
    everywhere else (numpy's complex scalar division).  Returns one
    complex per start, or None for a start whose s, s' or z left the
    finite range, where the complex loop's inf * 0 = nan in the
    imaginary part would no longer match; the caller polishes those
    with _newton_complex.
    """
    z = np.array(starts, dtype=np.float64)
    m = len(z)
    # s and s' side by side: entries 0..m-1 evaluate s, m..2m-1 s', whose
    # leading zero adds exactly nothing to a finite Horner sum
    top = [c.real for c in reversed(coeffs)]
    dtop = [0.0] * (len(coeffs) - len(dcoeffs)) + [c.real for c in reversed(dcoeffs)]
    cols = [np.repeat(pair, m) for pair in zip(top, dtop)]
    live = np.ones(m, dtype=bool)
    stray = np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        for it in range(iterations):
            if not live.any():
                break
            x = np.concatenate((z, z))
            F = cols[0].copy()
            for c in cols[1:]:
                F *= x
                F += c
            f, df = F[:m], F[m:]
            stray |= live & ~(np.isfinite(f) & np.isfinite(df))
            live &= ~stray & (df != 0)
            step = f / df if it == 0 and divide_first else f * (1.0 / df)
            moved = z - step
            z = np.where(live, moved, z)
            stray |= live & ~np.isfinite(moved)
            live &= ~stray & ~(np.abs(step) <= 1e-14 * np.maximum(1.0, np.abs(moved)))
    return [None if bad else complex(x, 0.0) for x, bad in zip(z.tolist(), stray)]


def spectrum(G, cluster_tol=None, minpoly: Polynomial = None, dps=None) -> Spectrum:
    """Numeric spectrum reconciled against the exact distinct-root count.

    Floating eigenvalues (np.linalg.eigvals, computed once and shared
    with the Perron seed) are clustered at cluster_tol (default 1e-8
    times the largest absolute row sum), each cluster Newton-polished
    on the square-free part of the minimal polynomial (computed once
    per minpoly and kept), and coinciding clusters merged.  If the
    survivors do not number exactly its degree the discrepancy is
    raised as SpectrumError rather than absorbed.  The Perron value is
    perron_value's, refined to dps digits.

    The polish takes at most 80 Newton steps from each cluster's mean.
    Clusters on the real axis are polished together on float64 arrays
    (_newton_real), the others one by one in complex arithmetic
    (_newton_complex), with the same values either way: the mean is a
    numpy scalar, so the first step divides exactly when eigvals
    returned a real array and by a reciprocal when it returned a
    complex one, and every later step multiplies by the reciprocal.
    """
    A = _adjacency(G)
    if minpoly is None:
        minpoly = orthogonal_monomial_basis(A).minpoly
    if dps is None:
        dps = working_dps()
    eigenvalues = functools.cache(lambda: _eigenvalues(A))
    return _spectrum(A, cluster_tol, minpoly,
                     lambda: _perron_value(A, minpoly, dps, eigenvalues), eigenvalues)


def _spectrum(A: np.ndarray, cluster_tol, minpoly: Polynomial, perron, eigenvalues) -> Spectrum:
    """spectrum, with the float eigenvalues from eigenvalues(), which
    returns _eigenvalues(A), and the Perron value from perron(), a call
    that returns perron_value's (mpf, Fraction | None).  perron is
    called only once the clusters have passed their checks, so a failed
    clustering raises before any refinement."""
    n = A.shape[0]
    s = minpoly.squarefree_part()
    n_distinct = s.degree
    tol = cluster_tol
    if tol is None:
        tol = 1e-8 * max(1.0, float(np.abs(A).sum(axis=1).max()))

    if n == 1:
        return Spectrum(((0j, 1),), mpmath.mpf(0), Fraction(0), 1, 0, minpoly.degree - 1)

    w = eigenvalues()
    clusters = []  # [sum, count]
    for z in sorted(w, key=lambda z: (z.real, z.imag)):
        placed = False
        for cl in clusters:
            if abs(z - cl[0] / cl[1]) <= tol:
                cl[0] += z
                cl[1] += 1
                placed = True
                break
        if not placed:
            clusters.append([z, 1])

    coeffs = [complex(c) for c in s.coeffs]
    dcoeffs = [complex(c) for c in s.derivative().coeffs]
    starts = [total / count for total, count in clusters]
    real = [i for i, z in enumerate(starts) if z.imag == 0]
    done = dict(zip(real, _newton_real(coeffs, dcoeffs, [starts[i].real for i in real],
                                       w.dtype.kind == "f")))
    polished = []  # [value, mult]
    for i, (start, (_, count)) in enumerate(zip(starts, clusters)):
        z = done.get(i)
        if z is None:
            z = _newton_complex(coeffs, dcoeffs, start)
        for item in polished:
            if abs(z - item[0]) <= tol:
                item[1] += count
                break
        else:
            polished.append([z, count])

    if len(polished) != n_distinct:
        raise SpectrumError(
            f"eigenvalue clustering found {len(polished)} distinct values, "
            f"square-free minimal polynomial has degree {n_distinct}")

    radius = max(abs(z) for z, _ in polished)
    top = [item for item in polished
           if abs(abs(item[0]) - radius) <= tol
           and abs(item[0].imag) <= tol and item[0].real > 0]
    if len(top) != 1:
        raise PerronError(f"{len(top)} candidate Perron clusters at modulus {radius:.6g}")
    if top[0][1] != 1:
        raise PerronError(f"Perron value has multiplicity {top[0][1]}")

    lam_mpf, lam_exact = perron()
    rest = sorted((item for item in polished if item is not top[0]),
                  key=lambda item: (-item[0].real, -item[0].imag))
    lam_complex = complex(float(lam_mpf), 0.0)
    values = ((lam_complex, 1),) + tuple((z, m) for z, m in rest)
    if sum(m for _, m in values) != n:
        raise SpectrumError("multiplicities do not sum to the vertex count")
    return Spectrum(values, lam_mpf, lam_exact, n, n_distinct - 1,
                    minpoly.degree - 1)


def hoffman_ingredients(minpoly: Polynomial, lambda0, dps=None):
    """Split m(x) = (x - lambda0) S(x); returns (S, S(lambda0)).

    Exact when lambda0 is rational; otherwise carried out in mpmath at
    the current precision, and the division remainder m(lambda0) must
    stay within 10^(-dps//2) times the Horner magnitude sum |c_k|
    lambda0^k, the scale its rounding error grows with.  dps is the
    precision lambda0 was refined to, working_dps() when not given.
    """
    if dps is None:
        dps = working_dps()
    if isinstance(lambda0, (int, Fraction)):
        S, rem = minpoly.synthetic_divide(Fraction(lambda0))
        if rem != 0:
            raise ValueError(f"{lambda0} is not a root of the minimal polynomial")
        return S, S(Fraction(lambda0))
    m_mpf = _poly_mpf(minpoly)
    S, rem = m_mpf.synthetic_divide(mpmath.mpf(lambda0))
    if abs(rem) > _magnitude(m_mpf, lambda0) * mpmath.mpf(10) ** (-dps // 2):
        raise ValueError("claimed Perron value leaves a large division residual")
    return S, S(mpmath.mpf(lambda0))
