"""Dense univariate polynomials over exact rationals or inexact scalars.

A single class covers both arithmetic tracks.  Exact polynomials carry
``fractions.Fraction`` (or int) coefficients and support exact division,
gcd and the square-free part, the last computed modulo word-size primes.  Inexact polynomials carry float,
complex or mpmath values; they only need evaluation and ring arithmetic.
Coefficients are stored densely in ascending order with the leading
coefficient nonzero (the zero polynomial is the empty tuple).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


def _is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and _is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def _is_zero(x) -> bool:
    # inexact scalars trim only on literal zero; tolerances are the caller's job
    return x == 0


class Polynomial:
    """Immutable dense polynomial; ``exact`` is True iff all coefficients are rational."""

    __slots__ = ("coeffs", "exact", "_squarefree")

    def __init__(self, coeffs):
        c = _trim(coeffs)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "exact", all(_is_exact_scalar(x) for x in c))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # unpickling through __init__, since __setattr__ forbids restoring slots
        return (Polynomial, (self.coeffs,))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((Fraction(1),))

    @classmethod
    def monomial(cls, degree: int, coeff=Fraction(1)) -> "Polynomial":
        return cls((0,) * degree + (coeff,))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0) if self.exact else 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return "Polynomial(" + " + ".join(terms) + ")"

    # -- ring arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if _is_zero(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "Polynomial":
        return Polynomial(tuple(c * s for c in self.coeffs))

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; works for Fraction, float, complex and mpmath inputs."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return 0 * x
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    # -- exact division machinery -------------------------------------------

    def synthetic_divide(self, r):
        """Divide by (x - r); returns (quotient, remainder)."""
        if self.is_zero:
            return Polynomial.zero(), 0 * r
        out = []
        acc = 0 * r
        for c in reversed(self.coeffs):
            acc = acc * r + c
            out.append(acc)
        rem = out.pop()
        out.reverse()
        return Polynomial(out), rem

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if not (self.exact and other.exact):
            raise ValueError("divmod requires exact polynomials")
        rem = [Fraction(c) for c in self.coeffs]
        den = other.coeffs
        dd = other.degree
        lead = Fraction(den[-1])
        q = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / lead
            q[i - dd] = f
            for j, b in enumerate(den):
                rem[i - dd + j] -= f * b
        return Polynomial(q), Polynomial(rem)

    def __floordiv__(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("exact division has nonzero remainder")
        return q

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Polynomial(tuple(Fraction(c, 1) / lead if self.exact else c / lead
                                for c in self.coeffs))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd by the Euclidean algorithm, exact coefficients only."""
        if not (self.exact and other.exact):
            raise ValueError("gcd requires exact polynomials")
        a, b = self, other
        while not b.is_zero:
            a, b = b, divmod(a, b)[1]
        if a.is_zero:
            return a
        return a.monic()

    def squarefree_part(self) -> "Polynomial":
        """m / gcd(m, m'), monic; its degree counts the distinct roots of m.

        Computed once, by _squarefree_part, and kept in a private slot:
        later calls return the same object."""
        if not hasattr(self, "_squarefree"):
            object.__setattr__(self, "_squarefree", self._squarefree_part())
        return self._squarefree

    def _squarefree_part(self) -> "Polynomial":
        """squarefree_part, uncached.

        Computed modularly (von zur Gathen and Gerhard, Modern Computer
        Algebra, ch. 6).  m is cleared to a primitive integer polynomial
        f with leading coefficient L, and gcd(f, f') is taken modulo a
        fixed sequence of primes below 2^62 that skips the divisors of
        L.  A modular gcd never has lower degree than the rational one,
        so a constant one proves f square-free.  Otherwise only the
        primes of least degree are kept: L g_p is combined across them
        by the Chinese remainder theorem, and the primitive part h of
        its symmetric lift is accepted once the lift stops changing and
        h divides both f and f' exactly over the integers.  Such an h
        divides gcd(f, f') and has at least its degree, so it is the
        gcd, and f / h is returned.
        """
        if self.is_zero:
            raise ValueError("zero polynomial")
        if not self.exact:
            raise ValueError("square-free part requires exact coefficients")
        f = _primitive(self.coeffs)
        df = [k * c for k, c in enumerate(f)][1:]
        lead = f[-1]
        best = None       # least modular gcd degree seen so far
        modulus, lift = 1, None
        for p in map(_prime, itertools.count()):
            if lead % p == 0:
                continue
            g = _gcd_mod(f, df, p)
            if len(g) == 1:
                return self.monic()
            if best is None or len(g) < best:
                # every prime kept so far was unlucky: start over
                best, modulus, lift = len(g), 1, [0] * len(g)
            elif len(g) > best:
                continue   # an unlucky prime
            # CRT step, then the symmetric lift into (-modulus/2, modulus/2]
            step = pow(modulus, -1, p)
            new = [c + modulus * ((lead * t - c) * step % p)
                   for c, t in zip(lift, g)]
            modulus *= p
            half = modulus // 2
            new = [c - modulus if c > half else c for c in new]
            if new != lift:
                lift = new
                continue
            h = _primitive(lift)
            q = _exact_quotient(f, h)
            if q is not None and _exact_quotient(df, h) is not None:
                return Polynomial(tuple(Fraction(c, q[-1]) for c in q))

    def map_coefficients(self, fn) -> "Polynomial":
        return Polynomial(tuple(fn(c) for c in self.coeffs))


# -- Modular square-free part --------------------------------------------------

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(q: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, which is
    deterministic for every q below 3.3 * 10^24."""
    if q < 2:
        return False
    for w in _WITNESSES:
        if q % w == 0:
            return q == w
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime(i: int, bits: int = 62) -> int:
    """The i-th prime below 2^bits, counting down from the largest
    (i = 0); each is found once."""
    q = (1 << bits if i == 0 else _prime(i - 1, bits)) - 1
    while not _is_prime(q):
        q -= 1
    return q


def _primitive(coeffs) -> list:
    """The integer polynomial with positive leading coefficient and
    content 1 that is a rational multiple of coeffs."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _gcd_mod(a, b, p: int) -> list:
    """Monic gcd of two integer polynomials reduced modulo the prime p,
    by the Euclidean algorithm; coefficients ascending."""

    def reduce(c):
        c = [x % p for x in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = reduce(a), reduce(b)
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            f = a[-1] * inv % p
            shift = len(a) - 1 - db
            for j in range(db):
                a[shift + j] = (a[shift + j] - f * b[j]) % p
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _exact_quotient(a, b):
    """a / b when the integer polynomial b divides a in Z[x], else None."""
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c, rem = divmod(r[i], b[-1])
        if rem:
            return None
        q[i - db] = c
        if c:
            for j in range(db):
                r[i - db + j] -= c * b[j]
    if any(r[:db]):
        return None
    return q
