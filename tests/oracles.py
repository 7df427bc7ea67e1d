"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: Floyd-Warshall instead of BFS
layering, explicit path enumeration instead of counting DP, schoolbook
matrix products over python ints, textbook Gram-Schmidt straight from
the moment definition, cycle search by DFS.  Slow on purpose, run on
small inputs only; none of it imports the library's linalg internals.
"""

from __future__ import annotations

from fractions import Fraction

INF = None  # unreachable marker in the naive distance matrix


# -- Distances and geodesics -------------------------------------------------

def fw_distances(n, arcs):
    dist = [[0 if u == v else INF for v in range(n)] for u in range(n)]
    for u, v in arcs:
        dist[u][v] = 1
    for w in range(n):
        for u in range(n):
            duw = dist[u][w]
            if duw is INF:
                continue
            for v in range(n):
                dwv = dist[w][v]
                if dwv is INF:
                    continue
                if dist[u][v] is INF or duw + dwv < dist[u][v]:
                    dist[u][v] = duw + dwv
    return dist


def count_geodesics(n, arcs, u, v, dist):
    """Number of shortest directed u->v paths by explicit enumeration."""
    if dist[u][v] is INF:
        return 0
    succ = [[] for _ in range(n)]
    for a, b in arcs:
        succ[a].append(b)
    target = dist[u][v]

    def walk(w, used):
        if w == v:
            return 1 if used == target else 0
        if used >= target:
            return 0
        return sum(walk(x, used + 1) for x in succ[w]
                   if dist[u][x] is not INF and dist[u][x] == used + 1)

    return walk(u, 0)


# -- Schoolbook linear algebra -----------------------------------------------

def _mul(P, A):
    n = len(A)
    return [[sum(P[i][w] * A[w][j] for w in range(n)) for j in range(n)]
            for i in range(n)]


def naive_power(A, k):
    n = len(A)
    P = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(k):
        P = _mul(P, A)
    return P


def naive_power_list(A, top):
    out = [naive_power(A, 0)]
    for _ in range(top):
        out.append(_mul(out[-1], A))
    return out


def naive_matrix_polynomial(coeffs, A):
    """sum_k coeffs[k] A^k entrywise, in the coefficients' own scalars:
    exact for Fractions, at the current precision for mpmath values."""
    n = len(A)
    powers = naive_power_list(A, max(len(coeffs) - 1, 0))
    return [[sum(c * P[i][j] for c, P in zip(coeffs, powers)) for j in range(n)]
            for i in range(n)]


def naive_moment(A, i, j):
    """tr(A^i (A^j)^T) / n as an exact rational."""
    n = len(A)
    P, Q = naive_power(A, i), naive_power(A, j)
    total = sum(P[a][b] * Q[a][b] for a in range(n) for b in range(n))
    return Fraction(total, n)


# -- Textbook Gram-Schmidt over the moment inner product ---------------------

def _poly_ip(p, q, moments):
    total = Fraction(0)
    for a, ca in enumerate(p):
        if ca:
            for b, cb in enumerate(q):
                if cb:
                    total += ca * cb * moments[(a, b)]
    return total


def naive_gram_schmidt(A):
    """Monic orthogonal system for the monomials in A, as coefficient
    lists, plus squared norms and the first linear dependence (the
    minimal polynomial)."""
    n = len(A)
    powers = naive_power_list(A, n)
    moments = {(i, j): Fraction(sum(powers[i][a][b] * powers[j][a][b]
                                    for a in range(n) for b in range(n)), n)
               for i in range(n + 1) for j in range(n + 1)}
    basis, norms = [], []
    for k in range(n + 1):
        r = [Fraction(0)] * k + [Fraction(1)]
        for j, b in enumerate(basis):
            coeff = _poly_ip(r, b, moments) / norms[j]
            r = [rc - coeff * (b[t] if t < len(b) else 0)
                 for t, rc in enumerate(r)]
        norm = _poly_ip(r, r, moments)
        if norm == 0:
            return basis, norms, r
        basis.append(r)
        norms.append(norm)
    raise AssertionError("no linear dependence up to degree n")


def naive_squarefree_degree(m):
    """Degree of the squarefree part of m, via a from-scratch Euclid."""

    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    def rem(a, b):
        a = a[:]
        while len(a) >= len(b) and trim(a):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            a = trim(a)
        return a

    def gcd(a, b):
        a, b = trim(a[:]), trim(b[:])
        while b:
            a, b = b, rem(a, b)
        return a

    deriv = [m[i] * i for i in range(1, len(m))]
    g = gcd(m, deriv)
    return (len(m) - 1) - (len(g) - 1)


def naive_excess_pair(n, arcs):
    """(simple excess, spectral excess) from first principles."""
    A = [[0] * n for _ in range(n)]
    for u, v in arcs:
        A[u][v] = 1
    basis, norms, minpoly = naive_gram_schmidt(A)
    d = naive_squarefree_degree(minpoly) - 1
    dist = fw_distances(n, arcs)
    D = max(x for row in dist for x in row)
    if d > D:
        return Fraction(0), norms[d]
    delta_d = Fraction(sum(1 for u in range(n) for v in range(n)
                           if dist[u][v] == d), n)
    prime_d = Fraction(sum(count_geodesics(n, arcs, u, v, dist)
                           for u in range(n) for v in range(n)
                           if dist[u][v] == d), n)
    return prime_d ** 2 / delta_d, norms[d]


# -- Cycle search ------------------------------------------------------------

def brute_cycles(n, arcs):
    """All directed simple cycle lengths, by DFS from each minimal start."""
    succ = [[] for _ in range(n)]
    for u, v in arcs:
        succ[u].append(v)
    lengths = set()

    def extend(start, w, depth, visited):
        for x in succ[w]:
            if x == start:
                lengths.add(depth + 1)
            elif x > start and x not in visited:
                extend(start, x, depth + 1, visited | {x})

    for s in range(n):
        extend(s, s, 0, {s})
    return lengths


def brute_girth(n, arcs):
    lengths = brute_cycles(n, arcs)
    return min(lengths) if lengths else INF


def brute_odd_girth(n, arcs):
    odd = [x for x in brute_cycles(n, arcs) if x % 2]
    return min(odd) if odd else INF
