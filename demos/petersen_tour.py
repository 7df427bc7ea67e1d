"""
A tour of the Petersen graph's distance invariants
==================================================

The Petersen graph is the classic distance-regular example: every
vertex sees 3 neighbours and 6 vertices at distance 2, and those
counts do not depend on the vertex.  This walk-through computes the
whole invariant chain exactly and watches every criterion agree.
"""

from fractions import Fraction

from dgexcess import (AnalysisContext, MatrixPowers, dr_by_simple_set,
                      dr_direct, emit_report, full_report, matrix_polynomial,
                      petersen, q_norm_check, simple_excess, spectral_excess)

G = petersen()
ctx = AnalysisContext(G)

# The distance partition: delta_k is the average size of the distance-k
# sphere, as an exact rational.  For a distance-regular graph the
# average is the pointwise value.
print("order", G.n, "diameter", ctx.ds.diameter)
for k, dk in enumerate(ctx.profile.delta):
    print(f"  delta_{k} = {dk}")

# The simple excess is the average size of the outermost sphere; the
# spectral excess is what the pre-distance polynomial predicts for it.
# Equality is the whole story: it happens exactly when the graph is
# distance-regular.
eps_gamma = simple_excess(ctx.profile, ctx.basis.d, ctx.ds.diameter)
eps_d = spectral_excess(ctx.basis)
print("simple excess ", eps_gamma)
print("spectral excess", eps_d)
assert eps_gamma == eps_d == Fraction(6)

# The direct oracle counts intersection numbers vertex by vertex; the
# spectral criterion never looks at a single pair.  Both say yes.
print("direct oracle:", dr_direct(ctx.ds).decision)
verdict = dr_by_simple_set(G)
print("spectral criterion:", verdict.decision, f"({verdict.method})")

# Distance-regularity has a one-matrix certificate: the Hoffman
# polynomial maps the adjacency matrix to the all-ones matrix.  Its
# coefficients are exact here, so H(A) is too.
H = matrix_polynomial(ctx.hoffman.poly, MatrixPowers(G.adjacency))
print("Hoffman check: H(A) is all ones:", bool((H == 1).all()))
print("H(A) row 0:", [str(x) for x in H[0][:5]], "...")
assert (H == 1).all()

# Petersen is also geodetic: unique shortest paths everywhere, so the
# truncated q-norm hits the order of the graph on the nose.
value, attained = q_norm_check(ctx.basis, G.n)
print("q-norm", value, "attained:", attained)

# The full report bundles everything with cross-checks; the text
# rendering ends in the one-line verdict.
print()
print(emit_report(full_report(G), "text"))
