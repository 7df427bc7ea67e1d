"""
When the Perron value is irrational
===================================

The 3-vertex path has spectrum {-sqrt(2), 0, sqrt(2)}.  Nothing about
it is rational beyond the distance counts, so the weighted invariants
have to run in controlled-precision arithmetic while the plain excess
comparison stays exact.  This script shows both tracks side by side.
"""

import os
from fractions import Fraction

from dgexcess import (AnalysisContext, distance_structure, hoffman_polynomial,
                      path, simple_excess, spectral_excess, weighted_excess,
                      weighted_layers, working_dps)

G = path(3)
ctx = AnalysisContext(G)

# The minimal polynomial is x^3 - 2x; its largest root sqrt(2) is the
# Perron value.  The spectrum object keeps the numeric value and
# records that no exact rational certificate exists.
spec = ctx.numeric_spectrum
print("minimal polynomial coeffs:", ctx.basis.minpoly.coeffs)
print("Perron value:", spec.lambda0)
print("exact certificate:", spec.lambda0_exact)

# The excess comparison itself never leaves rational arithmetic: the
# pre-distance polynomials are built from moment bilinear forms, which
# are integer traces.
eps_gamma = simple_excess(ctx.profile, ctx.basis.d, ctx.ds.diameter)
eps_d = spectral_excess(ctx.basis)
print(f"simple excess {eps_gamma} < spectral excess {eps_d}")
assert eps_gamma == Fraction(2, 3) and eps_d == Fraction(8, 9)

# The strict gap already proves the path is not distance-regular.  The
# weighted refinement needs the Hoffman polynomial, whose coefficients
# live in Q(sqrt(2)); it runs on arbitrary-precision floats.
hp = hoffman_polynomial(G)
print("Hoffman track exact:", hp.exact, "dps:", hp.dps)
W = weighted_layers(G, hp, ctx.ds)
print("weighted delta  :", [str(x) for x in W.delta])
print("weighted excess :", weighted_excess(W, ctx.ds, ctx.basis.d))

# Precision is an environment knob.  DGEXCESS_PRECISION sets the
# working digits; the floor is 15 and the default 50.  The knob is
# read at call time, so a child process can tighten it without code
# changes.
print("current working dps:", working_dps())
os.environ["DGEXCESS_PRECISION"] = "80"
try:
    hp80 = hoffman_polynomial(path(3))
    print("at 80 digits, leading coefficient:", hp80.poly.coeffs[-1])
finally:
    os.environ.pop("DGEXCESS_PRECISION", None)

# Sanity: distance counts stay what they were.
ds = distance_structure(G)
print("diameter:", ds.diameter, "distance row 0:", [int(x) for x in ds.dist[0]])
