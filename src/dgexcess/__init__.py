"""Exact spectral and metric excess analysis of directed graphs.

The library decides distance-regularity and its weak, geodetic and
weighted relatives two independent ways: combinatorially, by constancy
of intersection counts over distance classes, and spectrally, by exact
equality between excess quantities built from pre-distance polynomials
and the corresponding projection bounds.  Rational arithmetic is exact
throughout; only a certified-irrational Perron value switches the
affected quantities to a high-precision numeric track.
"""

from .digraph import (Digraph, DistanceStructure, DeltaProfile, GraphError,
                      LoopArcError, DuplicateArcError, VertexRangeError,
                      NotStronglyConnectedError, INFINITE, is_infinite,
                      build_digraph, strong_connectivity, distance_structure,
                      delta_profile, girth, odd_girth,
                      bipartite_test, geodetic_test, regularity_test)
from .polynomial import Polynomial
from .linalg import (MatrixPowers, MonomialBasis, Spectrum, SpectrumError,
                     PerronError, matrix_polynomial, normality_test,
                     orthogonal_monomial_basis, minimal_polynomial,
                     power_traces, spectrum, perron_value, hoffman_ingredients,
                     working_dps)
from .orthopoly import (SpectralBasis, HoffmanPolynomial,
                        predistance_polynomials, spectral_predistance,
                        conjugation_polynomial, hoffman_polynomial)
from .excess import (ProjectionTables, ProjectionBound, WeightedLayers,
                     projection_tables, simple_excess, spectral_excess,
                     weighted_layers, weighted_excess, wdr_projection_sum,
                     upper_projection_sum, generalized_projection_sum,
                     projection_sum_totals,
                     q_norm_check, masked_power_check)
from .classify import (Verdict, TrichotomyResult,
                       AnalysisContext, AnalysisReport, InconsistencyAlarm,
                       wdr_direct, dr_direct, dr_by_simple_set,
                       dr_by_weighted_set, geodetic_dr_check, wdr_by_projection, generalized_odd_graph_check,
                       odd_girth_spectral, odd_girth_walks, trichotomy,
                       full_report)
from .generators import (FamilySpec, directed_cycle, complete,
                         complete_bipartite, path, hypercube, petersen,
                         kneser_odd_graph, circulant, paley_tournament,
                         tensor_lift, from_arcs, generate, enumerate_digraphs)
from .reportio import (ParseError, parse_input, parse_text, emit_report,
                       report_to_dict, report_to_text, digraph_to_edgelist,
                       digraph_to_adjmatrix)

__version__ = "0.1.0"
