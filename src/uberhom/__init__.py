"""Homology of black/white-coloured simplicial complexes over the two-element
field: per-colouring horizontal and diagonal homology, discrete-Morse tooling
for spotted colourings, the full colour-cube invariant, and graph comparison
built on colouring profiles."""

from .complexes import (MAX_VERTICES, SimplicialComplex, dim_of, format_complex,
                        from_facets, mask_of, read_complex, standard_complex,
                        vertices_of)
from .coloured import (BlockHomology, Colouring, GradedEulerPoly, black_subcomplex,
                       diagonal_homology, filtered_homology, flatten, graded_euler,
                       horizontal_homology, horizontal_homology_with_bases,
                       simplicial_homology, weight)
from .errors import (CapExceeded, ColouringMismatch, ComplexError, EngineError,
                     InvalidColouring, ParseError, UberhomError)
from .graphs import (Dissimilarity, SimpleGraph, ThetaLevel, closed_form_signature,
                     complete_bipartite_graph, complete_graph, cycle_graph,
                     delta_lower_bounds, dissimilarity, encode_graph6,
                     first_differing_level, girth, graph_as_complex, grid_graph,
                     h0_graph, h1_0, h1_1, h2_graph, hypercube_graph, matching_complex,
                     matching_complex_of_edges, maximal_spacious_trees,
                     min_vertex_cover_size, parse_graph6, path_graph, prism_graph,
                     spacious_trees, theta, theta_classes, vertex_cover_bijection_check)
from .morse import (DalmatianForm, MorseReport, dalmatian_closed_form,
                    elementary_decomposition, induced_subgraph, is_dalmatian,
                    iterated_dalmatian, verify_morse)
from .planar import (PlaneGraph, TaitGraph, dual_graph, format_plane_graph,
                     overlay_ranks, parse_plane_graph, tait_colouring, tait_graph,
                     tait_matching_complex, theorem42_verify)
from .uber import (DEFAULT_CUBE_CAP, cone_suspension_checks, cube_cap,
                   star_intersection, uber_degree0_fast, uber_homology,
                   uber_top_level, uber_topdegree_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
