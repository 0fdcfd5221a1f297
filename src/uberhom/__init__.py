"""Homology of black/white-coloured simplicial complexes over the two-element
field: per-colouring horizontal and diagonal homology, discrete-Morse tooling
for spotted colourings, the full colour-cube invariant, and graph comparison
built on colouring profiles."""

from .complexes import (MAX_VERTICES, SimplicialComplex, dim_of, format_complex,
                        from_facets, mask_of, read_complex, standard_complex,
                        vertices_of)
from .coloured import (BlockHomology, Colouring, diagonal_homology, dual_grading,
                       filtered_homology, graded_euler, horizontal_homology,
                       horizontal_homology_with_bases, simplicial_homology)
from .errors import (CapExceeded, ColouringMismatch, ComplexError, EngineError,
                     InvalidColouring, ParseError, UberhomError)
from .graphs import (SimpleGraph, closed_form_signature, dissimilarity, encode_graph6,
                     first_differing_level, graph_as_complex, h0_graph, h1_0, h1_1,
                     h2_graph, matching_complex, matching_complex_of_edges, parse_graph6,
                     theta, theta_classes)
from .morse import elementary_decomposition, verify_morse
from .planar import (PlaneGraph, format_plane_graph, overlay_ranks, parse_plane_graph,
                     tait_colouring, tait_graph, theorem42_verify)
from .uber import uber_degree0_fast, uber_homology, uber_top_level

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
