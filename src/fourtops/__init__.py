"""Four equivalent faces of a topology on presheaves over a finite poset.

Point sets, nuclei on the down-set algebra, Grothendieck covering families,
and Lawvere-Tierney classifier endomaps determine one another; this package
computes each face, converts between them, renders them, and checks every
axiom system and route-agreement statement exhaustively on finite instances.
"""

from .convert import (
    Quad,
    check_routes,
    closure_to_nucleus,
    complete_quad,
    enumerate_grotops,
    enumerate_lts,
    enumerate_nuclei,
    grotop_to_lt,
    grotop_to_lt_direct,
    grotop_to_nucleus,
    grotop_to_point_set,
    lt_to_grotop,
    nucleus_to_grotop,
    nucleus_to_lt,
    point_set_to_grotop,
)
from .classifier import OmegaObject, chi, imp_map, meet_map, omega, sigma, true_map
from .heyting import (
    HeytingAlgebra,
    Nucleus,
    Slashing,
    is_nucleus,
    modality_on_downset,
    nucleus_from_point_set,
    point_set_of_nucleus,
    slashing_from_erased,
    slashing_from_nucleus,
    slashings_agree,
)
from .poset import (
    DownSet,
    Poset,
    TwoColumnGraph,
    down_closure,
    down_of_point,
    enumerate_downsets,
    interior,
    sieves_on,
    star_graph,
    strict_down,
)
from .presheaf import (
    Inclusion,
    Morphism,
    Presheaf,
    can,
    cst,
    element_downset,
    equalizer,
    intersection,
    is_inclusion,
    natural_maps,
    preimage,
    product,
    subobjects,
    subterminal_of,
    terminal,
)
from .topology import (
    ClosureOperator,
    GrothendieckTopology,
    LTTopology,
    TestUniverse,
    build_universe,
    canonical_grothendieck,
    check_closure_axioms,
    closure_of,
    dense_closed_factor,
    filter_check,
    is_closed,
    is_dense,
    is_grothendieck,
    is_lt_topology,
    j_from_closure,
    restriction_check,
)

__version__ = "0.1.0"

# The table search has one implementation, in pure Python.
kernel_backend = "pure"
