"""Four equivalent faces of a topology on presheaves over a finite poset.

Point sets, nuclei on the down-set algebra, Grothendieck covering families,
and Lawvere-Tierney classifier endomaps determine one another; this package
computes each face, converts between them, renders them, and checks every
axiom system and route-agreement statement exhaustively on finite instances.

The names below are exported lazily (PEP 562): ``import fourtops`` loads no
submodule, and the first use of a name imports the module it lives in.
"""

from importlib import import_module

_HOMES = {
    "census": ("enumerate_grotops", "enumerate_lts", "enumerate_nuclei"),
    "classifier": ("OmegaObject", "chi", "imp_map", "meet_map", "omega", "sigma", "true_map"),
    "convert": (
        "Quad",
        "check_routes",
        "closure_to_nucleus",
        "complete_quad",
        "grotop_to_lt",
        "grotop_to_lt_direct",
        "grotop_to_nucleus",
        "grotop_to_point_set",
        "lt_to_grotop",
        "nucleus_to_grotop",
        "nucleus_to_lt",
        "point_set_to_grotop",
    ),
    "heyting": (
        "HeytingAlgebra",
        "Nucleus",
        "Slashing",
        "is_nucleus",
        "modality_on_downset",
        "nucleus_from_point_set",
        "point_set_of_nucleus",
        "slashing_from_erased",
        "slashing_from_nucleus",
        "slashings_agree",
    ),
    "poset": (
        "DownSet",
        "Poset",
        "TwoColumnGraph",
        "down_closure",
        "down_of_point",
        "enumerate_downsets",
        "interior",
        "sieves_on",
        "star_graph",
        "strict_down",
    ),
    "presheaf": (
        "Inclusion",
        "Morphism",
        "Presheaf",
        "can",
        "intersection",
        "is_inclusion",
        "preimage",
        "product",
        "subobjects",
        "subterminal_of",
        "terminal",
    ),
    "records": ("GrothendieckTopology", "LTTopology"),
    "topology": (
        "ClosureOperator",
        "TestUniverse",
        "build_universe",
        "canonical_grothendieck",
        "check_closure_axioms",
        "closure_of",
        "dense_closed_factor",
        "filter_check",
        "is_closed",
        "is_dense",
        "is_grothendieck",
        "is_lt_topology",
        "j_from_closure",
        "restriction_check",
    ),
}
# exported name -> the submodule it lives in
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"

# The table search has one implementation, in pure Python.
kernel_backend = "pure"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
