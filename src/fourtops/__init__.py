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
    "axioms": ("TestUniverse", "build_universe", "check_closure_axioms", "filter_check"),
    "census": ("enumerate_grotops", "enumerate_lts", "enumerate_nuclei"),
    "convert": (
        "closure_to_nucleus",
        "grotop_to_lt",
        "grotop_to_lt_direct",
        "grotop_to_nucleus",
        "grotop_to_point_set",
        "j_from_closure",
        "lt_to_grotop",
        "nucleus_from_point_set",
        "nucleus_to_grotop",
        "nucleus_to_lt",
        "point_set_of_nucleus",
        "point_set_to_grotop",
    ),
    "poset": (
        "DownSet",
        "GrothendieckTopology",
        "LTTopology",
        "Nucleus",
        "Poset",
        "TwoColumnGraph",
        "enumerate_downsets",
        "sieves_on",
        "star_graph",
    ),
    "presheaf": ("omega", "terminal"),
    "routes": ("Quad", "check_routes", "complete_quad"),
    "topology": ("ClosureOperator", "is_grothendieck", "is_lt_topology", "is_nucleus"),
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
