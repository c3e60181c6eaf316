import pytest

from fourtops.heyting import HeytingAlgebra
from fourtops.poset import Poset, TwoColumnGraph, star_graph


@pytest.fixture(scope="session")
def star():
    """The running 4-point example: p = q = 2 with cross arrow 2_ -> _1."""
    return star_graph()


@pytest.fixture(scope="session")
def star_poset(star):
    return star.poset()


@pytest.fixture(scope="session")
def star_algebra(star_poset):
    return HeytingAlgebra(star_poset)


@pytest.fixture(scope="session")
def one_point():
    return Poset(["u"])


def pile_code_str(graph: TwoColumnGraph, downset) -> str:
    a, b = graph.pile_code(downset)
    return f"{a}{b}"


@pytest.fixture(scope="session")
def sweep_classes():
    """One poset per isomorphism class of ``sweep --pmax 2 --qmax 2``: 17."""
    from fourtops.poset import canonical_form
    from fourtops.sweep import cross_configurations

    classes = {}
    for p in range(3):
        for q in range(3):
            for cross in cross_configurations(p, q):
                poset = TwoColumnGraph(p, q, cross).poset()
                classes.setdefault(canonical_form(poset), poset)
    return list(classes.values())
