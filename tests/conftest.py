from itertools import combinations

import pytest

from fourtops.poset import Poset, TwoColumnGraph, star_graph


@pytest.fixture(scope="session")
def star():
    """The running 4-point example: p = q = 2 with cross arrow 2_ -> _1."""
    return star_graph()


@pytest.fixture(scope="session")
def star_poset(star):
    return star.poset()


@pytest.fixture(scope="session")
def one_point():
    return Poset(["u"])


def pile_code_str(graph: TwoColumnGraph, downset) -> str:
    """Each height with as many digits as its column's height has."""
    a, b = graph.code_of_mask(downset.mask)
    return f"{a:0{len(str(graph.p))}}{b:0{len(str(graph.q))}}"


def naturally_labelled_posets(most):
    """Every poset on the points p0, ..., p(n-1), n from 1 to ``most``, in
    which each point is above only points of lower number: each poset up to
    isomorphism at least once, 50 in all up to 4 points."""
    for n in range(1, most + 1):
        points = [f"p{i}" for i in range(n)]
        pairs = [(points[i], points[j]) for i in range(n) for j in range(i)]
        for k in range(len(pairs) + 1):
            for chosen in map(set, combinations(pairs, k)):
                if all((a, d) in chosen for a, b in chosen for c, d in chosen if b == c):
                    yield Poset(points, chosen)


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
