"""The closure laws and the filter laws; only ``check axioms`` runs them.

A closure operator (``topology.ClosureOperator``) is checked against the
five closure laws, each "for all inclusions" quantifier instantiated over a
finite, deterministic test universe of element masks, cut at a pair cap
(see ``build_universe``).  A covering-sieve
topology is checked against the filter laws, with the principal generator of
each per-point family.
"""

from __future__ import annotations

from itertools import chain, islice

from .classifier import OmegaObject, omega
from .errors import ShapeMismatch
from .heyting import AxiomFailure, CheckReport
from .poset import (
    DownSet,
    Poset,
    enumerate_downsets,
    limited_downsets,
    sieve_positions,
    sieves_on,
)
from .presheaf import Presheaf, _pull_mask, _truth_values, product, terminal
from .records import DEFAULT_PAIR_CAP, GrothendieckTopology
from .topology import ClosureOperator


class TestUniverse:
    """A finite, deterministic family of subobjects, pairs and map pairs used
    to instantiate the 'for all inclusions' quantifiers, as element masks.

    ``codomains`` are the objects the masks live in.  ``subobjects`` holds
    ``(codomain, mask)`` per subobject; the pairs with f inside g and the rest
    are two sets of columns (position, codomain, f mask, g mask), which hold no
    tuple per pair; ``map_pairs`` holds ``(domain, codomain, image bits,
    mask)`` per map pair, the image bits naming, per element of the domain,
    its image among the codomain's elements.
    """

    __slots__ = ("poset", "codomains", "subobjects", "nested", "crossing", "map_pairs")

    def __init__(
        self,
        poset: Poset,
        codomains: tuple[Presheaf, ...],
        subobjects: tuple[tuple[int, int], ...],
        nested: tuple[tuple[int, ...], ...],
        crossing: tuple[tuple[int, ...], ...],
        map_pairs: tuple[tuple[int, int, tuple[int, ...], int], ...],
    ):
        self.poset = poset
        self.codomains = codomains
        self.subobjects = subobjects
        self.nested = nested
        self.crossing = crossing
        self.map_pairs = map_pairs


def build_universe(
    poset: Poset,
    om: OmegaObject | None = None,
    pair_cap: int = DEFAULT_PAIR_CAP,
    omega_square_cap: int = 24,
) -> TestUniverse:
    """Subobjects of 1, of Ω and the first ``omega_square_cap`` of Ω²; as
    pairs, the first ``pair_cap`` pairs (f, g) of subobjects of one object
    with g not listed before f; as map pairs, the bang of each object into
    the subterminals and chi of each subterminal against the first 12
    subobjects of Ω.  ShapeMismatch if ``om`` lives on another poset.

    Every mask comes straight from a down-set enumerator over the object's
    elements.  The terminal has one element per point, in point order, so
    its subobjects are the poset's down-sets and the bang sends each element
    to the bit of its point.
    """
    om = omega(poset) if om is None else om
    if om.poset != poset:
        raise ShapeMismatch("classifier lives on a different poset")
    one = terminal(poset)
    square = product(om, om)
    om_elements = om.element_poset()
    groups = (
        tuple(s.mask for s in enumerate_downsets(poset)),
        tuple(d.mask for d in enumerate_downsets(om_elements, cap=len(om_elements.points))),
        tuple(d.mask for d in limited_downsets(square.element_poset(), omega_square_cap)),
    )
    codomains = (one, om, square)
    subobjects = tuple((c, mask) for c, masks in enumerate(groups) for mask in masks)

    all_pairs = (
        (c, f, g) for c, masks in enumerate(groups) for i, f in enumerate(masks) for g in masks[i:]
    )
    nested: tuple[list, ...] = ([], [], [], [])
    crossing: tuple[list, ...] = ([], [], [], [])
    for k, (c, f, g) in enumerate(islice(all_pairs, max(pair_cap, 0))):
        for column, value in zip(crossing if f & ~g else nested, (k, c, f, g)):
            column.append(value)

    subterminals = groups[0]
    map_pairs = []
    for c, b in enumerate(codomains):
        if groups[c]:
            to_one = tuple(1 << i for i in b.elements().point)
            map_pairs.extend((c, 0, to_one, d) for d in subterminals)
    index = one.elements()
    positions = [sieve_positions(poset, u) for u in poset.points]
    for s in subterminals:
        chi_s = tuple(
            1 << om.element_at[i][positions[i][v]]
            for i, v in zip(index.point, _truth_values(index, s))
        )
        map_pairs.extend((0, 1, chi_s, d) for d in groups[1][:12])
    return TestUniverse(
        poset,
        codomains,
        subobjects,
        tuple(map(tuple, nested)),
        tuple(map(tuple, crossing)),
        tuple(map_pairs),
    )


def check_closure_axioms(clop: ClosureOperator, universe: TestUniverse) -> CheckReport:
    """The five closure laws, instantiated over the universe.

    Every law compares element masks, through the operator's table of
    closures over each codomain's element index, filled lazily in the order
    the laws ask for them; each closure must still be a sub-presheaf
    (FunctorialityError otherwise, as for any endomap table that is not a
    topology).  Witnesses are sliced from their codomain only on failure.
    """
    if clop.poset != universe.poset:
        raise ShapeMismatch("inclusion lives on a different poset")
    closed = [clop.closures(b.elements()) for b in universe.codomains]
    codomains = universe.codomains
    failures = []
    for c, f in universe.subobjects:
        if f & ~closed[c][f]:
            failures.append(AxiomFailure("C1-inflationary", (codomains[c]._sub(f),)))
            break
    for c, f in universe.subobjects:
        close = closed[c]
        cf = close[f]
        if close[cf] != cf:
            failures.append(AxiomFailure("C2-idempotent", (codomains[c]._sub(f),)))
            break
    monotone = True
    for _, c, f, g in zip(*universe.nested):
        close = closed[c]
        if close[f] & ~close[g]:
            cod = codomains[c]
            failures.append(AxiomFailure("C3-monotone", (cod._sub(f), cod._sub(g))))
            monotone = False
            break
    # On a nested pair C4 reads close f == close f & close g, which is C3 on
    # that pair: once C3 holds, only the crossing pairs can fail C4, and the
    # nested ones would ask for no closure that C3 has not computed.
    crossing = zip(*universe.crossing)
    for _, c, f, g in crossing if monotone else sorted(chain(zip(*universe.nested), crossing)):
        close = closed[c]
        if close[f & g] != close[f] & close[g]:
            cod = codomains[c]
            failures.append(AxiomFailure("C4-meets", (cod._sub(f), cod._sub(g))))
            break
    for a, b, images, d in universe.map_pairs:
        if closed[a][_pull_mask(images, d)] != _pull_mask(images, closed[b][d]):
            failures.append(AxiomFailure("C5-pullback-stable", (codomains[a], codomains[b]._sub(d))))
            break
    return CheckReport("closure axioms", tuple(failures))


class FilterReport:
    __slots__ = ("report", "generators")

    def __init__(self, report: CheckReport, generators: tuple[DownSet, ...]):
        self.report = report
        self.generators = generators


def filter_check(j: GrothendieckTopology) -> FilterReport:
    """Top membership, upward closure, binary meets, and the principal
    generator of each per-point family (finiteness makes filters principal)."""
    poset = j.poset
    failures = []
    generators = []
    for idx, u in enumerate(poset.points):
        fam = j.covers_mask_set(idx)
        down_u = poset.down_mask(u)
        if down_u not in fam:
            failures.append(AxiomFailure("filter-top", (u,)))
        all_sieves = [s.mask for s in sieves_on(poset, u)]
        for r in fam:
            for s in all_sieves:
                if r | s == s and s not in fam:
                    failures.append(
                        AxiomFailure("filter-up", (u, DownSet(poset, r), DownSet(poset, s)))
                    )
                    break
        for r in fam:
            for s in fam:
                if r & s not in fam:
                    failures.append(
                        AxiomFailure("filter-meet", (u, DownSet(poset, r), DownSet(poset, s)))
                    )
                    break
        gen = down_u
        for r in fam:
            gen &= r
        generators.append(DownSet(poset, gen))
        if fam and gen not in fam:
            failures.append(AxiomFailure("filter-principal", (u,)))
    return FilterReport(
        CheckReport("filter laws", tuple(failures)), tuple(generators)
    )
