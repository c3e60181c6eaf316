"""The subobject classifier of presheaves on a poset.

The component at u is the set of sieves on u (down-sets of the ambient poset
contained in ``down u``); restriction intersects with ``down v``.  Classifying
maps send b in B(u) to the truth-value of A meet the smallest sub-presheaf
containing b, which always lands inside ``down u``.
"""

from __future__ import annotations

from functools import lru_cache

from .poset import DownSet, Poset, sieve_positions, sieve_restriction, sieves_on
from .presheaf import (
    Inclusion,
    Morphism,
    Presheaf,
    _truth_values,
    as_inclusion,
    product,
    terminal,
)


class OmegaObject(Presheaf):
    """The classifier presheaf; caches per-point sieve lists in canonical order.

    ``element_at[i][k]`` is the element position of sieve k on point i, so sieve
    indices and element masks convert in both directions.  ``true_mask`` is
    the element mask of the maximal sieve at each point: the image of the
    true map.
    """

    __slots__ = ("sieves", "element_at", "true_mask")

    def __init__(self, poset: Poset):
        # the labels are DownSets: ``sorted_at`` orders them by repr, which
        # fixes the element order and so the closure-law universe
        sieves = {u: tuple(DownSet(poset, m) for m in sieves_on(poset, u)) for u in poset.points}
        restr = {}
        for (u, v) in poset.arrows:
            to_v, _ = sieve_restriction(poset, u, v)
            restr[(u, v)] = {s: sieves[v][r] for s, r in zip(sieves[u], to_v)}
        super().__init__(poset, sieves, restr)
        self.sieves = sieves
        bit = self.elements().bit
        self.element_at = tuple(tuple(bit[(u, s)] for s in sieves[u]) for u in poset.points)
        # the maximal sieve on a point is the last in sieve-index order
        self.true_mask = sum(1 << elements[-1] for elements in self.element_at)


@lru_cache(maxsize=4)
def omega(poset: Poset) -> OmegaObject:
    """The classifier, built once per poset.

    Every caller shares its element index and the truth-value groups kept
    there.  The sweep and the route checkers work through one poset at a
    time, so a few entries are enough:
    on the 2x2 sweep, 16 entries held 0.2 MB more at peak than 4 for the same
    hits.
    """
    return OmegaObject(poset)


def true_map(poset: Poset) -> Morphism:
    """The point of the classifier that marks everything below as present."""
    comp = {
        u: {"*": DownSet(poset, poset.down_mask(u))} for u in poset.points
    }
    return Morphism(terminal(poset), omega(poset), comp)


def chi(f: Inclusion) -> Morphism:
    """Classifying map of an inclusion: b goes to the truth-value of
    (domain meet smallest-sub-presheaf-containing-b), reindexed as a sieve.

    That truth-value is read off b's element rows: the points v below u at
    which the image of b lies in the domain's mask.
    """
    f = as_inclusion(f, "chi needs identity components")
    b = f.cod
    poset = b.poset
    om = omega(poset)
    lookup = [
        (om.sieves[u], sieve_positions(poset, u)) for u in poset.points
    ]
    comp: dict = {u: {} for u in poset.points}
    index = b.elements()
    for (u, a), i, s in zip(index.keys, index.point, _truth_values(index, f.mask)):
        sieves, pos = lookup[i]
        comp[u][a] = sieves[pos[s]]
    return Morphism._trusted(b, om, comp)


def chi_tables(om: OmegaObject, mask: int) -> tuple[tuple[int, ...], ...]:
    """Classifying map of the sub-presheaf of the classifier on an element
    mask, as per-point tables by sieve index: what ``chi`` gives for that
    inclusion, without building it.  FunctorialityError if the mask is not
    down-closed."""
    index = om.elements()
    values = _truth_values(index, index.require_down_closed(mask))
    positions = [sieve_positions(om.poset, u) for u in om.poset.points]
    return tuple(
        tuple(pos[values[k]] for k in elements)
        for elements, pos in zip(om.element_at, positions)
    )


def sigma(g: Morphism) -> Inclusion:
    """The inclusion classified by a map into the classifier."""
    b = g.dom
    poset = b.poset
    tops = [poset.down_mask_at(i) for i in range(len(poset.points))]
    mask = 0
    index = b.elements()
    for k, ((u, a), i) in enumerate(zip(index.keys, index.point)):
        if g.comp[u][a].mask == tops[i]:
            mask |= 1 << k
    return Inclusion._from_mask(b, mask)


def meet_map(poset: Poset) -> Morphism:
    """Internal conjunction: componentwise intersection of sieve pairs."""
    om = omega(poset)
    sq = product(om, om)
    comp = {
        u: {(s, t): DownSet(poset, s.mask & t.mask) for (s, t) in sq.sets[u]}
        for u in poset.points
    }
    return Morphism(sq, om, comp)


def imp_map(poset: Poset) -> Morphism:
    """Internal implication: largest sieve R on u with R meet S inside T."""
    om = omega(poset)
    sq = product(om, om)
    comp: dict = {}
    for u in poset.points:
        down_u = poset.down_mask(u)
        table = {}
        for (s, t) in sq.sets[u]:
            mask = 0
            rest = down_u
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if poset.down_mask_at(i) & s.mask & ~t.mask == 0:
                    mask |= 1 << i
            table[(s, t)] = DownSet(poset, mask)
        comp[u] = table
    return Morphism(sq, om, comp)
