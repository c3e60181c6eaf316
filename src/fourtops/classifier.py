"""The subobject classifier of presheaves on a poset.

The component at u is the set of sieves on u (down-sets of the ambient poset
contained in ``down u``); restriction intersects with ``down v``.  Classifying
maps send b in B(u) to the truth-value of A meet the smallest sub-presheaf
containing b, which always lands inside ``down u``.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .poset import DownSet, Poset, sieve_positions, sieve_restriction, sieves_on
from .presheaf import (
    Inclusion,
    Morphism,
    Presheaf,
    as_inclusion,
    bang,
    can,
    product,
    terminal,
)


class OmegaObject(Presheaf):
    """The classifier presheaf; caches per-point sieve lists in canonical order."""

    __slots__ = ("sieves", "_true")

    def __init__(self, poset: Poset):
        sieves = {u: sieves_on(poset, u) for u in poset.points}
        restr = {}
        for (u, v) in poset.arrows:
            to_v, _ = sieve_restriction(poset, u, v)
            restr[(u, v)] = {s: sieves[v][r] for s, r in zip(sieves[u], to_v)}
        super().__init__(poset, sieves, restr)
        self.sieves = sieves
        self._true = None

    def sieve_index(self, u, s: DownSet) -> int:
        return sieve_positions(self.poset, u)[s.mask]


def omega(poset: Poset) -> OmegaObject:
    return OmegaObject(poset)


def true_map(poset: Poset, om: OmegaObject | None = None) -> Morphism:
    """The point of the classifier that marks everything below as present."""
    om = omega(poset) if om is None else om
    one = terminal(poset)
    comp = {
        u: {"*": DownSet(poset, poset.down_mask(u))} for u in poset.points
    }
    return Morphism(one, om, comp)


def true_inclusion(poset: Poset, om: OmegaObject | None = None) -> Inclusion:
    """The canonical inclusion equivalent to the true map, built once per
    classifier object."""
    om = omega(poset) if om is None else om
    if om.poset != poset:
        raise ShapeMismatch("classifier lives on a different poset")
    if om._true is None:
        om._true = can(true_map(poset, om))
    return om._true


def chi(f: Inclusion, om: OmegaObject | None = None) -> Morphism:
    """Classifying map of an inclusion: b goes to the truth-value of
    (domain meet smallest-sub-presheaf-containing-b), reindexed as a sieve.

    That truth-value is read off b's element rows: the points v below u at
    which the image of b lies in the domain's mask.
    """
    f = as_inclusion(f, "chi needs identity components")
    b = f.cod
    poset = b.poset
    om = omega(poset) if om is None else om
    if om.poset != poset:
        raise ShapeMismatch("inclusion and classifier live on different posets")
    lookup = [
        (om.sieves[u], sieve_positions(poset, u)) for u in poset.points
    ]
    mask = f.mask
    comp: dict = {u: {} for u in poset.points}
    index = b.elements()
    for (u, a), i, row in zip(index.keys, index.point, index.rows):
        s = 0
        for pb, eb in row:
            if mask & eb:
                s |= pb
        sieves, pos = lookup[i]
        comp[u][a] = sieves[pos[s]]
    return Morphism._trusted(b, om, comp)


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


def omega_square(om: OmegaObject) -> Presheaf:
    return product(om, om)


def meet_map(poset: Poset, om: OmegaObject | None = None) -> Morphism:
    """Internal conjunction: componentwise intersection of sieve pairs."""
    om = omega(poset) if om is None else om
    sq = product(om, om)
    comp = {
        u: {(s, t): DownSet(poset, s.mask & t.mask) for (s, t) in sq.sets[u]}
        for u in poset.points
    }
    return Morphism(sq, om, comp)


def imp_map(poset: Poset, om: OmegaObject | None = None) -> Morphism:
    """Internal implication: largest sieve R on u with R meet S inside T."""
    om = omega(poset) if om is None else om
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


def top_composite(b: Presheaf, om: OmegaObject) -> Morphism:
    """The constantly-true map on b: the bang followed by true."""
    one = terminal(b.poset)
    return bang(b, one).then(true_map(b.poset, om))
