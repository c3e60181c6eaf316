"""The subobject classifier of presheaves on a poset.

The component at u is the set of sieves on u (down-sets of the ambient poset
contained in ``down u``); restriction intersects with ``down v``.  A
classifying map sends b in B(u) to the sieve of the points v below u at
which b's image lies in the sub-presheaf; ``chi_tables`` reads those sieves
off an element mask of the classifier as per-point sieve-index tables.
"""

from __future__ import annotations

from functools import lru_cache

from .poset import DownSet, Poset, sieve_positions, sieve_restriction, sieves_on
from .presheaf import Presheaf, _truth_values


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


def chi_tables(om: OmegaObject, mask: int) -> tuple[tuple[int, ...], ...]:
    """Classifying map of the sub-presheaf of the classifier on an element
    mask, as per-point tables by sieve index.  FunctorialityError if the
    mask is not down-closed."""
    index = om.elements()
    values = _truth_values(index, index.require_down_closed(mask))
    positions = [sieve_positions(om.poset, u) for u in om.poset.points]
    return tuple(
        tuple(pos[values[k]] for k in elements)
        for elements, pos in zip(om.element_at, positions)
    )
