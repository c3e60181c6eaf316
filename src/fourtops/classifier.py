"""The subobject classifier of presheaves on a poset.

The component at u is the set of sieves on u (down-sets of the ambient poset
contained in ``down u``), in sieve-index order; restriction intersects with
``down v``.  A classifying map sends b in B(u) to the sieve of the points v
below u at which b's image lies in the sub-presheaf; ``chi_tables`` reads
those sieves off an element mask of the classifier as per-point sieve-index
tables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .poset import Poset, sieve_positions, sieve_restriction, sieves_on
from .presheaf import ElementIndex, _truth_values


class OmegaObject:
    """The classifier as its element index, in sieve-index order.

    Sieve k on point i is element ``offset[i] + k``, so sieve indices and
    element masks convert by an addition.  ``true_mask`` is the element mask
    of the maximal sieve at each point: the image of the true map.
    """

    __slots__ = ("poset", "index", "offset", "true_mask")

    def __init__(self, poset: Poset):
        sizes = [len(sieves_on(poset, u)) for u in poset.points]
        self.poset = poset
        self.index = ElementIndex(poset, sizes, lambda u, v: sieve_restriction(poset, u, v)[0])
        self.offset = offset = tuple(accumulate(sizes, initial=0))[:-1]
        # the maximal sieve on a point is the last in sieve-index order
        self.true_mask = sum(1 << (o + n - 1) for o, n in zip(offset, sizes))


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
    index, poset = om.index, om.poset
    values = _truth_values(index, index.require_down_closed(mask))
    out = []
    for u, start in zip(poset.points, om.offset):
        pos = sieve_positions(poset, u)
        out.append(tuple(pos[s] for s in values[start : start + len(pos)]))
    return tuple(out)
