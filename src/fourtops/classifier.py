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

from .poset import Poset, sieve_positions, sieve_restriction, sieves_on
from .presheaf import ElementIndex, _truth_values


@lru_cache(maxsize=4)
def omega(poset: Poset) -> ElementIndex:
    """The classifier's element index, in sieve-index order, built once per
    poset: sieve k on point i is element ``offset[i] + k``, so sieve indices
    and element masks convert by an addition, and the maximal sieve on point
    i, the image of the true map there, is element ``offset[i + 1] - 1``.

    Every caller shares the index and the truth-value groups kept there.
    The sweep and the route checkers work through one poset at a time, so a
    few entries are enough:
    on the 2x2 sweep, 16 entries held 0.2 MB more at peak than 4 for the same
    hits.
    """
    sizes = [len(sieves_on(poset, u)) for u in poset.points]
    return ElementIndex(poset, sizes, lambda u, v: sieve_restriction(poset, u, v)[0])


def chi_tables(index: ElementIndex, mask: int) -> tuple[tuple[int, ...], ...]:
    """Classifying map of the sub-presheaf of the classifier on an element
    mask of its index, as per-point tables by sieve index.
    FunctorialityError if the mask is not down-closed."""
    poset = index.poset
    values = _truth_values(index, index.require_down_closed(mask))
    out = []
    for u, start in zip(poset.points, index.offset):
        pos = sieve_positions(poset, u)
        out.append(tuple(pos[s] for s in values[start : start + len(pos)]))
    return tuple(out)
