"""Element indexes of the presheaves the package uses, the classifier among
them, and the classifier row loop.

The package uses three presheaves, all read off the poset and its sieve
index: the terminal 1 (``terminal``), the classifier Ω (``omega``) and Ω×Ω
(``axioms.omega_square``).  Each is held only as its element index: element
(u, k) is position k in the component at u, points in order and positions
in order.  A sub-presheaf is exactly a down-closed mask over that index,
and a map between presheaves is given by the image bit of each element of
its domain; those masks are the only form in which the package handles
subobjects and maps.  Ω's component at u is the sieves on u, and a
classifying map sends an element to the sieve of the points below it where
its image lies in the sub-presheaf; ``chi_tables`` reads those sieves off
an element mask of Ω, and ``ElementIndex.sliced_groups`` groups elements by
them, for one mask or for many packed into one int.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Callable, Collection, Sequence

from .errors import FunctorialityError
from .poset import Poset, sieve_positions, sieve_restriction, sieves_on


class ElementIndex:
    """The elements of a presheaf in element order.

    ``point[k]`` is the point index of element k; ``rows[k]`` holds one
    (point bit, element bit) pair per point v below u, the element bit
    marking the image of element k at v; ``down[k]`` is the mask of the
    smallest sub-presheaf containing element k; ``offset[i]`` is the first
    element at point i, and ``offset[-1]`` the number of elements.

    The elements grouped by truth value against a mask (see
    :meth:`sliced_groups`) depend on no topology, so they are kept here
    (:meth:`truth_groups`) for every closure operator that reads them: the
    route pass's, and in the closure-law check those of masks outside a
    universe's lists (closures and pullbacks), since the listed masks are
    grouped as the fields of one int (``axioms.TestUniverse``).  ``passed``
    holds the masks a closure has already found down-closed, and only
    :meth:`require_all_down_closed` adds to it.
    """

    __slots__ = ("poset", "point", "rows", "down", "offset", "full", "width", "_groups", "passed")

    def __init__(
        self,
        poset: Poset,
        sizes: Sequence[int],
        restrict: Callable[[object, object], Sequence[int]],
    ):
        """``sizes[i]`` elements at point i; ``restrict(u, v)[k]`` is the
        position at v of the restriction of position k at u, for each point
        v below u, u itself among them."""
        points = poset.points
        self.offset = offset = tuple(accumulate(sizes, initial=0))
        self.poset = poset
        self.full = (1 << offset[-1]) - 1
        self.width = len(points)
        self._groups: dict = {}
        self.passed: set = set()
        point, rows, down = [], [], []
        for i, u in enumerate(points):
            below = [
                (1 << j, offset[j], restrict(u, v))
                for j, v in enumerate(points) if poset.above(u, v)
            ]
            for k in range(sizes[i]):
                row = tuple((pb, 1 << (off + to_v[k])) for pb, off, to_v in below)
                point.append(i)
                rows.append(row)
                acc = 0
                for _, eb in row:
                    acc |= eb
                down.append(acc)
        self.point = tuple(point)
        self.rows = tuple(rows)
        self.down = tuple(down)

    def require_down_closed(self, mask: int) -> int:
        """Return mask if it names a sub-presheaf, else raise FunctorialityError."""
        down, rest = self.down, mask
        while rest:
            k = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            missing = down[k] & ~mask
            if missing:
                (u, a), (v, b) = map(self._name, (k, missing.bit_length() - 1))
                raise FunctorialityError(
                    f"element {a} at {u!r} restricts to element {b} at {v!r}, outside the sub-presheaf"
                )
        return mask

    def require_all_down_closed(self, masks: Collection[int]) -> None:
        """Raise FunctorialityError unless every mask names a sub-presheaf;
        each one that does joins ``passed``, and is not checked again."""
        passed = self.passed
        if not passed.issuperset(masks):
            passed.update(map(self.require_down_closed, set(masks).difference(passed)))

    def _name(self, k: int) -> tuple:
        """Element k as its point and its position in that point's component."""
        i = self.point[k]
        return self.poset.points[i], k - self.offset[i]

    def truth_groups(self, mask: int) -> dict:
        """The elements grouped by the truth value a classifying map of
        ``mask`` sends them to: :meth:`sliced_groups` of the one field
        ``mask``, built on first use and kept."""
        groups = self._groups.get(mask)
        if groups is None:
            groups = self._groups[mask] = self.sliced_groups(mask, 1)
        return groups

    def sliced_groups(self, whole: int, ones: int) -> dict:
        """Truth-value key ``sieve mask * width + point index`` -> the int
        holding, in each field of ``whole`` (``ones`` has bit 0 of each), the
        elements at that point that a classifying map of the field's mask
        sends to that sieve, read off the membership columns of ``whole``."""
        columns = [whole >> e & ones for e in range(self.full.bit_length())]
        width, groups = self.width, {}
        for k, (i, row) in enumerate(zip(self.point, self.rows)):
            # the fields, split by the point mask of the points below where
            # element k's image lies in their mask
            split = [(0, ones)]
            for pb, eb in row:
                column, parts = columns[eb.bit_length() - 1], []
                for s, fields in split:
                    inside = fields & column
                    if inside:
                        parts.append((s | pb, inside))
                    if inside != fields:
                        parts.append((s, fields ^ inside))
                split = parts
            for s, fields in split:
                key = s * width + i
                groups[key] = groups.get(key, 0) | fields << k
        return groups


def _truth_values(index: ElementIndex, mask: int) -> list[int]:
    """Per element of ``index``, in order, the point mask of the points below
    it where its image lies in ``mask``: the sieve a classifying map sends it
    to."""
    out = []
    for row in index.rows:
        s = 0
        for pb, eb in row:
            if mask & eb:
                s |= pb
        out.append(s)
    return out


@lru_cache(maxsize=4)
def terminal(poset: Poset) -> ElementIndex:
    """The element index of the terminal presheaf: one element per point, in
    point order, so a down-set's point mask is its subterminal's element
    mask.  Built once per poset and kept, like ``omega``, while the poset is
    among the last few in use."""
    return ElementIndex(poset, (1,) * len(poset.points), lambda u, v: (0,))


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


def _pull_mask(images: tuple[int, ...], mask: int) -> int:
    """Preimage of a codomain element mask under a map given by the image
    bit of each domain element, as a domain element mask."""
    out = 0
    for k, img in enumerate(images):
        if mask & img:
            out |= 1 << k
    return out
