"""Finite presheaves on a poset, their element indexes, and products.

A presheaf assigns a finite label set to each point and a restriction map to
each generating arrow; composite restrictions must be path-independent, which
is verified at construction.

A presheaf's elements (u, a) are indexed in element order: points in order,
labels in ``sorted_at`` order.  A sub-presheaf is exactly a down-closed mask
over that index, and a map between presheaves is given by the image bit of
each element of its domain; those masks are the only form in which the
package handles subobjects and maps.  A sub-presheaf sliced from a mask
(``Presheaf._sub``) is trusted: its restrictions and composite paths are
taken from the presheaf rather than recomposed and revalidated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Mapping

from .errors import FunctorialityError, ShapeMismatch
from .poset import Poset, _bits

Label = Hashable


def _label_key(label):
    return repr(label)


class ElementIndex:
    """The elements (u, a) of a presheaf in element order.

    ``bit`` maps an element to its position; ``point[k]`` is the point index
    of element k; ``rows[k]`` holds one (point bit, element bit) pair per point
    v below u, the element bit marking the image of element k at v; ``down[k]``
    is the mask of the smallest sub-presheaf containing element k.

    The elements grouped by truth value against a mask (see
    :meth:`truth_groups`) depend on no topology, so they are kept here for
    every closure operator that reads them; ``passed`` holds the masks a
    closure has already found down-closed.
    """

    __slots__ = ("keys", "bit", "point", "rows", "down", "full", "width", "_groups", "passed")

    def __init__(self, b: "Presheaf"):
        poset = b.poset
        self.keys = tuple((u, a) for u in poset.points for a in b.sorted_at(u))
        self.bit = {key: k for k, key in enumerate(self.keys)}
        self.full = (1 << len(self.keys)) - 1
        self.width = len(poset.points)
        self._groups: dict = {}
        self.passed: set = set()
        below = [
            [(1 << j, v) for j, v in enumerate(poset.points) if poset.above(u, v)]
            for u in poset.points
        ]
        point, rows, down = [], [], []
        for (u, a) in self.keys:
            i = poset.index(u)
            row = tuple(
                (pb, 1 << self.bit[(v, b._paths[(u, v)][a])]) for pb, v in below[i]
            )
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
                u, a = self.keys[k]
                v, b = self.keys[missing.bit_length() - 1]
                raise FunctorialityError(
                    f"{a!r} at {u!r} restricts to {b!r} at {v!r}, outside the sub-presheaf"
                )
        return mask

    def truth_groups(self, mask: int) -> dict:
        """The elements grouped by the truth value a classifying map of
        ``mask`` sends them to; built on first use and kept.

        A group is keyed ``sieve mask * width + point index`` and holds the
        mask of the elements at that point sent to that sieve.
        """
        groups = self._groups.get(mask)
        if groups is None:
            groups = self._groups[mask] = _truth_groups(self, mask)
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


def _truth_groups(index: ElementIndex, mask: int) -> dict:
    """The groups :meth:`ElementIndex.truth_groups` keeps, built anew."""
    groups: dict = {}
    width = index.width
    bit = 1
    for i, s in zip(index.point, _truth_values(index, mask)):
        key = s * width + i
        groups[key] = groups.get(key, 0) | bit
        bit <<= 1
    return groups


class Presheaf:
    """Finite-set-valued functor on a poset, restriction along 'below'."""

    __slots__ = ("poset", "sets", "restr", "_paths", "_elements", "_hash")

    def __init__(
        self,
        poset: Poset,
        sets: Mapping,
        restr: Mapping,
    ):
        self.poset = poset
        self.sets = {u: frozenset(sets.get(u, ())) for u in poset.points}
        self.restr = {}
        for (u, v), table in restr.items():
            if (u, v) not in poset.arrows:
                raise FunctorialityError(f"{(u, v)!r} is not a generating arrow")
            self.restr[(u, v)] = dict(table)
        for arrow in poset.arrows:
            self.restr.setdefault(arrow, {})
        self._paths = None
        self._elements = None
        self._hash = None
        self._validate()

    def _sub(self, mask: int) -> "Presheaf":
        """The sub-presheaf on a down-closed element mask, trusted: the sets are
        read off the mask and restrictions and paths are sliced, not rebuilt."""
        sets: dict = {u: [] for u in self.poset.points}
        keys = self.elements().keys
        for k in _bits(mask):
            u, a = keys[k]
            sets[u].append(a)
        sub = object.__new__(Presheaf)
        sub.poset = self.poset
        sub.sets = {u: frozenset(labels) for u, labels in sets.items()}
        sub.restr = {
            (u, v): {a: table[a] for a in sets[u]} for (u, v), table in self.restr.items()
        }
        sub._paths = {
            (u, v): {a: path[a] for a in sets[u]} for (u, v), path in self._paths.items()
        }
        sub._elements = None
        sub._hash = None
        return sub

    def _validate(self) -> None:
        for (u, v), table in self.restr.items():
            if set(table) != set(self.sets[u]):
                raise FunctorialityError(
                    f"restriction along {(u, v)!r} is not total on {sorted(map(_label_key, self.sets[u]))}"
                )
            for a, b in table.items():
                if b not in self.sets[v]:
                    raise FunctorialityError(
                        f"restriction along {(u, v)!r} sends {a!r} outside the target set"
                    )
        self._paths = self._compose_paths()

    def _compose_paths(self) -> dict:
        """Maps (u, v) with u above v to the composite restriction, checking
        that every pair of parallel paths agrees."""
        poset = self.poset
        out = {}
        for u in poset.points:
            out[(u, u)] = {a: a for a in self.sets[u]}
        order = poset.points
        children = {u: [v for (x, v) in poset.arrows if x == u] for u in order}
        for u in order:
            pending = [u]
            while pending:
                w = pending.pop()
                for v in children[w]:
                    step = self.restr[(w, v)]
                    composite = {a: step[out[(u, w)][a]] for a in self.sets[u]}
                    if (u, v) in out:
                        if out[(u, v)] != composite:
                            raise FunctorialityError(
                                f"two paths {u!r} ~> {v!r} restrict differently"
                            )
                    else:
                        out[(u, v)] = composite
                        pending.append(v)
        return out

    def elements(self) -> ElementIndex:
        """The element index, built on first use and kept."""
        if self._elements is None:
            self._elements = ElementIndex(self)
        return self._elements

    def sorted_at(self, u) -> tuple:
        return tuple(sorted(self.sets[u], key=_label_key))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Presheaf)
            and self.poset == other.poset
            and self.sets == other.sets
            and self.restr == other.restr
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self.poset,
                    tuple(tuple(self.sorted_at(u)) for u in self.poset.points),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{u}:{{{','.join(map(str, self.sorted_at(u)))}}}" for u in self.poset.points
        )
        return f"Presheaf({parts})"


@lru_cache(maxsize=4)
def terminal(poset: Poset) -> Presheaf:
    """The one-star presheaf, built once per poset and kept, like ``omega``,
    while the poset is among the last few in use."""
    sets = {u: ("*",) for u in poset.points}
    restr = {arrow: {"*": "*"} for arrow in poset.arrows}
    return Presheaf(poset, sets, restr)


def _pull_mask(images: tuple[int, ...], mask: int) -> int:
    """Preimage of a codomain element mask under a map given by the image
    bit of each domain element, as a domain element mask."""
    out = 0
    for k, img in enumerate(images):
        if mask & img:
            out |= 1 << k
    return out


def product(a: Presheaf, b: Presheaf) -> Presheaf:
    """Pointwise pairs with pairwise restriction; labels are (left, right)."""
    if a.poset != b.poset:
        raise ShapeMismatch("product factors live on different posets")
    sets = {
        u: frozenset((x, y) for x in a.sets[u] for y in b.sets[u])
        for u in a.poset.points
    }
    restr = {
        (u, v): {
            (x, y): (a.restr[(u, v)][x], b.restr[(u, v)][y])
            for (x, y) in sets[u]
        }
        for (u, v) in a.poset.arrows
    }
    return Presheaf(a.poset, sets, restr)
