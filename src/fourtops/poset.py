"""Finite downward-directed posets, down-sets, and two-column graphs.

Convention: an arrow ``u -> v`` means "u is above v".  ``above(u, v)`` is the
reflexive-transitive closure of the generating arrows.  Down-sets are closed
under going below and are represented as bitmasks over the point list, which
keeps meets, joins and interiors cheap for the enumerators downstream.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, permutations, product
from typing import Hashable, Iterable, Sequence

from .errors import CycleError, NotDownClosed, SizeCapExceeded, UnknownPoint
from .records import Record

PointId = Hashable

# Enumerators downstream are exponential in the point count.
DEFAULT_POINT_CAP = 16


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class Poset(Record):
    """A finite poset presented by points and generating arrows (a DAG)."""

    __slots__ = ("points", "arrows", "_index", "_down", "_hash")

    def __init__(self, points: Sequence[PointId], arrows: Iterable[tuple[PointId, PointId]] = ()):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise UnknownPoint(f"duplicate point names in {pts!r}")
        self.points = pts
        self._index = {u: i for i, u in enumerate(pts)}
        # checked in the order given, so the first bad arrow is the one named
        arrows = tuple(arrows)
        for u, v in arrows:
            for w in (u, v):
                if w not in self._index:
                    raise UnknownPoint(f"arrow {(u, v)!r}: unknown point {w!r}")
            if u == v:
                raise CycleError(f"self-arrow on {u!r}")
        self.arrows = frozenset(arrows)
        self._down = self._close()
        self._hash = hash((pts, self.arrows))

    def _close(self) -> tuple[int, ...]:
        n = len(self.points)
        step = [0] * n
        for u, v in self.arrows:
            step[self._index[u]] |= 1 << self._index[v]
        down = [1 << i for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = down[i]
                rest = step[i]
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    acc |= down[j]
                if acc != down[i]:
                    down[i] = acc
                    changed = True
        for i in range(n):
            for j in range(i + 1, n):
                if down[i] >> j & 1 and down[j] >> i & 1:
                    raise CycleError(
                        f"directed cycle through {self.points[i]!r} and {self.points[j]!r}"
                    )
        return tuple(down)

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __hash__(self) -> int:
        # computed once: every lru_cache lookup hashes the poset
        return self._hash

    def __repr__(self) -> str:
        return f"Poset({list(self.points)!r}, {sorted(map(repr, self.arrows))})"

    def index(self, u: PointId) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise UnknownPoint(f"unknown point {u!r}") from None

    def above(self, u: PointId, v: PointId) -> bool:
        """True when u is above v (reflexive-transitive)."""
        return bool(self._down[self.index(u)] >> self.index(v) & 1)

    def down_mask(self, u: PointId) -> int:
        return self._down[self.index(u)]

    def down_mask_at(self, i: int) -> int:
        return self._down[i]

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def mask_of(self, names: Iterable[PointId]) -> int:
        mask = 0
        for u in names:
            mask |= 1 << self.index(u)
        return mask

    def names_of(self, mask: int) -> tuple[PointId, ...]:
        return tuple(u for i, u in enumerate(self.points) if mask >> i & 1)

    def braced(self, mask: int) -> str:
        """The points of a mask as ``{a,b}``, in point order."""
        return "{" + ",".join(str(u) for u in self.names_of(mask)) + "}"

    def is_down_closed(self, mask: int) -> bool:
        acc = 0
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            acc |= self._down[i]
        return acc == mask


class DownSet(Record):
    """A downward-closed subset of a poset, stored as a bitmask and checked
    on construction: the form a down-set takes where it leaves the package.
    The enumerators give bare masks."""

    __slots__ = ("poset", "mask")

    def __init__(self, poset: Poset, mask: int):
        if mask & ~poset.full_mask:
            raise UnknownPoint(f"mask {mask:#x} has bits outside the poset")
        if not poset.is_down_closed(mask):
            raise NotDownClosed(f"{poset.names_of(mask)!r} is not down-closed")
        self.poset = poset
        self.mask = mask

    @property
    def members(self) -> tuple[PointId, ...]:
        return self.poset.names_of(self.mask)

    def __repr__(self) -> str:
        return self.poset.braced(self.mask)


def interior_mask(poset: Poset, mask: int) -> int:
    downs = poset._down
    out = 0
    rest = mask
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if downs[i] & ~mask == 0:
            out |= 1 << i
    return out


def downset_sort_key(mask: int) -> tuple:
    """Order: size first, then lexicographic membership in point order; over
    all point masks, the order of the formula censuses and the route pass."""
    return (mask.bit_count(), tuple(_bits(mask)))


def point_masks(poset: Poset) -> list[int]:
    """Every point mask in ``downset_sort_key`` order: the walk of the
    formula censuses and the route pass."""
    return sorted(range(1 << len(poset.points)), key=downset_sort_key)


def _downsets(down: Sequence[int], top: int, limit: int | None = None) -> tuple[int, ...]:
    """The masks of the first ``limit`` (default: all) down-sets inside
    ``top``, in (size, membership) order, over a down table: ``down[i]`` is
    the mask of everything at or below i, as ``Poset._down`` gives for a
    poset's points and ``ElementIndex.down`` for a presheaf's elements.

    They are generated one size level at a time, so a limit stops the walk
    early: a down-set of size k + 1 is one of size k plus a point whose
    strict down-set it holds.
    """
    strict = [d & ~(1 << i) for i, d in enumerate(down)]
    masks: list[int] = []
    level = [0]
    while level and (limit is None or len(masks) < limit):
        level.sort(key=downset_sort_key)
        masks.extend(level)
        grown = set()
        for mask in level:
            rest = top & ~mask
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if strict[i] & ~mask == 0:
                    grown.add(mask | 1 << i)
        level = list(grown)
    return tuple(masks[:limit])


def _require_point_cap(n: int) -> None:
    """SizeCapExceeded if ``n`` points are over the cap of down-set and sieve
    enumeration."""
    if n > DEFAULT_POINT_CAP:
        raise SizeCapExceeded(f"{n} points exceeds cap {DEFAULT_POINT_CAP}")


@lru_cache(maxsize=None)
def enumerate_downsets(poset: Poset) -> tuple[int, ...]:
    """The masks of all down-sets, in (size, membership) order."""
    _require_point_cap(len(poset.points))
    return _downsets(poset._down, poset.full_mask)


@lru_cache(maxsize=None)
def downset_positions(poset: Poset) -> dict:
    """Mask -> index into :func:`enumerate_downsets`: with it, the down-set
    algebra H, whose elements a nucleus table indexes."""
    return {m: k for k, m in enumerate(enumerate_downsets(poset))}


@lru_cache(maxsize=None)
def sieves_on(poset: Poset, u: PointId) -> tuple[int, ...]:
    """The masks of all sieves on u: down-sets of the ambient poset contained
    in ``down u``.

    They are the principal ideal below ``down u`` of the down-set lattice, in
    the order of :func:`enumerate_downsets`, under the same point cap.
    """
    _require_point_cap(len(poset.points))
    return _downsets(poset._down, poset.down_mask(u))


@lru_cache(maxsize=None)
def sieve_positions(poset: Poset, u: PointId) -> dict:
    """Mask -> index into :func:`sieves_on`, the one index of the sieves on u."""
    return {m: k for k, m in enumerate(sieves_on(poset, u))}


def lattice_tables(masks: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order and meet tables of a family of masks closed under intersection.

    ``up[a]`` has bit b set when ``masks[a]`` is contained in ``masks[b]``;
    ``meet[a * n + b]`` is the index of ``masks[a] & masks[b]``.  This is the
    input the oracle table search takes.
    """
    n = len(masks)
    pos = {m: k for k, m in enumerate(masks)}
    up = [0] * n
    meet = [0] * (n * n)
    for a, ma in enumerate(masks):
        for b, mb in enumerate(masks):
            if ma | mb == mb:
                up[a] |= 1 << b
            meet[a * n + b] = pos[ma & mb]
    return tuple(up), tuple(meet)


def sieve_restriction(
    poset: Poset, u: PointId, v: PointId
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The classifier's restriction from u to a point v below it, by index.

    ``restr[k]`` is the position of ``sieves_on(u)[k] & down v`` among the
    sieves on v, and ``fib[r]`` the bitmask of the sieves on u that restrict
    to sieve r on v.
    """
    down_v = poset.down_mask(v)
    pos_v = sieve_positions(poset, v)
    restr = tuple(pos_v[s & down_v] for s in sieves_on(poset, u))
    fib = [0] * len(pos_v)
    for k, r in enumerate(restr):
        fib[r] |= 1 << k
    return restr, tuple(fib)


def canonical_form(poset: Poset) -> tuple[int, ...]:
    """The smallest ``_down`` tuple over the relabellings that list the points
    by (|down|, |up|): two posets are isomorphic exactly when their forms are
    equal.

    An isomorphism keeps each point's (|down|, |up|), so isomorphic posets
    have the same such relabellings, and only points within one block of
    equal pairs are permuted.
    """
    down = poset._down
    n = len(down)
    shape = [(down[i].bit_count(), sum(d >> i & 1 for d in down)) for i in range(n)]
    order = sorted(range(n), key=shape.__getitem__)
    blocks = [tuple(g) for _, g in groupby(order, key=shape.__getitem__)]

    def relabel(choice) -> tuple[int, ...]:
        old = [i for block in choice for i in block]
        new = {i: k for k, i in enumerate(old)}
        return tuple(sum(1 << new[j] for j in range(n) if down[i] >> j & 1) for i in old)

    return min(map(relabel, product(*(permutations(b) for b in blocks))))


# -- two-column graphs -----------------------------------------------------


def left_name(k: int) -> str:
    return f"{k}_"


def right_name(k: int) -> str:
    return f"_{k}"


class TwoColumnGraph(Record):
    """Two columns of heights p and q with optional cross arrows.

    Column arrows ``(k+1)_ -> k_`` and ``_(k+1) -> _k`` are implicit; cross
    arrows connect distinct columns and must keep the graph acyclic.
    """

    __slots__ = ("p", "q", "cross", "_poset")

    def __init__(self, p: int, q: int, cross: Iterable = frozenset()):
        if p < 0 or q < 0:
            raise ValueError("column heights must be nonnegative")
        # checked in the order given, so the first bad arrow is the one named
        cross = tuple(cross)
        left = {left_name(k) for k in range(1, p + 1)}
        right = {right_name(k) for k in range(1, q + 1)}
        for u, v in cross:
            for w in (u, v):
                if w not in left and w not in right:
                    raise UnknownPoint(f"cross arrow {(u, v)!r}: unknown point {w!r}")
            if (u in left) == (v in left):
                raise NotDownClosed(f"cross arrow {(u, v)!r} must connect distinct columns")
        self.p = p
        self.q = q
        self.cross = frozenset(cross)
        self._poset = None

    def point_names(self) -> tuple[str, ...]:
        lefts = [left_name(k) for k in range(self.p, 0, -1)]
        rights = [right_name(k) for k in range(self.q, 0, -1)]
        return tuple(lefts + rights)

    def poset(self) -> Poset:
        """The graph's poset, built on first use and kept while the graph is."""
        if self._poset is None:
            arrows = set(self.cross)
            for k in range(1, self.p):
                arrows.add((left_name(k + 1), left_name(k)))
            for k in range(1, self.q):
                arrows.add((right_name(k + 1), right_name(k)))
            self._poset = Poset(self.point_names(), arrows)
        return self._poset

    def pile_mask(self, a: int, b: int) -> int:
        if not (0 <= a <= self.p and 0 <= b <= self.q):
            raise UnknownPoint(f"pile ({a},{b}) out of range for p={self.p}, q={self.q}")
        # points are listed left column top-down then right column top-down
        left_bits = ((1 << a) - 1) << (self.p - a)
        right_bits = ((1 << b) - 1) << (self.q - b)
        return left_bits | right_bits << self.p

    def pile_code(self, s: DownSet) -> tuple[int, int]:
        """Invert :meth:`pile`.  Every down-set of a 2CG poset is a pile."""
        poset = self.poset()
        if s.poset != poset:
            raise UnknownPoint("down-set belongs to a different poset")
        a = sum(1 for k in range(1, self.p + 1) if s.mask >> poset.index(left_name(k)) & 1)
        b = sum(1 for k in range(1, self.q + 1) if s.mask >> poset.index(right_name(k)) & 1)
        if s.mask != self.pile_mask(a, b):
            raise NotDownClosed(f"{s!r} is not a column segment")
        return (a, b)

    def code_of_mask(self, mask: int) -> tuple[int, int]:
        return self.pile_code(DownSet(self.poset(), mask))


def star_graph() -> TwoColumnGraph:
    """The running 4-point example: p = q = 2 with cross arrow 2_ -> _1."""
    return TwoColumnGraph(2, 2, frozenset({("2_", "_1")}))
