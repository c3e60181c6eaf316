"""The table records of two faces: classifier endomaps and covering families.

An LT topology is stored as one table per point over that point's sieve
indices, and a Grothendieck topology as one tuple of covering sieve masks per
point.  The records need only the poset's sieve index, so the oracle searches
that build them load no presheaf, classifier or closure-law code; the axiom
checkers live in ``topology``.
"""

from __future__ import annotations

from .poset import DownSet, Poset, downset_sort_key, sieve_positions


class LTTopology:
    """Per-point endomap of the classifier, stored by sieve index."""

    __slots__ = ("poset", "tables")

    def __init__(self, poset: Poset, tables: tuple[tuple[int, ...], ...]):
        self.poset = poset
        self.tables = tables

    def __eq__(self, other) -> bool:
        if other.__class__ is not LTTopology:
            return NotImplemented
        return (self.poset, self.tables) == (other.poset, other.tables)

    def __hash__(self) -> int:
        return hash((self.poset, self.tables))


class GrothendieckTopology:
    """Per-point families of covering sieves, stored as canonical mask tuples."""

    __slots__ = ("poset", "covers")

    def __init__(self, poset: Poset, covers: tuple[tuple[int, ...], ...]):
        self.poset = poset
        self.covers = covers

    def __eq__(self, other) -> bool:
        if other.__class__ is not GrothendieckTopology:
            return NotImplemented
        return (self.poset, self.covers) == (other.poset, other.covers)

    def __hash__(self) -> int:
        return hash((self.poset, self.covers))

    def covers_mask_set(self, i: int) -> frozenset:
        return frozenset(self.covers[i])


def make_grotop(poset: Poset, families: dict) -> GrothendieckTopology:
    """Build from a mapping point -> iterable of sieves (DownSets or masks)."""
    covers = []
    for u in poset.points:
        fam = {s.mask if isinstance(s, DownSet) else int(s) for s in families.get(u, ())}
        pos = sieve_positions(poset, u)
        if fam <= pos.keys():  # sieve index order is downset_sort_key order
            covers.append(tuple(sorted(fam, key=pos.__getitem__)))
        else:
            covers.append(tuple(sorted(fam, key=downset_sort_key)))
    return GrothendieckTopology(poset, tuple(covers))
