"""The table records of two faces: classifier endomaps and covering families.

An LT topology is stored as one table per point over that point's sieve
indices, and a Grothendieck topology as one bitmask per point over the same
index: bit k is set when sieve k covers the point.  The records need only
the poset's sieve index, so the oracle searches that build them load no
presheaf, classifier or closure-law code; the axiom checkers live in
``topology``.
"""

from __future__ import annotations

from .poset import Poset


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
    """Per-point families of covering sieves, stored as bitmasks over each
    point's sieve index."""

    __slots__ = ("poset", "covers")

    def __init__(self, poset: Poset, covers: tuple[int, ...]):
        self.poset = poset
        self.covers = covers

    def __eq__(self, other) -> bool:
        if other.__class__ is not GrothendieckTopology:
            return NotImplemented
        return (self.poset, self.covers) == (other.poset, other.covers)

    def __hash__(self) -> int:
        return hash((self.poset, self.covers))
