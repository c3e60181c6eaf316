"""``Record``, the one equality of the package's values, and the table
records of two faces.

An LT topology is stored as one table per point over that point's sieve
indices, and a Grothendieck topology as one bitmask per point over the same
index: bit k is set when sieve k covers the point.  The records need only
the poset's sieve index, so the oracle searches that build them load no
presheaf, classifier or closure-law code; the axiom checkers live in
``topology``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .poset import Poset


class Record:
    """A slotted value: equal to a record of the same class whose fields,
    its slots that do not start with ``_``, are equal; hashed over them."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*(s for s in cls.__slots__ if not s.startswith("_")))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))


class LTTopology(Record):
    """Per-point endomap of the classifier, stored by sieve index."""

    __slots__ = ("poset", "tables")

    def __init__(self, poset: Poset, tables: tuple[tuple[int, ...], ...]):
        self.poset = poset
        self.tables = tables


class GrothendieckTopology(Record):
    """Per-point families of covering sieves, stored as bitmasks over each
    point's sieve index."""

    __slots__ = ("poset", "covers")

    def __init__(self, poset: Poset, covers: tuple[int, ...]):
        self.poset = poset
        self.covers = covers
