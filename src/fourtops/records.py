"""``Record``, the one equality of the package's values, and the table
records of three faces.

A nucleus is stored as one table over the down-set algebra, an LT topology
as one table per point over that point's sieve indices, and a Grothendieck
topology as one bitmask per point over the same index: bit k is set when
sieve k covers the point.  The records need only the poset's indexes, so
the oracle searches that build them load no presheaf, classifier or checker
code; the checkers live in ``heyting`` and ``topology``.
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


class Nucleus(Record):
    """A total table on the down-set algebra of a poset, stored by the index
    of each down-set in ``enumerate_downsets``."""

    __slots__ = ("poset", "table")

    def __init__(self, poset: Poset, table: tuple[int, ...]):
        self.poset = poset
        self.table = table


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
