"""The Heyting algebra of down-sets, nuclei, and slashings.

A nucleus is an inflationary, idempotent, binary-meet-preserving endomap of
the down-set algebra.  Every subset Y of the points induces one via
``S -> interior(Q | S)`` where Q is the complement of Y, and every nucleus
arises this way; the slashing is the partition of the algebra into fibers of
the nucleus, each with a topmost element.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from ._kernels import enumerate_operator_tables
from .errors import InvalidNucleus, NotElement
from .poset import (
    DownSet,
    Poset,
    enumerate_downsets,
    interior_mask,
    lattice_tables,
)


class HeytingAlgebra:
    """All down-sets of a poset, ordered by inclusion: ``elements`` holds
    their masks and ``pos`` maps a mask to its index.  The methods that take
    or give a :class:`DownSet` are for callers outside the package."""

    __slots__ = ("poset", "elements", "pos", "_hash")

    def __init__(self, poset: Poset):
        self.poset = poset
        self.elements = enumerate_downsets(poset)
        self.pos = {m: i for i, m in enumerate(self.elements)}
        self._hash = hash(poset)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, HeytingAlgebra) and self.poset == other.poset

    def __hash__(self) -> int:
        return self._hash

    @property
    def bottom(self) -> DownSet:
        return DownSet(self.poset, self.elements[0])

    @property
    def top(self) -> DownSet:
        return DownSet(self.poset, self.elements[-1])

    def index(self, s: DownSet) -> int:
        if s.poset != self.poset:
            raise NotElement(f"{s!r} lives on a different poset")
        try:
            return self.pos[s.mask]
        except KeyError:
            raise NotElement(f"{s!r} is not an element of this algebra") from None

    def element(self, mask: int) -> DownSet:
        if mask not in self.pos:
            raise NotElement(f"mask {mask:#x} is not down-closed here")
        return DownSet(self.poset, mask)

    def meet(self, r: DownSet, s: DownSet) -> DownSet:
        self.index(r), self.index(s)
        return self.element(r.mask & s.mask)

    def join(self, r: DownSet, s: DownSet) -> DownSet:
        self.index(r), self.index(s)
        return self.element(r.mask | s.mask)

    def imp(self, r: DownSet, s: DownSet) -> DownSet:
        """Largest T with T meet R <= S: the interior of (complement of R) | S."""
        self.index(r), self.index(s)
        return self.element(interior_mask(self.poset, (self.poset.full_mask & ~r.mask) | s.mask))


@lru_cache(maxsize=4)
def algebra_of(poset: Poset) -> HeytingAlgebra:
    """The down-set algebra, built once per poset and kept, like ``omega``,
    while the poset is among the last few in use."""
    return HeytingAlgebra(poset)


class Nucleus:
    """A total table on a down-set algebra, stored by element index."""

    __slots__ = ("algebra", "table")

    def __init__(self, algebra: HeytingAlgebra, table: tuple[int, ...]):
        self.algebra = algebra
        self.table = table

    def __eq__(self, other) -> bool:
        if other.__class__ is not Nucleus:
            return NotImplemented
        return (self.algebra, self.table) == (other.algebra, other.table)

    def __hash__(self) -> int:
        return hash((self.algebra, self.table))


    def apply(self, s: DownSet) -> DownSet:
        algebra = self.algebra
        return DownSet(algebra.poset, algebra.elements[self.table[algebra.index(s)]])

    def __call__(self, s: DownSet) -> DownSet:
        return self.apply(s)


class AxiomFailure:
    __slots__ = ("axiom", "witness")

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness

    def __eq__(self, other) -> bool:
        if other.__class__ is not AxiomFailure:
            return NotImplemented
        return (self.axiom, self.witness) == (other.axiom, other.witness)

    def __hash__(self) -> int:
        return hash((self.axiom, self.witness))


    def __str__(self) -> str:
        parts = ", ".join(repr(w) for w in self.witness)
        return f"{self.axiom} fails at {parts}"


class CheckReport:
    """Outcome of an axiom scan: empty failure list means pass."""

    __slots__ = ("subject", "failures")

    def __init__(self, subject: str, failures: tuple[AxiomFailure, ...]):
        self.subject = subject
        self.failures = failures

    def __eq__(self, other) -> bool:
        if other.__class__ is not CheckReport:
            return NotImplemented
        return (self.subject, self.failures) == (other.subject, other.failures)

    def __hash__(self) -> int:
        return hash((self.subject, self.failures))


    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: pass"
        lines = [f"{self.subject}: FAIL"]
        lines.extend(f"  {f}" for f in self.failures)
        return "\n".join(lines)


def operator_failures(
    masks: tuple[int, ...], pos: dict, table: tuple[int, ...]
) -> tuple[int | None, tuple[int, int] | None]:
    """The first index k with ``table[table[k]] != table[k]``, and the first
    pair ``(a, b)``, a <= b in row order, where ``table`` does not preserve
    the meet of ``masks[a]`` and ``masks[b]``; None where there is none.

    ``masks`` is a lattice of down-sets closed under intersection, ``pos``
    its mask-to-index map and ``table`` an endomap by index: a nucleus on
    ``H`` or one point's component of an LT topology on ``Omega(u)``.
    """
    n = len(masks)
    idem = next((k for k in range(n) if table[table[k]] != table[k]), None)
    for a in range(n):
        ma, ja = masks[a], masks[table[a]]
        for b in range(a, n):
            if table[pos[ma & masks[b]]] != pos[ja & masks[table[b]]]:
                return idem, (a, b)
    return idem, None


def is_nucleus(algebra: HeytingAlgebra, table: tuple[int, ...]) -> CheckReport:
    """Check the three nucleus axioms, reporting a witness per failure."""
    els = algebra.elements
    n = len(els)
    failures = []
    if len(table) != n or any(not 0 <= v < n for v in table):
        raise NotElement("table is not a total map on the algebra")
    bad_inflation = next((i for i in range(n) if els[i] & ~els[table[i]]), None)
    if bad_inflation is not None:
        failures.append(AxiomFailure("inflationary", (algebra.element(els[bad_inflation]),)))
    idem, meet = operator_failures(els, algebra.pos, table)
    if idem is not None:
        failures.append(AxiomFailure("idempotent", (algebra.element(els[idem]),)))
    if meet is not None:
        witness = tuple(algebra.element(els[k]) for k in meet)
        failures.append(AxiomFailure("meet-preserving", witness))
    return CheckReport("nucleus axioms", tuple(failures))


def nucleus_from_point_set(algebra: HeytingAlgebra, kept: Iterable) -> Nucleus:
    """Nucleus induced by a point set Y: S -> interior(Q | S), Q the complement."""
    poset = algebra.poset
    q_mask = poset.full_mask & ~poset.mask_of(kept)
    table = tuple(algebra.pos[interior_mask(poset, q_mask | s)] for s in algebra.elements)
    return Nucleus(algebra, table)


def point_set_of_nucleus(nucleus: Nucleus) -> frozenset:
    """The points where the nucleus separates ``down u`` from ``strictly-down u``."""
    algebra = nucleus.algebra
    poset = algebra.poset
    out = []
    for i, u in enumerate(poset.points):
        full = algebra.pos[poset.down_mask_at(i)]
        strict = algebra.pos[poset.down_mask_at(i) & ~(1 << i)]
        if nucleus.table[full] != nucleus.table[strict]:
            out.append(u)
    return frozenset(out)


def modality_on_downset(nucleus: Nucleus, s: DownSet):
    """The induced operator R -> (R* meet S) on the elements below S."""
    algebra = nucleus.algebra
    algebra.index(s)

    def act(r: DownSet) -> DownSet:
        ri = algebra.index(r)
        if r.mask & ~s.mask:
            raise NotElement(f"{r!r} is not below {s!r}")
        return algebra.element(algebra.elements[nucleus.table[ri]] & s.mask)

    return act


class Slashing:
    """A partition of the algebra into regions, each with a topmost element."""

    __slots__ = ("algebra", "classes", "region_tops")

    def __init__(
        self,
        algebra: HeytingAlgebra,
        classes: tuple[tuple[int, ...], ...],
        region_tops: tuple[int, ...],
    ):
        self.algebra = algebra
        self.classes = classes
        self.region_tops = region_tops


    def as_partition(self) -> frozenset:
        return frozenset(frozenset(c) for c in self.classes)


def _build_slashing(algebra: HeytingAlgebra, key_of) -> Slashing:
    groups: dict = {}
    for i in range(len(algebra.elements)):
        groups.setdefault(key_of(i), []).append(i)
    classes = sorted((tuple(v) for v in groups.values()), key=lambda c: c[0])
    tops = []
    for cls in classes:
        union = 0
        for i in cls:
            union |= algebra.elements[i]
        tops.append(algebra.pos[union])
    for cls, top in zip(classes, tops):
        if top not in cls:
            raise InvalidNucleus("region has no topmost member")
    return Slashing(algebra, tuple(classes), tuple(tops))


def slashing_from_erased(algebra: HeytingAlgebra, erased: Iterable) -> Slashing:
    """Regions of elements that agree once the erased points are removed."""
    q_mask = algebra.poset.mask_of(erased)
    return _build_slashing(algebra, lambda i: algebra.elements[i] & ~q_mask)


def slashing_from_nucleus(nucleus: Nucleus) -> Slashing:
    return _build_slashing(nucleus.algebra, lambda i: nucleus.table[i])


def slashings_agree(a: Slashing, b: Slashing) -> bool:
    return a.algebra == b.algebra and a.as_partition() == b.as_partition()


# the oracle enumerators' default point cap (see ``census``), here so that
# the CLI's help text reads it without compiling the census
DEFAULT_ORACLE_POINT_CAP = 6


def enumerate_nucleus_tables(algebra: HeytingAlgebra) -> list[tuple[int, ...]]:
    """Brute-force search for every table passing the nucleus axioms."""
    return enumerate_operator_tables(
        len(algebra.elements),
        *lattice_tables(algebra.elements),
        inflationary=True,
        top_fixed=False,
    )
