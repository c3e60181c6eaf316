"""The Heyting algebra of down-sets and nuclei.

A nucleus is an inflationary, idempotent, binary-meet-preserving endomap of
the down-set algebra.  Every subset Y of the points induces one via
``S -> interior(Q | S)`` where Q is the complement of Y, and every nucleus
arises this way.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

# the oracle point cap lives in ``errors``, which the CLI's parser reads
# alone; the census and ``enumerate`` read it here
from .errors import DEFAULT_ORACLE_POINT_CAP, NotElement
from .poset import DownSet, Poset, enumerate_downsets, interior_mask


class HeytingAlgebra:
    """All down-sets of a poset, ordered by inclusion: ``elements`` holds
    their masks and ``pos`` maps a mask to its index; ``element`` gives the
    :class:`DownSet` of a mask, as failure witnesses name it."""

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

    def element(self, mask: int) -> DownSet:
        if mask not in self.pos:
            raise NotElement(f"mask {mask:#x} is not down-closed here")
        return DownSet(self.poset, mask)


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
