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
from .errors import InvalidNucleus, NotElement, SizeCapExceeded
from .poset import (
    DEFAULT_POINT_CAP,
    DownSet,
    Poset,
    enumerate_downsets,
    interior_mask,
    lattice_tables,
)


class HeytingAlgebra:
    """All down-sets of a poset, ordered by inclusion."""

    __slots__ = ("poset", "elements", "_pos", "_hash")

    def __init__(self, poset: Poset):
        self.poset = poset
        self.elements = enumerate_downsets(poset, DEFAULT_POINT_CAP)
        self._pos = {s.mask: i for i, s in enumerate(self.elements)}
        self._hash = hash(poset)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, HeytingAlgebra) and self.poset == other.poset

    def __hash__(self) -> int:
        return self._hash

    @property
    def bottom(self) -> DownSet:
        return self.elements[0]

    @property
    def top(self) -> DownSet:
        return self.elements[-1]

    def index(self, s: DownSet) -> int:
        if s.poset != self.poset:
            raise NotElement(f"{s!r} lives on a different poset")
        try:
            return self._pos[s.mask]
        except KeyError:
            raise NotElement(f"{s!r} is not an element of this algebra") from None

    def element(self, mask: int) -> DownSet:
        if mask not in self._pos:
            raise NotElement(f"mask {mask:#x} is not down-closed here")
        return self.elements[self._pos[mask]]

    def meet(self, r: DownSet, s: DownSet) -> DownSet:
        self.index(r), self.index(s)
        return self.elements[self._pos[r.mask & s.mask]]

    def join(self, r: DownSet, s: DownSet) -> DownSet:
        self.index(r), self.index(s)
        return self.elements[self._pos[r.mask | s.mask]]

    def imp(self, r: DownSet, s: DownSet) -> DownSet:
        """Largest T with T meet R <= S: the interior of (complement of R) | S."""
        self.index(r), self.index(s)
        mask = interior_mask(self.poset, (self.poset.full_mask & ~r.mask) | s.mask)
        return self.elements[self._pos[mask]]

    def meet_table(self) -> tuple[int, ...]:
        return lattice_tables([s.mask for s in self.elements])[1]

    def up_masks(self) -> tuple[int, ...]:
        return lattice_tables([s.mask for s in self.elements])[0]


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
        return self.algebra.elements[self.table[self.algebra.index(s)]]

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


def is_nucleus(algebra: HeytingAlgebra, table: tuple[int, ...]) -> CheckReport:
    """Check the three nucleus axioms, reporting a witness per failure."""
    els = algebra.elements
    n = len(els)
    failures = []
    if len(table) != n or any(not 0 <= v < n for v in table):
        raise NotElement("table is not a total map on the algebra")
    for i in range(n):
        if els[i].mask & ~els[table[i]].mask:
            failures.append(AxiomFailure("inflationary", (els[i],)))
            break
    for i in range(n):
        if table[table[i]] != table[i]:
            failures.append(AxiomFailure("idempotent", (els[i],)))
            break
    done = False
    for i in range(n):
        for j in range(i, n):
            m = algebra._pos[els[i].mask & els[j].mask]
            if table[m] != algebra._pos[els[table[i]].mask & els[table[j]].mask]:
                failures.append(AxiomFailure("meet-preserving", (els[i], els[j])))
                done = True
                break
        if done:
            break
    return CheckReport("nucleus axioms", tuple(failures))


def nucleus_from_point_set(algebra: HeytingAlgebra, kept: Iterable) -> Nucleus:
    """Nucleus induced by a point set Y: S -> interior(Q | S), Q the complement."""
    poset = algebra.poset
    q_mask = poset.full_mask & ~poset.mask_of(kept)
    table = tuple(
        algebra._pos[interior_mask(poset, q_mask | s.mask)] for s in algebra.elements
    )
    return Nucleus(algebra, table)


@lru_cache(maxsize=64)
def _require_nucleus(n: Nucleus) -> None:
    """Raise InvalidNucleus unless n passes the nucleus axioms.

    Nuclei are frozen and hashed by value, so each passing value is checked
    once; a failed check raises, and lru_cache keeps nothing for a call that
    raised, so it raises again on every call.  The route checkers revisit one
    poset's structures, one per point set, before they move on, so 64 entries
    hold them all up to six points (the default oracle cap) while memory
    stays flat over a long sweep.
    """
    report = is_nucleus(n.algebra, n.table)
    if not report.ok:
        raise InvalidNucleus(report.summary())


def point_set_of_nucleus(nucleus: Nucleus) -> frozenset:
    """The points where the nucleus separates ``down u`` from ``strictly-down u``."""
    _require_nucleus(nucleus)
    algebra = nucleus.algebra
    poset = algebra.poset
    out = []
    for i, u in enumerate(poset.points):
        full = algebra._pos[poset.down_mask_at(i)]
        strict = algebra._pos[poset.down_mask_at(i) & ~(1 << i)]
        if nucleus.table[full] != nucleus.table[strict]:
            out.append(u)
    return frozenset(out)


def modality_on_downset(nucleus: Nucleus, s: DownSet):
    """The induced operator R -> (R* meet S) on the elements below S."""
    algebra = nucleus.algebra
    si = algebra.index(s)
    els = algebra.elements

    def act(r: DownSet) -> DownSet:
        ri = algebra.index(r)
        if els[ri].mask & ~s.mask:
            raise NotElement(f"{r!r} is not below {s!r}")
        return algebra.element(els[nucleus.table[ri]].mask & els[si].mask)

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
            union |= algebra.elements[i].mask
        tops.append(algebra._pos[union])
    for cls, top in zip(classes, tops):
        if top not in cls:
            raise InvalidNucleus("region has no topmost member")
    return Slashing(algebra, tuple(classes), tuple(tops))


def slashing_from_erased(algebra: HeytingAlgebra, erased: Iterable) -> Slashing:
    """Regions of elements that agree once the erased points are removed."""
    q_mask = algebra.poset.mask_of(erased)
    return _build_slashing(algebra, lambda i: algebra.elements[i].mask & ~q_mask)


def slashing_from_nucleus(nucleus: Nucleus) -> Slashing:
    return _build_slashing(nucleus.algebra, lambda i: nucleus.table[i])


def slashings_agree(a: Slashing, b: Slashing) -> bool:
    return a.algebra == b.algebra and a.as_partition() == b.as_partition()


DEFAULT_ORACLE_POINT_CAP = 6


def enumerate_nucleus_tables(
    algebra: HeytingAlgebra, point_cap: int = DEFAULT_ORACLE_POINT_CAP
) -> list[tuple[int, ...]]:
    """Brute-force search for every table passing the nucleus axioms."""
    if len(algebra.poset.points) > point_cap:
        raise SizeCapExceeded(
            f"oracle nucleus enumeration capped at {point_cap} points"
        )
    return enumerate_operator_tables(
        len(algebra.elements),
        *lattice_tables([s.mask for s in algebra.elements]),
        inflationary=True,
        top_fixed=False,
    )
