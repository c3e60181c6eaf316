"""Nuclei on the Heyting algebra H of down-sets, and axiom reports.

H is read off the poset: its elements are ``enumerate_downsets(poset)``
and ``downset_positions(poset)`` maps each to its index.  A nucleus is an
inflationary, idempotent, binary-meet-preserving endomap of H.  Every
subset Y of the points induces one via ``S -> interior(Q | S)`` where Q is
the complement of Y, and every nucleus arises this way.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotElement
from .poset import DownSet, Poset, downset_positions, enumerate_downsets, interior_mask
from .records import Record


class Nucleus(Record):
    """A total table on the down-set algebra of a poset, stored by the index
    of each down-set in ``enumerate_downsets``."""

    __slots__ = ("poset", "table")

    def __init__(self, poset: Poset, table: tuple[int, ...]):
        self.poset = poset
        self.table = table


class AxiomFailure(Record):
    __slots__ = ("axiom", "witness")

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness

    def __str__(self) -> str:
        parts = ", ".join(repr(w) for w in self.witness)
        return f"{self.axiom} fails at {parts}"


class CheckReport(Record):
    """Outcome of an axiom scan: empty failure list means pass."""

    __slots__ = ("subject", "failures")

    def __init__(self, subject: str, failures: tuple[AxiomFailure, ...]):
        self.subject = subject
        self.failures = failures

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


def is_nucleus(nucleus: Nucleus) -> CheckReport:
    """Check the three nucleus axioms, reporting a witness per failure."""
    poset, table = nucleus.poset, nucleus.table
    els = enumerate_downsets(poset)
    n = len(els)
    failures = []
    if len(table) != n or any(not 0 <= v < n for v in table):
        raise NotElement("table is not a total map on the algebra")
    bad_inflation = next((i for i in range(n) if els[i] & ~els[table[i]]), None)
    if bad_inflation is not None:
        failures.append(AxiomFailure("inflationary", (DownSet(poset, els[bad_inflation]),)))
    idem, meet = operator_failures(els, downset_positions(poset), table)
    if idem is not None:
        failures.append(AxiomFailure("idempotent", (DownSet(poset, els[idem]),)))
    if meet is not None:
        witness = tuple(DownSet(poset, els[k]) for k in meet)
        failures.append(AxiomFailure("meet-preserving", witness))
    return CheckReport("nucleus axioms", tuple(failures))


def nucleus_from_point_set(poset: Poset, kept: Iterable) -> Nucleus:
    """Nucleus induced by a point set Y: S -> interior(Q | S), Q the complement."""
    pos = downset_positions(poset)
    q_mask = poset.full_mask & ~poset.mask_of(kept)
    return Nucleus(poset, tuple(pos[interior_mask(poset, q_mask | s)] for s in pos))


def point_set_of_nucleus(nucleus: Nucleus) -> frozenset:
    """The points where the nucleus separates ``down u`` from ``strictly-down u``."""
    poset = nucleus.poset
    pos = downset_positions(poset)
    out = []
    for i, u in enumerate(poset.points):
        full = pos[poset.down_mask_at(i)]
        strict = pos[poset.down_mask_at(i) & ~(1 << i)]
        if nucleus.table[full] != nucleus.table[strict]:
            out.append(u)
    return frozenset(out)
