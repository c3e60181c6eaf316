"""The nucleus laws on the Heyting algebra H of down-sets, and axiom reports.

H is read off the poset: its elements are ``enumerate_downsets(poset)``
and ``downset_positions(poset)`` maps each to its index.  A nucleus is an
inflationary, idempotent, binary-meet-preserving endomap of H, held in a
``records.Nucleus``; ``convert`` builds each point set's nucleus.
``operator_failures`` decides idempotence and meets there and on each
component of an LT topology; every checker reports in ``CheckReport``.
"""

from __future__ import annotations

from .errors import NotElement
from .poset import DownSet, downset_positions, enumerate_downsets
from .records import Nucleus, Record


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
