"""The laws of every face, the axiom reports, and the closure operator.

A nucleus is an inflationary, idempotent, binary-meet-preserving endomap of
the down-set algebra H (``enumerate_downsets`` with ``downset_positions``);
per-point endomaps of the classifier are checked against naturality and the
three endomap laws, and per-point families of covering sieves against
hasmax / stab / trans.  ``operator_failures`` decides idempotence and meets
on H and on each point's sieves, and every checker reports in
``CheckReport``.  The closure operator an endomap induces on sub-presheaves
is read as element masks.  The conversions, ``j_from_closure`` among them,
live in ``convert``; the five closure laws over a finite test universe and
the filter laws, which only ``check axioms`` runs, in ``axioms``.
"""

from __future__ import annotations

from .errors import InvalidTopology, NotElement
from .poset import DownSet, GrothendieckTopology, LTTopology, Nucleus, Poset, Record, _bits, downset_positions, enumerate_downsets, sieve_positions, sieve_restriction, sieves_on
from .presheaf import ElementIndex


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


def is_lt_topology(j: LTTopology) -> CheckReport:
    """Naturality plus the three endomap laws, with witnesses, decided on the
    sieve-index tables.  The tests check the verdicts against the same laws
    as equations of presheaf morphisms (``lt_laws_literal``)."""
    poset = j.poset
    failures = []
    for i, u in enumerate(poset.points):
        n = len(sieves_on(poset, u))
        if len(j.tables[i]) != n or any(not 0 <= v < n for v in j.tables[i]):
            raise InvalidTopology(f"table at {u!r} does not match the classifier")
    for (u, v) in sorted(poset.arrows, key=repr):
        restr, _ = sieve_restriction(poset, u, v)
        tu, tv = j.tables[poset.index(u)], j.tables[poset.index(v)]
        for k, s in enumerate(sieves_on(poset, u)):
            if restr[tu[k]] != tv[restr[k]]:
                failures.append(AxiomFailure("naturality", ((u, v), DownSet(poset, s))))
                break
    for i, u in enumerate(poset.points):
        table, sieves = j.tables[i], sieves_on(poset, u)
        idem, meet = operator_failures(sieves, sieve_positions(poset, u), table)
        if idem is not None:
            failures.append(AxiomFailure("idempotent", (u, DownSet(poset, sieves[idem]))))
        if table[-1] != len(table) - 1:
            failures.append(AxiomFailure("preserves-true", (u,)))
        if meet is not None:
            failures.append(
                AxiomFailure("preserves-meets", (u, *(DownSet(poset, sieves[k]) for k in meet)))
            )
    return CheckReport("topology axioms", tuple(failures))


class ClosureOperator:
    """Closure on sub-presheaves, represented by its inducing classifier
    endomap.

    A free-standing table over every object would be infinite; the inducing
    endomap determines the action on any sub-presheaf, and the closure laws are
    validated against that action over a finite universe.  ``cover`` holds
    one key ``sieve mask * width + point index`` per sieve the endomap sends
    to the maximal one, the keys of the truth-value groups an element index
    builds (``ElementIndex.sliced_groups``), and :meth:`close` sums the
    covered groups; the closed masks are read through a table over an
    element index (see ``_Closures``).
    """

    __slots__ = ("lt", "cover")

    def __init__(self, lt: LTTopology):
        self.lt = lt
        poset = lt.poset
        width = len(poset.points)
        cover = []
        for i, u in enumerate(poset.points):
            sieves = sieves_on(poset, u)
            top = len(sieves) - 1
            cover.extend(m * width + i for m, k in zip(sieves, lt.tables[i]) if k == top)
        self.cover = frozenset(cover)

    @property
    def poset(self) -> Poset:
        return self.lt.poset

    def closures(self, index: ElementIndex) -> "_Closures":
        """Element mask -> closed mask over ``index``, a new table that the
        caller keeps as long as it reads it: the table keeps its operator,
        so an operator that kept its tables would be freed only by the
        cyclic collector, and every table with it."""
        return _Closures(index, self)

    def close(self, groups: dict) -> int:
        """The closures of the masks grouped in ``groups``, in their fields:
        the sum of the covered groups, which are disjoint."""
        return sum(map(groups.__getitem__, self.cover.intersection(groups)))


class _Closures(dict):
    """Element mask -> closed mask, for one closure operator on one element
    index.

    A mask is closed by the operator from the truth-value groups the index
    keeps; a closure that is not a sub-presheaf raises FunctorialityError.
    """

    __slots__ = ("index", "clop")

    def __init__(self, index: ElementIndex, clop: ClosureOperator):
        super().__init__()
        self.index = index
        self.clop = clop

    def __missing__(self, mask: int) -> int:
        index = self.index
        got = self.clop.close(index.truth_groups(mask))
        index.require_all_down_closed((got,))
        self[mask] = got
        return got


# -- covering-sieve topologies ----------------------------------------------


def is_grothendieck(j: GrothendieckTopology) -> CheckReport:
    """Bounds, hasmax, stab, and trans, with witnesses."""
    poset = j.poset
    points, downs, covers = poset.points, poset._down, j.covers
    failures = []
    positions = [sieve_positions(poset, u) for u in points]
    # the covering masks of each point, in sieve-index order
    family = [[m for m, k in pos.items() if c >> k & 1] for pos, c in zip(positions, covers)]
    for i, u in enumerate(points):
        if covers[i] >> len(positions[i]):
            failures.append(AxiomFailure("bounds", (u,)))
        if not covers[i] >> positions[i][downs[i]] & 1:
            failures.append(AxiomFailure("hasmax", (u,)))

    def covering(k: int, s: int) -> int:
        """Whether sieve s restricted to point k covers it."""
        return covers[k] >> positions[k][s & downs[k]] & 1

    for i, u in enumerate(points):
        for k in _bits(downs[i] & ~(1 << i)):
            for m in family[i]:
                if not covering(k, m):
                    failures.append(AxiomFailure("stab", (u, points[k], DownSet(poset, m))))
                    break
        for s_mask in sorted(positions[i]):
            if covering(i, s_mask):
                continue
            for cover in family[i]:
                if all(covering(k, s_mask) for k in _bits(cover)):
                    failures.append(
                        AxiomFailure("trans", (u, DownSet(poset, cover), DownSet(poset, s_mask)))
                    )
                    break
            else:
                continue
            break
    return CheckReport("covering axioms", tuple(failures))
