"""Conversions among the four equivalent topology representations.

Point sets, nuclei on the down-set algebra, covering-sieve families, and
classifier endomaps determine each other.  Every conversion here follows its
defining formula directly; the enumerators that list each face, by formula
and by the axioms alone, live in ``census``.  The route checks compose
conversions along different paths and compare the results by value,
reporting counterexamples in full rather than asserting; one pass over the
point sets builds each point set's faces once for all of them and runs each
conversion once per distinct input value.

The conversions take structures that pass their laws and check nothing: a
face converted from a valid face is valid, which the route comparisons and
the census prove by value.  Given an invalid structure, a conversion raises
a FourtopsError or returns a wrong value, which those checks report.  A
structure from outside is checked where it enters: by ``complete_quad`` for
the CLI's payloads, by the ``is_*`` checkers for a library caller.
"""

from __future__ import annotations

from typing import Iterable

from .census import _subsets
from .classifier import chi_tables, omega
from .errors import IncoherentQuad, InvalidNucleus, InvalidTopology
from .heyting import (
    Nucleus,
    algebra_of,
    is_nucleus,
    nucleus_from_point_set,
    point_set_of_nucleus,
)
from .poset import Poset, _bits, sieve_positions, sieves_on
from .presheaf import terminal
from .records import GrothendieckTopology, LTTopology
from .topology import ClosureOperator, is_grothendieck, is_lt_topology, j_from_closure


# what the two covering-family routes raise when the points where a sieve
# covers are not down-closed, which a stable family never gives
_UNSTABLE = "covering families are not stable: the points where a sieve covers are not down-closed"


# -- point set <-> covering families ----------------------------------------


def point_set_to_grotop(poset: Poset, kept: Iterable) -> GrothendieckTopology:
    """A sieve covers u exactly when it contains every kept point below u."""
    kept_mask = poset.mask_of(kept)
    covers = []
    for i, u in enumerate(poset.points):
        need = kept_mask & poset.down_mask_at(i)
        covers.append(tuple(m for m in sieve_positions(poset, u) if need & ~m == 0))
    return GrothendieckTopology(poset, tuple(covers))


def grotop_to_point_set(j: GrothendieckTopology) -> frozenset:
    """The points whose only cover is the maximal sieve."""
    poset = j.poset
    out = []
    for i, u in enumerate(poset.points):
        if j.covers[i] == (poset.down_mask(u),):
            out.append(u)
    return frozenset(out)


# -- nucleus <-> covering families ------------------------------------------


def nucleus_to_grotop(n: Nucleus) -> GrothendieckTopology:
    """A sieve covers u when u lands in the sieve's closure under the nucleus."""
    algebra = n.algebra
    poset = algebra.poset
    els, pos, table = algebra.elements, algebra.pos, n.table
    covers = []
    for i, u in enumerate(poset.points):
        covers.append(tuple(m for m in sieve_positions(poset, u) if els[table[pos[m]]] >> i & 1))
    return GrothendieckTopology(poset, tuple(covers))


def grotop_to_nucleus(j: GrothendieckTopology) -> Nucleus:
    """Closure of S collects the points u with S-restricted-to-u covering u."""
    poset = j.poset
    algebra = algebra_of(poset)
    per_point = [
        (1 << i, poset.down_mask_at(i), frozenset(fam)) for i, fam in enumerate(j.covers)
    ]
    table = []
    try:
        for s in algebra.elements:
            mask = 0
            for bit, down, fam in per_point:
                if s & down in fam:
                    mask |= bit
            table.append(algebra.pos[mask])
    except KeyError:
        raise InvalidTopology(_UNSTABLE) from None
    return Nucleus(algebra, tuple(table))


# -- nucleus -> classifier endomap ------------------------------------------


def nucleus_to_lt(n: Nucleus) -> LTTopology:
    """Truncate the nucleus to each point's sieve lattice."""
    algebra = n.algebra
    poset = algebra.poset
    els, pos, table = algebra.elements, algebra.pos, n.table
    tables = []
    for i, u in enumerate(poset.points):
        down_u = poset.down_mask_at(i)
        spos = sieve_positions(poset, u)
        tables.append(tuple(spos[els[table[pos[m]]] & down_u] for m in spos))
    return LTTopology(poset, tuple(tables))


# -- covering families <-> classifier endomap --------------------------------


def grotop_to_lt(j: GrothendieckTopology) -> LTTopology:
    """Classifying map of the inclusion of the covering families, computed on
    the classifier's element masks."""
    poset = j.poset
    om = omega(poset)
    mask = 0
    try:
        for u, elements, fam in zip(poset.points, om.element_at, j.covers):
            pos = sieve_positions(poset, u)
            for m in fam:
                mask |= 1 << elements[pos[m]]
    except KeyError:
        raise InvalidTopology(f"a covering family at {u!r} holds a mask that is not a sieve") from None
    return LTTopology(poset, chi_tables(om, mask))


def grotop_to_lt_direct(j: GrothendieckTopology) -> LTTopology:
    """Independent route: j_u(S) collects the points of ``down u`` where the
    restricted sieve covers."""
    poset = j.poset
    downs = poset._down
    families = [frozenset(fam) for fam in j.covers]
    tables = []
    try:
        for u, down_u in zip(poset.points, downs):
            below = [(1 << i, downs[i], families[i]) for i in _bits(down_u)]
            pos = sieve_positions(poset, u)
            row = []
            for s in pos:
                mask = 0
                for bit, down, fam in below:
                    if s & down in fam:
                        mask |= bit
                row.append(pos[mask])
            tables.append(tuple(row))
    except KeyError:
        raise InvalidTopology(_UNSTABLE) from None
    return LTTopology(poset, tuple(tables))


def lt_to_grotop(lt: LTTopology) -> GrothendieckTopology:
    """The sieves sent to the maximal sieve by each component."""
    poset = lt.poset
    covers = []
    for i, u in enumerate(poset.points):
        pos = sieve_positions(poset, u)
        top = len(pos) - 1
        covers.append(tuple(m for m, k in pos.items() if lt.tables[i][k] == top))
    return GrothendieckTopology(poset, tuple(covers))


# -- closure operator -> nucleus ---------------------------------------------


def closure_to_nucleus(clop: ClosureOperator) -> Nucleus:
    """Close each subterminal of the terminal and read off its truth-value.

    The terminal has one element per point, in point order, so a down-set's
    point mask is its subterminal's element mask and the closed mask is the
    closure's truth-value.
    """
    poset = clop.poset
    algebra = algebra_of(poset)
    closed = clop.closures(terminal(poset).elements())
    return Nucleus(algebra, tuple(algebra.pos[closed[s]] for s in algebra.elements))


# -- quadruples ----------------------------------------------------------------


class Quad:
    """A mutually coherent (point set, nucleus, covering families, endomap)."""

    __slots__ = ("y", "nucleus", "grotop", "lt")

    def __init__(
        self, y: frozenset, nucleus: Nucleus, grotop: GrothendieckTopology, lt: LTTopology
    ):
        self.y = y
        self.nucleus = nucleus
        self.grotop = grotop
        self.lt = lt

    def _key(self) -> tuple:
        return (self.y, self.nucleus, self.grotop, self.lt)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Quad:
            return NotImplemented
        return self._key() == other._key()

    @property
    def poset(self) -> Poset:
        return self.nucleus.algebra.poset


def complete_quad(
    poset: Poset,
    y: Iterable | None = None,
    nucleus: Nucleus | None = None,
    grotop: GrothendieckTopology | None = None,
    lt: LTTopology | None = None,
) -> Quad:
    """Fill in the other three representations from any single one.

    The given face must pass its checker, since no conversion checks it:
    InvalidNucleus or InvalidTopology carries the checker's summary.  The
    quad is the point set's faces in its ``route_row``, and it is coherent
    when every route of that row agrees: IncoherentQuad names the failed
    detail otherwise.
    """
    given = [x is not None for x in (y, nucleus, grotop, lt)]
    if sum(given) != 1:
        raise IncoherentQuad("provide exactly one of y, nucleus, grotop, lt")
    if y is not None:
        kept = frozenset(y)
        _ = [poset.index(u) for u in kept]
    elif nucleus is not None:
        report = is_nucleus(nucleus.algebra, nucleus.table)
        if not report.ok:
            raise InvalidNucleus(report.summary())
        kept = point_set_of_nucleus(nucleus)
    elif grotop is not None:
        report = is_grothendieck(grotop)
        if not report.ok:
            raise InvalidTopology(report.summary())
        kept = grotop_to_point_set(grotop)
    else:
        assert lt is not None
        report = is_lt_topology(lt)
        if not report.ok:
            raise InvalidTopology(report.summary())
        kept = grotop_to_point_set(lt_to_grotop(lt))
    _, faces, details = route_row(poset, kept)
    built = Quad(kept, *faces)
    for name, given_value, built_value in (
        ("nucleus", nucleus, built.nucleus),
        ("grotop", grotop, built.grotop),
        ("lt", lt, built.lt),
    ):
        if given_value is not None and given_value != built_value:
            raise IncoherentQuad(
                f"supplied {name} disagrees with the structure it induces"
            )
    failed = "; ".join(detail for detail in details if detail)
    if failed:
        raise IncoherentQuad(f"pairwise conversions disagree: {failed}")
    return built


# -- route-agreement and round-trip checkers -----------------------------------


class InstanceVerdict:
    __slots__ = ("label", "agrees", "detail")

    def __init__(self, label: str, agrees: bool, detail: str = ""):
        self.label = label
        self.agrees = agrees
        self.detail = detail

    def __eq__(self, other) -> bool:
        if other.__class__ is not InstanceVerdict:
            return NotImplemented
        return (self.label, self.agrees, self.detail) == (
            other.label,
            other.agrees,
            other.detail,
        )


class RouteReport:
    __slots__ = ("name", "verdicts")

    def __init__(self, name: str, verdicts: tuple[InstanceVerdict, ...]):
        self.name = name
        self.verdicts = verdicts

    def __eq__(self, other) -> bool:
        if other.__class__ is not RouteReport:
            return NotImplemented
        return (self.name, self.verdicts) == (other.name, other.verdicts)

    @property
    def ok(self) -> bool:
        return all(v.agrees for v in self.verdicts)

    def counterexamples(self) -> tuple[InstanceVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.agrees)

    def summary(self) -> str:
        n = len(self.verdicts)
        good = sum(v.agrees for v in self.verdicts)
        head = f"{self.name}: {good}/{n} agree"
        if self.ok:
            return head
        lines = [head]
        for v in self.counterexamples():
            lines.append(f"  counterexample at {v.label}: {v.detail}")
        return "\n".join(lines)


def _y_label(poset: Poset, y: frozenset) -> str:
    names = [str(u) for u in poset.points if u in y]
    return "y={" + ",".join(names) + "}"


def _top_class_miss(poset: Poset, lt: LTTopology, j: GrothendieckTopology) -> str:
    """The first point whose covers differ from the class of the maximal sieve
    under the endomap, as a counterexample detail; "" if none does."""
    for i, u in enumerate(poset.points):
        sieves, table = sieves_on(poset, u), lt.tables[i]
        top = table[len(sieves) - 1]
        top_class = frozenset(m for m, k in zip(sieves, table) if k == top)
        if top_class != j.covers_mask_set(i):
            return f"at point {u!r}"
    return ""


ROUTE_NAMES = ("round trips", "truncation route", "closure route", "topmost region covers")


def route_row(poset: Poset, kept: frozenset) -> tuple:
    """One point set's label, its faces ``(n, j, lt)`` and the details of
    the four routes of ``check_routes``, each empty exactly when its
    comparison agrees.

    Each conversion runs once per distinct input value: the conversions are
    pure functions of values that hash by value, so a repeated input gets
    the value a second call would give.  Every conversion is looked up here
    at call time, so a patched one reaches every route.
    """
    memo: dict = {}

    def once(conversion, value):
        key = (conversion, value)
        out = memo.get(key)
        if out is None:
            out = memo[key] = conversion(value)
        return out

    n = nucleus_from_point_set(algebra_of(poset), kept)
    j = point_set_to_grotop(poset, kept)
    lt = nucleus_to_lt(n)
    clop = ClosureOperator(lt)
    j_of_n = once(nucleus_to_grotop, n)
    n_of_j = once(grotop_to_nucleus, j)
    lt_of_j = once(grotop_to_lt, j)
    j_of_lt = once(lt_to_grotop, lt)
    lt_of_clop = j_from_closure(clop)
    n_of_clop = closure_to_nucleus(clop)
    cycles = (
        point_set_of_nucleus(n) == kept,
        grotop_to_point_set(j) == kept,
        once(grotop_to_nucleus, j_of_n) == n,
        once(nucleus_to_grotop, n_of_j) == j,
        once(lt_to_grotop, lt_of_j) == j,
        once(grotop_to_lt, j_of_lt) == lt,
        lt_of_clop == lt,
        n_of_clop == n,
        j_of_n == j,
        n_of_j == n,
        j_of_lt == j,
        lt_of_j == lt,
        grotop_to_lt_direct(j) == lt,
    )
    failed = [i for i, c in enumerate(cycles) if not c]
    lt_via = once(grotop_to_lt, j_of_n)
    n_via = once(grotop_to_nucleus, once(lt_to_grotop, lt_of_clop))
    details = (
        f"failed cycles: {failed}" if failed else "",
        "" if lt == lt_via else f"direct={lt.tables} via={lt_via.tables}",
        "" if n_of_clop == n_via else f"direct={n_of_clop.table} via={n_via.table}",
        _top_class_miss(poset, lt, j),
    )
    return _y_label(poset, kept), (n, j, lt), details


def route_pass(poset: Poset):
    """The ``route_row`` of each point set, in ``_subsets`` order."""
    for kept in _subsets(poset.points):
        yield route_row(poset, kept)


def route_reports(rows: Iterable) -> tuple[RouteReport, ...]:
    """The four route reports of the rows ``route_pass`` yields."""
    verdicts: tuple[list, ...] = tuple([] for _ in ROUTE_NAMES)
    for label, _, details in rows:
        for out, detail in zip(verdicts, details):
            out.append(InstanceVerdict(label, not detail, detail))
    return tuple(RouteReport(name, tuple(v)) for name, v in zip(ROUTE_NAMES, verdicts))


def check_routes(poset: Poset) -> tuple[RouteReport, ...]:
    """The round trips, the truncation route, the closure route and the
    topmost region covers, in that order, from one ``route_pass``.

    The round trips list the eight conversion cycles, then the five
    face-to-face comparisons that no cycle makes, so a failed index names
    one check; ``complete_quad`` reads the same row.  Truncation compares nucleus->endomap with
    nucleus->covers->endomap; closure, closure->nucleus with
    closure->endomap->covers->nucleus; the topmost check, the covers at each
    point with the class of the maximal sieve under the endomap.
    """
    return route_reports(route_pass(poset))
