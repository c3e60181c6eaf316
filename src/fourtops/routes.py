"""The route checks and the quadruple of one point set.

``route_row`` builds a point set's faces and compares the conversions of
``convert`` along different paths, by value, reporting counterexamples in
full rather than asserting; ``route_pass`` runs it once per point set, so
each point set's faces are built once for all four routes and each
conversion runs once per distinct input value.  ``check_routes`` reads the
pass as four reports, each the number of point sets and the label and
detail of each one that fails; the sweep reads it as the formula side of
its census, and ``complete_quad`` fills in the quadruple of one CLI
payload through the row of its point set.

Every conversion is looked up on ``convert`` when it runs, so a patched one
reaches every route.  The sweep, the route targets of ``check``, ``convert``,
``fouruple`` and ``render`` import this module; ``check axioms`` does not.
"""

from __future__ import annotations

from typing import Iterable

from . import convert
from .errors import FourtopsError, IncoherentQuad, InvalidNucleus, InvalidTopology, UnknownPoint
from .poset import GrothendieckTopology, LTTopology, Nucleus, Poset, Record, point_masks
from .topology import ClosureOperator, is_grothendieck, is_lt_topology, is_nucleus


# -- quadruples ----------------------------------------------------------------


class Quad(Record):
    """A mutually coherent (point set, nucleus, covering families, endomap);
    the point set is a mask over the poset's points."""

    __slots__ = ("y", "nucleus", "grotop", "lt")

    def __init__(
        self, y: int, nucleus: Nucleus, grotop: GrothendieckTopology, lt: LTTopology
    ):
        self.y = y
        self.nucleus = nucleus
        self.grotop = grotop
        self.lt = lt

    @property
    def poset(self) -> Poset:
        return self.nucleus.poset


def complete_quad(
    poset: Poset,
    y: int | None = None,
    nucleus: Nucleus | None = None,
    grotop: GrothendieckTopology | None = None,
    lt: LTTopology | None = None,
) -> Quad:
    """Fill in the other three representations from any single one.

    The given face must pass its checker, since no conversion checks it:
    InvalidNucleus or InvalidTopology carries the checker's summary, and
    UnknownPoint refuses a point mask with a bit past the last point.  The
    quad is the point set's faces in its ``route_row``, and it is coherent
    when every route of that row agrees: IncoherentQuad names the failed
    detail otherwise.
    """
    given = [x is not None for x in (y, nucleus, grotop, lt)]
    if sum(given) != 1:
        raise IncoherentQuad("provide exactly one of y, nucleus, grotop, lt")
    if y is not None:
        if y & ~poset.full_mask:
            raise UnknownPoint(f"mask {y:#x} has bits outside the poset")
        kept = y
    elif nucleus is not None:
        report = is_nucleus(nucleus)
        if not report.ok:
            raise InvalidNucleus(report.summary())
        kept = convert.point_set_of_nucleus(nucleus)
    elif grotop is not None:
        report = is_grothendieck(grotop)
        if not report.ok:
            raise InvalidTopology(report.summary())
        kept = convert.grotop_to_point_set(grotop)
    else:
        assert lt is not None
        report = is_lt_topology(lt)
        if not report.ok:
            raise InvalidTopology(report.summary())
        kept = convert.grotop_to_point_set(convert.lt_to_grotop(lt))
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


class RouteReport(Record):
    """One route over every point set: how many it checked, and the
    ``(label, detail)`` of each that fails, in point-set order."""

    __slots__ = ("name", "total", "counterexamples")

    def __init__(self, name: str, total: int, counterexamples: tuple[tuple[str, str], ...]):
        self.name = name
        self.total = total
        self.counterexamples = counterexamples

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        lines = [f"{self.name}: {self.total - len(self.counterexamples)}/{self.total} agree"]
        for label, detail in self.counterexamples:
            lines.append(f"  counterexample at {label}: {detail}")
        return "\n".join(lines)


def _top_class_miss(poset: Poset, lt: LTTopology, j: GrothendieckTopology) -> str:
    """The first point whose covers differ from the class of the maximal sieve
    under the endomap, as a counterexample detail; "" if none does."""
    for u, table, covers in zip(poset.points, lt.tables, j.covers):
        top = table[-1]
        if sum(1 << k for k, v in enumerate(table) if v == top) != covers:
            return f"at point {u!r}"
    return ""


ROUTE_NAMES = ("round trips", "truncation route", "closure route", "topmost region covers")


def route_row(poset: Poset, kept: int) -> tuple:
    """One point mask, its faces ``(n, j, lt)`` and the details of
    the four routes of ``check_routes``, each empty exactly when its
    comparison agrees.  A FourtopsError that a conversion raises fails each
    route it stops, with the error's type and message as the detail.

    Each conversion runs once per distinct input value: the conversions are
    pure functions of values that hash by value (the row's one closure
    operator, by identity), so a repeated input gets the value a second
    call would give.  Every conversion is looked up on ``convert`` at call
    time, so a patched one reaches every route.
    """
    memo: dict = {}

    def once(conversion, value):
        key = (conversion, value)
        out = memo.get(key)
        if out is None:
            out = memo[key] = conversion(value)
        return out

    n = convert.nucleus_from_point_set(poset, kept)
    j = convert.point_set_to_grotop(poset, kept)
    lt = convert.nucleus_to_lt(n)
    clop = ClosureOperator(lt)

    def round_trips() -> str:
        j_of_n = once(convert.nucleus_to_grotop, n)
        n_of_j = once(convert.grotop_to_nucleus, j)
        lt_of_j = once(convert.grotop_to_lt, j)
        j_of_lt = once(convert.lt_to_grotop, lt)
        cycles = (
            convert.point_set_of_nucleus(n) == kept,
            convert.grotop_to_point_set(j) == kept,
            once(convert.grotop_to_nucleus, j_of_n) == n,
            once(convert.nucleus_to_grotop, n_of_j) == j,
            once(convert.lt_to_grotop, lt_of_j) == j,
            once(convert.grotop_to_lt, j_of_lt) == lt,
            once(convert.j_from_closure, clop) == lt,
            once(convert.closure_to_nucleus, clop) == n,
            j_of_n == j,
            n_of_j == n,
            j_of_lt == j,
            lt_of_j == lt,
            convert.grotop_to_lt_direct(j) == lt,
        )
        failed = [i for i, c in enumerate(cycles) if not c]
        return f"failed cycles: {failed}" if failed else ""

    def truncation() -> str:
        lt_via = once(convert.grotop_to_lt, once(convert.nucleus_to_grotop, n))
        return "" if lt == lt_via else f"direct={lt.tables} via={lt_via.tables}"

    def closure() -> str:
        n_of_clop = once(convert.closure_to_nucleus, clop)
        n_via = once(
            convert.grotop_to_nucleus,
            once(convert.lt_to_grotop, once(convert.j_from_closure, clop)),
        )
        return "" if n_of_clop == n_via else f"direct={n_of_clop.table} via={n_via.table}"

    details = []
    for route in (round_trips, truncation, closure, lambda: _top_class_miss(poset, lt, j)):
        try:
            details.append(route())
        except FourtopsError as err:
            details.append(f"stopped by {type(err).__name__}: {err}")
    return kept, (n, j, lt), tuple(details)


def route_pass(poset: Poset):
    """The ``route_row`` of each point mask, in ``downset_sort_key`` order."""
    for kept in point_masks(poset):
        yield route_row(poset, kept)


def route_reports(poset: Poset, rows: Iterable) -> tuple[RouteReport, ...]:
    """The four route reports of the rows ``route_pass`` yields; a point
    set is labelled ``y={...}`` only where a route fails on it."""
    total = 0
    found: tuple[list, ...] = tuple([] for _ in ROUTE_NAMES)
    for kept, _, details in rows:
        total += 1
        for out, detail in zip(found, details):
            if detail:
                out.append(("y=" + poset.braced(kept), detail))
    return tuple(RouteReport(name, total, tuple(c)) for name, c in zip(ROUTE_NAMES, found))


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
    return route_reports(poset, route_pass(poset))
