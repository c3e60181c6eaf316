"""Conversions among the four equivalent topology representations.

Point sets, nuclei on the down-set algebra, covering-sieve families, and
classifier endomaps determine each other.  Every conversion here follows its
defining formula directly; the enumerators double as evidence, with a formula
mode that generates one structure per point subset and an oracle mode that
searches by the axioms alone and never consults a point set.  The oracle
searches prune with the axioms they check: LT components are placed along a
linear extension, and each component's table search (the pure-Python kernel
in ``_kernels``) only offers values that are natural against the components
already placed below; covering families are generated as upward-closed sets
of the sieves that are stable over the covers already placed below, then
filtered by transitivity.  The route checks compose conversions along
different paths and compare the results by value, reporting counterexamples
in full rather than asserting; one pass over the point sets builds each
point set's faces once for all of them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .classifier import chi_tables, omega
from .errors import (
    IncoherentQuad,
    InvalidTopology,
    NotElement,
    SizeCapExceeded,
)
from .heyting import (
    DEFAULT_ORACLE_POINT_CAP,
    HeytingAlgebra,
    Nucleus,
    _require_nucleus,
    enumerate_nucleus_tables,
    nucleus_from_point_set,
    point_set_of_nucleus,
)
from ._kernels import enumerate_operator_tables
from .poset import (
    Poset,
    _bits,
    lattice_tables,
    sieve_positions,
    sieve_restriction,
    sieves_on,
)
from .presheaf import terminal
from .topology import (
    ClosureOperator,
    GrothendieckTopology,
    LTTopology,
    _closure_mask,
    is_grothendieck,
    is_lt_topology,
    j_from_closure,
    make_grotop,
)

@lru_cache(maxsize=64)
def _require_grotop(j: GrothendieckTopology) -> None:
    """Raise InvalidTopology unless j passes the covering axioms; like
    ``_require_nucleus``, each passing value is checked once."""
    report = is_grothendieck(j)
    if not report.ok:
        raise InvalidTopology(report.summary())


def _algebra_on(poset: Poset, algebra: HeytingAlgebra | None) -> HeytingAlgebra:
    """The given down-set algebra, or a new one; NotElement if the given one
    lives on another poset, since its masks index nothing here."""
    if algebra is None:
        return HeytingAlgebra(poset)
    if algebra.poset != poset:
        raise NotElement("the algebra lives on a different poset")
    return algebra


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
    _require_grotop(j)
    poset = j.poset
    out = []
    for i, u in enumerate(poset.points):
        if j.covers[i] == (poset.down_mask(u),):
            out.append(u)
    return frozenset(out)


# -- nucleus <-> covering families ------------------------------------------


def nucleus_to_grotop(n: Nucleus) -> GrothendieckTopology:
    """A sieve covers u when u lands in the sieve's closure under the nucleus."""
    _require_nucleus(n)
    algebra = n.algebra
    poset = algebra.poset
    els, pos, table = algebra.elements, algebra._pos, n.table
    covers = []
    for i, u in enumerate(poset.points):
        covers.append(
            tuple(m for m in sieve_positions(poset, u) if els[table[pos[m]]].mask >> i & 1)
        )
    return GrothendieckTopology(poset, tuple(covers))


def grotop_to_nucleus(j: GrothendieckTopology, algebra: HeytingAlgebra | None = None) -> Nucleus:
    """Closure of S collects the points u with S-restricted-to-u covering u."""
    _require_grotop(j)
    poset = j.poset
    algebra = _algebra_on(poset, algebra)
    per_point = [
        (1 << i, poset.down_mask_at(i), frozenset(fam)) for i, fam in enumerate(j.covers)
    ]
    table = []
    for s in algebra.elements:
        mask = 0
        for bit, down, fam in per_point:
            if s.mask & down in fam:
                mask |= bit
        table.append(algebra._pos[mask])
    return Nucleus(algebra, tuple(table))


# -- nucleus -> classifier endomap ------------------------------------------


def nucleus_to_lt(n: Nucleus) -> LTTopology:
    """Truncate the nucleus to each point's sieve lattice."""
    _require_nucleus(n)
    algebra = n.algebra
    poset = algebra.poset
    els, pos, table = algebra.elements, algebra._pos, n.table
    tables = []
    for i, u in enumerate(poset.points):
        down_u = poset.down_mask_at(i)
        spos = sieve_positions(poset, u)
        tables.append(tuple(spos[els[table[pos[m]]].mask & down_u] for m in spos))
    return LTTopology(poset, tuple(tables))


# -- covering families <-> classifier endomap --------------------------------


def grotop_to_lt(j: GrothendieckTopology) -> LTTopology:
    """Classifying map of the inclusion of the covering families, computed on
    the classifier's element masks."""
    _require_grotop(j)
    poset = j.poset
    om = omega(poset)
    mask = 0
    for u, elements, fam in zip(poset.points, om.element_at, j.covers):
        pos = sieve_positions(poset, u)
        for m in fam:
            mask |= 1 << elements[pos[m]]
    return LTTopology(poset, chi_tables(om, mask))


def grotop_to_lt_direct(j: GrothendieckTopology) -> LTTopology:
    """Independent route: j_u(S) collects the points of ``down u`` where the
    restricted sieve covers."""
    _require_grotop(j)
    poset = j.poset
    families = [frozenset(fam) for fam in j.covers]
    tables = []
    for u in poset.points:
        down_u = poset.down_mask(u)
        pos = sieve_positions(poset, u)
        row = []
        for s in sieves_on(poset, u):
            mask = 0
            rest = down_u
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if s.mask & poset.down_mask_at(i) in families[i]:
                    mask |= 1 << i
            row.append(pos[mask])
        tables.append(tuple(row))
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


def closure_to_nucleus(clop: ClosureOperator, algebra: HeytingAlgebra | None = None) -> Nucleus:
    """Close each subterminal of the terminal and read off its truth-value.

    The terminal has one element per point, in point order, so a down-set's
    point mask is its subterminal's element mask and the closed mask is the
    closure's truth-value.
    """
    poset = clop.poset
    algebra = _algebra_on(poset, algebra)
    index = terminal(poset).elements()
    covering = clop.covering
    table = tuple(
        algebra._pos[index.require_down_closed(_closure_mask(covering, index, s.mask))]
        for s in algebra.elements
    )
    return Nucleus(algebra, table)


# -- enumerators --------------------------------------------------------------


def _subsets(points: tuple) -> list[frozenset]:
    out = []
    for k in range(len(points) + 1):
        for combo in combinations(points, k):
            out.append(frozenset(combo))
    return out


def enumerate_nuclei(
    algebra: HeytingAlgebra, mode: str = "formula", point_cap: int = DEFAULT_ORACLE_POINT_CAP
) -> list[Nucleus]:
    if mode == "formula":
        return [
            nucleus_from_point_set(algebra, y)
            for y in _subsets(algebra.poset.points)
        ]
    if mode == "oracle":
        tables = enumerate_nucleus_tables(algebra, point_cap)
        return [Nucleus(algebra, t) for t in tables]
    raise ValueError(f"unknown mode {mode!r}")


def _linear_extension(poset: Poset) -> list[int]:
    """Point indices, every point after the points below it."""
    return sorted(
        range(len(poset.points)), key=lambda i: poset.down_mask_at(i).bit_count()
    )


def enumerate_grotops(
    poset: Poset, mode: str = "formula", point_cap: int = DEFAULT_ORACLE_POINT_CAP
) -> list[GrothendieckTopology]:
    if mode == "formula":
        return [point_set_to_grotop(poset, y) for y in _subsets(poset.points)]
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}")
    if len(poset.points) > point_cap:
        raise SizeCapExceeded(f"oracle enumeration capped at {point_cap} points")
    # assign per-point families minimal-points-first so stab and trans are
    # checkable as soon as a point is placed
    order = _linear_extension(poset)
    sieve_masks = [[s.mask for s in sieves_on(poset, u)] for u in poset.points]
    # ups[i][a]: the sieves on point i containing sieve a, as bits over indices
    ups = [lattice_tables(masks)[0] for masks in sieve_masks]
    results: list[GrothendieckTopology] = []
    chosen: dict[int, frozenset] = {}

    def covered_at(points: int, s: int) -> int:
        """The placed points among ``points`` where sieve s restricts to a cover."""
        where = 0
        for k in _bits(points):
            if s & poset.down_mask_at(k) in chosen[k]:
                where |= 1 << k
        return where

    def candidates(i: int, stable: list[int]):
        """Upward-closed families of the stable sieves that hold the maximal
        sieve, as bits over sieve indices.  Any family that passes trans is
        one: a sieve above a cover restricts to a maximal sieve at each point
        of that cover, so it covers too."""
        up = ups[i]

        def grow(pos: int, fam: int):
            # the sieves above stable[pos] are decided, so it may join
            # exactly when all of them have
            if pos < 0:
                yield fam
                return
            yield from grow(pos - 1, fam)
            a = stable[pos]
            if up[a] & ~(fam | 1 << a) == 0:
                yield from grow(pos - 1, fam | 1 << a)

        yield from grow(len(stable) - 2, 1 << stable[-1])

    def walk(pos: int) -> None:
        if pos == len(order):
            families = {poset.points[i]: fam for i, fam in chosen.items()}
            results.append(make_grotop(poset, families))
            return
        i = order[pos]
        masks = sieve_masks[i]
        top = len(masks) - 1
        below = poset.down_mask_at(i) & ~(1 << i)
        where = [covered_at(below, s) for s in masks]
        # stab: a cover restricts to a cover at every point below
        stable = [a for a in range(len(masks)) if where[a] == below]
        # trans: a sieve covers when it restricts to a cover at every point of
        # some cover; inside[a] lists the covers other than the maximal sieve
        # that would force sieve a this way
        inside = [
            sum(1 << r for r in range(top) if masks[r] & ~where[a] == 0)
            for a in range(len(masks))
        ]
        everything = (1 << len(masks)) - 1
        for fam in candidates(i, stable):
            if all(inside[a] & fam == 0 for a in _bits(everything & ~fam)):
                chosen[i] = frozenset(masks[a] for a in _bits(fam))
                walk(pos + 1)
                del chosen[i]

    walk(0)
    results.sort(key=lambda g: g.covers)
    return results


def enumerate_lts(
    poset: Poset, mode: str = "formula", point_cap: int = DEFAULT_ORACLE_POINT_CAP
) -> list[LTTopology]:
    if mode == "formula":
        algebra = HeytingAlgebra(poset)
        return [
            nucleus_to_lt(nucleus_from_point_set(algebra, y))
            for y in _subsets(poset.points)
        ]
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}")
    if len(poset.points) > point_cap:
        raise SizeCapExceeded(f"oracle enumeration capped at {point_cap} points")
    lattices = [
        lattice_tables([s.mask for s in sieves_on(poset, u)]) for u in poset.points
    ]
    # naturality at an arrow u -> v says t_u[k] lies in fib[t_v[restr[k]]]
    arrows_below: list[list[tuple[int, tuple[int, ...], tuple[int, ...]]]] = [
        [] for _ in poset.points
    ]
    for (u, v) in poset.arrows:
        restr, fib = sieve_restriction(poset, u, v)
        arrows_below[poset.index(u)].append((poset.index(v), restr, fib))
    # place points in a linear extension, so each arrow's lower end is placed
    # before its upper end and the kernel only sees natural tables
    order = _linear_extension(poset)
    results: list[LTTopology] = []
    tables: list[tuple[int, ...]] = [()] * len(poset.points)

    def walk(pos: int) -> None:
        if pos == len(order):
            results.append(LTTopology(poset, tuple(tables)))
            return
        i = order[pos]
        up, meet = lattices[i]
        n = len(up)
        allowed = [(1 << n) - 1] * n
        for iv, restr, fib in arrows_below[i]:
            tv = tables[iv]
            for k in range(n):
                allowed[k] &= fib[tv[restr[k]]]
        for t in enumerate_operator_tables(
            n, up, meet, inflationary=False, top_fixed=True, allowed=tuple(allowed)
        ):
            tables[i] = t
            walk(pos + 1)

    walk(0)
    results.sort(key=lambda lt: lt.tables)
    return results


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

    def __hash__(self) -> int:
        return hash(self._key())


    @property
    def poset(self) -> Poset:
        return self.nucleus.algebra.poset


def complete_quad(
    poset: Poset,
    y: Iterable | None = None,
    nucleus: Nucleus | None = None,
    grotop: GrothendieckTopology | None = None,
    lt: LTTopology | None = None,
    algebra: HeytingAlgebra | None = None,
) -> Quad:
    """Fill in the other three representations from any single one."""
    given = [x is not None for x in (y, nucleus, grotop, lt)]
    if sum(given) != 1:
        raise IncoherentQuad("provide exactly one of y, nucleus, grotop, lt")
    algebra = _algebra_on(poset, algebra)
    if y is not None:
        kept = frozenset(y)
        _ = [poset.index(u) for u in kept]
    elif nucleus is not None:
        kept = point_set_of_nucleus(nucleus)
    elif grotop is not None:
        kept = grotop_to_point_set(grotop)
    else:
        assert lt is not None
        report = is_lt_topology(lt)
        if not report.ok:
            raise InvalidTopology(report.summary())
        kept = grotop_to_point_set(lt_to_grotop(lt))
    n = nucleus_from_point_set(algebra, kept)
    built = Quad(kept, n, point_set_to_grotop(poset, kept), nucleus_to_lt(n))
    for name, given_value, built_value in (
        ("nucleus", nucleus, built.nucleus),
        ("grotop", grotop, built.grotop),
        ("lt", lt, built.lt),
    ):
        if given_value is not None and given_value != built_value:
            raise IncoherentQuad(
                f"supplied {name} disagrees with the structure it induces"
            )
    verify_quad(built)
    return built


def verify_quad(q: Quad) -> None:
    """All pairwise conversions must map each member to the others."""
    checks = (
        point_set_of_nucleus(q.nucleus) == q.y,
        grotop_to_point_set(q.grotop) == q.y,
        nucleus_to_grotop(q.nucleus) == q.grotop,
        grotop_to_nucleus(q.grotop, q.nucleus.algebra) == q.nucleus,
        nucleus_to_lt(q.nucleus) == q.lt,
        lt_to_grotop(q.lt) == q.grotop,
        grotop_to_lt_direct(q.grotop) == q.lt,
        point_set_to_grotop(q.poset, q.y) == q.grotop,
        nucleus_from_point_set(q.nucleus.algebra, q.y) == q.nucleus,
    )
    if not all(checks):
        raise IncoherentQuad("pairwise conversions disagree")


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

    def __hash__(self) -> int:
        return hash((self.label, self.agrees, self.detail))



class RouteReport:
    __slots__ = ("name", "verdicts")

    def __init__(self, name: str, verdicts: tuple[InstanceVerdict, ...]):
        self.name = name
        self.verdicts = verdicts

    def __eq__(self, other) -> bool:
        if other.__class__ is not RouteReport:
            return NotImplemented
        return (self.name, self.verdicts) == (other.name, other.verdicts)

    def __hash__(self) -> int:
        return hash((self.name, self.verdicts))


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
        top_class = frozenset(sieves[k].mask for k in range(len(sieves)) if table[k] == top)
        if top_class != j.covers_mask_set(i):
            return f"at point {u!r}"
    return ""


def check_routes(poset: Poset, algebra: HeytingAlgebra | None = None) -> tuple[RouteReport, ...]:
    """The round trips, the truncation route, the closure route and the
    topmost region covers, in that order, from one pass over the point sets
    that builds each face, and each conversion two reports read, once.

    The round trips list the eight conversion cycles, then the five
    face-to-face comparisons of ``verify_quad`` that no cycle makes, so a
    failed index names one check.  Truncation compares nucleus->endomap with
    nucleus->covers->endomap; closure, closure->nucleus with
    closure->endomap->covers->nucleus; the topmost check, the covers at each
    point with the class of the maximal sieve under the endomap.
    """
    algebra = _algebra_on(poset, algebra)
    names = ("round trips", "truncation route", "closure route", "topmost region covers")
    verdicts: tuple[list, ...] = tuple([] for _ in names)
    for kept in _subsets(poset.points):
        n = nucleus_from_point_set(algebra, kept)
        j = point_set_to_grotop(poset, kept)
        lt = nucleus_to_lt(n)
        clop = ClosureOperator(lt)
        j_of_n = nucleus_to_grotop(n)
        n_of_j = grotop_to_nucleus(j, algebra)
        lt_of_j = grotop_to_lt(j)
        j_of_lt = lt_to_grotop(lt)
        lt_of_clop = j_from_closure(clop)
        n_of_clop = closure_to_nucleus(clop, algebra)
        cycles = (
            point_set_of_nucleus(n) == kept,
            grotop_to_point_set(j) == kept,
            grotop_to_nucleus(j_of_n, algebra) == n,
            nucleus_to_grotop(n_of_j) == j,
            lt_to_grotop(lt_of_j) == j,
            grotop_to_lt(j_of_lt) == lt,
            lt_of_clop == lt,
            n_of_clop == n,
            j_of_n == j,
            n_of_j == n,
            j_of_lt == j,
            lt_of_j == lt,
            grotop_to_lt_direct(j) == lt,
        )
        failed = [i for i, c in enumerate(cycles) if not c]
        lt_via = grotop_to_lt(j_of_n)
        n_via = grotop_to_nucleus(lt_to_grotop(lt_of_clop), algebra)
        # every detail is empty exactly when its comparison agrees
        details = (
            f"failed cycles: {failed}" if failed else "",
            "" if lt == lt_via else f"direct={lt.tables} via={lt_via.tables}",
            "" if n_of_clop == n_via else f"direct={n_of_clop.table} via={n_via.table}",
            _top_class_miss(poset, lt, j),
        )
        label = _y_label(poset, kept)
        for out, detail in zip(verdicts, details):
            out.append(InstanceVerdict(label, not detail, detail))
    return tuple(RouteReport(name, tuple(v)) for name, v in zip(names, verdicts))
