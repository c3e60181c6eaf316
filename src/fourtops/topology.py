"""Topology structures on presheaves over a poset, with exhaustive checkers.

Three equivalent presentations are checked here: per-point endomaps of the
classifier (with the three endomap laws), the closure operators they induce
on inclusions (checked against the five closure laws over a finite test
universe), and per-point families of covering sieves (checked against
hasmax / stab / trans and the filter laws).  The endomap and covering-family
records themselves live in ``records``.
"""

from __future__ import annotations

from itertools import chain, islice

from .classifier import OmegaObject, chi_tables, internal_meet, omega, true_inclusion
from .errors import InvalidTopology, ShapeMismatch
from .heyting import AxiomFailure, CheckReport
from .poset import (
    DownSet,
    Poset,
    _bits,
    enumerate_downsets,
    limited_downsets,
    sieve_positions,
    sieve_restriction,
    sieves_on,
)
from .presheaf import (
    ElementIndex,
    Inclusion,
    Presheaf,
    _pull_mask,
    _truth_values,
    as_inclusion,
    pairing,
    preimage,
    product,
    terminal,
)
from .records import DEFAULT_PAIR_CAP, GrothendieckTopology, LTTopology, make_grotop


def lt_identity(poset: Poset) -> LTTopology:
    tables = tuple(
        tuple(range(len(sieves_on(poset, u)))) for u in poset.points
    )
    return LTTopology(poset, tables)


def is_lt_topology(j: LTTopology, om: OmegaObject | None = None) -> CheckReport:
    """Naturality plus the three endomap laws, with witnesses.

    Meet preservation is checked twice on purpose: once per point on sieve
    pairs, and once as the commuting square against the internal conjunction
    morphism, to catch representation bugs in either route.
    """
    poset = j.poset
    om = omega(poset) if om is None else om
    failures = []
    for i, u in enumerate(poset.points):
        n = len(om.sieves[u])
        if len(j.tables[i]) != n or any(not 0 <= v < n for v in j.tables[i]):
            raise InvalidTopology(f"table at {u!r} does not match the classifier")
    for (u, v) in sorted(poset.arrows, key=repr):
        restr, _ = sieve_restriction(poset, u, v)
        tu, tv = j.tables[poset.index(u)], j.tables[poset.index(v)]
        for k, s in enumerate(om.sieves[u]):
            if restr[tu[k]] != tv[restr[k]]:
                failures.append(AxiomFailure("naturality", ((u, v), s)))
                break
    for i, u in enumerate(poset.points):
        table = j.tables[i]
        sieves = om.sieves[u]
        pos = sieve_positions(poset, u)
        top = len(sieves) - 1
        bad_idem = next((k for k in range(len(sieves)) if table[table[k]] != table[k]), None)
        if bad_idem is not None:
            failures.append(AxiomFailure("idempotent", (u, sieves[bad_idem])))
        if table[top] != top:
            failures.append(AxiomFailure("preserves-true", (u,)))
        done = False
        for a in range(len(sieves)):
            for b in range(a, len(sieves)):
                m = pos[sieves[a].mask & sieves[b].mask]
                if table[m] != pos[sieves[table[a]].mask & sieves[table[b]].mask]:
                    failures.append(
                        AxiomFailure("preserves-meets", (u, sieves[a], sieves[b]))
                    )
                    done = True
                    break
            if done:
                break
    if not failures:
        conj, p0, p1 = internal_meet(om)
        jm = j.as_morphism(om)
        after = conj.then(jm)
        before = pairing(p0.then(jm), p1.then(jm), conj.dom).then(conj)
        if after != before:
            failures.append(AxiomFailure("preserves-meets-as-map", ()))
    return CheckReport("topology axioms", tuple(failures))


class ClosureOperator:
    """Closure on inclusions, represented by its inducing classifier endomap.

    A free-standing table over every object would be infinite; the inducing
    endomap determines the action on any inclusion, and the closure laws are
    validated against that action over a finite universe.  ``cover`` holds
    one key ``sieve mask * width + point index`` per sieve the endomap sends
    to the maximal one, the keys of the truth-value groups an element index
    keeps; the closed masks are read through one table per element index
    (see ``_Closures``).
    """

    __slots__ = ("lt", "cover", "_closures")

    def __init__(self, lt: LTTopology):
        self.lt = lt
        poset = lt.poset
        width = len(poset.points)
        cover = []
        for i, u in enumerate(poset.points):
            sieves = sieves_on(poset, u)
            top = len(sieves) - 1
            cover.extend(s.mask * width + i for s, k in zip(sieves, lt.tables[i]) if k == top)
        self.cover = frozenset(cover)
        self._closures: dict = {}

    @property
    def poset(self) -> Poset:
        return self.lt.poset

    def closures(self, index: ElementIndex) -> "_Closures":
        """Element mask -> closed mask over ``index``, kept per index."""
        table = self._closures.get(index)
        if table is None:
            table = self._closures[index] = _Closures(index, self.cover)
        return table


class _Closures(dict):
    """Element mask -> closed mask, for one closure operator on one element
    index.

    The index's truth-value groups are disjoint, so the closure is the sum
    of the covered ones; a closure that is not a sub-presheaf raises
    FunctorialityError.
    """

    __slots__ = ("index", "cover")

    def __init__(self, index: ElementIndex, cover: frozenset):
        super().__init__()
        self.index = index
        self.cover = cover

    def __missing__(self, mask: int) -> int:
        index = self.index
        groups = index.truth_groups(mask)
        got = sum(map(groups.__getitem__, self.cover.intersection(groups)))
        if got not in index.passed:
            index.require_down_closed(got)
            index.passed.add(got)
        self[mask] = got
        return got


def closure_of(clop: ClosureOperator, f: Inclusion) -> Inclusion:
    """The inclusion classified by (endomap after classifying-map), computed
    on element masks; the tests spell out the same composite through the
    classifier and the two must agree."""
    f = as_inclusion(f, "closure acts on inclusions")
    b = f.cod
    if b.poset != clop.poset:
        raise ShapeMismatch("inclusion lives on a different poset")
    return Inclusion._from_mask(b, clop.closures(b.elements())[f.mask])


def j_from_closure(clop: ClosureOperator) -> LTTopology:
    """Classifying map of the closure of the true inclusion, computed on the
    classifier's element masks: FunctorialityError if that closure is not a
    sub-presheaf."""
    poset = clop.poset
    om = omega(poset)
    closed = clop.closures(om.elements())[true_inclusion(poset, om).mask]
    return LTTopology(poset, chi_tables(om, closed))


def is_dense(clop: ClosureOperator, f: Inclusion) -> bool:
    return closure_of(clop, f).mask == f.cod.elements().full


def is_closed(clop: ClosureOperator, f: Inclusion) -> bool:
    return closure_of(clop, f).mask == as_inclusion(f).mask


def dense_closed_factor(clop: ClosureOperator, f: Inclusion) -> tuple[Inclusion, Inclusion]:
    """Split an inclusion into a dense part followed by a closed part."""
    closed = closure_of(clop, f)
    dense_part = Inclusion(f.dom, closed.dom)
    return dense_part, closed


class TestUniverse:
    """A finite, deterministic family of subobjects, pairs and map pairs used
    to instantiate the 'for all inclusions' quantifiers, as element masks.

    ``codomains`` are the objects the masks live in.  ``subobjects`` holds
    ``(codomain, mask)`` per subobject; the pairs with f inside g and the rest
    are two sets of columns (position, codomain, f mask, g mask), which hold no
    tuple per pair; ``map_pairs`` holds ``(domain, codomain, image bits,
    mask)`` per map pair, the image bits naming, per element of the domain,
    its image among the codomain's elements.
    """

    __slots__ = ("poset", "codomains", "subobjects", "nested", "crossing", "map_pairs")

    def __init__(
        self,
        poset: Poset,
        codomains: tuple[Presheaf, ...],
        subobjects: tuple[tuple[int, int], ...],
        nested: tuple[tuple[int, ...], ...],
        crossing: tuple[tuple[int, ...], ...],
        map_pairs: tuple[tuple[int, int, tuple[int, ...], int], ...],
    ):
        self.poset = poset
        self.codomains = codomains
        self.subobjects = subobjects
        self.nested = nested
        self.crossing = crossing
        self.map_pairs = map_pairs


def build_universe(
    poset: Poset,
    om: OmegaObject | None = None,
    pair_cap: int = DEFAULT_PAIR_CAP,
    omega_square_cap: int = 24,
) -> TestUniverse:
    """Subobjects of 1, of Ω and the first ``omega_square_cap`` of Ω²; as
    pairs, the first ``pair_cap`` pairs (f, g) of subobjects of one object
    with g not listed before f; as map pairs, the bang of each object into
    the subterminals and chi of each subterminal against the first 12
    subobjects of Ω.  ShapeMismatch if ``om`` lives on another poset.

    Every mask comes straight from a down-set enumerator over the object's
    elements.  The terminal has one element per point, in point order, so
    its subobjects are the poset's down-sets and the bang sends each element
    to the bit of its point.
    """
    om = omega(poset) if om is None else om
    if om.poset != poset:
        raise ShapeMismatch("classifier lives on a different poset")
    one = terminal(poset)
    square = product(om, om)
    om_elements = om.element_poset()
    groups = (
        tuple(s.mask for s in enumerate_downsets(poset)),
        tuple(d.mask for d in enumerate_downsets(om_elements, cap=len(om_elements.points))),
        tuple(d.mask for d in limited_downsets(square.element_poset(), omega_square_cap)),
    )
    codomains = (one, om, square)
    subobjects = tuple((c, mask) for c, masks in enumerate(groups) for mask in masks)

    all_pairs = (
        (c, f, g) for c, masks in enumerate(groups) for i, f in enumerate(masks) for g in masks[i:]
    )
    nested: tuple[list, ...] = ([], [], [], [])
    crossing: tuple[list, ...] = ([], [], [], [])
    for k, (c, f, g) in enumerate(islice(all_pairs, max(pair_cap, 0))):
        for column, value in zip(crossing if f & ~g else nested, (k, c, f, g)):
            column.append(value)

    subterminals = groups[0]
    map_pairs = []
    for c, b in enumerate(codomains):
        if groups[c]:
            to_one = tuple(1 << i for i in b.elements().point)
            map_pairs.extend((c, 0, to_one, d) for d in subterminals)
    index = one.elements()
    positions = [sieve_positions(poset, u) for u in poset.points]
    for s in subterminals:
        chi_s = tuple(
            1 << om.element_at[i][positions[i][v]]
            for i, v in zip(index.point, _truth_values(index, s))
        )
        map_pairs.extend((0, 1, chi_s, d) for d in groups[1][:12])
    return TestUniverse(
        poset,
        codomains,
        subobjects,
        tuple(map(tuple, nested)),
        tuple(map(tuple, crossing)),
        tuple(map_pairs),
    )


def check_closure_axioms(clop: ClosureOperator, universe: TestUniverse) -> CheckReport:
    """The five closure laws, instantiated over the universe.

    Every law compares element masks, through the operator's table of
    closures over each codomain's element index, filled lazily in the order
    the laws ask for them; each closure must still be a sub-presheaf
    (FunctorialityError otherwise, as for any endomap table that is not a
    topology).  Witnesses are sliced from their codomain only on failure.
    """
    if clop.poset != universe.poset:
        raise ShapeMismatch("inclusion lives on a different poset")
    closed = [clop.closures(b.elements()) for b in universe.codomains]
    codomains = universe.codomains
    failures = []
    for c, f in universe.subobjects:
        if f & ~closed[c][f]:
            failures.append(AxiomFailure("C1-inflationary", (codomains[c]._sub(f),)))
            break
    for c, f in universe.subobjects:
        close = closed[c]
        cf = close[f]
        if close[cf] != cf:
            failures.append(AxiomFailure("C2-idempotent", (codomains[c]._sub(f),)))
            break
    monotone = True
    for _, c, f, g in zip(*universe.nested):
        close = closed[c]
        if close[f] & ~close[g]:
            cod = codomains[c]
            failures.append(AxiomFailure("C3-monotone", (cod._sub(f), cod._sub(g))))
            monotone = False
            break
    # On a nested pair C4 reads close f == close f & close g, which is C3 on
    # that pair: once C3 holds, only the crossing pairs can fail C4, and the
    # nested ones would ask for no closure that C3 has not computed.
    crossing = zip(*universe.crossing)
    for _, c, f, g in crossing if monotone else sorted(chain(zip(*universe.nested), crossing)):
        close = closed[c]
        if close[f & g] != close[f] & close[g]:
            cod = codomains[c]
            failures.append(AxiomFailure("C4-meets", (cod._sub(f), cod._sub(g))))
            break
    for a, b, images, d in universe.map_pairs:
        if closed[a][_pull_mask(images, d)] != _pull_mask(images, closed[b][d]):
            failures.append(AxiomFailure("C5-pullback-stable", (codomains[a], codomains[b]._sub(d))))
            break
    return CheckReport("closure axioms", tuple(failures))


def restriction_check(
    clop: ClosureOperator, triple: tuple[Inclusion, Inclusion, Inclusion]
) -> CheckReport:
    """Closure of the middle map computed from closures in the big object.

    ``triple`` is (m : C into D, d : D into E, c : C into E).
    """
    m, d, c = triple
    failures = []
    closed_m = closure_of(clop, m)
    closed_c = closure_of(clop, c)
    pulled, _ = preimage(d, closed_c)
    if closed_m.dom != pulled.dom:
        failures.append(AxiomFailure("restricted-closure-is-pullback", (m.dom,)))
    expected = {
        u: closed_c.dom.sets[u] & d.dom.sets[u] for u in clop.poset.points
    }
    if {u: closed_m.dom.sets[u] for u in clop.poset.points} != expected:
        failures.append(AxiomFailure("restricted-closure-is-meet", (m.dom,)))
    return CheckReport("restriction identities", tuple(failures))


# -- covering-sieve topologies ----------------------------------------------


def smallest_grotop(poset: Poset) -> GrothendieckTopology:
    """Only the maximal sieve covers each point."""
    return GrothendieckTopology(
        poset, tuple((poset.down_mask(u),) for u in poset.points)
    )


def largest_grotop(poset: Poset) -> GrothendieckTopology:
    """Every sieve covers."""
    return make_grotop(poset, {u: sieves_on(poset, u) for u in poset.points})


def is_grothendieck(j: GrothendieckTopology) -> CheckReport:
    """Bounds, hasmax, stab, and trans, with witnesses."""
    poset = j.poset
    points, downs = poset.points, poset._down
    failures = []
    family = [j.covers_mask_set(i) for i in range(len(points))]
    positions = [sieve_positions(poset, u) for u in points]
    for i, u in enumerate(points):
        if not family[i] <= positions[i].keys():
            failures.append(AxiomFailure("bounds", (u,)))
        if downs[i] not in family[i]:
            failures.append(AxiomFailure("hasmax", (u,)))
    for i, u in enumerate(points):
        for k in _bits(downs[i] & ~(1 << i)):
            down_v = downs[k]
            for m in family[i]:
                if m & down_v not in family[k]:
                    failures.append(
                        AxiomFailure("stab", (u, points[k], DownSet(poset, m)))
                    )
                    break
        for s_mask in sorted(positions[i]):
            if s_mask in family[i]:
                continue
            for cover in family[i]:
                rest = cover
                while rest:
                    k = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    if s_mask & downs[k] not in family[k]:
                        break
                else:
                    failures.append(
                        AxiomFailure(
                            "trans", (u, DownSet(poset, cover), DownSet(poset, s_mask))
                        )
                    )
                    break
            else:
                continue
            break
    return CheckReport("covering axioms", tuple(failures))


class FilterReport:
    __slots__ = ("report", "generators")

    def __init__(self, report: CheckReport, generators: tuple[DownSet, ...]):
        self.report = report
        self.generators = generators



def filter_check(j: GrothendieckTopology) -> FilterReport:
    """Top membership, upward closure, binary meets, and the principal
    generator of each per-point family (finiteness makes filters principal)."""
    poset = j.poset
    failures = []
    generators = []
    for idx, u in enumerate(poset.points):
        fam = j.covers_mask_set(idx)
        down_u = poset.down_mask(u)
        if down_u not in fam:
            failures.append(AxiomFailure("filter-top", (u,)))
        all_sieves = [s.mask for s in sieves_on(poset, u)]
        for r in fam:
            for s in all_sieves:
                if r | s == s and s not in fam:
                    failures.append(
                        AxiomFailure("filter-up", (u, DownSet(poset, r), DownSet(poset, s)))
                    )
                    break
        for r in fam:
            for s in fam:
                if r & s not in fam:
                    failures.append(
                        AxiomFailure("filter-meet", (u, DownSet(poset, r), DownSet(poset, s)))
                    )
                    break
        gen = down_u
        for r in fam:
            gen &= r
        generators.append(DownSet(poset, gen))
        if fam and gen not in fam:
            failures.append(AxiomFailure("filter-principal", (u,)))
    return FilterReport(
        CheckReport("filter laws", tuple(failures)), tuple(generators)
    )


def canonical_grothendieck(base: Poset) -> GrothendieckTopology:
    """Covering-by-union topology on the space of down-sets of the base.

    The result is indexed by the poset of down-sets of ``base`` ordered by
    reverse inclusion (bigger opens above), and a sieve covers an open when
    the union of its members is that open.
    """
    opens = enumerate_downsets(base)
    names = tuple("{" + ",".join(str(p) for p in o.members) + "}" for o in opens)
    by_name = dict(zip(names, opens))
    arrows = set()
    for i, o in enumerate(opens):
        for k, w in enumerate(opens):
            if i != k and w.mask | o.mask == o.mask:
                arrows.add((names[i], names[k]))
    space = Poset(names, arrows)
    families: dict = {}
    for name in names:
        o = by_name[name]
        fam = []
        for sieve in sieves_on(space, name):
            union = 0
            for member in sieve.members:
                union |= by_name[member].mask
            if union == o.mask:
                fam.append(sieve)
        families[name] = fam
    return make_grotop(space, families)
