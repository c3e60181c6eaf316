"""Topology structures on presheaves over a poset, with their checkers.

Three equivalent presentations live here: per-point endomaps of the
classifier (checked against naturality and the three endomap laws), the
closure operators they induce on inclusions, and per-point families of
covering sieves (checked against hasmax / stab / trans).  The endomap and
covering-family records themselves live in ``records``; the five closure
laws over a finite test universe and the filter laws, which only
``check axioms`` runs, live in ``axioms``.
"""

from __future__ import annotations

from .classifier import chi_tables, internal_meet, omega, true_inclusion
from .errors import InvalidTopology, ShapeMismatch
from .heyting import AxiomFailure, CheckReport, operator_failures
from .poset import (
    DownSet,
    Poset,
    _bits,
    enumerate_downsets,
    sieve_positions,
    sieve_restriction,
    sieves_on,
)
from .presheaf import ElementIndex, Inclusion, as_inclusion, pairing, preimage
from .records import GrothendieckTopology, LTTopology, make_grotop


def is_lt_topology(j: LTTopology) -> CheckReport:
    """Naturality plus the three endomap laws, with witnesses.

    Meet preservation is checked twice on purpose: once per point on sieve
    pairs, and once as the commuting square against the internal conjunction
    morphism, to catch representation bugs in either route.
    """
    poset = j.poset
    om = omega(poset)
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
        table, labels = j.tables[i], om.sieves[u]
        idem, meet = operator_failures(sieves_on(poset, u), sieve_positions(poset, u), table)
        if idem is not None:
            failures.append(AxiomFailure("idempotent", (u, labels[idem])))
        if table[-1] != len(table) - 1:
            failures.append(AxiomFailure("preserves-true", (u,)))
        if meet is not None:
            failures.append(AxiomFailure("preserves-meets", (u, *(labels[k] for k in meet))))
    if not failures:
        conj, p0, p1 = internal_meet(om)
        jm = j.as_morphism()
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
            cover.extend(m * width + i for m, k in zip(sieves, lt.tables[i]) if k == top)
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
    closed = clop.closures(om.elements())[true_inclusion(poset).mask]
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


def canonical_grothendieck(base: Poset) -> GrothendieckTopology:
    """Covering-by-union topology on the space of down-sets of the base.

    The result is indexed by the poset of down-sets of ``base`` ordered by
    reverse inclusion (bigger opens above), and a sieve covers an open when
    the union of its members is that open.
    """
    opens = enumerate_downsets(base)
    names = tuple("{" + ",".join(str(p) for p in base.names_of(o)) + "}" for o in opens)
    arrows = set()
    for i, o in enumerate(opens):
        for k, w in enumerate(opens):
            if i != k and w | o == o:
                arrows.add((names[i], names[k]))
    space = Poset(names, arrows)
    families: dict = {}
    for name, o in zip(names, opens):
        fam = []
        for sieve in sieves_on(space, name):
            union = 0
            for k in _bits(sieve):
                union |= opens[k]
            if union == o:
                fam.append(sieve)
        families[name] = fam
    return make_grotop(space, families)
