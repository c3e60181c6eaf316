"""The closure laws and the filter laws; only ``check axioms`` runs them.

A closure operator (``topology.ClosureOperator``) is checked against the
five closure laws, each "for all inclusions" quantifier instantiated over a
finite, deterministic test universe of element masks, cut at a pair cap
(see ``build_universe``).  A covering-sieve topology is checked against the
filter laws, with the principal generator of each per-point family.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import and_

from .classifier import omega
from .errors import FunctorialityError, ShapeMismatch
from .heyting import AxiomFailure, CheckReport
from .poset import DownSet, Poset, _downsets, enumerate_downsets, sieve_positions, sieves_on
from .presheaf import _pull_mask, _truth_values, product, terminal
from .records import DEFAULT_PAIR_CAP, GrothendieckTopology
from .topology import ClosureOperator

_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


class TestUniverse:
    """A finite, deterministic family of subobjects, pairs and map pairs used
    to instantiate the 'for all inclusions' quantifiers, as element masks.

    ``subobjects`` holds ``(codomain, mask)`` per subobject, ``codomains``
    the objects the masks live in; ``rows`` holds the pairs as one row
    ``(codomain, f, its g's, nested g's, crossing g's, their meets with f)``
    per f, in pair order; ``map_pairs`` holds ``(domain, codomain, image
    bits, mask, pulled mask)`` per map pair, the image bits naming each
    domain element's image among the codomain's elements.  ``packed`` holds
    per codomain its subobjects' masks, a field width in bytes and, per
    truth-value key, one int with each subobject's group of that key in its
    field, so that their closures are the fields of one sum.
    """

    __slots__ = ("poset", "codomains", "subobjects", "rows", "map_pairs", "packed")

    def __init__(self, poset: Poset, codomains: tuple, subobjects: tuple, rows: tuple, map_pairs: tuple):
        self.poset, self.codomains, self.subobjects = poset, codomains, subobjects
        self.rows, self.map_pairs = rows, map_pairs
        packed = []
        for c, b in enumerate(codomains):
            index, masks = b.elements(), [mask for k, mask in subobjects if k == c]
            width = next((w for w in _FORMATS if 8 * w >= len(index.keys)), len(index.keys) + 7 >> 3)
            tables = list(map(index.truth_groups, masks))
            fields = {
                key: b"".join(t.get(key, 0).to_bytes(width, sys.byteorder) for t in tables)
                for key in set().union(*tables)
            }
            packed.append((masks, width, {k: int.from_bytes(v, sys.byteorder) for k, v in fields.items()}))
        self.packed = tuple(packed)


def build_universe(
    poset: Poset, pair_cap: int = DEFAULT_PAIR_CAP, omega_square_cap: int = 24
) -> TestUniverse:
    """Subobjects of 1, of Ω and the first ``omega_square_cap`` of Ω²; as
    pairs, the first ``pair_cap`` pairs (f, g) of subobjects of one object
    with g not listed before f, in one row per f; as map pairs, the bang of
    each object into the subterminals and chi of each subterminal against
    the first 12 subobjects of Ω.

    Every mask comes straight from the down-set enumerator over the down
    table of the object's element index.  The terminal has one element per
    point, in point order, so its subobjects are the poset's down-sets and
    the bang sends each element to the bit of its point.
    """
    om, one = omega(poset), terminal(poset)
    square = product(om, om)
    om_index, square_index = om.elements(), square.elements()
    groups = (
        enumerate_downsets(poset),
        _downsets(om_index.down, om_index.full),
        _downsets(square_index.down, square_index.full, omega_square_cap),
    )
    codomains = (one, om, square)
    subobjects = tuple((c, mask) for c, masks in enumerate(groups) for mask in masks)
    rows, left = [], max(pair_cap, 0)
    for c, masks in enumerate(groups):
        for i in range(len(masks) if left else 0):
            f, gs = masks[i], tuple(masks[i : i + left])
            left -= len(gs)
            nested = tuple(g for g in gs if f & g == f)
            crossing = tuple(g for g in gs if f & g != f)
            rows.append((c, f, gs, nested, crossing, tuple(map(f.__and__, crossing))))
            if not left:
                break

    subterminals = groups[0]
    maps = [
        (c, 0, tuple(1 << i for i in b.elements().point), subterminals)
        for c, b in enumerate(codomains) if groups[c]
    ]
    index = one.elements()
    positions = [sieve_positions(poset, u) for u in poset.points]
    for s in subterminals:
        truths = zip(index.point, _truth_values(index, s))
        chi_s = tuple(1 << om.element_at[i][positions[i][v]] for i, v in truths)
        maps.append((0, 1, chi_s, groups[1][:12]))
    map_pairs = tuple((a, b, m, d, _pull_mask(m, d)) for a, b, m, ds in maps for d in ds)
    return TestUniverse(poset, codomains, subobjects, tuple(rows), map_pairs)


def check_closure_axioms(clop: ClosureOperator, universe: TestUniverse) -> CheckReport:
    """The five closure laws, instantiated over the universe.

    Every law compares element masks, through the operator's table of
    closures over each codomain's element index; each closure must still be
    a sub-presheaf (FunctorialityError otherwise, as for any endomap table
    that is not a topology).  The closures of a codomain's subobjects are
    the fields of one sum of its packed groups, and the laws are screened a
    row at a time; only if a screen fails or raises do they run again pair
    by pair (``_ordered_laws``), the one loop that slices witnesses or raises.
    """
    if clop.poset != universe.poset:
        raise ShapeMismatch("inclusion lives on a different poset")
    closed = [clop.closures(b.elements()) for b in universe.codomains]
    try:
        if _screen(clop.cover, universe, closed):
            return CheckReport("closure axioms", ())
    except FunctorialityError:
        pass
    return _ordered_laws(universe, closed)


def _screen(cover: frozenset, universe: TestUniverse, closed: list) -> bool:
    """Whether every law holds, read per codomain and per row; fills the tables."""
    for close, (masks, width, ints) in zip(closed, universe.packed):
        total = sum(map(ints.__getitem__, cover.intersection(ints)))
        data = total.to_bytes(len(masks) * width, sys.byteorder)
        if width in _FORMATS:
            got = memoryview(data).cast(_FORMATS[width]).tolist()
        else:
            got = [int.from_bytes(data[k : k + width], sys.byteorder) for k in range(0, len(data), width)]
        index = close.index
        if not index.passed.issuperset(got):
            index.passed.update(map(index.require_down_closed, set(got).difference(index.passed)))
        close.update(zip(masks, got))
        if list(map(and_, masks, got)) != masks or list(map(close.__getitem__, got)) != got:
            return False
    for c, f, _, nested, crossing, meets in universe.rows:
        close = closed[c]
        cf = close[f]
        if cf & ~reduce(and_, map(close.__getitem__, nested)):
            return False
        if list(map(close.__getitem__, meets)) != list(map(cf.__and__, map(close.__getitem__, crossing))):
            return False
    return all(closed[a][p] == _pull_mask(images, closed[b][d]) for a, b, images, d, p in universe.map_pairs)


def _ordered_laws(universe: TestUniverse, closed: list) -> CheckReport:
    """The laws in order, each stopping at its first failure, with witnesses."""
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
    for c, f, g in ((r[0], r[1], g) for r in universe.rows for g in r[3]):
        close = closed[c]
        if close[f] & ~close[g]:
            cod = codomains[c]
            failures.append(AxiomFailure("C3-monotone", (cod._sub(f), cod._sub(g))))
            monotone = False
            break
    # On a nested pair C4 reads close f == close f & close g, which is C3 on
    # that pair: once C3 holds, only the crossing pairs can fail C4, and the
    # nested ones would ask for no closure that C3 has not computed.
    for c, f, g in ((r[0], r[1], g) for r in universe.rows for g in r[4 if monotone else 2]):
        close = closed[c]
        if close[f & g] != close[f] & close[g]:
            cod = codomains[c]
            failures.append(AxiomFailure("C4-meets", (cod._sub(f), cod._sub(g))))
            break
    for a, b, images, d, pull in universe.map_pairs:
        if closed[a][pull] != _pull_mask(images, closed[b][d]):
            failures.append(AxiomFailure("C5-pullback-stable", (codomains[a], codomains[b]._sub(d))))
            break
    return CheckReport("closure axioms", tuple(failures))


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
        all_sieves = sieves_on(poset, u)
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
