"""The closure laws and the filter laws; only ``check axioms`` runs them.

A closure operator (``topology.ClosureOperator``) is checked against the
five closure laws, each "for all inclusions" quantifier instantiated over a
finite, deterministic test universe of element masks, cut at a pair cap
(see ``build_universe``), on bit slices: a codomain's listed masks, and
their closures, are the fields of one int (see ``TestUniverse``).  A
covering-sieve topology is checked against the filter laws, with the
principal generator of each per-point family.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import and_

from .classifier import omega
from .errors import DEFAULT_PAIR_CAP, FunctorialityError, ShapeMismatch
from .heyting import AxiomFailure, CheckReport
from .poset import DownSet, Poset, _downsets, enumerate_downsets, sieve_positions, sieve_restriction, sieves_on
from .presheaf import ElementIndex, _pull_mask, _truth_values, terminal
from .records import GrothendieckTopology
from .topology import ClosureOperator

_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}

# the names of the codomains of a closure-law universe, as its witnesses give them
_NAMES = ("1", "Ω", "Ω²")


class _Pulls(dict):
    """Codomain element mask -> its pullback along one map, each pulled once
    per universe: C5 pulls the closure of each map pair's mask back for
    every operator, and the closures repeat across operators and across the
    map pairs of one map."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        super().__init__()
        self.images = images

    def __missing__(self, mask: int) -> int:
        got = self[mask] = _pull_mask(self.images, mask)
        return got


class TestUniverse:
    """A finite, deterministic family of subobjects, pairs and map pairs used
    to instantiate the 'for all inclusions' quantifiers, as element masks.

    ``subobjects`` holds ``(codomain, mask)`` per subobject, ``codomains``
    the element indexes of the objects the masks live in, 1, Ω and Ω² as
    ``build_universe`` lists them; ``rows`` holds the pairs as one row
    ``(codomain, f, its g's, nested g's, crossing g's, their meets with f)``
    per f, in pair order; ``map_pairs`` holds ``(domain, codomain, image
    bits, mask, pulled mask)`` per map pair, the image bits naming each
    domain element's image among the codomain's elements, and ``pulls`` the
    ``_Pulls`` of each map pair's map, one per distinct map.

    ``slices`` holds per codomain ``(whole, ones)``: its listed masks as the
    fields of one int, in list order, and bit 0 of each field.  ``packed``
    holds per codomain the masks, the field width in bytes and, per
    truth-value key, one int with each mask's group of that key in its
    field, so that their closures are the fields of one sum; each
    element's membership column ``whole >> e & ones`` is split by the
    elements of its row into its truth values, so no mask is grouped on its
    own.  ``row_masks`` holds per row ``(NEST, CROSS, ((meet, SEL), ...))``,
    all-ones fields at its nested and at its crossing g's and bit 0 at the
    crossing g's of each distinct meet; or None where a mask of the row is
    not listed in its codomain, and the row is read mask by mask.

    A closure law's witness names a subobject as ``(codomain name, mask)``,
    the names being ``"1"``, ``"Ω"`` and ``"Ω²"`` in codomain order, and
    C5's first entry is the name of the map's domain.
    """

    __slots__ = ("poset", "codomains", "subobjects", "rows", "map_pairs", "pulls", "packed", "slices", "row_masks")

    def __init__(self, poset: Poset, codomains: tuple, subobjects: tuple, rows: tuple, map_pairs: tuple):
        self.poset, self.codomains, self.subobjects = poset, codomains, subobjects
        self.rows, self.map_pairs = rows, map_pairs
        pulls = {images: _Pulls(images) for _, _, images, _, _ in map_pairs}
        self.pulls = tuple(pulls[images] for _, _, images, _, _ in map_pairs)
        packed, slices, fields = [], [], []
        for c, index in enumerate(codomains):
            masks, n = [mask for k, mask in subobjects if k == c], index.full.bit_length()
            width = next((w for w in _FORMATS if 8 * w >= n), n + 7 >> 3)
            whole = int.from_bytes(b"".join(m.to_bytes(width, sys.byteorder) for m in masks), sys.byteorder)
            ones = _select(range(len(masks)), len(masks), width)
            packed.append((masks, width, _slice_groups(index, whole, ones)))
            slices.append((whole, ones))
            fields.append((len(masks), width, {m: j for j, m in enumerate(masks)}, index.full))
        self.packed, self.slices = tuple(packed), tuple(slices)
        self.row_masks = tuple(_row_masks(row, *fields[row[0]]) for row in rows)


def _select(positions, count: int, width: int) -> int:
    """Over ``count`` fields of ``width`` bytes, laid out as
    ``TestUniverse.packed`` lays out its masks, the int with bit 0 of the
    fields at ``positions`` set."""
    flags = bytearray(count)
    for j in positions:
        flags[j] = 1
    data = bytearray(count * width)
    # bit 0 of field j is in its first byte, or its last on a big-endian host
    data[0 if sys.byteorder == "little" else width - 1 :: width] = flags
    return int.from_bytes(data, sys.byteorder)


def _slice_groups(index: ElementIndex, whole: int, ones: int) -> dict:
    """Truth-value key -> the int holding, in each mask's field, that mask's
    group of the key, read off the membership columns of ``whole``."""
    columns = [whole >> e & ones for e in range(index.full.bit_length())]
    width, groups = index.width, {}
    for k, (i, row) in enumerate(zip(index.point, index.rows)):
        # the fields, split by the point mask of the points below where
        # element k's image lies in their mask
        split = [(0, ones)]
        for pb, eb in row:
            column, parts = columns[eb.bit_length() - 1], []
            for s, fields in split:
                inside = fields & column
                if inside:
                    parts.append((s | pb, inside))
                if inside != fields:
                    parts.append((s, fields ^ inside))
            split = parts
        for s, fields in split:
            key = s * width + i
            groups[key] = groups.get(key, 0) | fields << k
    return groups


def _row_masks(row: tuple, count: int, width: int, position: dict, full: int):
    """A row's NEST, CROSS and meet selectors over its codomain's ``count``
    fields, or None if a mask of the row is not a listed subobject there."""
    _, f, _, nested, crossing, meets = row
    try:
        at_nested = list(map(position.__getitem__, nested))
        at_crossing = list(map(position.__getitem__, crossing))
    except KeyError:
        return None
    if not position.keys() >= {f, *meets}:
        return None
    by_meet: dict = {}
    for j, m in zip(at_crossing, meets):
        by_meet.setdefault(m, []).append(j)
    nest = _select(at_nested, count, width) * full
    cross = _select(at_crossing, count, width) * full
    return nest, cross, tuple((m, _select(js, count, width)) for m, js in by_meet.items())


def omega_square(poset: Poset) -> ElementIndex:
    """The element index of Ω×Ω: the pair of sieves k1, k2 on point i is
    element ``offset[i] + k1 * n + k2``, where n is the number of sieves on
    point i and ``offset[i]`` the number of pairs on the points before it."""
    sizes = [len(sieves_on(poset, u)) ** 2 for u in poset.points]

    def restrict(u, v) -> tuple[int, ...]:
        to_v, n = sieve_restriction(poset, u, v)[0], len(sieves_on(poset, v))
        return tuple(a * n + b for a in to_v for b in to_v)

    return ElementIndex(poset, sizes, restrict)


def build_universe(
    poset: Poset, pair_cap: int = DEFAULT_PAIR_CAP, omega_square_cap: int = 24
) -> TestUniverse:
    """Subobjects of 1, of Ω and the first ``omega_square_cap`` of Ω²; as
    pairs, the first ``pair_cap`` pairs (f, g) of subobjects of one object
    with g not listed before f, in one row per f; as map pairs, the bang of
    each object into the subterminals and chi of each subterminal against
    the first 12 subobjects of Ω, all in the order the down-set enumerator
    gives them over each element index (Ω in sieve-index order, Ω² in pairs
    of it).

    Every mask comes straight from the down-set enumerator over the down
    table of the object's element index.  The terminal has one element per
    point, in point order, so its subobjects are the poset's down-sets and
    the bang sends each element to the bit of its point.
    """
    om, one, square = omega(poset), terminal(poset), omega_square(poset)
    groups = (
        enumerate_downsets(poset),
        _downsets(om.down, om.full),
        _downsets(square.down, square.full, omega_square_cap),
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
        (c, 0, tuple(1 << i for i in index.point), subterminals)
        for c, index in enumerate(codomains) if groups[c]
    ]
    positions = [sieve_positions(poset, u) for u in poset.points]
    for s in subterminals:
        truths = zip(one.point, _truth_values(one, s))
        chi_s = tuple(1 << (om.offset[i] + positions[i][v]) for i, v in truths)
        maps.append((0, 1, chi_s, groups[1][:12]))
    map_pairs = tuple((a, b, m, d, _pull_mask(m, d)) for a, b, m, ds in maps for d in ds)
    return TestUniverse(poset, codomains, subobjects, tuple(rows), map_pairs)


def check_closure_axioms(clop: ClosureOperator, universe: TestUniverse) -> CheckReport:
    """The five closure laws, instantiated over the universe.

    Every law compares element masks, through the operator's table of
    closures over each codomain's element index; each closure must still be
    a sub-presheaf (FunctorialityError otherwise, as for any endomap table
    that is not a topology).  The closures of a codomain's subobjects are
    the fields of one sum of its packed groups, and the laws are screened on
    that sum, a codomain and then a row at a time; only if a screen fails or
    raises do they run again pair by pair (``_ordered_laws``), the one loop
    that builds witnesses or raises.
    """
    if clop.poset != universe.poset:
        raise ShapeMismatch("inclusion lives on a different poset")
    closed = [clop.closures(index) for index in universe.codomains]
    try:
        if _screen(clop.cover, universe, closed):
            return CheckReport("closure axioms", ())
    except FunctorialityError:
        pass
    return _ordered_laws(universe, closed)


def _screen(cover: frozenset, universe: TestUniverse, closed: list) -> bool:
    """Whether every law holds; fills the tables.  With ``total`` a
    codomain's closures as fields and ``spread`` a row's closure of f in
    every field: C1 is ``whole & ~total``, C3 ``spread & ~total & NEST``,
    and C4 compares each meet's closure at its crossing g's with ``spread
    & total & CROSS``; C2, the down-closure check and C5 read masks."""
    totals = []
    for close, (masks, width, ints), (whole, _) in zip(closed, universe.packed, universe.slices):
        total = sum(map(ints.__getitem__, cover.intersection(ints)))
        if whole & ~total:
            return False
        data = total.to_bytes(len(masks) * width, sys.byteorder)
        if width in _FORMATS:
            got = memoryview(data).cast(_FORMATS[width]).tolist()
        else:
            got = [int.from_bytes(data[k : k + width], sys.byteorder) for k in range(0, len(data), width)]
        index = close.index
        if not index.passed.issuperset(got):
            index.passed.update(map(index.require_down_closed, set(got).difference(index.passed)))
        close.update(zip(masks, got))
        if list(map(close.__getitem__, got)) != got:
            return False
        totals.append(total)
    for (c, f, _, nested, crossing, meets), sliced in zip(universe.rows, universe.row_masks):
        close = closed[c]
        cf = close[f]
        if sliced is None:
            if cf & ~reduce(and_, map(close.__getitem__, nested)):
                return False
            if list(map(close.__getitem__, meets)) != list(map(cf.__and__, map(close.__getitem__, crossing))):
                return False
            continue
        nest, cross, selectors = sliced
        total, spread = totals[c], cf * universe.slices[c][1]
        if spread & ~total & nest:
            return False
        if sum(close[m] * sel for m, sel in selectors) != spread & total & cross:
            return False
    return all(
        closed[a][p] == pulls[closed[b][d]]
        for (a, b, _, d, p), pulls in zip(universe.map_pairs, universe.pulls)
    )


def _ordered_laws(universe: TestUniverse, closed: list) -> CheckReport:
    """The laws in order, each stopping at its first failure, with witnesses."""
    failures = []
    for c, f in universe.subobjects:
        if f & ~closed[c][f]:
            failures.append(AxiomFailure("C1-inflationary", ((_NAMES[c], f),)))
            break
    for c, f in universe.subobjects:
        close = closed[c]
        cf = close[f]
        if close[cf] != cf:
            failures.append(AxiomFailure("C2-idempotent", ((_NAMES[c], f),)))
            break
    monotone = True
    for c, f, g in ((r[0], r[1], g) for r in universe.rows for g in r[3]):
        close = closed[c]
        if close[f] & ~close[g]:
            failures.append(AxiomFailure("C3-monotone", ((_NAMES[c], f), (_NAMES[c], g))))
            monotone = False
            break
    # On a nested pair C4 reads close f == close f & close g, which is C3 on
    # that pair: once C3 holds, only the crossing pairs can fail C4, and the
    # nested ones would ask for no closure that C3 has not computed.
    for c, f, g in ((r[0], r[1], g) for r in universe.rows for g in r[4 if monotone else 2]):
        close = closed[c]
        if close[f & g] != close[f] & close[g]:
            failures.append(AxiomFailure("C4-meets", ((_NAMES[c], f), (_NAMES[c], g))))
            break
    for (a, b, _, d, pull), pulls in zip(universe.map_pairs, universe.pulls):
        if closed[a][pull] != pulls[closed[b][d]]:
            failures.append(AxiomFailure("C5-pullback-stable", (_NAMES[a], (_NAMES[b], d))))
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
    for u, covers in zip(poset.points, j.covers):
        pos = sieve_positions(poset, u)
        fam = [m for m, k in pos.items() if covers >> k & 1]
        down_u = poset.down_mask(u)
        if not covers >> pos[down_u] & 1:
            failures.append(AxiomFailure("filter-top", (u,)))
        for r in fam:
            for s, k in pos.items():
                if r | s == s and not covers >> k & 1:
                    failures.append(
                        AxiomFailure("filter-up", (u, DownSet(poset, r), DownSet(poset, s)))
                    )
                    break
        for r in fam:
            for s in fam:
                if not covers >> pos[r & s] & 1:
                    failures.append(
                        AxiomFailure("filter-meet", (u, DownSet(poset, r), DownSet(poset, s)))
                    )
                    break
        gen = down_u
        for r in fam:
            gen &= r
        generators.append(DownSet(poset, gen))
        if fam and not covers >> pos[gen] & 1:
            failures.append(AxiomFailure("filter-principal", (u,)))
    return FilterReport(
        CheckReport("filter laws", tuple(failures)), tuple(generators)
    )
