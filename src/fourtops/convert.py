"""Conversions among the four equivalent topology representations.

Point sets, nuclei on the down-set algebra, covering-sieve families, and
classifier endomaps determine each other.  Every conversion here follows its
defining formula directly, and ``formula_lts`` lists the endomap of each
point set, which both the LT census's formula mode and ``check axioms``
read.  The enumerators live in ``census``; the route checks, which compose
these conversions along different paths and compare the results, and the
quadruple of a CLI payload live in ``routes``.  A ``check axioms`` run
loads this module but not those two.

The conversions take structures that pass their laws and check nothing: a
face converted from a valid face is valid, which the route comparisons and
the census prove by value.  Given an invalid structure, a conversion raises
a FourtopsError or returns a wrong value, which those checks report.  A
structure from outside is checked where it enters: by
``routes.complete_quad`` for the CLI's payloads, by the ``is_*`` checkers
for a library caller.
"""

from __future__ import annotations

from typing import Iterable

from .classifier import chi_tables, omega
from .errors import InvalidTopology
from .poset import Poset, _bits, _subsets, downset_positions, enumerate_downsets, sieve_positions
from .presheaf import terminal
from .records import GrothendieckTopology, LTTopology

# ``routes`` looks each conversion up on this module when it runs, so a
# patched one reaches every route; ``nucleus_from_point_set``,
# ``point_set_of_nucleus`` and ``j_from_closure`` live beside their faces and
# are looked up here too
from .heyting import Nucleus, nucleus_from_point_set, point_set_of_nucleus
from .topology import ClosureOperator, j_from_closure


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
    poset, table = n.poset, n.table
    els, pos = enumerate_downsets(poset), downset_positions(poset)
    covers = []
    for i, u in enumerate(poset.points):
        covers.append(tuple(m for m in sieve_positions(poset, u) if els[table[pos[m]]] >> i & 1))
    return GrothendieckTopology(poset, tuple(covers))


def grotop_to_nucleus(j: GrothendieckTopology) -> Nucleus:
    """Closure of S collects the points u with S-restricted-to-u covering u."""
    poset = j.poset
    pos = downset_positions(poset)
    per_point = [
        (1 << i, poset.down_mask_at(i), frozenset(fam)) for i, fam in enumerate(j.covers)
    ]
    table = []
    try:
        for s in pos:
            mask = 0
            for bit, down, fam in per_point:
                if s & down in fam:
                    mask |= bit
            table.append(pos[mask])
    except KeyError:
        raise InvalidTopology(_UNSTABLE) from None
    return Nucleus(poset, tuple(table))


# -- nucleus -> classifier endomap ------------------------------------------


def nucleus_to_lt(n: Nucleus) -> LTTopology:
    """Truncate the nucleus to each point's sieve lattice."""
    poset, table = n.poset, n.table
    els, pos = enumerate_downsets(poset), downset_positions(poset)
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
        for u, start, fam in zip(poset.points, om.offset, j.covers):
            pos = sieve_positions(poset, u)
            for m in fam:
                mask |= 1 << (start + pos[m])
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
    pos = downset_positions(poset)
    closed = clop.closures(terminal(poset))
    return Nucleus(poset, tuple(pos[closed[s]] for s in pos))


# -- point sets -> classifier endomaps ------------------------------------------


def formula_lts(poset: Poset) -> list[LTTopology]:
    """The endomap of each point set, in ``_subsets`` order: the formula
    mode of ``census.enumerate_lts``."""
    return [nucleus_to_lt(nucleus_from_point_set(poset, y)) for y in _subsets(poset.points)]
