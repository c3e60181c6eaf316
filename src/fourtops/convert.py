"""Conversions among the four equivalent topology representations.

Point sets, nuclei on the down-set algebra, covering-sieve families, and
classifier endomaps determine each other, and a closure operator gives back
its endomap and nucleus.  Every conversion lives here and follows its
defining formula directly; ``formula_lts`` lists the endomap of each point
set, which the LT census's formula mode and ``check axioms`` read.  The
censuses (``census``) and the route checks and CLI quadruples (``routes``)
look each conversion up here when they run, as ``check`` does, so a patched
one reaches every formula path.  Every ``check`` target loads this module,
and ``check axioms`` loads neither of those two.

The conversions take structures that pass their laws and check nothing: a
face converted from a valid face is valid, which the route comparisons and
the census prove by value.  Given an invalid structure, a conversion raises
a FourtopsError or returns a wrong value, which those checks report.  A
structure from outside is checked where it enters: by
``routes.complete_quad`` for the CLI's payloads, by the ``is_*`` checkers
for a library caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InvalidTopology
from .poset import GrothendieckTopology, LTTopology, Nucleus, Poset, _bits, downset_positions, enumerate_downsets, interior_mask, point_masks, sieve_positions, sieves_on
from .presheaf import chi_tables, omega, terminal

if TYPE_CHECKING:
    from .topology import ClosureOperator


# what the two covering-family routes raise when the points where a sieve
# covers are not down-closed, which a stable family never gives
_UNSTABLE = "covering families are not stable: the points where a sieve covers are not down-closed"


# -- point set <-> nucleus --------------------------------------------------


def nucleus_from_point_set(poset: Poset, kept: int) -> Nucleus:
    """Nucleus induced by a point set Y: S -> interior(Q | S), Q the complement."""
    pos = downset_positions(poset)
    q_mask = poset.full_mask & ~kept
    return Nucleus(poset, tuple(pos[interior_mask(poset, q_mask | s)] for s in pos))


def point_set_of_nucleus(nucleus: Nucleus) -> int:
    """The mask of the points where the nucleus separates ``down u`` from
    ``strictly-down u``."""
    pos, table = downset_positions(nucleus.poset), nucleus.table
    downs = nucleus.poset._down
    return sum(1 << i for i, d in enumerate(downs) if table[pos[d]] != table[pos[d & ~(1 << i)]])


# -- point set <-> covering families ----------------------------------------


def point_set_to_grotop(poset: Poset, kept: int) -> GrothendieckTopology:
    """A sieve covers u exactly when it contains every kept point below u."""
    covers = []
    for i, u in enumerate(poset.points):
        need = kept & poset.down_mask_at(i)
        covers.append(sum(1 << k for k, m in enumerate(sieves_on(poset, u)) if need & ~m == 0))
    return GrothendieckTopology(poset, tuple(covers))


def grotop_to_point_set(j: GrothendieckTopology) -> int:
    """The mask of the points whose only cover is the maximal sieve, the last
    in the sieve index."""
    tops = [1 << (len(sieves_on(j.poset, u)) - 1) for u in j.poset.points]
    return sum(1 << i for i, (c, top) in enumerate(zip(j.covers, tops)) if c == top)


# -- nucleus <-> covering families ------------------------------------------


def nucleus_to_grotop(n: Nucleus) -> GrothendieckTopology:
    """A sieve covers u when u lands in the sieve's closure under the nucleus."""
    poset, table = n.poset, n.table
    els, pos = enumerate_downsets(poset), downset_positions(poset)
    covers = []
    for i, u in enumerate(poset.points):
        covers.append(sum(1 << k for k, m in enumerate(sieves_on(poset, u)) if els[table[pos[m]]] >> i & 1))
    return GrothendieckTopology(poset, tuple(covers))


def grotop_to_nucleus(j: GrothendieckTopology) -> Nucleus:
    """Closure of S collects the points u with S-restricted-to-u covering u."""
    poset = j.poset
    pos = downset_positions(poset)
    per_point = [
        (1 << i, poset.down_mask_at(i), sieve_positions(poset, u), fam)
        for i, (u, fam) in enumerate(zip(poset.points, j.covers))
    ]
    table = []
    try:
        for s in pos:
            mask = 0
            for bit, down, spos, fam in per_point:
                if fam >> spos[s & down] & 1:
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
    om = omega(j.poset)
    offset = om.offset
    if any(c >> (end - start) for start, end, c in zip(offset, offset[1:], j.covers)):
        raise InvalidTopology("a covering family sets a bit past the last sieve on its point")
    # sieve k of point i is Ω's element offset[i] + k
    mask = sum(c << start for start, c in zip(offset, j.covers))
    return LTTopology(j.poset, chi_tables(om, mask))


def grotop_to_lt_direct(j: GrothendieckTopology) -> LTTopology:
    """Independent route: j_u(S) collects the points of ``down u`` where the
    restricted sieve covers."""
    poset = j.poset
    downs = poset._down
    positions = [sieve_positions(poset, u) for u in poset.points]
    tables = []
    try:
        for pos, down_u in zip(positions, downs):
            below = [(1 << i, downs[i], positions[i], j.covers[i]) for i in _bits(down_u)]
            row = []
            for s in pos:
                mask = 0
                for bit, down, spos, fam in below:
                    if fam >> spos[s & down] & 1:
                        mask |= bit
                row.append(pos[mask])
            tables.append(tuple(row))
    except KeyError:
        raise InvalidTopology(_UNSTABLE) from None
    return LTTopology(poset, tuple(tables))


def lt_to_grotop(lt: LTTopology) -> GrothendieckTopology:
    """The sieves sent to the maximal sieve by each component."""
    covers = []
    for table in lt.tables:
        top = len(table) - 1
        covers.append(sum(1 << k for k, v in enumerate(table) if v == top))
    return GrothendieckTopology(lt.poset, tuple(covers))


# -- closure operator -> endomap and nucleus --------------------------------


def j_from_closure(clop: ClosureOperator) -> LTTopology:
    """Classifying map of the closure of the true inclusion, computed on the
    classifier's element masks: FunctorialityError if that closure is not a
    sub-presheaf."""
    om = omega(clop.poset)
    # the true map sends each point to its maximal sieve, the last element there
    closed = clop.closures(om)[sum(1 << (end - 1) for end in om.offset[1:])]
    return LTTopology(clop.poset, chi_tables(om, closed))


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
    """The endomap of each point mask, in ``downset_sort_key`` order: the
    formula mode of ``census.enumerate_lts``."""
    return [nucleus_to_lt(nucleus_from_point_set(poset, y)) for y in point_masks(poset)]
