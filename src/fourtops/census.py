"""The census: every structure of one face on a poset, two ways.

Each enumerator has a formula mode, which builds one structure per point
mask in ``downset_sort_key`` order, and an oracle mode, which searches by
the axioms alone and never consults a point set; the census law says both
give exactly ``2^|points|`` structures.  The oracle searches prune with the
axioms they check: LT components are placed along a linear extension, and
each component's table search (``enumerate_operator_tables``, on the masks
``operator_lattice`` builds once per lattice) only offers values that are
natural against the components already placed below; covering families are
generated as upward-closed sets of the sieves that are stable over the
covers already placed below, then filtered by transitivity.

The oracle modes need only ``poset`` (the sieve index, the down-set algebra
and the face records), so they load no checker; each formula mode imports
its conversion from ``convert`` when it runs.  ``check axioms`` reads
``formula_lts`` itself, so it does not load this module.
"""

from __future__ import annotations

from .errors import DEFAULT_ORACLE_POINT_CAP, SizeCapExceeded
from .poset import GrothendieckTopology, LTTopology, Nucleus, Poset, _bits, enumerate_downsets, lattice_tables, point_masks, sieve_positions, sieve_restriction, sieves_on


def operator_lattice(up: tuple[int, ...], meet: tuple[int, ...]) -> tuple:
    """The tables the search reads on the lattice whose order is ``up`` and
    whose flattened meet table is ``meet`` (as ``poset.lattice_tables``
    gives them): the up masks, the meet fibers, each index's meet checks and
    the down masks."""
    n = len(up)
    # fibers[a][b]: the values v with meet(a, v) == b.  Preserving the meet
    # of i and an earlier k means t[i] lies in the fiber of t[k] over
    # t[meet(i, k)].  The entries before i already preserve their meets, so
    # that follows for k from the same check for any earlier k2 >= k:
    # meet(t[i], t[k]) = meet(t[meet(i, k2)], t[k]) = t[meet(i, k)].  So
    # checks[i] holds (k, meet(i, k)) for the maximal indices k among
    # 0..i-1 alone; monotonicity is the case k <= i.
    fibers = []
    checks = []
    down = [0] * n
    tops = 0  # the maximal indices among 0..a-1
    for a in range(n):
        row = meet[a * n : a * n + n]
        fiber = [0] * n
        for v, b in enumerate(row):
            fiber[b] |= 1 << v
            if b == v:
                down[a] |= 1 << v
        fibers.append(fiber)
        checks.append([(k, row[k]) for k in range(a) if tops >> k & 1])
        tops = tops & ~down[a] | 1 << a
    return up, fibers, checks, down


def enumerate_operator_tables(
    lattice: tuple, allowed: tuple[int, ...] | None = None
) -> list[tuple[int, ...]]:
    """All idempotent, binary-meet-preserving tables that fix the top, on
    the lattice that ``operator_lattice`` prepared; its element order must
    be a linear extension.  ``allowed[i]``, when given, is the bitmask of
    values ``t[i]`` may take: an inflationary table is one that ``up``
    allows, and it fixes the top, which alone is above the top.  Tables
    come out in lexicographic order.
    """
    up, fibers, checks, down = lattice
    n = len(up)
    if n == 0:
        return [()]
    full = (1 << n) - 1
    base = [full] * n if allowed is None else list(allowed)
    base[n - 1] &= 1 << (n - 1)
    results: list[tuple[int, ...]] = []
    table = [0] * n

    def walk(i: int, must_fix: int, fixed: int) -> None:
        # must_fix: values some t[k] already took, which idempotence forces to
        # be fixed points; fixed: the indices below i that t already fixes
        if i == n:
            results.append(tuple(table))
            return
        if must_fix >> i & 1:
            cand = base[i] & 1 << i
        else:
            # a value v < i is placed, so t[v] == v is required now; a value
            # v above i is a fixed point, so t[i] <= t[v] == v
            cand = base[i] & (fixed | full >> i << i)
            above = must_fix & up[i]
            while above:
                low = above & -above
                above ^= low
                cand &= down[low.bit_length() - 1]
        for k, m in checks[i]:
            cand &= fibers[table[k]][table[m]]
            if not cand:
                return
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            table[i] = v
            walk(i + 1, must_fix | low, fixed | (1 << i if v == i else 0))

    walk(0, 0, 0)
    return results


def enumerate_nucleus_tables(poset: Poset) -> list[tuple[int, ...]]:
    """Brute-force search for every table passing the nucleus axioms."""
    up, meet = lattice_tables(enumerate_downsets(poset))
    # inflationary: t[i] lies above i
    return enumerate_operator_tables(operator_lattice(up, meet), up)


def enumerate_nuclei(
    poset: Poset, mode: str = "formula", point_cap: int = DEFAULT_ORACLE_POINT_CAP
) -> list[Nucleus]:
    if mode == "formula":
        from .convert import nucleus_from_point_set

        return [nucleus_from_point_set(poset, y) for y in point_masks(poset)]
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}")
    # the cap is read before the algebra, which has 2^n elements on n points
    if len(poset.points) > point_cap:
        raise SizeCapExceeded(f"oracle nucleus enumeration capped at {point_cap} points")
    return [Nucleus(poset, t) for t in enumerate_nucleus_tables(poset)]


def _linear_extension(poset: Poset) -> list[int]:
    """Point indices, every point after the points below it."""
    return sorted(
        range(len(poset.points)), key=lambda i: poset.down_mask_at(i).bit_count()
    )


def enumerate_grotops(
    poset: Poset, mode: str = "formula", point_cap: int = DEFAULT_ORACLE_POINT_CAP
) -> list[GrothendieckTopology]:
    if mode == "formula":
        from .convert import point_set_to_grotop

        return [point_set_to_grotop(poset, y) for y in point_masks(poset)]
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}")
    if len(poset.points) > point_cap:
        raise SizeCapExceeded(f"oracle enumeration capped at {point_cap} points")
    # assign per-point families minimal-points-first so stab and trans are
    # checkable as soon as a point is placed
    order = _linear_extension(poset)
    sieve_masks = [sieves_on(poset, u) for u in poset.points]
    positions = [sieve_positions(poset, u) for u in poset.points]
    # ups[i][a]: the sieves on point i containing sieve a, as bits over indices
    ups = [lattice_tables(masks)[0] for masks in sieve_masks]
    results: list[GrothendieckTopology] = []
    # chosen[i]: the covers placed at point i, as bits over its sieve indices
    chosen = [0] * len(poset.points)

    def covered_at(points: int, s: int) -> int:
        """The placed points among ``points`` where sieve s restricts to a cover."""
        where = 0
        for k in _bits(points):
            if chosen[k] >> positions[k][s & poset.down_mask_at(k)] & 1:
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
            results.append(GrothendieckTopology(poset, tuple(chosen)))
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
                chosen[i] = fam
                walk(pos + 1)

    walk(0)
    # by each point's covering masks, listed in sieve-index order
    results.sort(
        key=lambda g: [[m for k, m in enumerate(ms) if c >> k & 1] for ms, c in zip(sieve_masks, g.covers)]
    )
    return results


def enumerate_lts(
    poset: Poset, mode: str = "formula", point_cap: int = DEFAULT_ORACLE_POINT_CAP
) -> list[LTTopology]:
    if mode == "formula":
        from .convert import formula_lts

        return formula_lts(poset)
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}")
    if len(poset.points) > point_cap:
        raise SizeCapExceeded(f"oracle enumeration capped at {point_cap} points")
    lattices = [operator_lattice(*lattice_tables(sieves_on(poset, u))) for u in poset.points]
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
        n = len(lattices[i][0])
        allowed = [(1 << n) - 1] * n
        for iv, restr, fib in arrows_below[i]:
            tv = tables[iv]
            for k in range(n):
                allowed[k] &= fib[tv[restr[k]]]
        for t in enumerate_operator_tables(lattices[i], tuple(allowed)):
            tables[i] = t
            walk(pos + 1)

    walk(0)
    results.sort(key=lambda lt: lt.tables)
    return results
