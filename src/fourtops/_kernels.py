"""Table search used by the oracle-mode enumerators.

``enumerate_operator_tables`` walks every total map ``t`` on a finite lattice
given by index ``0..n-1`` in some linear extension (bottom first, top last)
and keeps the maps that are idempotent, preserve binary meets and fix the
top; the nucleus search passes the up masks as the allowed values, so its
maps are inflationary.  The search assigns ``t[i]`` in index order.  Each
index gets one candidate bitmask, the AND of precomputed masks for the
axioms that the values already placed constrain, and the walk visits only
its set bits, in ascending order.  The masks are built once per
lattice by ``operator_lattice``, so a caller that searches one lattice under
many ``allowed`` masks, as the LT census does, builds them once.
"""

from __future__ import annotations


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
