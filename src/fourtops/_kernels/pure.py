"""Table search used by the oracle-mode enumerators.

``enumerate_operator_tables`` walks every total map ``t`` on a finite lattice
given by index ``0..n-1`` in some linear extension (bottom first, top last)
and keeps the maps that are idempotent and preserve binary meets, optionally
inflationary and optionally fixing the top.  The search assigns ``t[i]`` in
index order.  Each index gets one candidate bitmask, the AND of precomputed
masks for the axioms that the values already placed constrain, and the walk
visits only its set bits, in ascending order.
"""

from __future__ import annotations


def enumerate_operator_tables(
    n: int,
    up_masks: tuple[int, ...],
    meet: tuple[int, ...],
    inflationary: bool,
    top_fixed: bool,
    allowed: tuple[int, ...] | None = None,
) -> list[tuple[int, ...]]:
    """All idempotent, binary-meet-preserving tables on an n-element lattice.

    ``up_masks[i]`` is the bitmask of indices j with element_i <= element_j;
    ``meet`` is the flattened n*n meet table.  The element order must be a
    linear extension of the lattice order.  ``allowed[i]``, when given, is the
    bitmask of values ``t[i]`` may take.  Tables come out in lexicographic
    order.
    """
    if n == 0:
        return [()]
    full = (1 << n) - 1
    # fiber[a * n + b]: the values v with meet(a, v) == b.  Preserving the
    # meet of i and an earlier k means t[i] lies in the fiber of t[k] over
    # t[meet(i, k)]; when k <= i that fiber is up_masks[t[k]], so monotonicity
    # needs no mask of its own.
    fiber = [0] * (n * n)
    for a in range(n):
        row = a * n
        for v in range(n):
            fiber[row + meet[row + v]] |= 1 << v
    base = [full] * n
    for i in range(n):
        if inflationary:
            base[i] &= up_masks[i]
        if allowed is not None:
            base[i] &= allowed[i]
    if top_fixed:
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
            # a value v < i is placed, so t[v] == v is required now
            cand = base[i] & (fixed | full >> i << i)
        row = i * n
        k = 0
        while cand and k < i:
            tk = table[k]
            cand &= fiber[tk * n + table[meet[row + k]]]
            k += 1
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            table[i] = v
            walk(i + 1, must_fix | low, fixed | (1 << i if v == i else 0))

    walk(0, 0, 0)
    return results
