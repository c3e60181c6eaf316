"""Independent brute-force reference implementations used to freeze expected
values.  Everything above the composite-routes section works from first
principles on explicit subsets so it shares no code path with the package.

The composite routes at the end keep the package's earlier, literal
constructions of the mask-based fast paths: they build one validated
sub-presheaf per step from label sets, where the package reads element masks.
"""

from itertools import combinations, product


def brute_above(points, arrows):
    """Reflexive-transitive closure as a set of pairs, by fixpoint."""
    rel = {(u, u) for u in points} | set(arrows)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def is_down_closed(members, above_pairs):
    members = set(members)
    return all(v in members for u in members for (x, v) in above_pairs if x == u)


def brute_downsets(points, arrows):
    """All down-closed subsets, by filtering the power set."""
    above = brute_above(points, arrows)
    out = []
    for k in range(len(points) + 1):
        for combo in combinations(points, k):
            if is_down_closed(combo, above):
                out.append(frozenset(combo))
    return out


def brute_down_closure(points, arrows, seed):
    """Fixpoint iteration of one-step arrow images."""
    out = set(seed)
    changed = True
    while changed:
        changed = False
        for (u, v) in arrows:
            if u in out and v not in out:
                out.add(v)
                changed = True
    return frozenset(out)


def brute_interior(points, arrows, subset):
    """Largest down-closed subset: filter by 'everything below stays in'."""
    above = brute_above(points, arrows)
    subset = set(subset)
    return frozenset(
        u for u in subset if all(v in subset for (x, v) in above if x == u)
    )


def brute_nucleus_tables(elements, meet):
    """Every inflationary, idempotent, meet-preserving table, by filtering all
    total maps.  Only usable on tiny lattices."""
    n = len(elements)
    le = [
        [meet[(i, j)] == i for j in range(n)] for i in range(n)
    ]
    out = []
    for table in product(range(n), repeat=n):
        if not all(le[i][table[i]] for i in range(n)):
            continue
        if not all(table[table[i]] == table[i] for i in range(n)):
            continue
        if all(
            table[meet[(i, j)]] == meet[(table[i], table[j])]
            for i in range(n)
            for j in range(n)
        ):
            out.append(table)
    return out


# -- composite routes ----------------------------------------------------------


def chi_composite(f, om):
    """Classifying map built per element: the smallest sub-presheaf containing
    the element, met with the domain, read off as a truth-value."""
    from fourtops.presheaf import Morphism, cst, element_downset, intersection

    b = f.cod
    poset = b.poset
    comp = {}
    for u in poset.points:
        down_u = poset.down_mask(u)
        table = {}
        for a in b.sets[u]:
            value = cst(intersection(f, element_downset(b, u, a)).dom)
            assert value.mask & ~down_u == 0
            table[a] = value
        comp[u] = table
    return Morphism(b, om, comp)


def subobjects_from_sets(b, limit=None):
    """Inclusions into b, one validated sub-presheaf per down-set of b's
    element poset, built from the down-set's member labels."""
    from fourtops.poset import enumerate_downsets, limited_downsets
    from fourtops.presheaf import Inclusion

    epo = b.element_poset()
    if limit is None:
        downs = enumerate_downsets(epo, cap=len(epo.points))
    else:
        downs = limited_downsets(epo, limit)
    out = []
    for d in downs:
        sets = {u: set() for u in b.poset.points}
        for (u, a) in d.members:
            sets[u].add(a)
        out.append(Inclusion(b.sub_from_sets(sets), b))
    return out
