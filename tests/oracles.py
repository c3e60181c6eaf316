"""Independent brute-force reference implementations used to freeze expected
values.  Everything above the composite-routes section works from first
principles on explicit subsets so it shares no code path with the package.

The composite routes keep the package's earlier, literal constructions of
the mask-based fast paths: they build one sub-presheaf object per step, most
of them validated from label sets, where the package reads element masks.
Among them, the literal closure-law universe builds each subobject, bang and
classifying map as a validated object, where the package lists masks and
image bits.
The label-set constructions under them build presheaves the way the tests
write them out, and the package has no use for them; with them are the
subterminal inclusion, the identity, the bang, the identity endomap, the
smallest and largest covering families, the equalizer, the element
down-sets, the truth-value ``cst`` of a subterminal and the exhaustive list
of natural maps, which only the tests read.  The literal oracle searches at the end keep the earlier enumerators that
generate every candidate and filter it by the axioms, where the package
prunes with the same axioms before it generates.  The literal route reports
keep the four route checkers that each looped over the point sets and
rebuilt every face, where the package makes one pass that builds each face
once, and the literal configuration list keeps the sweep's earlier
generator, which built every arrow subset and kept the acyclic ones, where
the package backtracks and drops a branch at its first cycle.  The literal
JSON output, last, keeps the structure rows that sorted
each down-set's names anew and the ``json.dumps`` call, where the package
reads one name table per document and writes the text itself.
"""

import json
from itertools import combinations, islice, permutations, product
from typing import NamedTuple


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


def brute_relabellings(down):
    """Every relabelling of a table of down-set masks, one per permutation of
    the points (old point i becomes new point perm[i]): two posets are
    isomorphic exactly when one's table is among the other's relabellings."""
    n = len(down)
    out = set()
    for perm in permutations(range(n)):
        new = [0] * n
        for i, d in enumerate(down):
            new[perm[i]] = sum(1 << perm[j] for j in range(n) if d >> j & 1)
        out.add(tuple(new))
    return out


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


def chi_composite(f):
    """Classifying map built per element: the smallest sub-presheaf containing
    the element, met with the domain, read off as a truth-value."""
    from fourtops.classifier import omega
    from fourtops.presheaf import Morphism, intersection

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
    return Morphism(b, omega(poset), comp)


def element_poset(b):
    """The poset of elements of b: points (u, a), points in order and labels
    in ``sorted_at`` order, with (u, a) above its image along each generating
    arrow.  Its down table is the reference for ``b.elements().down``."""
    from fourtops.poset import Poset

    points = [(u, a) for u in b.poset.points for a in b.sorted_at(u)]
    arrows = set()
    for (u, v), table in b.restr.items():
        for a, c in table.items():
            arrows.add(((u, a), (v, c)))
    return Poset(points, arrows)


def element_poset_downsets(b, limit=None):
    """The masks of the first ``limit`` (default: all) down-sets of b's
    element poset, in (size, membership) order."""
    from fourtops.poset import _downsets

    epo = element_poset(b)
    return _downsets(epo._down, epo.full_mask, limit)


def subobjects_from_sets(b, limit=None):
    """Inclusions into b, one validated sub-presheaf per down-set of b's
    element poset, built from the down-set's member labels."""
    from fourtops.presheaf import Inclusion

    epo = element_poset(b)
    out = []
    for d in element_poset_downsets(b, limit):
        sets = {u: set() for u in b.poset.points}
        for (u, a) in epo.names_of(d):
            sets[u].add(a)
        out.append(Inclusion(sub_from_sets(b, sets), b))
    return out


def closure_to_nucleus_composite(clop):
    """Nucleus of a closure operator through presheaf objects: each subterminal
    inclusion into the terminal is closed with ``closure_of`` and its
    truth-value read with ``cst``."""
    from fourtops.heyting import Nucleus, algebra_of
    from fourtops.presheaf import terminal
    from fourtops.topology import closure_of

    algebra = algebra_of(clop.poset)
    one = terminal(clop.poset)
    table = []
    for s in algebra.elements:
        closed = closure_of(clop, subterminal_inclusion(one, s))
        table.append(algebra.index(cst(closed.dom)))
    return Nucleus(algebra, tuple(table))


def lt_from_morphism(m):
    """The sieve-index tables of an endomap of the classifier."""
    from fourtops.classifier import OmegaObject
    from fourtops.errors import ShapeMismatch
    from fourtops.poset import sieve_positions
    from fourtops.records import LTTopology

    om = m.dom
    if not isinstance(om, OmegaObject) or m.cod != om:
        raise ShapeMismatch("expected an endomap of the classifier")
    poset = om.poset
    tables = []
    for u in poset.points:
        pos = sieve_positions(poset, u)
        tables.append(tuple(pos[m.comp[u][s].mask] for s in om.sieves[u]))
    return LTTopology(poset, tuple(tables))


def grotop_inclusion(j):
    """The covering families as a sub-presheaf of the classifier."""
    from fourtops.classifier import omega
    from fourtops.presheaf import Inclusion

    om = omega(j.poset)
    families = [j.covers_mask_set(i) for i in range(len(j.poset.points))]
    index = om.elements()
    mask = 0
    for k, ((_, s), i) in enumerate(zip(index.keys, index.point)):
        if s.mask in families[i]:
            mask |= 1 << k
    return Inclusion._from_mask(om, mask)


def grotop_to_lt_composite(j):
    """Endomap of a covering family through presheaf objects: the classifying
    map of the families' inclusion, read back as tables."""
    from fourtops.classifier import chi
    from fourtops.errors import InvalidTopology
    from fourtops.topology import is_grothendieck

    report = is_grothendieck(j)
    if not report.ok:
        raise InvalidTopology(report.summary())
    return lt_from_morphism(chi(grotop_inclusion(j)))


def closure_of_composite(clop, f):
    """Closure of an inclusion through presheaf objects: the inclusion
    classified by the endomap after the classifying map."""
    from fourtops.classifier import chi, sigma
    from fourtops.errors import NotInclusion
    from fourtops.presheaf import is_inclusion

    if not is_inclusion(f):
        raise NotInclusion("closure acts on inclusions")
    return sigma(chi(f).then(clop.lt.as_morphism()))


def j_from_closure_composite(clop):
    """Endomap of a closure operator through presheaf objects: the classifying
    map of the closed true inclusion, read back as tables."""
    from fourtops.classifier import chi, true_inclusion
    from fourtops.topology import closure_of

    closed_top = closure_of(clop, true_inclusion(clop.poset))
    return lt_from_morphism(chi(closed_top))


class ObjectUniverse(NamedTuple):
    """The closure-law universe as inclusions, inclusion pairs and
    (morphism, inclusion) map pairs."""

    poset: object
    inclusions: tuple
    pairs: tuple
    map_pairs: tuple


def build_universe_literal(poset, pair_cap=5000, omega_square_cap=24):
    """The closure-law universe as validated objects: subterminal inclusions,
    ``subobjects`` of Ω and of Ω², pairs of inclusions, and map pairs of a
    bang or a ``chi`` morphism with an inclusion, in ``build_universe``'s
    order."""
    from fourtops.classifier import chi, omega
    from fourtops.heyting import algebra_of
    from fourtops.presheaf import product as times
    from fourtops.presheaf import subobjects, terminal

    om = omega(poset)
    algebra = algebra_of(poset)
    one = terminal(poset)
    subterminals = [subterminal_inclusion(one, s) for s in algebra.elements]
    objects = [subterminals, subobjects(om), subobjects(times(om, om), limit=omega_square_cap)]
    inclusions = tuple(f for group in objects for f in group)
    all_pairs = ((f, g) for group in objects for i, f in enumerate(group) for g in group[i:])
    pairs = tuple(islice(all_pairs, max(pair_cap, 0)))
    map_pairs = []
    for group in objects:
        if group:
            to_one = bang(group[0].cod, one)
            map_pairs.extend((to_one, d) for d in subterminals)
    for f in subterminals:
        g = chi(f)
        map_pairs.extend((g, d) for d in objects[1][:12])
    return ObjectUniverse(poset, inclusions, pairs, tuple(map_pairs))


def check_closure_axioms_literal(clop, universe):
    """The five closure laws over an object universe through a memo of
    (codomain, mask) closures, one row loop per miss against the covering
    read off the endomap tables, with the poset and shared-codomain checks
    made on every closure miss and every pair."""
    from fourtops.errors import ShapeMismatch
    from fourtops.heyting import AxiomFailure, CheckReport
    from fourtops.poset import sieves_on
    from fourtops.presheaf import _same_codomain

    poset = clop.poset
    covering = []
    for i, u in enumerate(poset.points):
        sieves, table = sieves_on(poset, u), clop.lt.tables[i]
        top = poset.down_mask_at(i)
        covering.append({s for k, s in enumerate(sieves) if sieves[table[k]] == top})
    failures = []
    closed: dict = {}

    def close(b, mask):
        index = b.elements()  # one per codomain object; hashes by identity
        key = (index, mask)
        got = closed.get(key)
        if got is None:
            if b.poset != poset:
                raise ShapeMismatch("inclusion lives on a different poset")
            got = 0
            for k, (i, row) in enumerate(zip(index.point, index.rows)):
                s = 0
                for pb, eb in row:
                    if mask & eb:
                        s |= pb
                if s in covering[i]:
                    got |= 1 << k
            closed[key] = index.require_down_closed(got)
        return got

    for f in universe.inclusions:
        if f.mask & ~close(f.cod, f.mask):
            failures.append(AxiomFailure("C1-inflationary", (f.dom,)))
            break
    for f in universe.inclusions:
        cf = close(f.cod, f.mask)
        if close(f.cod, cf) != cf:
            failures.append(AxiomFailure("C2-idempotent", (f.dom,)))
            break
    for f, g in universe.pairs:
        _same_codomain(f, g, "a closure pair")
        if f.mask & ~g.mask == 0:
            if close(f.cod, f.mask) & ~close(g.cod, g.mask):
                failures.append(AxiomFailure("C3-monotone", (f.dom, g.dom)))
                break
    for f, g in universe.pairs:
        b = f.cod
        if close(b, f.mask & g.mask) != close(b, f.mask) & close(b, g.mask):
            failures.append(AxiomFailure("C4-meets", (f.dom, g.dom)))
            break
    for m, d in universe.map_pairs:
        _same_codomain(m, d, "preimage")
        lhs = close(m.dom, m.pull_mask(d.mask))
        if lhs != m.pull_mask(close(d.cod, d.mask)):
            failures.append(AxiomFailure("C5-pullback-stable", (m.dom, d.dom)))
            break
    return CheckReport("closure axioms", tuple(failures))


# -- label-set constructions ---------------------------------------------------


def subterminal_inclusion(one, mask):
    """The subterminal whose truth-value is the down-set ``mask``, included
    into the terminal ``one``.

    The terminal has one element per point, in point order, so the down-set's
    point mask is already the element mask.
    """
    from fourtops.presheaf import Inclusion

    return Inclusion._from_mask(one, mask)


def identity(b):
    """The identity of b, as an inclusion."""
    from fourtops.presheaf import Inclusion

    return Inclusion(b, b)


def bang(b, one=None):
    """The unique map to the terminal."""
    from fourtops.presheaf import Morphism, terminal

    one = terminal(b.poset) if one is None else one
    comp = {u: {a: "*" for a in b.sets[u]} for u in b.poset.points}
    return Morphism(b, one, comp)


def lt_identity(poset):
    """The identity endomap of the classifier: every sieve to itself."""
    from fourtops.poset import sieves_on
    from fourtops.records import LTTopology

    tables = tuple(tuple(range(len(sieves_on(poset, u)))) for u in poset.points)
    return LTTopology(poset, tables)


def smallest_grotop(poset):
    """Only the maximal sieve covers each point."""
    from fourtops.records import GrothendieckTopology

    return GrothendieckTopology(poset, tuple((poset.down_mask(u),) for u in poset.points))


def largest_grotop(poset):
    """Every sieve covers."""
    from fourtops.poset import sieves_on
    from fourtops.records import make_grotop

    return make_grotop(poset, {u: sieves_on(poset, u) for u in poset.points})


def sub_from_sets(b, sets):
    """Sub-presheaf of b on the given label subsets, restriction inherited."""
    from fourtops.presheaf import Presheaf

    sub_restr = {
        (u, v): {a: table[a] for a in sets.get(u, ())}
        for (u, v), table in b.restr.items()
    }
    return Presheaf(b.poset, sets, sub_restr)


def presheaf_from_element_poset(element_poset, base):
    """Rebuild a presheaf from (a down-set of) its poset of elements."""
    from fourtops.presheaf import Presheaf

    sets = {u: set() for u in base.points}
    for (u, a) in element_poset.points:
        sets[u].add(a)
    restr = {arrow: {} for arrow in base.arrows}
    for ((u, a), (v, b)) in element_poset.arrows:
        if (u, v) in restr:
            restr[(u, v)][a] = b
    return Presheaf(base, sets, restr)


def empty_presheaf(poset):
    from fourtops.presheaf import Presheaf

    return Presheaf(poset, {}, {})


def equalizer(f, g):
    """The sub-presheaf where two parallel morphisms agree."""
    from fourtops.errors import ShapeMismatch
    from fourtops.presheaf import Inclusion

    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("equalizer needs parallel morphisms")
    sets = {
        u: [a for a in f.dom.sets[u] if f.comp[u][a] == g.comp[u][a]]
        for u in f.dom.poset.points
    }
    return Inclusion._from_mask(f.dom, f.dom.elements().mask_of(sets))


def element_downset(b, u, a):
    """The smallest sub-presheaf of b containing a in the component at u."""
    from fourtops.errors import UnknownElement
    from fourtops.presheaf import Inclusion

    if a not in b.sets[u]:
        raise UnknownElement(f"{a!r} not in the component at {u!r}")
    index = b.elements()
    return Inclusion._from_mask(b, index.down[index.bit[(u, a)]])


def cst(c):
    """Truth-value of a subterminal: the down-set of points where it is inhabited."""
    from fourtops.errors import NotSubterminal
    from fourtops.poset import DownSet

    mask = 0
    for i, u in enumerate(c.poset.points):
        k = len(c.sets[u])
        if k > 1:
            raise NotSubterminal(f"component at {u!r} has {k} elements")
        if k:
            mask |= 1 << i
    return DownSet(c.poset, mask)


def natural_maps(t, b):
    """Every natural transformation t -> b (exhaustive; small inputs only)."""
    from fourtops.errors import ShapeMismatch
    from fourtops.presheaf import Morphism

    poset = t.poset
    if poset != b.poset:
        raise ShapeMismatch("natural_maps needs a shared poset")
    # every point above u has the larger down-set, so it comes first
    order = sorted(poset.points, key=lambda u: -poset.down_mask(u).bit_count())
    parents = {u: [w for (w, z) in poset.arrows if z == u] for u in order}
    assignments: list[dict] = [{}]
    for u in order:
        for a in t.sorted_at(u):
            grown = []
            for cand in assignments:
                forced = None
                consistent = True
                for w in parents[u]:
                    for c in t.sets[w]:
                        if t.restr[(w, u)][c] != a:
                            continue
                        want = b.restr[(w, u)][cand[(w, c)]]
                        if forced is None:
                            forced = want
                        elif forced != want:
                            consistent = False
                            break
                    if not consistent:
                        break
                if not consistent:
                    continue
                options = [forced] if forced is not None else list(b.sorted_at(u))
                for x in options:
                    nxt = dict(cand)
                    nxt[(u, a)] = x
                    grown.append(nxt)
            assignments = grown
    out = []
    for assignment in assignments:
        comp = {u: {a: assignment[(u, a)] for a in t.sets[u]} for u in poset.points}
        out.append(Morphism(t, b, comp))
    return out


def top_composite(b):
    """The constantly-true map on b: the bang followed by true."""
    from fourtops.classifier import true_map
    from fourtops.presheaf import terminal

    return bang(b, terminal(b.poset)).then(true_map(b.poset))


# -- literal oracle searches ---------------------------------------------------


def operator_tables_literal(n, up_masks, meet, inflationary, top_fixed):
    """The table search testing each candidate value against every axiom in
    turn, one value at a time, with no precomputed masks."""
    if n == 0:
        return [()]
    results = []
    table = [0] * n
    top = n - 1

    def admissible(i, v, must_fix):
        if inflationary and not up_masks[i] >> v & 1:
            return False
        if top_fixed and i == top and v != top:
            return False
        if must_fix >> i & 1 and v != i:
            return False
        if v < i and table[v] != v:
            return False
        base = i * n
        for k in range(i):
            tk = table[k]
            if up_masks[k] >> i & 1:
                # monotonicity: k <= i forces t[k] <= t[i]
                if not up_masks[tk] >> v & 1:
                    return False
            m = meet[base + k]
            if meet[tk * n + v] != table[m]:
                return False
        return True

    def walk(i, must_fix):
        if i == n:
            results.append(tuple(table))
            return
        for v in range(n):
            if admissible(i, v, must_fix):
                table[i] = v
                walk(i + 1, must_fix | 1 << v)
        table[i] = 0

    walk(0, 0)
    return results


def sieve_lattice_literal(sieves):
    """The order and meet tables of a list of sieves, by index, written out
    pair by pair."""
    n = len(sieves)
    pos = {s: k for k, s in enumerate(sieves)}
    up = [0] * n
    meet = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            if sieves[a] | sieves[b] == sieves[b]:
                up[a] |= 1 << b
            meet[a * n + b] = pos[sieves[a] & sieves[b]]
    return tuple(up), tuple(meet)


def lts_literal(poset):
    """Oracle LT topologies: every component table the kernel admits on its
    own, joined point by point in index order and filtered by naturality."""
    from fourtops.poset import sieves_on
    from fourtops.records import LTTopology

    per_point = []
    sieve_lists = [sieves_on(poset, u) for u in poset.points]
    for sieves in sieve_lists:
        up, meet = sieve_lattice_literal(sieves)
        per_point.append(
            operator_tables_literal(
                len(sieves), up, meet, inflationary=False, top_fixed=True
            )
        )
    arrow_info = []
    for (u, v) in sorted(poset.arrows, key=repr):
        iu, iv = poset.index(u), poset.index(v)
        down_v = poset.down_mask(v)
        pos_v = {s: k for k, s in enumerate(sieve_lists[iv])}
        restr = tuple(pos_v[s & down_v] for s in sieve_lists[iu])
        arrow_info.append((iu, iv, restr))
    results = []
    tables = [None] * len(poset.points)

    def natural_so_far(i):
        for (iu, iv, restr) in arrow_info:
            if tables[iu] is None or tables[iv] is None:
                continue
            if iu != i and iv != i:
                continue
            tu, tv = tables[iu], tables[iv]
            for k in range(len(restr)):
                if restr[tu[k]] != tv[restr[k]]:
                    return False
        return True

    def walk(i):
        if i == len(poset.points):
            results.append(LTTopology(poset, tuple(tables)))
            return
        for cand in per_point[i]:
            tables[i] = cand
            if natural_so_far(i):
                walk(i + 1)
        tables[i] = None

    walk(0)
    results.sort(key=lambda lt: lt.tables)
    return results


def grotops_literal(poset):
    """Oracle Grothendieck topologies: every family of sieves holding the
    maximal one, placed minimal points first and filtered by stability and
    transitivity."""
    from fourtops.poset import DownSet, sieves_on
    from fourtops.records import make_grotop

    order = sorted(
        range(len(poset.points)), key=lambda i: poset.down_mask_at(i).bit_count()
    )
    sieve_masks = [sieves_on(poset, u) for u in poset.points]
    results = []
    chosen = {}

    def candidates(i):
        down_u = poset.down_mask_at(i)
        rest = [m for m in sieve_masks[i] if m != down_u]
        out = []
        for k in range(len(rest) + 1):
            for combo in combinations(rest, k):
                out.append(frozenset(combo) | {down_u})
        return out

    def consistent(i, fam):
        down_u = poset.down_mask_at(i)
        for m in fam:
            rest = down_u & ~(1 << i)
            while rest:
                k = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if m & poset.down_mask_at(k) not in chosen[k]:
                    return False
        for s in sieve_masks[i]:
            if s in fam:
                continue
            for cover in fam:
                ok = True
                rest = cover
                while rest:
                    k = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    if k == i:
                        if s not in fam:
                            ok = False
                            break
                    elif s & poset.down_mask_at(k) not in chosen[k]:
                        ok = False
                        break
                if ok:
                    return False
        return True

    def walk(pos):
        if pos == len(order):
            families = {
                poset.points[i]: [DownSet(poset, m) for m in fam]
                for i, fam in chosen.items()
            }
            results.append(make_grotop(poset, families))
            return
        i = order[pos]
        for fam in candidates(i):
            if consistent(i, fam):
                chosen[i] = fam
                walk(pos + 1)
                del chosen[i]

    walk(0)
    results.sort(key=lambda g: g.covers)
    return results


def route_reports_literal(poset):
    """The route reports the way four separate checkers made them, one loop
    over the point sets each, in the order of ``check_routes``: round trips,
    truncation route, closure route, topmost region covers.  Every conversion
    is looked up on the ``convert`` module at call time, so one patched
    conversion reaches this side and ``check_routes`` alike."""
    from fourtops import convert
    from fourtops.census import _subsets
    from fourtops.convert import InstanceVerdict, RouteReport

    algebra = convert.algebra_of(poset)
    subsets = _subsets(poset.points)

    def label(y):
        return convert._y_label(poset, y)

    roundtrips = []
    for y in subsets:
        kept = frozenset(y)
        n = convert.nucleus_from_point_set(algebra, kept)
        j = convert.point_set_to_grotop(poset, kept)
        lt = convert.nucleus_to_lt(n)
        clop = convert.ClosureOperator(lt)
        j_of_n = convert.nucleus_to_grotop(n)
        n_of_j = convert.grotop_to_nucleus(j)
        lt_of_j = convert.grotop_to_lt(j)
        j_of_lt = convert.lt_to_grotop(lt)
        cycles = (
            convert.point_set_of_nucleus(n) == kept,
            convert.grotop_to_point_set(j) == kept,
            convert.grotop_to_nucleus(j_of_n) == n,
            convert.nucleus_to_grotop(n_of_j) == j,
            convert.lt_to_grotop(lt_of_j) == j,
            convert.grotop_to_lt(j_of_lt) == lt,
            convert.j_from_closure(clop) == lt,
            convert.closure_to_nucleus(clop) == n,
            j_of_n == j,
            n_of_j == n,
            j_of_lt == j,
            lt_of_j == lt,
            convert.grotop_to_lt_direct(j) == lt,
        )
        agrees = all(cycles)
        detail = "" if agrees else f"failed cycles: {[i for i, c in enumerate(cycles) if not c]}"
        roundtrips.append(InstanceVerdict(label(kept), agrees, detail))

    truncation = []
    for y in subsets:
        n = convert.nucleus_from_point_set(algebra, y)
        direct = convert.nucleus_to_lt(n)
        via_covers = convert.grotop_to_lt(convert.nucleus_to_grotop(n))
        agrees = direct == via_covers
        detail = "" if agrees else f"direct={direct.tables} via={via_covers.tables}"
        truncation.append(InstanceVerdict(label(y), agrees, detail))

    closure = []
    for y in subsets:
        clop = convert.ClosureOperator(
            convert.nucleus_to_lt(convert.nucleus_from_point_set(algebra, y))
        )
        direct = convert.closure_to_nucleus(clop)
        via = convert.grotop_to_nucleus(convert.lt_to_grotop(convert.j_from_closure(clop)))
        agrees = direct == via
        detail = "" if agrees else f"direct={direct.table} via={via.table}"
        closure.append(InstanceVerdict(label(y), agrees, detail))

    topmost = []
    for y in subsets:
        tables = convert.nucleus_to_lt(convert.nucleus_from_point_set(algebra, y)).tables
        grotop = convert.point_set_to_grotop(poset, y)
        agrees = True
        detail = ""
        for i, u in enumerate(poset.points):
            sieves = convert.sieves_on(poset, u)
            table = tables[i]
            top = len(sieves) - 1
            top_class = frozenset(
                sieves[k] for k in range(len(sieves)) if table[k] == table[top]
            )
            if top_class != grotop.covers_mask_set(i):
                agrees = False
                detail = f"at point {u!r}"
                break
        topmost.append(InstanceVerdict(label(y), agrees, detail))

    return (
        RouteReport("round trips", tuple(roundtrips)),
        RouteReport("truncation route", tuple(truncation)),
        RouteReport("closure route", tuple(closure)),
        RouteReport("topmost region covers", tuple(topmost)),
    )


def cross_configurations_literal(p, q):
    """Every acyclic cross-arrow set for the given column heights: each
    subset of the candidate arrows, by size and in ``combinations`` order,
    kept when its two-column graph is a poset."""
    from fourtops.errors import FourtopsError
    from fourtops.poset import TwoColumnGraph

    lefts = [f"{i}_" for i in range(1, p + 1)]
    rights = [f"_{j}" for j in range(1, q + 1)]
    candidates = sorted(
        [(l, r) for l in lefts for r in rights]
        + [(r, l) for l in lefts for r in rights]
    )
    configs = []
    for k in range(len(candidates) + 1):
        for combo in combinations(candidates, k):
            try:
                TwoColumnGraph(p, q, frozenset(combo)).poset()
            except FourtopsError:
                continue
            configs.append(frozenset(combo))
    return configs


def structure_json_literal(poset, kind, value):
    """The JSON form of one structure, each row's names sorted anew and a
    nucleus read through ``apply``."""
    from fourtops.poset import DownSet, sieves_on

    def names(mask):
        return sorted(str(u) for u in poset.names_of(mask))

    if kind == "y":
        return {"kind": "y", "members": sorted(str(u) for u in value)}
    if kind == "nucleus":
        table = [
            [names(s), names(value.apply(DownSet(poset, s)).mask)] for s in value.algebra.elements
        ]
        return {"kind": "nucleus", "table": sorted(table)}
    if kind == "grotop":
        covers = []
        for i, u in enumerate(poset.points):
            covers.append([str(u), sorted(names(m) for m in value.covers[i])])
        return {"kind": "grotop", "covers": sorted(covers)}
    if kind == "lt":
        table = []
        for i, u in enumerate(poset.points):
            sieves = sieves_on(poset, u)
            pairs = sorted(
                [names(s), names(sieves[value.tables[i][k]])]
                for k, s in enumerate(sieves)
            )
            table.append([str(u), pairs])
        return {"kind": "lt", "table": sorted(table)}
    raise ValueError(f"unknown structure kind {kind!r}")


def emit_json_literal(obj):
    """The output text through ``json``'s indenting encoder."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
