"""Independent brute-force reference implementations used to freeze expected
values.  Everything above the label-built presheaves works from first
principles on explicit subsets so it shares no code path with the package.

The label-built presheaves are the labelled-presheaf class the package was
built from and no longer has: a ``Presheaf`` assigns a label set to each
point and a restriction to each arrow, and is validated when built (total
restrictions, path-independent composites); its elements are ordered by
``repr`` of their labels (``LabelIndex``, the package's ``ElementIndex``
read off the label paths).  ``product`` pairs labels, and the terminal and
the classifier have '*' and the sieves as ``DownSet``s as labels.  The
package builds its 1, Ω and Ω² straight from the sieve index, in sieve-index
order; ``direct_positions`` maps each label-built element to its position
there, the permutation under which the tests equate the two.

The validated presheaf maps are the label-dict calculus the package was
built from and no longer runs: natural transformations validated component
by component, identity-component inclusions with their preimages and
intersections, the classifying map ``chi`` read off the label paths, the
classified inclusion ``sigma``, the true map, the internal conjunction and
implication, and the closure operator's action on inclusions (``closure_of``,
a thin wrapper over the package's table of closed masks, with the dense and
closed tests, the dense-closed factorization and the restriction identities)
and the canonical covering-by-union topology, with the five exception types
that only this calculus raises.  The package represents a presheaf map
only by element masks and image bits.

The composite routes keep the package's earlier, literal constructions of
the mask-based fast paths: they build one sub-presheaf object per step, most
of them validated from label sets, where the package reads element masks;
they close inclusions through the classifier (``closure_of_composite``), not
through the package's table of closed masks.
Among them, the literal closure-law universe builds each subobject, bang and
classifying map as a validated object, where the package lists masks and
image bits; it lists the subobjects in the package's order
(``direct_subobjects``), and ``direct_report`` moves its witnesses, given
as inclusions, to the package's ``(object name, mask)`` form.  The
literal endomap laws are equations of validated morphisms (the endomap, the
true map, the internal conjunction, its projections and a pairing), where
the package decides them on sieve-index tables; every natural endomap of
the classifier is listed as their input.
The label-set constructions under them build presheaves the way the tests
write them out, and the package has no use for them; with them are the
subterminal inclusion, the identity, the bang, the identity endomap, the
smallest and largest covering families with the builder of a covering
family's bits from its sieves (``make_grotop``), the equalizer, the element
down-sets, the truth-value ``cst`` of a subterminal and the exhaustive list
of natural maps, which only the tests read.  The down-set operations that no
command runs are functions of a poset and masks here: its down-set algebra's bottom, top,
index, meet, join and implication, a nucleus's or an LT topology's value
on a down-set, the covers at a point, a two-column graph's pile, and
membership, inclusion and size.  The literal oracle searches at the end
keep the earlier enumerators that generate every candidate and filter it
by the axioms, where the package prunes with the same axioms before it
generates; the literal table search tests each candidate against each
axiom in turn, where the package's kernel reads masks it builds once per
lattice and prunes with the bound that forced fixed points give.  The
literal route reports keep the four route checkers that each looped over
the point sets and rebuilt every face, where the package makes one pass that builds each face
once, and the literal configuration list keeps the sweep's earlier
generator, which built every arrow subset and kept the acyclic ones, where
the package backtracks and drops a branch at its first cycle.  The literal
JSON output, last, keeps the structure rows that sorted
each down-set's names anew and the ``json.dumps`` call, and the census
document built from one such dict per item, sorted by its ``json.dumps``,
where the package writes the text itself and a census from the text of
each distinct row and per-point entry.
"""

import json
from functools import lru_cache
from itertools import accumulate, combinations, islice, permutations
from itertools import product as cartesian
from typing import NamedTuple

from fourtops.errors import FourtopsError, FunctorialityError, ShapeMismatch
from fourtops.presheaf import ElementIndex


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
    for table in cartesian(range(n), repeat=n):
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


# -- label-built presheaves ---------------------------------------------------


def _label_key(label):
    return repr(label)


class LabelIndex(ElementIndex):
    """The element index of a label-built presheaf, read off its composite
    restrictions: the elements (u, a), points in order and labels in
    ``sorted_at`` order.  ``keys`` lists them and ``bit`` maps each to its
    position; the rest is the package's ``ElementIndex``, so the package's
    closure tables read it."""

    __slots__ = ("keys", "bit")

    def __init__(self, b):
        poset = b.poset
        self.poset = poset
        self.keys = tuple((u, a) for u in poset.points for a in b.sorted_at(u))
        self.bit = {key: k for k, key in enumerate(self.keys)}
        self.offset = tuple(accumulate((len(b.sorted_at(u)) for u in poset.points), initial=0))
        self.full = (1 << len(self.keys)) - 1
        self.width = len(poset.points)
        self._groups = {}
        self.passed = set()
        below = [
            [(1 << j, v) for j, v in enumerate(poset.points) if poset.above(u, v)]
            for u in poset.points
        ]
        point, rows, down = [], [], []
        for (u, a) in self.keys:
            i = poset.index(u)
            row = tuple(
                (pb, 1 << self.bit[(v, b._paths[(u, v)][a])]) for pb, v in below[i]
            )
            point.append(i)
            rows.append(row)
            acc = 0
            for _, eb in row:
                acc |= eb
            down.append(acc)
        self.point = tuple(point)
        self.rows = tuple(rows)
        self.down = tuple(down)


class Presheaf:
    """Finite-set-valued functor on a poset, restriction along 'below'.

    A presheaf assigns a finite label set to each point and a restriction
    map to each generating arrow; composite restrictions must be
    path-independent, which is verified at construction.  A sub-presheaf
    sliced from a mask (``_sub``) is trusted: its restrictions and composite
    paths are taken from the presheaf rather than recomposed and
    revalidated.
    """

    __slots__ = ("poset", "sets", "restr", "_paths", "_elements", "_hash")

    def __init__(self, poset, sets, restr):
        self.poset = poset
        self.sets = {u: frozenset(sets.get(u, ())) for u in poset.points}
        self.restr = {}
        for (u, v), table in restr.items():
            if (u, v) not in poset.arrows:
                raise FunctorialityError(f"{(u, v)!r} is not a generating arrow")
            self.restr[(u, v)] = dict(table)
        for arrow in poset.arrows:
            self.restr.setdefault(arrow, {})
        self._paths = None
        self._elements = None
        self._hash = None
        self._validate()

    def _sub(self, mask):
        """The sub-presheaf on a down-closed element mask, trusted: the sets are
        read off the mask and restrictions and paths are sliced, not rebuilt."""
        from fourtops.poset import _bits

        sets = {u: [] for u in self.poset.points}
        keys = self.elements().keys
        for k in _bits(mask):
            u, a = keys[k]
            sets[u].append(a)
        sub = object.__new__(Presheaf)
        sub.poset = self.poset
        sub.sets = {u: frozenset(labels) for u, labels in sets.items()}
        sub.restr = {
            (u, v): {a: table[a] for a in sets[u]} for (u, v), table in self.restr.items()
        }
        sub._paths = {
            (u, v): {a: path[a] for a in sets[u]} for (u, v), path in self._paths.items()
        }
        sub._elements = None
        sub._hash = None
        return sub

    def _validate(self):
        for (u, v), table in self.restr.items():
            if set(table) != set(self.sets[u]):
                raise FunctorialityError(
                    f"restriction along {(u, v)!r} is not total on {sorted(map(_label_key, self.sets[u]))}"
                )
            for a, b in table.items():
                if b not in self.sets[v]:
                    raise FunctorialityError(
                        f"restriction along {(u, v)!r} sends {a!r} outside the target set"
                    )
        self._paths = self._compose_paths()

    def _compose_paths(self):
        """Maps (u, v) with u above v to the composite restriction, checking
        that every pair of parallel paths agrees."""
        poset = self.poset
        out = {}
        for u in poset.points:
            out[(u, u)] = {a: a for a in self.sets[u]}
        order = poset.points
        children = {u: [v for (x, v) in poset.arrows if x == u] for u in order}
        for u in order:
            pending = [u]
            while pending:
                w = pending.pop()
                for v in children[w]:
                    step = self.restr[(w, v)]
                    composite = {a: step[out[(u, w)][a]] for a in self.sets[u]}
                    if (u, v) in out:
                        if out[(u, v)] != composite:
                            raise FunctorialityError(
                                f"two paths {u!r} ~> {v!r} restrict differently"
                            )
                    else:
                        out[(u, v)] = composite
                        pending.append(v)
        return out

    def elements(self):
        """The element index, built on first use and kept."""
        if self._elements is None:
            self._elements = LabelIndex(self)
        return self._elements

    def sorted_at(self, u):
        return tuple(sorted(self.sets[u], key=_label_key))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Presheaf)
            and self.poset == other.poset
            and self.sets == other.sets
            and self.restr == other.restr
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (
                    self.poset,
                    tuple(tuple(self.sorted_at(u)) for u in self.poset.points),
                )
            )
        return self._hash

    def __repr__(self):
        parts = ", ".join(
            f"{u}:{{{','.join(map(str, self.sorted_at(u)))}}}" for u in self.poset.points
        )
        return f"Presheaf({parts})"


def product(a, b):
    """Pointwise pairs with pairwise restriction; labels are (left, right)."""
    if a.poset != b.poset:
        raise ShapeMismatch("product factors live on different posets")
    sets = {
        u: frozenset((x, y) for x in a.sets[u] for y in b.sets[u])
        for u in a.poset.points
    }
    restr = {
        (u, v): {
            (x, y): (a.restr[(u, v)][x], b.restr[(u, v)][y])
            for (x, y) in sets[u]
        }
        for (u, v) in a.poset.arrows
    }
    return Presheaf(a.poset, sets, restr)


@lru_cache(maxsize=4)
def terminal_presheaf(poset):
    """The one-star presheaf, built once per poset and kept."""
    sets = {u: ("*",) for u in poset.points}
    restr = {arrow: {"*": "*"} for arrow in poset.arrows}
    return Presheaf(poset, sets, restr)


def sieve_labels(poset, u):
    """The sieves on u as ``DownSet`` labels, in sieve-index order."""
    from fourtops.poset import DownSet, sieves_on

    return tuple(DownSet(poset, m) for m in sieves_on(poset, u))


@lru_cache(maxsize=4)
def omega_presheaf(poset):
    """The classifier with the sieves on u as its labels at u (``DownSet``s,
    in ``repr`` order as elements) and restriction the meet with ``down v``,
    built once per poset and kept."""
    from fourtops.poset import DownSet

    sets = {u: sieve_labels(poset, u) for u in poset.points}
    restr = {
        (u, v): {s: DownSet(poset, s.mask & poset.down_mask(v)) for s in sets[u]}
        for (u, v) in poset.arrows
    }
    return Presheaf(poset, sets, restr)


def direct_positions(b):
    """Per element of a label-built 1, Ω or Ω², in its own element order,
    the element's position in the package's index of the same object: the
    component sizes of the points before u, plus the label's position at u
    (0 for the one star, the sieve index for a sieve, and k1 * n + k2 for
    the pair of sieves k1, k2 among the n sieves on u)."""
    from fourtops.poset import sieve_positions

    poset = b.poset
    out, start = [], 0
    for u in poset.points:
        pos = sieve_positions(poset, u)
        for a in b.sorted_at(u):
            if a == "*":
                local = 0
            elif isinstance(a, tuple):
                local = pos[a[0].mask] * len(pos) + pos[a[1].mask]
            else:
                local = pos[a.mask]
            out.append(start + local)
        start += len(b.sets[u])
    return tuple(out)


def permute_mask(positions, mask):
    """An element mask moved to the order ``positions`` gives each element."""
    out = 0
    for k, p in enumerate(positions):
        if mask >> k & 1:
            out |= 1 << p
    return out


# -- validated presheaf maps ---------------------------------------------------


class UnknownElement(FourtopsError):
    """An element label is not present in the named component."""


class NaturalityError(FourtopsError):
    """A component family does not commute with restriction."""


class NotMonic(FourtopsError):
    """A morphism expected to be componentwise injective is not."""


class NotInclusion(FourtopsError):
    """A morphism expected to have identity components does not."""


class NotSubterminal(FourtopsError):
    """A presheaf has a component with more than one element."""


class Morphism:
    """Natural transformation between presheaves on the same poset."""

    __slots__ = ("dom", "cod", "comp", "_images")

    def __init__(self, dom, cod, comp):
        if dom.poset != cod.poset:
            raise ShapeMismatch("domain and codomain live on different posets")
        self.dom = dom
        self.cod = cod
        self.comp = {u: dict(comp.get(u, {})) for u in dom.poset.points}
        self._images = None
        self._validate()

    def _validate(self):
        for u in self.dom.poset.points:
            table = self.comp[u]
            if set(table) != set(self.dom.sets[u]):
                raise NaturalityError(f"component at {u!r} is not total")
            for a, b in table.items():
                if b not in self.cod.sets[u]:
                    raise NaturalityError(f"component at {u!r} sends {a!r} outside the codomain")
        for (u, v) in self.dom.poset.arrows:
            down = self.dom.restr[(u, v)]
            up = self.cod.restr[(u, v)]
            for a in self.dom.sets[u]:
                if self.comp[v][down[a]] != up[self.comp[u][a]]:
                    raise NaturalityError(f"square at arrow {(u, v)!r} does not commute on {a!r}")

    @classmethod
    def _trusted(cls, dom, cod, comp):
        """A morphism taken as given: its naturality is not checked."""
        self = object.__new__(cls)
        self.dom = dom
        self.cod = cod
        self.comp = comp
        self._images = None
        return self

    def __call__(self, u, a):
        try:
            return self.comp[u][a]
        except KeyError:
            raise UnknownElement(f"{a!r} not in the domain at {u!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.comp == other.comp
        )

    def __hash__(self):
        return hash((self.dom, self.cod))

    def image_bits(self):
        """Per element of the domain, in element order, the bit of its image
        among the codomain's elements; built on first use and kept."""
        if self._images is None:
            cod_bit = self.cod.elements().bit
            self._images = tuple(
                1 << cod_bit[(u, self.comp[u][a])] for (u, a) in self.dom.elements().keys
            )
        return self._images

    def pull_mask(self, mask):
        """Preimage of a codomain element mask, as a domain element mask."""
        from fourtops.presheaf import _pull_mask

        return _pull_mask(self.image_bits(), mask)

    def is_monic(self):
        return all(
            len(set(self.comp[u].values())) == len(self.comp[u]) for u in self.dom.poset.points
        )

    def then(self, other):
        """Composite self;other (apply self first).  A composite of natural
        maps is natural, so it is built trusted, not validated again."""
        if self.cod != other.dom:
            raise ShapeMismatch("composite endpoints do not match")
        comp = {
            u: {a: other.comp[u][b] for a, b in self.comp[u].items()}
            for u in self.dom.poset.points
        }
        return Morphism._trusted(self.dom, other.cod, comp)


class Inclusion(Morphism):
    """A morphism whose components are literal identities (IncSC), with the
    mask of its domain's elements among the codomain's."""

    __slots__ = ("mask",)

    def __init__(self, dom, cod):
        for u in dom.poset.points:
            if not dom.sets[u] <= cod.sets[u]:
                raise NotInclusion(f"component at {u!r} is not a subset of the codomain")
        comp = {u: {a: a for a in dom.sets[u]} for u in dom.poset.points}
        super().__init__(dom, cod, comp)
        self.mask = mask_of(cod.elements(), dom.sets)

    @classmethod
    def _from_mask(cls, cod, mask):
        """The inclusion of the sub-presheaf on a down-closed element mask;
        FunctorialityError if the mask is not down-closed."""
        cod.elements().require_down_closed(mask)
        dom = cod._sub(mask)
        comp = {u: {a: a for a in labels} for u, labels in dom.sets.items()}
        self = cls._trusted(dom, cod, comp)
        self.mask = mask
        return self


def restrict(b, u, v, a):
    """Image of a in B(u) under the composite restriction to v."""
    try:
        return b._paths[(u, v)][a]
    except KeyError:
        if (u, v) not in b._paths:
            raise ShapeMismatch(f"{u!r} is not above {v!r}") from None
        raise UnknownElement(f"{a!r} not in the component at {u!r}") from None


def mask_of(index, sets):
    """Mask of the elements of an element index named by a point -> labels
    mapping."""
    mask = 0
    for u, labels in sets.items():
        for a in labels:
            try:
                mask |= 1 << index.bit[(u, a)]
            except KeyError:
                raise UnknownElement(f"{a!r} not in the component at {u!r}") from None
    return mask


def is_inclusion(m):
    return all(all(a == b for a, b in m.comp[u].items()) for u in m.dom.poset.points)


def as_inclusion(m, message="expected an inclusion"):
    """m itself if it is an Inclusion; else the Inclusion with m's endpoints,
    provided m has identity components."""
    if isinstance(m, Inclusion):
        return m
    if not is_inclusion(m):
        raise NotInclusion(message)
    return Inclusion(m.dom, m.cod)


def _same_codomain(f, g, what):
    if f.cod is not g.cod and f.cod != g.cod:
        raise ShapeMismatch(f"{what} needs a shared codomain")


def can(f):
    """The inclusion equivalent to a monic: image sets with inherited restriction."""
    if not f.is_monic():
        raise NotMonic("can() needs a componentwise-injective morphism")
    mask = 0
    for img in f.image_bits():
        mask |= img
    return Inclusion._from_mask(f.cod, mask)


def preimage(f, g):
    """Pull an inclusion back along f; returns (left wall, top wall)."""
    _same_codomain(f, g, "preimage")
    g = as_inclusion(g)
    left = Inclusion._from_mask(f.dom, f.pull_mask(g.mask))
    sub = left.dom
    top = Morphism(
        sub, g.dom, {u: {a: f.comp[u][a] for a in sub.sets[u]} for u in f.dom.poset.points}
    )
    return left, top


def intersection(f, g):
    """Componentwise meet of two inclusions into the same presheaf."""
    _same_codomain(f, g, "intersection")
    return Inclusion._from_mask(f.cod, as_inclusion(f).mask & as_inclusion(g).mask)


def subterminal_of(poset, s):
    """The subterminal presheaf whose truth-value is the down-set ``s``, a mask."""
    inside = {u: downset_contains(poset, s, u) for u in poset.points}
    sets = {u: ("*",) if inside[u] else () for u in poset.points}
    restr = {(u, v): ({"*": "*"} if inside[u] else {}) for (u, v) in poset.arrows}
    return Presheaf(poset, sets, restr)


def subobjects(b, limit=None):
    """Inclusions into b, one per down-set of b's elements under the element
    index's down table, in (size, membership) order; ``limit`` keeps only
    the first entries of that order."""
    from fourtops.poset import _downsets

    index = b.elements()
    return [Inclusion._from_mask(b, m) for m in _downsets(index.down, index.full, limit)]


def chi(f):
    """Classifying map of an inclusion, read off the label paths: b in B(u)
    goes to the sieve of the points v below u at which b restricts into the
    domain.  The package reads the same sieves off element masks
    (``_truth_values``, ``chi_tables``)."""
    from fourtops.poset import sieve_positions

    f = as_inclusion(f, "chi needs identity components")
    b, sub = f.cod, f.dom.sets
    poset = b.poset
    om = omega_presheaf(poset)
    comp = {}
    for u in poset.points:
        below = [(1 << k, v) for k, v in enumerate(poset.points) if poset.above(u, v)]
        sieves, pos = sieve_labels(poset, u), sieve_positions(poset, u)
        comp[u] = {
            a: sieves[pos[sum(bit for bit, v in below if restrict(b, u, v, a) in sub[v])]]
            for a in b.sets[u]
        }
    return Morphism._trusted(b, om, comp)


def sigma(g):
    """The inclusion classified by a map into the classifier."""
    b = g.dom
    poset = b.poset
    tops = [poset.down_mask_at(i) for i in range(len(poset.points))]
    mask = 0
    index = b.elements()
    for k, ((u, a), i) in enumerate(zip(index.keys, index.point)):
        if g.comp[u][a].mask == tops[i]:
            mask |= 1 << k
    return Inclusion._from_mask(b, mask)


def true_map(poset):
    """The point of the classifier that marks everything below as present."""
    from fourtops.poset import DownSet

    comp = {u: {"*": DownSet(poset, poset.down_mask(u))} for u in poset.points}
    return Morphism(terminal_presheaf(poset), omega_presheaf(poset), comp)


def meet_map(poset):
    """Internal conjunction: componentwise intersection of sieve pairs."""
    from fourtops.poset import DownSet

    om = omega_presheaf(poset)
    sq = product(om, om)
    comp = {
        u: {(s, t): DownSet(poset, s.mask & t.mask) for (s, t) in sq.sets[u]}
        for u in poset.points
    }
    return Morphism(sq, om, comp)


def imp_map(poset):
    """Internal implication: largest sieve R on u with R meet S inside T."""
    from fourtops.poset import DownSet

    om = omega_presheaf(poset)
    sq = product(om, om)
    comp = {}
    for u in poset.points:
        down_u = poset.down_mask(u)
        table = {}
        for (s, t) in sq.sets[u]:
            mask = 0
            rest = down_u
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if poset.down_mask_at(i) & s.mask & ~t.mask == 0:
                    mask |= 1 << i
            table[(s, t)] = DownSet(poset, mask)
        comp[u] = table
    return Morphism(sq, om, comp)


def closure_of(clop, f):
    """The closure of an inclusion, read through the operator's table of
    closed masks over its codomain's element index (the package's kernel);
    ``closure_of_composite`` spells out the same closure through the
    classifier."""
    f = as_inclusion(f, "closure acts on inclusions")
    b = f.cod
    if b.poset != clop.poset:
        raise ShapeMismatch("inclusion lives on a different poset")
    return Inclusion._from_mask(b, clop.closures(b.elements())[f.mask])


def is_dense(clop, f):
    return closure_of(clop, f).mask == f.cod.elements().full


def is_closed(clop, f):
    return closure_of(clop, f).mask == as_inclusion(f).mask


def dense_closed_factor(clop, f):
    """Split an inclusion into a dense part followed by a closed part."""
    closed = closure_of(clop, f)
    return Inclusion(f.dom, closed.dom), closed


def restriction_check(clop, triple):
    """Closure of the middle map computed from closures in the big object.

    ``triple`` is (m : C into D, d : D into E, c : C into E).
    """
    from fourtops.heyting import AxiomFailure, CheckReport

    m, d, c = triple
    failures = []
    closed_m = closure_of(clop, m)
    closed_c = closure_of(clop, c)
    pulled, _ = preimage(d, closed_c)
    if closed_m.dom != pulled.dom:
        failures.append(AxiomFailure("restricted-closure-is-pullback", (m.dom,)))
    expected = {u: closed_c.dom.sets[u] & d.dom.sets[u] for u in clop.poset.points}
    if {u: closed_m.dom.sets[u] for u in clop.poset.points} != expected:
        failures.append(AxiomFailure("restricted-closure-is-meet", (m.dom,)))
    return CheckReport("restriction identities", tuple(failures))


def canonical_grothendieck(base):
    """Covering-by-union topology on the space of down-sets of the base.

    The result is indexed by the poset of down-sets of ``base`` ordered by
    reverse inclusion (bigger opens above), and a sieve covers an open when
    the union of its members is that open.
    """
    from fourtops.poset import Poset, _bits, enumerate_downsets, sieves_on

    opens = enumerate_downsets(base)
    names = tuple("{" + ",".join(str(p) for p in base.names_of(o)) + "}" for o in opens)
    arrows = set()
    for i, o in enumerate(opens):
        for k, w in enumerate(opens):
            if i != k and w | o == o:
                arrows.add((names[i], names[k]))
    space = Poset(names, arrows)
    families = {}
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


# -- composite routes ----------------------------------------------------------


def chi_composite(f):
    """Classifying map built per element: the smallest sub-presheaf containing
    the element, met with the domain, read off as a truth-value."""
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
    return Morphism(b, omega_presheaf(poset), comp)


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
    inclusion into the terminal is closed with ``closure_of_composite`` and
    its truth-value read with ``cst``."""
    from fourtops.heyting import Nucleus
    from fourtops.poset import enumerate_downsets

    one = terminal_presheaf(clop.poset)
    table = []
    for s in enumerate_downsets(clop.poset):
        closed = closure_of_composite(clop, subterminal_inclusion(one, s))
        table.append(algebra_index(clop.poset, cst(closed.dom).mask))
    return Nucleus(clop.poset, tuple(table))


def lt_from_morphism(m):
    """The sieve-index tables of an endomap of the classifier."""
    from fourtops.poset import sieve_positions
    from fourtops.records import LTTopology

    poset = m.dom.poset
    if not m.dom == m.cod == omega_presheaf(poset):
        raise ShapeMismatch("expected an endomap of the classifier")
    tables = []
    for u in poset.points:
        pos = sieve_positions(poset, u)
        tables.append(tuple(pos[m.comp[u][s].mask] for s in sieve_labels(poset, u)))
    return LTTopology(poset, tuple(tables))


def lt_endomap(lt):
    """The endomap of the classifier that sieve-index tables name, taken as
    given: its naturality is not checked."""
    om = omega_presheaf(lt.poset)
    comp = {}
    for i, u in enumerate(lt.poset.points):
        sieves = sieve_labels(lt.poset, u)
        comp[u] = {s: sieves[lt.tables[i][k]] for k, s in enumerate(sieves)}
    return Morphism._trusted(om, om, comp)


def lt_as_morphism(lt):
    """The endomap of the classifier that sieve-index tables name, as a
    validated morphism: NaturalityError if the tables are not natural."""
    m = lt_endomap(lt)
    return Morphism(m.dom, m.cod, m.comp)


def true_inclusion(poset):
    """The inclusion equivalent to the true map; its mask is the classifier's
    ``true_mask``."""
    return can(true_map(poset))


def proj(p, a, b, which):
    """Projection out of a product built by ``product``."""
    cod = a if which == 0 else b
    comp = {u: {pair: pair[which] for pair in p.sets[u]} for u in p.poset.points}
    return Morphism(p, cod, comp)


def pairing(f, g, prod):
    """The map <f, g> into a product of the codomains."""
    if f.dom != g.dom:
        raise ShapeMismatch("pairing needs a shared domain")
    comp = {
        u: {a: (f.comp[u][a], g.comp[u][a]) for a in f.dom.sets[u]}
        for u in f.dom.poset.points
    }
    return Morphism(f.dom, prod, comp)


@lru_cache(maxsize=4)
def meet_square(poset):
    """The true map, the internal conjunction and the two projections out of
    its domain, as validated morphisms, built once per poset."""
    conj = meet_map(poset)
    sq, om = conj.dom, conj.cod
    return true_map(poset), conj, proj(sq, om, om, 0), proj(sq, om, om, 1)


def lt_laws_literal(lt):
    """The endomap laws the tables fail, decided as equations of presheaf
    morphisms: idempotent (j∘j = j), preserves-true (true;j = true) and
    preserves-meets (∧;j = ⟨p0;j, p1;j⟩;∧).  ``is_lt_topology`` decides the
    same laws on the tables; NaturalityError if they are not natural."""
    true, conj, p0, p1 = meet_square(lt.poset)
    jm = lt_as_morphism(lt)
    failing = set()
    if jm.then(jm) != jm:
        failing.add("idempotent")
    if true.then(jm) != true:
        failing.add("preserves-true")
    if conj.then(jm) != pairing(p0.then(jm), p1.then(jm), conj.dom).then(conj):
        failing.add("preserves-meets")
    return failing


def natural_endomaps(poset):
    """Every natural endomap of the classifier, as sieve-index tables: each
    is the classifying map of a subobject of the classifier, so the down-set
    enumerator lists them over its element index."""
    from fourtops.classifier import chi_tables, omega
    from fourtops.poset import _downsets
    from fourtops.records import LTTopology

    index = omega(poset)
    return [LTTopology(poset, chi_tables(index, m)) for m in _downsets(index.down, index.full)]


def grotop_inclusion(j):
    """The covering families as a sub-presheaf of the classifier."""
    om = omega_presheaf(j.poset)
    families = [set(cover_masks(j, i)) for i in range(len(j.poset.points))]
    index = om.elements()
    mask = 0
    for k, ((_, s), i) in enumerate(zip(index.keys, index.point)):
        if s.mask in families[i]:
            mask |= 1 << k
    return Inclusion._from_mask(om, mask)


def grotop_to_lt_composite(j):
    """Endomap of a covering family through presheaf objects: the classifying
    map of the families' inclusion, read back as tables."""
    from fourtops.errors import InvalidTopology
    from fourtops.topology import is_grothendieck

    report = is_grothendieck(j)
    if not report.ok:
        raise InvalidTopology(report.summary())
    return lt_from_morphism(chi(grotop_inclusion(j)))


def closure_of_composite(clop, f):
    """Closure of an inclusion through presheaf objects: the inclusion
    classified by the endomap after the classifying map.  The endomap is
    taken as its tables give it, so tables that are not natural reach the
    same sub-presheaf check as in the package, not a NaturalityError."""
    if not is_inclusion(f):
        raise NotInclusion("closure acts on inclusions")
    return sigma(chi(f).then(lt_endomap(clop.lt)))


def j_from_closure_composite(clop):
    """Endomap of a closure operator through presheaf objects: the classifying
    map of the true inclusion closed with ``closure_of_composite``, read
    back as tables."""
    closed_top = closure_of_composite(clop, true_inclusion(clop.poset))
    return lt_from_morphism(chi(closed_top))


class ObjectUniverse(NamedTuple):
    """The closure-law universe as inclusions, inclusion pairs and
    (morphism, inclusion) map pairs, with its codomains 1, Ω and Ω² and the
    names its witnesses give them."""

    poset: object
    codomains: tuple
    inclusions: tuple
    pairs: tuple
    map_pairs: tuple
    names: tuple


def direct_subobjects(b, limit=None):
    """Inclusions into a label-built 1, Ω or Ω², one per down-set of its
    elements, in the order in which the package lists the subobjects of the
    same object: (size, membership) over ``direct_positions``, not over b's
    own element order; ``limit`` keeps only the first entries."""
    from fourtops.poset import _downsets

    positions, index = direct_positions(b), b.elements()
    back, down = [0] * len(positions), [0] * len(positions)
    for k, p in enumerate(positions):
        back[p] = k
        down[p] = permute_mask(positions, index.down[k])
    masks = _downsets(tuple(down), index.full, limit)
    return [Inclusion._from_mask(b, permute_mask(back, m)) for m in masks]


def build_universe_literal(poset, pair_cap=5000):
    """The closure-law universe as validated objects: subterminal inclusions,
    the subobjects of Ω and of Ω², pairs of inclusions, and map pairs of a
    bang or a ``chi`` morphism with an inclusion, in ``build_universe``'s
    order (``direct_subobjects``), and the names of the package's objects."""
    from fourtops.axioms import OMEGA_SQUARE_CAP, build_universe
    from fourtops.poset import enumerate_downsets

    om = omega_presheaf(poset)
    one = terminal_presheaf(poset)
    square = product(om, om)
    subterminals = [subterminal_inclusion(one, s) for s in enumerate_downsets(poset)]
    objects = [subterminals, direct_subobjects(om), direct_subobjects(square, limit=OMEGA_SQUARE_CAP)]
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
    names = tuple(o.name for o in build_universe(poset, pair_cap=0).objects)
    return ObjectUniverse(poset, (one, om, square), inclusions, pairs, tuple(map_pairs), names)


def direct_report(universe, report):
    """A report of ``check_closure_axioms_literal`` with its witnesses in
    the package's form: an inclusion into a codomain of the universe as
    ``(object name, mask)``, the mask moved to the package's element order,
    and a codomain as its name."""
    from fourtops.heyting import AxiomFailure, CheckReport

    names = {id(b): name for b, name in zip(universe.codomains, universe.names)}

    def entry(w):
        if isinstance(w, Inclusion):
            return names[id(w.cod)], permute_mask(direct_positions(w.cod), w.mask)
        return names[id(w)]

    failures = (AxiomFailure(f.axiom, tuple(map(entry, f.witness))) for f in report.failures)
    return CheckReport(report.subject, tuple(failures))


def check_closure_axioms_literal(clop, universe):
    """The five closure laws over an object universe through a memo of
    (codomain, mask) closures, one row loop per miss against the covering
    read off the endomap tables, with the poset and shared-codomain checks
    made on every closure miss and every pair.  A witness is the failing
    inclusion or pair of inclusions, and for C5 the map's domain and the
    inclusion pulled back."""
    from fourtops.heyting import AxiomFailure, CheckReport
    from fourtops.poset import sieves_on

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
            failures.append(AxiomFailure("C1-inflationary", (f,)))
            break
    for f in universe.inclusions:
        cf = close(f.cod, f.mask)
        if close(f.cod, cf) != cf:
            failures.append(AxiomFailure("C2-idempotent", (f,)))
            break
    for f, g in universe.pairs:
        _same_codomain(f, g, "a closure pair")
        if f.mask & ~g.mask == 0:
            if close(f.cod, f.mask) & ~close(g.cod, g.mask):
                failures.append(AxiomFailure("C3-monotone", (f, g)))
                break
    for f, g in universe.pairs:
        b = f.cod
        if close(b, f.mask & g.mask) != close(b, f.mask) & close(b, g.mask):
            failures.append(AxiomFailure("C4-meets", (f, g)))
            break
    for m, d in universe.map_pairs:
        _same_codomain(m, d, "preimage")
        lhs = close(m.dom, m.pull_mask(d.mask))
        if lhs != m.pull_mask(close(d.cod, d.mask)):
            failures.append(AxiomFailure("C5-pullback-stable", (m.dom, d)))
            break
    return CheckReport("closure axioms", tuple(failures))


# -- label-set constructions ---------------------------------------------------


def subterminal_inclusion(one, mask):
    """The subterminal whose truth-value is the down-set ``mask``, included
    into the terminal ``one``.

    The terminal has one element per point, in point order, so the down-set's
    point mask is already the element mask.
    """
    return Inclusion._from_mask(one, mask)


def identity(b):
    """The identity of b, as an inclusion."""
    return Inclusion(b, b)


def bang(b, one=None):
    """The unique map to the terminal."""
    one = terminal_presheaf(b.poset) if one is None else one
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
    return make_grotop(poset, {u: [poset.down_mask(u)] for u in poset.points})


def largest_grotop(poset):
    """Every sieve covers."""
    from fourtops.poset import sieves_on

    return make_grotop(poset, {u: sieves_on(poset, u) for u in poset.points})


def make_grotop(poset, families):
    """The covering families from a mapping point -> iterable of sieves
    (``DownSet``s or masks), as bits over each point's sieve index; KeyError
    for a mask that is not a sieve on its point."""
    from fourtops.poset import DownSet, sieve_positions
    from fourtops.records import GrothendieckTopology

    covers = []
    for u in poset.points:
        pos, bits = sieve_positions(poset, u), 0
        for s in families.get(u, ()):
            bits |= 1 << pos[s.mask if isinstance(s, DownSet) else s]
        covers.append(bits)
    return GrothendieckTopology(poset, tuple(covers))


def sub_from_sets(b, sets):
    """Sub-presheaf of b on the given label subsets, restriction inherited."""
    sub_restr = {
        (u, v): {a: table[a] for a in sets.get(u, ())}
        for (u, v), table in b.restr.items()
    }
    return Presheaf(b.poset, sets, sub_restr)


def presheaf_from_element_poset(element_poset, base):
    """Rebuild a presheaf from (a down-set of) its poset of elements."""
    sets = {u: set() for u in base.points}
    for (u, a) in element_poset.points:
        sets[u].add(a)
    restr = {arrow: {} for arrow in base.arrows}
    for ((u, a), (v, b)) in element_poset.arrows:
        if (u, v) in restr:
            restr[(u, v)][a] = b
    return Presheaf(base, sets, restr)


def empty_presheaf(poset):
    return Presheaf(poset, {}, {})


def equalizer(f, g):
    """The sub-presheaf where two parallel morphisms agree."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("equalizer needs parallel morphisms")
    sets = {
        u: [a for a in f.dom.sets[u] if f.comp[u][a] == g.comp[u][a]]
        for u in f.dom.poset.points
    }
    return Inclusion._from_mask(f.dom, mask_of(f.dom.elements(), sets))


def element_downset(b, u, a):
    """The smallest sub-presheaf of b containing a in the component at u."""
    if a not in b.sets[u]:
        raise UnknownElement(f"{a!r} not in the component at {u!r}")
    index = b.elements()
    return Inclusion._from_mask(b, index.down[index.bit[(u, a)]])


def cst(c):
    """Truth-value of a subterminal: the down-set of points where it is inhabited."""
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
    return bang(b, terminal_presheaf(b.poset)).then(true_map(b.poset))


# -- the down-set operations no command runs, on masks ------------------------


def algebra_index(poset, mask):
    """The index of the down-set ``mask`` among the elements of the poset's
    down-set algebra, found by a search of the enumerator's list."""
    from fourtops.errors import NotElement
    from fourtops.poset import enumerate_downsets

    elements = enumerate_downsets(poset)
    if mask not in elements:
        raise NotElement(f"mask {mask:#x} is not an element of this algebra")
    return elements.index(mask)


def algebra_bottom(poset):
    from fourtops.poset import enumerate_downsets

    return enumerate_downsets(poset)[0]


def algebra_top(poset):
    from fourtops.poset import enumerate_downsets

    return enumerate_downsets(poset)[-1]


def algebra_meet(poset, r, s):
    algebra_index(poset, r), algebra_index(poset, s)
    return r & s


def algebra_join(poset, r, s):
    algebra_index(poset, r), algebra_index(poset, s)
    return r | s


def algebra_imp(poset, r, s):
    """The largest down-set t with t meet r inside s: the union of every
    such t among the algebra's elements."""
    from fourtops.poset import enumerate_downsets

    algebra_index(poset, r), algebra_index(poset, s)
    out = 0
    for t in enumerate_downsets(poset):
        if t & r & ~s == 0:
            out |= t
    return out


def nucleus_apply(nucleus, mask):
    """The down-set the nucleus sends the down-set ``mask`` to."""
    from fourtops.poset import enumerate_downsets

    return enumerate_downsets(nucleus.poset)[nucleus.table[algebra_index(nucleus.poset, mask)]]


def lt_apply(lt, u, mask):
    """The sieve on u that the LT topology's component at u sends the sieve
    ``mask`` to."""
    from fourtops.poset import sieves_on

    sieves = sieves_on(lt.poset, u)
    return sieves[lt.tables[lt.poset.index(u)][sieves.index(mask)]]


def cover_masks(grotop, i):
    """The covering sieves on point i, as masks in sieve-index order."""
    from fourtops.poset import sieves_on

    sieves = sieves_on(grotop.poset, grotop.poset.points[i])
    return tuple(m for k, m in enumerate(sieves) if grotop.covers[i] >> k & 1)


def covers_at(grotop, u):
    """The covering sieves on u, as masks in sieve-index order."""
    return cover_masks(grotop, grotop.poset.index(u))


def cover_lists(grotop):
    """Each point's covering masks in sieve-index order: the order of the
    oracle covers census."""
    return tuple(cover_masks(grotop, i) for i in range(len(grotop.poset.points)))


def pile(graph, a, b):
    """The down-set {a_, ..., 1_, _1, ..., _b} of a two-column graph, as a
    mask; NotDownClosed if a cross arrow leaves it."""
    from fourtops.poset import DownSet

    return DownSet(graph.poset(), graph.pile_mask(a, b)).mask


def downset_contains(poset, mask, u):
    return bool(mask >> poset.index(u) & 1)


def downset_le(r, s):
    return r & ~s == 0


def downset_len(mask):
    return mask.bit_count()


# -- literal oracle searches ---------------------------------------------------


def operator_tables_literal(n, up_masks, meet, inflationary, top_fixed, allowed=None):
    """The table search testing each candidate value against every axiom in
    turn, one value at a time, with no precomputed masks; ``allowed[i]``,
    when given, is the bitmask of values ``t[i]`` may take."""
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
        if allowed is not None and not allowed[i] >> v & 1:
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
    results.sort(key=cover_lists)
    return results


def point_masks_literal(poset):
    """Every point mask, by size, then in ``combinations`` order over the
    points: the reference order of the formula censuses and the route pass."""
    points = poset.points
    return [poset.mask_of(c) for k in range(len(points) + 1) for c in combinations(points, k)]


def route_reports_literal(poset):
    """The route reports the way four separate checkers made them, one loop
    over the point sets each, in the order of ``check_routes``: round trips,
    truncation route, closure route, topmost region covers.  Every conversion
    is looked up on the ``convert`` module at call time, so one patched
    conversion reaches this side and ``check_routes`` alike."""
    from fourtops import convert, routes
    from fourtops.poset import sieves_on
    from fourtops.routes import InstanceVerdict, RouteReport

    subsets = point_masks_literal(poset)

    def label(y):
        return routes._y_label(poset, y)

    roundtrips = []
    for kept in subsets:
        n = convert.nucleus_from_point_set(poset, kept)
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
        n = convert.nucleus_from_point_set(poset, y)
        direct = convert.nucleus_to_lt(n)
        via_covers = convert.grotop_to_lt(convert.nucleus_to_grotop(n))
        agrees = direct == via_covers
        detail = "" if agrees else f"direct={direct.tables} via={via_covers.tables}"
        truncation.append(InstanceVerdict(label(y), agrees, detail))

    closure = []
    for y in subsets:
        clop = convert.ClosureOperator(
            convert.nucleus_to_lt(convert.nucleus_from_point_set(poset, y))
        )
        direct = convert.closure_to_nucleus(clop)
        via = convert.grotop_to_nucleus(convert.lt_to_grotop(convert.j_from_closure(clop)))
        agrees = direct == via
        detail = "" if agrees else f"direct={direct.table} via={via.table}"
        closure.append(InstanceVerdict(label(y), agrees, detail))

    topmost = []
    for y in subsets:
        tables = convert.nucleus_to_lt(convert.nucleus_from_point_set(poset, y)).tables
        grotop = convert.point_set_to_grotop(poset, y)
        agrees = True
        detail = ""
        for i, u in enumerate(poset.points):
            sieves = sieves_on(poset, u)
            table = tables[i]
            top = len(sieves) - 1
            top_class = frozenset(
                sieves[k] for k in range(len(sieves)) if table[k] == table[top]
            )
            if top_class != frozenset(cover_masks(grotop, i)):
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
    nucleus read through ``nucleus_apply``."""
    from fourtops.poset import enumerate_downsets, sieves_on

    def names(mask):
        return sorted(str(u) for u in poset.names_of(mask))

    if kind == "y":
        return {"kind": "y", "members": sorted(str(u) for u in poset.names_of(value))}
    if kind == "nucleus":
        table = [
            [names(s), names(nucleus_apply(value, s))] for s in enumerate_downsets(poset)
        ]
        return {"kind": "nucleus", "table": sorted(table)}
    if kind == "grotop":
        covers = []
        for i, u in enumerate(poset.points):
            covers.append([str(u), sorted(names(m) for m in cover_masks(value, i))])
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


def census_json_literal(poset_doc, poset, kind, items):
    """The census document of ``items``: each structure's JSON form built
    anew, the forms sorted by ``json.dumps(item, sort_keys=True)``, and the
    document written by ``json``'s indenting encoder."""
    docs = [structure_json_literal(poset, kind, value) for value in items]
    docs.sort(key=lambda d: json.dumps(d, sort_keys=True))
    return emit_json_literal({"poset": poset_doc, "result": {"count": len(items), "items": docs}})
