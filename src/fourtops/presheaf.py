"""Finite presheaves on a poset: morphisms, inclusions, and the limit toolkit.

A presheaf assigns a finite label set to each point and a restriction map to
each generating arrow; composite restrictions must be path-independent, which
is verified at construction.  An inclusion is a morphism whose components are
literal identities, so the domain's label sets are genuine subsets of the
codomain's and the whole subobject calculus (preimage, intersection, image)
stays on the nose.

Every inclusion into B also carries a bitmask over B's elements (u, a), in
element order: points in order, labels in ``sorted_at`` order.  A
sub-presheaf is exactly a down-closed mask, so derived subobjects are built
from masks with that one check and are otherwise trusted: their restrictions
and composite paths are sliced from B rather than recomposed and revalidated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Mapping

from .errors import (
    FunctorialityError,
    NaturalityError,
    NotInclusion,
    NotMonic,
    ShapeMismatch,
    UnknownElement,
)
from .poset import DownSet, Poset, _bits, _downsets

Label = Hashable


def _label_key(label):
    return repr(label)


class ElementIndex:
    """The elements (u, a) of a presheaf in element order.

    ``bit`` maps an element to its position; ``point[k]`` is the point index
    of element k; ``rows[k]`` holds one (point bit, element bit) pair per point
    v below u, the element bit marking the image of element k at v; ``down[k]``
    is the mask of the smallest sub-presheaf containing element k.

    The elements grouped by truth value against a mask (see
    :meth:`truth_groups`) depend on no topology, so they are kept here for
    every closure operator that reads them; ``passed`` holds the masks a
    closure has already found down-closed.
    """

    __slots__ = ("keys", "bit", "point", "rows", "down", "full", "width", "_groups", "passed")

    def __init__(self, b: "Presheaf"):
        poset = b.poset
        self.keys = tuple((u, a) for u in poset.points for a in b.sorted_at(u))
        self.bit = {key: k for k, key in enumerate(self.keys)}
        self.full = (1 << len(self.keys)) - 1
        self.width = len(poset.points)
        self._groups: dict = {}
        self.passed: set = set()
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

    def mask_of(self, sets: Mapping) -> int:
        """Mask of the elements named by a point -> labels mapping."""
        mask = 0
        for u, labels in sets.items():
            for a in labels:
                try:
                    mask |= 1 << self.bit[(u, a)]
                except KeyError:
                    raise UnknownElement(f"{a!r} not in the component at {u!r}") from None
        return mask

    def require_down_closed(self, mask: int) -> int:
        """Return mask if it names a sub-presheaf, else raise FunctorialityError."""
        down, rest = self.down, mask
        while rest:
            k = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            missing = down[k] & ~mask
            if missing:
                u, a = self.keys[k]
                v, b = self.keys[missing.bit_length() - 1]
                raise FunctorialityError(
                    f"{a!r} at {u!r} restricts to {b!r} at {v!r}, outside the sub-presheaf"
                )
        return mask

    def truth_groups(self, mask: int) -> dict:
        """The elements grouped by the truth value a classifying map of
        ``mask`` sends them to; built on first use and kept.

        A group is keyed ``sieve mask * width + point index`` and holds the
        mask of the elements at that point sent to that sieve.
        """
        groups = self._groups.get(mask)
        if groups is None:
            groups = self._groups[mask] = _truth_groups(self, mask)
        return groups


def _truth_values(index: ElementIndex, mask: int) -> list[int]:
    """Per element of ``index``, in order, the point mask of the points below
    it where its image lies in ``mask``: the sieve a classifying map sends it
    to."""
    out = []
    for row in index.rows:
        s = 0
        for pb, eb in row:
            if mask & eb:
                s |= pb
        out.append(s)
    return out


def _truth_groups(index: ElementIndex, mask: int) -> dict:
    """The groups :meth:`ElementIndex.truth_groups` keeps, built anew."""
    groups: dict = {}
    width = index.width
    bit = 1
    for i, s in zip(index.point, _truth_values(index, mask)):
        key = s * width + i
        groups[key] = groups.get(key, 0) | bit
        bit <<= 1
    return groups


class Presheaf:
    """Finite-set-valued functor on a poset, restriction along 'below'."""

    __slots__ = ("poset", "sets", "restr", "_paths", "_elements", "_hash")

    def __init__(
        self,
        poset: Poset,
        sets: Mapping,
        restr: Mapping,
    ):
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

    def _sub(self, mask: int) -> "Presheaf":
        """The sub-presheaf on a down-closed element mask, trusted: the sets are
        read off the mask and restrictions and paths are sliced, not rebuilt."""
        sets: dict = {u: [] for u in self.poset.points}
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

    def _validate(self) -> None:
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

    def _compose_paths(self) -> dict:
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

    def restrict(self, u, v, a):
        """Image of a in B(u) under the composite restriction to v."""
        try:
            return self._paths[(u, v)][a]
        except KeyError:
            if (u, v) not in self._paths:
                raise ShapeMismatch(f"{u!r} is not above {v!r}") from None
            raise UnknownElement(f"{a!r} not in the component at {u!r}") from None

    def elements(self) -> ElementIndex:
        """The element index, built on first use and kept."""
        if self._elements is None:
            self._elements = ElementIndex(self)
        return self._elements

    def sorted_at(self, u) -> tuple:
        return tuple(sorted(self.sets[u], key=_label_key))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Presheaf)
            and self.poset == other.poset
            and self.sets == other.sets
            and self.restr == other.restr
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self.poset,
                    tuple(tuple(self.sorted_at(u)) for u in self.poset.points),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{u}:{{{','.join(map(str, self.sorted_at(u)))}}}" for u in self.poset.points
        )
        return f"Presheaf({parts})"


@lru_cache(maxsize=4)
def terminal(poset: Poset) -> Presheaf:
    """The one-star presheaf, built once per poset and kept, like ``omega``,
    while the poset is among the last few in use."""
    sets = {u: ("*",) for u in poset.points}
    restr = {arrow: {"*": "*"} for arrow in poset.arrows}
    return Presheaf(poset, sets, restr)


def _pull_mask(images: tuple[int, ...], mask: int) -> int:
    """Preimage of a codomain element mask under a map given by the image
    bit of each domain element, as a domain element mask."""
    out = 0
    for k, img in enumerate(images):
        if mask & img:
            out |= 1 << k
    return out


class Morphism:
    """Natural transformation between presheaves on the same poset."""

    __slots__ = ("dom", "cod", "comp", "_images")

    def __init__(self, dom: Presheaf, cod: Presheaf, comp: Mapping):
        if dom.poset != cod.poset:
            raise ShapeMismatch("domain and codomain live on different posets")
        self.dom = dom
        self.cod = cod
        self.comp = {u: dict(comp.get(u, {})) for u in dom.poset.points}
        self._images = None
        self._validate()

    def _validate(self) -> None:
        for u in self.dom.poset.points:
            table = self.comp[u]
            if set(table) != set(self.dom.sets[u]):
                raise NaturalityError(f"component at {u!r} is not total")
            for a, b in table.items():
                if b not in self.cod.sets[u]:
                    raise NaturalityError(
                        f"component at {u!r} sends {a!r} outside the codomain"
                    )
        for (u, v) in self.dom.poset.arrows:
            down = self.dom.restr[(u, v)]
            up = self.cod.restr[(u, v)]
            for a in self.dom.sets[u]:
                if self.comp[v][down[a]] != up[self.comp[u][a]]:
                    raise NaturalityError(
                        f"square at arrow {(u, v)!r} does not commute on {a!r}"
                    )

    @classmethod
    def _trusted(cls, dom: Presheaf, cod: Presheaf, comp: dict) -> "Morphism":
        """A morphism whose naturality holds by construction: no re-check."""
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Morphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.comp == other.comp
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod))

    def image_bits(self) -> tuple[int, ...]:
        """Per element of the domain, in element order, the bit of its image
        among the codomain's elements; built on first use and kept."""
        if self._images is None:
            cod_bit = self.cod.elements().bit
            self._images = tuple(
                1 << cod_bit[(u, self.comp[u][a])] for (u, a) in self.dom.elements().keys
            )
        return self._images

    def pull_mask(self, mask: int) -> int:
        """Preimage of a codomain element mask, as a domain element mask."""
        return _pull_mask(self.image_bits(), mask)

    def is_monic(self) -> bool:
        return all(
            len(set(self.comp[u].values())) == len(self.comp[u])
            for u in self.dom.poset.points
        )

    def then(self, other: "Morphism") -> "Morphism":
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

    def __init__(self, dom: Presheaf, cod: Presheaf):
        for u in dom.poset.points:
            if not dom.sets[u] <= cod.sets[u]:
                raise NotInclusion(
                    f"component at {u!r} is not a subset of the codomain"
                )
        comp = {u: {a: a for a in dom.sets[u]} for u in dom.poset.points}
        super().__init__(dom, cod, comp)
        self.mask = cod.elements().mask_of(dom.sets)

    @classmethod
    def _from_mask(cls, cod: Presheaf, mask: int) -> "Inclusion":
        """The inclusion of the sub-presheaf on a down-closed element mask;
        FunctorialityError if the mask is not down-closed."""
        cod.elements().require_down_closed(mask)
        dom = cod._sub(mask)
        comp = {u: {a: a for a in labels} for u, labels in dom.sets.items()}
        self = cls._trusted(dom, cod, comp)
        self.mask = mask
        return self


def is_inclusion(m: Morphism) -> bool:
    return all(
        all(a == b for a, b in m.comp[u].items()) for u in m.dom.poset.points
    )


def as_inclusion(m: Morphism, message: str = "expected an inclusion") -> Inclusion:
    """m itself if it is an Inclusion; else the Inclusion with m's endpoints,
    provided m has identity components."""
    if isinstance(m, Inclusion):
        return m
    if not is_inclusion(m):
        raise NotInclusion(message)
    return Inclusion(m.dom, m.cod)


def _same_codomain(f: Morphism, g: Morphism, what: str) -> None:
    if f.cod is not g.cod and f.cod != g.cod:
        raise ShapeMismatch(f"{what} needs a shared codomain")


def can(f: Morphism) -> Inclusion:
    """The inclusion equivalent to a monic: image sets with inherited restriction."""
    if not f.is_monic():
        raise NotMonic("can() needs a componentwise-injective morphism")
    mask = 0
    for img in f.image_bits():
        mask |= img
    return Inclusion._from_mask(f.cod, mask)


def preimage(f: Morphism, g: Inclusion) -> tuple[Inclusion, Morphism]:
    """Pull an inclusion back along f; returns (left wall, top wall)."""
    _same_codomain(f, g, "preimage")
    g = as_inclusion(g)
    left = Inclusion._from_mask(f.dom, f.pull_mask(g.mask))
    sub = left.dom
    top = Morphism(
        sub,
        g.dom,
        {u: {a: f.comp[u][a] for a in sub.sets[u]} for u in f.dom.poset.points},
    )
    return left, top


def intersection(f: Inclusion, g: Inclusion) -> Inclusion:
    """Componentwise meet of two inclusions into the same presheaf."""
    _same_codomain(f, g, "intersection")
    return Inclusion._from_mask(f.cod, as_inclusion(f).mask & as_inclusion(g).mask)


def product(a: Presheaf, b: Presheaf) -> Presheaf:
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


def proj(p: Presheaf, a: Presheaf, b: Presheaf, which: int) -> Morphism:
    """Projection out of a product built by :func:`product`."""
    cod = a if which == 0 else b
    comp = {u: {pair: pair[which] for pair in p.sets[u]} for u in p.poset.points}
    return Morphism(p, cod, comp)


def pairing(f: Morphism, g: Morphism, prod: Presheaf) -> Morphism:
    """The map <f, g> into a product of the codomains."""
    if f.dom != g.dom:
        raise ShapeMismatch("pairing needs a shared domain")
    comp = {
        u: {a: (f.comp[u][a], g.comp[u][a]) for a in f.dom.sets[u]}
        for u in f.dom.poset.points
    }
    return Morphism(f.dom, prod, comp)


def subterminal_of(poset: Poset, s: DownSet) -> Presheaf:
    """The subterminal presheaf whose truth-value is the given down-set."""
    sets = {u: ("*",) if u in s else () for u in poset.points}
    restr = {
        (u, v): ({"*": "*"} if u in s else {}) for (u, v) in poset.arrows
    }
    return Presheaf(poset, sets, restr)


def subobjects(b: Presheaf, limit: int | None = None) -> list[Inclusion]:
    """Inclusions into b, one per down-set of b's elements under the element
    index's down table.

    Deterministic (size, membership) order; ``limit`` keeps only the first
    entries of that order and avoids materializing the rest.
    """
    index = b.elements()
    return [Inclusion._from_mask(b, m) for m in _downsets(index.down, index.full, limit)]
