"""Posets, down-sets, interiors, and two-column graphs."""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from fourtops.errors import CycleError, NotDownClosed, UnknownPoint
from fourtops.poset import (
    DownSet,
    GrothendieckTopology,
    LTTopology,
    Nucleus,
    Poset,
    Record,
    TwoColumnGraph,
    canonical_form,
    downset_positions,
    enumerate_downsets,
    interior_mask,
    lattice_tables,
    sieves_on,
)

from .conftest import pile_code_str
from .oracles import (
    brute_down_closure,
    brute_downsets,
    brute_interior,
    brute_relabellings,
    downset_contains,
    downset_le,
    downset_len,
    pile,
    sieve_lattice_literal,
)


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    points = [f"p{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1 :]]
    arrows = {p for p in pairs if draw(st.booleans())}
    # arrows only go from earlier to later names, so acyclicity is free
    return Poset(points, arrows)


class TestPosetConstruction:
    def test_star_shape(self, star_poset):
        assert star_poset.points == ("2_", "1_", "_2", "_1")
        assert star_poset.above("2_", "_1")
        assert star_poset.above("2_", "1_")
        assert star_poset.above("_2", "_1")
        assert not star_poset.above("1_", "_1")
        assert not star_poset.above("_1", "2_")

    def test_one_point_reflexive(self, one_point):
        assert one_point.above("u", "u")

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            Poset(["a", "b"], {("a", "b"), ("b", "a")})

    def test_self_arrow_rejected(self):
        # u > u is a cycle of length one; the closure would not see it
        with pytest.raises(CycleError, match="^self-arrow on 'a'$"):
            Poset(["a", "b"], {("a", "a"), ("a", "b")})

    def test_unknown_arrow_endpoint(self):
        with pytest.raises(UnknownPoint, match=r"^arrow \('a', 'z'\): unknown point 'z'$"):
            Poset(["a"], {("a", "z")})
        # the first unknown endpoint of the first bad arrow, in input order
        with pytest.raises(UnknownPoint, match=r"^arrow \('y', 'z'\): unknown point 'y'$"):
            Poset(["a"], [("y", "z"), ("a", "x")])

    def test_duplicate_points_rejected(self):
        with pytest.raises(UnknownPoint):
            Poset(["a", "a"])

    @given(small_posets())
    def test_closure_matches_bruteforce(self, poset):
        expected = brute_above(poset)
        for u in poset.points:
            for v in poset.points:
                assert poset.above(u, v) == ((u, v) in expected)


def brute_above(poset):
    from .oracles import brute_above as oracle

    return oracle(poset.points, poset.arrows)


class TestDownSets:
    def test_downset_rejects_open_set(self, star_poset):
        with pytest.raises(NotDownClosed):
            DownSet(star_poset, star_poset.mask_of(["2_"]))

    def test_down_closure_of_top_point(self, star, star_poset):
        # the pile 21 from the drawn lattice
        assert star_poset.names_of(star_poset.down_mask("2_")) == ("2_", "1_", "_1")

    def test_down_closure_empty(self, star_poset):
        assert star_poset.mask_of([]) == 0
        assert star_poset.is_down_closed(0)
        assert DownSet(star_poset, 0).members == ()

    def test_down_closure_two_generators(self, star_poset):
        # frozen from the fixpoint oracle
        assert brute_down_closure(
            star_poset.points, star_poset.arrows, ["1_", "_2"]
        ) == frozenset({"1_", "_2", "_1"})
        closed = star_poset.down_mask("1_") | star_poset.down_mask("_2")
        assert set(star_poset.names_of(closed)) == {"1_", "_2", "_1"}

    def test_down_of_point_values(self, star_poset):
        def down(u):
            return set(star_poset.names_of(star_poset.down_mask(u)))

        def strict(u):
            i = star_poset.index(u)
            return star_poset.names_of(star_poset.down_mask_at(i) & ~(1 << i))

        assert down("2_") == {"2_", "1_", "_1"}
        assert strict("2_") == ("1_", "_1")
        assert down("_1") == {"_1"}
        assert strict("_1") == ()
        assert down("_2") == {"_2", "_1"}

    def test_unknown_point(self, star_poset):
        with pytest.raises(UnknownPoint):
            star_poset.down_mask("nope")

    def test_membership_order_and_size_on_masks(self, star, star_poset):
        # the test oracle's functions on down-set masks, against the names
        masks = enumerate_downsets(star_poset)
        for r in masks:
            names = set(star_poset.names_of(r))
            assert downset_len(r) == len(names)
            assert {u for u in star_poset.points if downset_contains(star_poset, r, u)} == names
            for s in masks:
                assert downset_le(r, s) == (names <= set(star_poset.names_of(s)))
        assert downset_le(pile(star, 1, 0), pile(star, 2, 1))
        assert not downset_le(pile(star, 0, 2), pile(star, 2, 1))

    @given(small_posets())
    def test_down_closure_matches_oracle(self, poset):
        for i, u in enumerate(poset.points):
            expected = brute_down_closure(poset.points, poset.arrows, [u])
            assert frozenset(poset.names_of(poset.down_mask(u))) == expected
            assert poset.down_mask_at(i) == poset.down_mask(u)

    @given(small_posets(), st.data())
    def test_down_closure_monotone_idempotent_extensive(self, poset, data):
        seed = data.draw(st.sets(st.sampled_from(poset.points))) if poset.points else set()
        closed = 0
        for u in seed:
            closed |= poset.down_mask(u)
        assert poset.is_down_closed(closed)
        assert poset.mask_of(seed) & ~closed == 0
        for u in poset.names_of(closed):
            assert poset.down_mask(u) & ~closed == 0


class TestInterior:
    def test_whole_set(self, star_poset):
        assert interior_mask(star_poset, star_poset.full_mask) == star_poset.full_mask

    def test_single_top_point(self, star_poset):
        assert interior_mask(star_poset, star_poset.mask_of(["2_"])) == 0

    def test_already_down_closed(self, star_poset):
        closed = star_poset.mask_of(["1_", "_1"])
        assert interior_mask(star_poset, closed) == closed

    @given(small_posets(), st.data())
    def test_interior_matches_oracle(self, poset, data):
        subset = data.draw(st.sets(st.sampled_from(poset.points))) if poset.points else set()
        expected = brute_interior(poset.points, poset.arrows, subset)
        inside = interior_mask(poset, poset.mask_of(subset))
        assert frozenset(poset.names_of(inside)) == expected

    @given(small_posets(), st.data())
    def test_interior_laws(self, poset, data):
        subset = poset.mask_of(
            data.draw(st.sets(st.sampled_from(poset.points))) if poset.points else set()
        )
        inside = interior_mask(poset, subset)
        assert inside & ~subset == 0
        assert poset.is_down_closed(inside)
        assert interior_mask(poset, inside) == inside


class TestEnumeration:
    def test_star_has_the_eight_piles(self, star, star_poset):
        downs = enumerate_downsets(star_poset)
        codes = {pile_code_str(star, DownSet(star_poset, d)) for d in downs}
        assert codes == {"00", "01", "10", "11", "02", "12", "21", "22"}

    def test_empty_poset(self):
        poset = Poset([])
        downs = enumerate_downsets(poset)
        assert len(downs) == 1 and DownSet(poset, downs[0]).members == ()

    def test_two_point_antichain_powerset(self):
        downs = enumerate_downsets(Poset(["a", "b"]))
        assert len(downs) == 4

    @given(small_posets())
    def test_count_matches_bruteforce(self, poset):
        expected = brute_downsets(poset.points, poset.arrows)
        got = enumerate_downsets(poset)
        assert len(got) == len(expected)
        assert {frozenset(DownSet(poset, d).members) for d in got} == set(expected)

    def test_twelve_point_count_matches_bruteforce(self):
        g = TwoColumnGraph(6, 6, frozenset({("3_", "_2"), ("_5", "2_")}))
        poset = g.poset()
        assert len(enumerate_downsets(poset)) == len(
            brute_downsets(poset.points, poset.arrows)
        )

    @given(small_posets())
    def test_order_is_size_then_membership_and_unique(self, poset):
        got = enumerate_downsets(poset)
        keys = [
            (len(d.members), tuple(poset.index(u) for u in d.members))
            for d in (DownSet(poset, m) for m in got)
        ]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        # H's index: each down-set's position in that order
        assert list(downset_positions(poset).items()) == [(m, k) for k, m in enumerate(got)]

    @given(small_posets())
    def test_sieves_are_the_principal_ideal(self, poset):
        """Each point's sieves are read off the full enumeration: Omega(u) is
        the principal ideal below down u, in the same order, and its tables
        match the pairwise loops.  (The lazy prefixes are checked with the
        presheaf subobjects, in test_presheaf.)"""
        full = enumerate_downsets(poset)
        for u in poset.points:
            below = poset.down_mask(u)
            sieves = sieves_on(poset, u)
            assert sieves == tuple(d for d in full if d & ~below == 0)
            tables = lattice_tables(sieves)
            assert tables == sieve_lattice_literal(sieves)

    def test_sieves_are_downsets_below_the_point(self, star_poset):
        for u in star_poset.points:
            for s in sieves_on(star_poset, u):
                assert s & ~star_poset.down_mask(u) == 0


class TestTwoColumnGraph:
    def test_pile_21(self, star, star_poset):
        assert star_poset.names_of(pile(star, 2, 1)) == ("2_", "1_", "_1")

    def test_pile_00(self, star):
        assert pile(star, 0, 0) == 0

    def test_pile_20_violates_cross_arrow(self, star):
        with pytest.raises(NotDownClosed):
            pile(star, 2, 0)

    def test_pile_code_inverts_pile(self, star):
        for a in range(3):
            for b in range(3):
                try:
                    p = pile(star, a, b)
                except NotDownClosed:
                    continue
                assert star.code_of_mask(p) == (a, b)

    def test_every_downset_is_a_pile(self, star, star_poset):
        for d in enumerate_downsets(star_poset):
            a, b = star.code_of_mask(d)
            assert pile(star, a, b) == d

    def test_same_column_cross_rejected(self):
        with pytest.raises(NotDownClosed):
            TwoColumnGraph(2, 2, frozenset({("2_", "1_")}))

    def test_cyclic_cross_rejected(self):
        g = TwoColumnGraph(1, 1, frozenset({("1_", "_1"), ("_1", "1_")}))
        with pytest.raises(CycleError):
            g.poset()

    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    def test_no_cross_arrows_gives_grid_count(self, p, q):
        g = TwoColumnGraph(p, q)
        downs = enumerate_downsets(g.poset())
        assert len(downs) == (p + 1) * (q + 1)


def arrow_subset_posets(n):
    """The distinct labelled posets given by an acyclic arrow subset on n
    points."""
    points = list(range(n))
    pairs = [(u, v) for u in points for v in points if u != v]
    seen = {}
    for k in range(len(pairs) + 1):
        for combo in combinations(pairs, k):
            try:
                poset = Poset(points, combo)
            except CycleError:
                continue
            seen.setdefault(poset._down, poset)
    return list(seen.values())


class TestCanonicalForm:
    # unlabelled posets on 0..4 points
    @pytest.mark.parametrize("n, classes", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 16)])
    def test_forms_are_equal_exactly_for_isomorphic_posets(self, n, classes):
        posets = arrow_subset_posets(n)
        orbits = [brute_relabellings(p._down) for p in posets]
        forms = [canonical_form(p) for p in posets]
        for a, form in enumerate(forms):
            assert form in orbits[a]
            for b, other in enumerate(forms):
                assert (form == other) == (posets[b]._down in orbits[a])
        assert len(set(forms)) == classes

    def test_form_separates_posets_with_equal_down_and_up_counts(self):
        # up to five points the (|down|, |up|) counts alone tell posets apart;
        # these six-point posets share them and are not isomorphic
        a = Poset(range(6), [(2, 1), (3, 0), (3, 2), (4, 0), (5, 0)])
        b = Poset(range(6), [(2, 1), (3, 0), (3, 2), (4, 1), (5, 0)])

        def counts(p):
            return sorted(
                (d.bit_count(), sum(e >> i & 1 for e in p._down))
                for i, d in enumerate(p._down)
            )

        assert counts(a) == counts(b)
        assert b._down not in brute_relabellings(a._down)
        assert canonical_form(a) != canonical_form(b)

    def test_form_ignores_random_relabellings_up_to_seven_points(self):
        rng = random.Random(3)
        moved = 0
        for n in range(8):
            for density in (0.0, 0.2, 0.5, 1.0):
                points = [f"p{i}" for i in range(n)]
                # arrows go from earlier to later names, so acyclicity is free
                arrows = [
                    (a, b)
                    for i, a in enumerate(points)
                    for b in points[i + 1 :]
                    if rng.random() < density
                ]
                poset = Poset(points, arrows)
                form = canonical_form(poset)
                for _ in range(3):
                    shuffled = Poset(rng.sample(points, n), arrows)
                    moved += shuffled._down != poset._down
                    assert canonical_form(shuffled) == form
        assert moved > 40


def _record_classes():
    """Every subclass of ``Record`` that a module of the package defines."""
    import pkgutil
    from importlib import import_module

    import fourtops

    for info in pkgutil.iter_modules(fourtops.__path__):
        import_module(f"fourtops.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("fourtops.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def _record_samples():
    """Class name -> a builder of one record of that class, each call over
    fresh field values: a fresh poset, fresh tuples and fresh records."""
    from fourtops.routes import Quad, RouteReport
    from fourtops.topology import AxiomFailure, CheckReport

    def poset():
        return Poset(["a", "b"], [("b", "a")])

    def failure():
        return AxiomFailure("C1-inflationary", (("1", 1),))

    return {
        "Poset": poset,
        "DownSet": lambda: DownSet(poset(), 1),
        "TwoColumnGraph": lambda: TwoColumnGraph(2, 2, [("2_", "_1")]),
        "Nucleus": lambda: Nucleus(poset(), (1, 1, 2)),
        "AxiomFailure": failure,
        "CheckReport": lambda: CheckReport("closure axioms", (failure(),)),
        "LTTopology": lambda: LTTopology(poset(), ((0, 1), (0, 1, 2))),
        "GrothendieckTopology": lambda: GrothendieckTopology(poset(), (2, 4)),
        "Quad": lambda: Quad(
            1,
            Nucleus(poset(), (1, 1, 2)),
            GrothendieckTopology(poset(), (2, 4)),
            LTTopology(poset(), ((0, 1), (0, 1, 2))),
        ),
        "RouteReport": lambda: RouteReport("round trips", 2, (("y={a}", "disagree"),)),
    }


class TestRecords:
    """One equality for the package's values: same class and equal fields,
    the fields being the slots that do not start with ``_``."""

    def test_every_record_class_has_a_sample(self):
        assert {cls.__name__ for cls in _record_classes()} == set(_record_samples())

    @pytest.mark.parametrize("name", sorted(_record_samples()))
    def test_equal_fields_give_equal_values_and_hashes(self, name):
        make = _record_samples()[name]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        # a record is not its tuple of fields
        assert a != a._values(a)

    def test_records_of_other_classes_with_the_same_fields_differ(self):
        P, t = Poset(["a", "b"], [("b", "a")]), (1, 2)
        assert Nucleus(P, t) != GrothendieckTopology(P, t)
        assert GrothendieckTopology(P, t) != Nucleus(P, t)

    def test_private_slots_take_no_part(self):
        built = TwoColumnGraph(2, 2, [("2_", "_1")])
        built.poset()
        fresh = TwoColumnGraph(2, 2, [("2_", "_1")])
        assert built._poset is not None and fresh._poset is None
        assert built == fresh and hash(built) == hash(fresh)
        assert TwoColumnGraph(2, 2) != fresh

    def test_a_poset_hashes_to_its_cached_hash(self):
        P = Poset(["a", "b", "c"], [("c", "a"), ("c", "b")])
        assert hash(P) == P._hash == hash(Poset(["a", "b", "c"], [("c", "b"), ("c", "a")]))
        assert P != Poset(["a", "b", "c"], [("c", "a")]) and (P == "abc") is False
