"""Presheaves and element indexes, with the validated morphisms, inclusions
and limit toolkit of the test oracle."""


import pytest

from fourtops.axioms import omega_square
from fourtops.errors import FunctorialityError, ShapeMismatch
from fourtops.poset import DownSet, Poset, enumerate_downsets, sieves_on, star_graph
from fourtops.presheaf import omega, terminal

from .conftest import naturally_labelled_posets, pile_code_str
from .oracles import (
    Inclusion,
    Morphism,
    NaturalityError,
    NotMonic,
    NotSubterminal,
    Presheaf,
    UnknownElement,
    bang,
    can,
    cst,
    direct_positions,
    element_downset,
    element_poset,
    element_poset_downsets,
    empty_presheaf,
    equalizer,
    identity,
    intersection,
    is_inclusion,
    natural_maps,
    omega_presheaf,
    permute_mask,
    preimage,
    product,
    presheaf_from_element_poset,
    proj,
    restrict,
    sub_from_sets,
    subobjects,
    subobjects_from_sets,
    subterminal_of,
    terminal_presheaf,
)


def _positions(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@pytest.fixture(scope="module")
def big_example(star_poset_module):
    """The four-component object with two-element tops and a one-element sink."""
    return Presheaf(
        star_poset_module,
        {"2_": {"1", "2"}, "_2": {"3", "4"}, "1_": {"5", "6"}, "_1": {"7"}},
        {
            ("2_", "1_"): {"1": "5", "2": "6"},
            ("2_", "_1"): {"1": "7", "2": "7"},
            ("_2", "_1"): {"3": "7", "4": "7"},
        },
    )


@pytest.fixture(scope="module")
def star_poset_module(request):
    from fourtops.poset import star_graph

    return star_graph().poset()


@pytest.fixture(scope="module")
def worked_pair(star_poset_module):
    """The worked classifying-map example: a collapsed codomain and the
    subobject missing only the top-left component."""
    b = Presheaf(
        star_poset_module,
        {"2_": {"1", "2"}, "_2": {"3", "4"}, "1_": {"5"}, "_1": {"6"}},
        {
            ("2_", "1_"): {"1": "5", "2": "5"},
            ("2_", "_1"): {"1": "6", "2": "6"},
            ("_2", "_1"): {"3": "6", "4": "6"},
        },
    )
    a = Presheaf(
        star_poset_module,
        {"2_": set(), "_2": {"4"}, "1_": {"5"}, "_1": {"6"}},
        {("2_", "1_"): {}, ("2_", "_1"): {}, ("_2", "_1"): {"4": "6"}},
    )
    return a, b


class TestConstruction:
    def test_big_example_valid(self, big_example):
        assert restrict(big_example, "2_", "_1", "1") == "7"
        assert restrict(big_example, "2_", "1_", "2") == "6"

    def test_terminal_everywhere_singleton(self, star_poset_module):
        one = terminal_presheaf(star_poset_module)
        assert all(one.sets[u] == {"*"} for u in star_poset_module.points)

    def test_partial_restriction_rejected(self, star_poset_module):
        with pytest.raises(FunctorialityError):
            Presheaf(
                star_poset_module,
                {"2_": {"1"}, "1_": {"5"}, "_1": {"7"}, "_2": set()},
                {("2_", "1_"): {}, ("2_", "_1"): {"1": "7"}, ("_2", "_1"): {}},
            )

    def test_path_dependence_rejected(self):
        # two parallel composite paths that disagree
        diamond = Poset(
            ["t", "l", "r", "b"],
            {("t", "l"), ("t", "r"), ("l", "b"), ("r", "b")},
        )
        with pytest.raises(FunctorialityError):
            Presheaf(
                diamond,
                {"t": {"x"}, "l": {"x"}, "r": {"x"}, "b": {"0", "1"}},
                {
                    ("t", "l"): {"x": "x"},
                    ("t", "r"): {"x": "x"},
                    ("l", "b"): {"x": "0"},
                    ("r", "b"): {"x": "1"},
                },
            )

    def test_naturality_checked(self, big_example, star_poset_module):
        sub = Presheaf(
            star_poset_module,
            {"2_": {"1"}, "_2": set(), "1_": {"6"}, "_1": {"7"}},
            {("2_", "1_"): {"1": "6"}, ("2_", "_1"): {"1": "7"}, ("_2", "_1"): {}},
        )
        with pytest.raises(NaturalityError):
            # identity components but 1 restricts to 5 upstairs and 6 downstairs
            Morphism(
                sub,
                big_example,
                {u: {a: a for a in sub.sets[u]} for u in star_poset_module.points},
            )


class TestInclusionAndImage:
    def test_worked_inclusion(self, worked_pair):
        a, b = worked_pair
        f = Inclusion(a, b)
        assert is_inclusion(f)

    def test_can_of_identity(self, big_example):
        f = identity(big_example)
        assert can(f) == f

    def test_can_of_relabeling(self, big_example, star_poset_module):
        dot = Presheaf(
            star_poset_module,
            {"1_": {"x"}},
            {arrow: {} for arrow in star_poset_module.arrows},
        )
        f = Morphism(dot, big_example, {"1_": {"x": "5"}, "2_": {}, "_2": {}, "_1": {}})
        g = can(f)
        assert is_inclusion(g)
        assert g.dom.sets["1_"] == {"5"}
        assert g.dom.sets["_1"] == set()

    def test_can_requires_monic(self, big_example, star_poset_module):
        pair = Presheaf(
            star_poset_module,
            {"_1": {"x", "y"}},
            {arrow: {} for arrow in star_poset_module.arrows},
        )
        f = Morphism(
            pair, big_example, {"_1": {"x": "7", "y": "7"}, "2_": {}, "_2": {}, "1_": {}}
        )
        with pytest.raises(NotMonic):
            can(f)


class TestPullbacks:
    def test_preimage_along_identity(self, worked_pair):
        a, b = worked_pair
        g = Inclusion(a, b)
        left, top = preimage(identity(b), g)
        assert left.dom == a
        assert top.cod == a

    def test_preimage_of_identity_inclusion(self, worked_pair):
        a, b = worked_pair
        f = Inclusion(a, b)
        left, _ = preimage(f, identity(b))
        assert left.dom == a

    def test_preimage_of_element_downset(self, worked_pair):
        # the displayed pullback row: meet of the subobject with down(2)
        a, b = worked_pair
        f = Inclusion(a, b)
        ed = element_downset(b, "2_", "2")
        left, top = preimage(f, ed)
        assert {u: set(left.dom.sets[u]) for u in b.poset.points} == {
            "2_": set(),
            "_2": set(),
            "1_": {"5"},
            "_1": {"6"},
        }

    def test_shape_mismatch(self, worked_pair, big_example):
        a, b = worked_pair
        with pytest.raises(ShapeMismatch):
            preimage(identity(big_example), Inclusion(a, b))

    def test_pullback_universal_property(self, worked_pair):
        a, b = worked_pair
        f = Inclusion(a, b)
        ed = element_downset(b, "2_", "2")
        left, top = preimage(f, ed)
        one = terminal_presheaf(b.poset)
        # every commuting cone from a subterminal factors uniquely
        for t in subobjects(one):
            for into_a in natural_maps(t.dom, a):
                for into_ed in natural_maps(t.dom, ed.dom):
                    lhs = into_a.then(f)
                    rhs = into_ed.then(ed)
                    if lhs != rhs:
                        continue
                    mediators = [
                        m
                        for m in natural_maps(t.dom, left.dom)
                        if m.then(left) == into_a and m.then(top) == into_ed
                    ]
                    assert len(mediators) == 1


class TestIntersection:
    def test_self_intersection(self, worked_pair):
        a, b = worked_pair
        f = Inclusion(a, b)
        assert intersection(f, f).dom == a

    def test_displayed_intersection(self, worked_pair):
        a, b = worked_pair
        f = Inclusion(a, b)
        ed = element_downset(b, "2_", "2")
        meet = intersection(f, ed)
        assert {u: set(meet.dom.sets[u]) for u in b.poset.points} == {
            "2_": set(),
            "_2": set(),
            "1_": {"5"},
            "_1": {"6"},
        }

    def test_symmetric_on_the_nose(self, worked_pair):
        a, b = worked_pair
        subs = subobjects(b)
        for f in subs[:10]:
            for g in subs[:10]:
                assert intersection(f, g) == intersection(g, f)


class TestProductsAndEqualizers:
    def test_terminal_square(self, star_poset_module):
        one = terminal_presheaf(star_poset_module)
        sq = product(one, one)
        assert all(len(sq.sets[u]) == 1 for u in star_poset_module.points)

    def test_equalizer_of_equal_maps(self, worked_pair):
        a, b = worked_pair
        f = Inclusion(a, b)
        e = equalizer(f, f)
        assert e.dom == a

    def test_equalizer_picks_agreement(self, star_poset_module, worked_pair):
        a, b = worked_pair
        sq = product(b, b)
        p0 = proj(sq, b, b, 0)
        p1 = proj(sq, b, b, 1)
        e = equalizer(p0, p1)
        for u in star_poset_module.points:
            assert e.dom.sets[u] == {(x, x) for x in b.sets[u]}


class TestElementPosets:
    def test_element_downset_of_top_left(self, big_example):
        ed = element_downset(big_example, "2_", "1")
        assert {u: set(ed.dom.sets[u]) for u in big_example.poset.points} == {
            "2_": {"1"},
            "_2": set(),
            "1_": {"5"},
            "_1": {"7"},
        }

    def test_element_downset_of_minimal_point(self, big_example):
        ed = element_downset(big_example, "_1", "7")
        assert set(ed.dom.sets["_1"]) == {"7"}
        assert all(
            not ed.dom.sets[u] for u in big_example.poset.points if u != "_1"
        )

    def test_unknown_element(self, big_example):
        with pytest.raises(UnknownElement):
            element_downset(big_example, "2_", "9")

    def test_po_then_ob_rebuilds(self, big_example):
        epo = element_poset(big_example)
        back = presheaf_from_element_poset(epo, big_example.poset)
        assert back == big_example

    def test_subobject_count_matches_element_downsets(self, big_example):
        epo = element_poset(big_example)
        assert len(subobjects(big_example)) == len(
            enumerate_downsets(epo)
        )

    def test_subobjects_are_valid_inclusions(self, big_example):
        for f in subobjects(big_example):
            assert is_inclusion(f)

    @pytest.mark.parametrize("square, limit", [(False, None), (True, 24)])
    def test_mask_subobjects_keep_the_set_order(self, star_poset_module, square, limit):
        # the goldens and the universe's pair cap depend on this order
        om = omega_presheaf(star_poset_module)
        b = product(om, om) if square else om
        fast = subobjects(b, limit=limit)
        slow = subobjects_from_sets(b, limit=limit)
        assert [f.dom.sets for f in fast] == [f.dom.sets for f in slow]
        assert fast == slow
        keys = [(f.mask.bit_count(), _positions(f.mask)) for f in fast]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    @pytest.mark.parametrize("which", ["one", "omega", "square"])
    def test_subobjects_are_the_element_poset_downsets(self, sweep_classes, which):
        """On 1, Ω and Ω² of every class of the 2x2 sweep (the star among
        them), the element index's down table is the reference element
        poset's, and the masks of ``subobjects``, whole and cut at each
        limit, are that poset's down-sets in order.  The cuts are prefixes of
        the whole list (Ω² has too many subobjects to list whole, so it is
        checked cut)."""
        assert len(sweep_classes) == 17
        for poset in sweep_classes:
            om = omega_presheaf(poset)
            b = {"one": terminal_presheaf(poset), "omega": om, "square": product(om, om)}[which]
            epo = element_poset(b)
            assert b.elements().down == epo._down
            full = None if which == "square" else element_poset_downsets(b)
            for limit in (0, 1, 3, 24, None):
                if limit is None and full is None:
                    continue
                got = tuple(f.mask for f in subobjects(b, limit=limit))
                assert got == element_poset_downsets(b, limit)
                assert full is None or got == full[:limit]

    def test_subobjects_add_no_poset_cache_entry(self):
        """Subobjects are enumerated over the element index, so no element
        poset enters the poset caches: 50 fresh presheaves leave all three as
        they were."""
        from fourtops import poset as poset_module

        caches = (
            poset_module.enumerate_downsets,
            poset_module.sieves_on,
            poset_module.sieve_positions,
        )
        before = [cache.cache_info().currsize for cache in caches]
        base = Poset(["x"])
        for k in range(50):
            assert len(subobjects(Presheaf(base, {"x": {f"a{k}"}}, {}))) == 2
        assert [cache.cache_info().currsize for cache in caches] == before

    def test_from_mask_rejects_a_mask_that_is_not_down_closed(self, big_example):
        index = big_example.elements()
        top = 1 << index.bit[("2_", "1")]
        with pytest.raises(FunctorialityError):
            Inclusion._from_mask(big_example, top)
        f = Inclusion._from_mask(big_example, index.down[index.bit[("2_", "1")]])
        assert f.dom.sets == {"2_": {"1"}, "_2": set(), "1_": {"5"}, "_1": {"7"}}
        assert f.dom == sub_from_sets(big_example, f.dom.sets)

    def test_public_inclusion_mask_matches_element_index(self, worked_pair):
        a, b = worked_pair
        f = Inclusion(a, b)
        index = b.elements()
        assert f.mask == sum(
            1 << index.bit[(u, x)] for u in b.poset.points for x in a.sets[u]
        )
        assert Inclusion._from_mask(b, f.mask) == f


class TestInclusionLaws:
    """The seven laws of the identity-component inclusion class, as
    executable predicates over a small universe of subobjects."""

    @pytest.fixture()
    def universe(self, big_example):
        one = terminal_presheaf(big_example.poset)
        return subobjects(one) + subobjects(big_example)

    def test_at_most_one_inclusion_between_two_presheaves(self, universe):
        # Inc1: the inclusion is determined by its endpoints
        for f in universe:
            for g in universe:
                if f.dom == g.dom and f.cod == g.cod:
                    assert f == g

    def test_each_monic_class_contains_exactly_one_inclusion(self, big_example):
        # Inc2: can() lands on an inclusion with the same image, identically
        relabeled = Presheaf(
            big_example.poset,
            {"1_": {"x"}, "_1": {"y"}},
            {
                ("2_", "1_"): {},
                ("2_", "_1"): {},
                ("_2", "_1"): {},
            },
        )
        with pytest.raises(NaturalityError):
            # x and y unlinked cannot map naturally unless images restrict
            Morphism(relabeled, big_example, {"1_": {"x": "5"}, "_1": {"y": "6"}, "2_": {}, "_2": {}})
        dot = Presheaf(
            big_example.poset, {"_1": {"z"}}, {a: {} for a in big_example.poset.arrows}
        )
        m = Morphism(dot, big_example, {"_1": {"z": "7"}, "2_": {}, "_2": {}, "1_": {}})
        g = can(m)
        assert is_inclusion(g)
        assert can(g) == g

    def test_inclusions_compose(self, big_example):
        # Inc3
        subs = subobjects(big_example)
        for f in subs[:12]:
            inner = subobjects(f.dom)
            for m in inner[: min(4, len(inner))]:
                composite = m.then(f)
                assert is_inclusion(composite)

    def test_mediating_maps_are_inclusions(self, universe):
        # Inc4: contained inclusions mediate by an inclusion
        for f in universe[:20]:
            for g in universe[:20]:
                if f.cod != g.cod:
                    continue
                if all(
                    f.dom.sets[u] <= g.dom.sets[u] for u in f.dom.poset.points
                ):
                    m = Inclusion(f.dom, g.dom)
                    assert m.then(g) == f

    def test_true_map_canonicalizes_to_an_inclusion(self, big_example):
        # Inc5, checked here through the subterminal case
        one = terminal_presheaf(big_example.poset)
        for f in subobjects(one):
            assert is_inclusion(f)

    def test_preimage_left_walls_are_inclusions(self, big_example):
        # Inc6
        one = terminal_presheaf(big_example.poset)
        f = bang(big_example, one)
        for d in subobjects(one):
            left, top = preimage(f, d)
            assert is_inclusion(left)
            assert left.then(f) == top.then(d)

    def test_intersections_strictly_symmetric(self, universe):
        # Inc7: the same subset, not just isomorphic
        group = [f for f in universe if f.cod == universe[0].cod]
        for f in group[:8]:
            for g in group[:8]:
                assert intersection(f, g) == intersection(g, f)


class TestSubterminals:
    def test_cst_of_displayed_object(self, star, worked_pair):
        a, b = worked_pair
        sub = sub_from_sets(
            a, {"2_": set(), "_2": {"4"}, "1_": {"5"}, "_1": {"6"}}
        )
        assert pile_code_str(star, cst(sub)) == "12"

    def test_cst_of_terminal(self, star, star_poset_module):
        assert pile_code_str(star, cst(terminal_presheaf(star_poset_module))) == "22"

    def test_cst_of_empty(self, star, star_poset_module):
        assert pile_code_str(star, cst(empty_presheaf(star_poset_module))) == "00"

    def test_cst_rejects_wide_components(self, big_example):
        with pytest.raises(NotSubterminal):
            cst(big_example)

    def test_cst_is_down_closed_for_every_subterminal(self, star_poset_module):
        one = terminal_presheaf(star_poset_module)
        for f in subobjects(one):
            ds = cst(f.dom)  # DownSet construction itself checks closure
            assert isinstance(ds, DownSet)

    def test_subterminal_of_round_trip(self, star_poset_module):
        for d in enumerate_downsets(star_poset_module):
            assert cst(subterminal_of(star_poset_module, d)) == DownSet(star_poset_module, d)

    def test_bang_is_natural(self, big_example):
        assert bang(big_example).cod.sets["2_"] == {"*"}


class TestDirectIndexes:
    """The package builds the element indexes of 1, Ω and Ω² straight from
    the sieve index; here they equal the indexes of the label-built
    presheaves of the test oracle, validated as presheaves, up to the
    element permutation ``direct_positions``."""

    def assert_same(self, label_built, index):
        built = label_built.elements()
        positions = direct_positions(label_built)
        assert sorted(positions) == list(range(len(built.point)))
        assert (index.full, index.width) == (built.full, built.width)
        for k, p in enumerate(positions):
            assert index.point[p] == built.point[k]
            rows = tuple((pb, permute_mask(positions, eb)) for pb, eb in built.rows[k])
            assert index.rows[p] == rows
            assert index.down[p] == permute_mask(positions, built.down[k])

    def check(self, poset):
        om, labelled = omega(poset), omega_presheaf(poset)
        self.assert_same(terminal_presheaf(poset), terminal(poset))
        self.assert_same(labelled, om)
        self.assert_same(product(labelled, labelled), omega_square(poset))
        # Ω's direct order: sieve k on point i is element offset[i] + k
        positions, bit = direct_positions(labelled), labelled.elements().bit
        start = 0
        for i, u in enumerate(poset.points):
            assert om.offset[i] == start
            for k, m in enumerate(sieves_on(poset, u)):
                assert positions[bit[(u, DownSet(poset, m))]] == start + k
            start += len(sieves_on(poset, u))
        assert om.offset[len(poset.points)] == start == len(om.point)

    def test_star(self):
        self.check(star_graph().poset())

    def test_every_class_of_the_2x2_sweep(self, sweep_classes):
        for poset in sweep_classes:
            self.check(poset)

    def test_every_poset_of_up_to_4_points(self):
        posets = list(naturally_labelled_posets(4))
        assert len(posets) == 50
        for poset in posets:
            self.check(poset)

    def test_a_mask_that_is_not_down_closed_names_its_elements_by_position(self):
        # each element is named by its point and its position in that point's
        # component, found by searching the point list, on the package's Ω
        # and Ω² and on the label-built ones, whose offsets come from their
        # component sizes
        poset = star_graph().poset()
        labelled = omega_presheaf(poset)
        indexes = (
            omega(poset),
            omega_square(poset),
            labelled.elements(),
            product(labelled, labelled).elements(),
        )
        for index in indexes:
            refused = 0
            for k, down in enumerate(index.down):
                if down == 1 << k:
                    continue
                name = [
                    (poset.points[index.point[e]], e - index.point.index(index.point[e]))
                    for e in (k, (down & ~(1 << k)).bit_length() - 1)
                ]
                (u, a), (v, b) = name
                with pytest.raises(FunctorialityError) as caught:
                    index.require_down_closed(1 << k)
                assert str(caught.value) == (
                    f"element {a} at {u!r} restricts to element {b} at {v!r}, outside the sub-presheaf"
                )
                refused += 1
            # every element above a minimal point restricts below itself
            assert refused == sum(poset.down_mask_at(i) != 1 << i for i in index.point) > 0
