"""Down-set algebra operations, nuclei, and slashings."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fourtops.census import enumerate_nucleus_tables
from fourtops.convert import nucleus_from_point_set, point_set_of_nucleus
from fourtops.errors import NotElement, UnknownPoint
from fourtops.poset import Nucleus, Poset, enumerate_downsets
from fourtops.topology import is_nucleus

from .oracles import (
    algebra_bottom,
    algebra_index,
    algebra_imp,
    algebra_join,
    algebra_meet,
    algebra_top,
    brute_nucleus_tables,
    downset_le,
    nucleus_apply,
    point_masks_literal,
)


def pile(star, code):
    return star.pile_mask(int(code[0]), int(code[1]))


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    points = [f"p{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1 :]]
    arrows = {p for p in pairs if draw(st.booleans())}
    return Poset(points, arrows)


class TestLatticeOps:
    """The down-set algebra's operations, on masks (the test oracle's
    functions: no command runs them)."""

    def test_meet_21_12_is_11(self, star, star_poset):
        r, s = pile(star, "21"), pile(star, "12")
        assert star.code_of_mask(algebra_meet(star_poset, r, s)) == (1, 1)
        assert star.code_of_mask(algebra_join(star_poset, r, s)) == (2, 2)

    def test_imp_residuation_top(self, star_poset):
        for s in enumerate_downsets(star_poset):
            assert algebra_imp(star_poset, s, s) == algebra_top(star_poset)

    def test_imp_top_to_bottom(self, star_poset):
        top, bottom = algebra_top(star_poset), algebra_bottom(star_poset)
        assert algebra_imp(star_poset, top, bottom) == bottom == 0

    def test_foreign_element_rejected(self, star, star_poset):
        # the top of a one-point poset is {2_} here, which is not down-closed
        with pytest.raises(NotElement):
            algebra_meet(star_poset, algebra_top(star_poset), algebra_top(Poset(["x"])))
        with pytest.raises(NotElement):
            algebra_index(star_poset, 1 << 4)

    @given(small_posets(), st.data())
    def test_imp_is_the_residual(self, poset, data):
        elements = enumerate_downsets(poset)
        r = data.draw(st.sampled_from(elements))
        s = data.draw(st.sampled_from(elements))
        t = algebra_imp(poset, r, s)
        assert t in elements
        assert downset_le(algebra_meet(poset, t, r), s)
        for cand in elements:
            if downset_le(algebra_meet(poset, cand, r), s):
                assert downset_le(cand, t)


class TestNucleusFromPointSet:
    def test_full_point_set_is_identity(self, star_poset):
        n = nucleus_from_point_set(star_poset, star_poset.full_mask)
        assert n.table == tuple(range(len(enumerate_downsets(star_poset))))

    def test_empty_point_set_is_constant_top(self, star_poset):
        n = nucleus_from_point_set(star_poset, 0)
        top = len(enumerate_downsets(star_poset)) - 1
        assert all(v == top for v in n.table)

    def test_keep_bottom_right_point(self, star, star_poset):
        # the oracle run fixes these: only 00 and 10 stay below the top
        n = nucleus_from_point_set(star_poset, star_poset.mask_of(["_1"]))
        table = {
            "%d%d" % star.code_of_mask(s): "%d%d" % star.code_of_mask(nucleus_apply(n, s))
            for s in enumerate_downsets(star_poset)
        }
        assert table == {
            "00": "10",
            "10": "10",
            "01": "22",
            "11": "22",
            "02": "22",
            "21": "22",
            "12": "22",
            "22": "22",
        }

    @given(small_posets(), st.data())
    def test_always_passes_the_axioms(self, poset, data):
        kept = data.draw(st.integers(0, poset.full_mask))
        assert is_nucleus(nucleus_from_point_set(poset, kept)).ok

    def test_axioms_on_a_six_point_poset(self):
        import random

        rng = random.Random(7)
        points = [f"p{i}" for i in range(6)]
        arrows = {
            (a, b)
            for i, a in enumerate(points)
            for b in points[i + 1 :]
            if rng.random() < 0.4
        }
        poset = Poset(points, arrows)
        for trial in range(10):
            kept = poset.mask_of(u for u in points if rng.random() < 0.5)
            n = nucleus_from_point_set(poset, kept)
            assert is_nucleus(n).ok
            assert point_set_of_nucleus(n) == kept

    def test_unknown_point_raises_every_time_and_is_not_cached(self, star_poset):
        # a point set enters as names, which ``mask_of`` reads
        for _ in range(2):
            with pytest.raises(UnknownPoint):
                nucleus_from_point_set(star_poset, star_poset.mask_of(["_1", "zz"]))

    @given(small_posets(), st.data())
    def test_point_set_round_trip(self, poset, data):
        kept = data.draw(st.integers(0, poset.full_mask))
        n = nucleus_from_point_set(poset, kept)
        assert point_set_of_nucleus(n) == kept


class TestIsNucleus:
    def test_identity_passes(self, star_poset):
        table = tuple(range(len(enumerate_downsets(star_poset))))
        assert is_nucleus(Nucleus(star_poset, table)).ok

    def test_constant_bottom_fails_inflationary_at_top(self, star_poset):
        table = tuple(0 for _ in enumerate_downsets(star_poset))
        report = is_nucleus(Nucleus(star_poset, table))
        assert not report.ok
        assert report.failures[0].axiom == "inflationary"

    def test_constant_top_passes(self, star_poset):
        n = len(enumerate_downsets(star_poset))
        assert is_nucleus(Nucleus(star_poset, (n - 1,) * n)).ok

    def test_report_carries_witnesses(self, star_poset):
        n = len(enumerate_downsets(star_poset))
        table = list(range(n))
        table[1] = n - 1  # inflate one element without idempotence issues
        table[2] = 2
        report = is_nucleus(Nucleus(star_poset, tuple(table)))
        if not report.ok:
            assert all(f.witness for f in report.failures)


class TestNucleusEnumeration:
    def test_star_count_is_two_to_the_points(self, star_poset):
        tables = enumerate_nucleus_tables(star_poset)
        assert len(tables) == 2 ** len(star_poset.points)

    def test_matches_formula_mode_as_sets(self, star_poset):
        oracle = {Nucleus(star_poset, t) for t in enumerate_nucleus_tables(star_poset)}
        formula = {nucleus_from_point_set(star_poset, y) for y in point_masks_literal(star_poset)}
        assert oracle == formula

    @given(small_posets())
    @settings(max_examples=25, deadline=None)
    def test_search_matches_naive_filter(self, poset):
        elements = enumerate_downsets(poset)
        if len(elements) > 6:
            return  # the naive oracle is n**n; keep it tiny
        meet = {
            (i, j): algebra_index(poset, algebra_meet(poset, r, s))
            for i, r in enumerate(elements)
            for j, s in enumerate(elements)
        }
        expected = set(brute_nucleus_tables(elements, meet))
        got = set(enumerate_nucleus_tables(poset))
        assert got == expected

    @given(small_posets())
    @settings(max_examples=15, deadline=None)
    def test_census_law(self, poset):
        tables = enumerate_nucleus_tables(poset)
        assert len(tables) == 2 ** len(poset.points)

    @given(small_posets(), st.data())
    def test_every_nucleus_is_monotone(self, poset, data):
        kept = data.draw(st.integers(0, poset.full_mask))
        n = nucleus_from_point_set(poset, kept)
        for r in enumerate_downsets(poset):
            for s in enumerate_downsets(poset):
                if downset_le(r, s):
                    assert downset_le(nucleus_apply(n, r), nucleus_apply(n, s))


def posets_up_to_three_and_the_star(star_poset):
    """Every poset on at most 3 points, as labelled DAGs whose arrows go from
    earlier to later names (every poset has such a listing), then the star."""
    for n in range(4):
        points = [f"p{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1 :]]
        for k in range(len(pairs) + 1):
            for arrows in combinations(pairs, k):
                yield Poset(points, arrows)
    yield star_poset


def fibres(table):
    """The partition of the algebra's indices by the table's value."""
    groups: dict = {}
    for i, v in enumerate(table):
        groups.setdefault(v, set()).add(i)
    return {frozenset(c) for c in groups.values()}


class TestSlashing:
    """The slashing of the nucleus of Y: its fibres are the classes of
    ``S -> S & Y``, and each fibre's join lies in it and is the nucleus's
    value there, read off ``nucleus_from_point_set(Y).table``."""

    def test_no_erasure_gives_singletons(self, star_poset):
        for poset in posets_up_to_three_and_the_star(star_poset):
            n = nucleus_from_point_set(poset, poset.full_mask)
            assert all(len(c) == 1 for c in fibres(n.table))

    def test_full_erasure_gives_one_class(self, star_poset):
        for poset in posets_up_to_three_and_the_star(star_poset):
            assert len(fibres(nucleus_from_point_set(poset, 0).table)) == 1

    def test_erasure_agrees_with_nucleus_for_every_point_set(self, star_poset):
        for poset in posets_up_to_three_and_the_star(star_poset):
            for y in point_masks_literal(poset):
                erased = fibres([s & y for s in enumerate_downsets(poset)])
                assert fibres(nucleus_from_point_set(poset, y).table) == erased

    def test_region_tops_are_fixed_points(self, star_poset):
        for poset in posets_up_to_three_and_the_star(star_poset):
            elements = enumerate_downsets(poset)
            for y in point_masks_literal(poset):
                table = nucleus_from_point_set(poset, y).table
                for fibre in fibres(table):
                    join = 0
                    for i in fibre:
                        join |= elements[i]
                    top = elements.index(join)
                    assert top in fibre
                    assert all(table[i] == top for i in fibre)
