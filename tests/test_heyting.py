"""Down-set algebra operations, nuclei, and slashings."""

import pytest
from hypothesis import given, settings, strategies as st

from fourtops.errors import NotElement, UnknownPoint
from fourtops.heyting import (
    HeytingAlgebra,
    Nucleus,
    enumerate_nucleus_tables,
    is_nucleus,
    modality_on_downset,
    nucleus_from_point_set,
    point_set_of_nucleus,
    slashing_from_erased,
    slashing_from_nucleus,
    slashings_agree,
)
from fourtops.poset import DownSet, Poset

from .conftest import pile_code_str
from .oracles import brute_nucleus_tables


def downsets(algebra):
    return [DownSet(algebra.poset, m) for m in algebra.elements]


def pile(star, star_algebra, code):
    return star_algebra.element(star.pile_mask(int(code[0]), int(code[1])))


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    points = [f"p{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1 :]]
    arrows = {p for p in pairs if draw(st.booleans())}
    return Poset(points, arrows)


class TestLatticeOps:
    def test_meet_21_12_is_11(self, star, star_algebra):
        r = pile(star, star_algebra, "21")
        s = pile(star, star_algebra, "12")
        assert pile_code_str(star, star_algebra.meet(r, s)) == "11"

    def test_imp_residuation_top(self, star_algebra):
        for s in downsets(star_algebra):
            assert star_algebra.imp(s, s) == star_algebra.top

    def test_imp_top_to_bottom(self, star_algebra):
        assert (
            star_algebra.imp(star_algebra.top, star_algebra.bottom)
            == star_algebra.bottom
        )

    def test_foreign_element_rejected(self, star_algebra):
        other = HeytingAlgebra(Poset(["x"]))
        with pytest.raises(NotElement):
            star_algebra.meet(star_algebra.top, other.top)

    @given(small_posets(), st.data())
    def test_imp_is_the_residual(self, poset, data):
        algebra = HeytingAlgebra(poset)
        r = data.draw(st.sampled_from(downsets(algebra)))
        s = data.draw(st.sampled_from(downsets(algebra)))
        t = algebra.imp(r, s)
        assert algebra.meet(t, r) <= s
        for cand in downsets(algebra):
            if algebra.meet(cand, r) <= s:
                assert cand <= t


class TestNucleusFromPointSet:
    def test_full_point_set_is_identity(self, star_algebra):
        n = nucleus_from_point_set(star_algebra, star_algebra.poset.points)
        assert all(n.table[i] == i for i in range(len(star_algebra)))

    def test_empty_point_set_is_constant_top(self, star_algebra):
        n = nucleus_from_point_set(star_algebra, ())
        top = len(star_algebra) - 1
        assert all(v == top for v in n.table)

    def test_keep_bottom_right_point(self, star, star_algebra):
        # the oracle run fixes these: only 00 and 10 stay below the top
        n = nucleus_from_point_set(star_algebra, {"_1"})
        table = {
            pile_code_str(star, s): pile_code_str(star, n.apply(s))
            for s in downsets(star_algebra)
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
        algebra = HeytingAlgebra(poset)
        kept = (
            data.draw(st.sets(st.sampled_from(poset.points))) if poset.points else set()
        )
        n = nucleus_from_point_set(algebra, kept)
        assert is_nucleus(algebra, n.table).ok

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
        algebra = HeytingAlgebra(Poset(points, arrows))
        for trial in range(10):
            kept = {u for u in points if rng.random() < 0.5}
            n = nucleus_from_point_set(algebra, kept)
            assert is_nucleus(algebra, n.table).ok
            assert point_set_of_nucleus(n) == frozenset(kept)

    def test_unknown_point_raises_every_time_and_is_not_cached(self, star_algebra):
        for _ in range(2):
            with pytest.raises(UnknownPoint):
                nucleus_from_point_set(star_algebra, {"_1", "zz"})

    @given(small_posets(), st.data())
    def test_point_set_round_trip(self, poset, data):
        algebra = HeytingAlgebra(poset)
        kept = (
            frozenset(data.draw(st.sets(st.sampled_from(poset.points))))
            if poset.points
            else frozenset()
        )
        n = nucleus_from_point_set(algebra, kept)
        assert point_set_of_nucleus(n) == kept


class TestIsNucleus:
    def test_identity_passes(self, star_algebra):
        table = tuple(range(len(star_algebra)))
        assert is_nucleus(star_algebra, table).ok

    def test_constant_bottom_fails_inflationary_at_top(self, star_algebra):
        table = tuple(0 for _ in star_algebra.elements)
        report = is_nucleus(star_algebra, table)
        assert not report.ok
        assert report.failures[0].axiom == "inflationary"

    def test_constant_top_passes(self, star_algebra):
        top = len(star_algebra) - 1
        assert is_nucleus(star_algebra, (top,) * len(star_algebra)).ok

    def test_report_carries_witnesses(self, star_algebra):
        n = len(star_algebra)
        table = list(range(n))
        table[1] = n - 1  # inflate one element without idempotence issues
        table[2] = 2
        report = is_nucleus(star_algebra, tuple(table))
        if not report.ok:
            assert all(f.witness for f in report.failures)


class TestNucleusEnumeration:
    def test_star_count_is_two_to_the_points(self, star_algebra):
        tables = enumerate_nucleus_tables(star_algebra)
        assert len(tables) == 2 ** len(star_algebra.poset.points)

    def test_matches_formula_mode_as_sets(self, star_algebra):
        from itertools import combinations

        oracle = {Nucleus(star_algebra, t) for t in enumerate_nucleus_tables(star_algebra)}
        pts = star_algebra.poset.points
        formula = set()
        for k in range(len(pts) + 1):
            for combo in combinations(pts, k):
                formula.add(nucleus_from_point_set(star_algebra, combo))
        assert oracle == formula

    @given(small_posets())
    @settings(max_examples=25, deadline=None)
    def test_search_matches_naive_filter(self, poset):
        algebra = HeytingAlgebra(poset)
        if len(algebra) > 6:
            return  # the naive oracle is n**n; keep it tiny
        meet = {
            (i, j): algebra.index(algebra.meet(r, s))
            for i, r in enumerate(downsets(algebra))
            for j, s in enumerate(downsets(algebra))
        }
        expected = set(brute_nucleus_tables(algebra.elements, meet))
        got = set(enumerate_nucleus_tables(algebra))
        assert got == expected

    @given(small_posets())
    @settings(max_examples=15, deadline=None)
    def test_census_law(self, poset):
        algebra = HeytingAlgebra(poset)
        tables = enumerate_nucleus_tables(algebra)
        assert len(tables) == 2 ** len(poset.points)

    @given(small_posets(), st.data())
    def test_every_nucleus_is_monotone(self, poset, data):
        algebra = HeytingAlgebra(poset)
        kept = (
            data.draw(st.sets(st.sampled_from(poset.points))) if poset.points else set()
        )
        n = nucleus_from_point_set(algebra, kept)
        for r in downsets(algebra):
            for s in downsets(algebra):
                if r <= s:
                    assert n.apply(r) <= n.apply(s)


class TestModality:
    def test_top_gives_the_nucleus_itself(self, star_algebra):
        n = nucleus_from_point_set(star_algebra, {"_1"})
        act = modality_on_downset(n, star_algebra.top)
        for r in downsets(star_algebra):
            assert act(r) == n.apply(r)

    def test_value_at_own_argument(self, star_algebra):
        n = nucleus_from_point_set(star_algebra, {"_1"})
        for s in downsets(star_algebra):
            act = modality_on_downset(n, s)
            assert act(s) == s

    def test_below_21_frozen_value(self, star, star_algebra):
        # oracle: 10* = 10, so 10 capped at 21 stays 10
        n = nucleus_from_point_set(star_algebra, {"_1"})
        act = modality_on_downset(n, pile(star, star_algebra, "21"))
        assert pile_code_str(star, act(pile(star, star_algebra, "10"))) == "10"

    def test_rejects_elements_not_below(self, star, star_algebra):
        n = nucleus_from_point_set(star_algebra, {"_1"})
        act = modality_on_downset(n, pile(star, star_algebra, "10"))
        with pytest.raises(NotElement):
            act(pile(star, star_algebra, "01"))

    @given(small_posets(), st.data())
    def test_modality_laws(self, poset, data):
        algebra = HeytingAlgebra(poset)
        kept = (
            data.draw(st.sets(st.sampled_from(poset.points))) if poset.points else set()
        )
        n = nucleus_from_point_set(algebra, kept)
        s = data.draw(st.sampled_from(downsets(algebra)))
        act = modality_on_downset(n, s)
        below = [r for r in downsets(algebra) if r <= s]
        for r in below:
            assert r <= act(r)
            assert act(act(r)) == act(r)
        for q in below:
            for r in below:
                assert algebra.meet(act(q), act(r)) == act(algebra.meet(q, r))


class TestSlashing:
    def test_no_erasure_gives_singletons(self, star_algebra):
        s = slashing_from_erased(star_algebra, ())
        assert all(len(c) == 1 for c in s.classes)

    def test_full_erasure_gives_one_class(self, star_algebra):
        s = slashing_from_erased(star_algebra, star_algebra.poset.points)
        assert len(s.classes) == 1

    def test_erasure_agrees_with_nucleus_for_every_point_set(self, star_algebra):
        from itertools import combinations

        pts = star_algebra.poset.points
        for k in range(len(pts) + 1):
            for kept in combinations(pts, k):
                erased = set(pts) - set(kept)
                a = slashing_from_erased(star_algebra, erased)
                b = slashing_from_nucleus(nucleus_from_point_set(star_algebra, kept))
                assert slashings_agree(a, b)

    def test_region_tops_are_fixed_points(self, star_algebra):
        n = nucleus_from_point_set(star_algebra, {"_1"})
        s = slashing_from_nucleus(n)
        for cls, top in zip(s.classes, s.region_tops):
            top_el = downsets(star_algebra)[top]
            assert n.apply(top_el) == top_el
            for i in cls:
                assert n.apply(downsets(star_algebra)[i]) == top_el
