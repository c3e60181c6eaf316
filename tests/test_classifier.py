"""The classifier, classifying maps, and the internal connectives."""

import pytest

from fourtops.classifier import (
    chi,
    imp_map,
    meet_map,
    omega,
    sigma,
    true_inclusion,
    true_map,
)
from fourtops.errors import NotInclusion
from fourtops.poset import DownSet, Poset, star_graph
from fourtops.presheaf import (
    Inclusion,
    Morphism,
    Presheaf,
    is_inclusion,
    product,
    proj,
    subobjects,
    terminal,
)

from .conftest import pile_code_str
from .oracles import (
    build_universe_literal,
    chi_composite,
    equalizer,
    identity,
    natural_maps,
    top_composite,
)


@pytest.fixture(scope="module")
def star():
    return star_graph()


@pytest.fixture(scope="module")
def P(star):
    return star.poset()


@pytest.fixture(scope="module")
def om(P):
    return omega(P)


@pytest.fixture(scope="module")
def worked_pair(P):
    b = Presheaf(
        P,
        {"2_": {"1", "2"}, "_2": {"3", "4"}, "1_": {"5"}, "_1": {"6"}},
        {
            ("2_", "1_"): {"1": "5", "2": "5"},
            ("2_", "_1"): {"1": "6", "2": "6"},
            ("_2", "_1"): {"3": "6", "4": "6"},
        },
    )
    a = Presheaf(
        P,
        {"2_": set(), "_2": {"4"}, "1_": {"5"}, "_1": {"6"}},
        {("2_", "1_"): {}, ("2_", "_1"): {}, ("_2", "_1"): {"4": "6"}},
    )
    return Inclusion(a, b)


def codes(star, sieves):
    return {pile_code_str(star, s) for s in sieves}


class TestOmega:
    def test_star_components(self, star, P, om):
        assert codes(star, om.sieves["2_"]) == {"00", "01", "10", "11", "21"}
        assert codes(star, om.sieves["_2"]) == {"00", "01", "02"}
        assert codes(star, om.sieves["1_"]) == {"00", "10"}
        assert codes(star, om.sieves["_1"]) == {"00", "01"}

    def test_one_point_classifier_is_two_valued(self):
        P1 = Poset(["u"])
        assert len(omega(P1).sieves["u"]) == 2

    def test_restriction_is_meet_with_down(self, P, om):
        for (u, v) in P.arrows:
            down_v = P.down_mask(v)
            for s in om.sieves[u]:
                assert om.restr[(u, v)][s].mask == s.mask & down_v

    def test_restriction_lands_in_target_component(self, P, om):
        for (u, v) in P.arrows:
            target = set(om.sieves[v])
            for s in om.sieves[u]:
                assert om.restr[(u, v)][s] in target


class TestTrueMap:
    def test_picks_the_maximal_sieve(self, P):
        t = true_map(P)
        for u in P.points:
            assert t.comp[u]["*"].mask == P.down_mask(u)

    def test_monic_and_canonicalizable(self, P):
        t = true_map(P)
        assert t.is_monic()
        inc = true_inclusion(P)
        assert is_inclusion(inc)
        for u in P.points:
            assert inc.dom.sets[u] == {DownSet(P, P.down_mask(u))}


class TestChiSigma:
    def test_worked_value(self, star, worked_pair):
        g = chi(worked_pair)
        assert pile_code_str(star, g("2_", "2")) == "11"

    def test_derived_value_on_right_column(self, star, worked_pair):
        g = chi(worked_pair)
        assert pile_code_str(star, g("_2", "4")) == "02"

    def test_identity_inclusion_classifies_true(self, P, worked_pair):
        b = worked_pair.cod
        g = chi(identity(b))
        for u in P.points:
            for a in b.sets[u]:
                assert g(u, a).mask == P.down_mask(u)

    def test_sigma_of_chi_recovers_inclusion(self, worked_pair):
        assert sigma(chi(worked_pair)) == worked_pair

    def test_sigma_of_constant_true(self, P, worked_pair):
        b = worked_pair.cod
        g = top_composite(b)
        assert sigma(g).dom == b

    def test_sigma_of_constant_bottom_is_empty(self, P, om):
        comp = {
            u: {s: DownSet(P, 0) for s in om.sieves[u]} for u in P.points
        }
        g = Morphism(om, om, comp)
        assert all(not sigma(g).dom.sets[u] for u in P.points)

    def test_chi_requires_inclusion(self, P, worked_pair):
        b = worked_pair.cod
        relabel = Presheaf(
            P,
            {"_1": {"x"}},
            {arrow: {} for arrow in P.arrows},
        )
        f = Morphism(relabel, b, {"_1": {"x": "6"}, "2_": {}, "_2": {}, "1_": {}})
        with pytest.raises(NotInclusion):
            chi(f)

    def test_soundness_over_subterminal_inclusions(self, P):
        one = terminal(P)
        for f in subobjects(one):
            assert sigma(chi(f)) == f

    def test_chi_sigma_identity_on_natural_maps(self, P, om):
        # every natural map from the terminal into the classifier
        one = terminal(P)
        for g in natural_maps(one, om):
            assert chi(sigma(g)) == g

    def test_chi_matches_composite_route(self, P):
        universe = build_universe_literal(P)
        assert len(universe.inclusions) == 474
        for f in universe.inclusions:
            assert chi(f) == chi_composite(f)

    def test_pullback_criterion(self, P, worked_pair):
        g = chi(worked_pair)
        for u in P.points:
            expected = {
                b for b in worked_pair.cod.sets[u] if g(u, b).mask == P.down_mask(u)
            }
            assert expected == worked_pair.dom.sets[u]


class TestInternalMaps:
    def test_meet_of_true_pair(self, P):
        m = meet_map(P)
        for u in P.points:
            top = DownSet(P, P.down_mask(u))
            assert m.comp[u][(top, top)] == top

    def test_imp_residuation_top(self, P, om):
        m = imp_map(P)
        for u in P.points:
            for s in om.sieves[u]:
                assert m.comp[u][(s, s)].mask == P.down_mask(u)

    def test_one_point_sigma_values(self):
        P1 = Poset(["u"])
        lab = lambda d: 1 if d.mask else 0
        s_and = sigma(meet_map(P1))
        s_imp = sigma(imp_map(P1))
        assert {(lab(x), lab(y)) for (x, y) in s_and.dom.sets["u"]} == {(1, 1)}
        assert {(lab(x), lab(y)) for (x, y) in s_imp.dom.sets["u"]} == {
            (0, 0),
            (0, 1),
            (1, 1),
        }

    def test_sigma_of_meet_is_the_double_true_equalizer(self, P):
        s_and = sigma(meet_map(P))
        for u in P.points:
            top = DownSet(P, P.down_mask(u))
            assert s_and.dom.sets[u] == {(top, top)}

    def test_sigma_of_imp_is_the_inclusion_order(self, P, om):
        s_imp = sigma(imp_map(P))
        for u in P.points:
            expected = {
                (s, t)
                for s in om.sieves[u]
                for t in om.sieves[u]
                if s.mask | t.mask == t.mask
            }
            assert s_imp.dom.sets[u] == expected

    def test_imp_equals_the_projection_meet_equalizer(self, P, om):
        sq = product(om, om)
        e = equalizer(proj(sq, om, om, 0), meet_map(P))
        assert e.dom == sigma(imp_map(P)).dom

    def test_meet_and_imp_are_natural(self, P):
        # Morphism construction re-checks naturality; reaching here is the test
        meet_map(P)
        imp_map(P)
