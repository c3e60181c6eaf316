"""The classifier, with the test oracle's classifying maps and internal
connectives checked against the package's tables."""

import pytest

from fourtops.poset import DownSet, Poset, lattice_tables, sieve_positions, sieves_on, star_graph
from fourtops.presheaf import _truth_values, chi_tables, omega

from .conftest import pile_code_str
from .oracles import (
    Inclusion,
    Morphism,
    NotInclusion,
    Presheaf,
    build_universe_literal,
    can,
    chi,
    chi_composite,
    direct_positions,
    equalizer,
    identity,
    imp_map,
    is_inclusion,
    lt_from_morphism,
    meet_map,
    natural_endomaps,
    natural_maps,
    omega_presheaf,
    permute_mask,
    product,
    proj,
    sigma,
    subobjects,
    terminal_presheaf,
    top_composite,
    true_inclusion,
    true_map,
)


@pytest.fixture(scope="module")
def star():
    return star_graph()


@pytest.fixture(scope="module")
def P(star):
    return star.poset()


@pytest.fixture(scope="module")
def om(P):
    return omega_presheaf(P)


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
        assert codes(star, om.sets["2_"]) == {"00", "01", "10", "11", "21"}
        assert codes(star, om.sets["_2"]) == {"00", "01", "02"}
        assert codes(star, om.sets["1_"]) == {"00", "10"}
        assert codes(star, om.sets["_1"]) == {"00", "01"}
        # the package's classifier has the same component sizes
        point = omega(P).point
        assert [point.count(i) for i in range(len(P.points))] == [len(om.sets[u]) for u in P.points]

    def test_one_point_classifier_is_two_valued(self):
        P1 = Poset(["u"])
        assert len(omega_presheaf(P1).sets["u"]) == 2
        assert omega(P1).point == (0, 0)

    def test_restriction_is_meet_with_down(self, P, om):
        for (u, v) in P.arrows:
            down_v = P.down_mask(v)
            for s in om.sets[u]:
                assert om.restr[(u, v)][s].mask == s.mask & down_v
        # in the package's index, sieve k on u is element offset[u] + k, and
        # its row marks at each v below u the element of its meet with down v
        package = omega(P)
        for i, u in enumerate(P.points):
            for k, s in enumerate(sieves_on(P, u)):
                row = dict(package.rows[package.offset[i] + k])
                below = [j for j, v in enumerate(P.points) if P.above(u, v)]
                assert sorted(row) == [1 << j for j in below]
                for j in below:
                    pos = sieve_positions(P, P.points[j])
                    assert row[1 << j] == 1 << (package.offset[j] + pos[s & P.down_mask_at(j)])

    def test_restriction_lands_in_target_component(self, P, om):
        for (u, v) in P.arrows:
            target = set(om.sets[v])
            for s in om.sets[u]:
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

    def test_true_mask_is_the_image_of_the_true_map(self, sweep_classes):
        """The last element at each point of Ω's index is the image of the
        true map there."""
        for poset in sweep_classes:
            positions = direct_positions(omega_presheaf(poset))
            true_mask = sum(1 << (end - 1) for end in omega(poset).offset[1:])
            assert true_mask == permute_mask(positions, can(true_map(poset)).mask)


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
            u: {s: DownSet(P, 0) for s in om.sets[u]} for u in P.points
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
        one = terminal_presheaf(P)
        for f in subobjects(one):
            assert sigma(chi(f)) == f

    def test_chi_sigma_identity_on_natural_maps(self, P, om):
        # every natural map from the terminal into the classifier
        one = terminal_presheaf(P)
        for g in natural_maps(one, om):
            assert chi(sigma(g)) == g

    @pytest.mark.parametrize(
        "arrows, count",
        [({("b", "a")}, 15), ({("a", "b"), ("a", "c")}, 73), ({("b", "a"), ("c", "a")}, 85)],
        ids=["chain2", "V", "inverted-V"],
    )
    def test_natural_endomaps_are_the_natural_maps_of_omega(self, arrows, count):
        """The classifying maps of the subobjects of Ω are every natural
        endomap of Ω, each once."""
        poset = Poset(sorted({u for arrow in arrows for u in arrow}), arrows)
        listed = natural_endomaps(poset)
        om = omega_presheaf(poset)
        every = [lt_from_morphism(m) for m in natural_maps(om, om)]
        assert len(listed) == len(set(listed)) == count
        assert set(listed) == set(every)

    def test_chi_matches_composite_route(self, P, om):
        """The oracle's ``chi`` equals the composite route and gives each
        element the sieve the package's row loop reads off the mask, in
        ``chi_tables``' sieve indexes when the codomain is Ω (the mask moved
        to the package's element order)."""
        universe = build_universe_literal(P)
        assert len(universe.inclusions) == 474
        for f in universe.inclusions:
            g = chi(f)
            assert g == chi_composite(f)
            index = f.cod.elements()
            values = _truth_values(index, f.mask)
            assert [g.comp[u][a].mask for u, a in index.keys] == values
            if f.cod is om:
                moved = permute_mask(direct_positions(om), f.mask)
                assert lt_from_morphism(g).tables == chi_tables(omega(P), moved)

    def test_pullback_criterion(self, P, worked_pair):
        g = chi(worked_pair)
        for u in P.points:
            expected = {
                b for b in worked_pair.cod.sets[u] if g(u, b).mask == P.down_mask(u)
            }
            assert expected == worked_pair.dom.sets[u]


class TestInternalMaps:
    def test_meet_of_true_pair(self, P, om):
        """The conjunction keeps the true pair true, and on every pair it is
        the meet table ``lattice_tables`` builds for each Ω(u)."""
        m = meet_map(P)
        for u in P.points:
            top = DownSet(P, P.down_mask(u))
            assert m.comp[u][(top, top)] == top
            sieves, pos = sieves_on(P, u), sieve_positions(P, u)
            _, meet = lattice_tables(sieves)
            n = len(sieves)
            for (s, t), value in m.comp[u].items():
                assert pos[value.mask] == meet[pos[s.mask] * n + pos[t.mask]]

    def test_imp_residuation_top(self, P, om):
        m = imp_map(P)
        for u in P.points:
            for s in om.sets[u]:
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
                for s in om.sets[u]
                for t in om.sets[u]
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
