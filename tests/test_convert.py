"""Conversions among the four representations, enumerators, and checkers."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fourtops import convert, routes
from fourtops.census import enumerate_grotops, enumerate_lts, enumerate_nuclei
from fourtops.classifier import omega
from fourtops.convert import (
    closure_to_nucleus,
    grotop_to_lt,
    grotop_to_lt_direct,
    grotop_to_nucleus,
    grotop_to_point_set,
    lt_to_grotop,
    nucleus_to_grotop,
    nucleus_to_lt,
    point_set_to_grotop,
)
from fourtops.errors import (
    FourtopsError,
    FunctorialityError,
    IncoherentQuad,
    InvalidNucleus,
    InvalidTopology,
    SizeCapExceeded,
    UnknownPoint,
)
from fourtops.heyting import Nucleus, is_nucleus, nucleus_from_point_set, point_set_of_nucleus
from fourtops.poset import (
    DownSet,
    Poset,
    TwoColumnGraph,
    downset_positions,
    enumerate_downsets,
    point_masks,
    sieves_on,
    star_graph,
)
from fourtops.records import GrothendieckTopology, LTTopology
from fourtops.routes import check_routes, complete_quad
from fourtops.topology import ClosureOperator, is_grothendieck, j_from_closure

from .conftest import naturally_labelled_posets, pile_code_str
from .oracles import (
    closure_to_nucleus_composite,
    cover_lists,
    grotop_to_lt_composite,
    grotops_literal,
    j_from_closure_composite,
    largest_grotop,
    lt_apply,
    lt_identity,
    lts_literal,
    make_grotop,
    nucleus_apply,
    point_masks_literal,
    route_reports_literal,
    smallest_grotop,
)


@pytest.fixture(scope="module")
def star():
    return star_graph()


@pytest.fixture(scope="module")
def P(star):
    return star.poset()


@pytest.fixture(scope="module")
def elements(P):
    return enumerate_downsets(P)


@pytest.fixture(scope="module")
def sweep_posets():
    """The distinct labelled posets of ``sweep --pmax 2 --qmax 2``: one per
    down-set table, so isomorphic posets with other labels each appear."""
    from fourtops.sweep import cross_configurations

    seen = {}
    for p in range(3):
        for q in range(3):
            for cross in cross_configurations(p, q):
                poset = TwoColumnGraph(p, q, cross).poset()
                seen.setdefault((poset.points, tuple(poset._down)), poset)
    return list(seen.values())


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    points = [f"p{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1 :]]
    arrows = {p for p in pairs if draw(st.booleans())}
    return Poset(points, arrows)


@st.composite
def shuffled_posets(draw):
    """Up to 5 points listed in a drawn order, so that index order need not
    be a linear extension."""
    n = draw(st.integers(min_value=0, max_value=5))
    names = [f"p{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    arrows = {p for p in pairs if draw(st.booleans())}
    return Poset(draw(st.permutations(names)), arrows)


def cone(n):
    """n-1 pairwise incomparable points under one top point."""
    points = [f"p{i}" for i in range(n)]
    return Poset(points, {(points[-1], p) for p in points[:-1]})


def fan(n):
    """A cone whose second-highest point also sits above the first."""
    points = [f"p{i}" for i in range(n)]
    arrows = {(points[-1], p) for p in points[:-1]} | {(points[-2], points[0])}
    return Poset(points, arrows)


def reversed_order(poset):
    return Poset(tuple(reversed(poset.points)), poset.arrows)


class TestPointSetGrotop:
    def test_full_set_gives_smallest(self, P):
        assert point_set_to_grotop(P, P.full_mask) == smallest_grotop(P)

    def test_empty_set_gives_largest(self, P):
        assert point_set_to_grotop(P, 0) == largest_grotop(P)

    def test_round_trip_on_star(self, P):
        for y in point_masks_literal(P):
            assert grotop_to_point_set(point_set_to_grotop(P, y)) == y

    def test_smallest_maps_to_full(self, P):
        assert grotop_to_point_set(smallest_grotop(P)) == P.full_mask

    def test_largest_maps_to_empty(self, P):
        assert grotop_to_point_set(largest_grotop(P)) == 0


class TestNucleusGrotop:
    def test_identity_nucleus_gives_smallest(self, P):
        n = nucleus_from_point_set(P, P.full_mask)
        assert nucleus_to_grotop(n) == smallest_grotop(P)

    def test_constant_top_gives_largest(self, P):
        n = nucleus_from_point_set(P, 0)
        assert nucleus_to_grotop(n) == largest_grotop(P)

    def test_mutually_inverse_on_star(self, P):
        for y in point_masks_literal(P):
            n = nucleus_from_point_set(P, y)
            j = point_set_to_grotop(P, y)
            assert grotop_to_nucleus(nucleus_to_grotop(n)) == n
            assert nucleus_to_grotop(grotop_to_nucleus(j)) == j


class TestNucleusLT:
    def test_identity_to_identity(self, P):
        n = nucleus_from_point_set(P, P.full_mask)
        assert nucleus_to_lt(n) == lt_identity(P)

    def test_constant_top_to_constant_true(self, P):
        n = nucleus_from_point_set(P, 0)
        lt = nucleus_to_lt(n)
        for i, u in enumerate(P.points):
            top = len(sieves_on(P, u)) - 1
            assert all(v == top for v in lt.tables[i])

    def test_frozen_component_values(self, star, P):
        # oracle-confirmed truncations of the one-kept-point nucleus
        n = nucleus_from_point_set(P, P.mask_of(["_1"]))
        lt = nucleus_to_lt(n)
        sieves = sieves_on(P, "2_")
        table = lt.tables[P.index("2_")]
        got = {
            pile_code_str(star, DownSet(P, s)): pile_code_str(star, DownSet(P, sieves[table[k]]))
            for k, s in enumerate(sieves)
        }
        assert got == {"00": "10", "10": "10", "01": "21", "11": "21", "21": "21"}

    def test_each_component_is_the_nucleus_cut_down_to_the_point(self, P):
        # j_u(S) = n(S) meet down u, read through the test oracle's functions
        for kept in point_masks_literal(P):
            n = nucleus_from_point_set(P, kept)
            lt = nucleus_to_lt(n)
            for u in P.points:
                for s in sieves_on(P, u):
                    assert lt_apply(lt, u, s) == nucleus_apply(n, s) & P.down_mask(u)


class TestGrotopLT:
    def test_smallest_to_identity(self, P):
        assert grotop_to_lt(smallest_grotop(P)) == lt_identity(P)

    def test_largest_to_constant_true(self, P):
        lt = grotop_to_lt(largest_grotop(P))
        for i, u in enumerate(P.points):
            top = len(sieves_on(P, u)) - 1
            assert all(v == top for v in lt.tables[i])

    def test_classifier_route_equals_direct_formula(self, P):
        for y in point_masks_literal(P):
            j = point_set_to_grotop(P, y)
            assert grotop_to_lt(j) == grotop_to_lt_direct(j)

    def test_round_trips(self, P):
        for y in point_masks_literal(P):
            j = point_set_to_grotop(P, y)
            lt = nucleus_to_lt(nucleus_from_point_set(P, y))
            assert lt_to_grotop(grotop_to_lt(j)) == j
            assert grotop_to_lt(lt_to_grotop(lt)) == lt


class TestTableRoutes:
    """The route checkers classify on the classifier's element masks; the
    composites build the inclusion and the classifying map as objects."""

    def test_grotop_to_lt_equals_composite_on_sweep_posets(self, sweep_posets):
        assert len(sweep_posets) == 40
        for poset in sweep_posets:
            for j in enumerate_grotops(poset, "formula"):
                assert grotop_to_lt(j) == grotop_to_lt_composite(j)

    def test_j_from_closure_equals_composite_on_sweep_posets(self, sweep_posets):
        for poset in sweep_posets:
            for lt in enumerate_lts(poset, "formula"):
                clop = ClosureOperator(lt)
                assert j_from_closure(clop) == j_from_closure_composite(clop)

    def test_j_from_closure_equals_composite_on_random_tables(self, P):
        # most random endomap tables are not topologies: both routes must
        # give the same tables or both refuse a closure that is not a
        # sub-presheaf
        rng = random.Random(7)
        sizes = [len(sieves_on(P, u)) for u in P.points]
        refused = 0
        for _ in range(300):
            lt = LTTopology(
                P, tuple(tuple(rng.randrange(n) for _ in range(n)) for n in sizes)
            )
            clop = ClosureOperator(lt)
            try:
                table = j_from_closure(clop)
            except FunctorialityError:
                with pytest.raises(FunctorialityError):
                    j_from_closure_composite(clop)
                refused += 1
                continue
            assert table == j_from_closure_composite(clop)
        assert refused == 207

    def test_one_classifier_per_poset(self, P):
        assert omega(P) is omega(P)
        assert omega(P) is not omega(Poset(P.points))

    def test_one_algebra_per_poset(self, P):
        # a nucleus is keyed by its poset, whose down-set index is built once
        j = point_set_to_grotop(P, P.mask_of(["_1"]))
        assert grotop_to_nucleus(j).poset is P
        assert closure_to_nucleus(ClosureOperator(grotop_to_lt(j))).poset is P
        assert enumerate_nuclei(P, "oracle")[0].poset is P
        assert downset_positions(P) is downset_positions(P)
        assert downset_positions(P) is not downset_positions(Poset(P.points))


class TestClosureToNucleus:
    def test_identity(self, P, elements):
        clop = ClosureOperator(lt_identity(P))
        n = closure_to_nucleus(clop)
        assert all(n.table[i] == i for i in range(len(elements)))

    def test_equals_point_set_route_everywhere(self, P):
        for y in point_masks_literal(P):
            n = nucleus_from_point_set(P, y)
            clop = ClosureOperator(nucleus_to_lt(n))
            assert closure_to_nucleus(clop) == n
            assert closure_to_nucleus_composite(clop) == n

    @given(shuffled_posets())
    @settings(max_examples=25, deadline=None)
    def test_equals_composite_route_on_random_posets(self, poset):
        for y in point_masks_literal(poset):
            clop = ClosureOperator(nucleus_to_lt(nucleus_from_point_set(poset, y)))
            assert closure_to_nucleus(clop) == closure_to_nucleus_composite(clop)

    def test_equals_composite_route_on_random_tables(self, P):
        # endomap tables drawn at random are mostly not topologies: both
        # routes must give the same table or both reject a closure that is
        # not a sub-presheaf
        rng = random.Random(5)
        sizes = [len(sieves_on(P, u)) for u in P.points]
        outcomes = []
        for _ in range(300):
            lt = LTTopology(
                P, tuple(tuple(rng.randrange(n) for _ in range(n)) for n in sizes)
            )
            clop = ClosureOperator(lt)
            try:
                direct = closure_to_nucleus(clop)
            except FunctorialityError:
                direct = None
            try:
                composite = closure_to_nucleus_composite(clop)
            except FunctorialityError:
                composite = None
            assert direct == composite
            outcomes.append(direct is None)
        assert (sum(outcomes), outcomes.count(False)) == (204, 96)


def _outcomes(conversions, values) -> dict:
    """For each conversion, on how many values it returned and on how many
    it raised a FourtopsError; any other exception fails the test."""
    outcomes = {f.__name__: [0, 0] for f in conversions}
    for value in values:
        for f in conversions:
            try:
                f(value)
            except FourtopsError:
                outcomes[f.__name__][1] += 1
            else:
                outcomes[f.__name__][0] += 1
    return outcomes


GROTOP_CONVERSIONS = (grotop_to_nucleus, grotop_to_lt, grotop_to_lt_direct, grotop_to_point_set)


class TestValidationAtTheBoundary:
    """A given structure is checked where it enters, by ``complete_quad``;
    the conversions trust what they are given, and on a structure that
    fails its laws they return or raise a FourtopsError."""

    def test_an_invalid_nucleus_is_refused_where_it_enters(self, P, elements):
        n = Nucleus(P, (0,) * len(elements))
        with pytest.raises(InvalidNucleus) as caught:
            complete_quad(P, nucleus=n)
        assert str(caught.value) == is_nucleus(n).summary()

    def test_invalid_covers_are_refused_where_they_enter(self, P):
        j = make_grotop(P, {u: [] for u in P.points})
        with pytest.raises(InvalidTopology) as caught:
            complete_quad(P, grotop=j)
        assert str(caught.value) == is_grothendieck(j).summary()

    def test_every_invalid_covering_family_on_three_points(self):
        poset = Poset(["a", "b", "c"], [("c", "a"), ("c", "b")])
        per_point = [range(1 << len(sieves_on(poset, u))) for u in poset.points]
        families = [GrothendieckTopology(poset, c) for c in itertools.product(*per_point)]
        invalid = [j for j in families if not is_grothendieck(j).ok]
        assert (len(families), len(invalid)) == (512, 504)
        outcomes = _outcomes(GROTOP_CONVERSIONS, invalid)
        assert outcomes == {
            "grotop_to_nucleus": [65, 439],
            "grotop_to_lt": [65, 439],
            "grotop_to_lt_direct": [65, 439],
            "grotop_to_point_set": [504, 0],
        }

    def test_random_invalid_covering_families_on_the_star(self, P):
        # some families also set a bit past the last sieve on their point
        rng = random.Random(21)
        invalid = []
        for _ in range(400):
            covers = []
            for u in P.points:
                n = len(sieves_on(P, u))
                fam = sum(1 << k for k in range(n) if rng.random() < 0.5)
                if rng.random() < 0.25:
                    fam |= 1 << rng.randrange(n, 2 * n)
                covers.append(fam)
            j = GrothendieckTopology(P, tuple(covers))
            if not is_grothendieck(j).ok:
                invalid.append(j)
        outcomes = _outcomes(GROTOP_CONVERSIONS, invalid)
        bounds = [j for j in invalid if any(f.axiom == "bounds" for f in is_grothendieck(j).failures)]
        assert (len(invalid), len(bounds)) == (400, 278)
        assert outcomes == {
            "grotop_to_nucleus": [39, 361],
            "grotop_to_lt": [9, 391],
            "grotop_to_lt_direct": [39, 361],
            "grotop_to_point_set": [400, 0],
        }

    def test_every_invalid_nucleus_table_on_a_two_chain(self):
        chain = Poset(["a", "b"], [("b", "a")])
        n = len(enumerate_downsets(chain))
        nuclei = (Nucleus(chain, t) for t in itertools.product(range(n), repeat=n))
        invalid = [nucleus for nucleus in nuclei if not is_nucleus(nucleus).ok]
        outcomes = _outcomes((nucleus_to_grotop, nucleus_to_lt, point_set_of_nucleus), invalid)
        assert len(invalid) == 23
        assert all(o == [23, 0] for o in outcomes.values())

    def test_the_census_reports_a_derived_table_that_is_not_a_nucleus(
        self, star, monkeypatch
    ):
        from fourtops.sweep import sweep_instance

        formula = convert.nucleus_from_point_set

        def one_bad(poset, kept):
            if kept == poset.mask_of(["_1"]):
                bad = Nucleus(poset, (0,) * len(enumerate_downsets(poset)))
                assert not is_nucleus(bad).ok
                return bad
            return formula(poset, kept)

        monkeypatch.setattr(convert, "nucleus_from_point_set", one_bad)
        entry = sweep_instance(star, 6)
        assert entry["census"]["nuclei"] is False
        assert entry["ok"] is False

        # seeded random tables for y={_1}: a conversion that raises on one
        # fails the routes it stops instead of aborting the row, and the
        # quad names the error
        rng = random.Random(1)
        stopped = 0
        for _ in range(60):
            table = tuple(rng.randrange(8) for _ in range(8))

            def random_table(poset, kept, table=table):
                if kept == poset.mask_of(["_1"]):
                    return Nucleus(poset, table)
                return formula(poset, kept)

            monkeypatch.setattr(convert, "nucleus_from_point_set", random_table)
            assert sweep_instance(star, 6)["ok"] is False
            details = routes.route_row(star.poset(), star.poset().mask_of(["_1"]))[2]
            if any(d.startswith("stopped by FunctorialityError: ") for d in details):
                stopped += 1
                with pytest.raises(IncoherentQuad, match="stopped by FunctorialityError"):
                    complete_quad(star.poset(), y=star.poset().mask_of(["_1"]))
        assert stopped == 27


def test_the_point_mask_walk_is_the_combinations_order():
    """The formula censuses and the route pass walk the point masks by size,
    then in ``combinations`` order over the points: the order of the name
    sets they walked before point sets were masks."""
    antichain8 = Poset([f"a{i}" for i in range(8)])
    for poset in [Poset([]), *naturally_labelled_posets(4), antichain8]:
        masks = point_masks_literal(poset)
        assert point_masks(poset) == masks
        nuclei = [nucleus_from_point_set(poset, y) for y in masks]
        assert enumerate_nuclei(poset, "formula") == nuclei
        assert enumerate_grotops(poset, "formula") == [point_set_to_grotop(poset, y) for y in masks]
        assert enumerate_lts(poset, "formula") == [nucleus_to_lt(n) for n in nuclei]
        rows = list(routes.route_pass(poset))
        assert [faces[0] for _, faces, _ in rows] == nuclei
        assert [label for label, _, _ in rows] == ["y={" + ",".join(poset.names_of(y)) + "}" for y in masks]


class TestEnumerators:
    def test_one_point_counts(self):
        P1 = Poset(["u"])
        assert len(enumerate_nuclei(P1, "formula")) == 2
        assert len(enumerate_nuclei(P1, "oracle")) == 2
        assert len(enumerate_grotops(P1, "oracle")) == 2
        assert len(enumerate_lts(P1, "oracle")) == 2

    def test_two_chain_counts(self):
        P2 = Poset(["a", "b"], {("a", "b")})
        assert len(enumerate_grotops(P2, "oracle")) == 4
        assert len(enumerate_lts(P2, "oracle")) == 4
        assert len(enumerate_nuclei(P2, "oracle")) == 4

    def test_star_modes_agree(self, P):
        assert set(enumerate_nuclei(P, "formula")) == set(enumerate_nuclei(P, "oracle"))
        assert set(enumerate_grotops(P, "formula")) == set(
            enumerate_grotops(P, "oracle")
        )
        assert set(enumerate_lts(P, "formula")) == set(enumerate_lts(P, "oracle"))

    def test_size_cap(self):
        big = Poset([f"p{i}" for i in range(7)])
        with pytest.raises(SizeCapExceeded):
            enumerate_grotops(big, "oracle")

    @given(small_posets())
    @settings(max_examples=12, deadline=None)
    def test_census_and_agreement_on_random_posets(self, poset):
        expected = 2 ** len(poset.points)
        nf, no = enumerate_nuclei(poset, "formula"), enumerate_nuclei(poset, "oracle")
        gf, go = enumerate_grotops(poset, "formula"), enumerate_grotops(poset, "oracle")
        lf, lo = enumerate_lts(poset, "formula"), enumerate_lts(poset, "oracle")
        assert len(no) == len(go) == len(lo) == expected
        assert set(nf) == set(no)
        assert set(gf) == set(go)
        assert set(lf) == set(lo)

    @given(shuffled_posets())
    @settings(max_examples=50, deadline=None)
    def test_pruned_searches_equal_the_literal_ones(self, poset):
        assert enumerate_grotops(poset, "oracle") == grotops_literal(poset)
        assert enumerate_lts(poset, "oracle") == lts_literal(poset)

    def test_cone5_and_fan5_equal_the_literal_searches(self):
        # the literal covers search takes seconds on the cone, so the cone
        # runs in one point order only: top point first, against the order
        # the search places points in
        for poset in (reversed_order(cone(5)), fan(5), reversed_order(fan(5))):
            assert enumerate_grotops(poset, "oracle") == grotops_literal(poset)
            assert enumerate_lts(poset, "oracle") == lts_literal(poset)

    def test_six_point_covers_search_finishes(self):
        # the full candidate lists would hold 2^24 (fan) and 2^32 (cone)
        # families at the top point
        for poset in (fan(6), cone(6)):
            got = enumerate_grotops(poset, "oracle")
            assert len(got) == 64
            formula = enumerate_grotops(poset, "formula")
            assert got == sorted(formula, key=cover_lists)


class TestQuad:
    def test_from_full_point_set(self, P):
        quad = complete_quad(P, y=P.full_mask)
        assert quad.grotop == smallest_grotop(P)

    def test_from_largest_grotop(self, P):
        quad = complete_quad(P, grotop=largest_grotop(P))
        assert quad.y == 0

    def test_every_entry_recovers_the_one_kept_point(self, P):
        base = complete_quad(P, y=P.mask_of(["_1"]))
        for kwargs in (
            {"nucleus": base.nucleus},
            {"grotop": base.grotop},
            {"lt": base.lt},
        ):
            assert complete_quad(P, **kwargs) == base

    def test_refuses_a_point_mask_with_a_bit_past_the_last_point(self, P):
        # the star has 4 points, so bit 4 names no point; a negative mask
        # sets every bit
        for y in (1 << 4, P.full_mask | 1 << 9, -1):
            with pytest.raises(UnknownPoint, match="has bits outside the poset"):
                complete_quad(P, y=y)
        assert complete_quad(P, y=P.full_mask).y == P.full_mask

    def test_requires_exactly_one_input(self, P):
        with pytest.raises(IncoherentQuad):
            complete_quad(P)

    def test_rejects_mismatched_input(self, P, monkeypatch):
        # a wrong conversion reaches the quad through the route row it reads
        def bottom(j):
            return LTTopology(j.poset, tuple((0,) * len(sieves_on(P, u)) for u in P.points))

        monkeypatch.setattr(convert, "grotop_to_lt_direct", bottom)
        message = r"^pairwise conversions disagree: failed cycles: \[12\]$"
        with pytest.raises(IncoherentQuad, match=message):
            complete_quad(P, y=P.mask_of(["_1"]))


class TestRouteCheckers:
    def test_star_reports_all_agree(self, P):
        reports = check_routes(P)
        assert [r.name for r in reports] == [
            "round trips",
            "truncation route",
            "closure route",
            "topmost region covers",
        ]
        assert all(r.ok for r in reports)

    def test_summaries_count_instances(self, P):
        rep = check_routes(P)[1]
        assert "16/16" in rep.summary()

    def test_round_trips_number_the_face_to_face_checks_after_the_cycles(
        self, P, monkeypatch
    ):
        def bottom(j):
            return LTTopology(j.poset, tuple((0,) * len(sieves_on(P, u)) for u in P.points))

        monkeypatch.setattr(convert, "grotop_to_lt_direct", bottom)
        report = check_routes(P)[0]
        assert len(report.counterexamples()) == 16
        assert {v.detail for v in report.verdicts} == {"failed cycles: [12]"}

    def test_topmost_check_reads_the_faces_without_a_quad(self, P, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("complete_quad called")

        monkeypatch.setattr(routes, "complete_quad", refuse)
        assert check_routes(P)[3].ok

    @given(small_posets())
    @settings(max_examples=8, deadline=None)
    def test_routes_agree_on_random_posets(self, poset):
        assert all(r.ok for r in check_routes(poset))


def _route_mutants():
    """Wrong conversions, each of which some route report must catch."""
    nucleus_to_lt_ = convert.nucleus_to_lt

    def lt_of_empty_point_set(n):
        return nucleus_to_lt_(nucleus_from_point_set(n.poset, 0))

    def identity_nucleus(clop):
        return Nucleus(clop.poset, tuple(range(len(enumerate_downsets(clop.poset)))))

    def bottom_lt(j):
        return LTTopology(
            j.poset, tuple((0,) * len(sieves_on(j.poset, u)) for u in j.poset.points)
        )

    return {
        "grotop_to_lt": lambda j: lt_identity(j.poset),
        "closure_to_nucleus": identity_nucleus,
        "grotop_to_lt_direct": bottom_lt,
        "nucleus_to_lt": lt_of_empty_point_set,
        "nucleus_to_grotop": lambda n: point_set_to_grotop(n.poset, 0),
        "j_from_closure": lambda clop: lt_identity(clop.poset),
    }


class TestCheckRoutes:
    """``check_routes`` against the four separate checkers it replaced."""

    def test_equals_the_literal_reports_on_the_star(self, P):
        assert check_routes(P) == route_reports_literal(P)

    def test_equals_the_literal_reports_on_sweep_posets(self, sweep_posets):
        for poset in sweep_posets:
            assert check_routes(poset) == route_reports_literal(poset)

    @given(small_posets())
    @settings(max_examples=20, deadline=None)
    def test_equals_the_literal_reports_on_random_posets(self, poset):
        assert check_routes(poset) == route_reports_literal(poset)

    @pytest.mark.parametrize("name", sorted(_route_mutants()))
    def test_equals_the_literal_reports_under_a_wrong_conversion(
        self, P, monkeypatch, name
    ):
        monkeypatch.setattr(convert, name, _route_mutants()[name])
        reports = check_routes(P)
        assert not all(r.ok for r in reports)
        assert reports == route_reports_literal(P)

    def test_builds_each_face_once_per_point_set(self, P, monkeypatch):
        calls = {}
        for name in ("nucleus_to_lt", "j_from_closure", "closure_to_nucleus"):
            def counted(*args, _fn=getattr(convert, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(convert, name, counted)
        check_routes(P)
        assert calls == {"nucleus_to_lt": 16, "j_from_closure": 16, "closure_to_nucleus": 16}

    def test_runs_each_conversion_once_per_point_set(self, P, monkeypatch):
        # a repeated input within a point set reads the value its first call
        # gave, so the conversions the routes share run once each
        names = (
            "grotop_to_lt",
            "grotop_to_nucleus",
            "lt_to_grotop",
            "nucleus_to_grotop",
            "nucleus_to_lt",
            "j_from_closure",
            "closure_to_nucleus",
        )
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _fn=getattr(convert, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(convert, name, counted)
        assert all(r.ok for r in check_routes(P))
        assert calls == dict.fromkeys(names, 16)
