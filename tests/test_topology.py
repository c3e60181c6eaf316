"""Topology axiom suites, closure laws, and covering-sieve checks."""

import random
import sys
from itertools import groupby, islice

import pytest

from fourtops.census import enumerate_lts
from fourtops.convert import j_from_closure, lt_to_grotop, point_set_to_grotop
from fourtops.errors import FourtopsError, FunctorialityError, ShapeMismatch
from fourtops.poset import (
    DownSet,
    LTTopology,
    Poset,
    enumerate_downsets,
    interior_mask,
    sieve_positions,
    sieves_on,
    star_graph,
)
from fourtops.presheaf import ElementIndex, _pull_mask, omega, terminal
from fourtops.axioms import TestUniverse as Universe
from fourtops.axioms import _select, build_universe, check_closure_axioms, filter_check, omega_square
from fourtops.topology import AxiomFailure, CheckReport, ClosureOperator, is_grothendieck, is_lt_topology

from . import oracles
from .conftest import naturally_labelled_posets
from .oracles import (
    Inclusion,
    Morphism,
    algebra_meet,
    build_universe_literal,
    canonical_grothendieck,
    check_closure_axioms_literal,
    closure_of,
    closure_of_composite,
    cover_masks,
    covers_at,
    dense_closed_factor,
    direct_positions,
    direct_report,
    downset_le,
    is_closed,
    is_dense,
    largest_grotop,
    lt_as_morphism,
    lt_identity,
    lt_laws_literal,
    make_grotop,
    meet_square,
    natural_endomaps,
    nucleus_apply,
    omega_presheaf,
    pairing,
    permute_mask,
    restriction_check,
    sieve_labels,
    smallest_grotop,
    subterminal_of,
    terminal_presheaf,
    truth_groups_literal,
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
def all_lts(P):
    return enumerate_lts(P, "formula")


@pytest.fixture(scope="module")
def universe(P):
    return build_universe(P, pair_cap=600)


@pytest.fixture(scope="module")
def literal_universe(P):
    return build_universe_literal(P, pair_cap=600)


@pytest.fixture(scope="module")
def cone4():
    """Three points below a fourth: Ω² has 93 elements, so its fields are 12
    bytes wide and are read one by one, not through a memoryview cast."""
    points = [f"p{i}" for i in range(4)]
    return Poset(points, {(points[-1], p) for p in points[:-1]})


@pytest.fixture(scope="module")
def subterminals(P, elements):
    one = terminal_presheaf(P)
    return [Inclusion(subterminal_of(P, s), one) for s in elements]


@pytest.fixture(scope="module")
def non_topologies(P):
    """200 random endomap tables that break the topology axioms."""
    rng = random.Random(1)
    sizes = [len(sieves_on(P, u)) for u in P.points]
    tables = []
    while len(tables) < 200:
        lt = LTTopology(P, tuple(tuple(rng.randrange(n) for _ in range(n)) for n in sizes))
        if not is_lt_topology(lt).ok:
            tables.append(lt)
    return tables


def closure_law_outcome(check, clop, universe):
    """The report of a closure-law check, or the type and text of what it
    raised; the literal check's witnesses in the package's form."""
    try:
        report = check(clop, universe)
    except FourtopsError as e:
        return type(e), str(e)
    return direct_report(universe, report) if check is check_closure_axioms_literal else report


def constant_true_lt(P):
    tables = []
    for u in P.points:
        n = len(sieves_on(P, u))
        tables.append((n - 1,) * n)
    return LTTopology(P, tuple(tables))


class TestLTAxioms:
    def test_identity_passes(self, P):
        assert is_lt_topology(lt_identity(P)).ok

    def test_constant_true_passes(self, P):
        assert is_lt_topology(constant_true_lt(P)).ok

    def test_non_natural_table_reported(self, P):
        # send the empty sieve to the maximal one at a single point only
        tables = [list(t) for t in lt_identity(P).tables]
        i = P.index("2_")
        tables[i][0] = len(sieves_on(P, "2_")) - 1
        report = is_lt_topology(LTTopology(P, tuple(tuple(t) for t in tables)))
        assert not report.ok
        assert any(f.axiom == "naturality" for f in report.failures)

    def test_every_enumerated_lt_passes(self, P, all_lts):
        assert len(all_lts) == 16
        for lt in all_lts:
            assert is_lt_topology(lt).ok

    def test_square_composites_equal_their_validated_morphisms(self, P, all_lts):
        """``then`` builds its composite trusted; on every composite of the
        meet square it equals the validated Morphism of the same components."""
        _, conj, p0, p1 = meet_square(P)
        for lt in all_lts:
            jm = lt_as_morphism(lt)
            paired = pairing(p0.then(jm), p1.then(jm), conj.dom)
            for first, second in ((conj, jm), (p0, jm), (p1, jm), (paired, conj)):
                comp = {
                    u: {a: second.comp[u][first.comp[u][a]] for a in first.dom.sets[u]}
                    for u in P.points
                }
                got = first.then(second)
                assert got == Morphism(first.dom, second.cod, comp)
                assert (got.dom, got.cod) == (first.dom, second.cod)

    def test_square_still_catches_a_wrong_morphism(self, P, monkeypatch):
        """The literal laws read the morphism, not the tables: given the
        negation of sieves for the identity's tables, which pass every law,
        they report the laws negation breaks, meets among them."""

        def negation(lt):
            om = omega_presheaf(lt.poset)
            comp = {}
            for u in P.points:
                sieves, pos = sieve_labels(P, u), sieve_positions(P, u)
                down = P.down_mask(u)
                comp[u] = {s: sieves[pos[interior_mask(P, down & ~s.mask)]] for s in sieves}
            return Morphism(om, om, comp)

        assert is_lt_topology(lt_identity(P)).ok
        assert lt_laws_literal(lt_identity(P)) == set()
        monkeypatch.setattr(oracles, "lt_as_morphism", negation)
        assert lt_laws_literal(lt_identity(P)) == {
            "idempotent",
            "preserves-true",
            "preserves-meets",
        }

    def test_table_laws_equal_the_literal_laws_on_every_natural_endomap(self, sweep_classes):
        """On every natural endomap of Ω of every class of the 2x2 sweep, the
        laws ``is_lt_topology`` finds failing on the tables are the laws that
        fail as morphism equations, and naturality never fails."""
        endomaps = verdicts = 0
        seen = set()
        for poset in sweep_classes:
            for lt in natural_endomaps(poset):
                failing = {f.axiom for f in is_lt_topology(lt).failures}
                assert failing == lt_laws_literal(lt)
                endomaps += 1
                verdicts += not failing
                seen.add(frozenset(failing))
        assert (endomaps, verdicts, len(seen)) == (4855, 187, 8)

    def test_meet_law_failure_detected(self, P):
        # at the big component, swap the images of the two incomparable sieves
        sieves = sieves_on(P, "2_")
        codes = ["%d%d" % (s.bit_count() // 3, 0) for s in sieves]
        tables = [list(t) for t in lt_identity(P).tables]
        i = P.index("2_")
        tables[i][1], tables[i][2] = tables[i][2], tables[i][1]
        report = is_lt_topology(LTTopology(P, tuple(tuple(t) for t in tables)))
        assert not report.ok


class TestClosure:
    def test_identity_closure_is_identity(self, P, subterminals):
        clop = ClosureOperator(lt_identity(P))
        for f in subterminals:
            assert closure_of(clop, f).dom == f.dom

    def test_constant_true_makes_everything_dense(self, P, subterminals):
        clop = ClosureOperator(constant_true_lt(P))
        for f in subterminals:
            assert is_dense(clop, f)

    def test_fused_matches_composite_route(self, P, all_lts, literal_universe):
        # every topology, every universe inclusion, the Omega-squared group
        # included: the package's table of closed masks against the closure
        # spelled out through the classifier
        assert any(len(f.cod.sets["2_"]) == 25 for f in literal_universe.inclusions)
        for lt in all_lts:
            clop = ClosureOperator(lt)
            for f in literal_universe.inclusions:
                composite = closure_of_composite(clop, f)
                assert clop.closures(f.cod.elements())[f.mask] == composite.mask
                assert closure_of(clop, f) == composite

    def test_closure_agrees_with_nucleus_on_subterminals(
        self, star, P, elements, subterminals
    ):
        from fourtops.convert import nucleus_from_point_set, nucleus_to_lt
        from .oracles import cst

        n = nucleus_from_point_set(P, P.mask_of(["_1"]))
        clop = ClosureOperator(nucleus_to_lt(n))
        for f, s in zip(subterminals, elements):
            closed = closure_of(clop, f)
            assert cst(closed.dom).mask == nucleus_apply(n, s)

    def test_closure_between_subterminals_is_the_capped_nucleus(
        self, P, elements
    ):
        # closing R inside S lands on (closure of R) meet S
        from fourtops.convert import nucleus_from_point_set, nucleus_to_lt
        from .oracles import cst

        n = nucleus_from_point_set(P, P.mask_of(["_1"]))
        clop = ClosureOperator(nucleus_to_lt(n))
        for r in elements:
            for s in elements:
                if not downset_le(r, s):
                    continue
                f = Inclusion(subterminal_of(P, r), subterminal_of(P, s))
                closed = closure_of(clop, f)
                assert cst(closed.dom).mask == algebra_meet(P, nucleus_apply(n, r), s)

    def test_closure_axioms_for_identity(self, P, universe):
        report = check_closure_axioms(ClosureOperator(lt_identity(P)), universe)
        assert report.ok

    def test_closure_axioms_for_all_enumerated(self, all_lts, universe, literal_universe):
        # the table kernel on the mask universe and its former memo route on
        # the object universe give equal reports
        for lt in all_lts:
            clop = ClosureOperator(lt)
            report = check_closure_axioms(clop, universe)
            assert report.ok
            assert report == closure_law_outcome(check_closure_axioms_literal, clop, literal_universe)

    def test_corrupted_table_fails(self, P, universe, literal_universe):
        # swap two values inside one component of the constant-true table
        tables = [list(t) for t in constant_true_lt(P).tables]
        i = P.index("2_")
        tables[i][0] = 0
        broken = ClosureOperator(LTTopology(P, tuple(tuple(t) for t in tables)))
        report = check_closure_axioms(broken, universe)
        assert not report.ok
        assert report == closure_law_outcome(check_closure_axioms_literal, broken, literal_universe)

    def test_non_topologies_never_pass(self, non_topologies, universe, literal_universe):
        # random endomap tables that break the topology axioms: the closure
        # laws either reject a closure that is not a sub-presheaf or report a
        # failed law, never pass; the split pins the sub-presheaf check.  The
        # former memo route on the object universe gives the same report,
        # witnesses included, or raises the same exception with the same
        # message.
        raised = flagged = 0
        witnessed = set()
        for lt in non_topologies:
            clop = ClosureOperator(lt)
            got = closure_law_outcome(check_closure_axioms, clop, universe)
            assert got == closure_law_outcome(check_closure_axioms_literal, clop, literal_universe)
            if isinstance(got, CheckReport):
                assert not got.ok
                witnessed.update(f.axiom for f in got.failures)
                flagged += 1
            else:
                assert got[0] is FunctorialityError
                raised += 1
        assert (raised, flagged) == (140, 60)
        assert {"C3-monotone", "C4-meets"} <= witnessed

    def test_default_universe_equals_the_literal_one(self, P, all_lts, non_topologies):
        # at the default pair cap (5000) and Ω² cap (24), on every star
        # topology and every random non-topology
        universe, literal = build_universe(P), build_universe_literal(P)
        for lt in all_lts + non_topologies:
            clop = ClosureOperator(lt)
            got = closure_law_outcome(check_closure_axioms, clop, universe)
            assert got == closure_law_outcome(check_closure_axioms_literal, clop, literal)

    def test_round_trip_j_from_closure(self, P, all_lts):
        for lt in all_lts:
            assert j_from_closure(ClosureOperator(lt)) == lt


class TestOneKernel:
    """Every closed mask is read through the operator's table over an element
    index, from truth-value groups that the index keeps for every operator."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The (index, mask) pairs whose groups are built one mask at a
        time, on fresh classifier and terminal caches."""
        omega.cache_clear()
        terminal.cache_clear()
        calls = []
        build = ElementIndex.sliced_groups

        def counted(index, whole, ones):
            if ones == 1:
                calls.append((index, whole))
            return build(index, whole, ones)

        monkeypatch.setattr(ElementIndex, "sliced_groups", counted)
        return calls

    def test_groups_equal_the_literal_grouping(self, P, sweep_classes):
        # every listed mask of the star's universe, and every subterminal
        # on each class of the 2x2 sweep
        cases = [(o.index, mask) for o in build_universe(P).objects for mask in o.masks]
        cases += [(terminal(poset), mask) for poset in sweep_classes for mask in enumerate_downsets(poset)]
        for index, mask in cases:
            assert index.truth_groups(mask) == truth_groups_literal(index, mask)

    def test_route_pass_builds_each_group_once(self, P, built):
        from fourtops.routes import check_routes

        assert all(r.ok for r in check_routes(P))
        assert len(built) == len({(id(index), mask) for index, mask in built}) == 9
        # the true mask of the classifier, and the 8 subterminals
        true_mask = sum(1 << (end - 1) for end in omega(P).offset[1:])
        assert [mask for index, mask in built if index is omega(P)] == [true_mask]
        assert sorted(mask for index, mask in built if index is terminal(P)) == sorted(
            enumerate_downsets(P)
        )

    def test_universe_builds_no_group_of_a_listed_subobject(self, P, all_lts, built):
        # the listed subobjects are packed from membership columns; the 16
        # screens build groups only for masks outside the lists (here
        # closures and pullbacks in Ω², whose list is cut at 24)
        universe = build_universe(P)
        assert built == []
        for lt in all_lts:
            assert check_closure_axioms(ClosureOperator(lt), universe).ok
        listed = {(id(o.index), mask) for o in universe.objects for mask in o.masks}
        assert built
        assert not listed.intersection((id(index), mask) for index, mask in built)

    def test_second_operator_builds_no_group(self, P, all_lts, built):
        from fourtops.convert import closure_to_nucleus

        first, second = (ClosureOperator(lt) for lt in all_lts[:2])
        j_from_closure(first)
        closure_to_nucleus(first)
        assert len(built) == 9
        j_from_closure(second)
        closure_to_nucleus(second)
        assert len(built) == 9

    def test_closure_not_a_sub_presheaf_is_refused(self, P):
        # at 2_ every sieve goes to the maximal one, at 1_ below it the
        # empty sieve does not, so the closure of the empty subterminal holds
        # 2_ but not its restriction to 1_
        from fourtops.convert import closure_to_nucleus

        tables = list(lt_identity(P).tables)
        tables[P.index("2_")] = constant_true_lt(P).tables[P.index("2_")]
        clop = ClosureOperator(LTTopology(P, tuple(tables)))
        one = terminal_presheaf(P)
        # the oracle's terminal and the package's: closure_of reads the
        # first, closure_to_nucleus the second
        indexes = (one.elements(), terminal(P))
        for _ in range(2):
            # a refused closure is kept neither as closed nor as passed
            with pytest.raises(FunctorialityError):
                closure_of(clop, Inclusion._from_mask(one, 0))
            with pytest.raises(FunctorialityError):
                j_from_closure(clop)
            with pytest.raises(FunctorialityError):
                closure_to_nucleus(clop)
            for index in indexes:
                assert 0 not in clop.closures(index)
        for index in indexes:
            assert 1 << P.index("2_") not in index.passed


@pytest.fixture(scope="module")
def full_universe(P):
    """Every pair of the star's universe: no pair cap bites."""
    return build_universe(P, pair_cap=100_000)


def flattened(literal):
    """An object universe as the mask universe's rows, each mask and image
    bit moved to the package's element order (``direct_positions``):
    ``(object, mask)`` per inclusion, one pair row ``(object, f, g's)`` per
    f, and ``(domain, codomain, mask, pulled mask)`` per map pair, an
    object named by its position in the universe's 1, Ω, Ω²."""
    codes = {id(b): c for c, b in enumerate(literal.codomains)}
    moves = [direct_positions(b) for b in literal.codomains]

    def code(b):
        return codes[id(b)]

    def moved(f):
        return permute_mask(moves[code(f.cod)], f.mask)

    subobjects = tuple((code(f.cod), moved(f)) for f in literal.inclusions)
    rows = []
    for (c, f), pairs in groupby(literal.pairs, lambda pair: (code(pair[0].cod), moved(pair[0]))):
        gs = []
        for left, g in pairs:
            assert left.cod is g.cod
            gs.append(moved(g))
        rows.append((c, f, tuple(gs)))
    map_pairs = tuple(
        (code(m.dom), code(d.cod), moved(d), permute_mask(moves[code(m.dom)], m.pull_mask(d.mask)))
        for m, d in literal.map_pairs
    )
    return subobjects, tuple(rows), map_pairs


def pair_list(universe):
    """The universe's pairs ``(codomain, f, g)``, read off its rows in order."""
    return [(c, f, g) for c, f, gs, *_ in universe.rows for g in gs]


class TestClosureUniverse:
    """The mask universe against the object universe it replaced, the pairs
    it lists, and the inputs the closure laws refuse."""

    def test_every_star_topology_passes_on_all_pairs(self, all_lts, full_universe):
        assert len(pair_list(full_universe)) == 98_239
        for lt in all_lts:
            assert check_closure_axioms(ClosureOperator(lt), full_universe).ok

    @pytest.mark.parametrize("cap", [-1, 0, 1, 150, 5000])
    def test_pair_cap_lists_at_most_that_many_pairs(self, P, full_universe, cap):
        assert pair_list(build_universe(P, pair_cap=cap)) == pair_list(full_universe)[: max(cap, 0)]

    @pytest.mark.parametrize("square_cap", [10, 24])
    @pytest.mark.parametrize("cap", [-1, 0, 1, 600, 5000, 100_000])
    def test_rows_equal_the_literal_universe_flattened(self, P, cap, square_cap, monkeypatch):
        # both builders read the cap on Ω²'s subobjects when they run
        from fourtops import axioms

        monkeypatch.setattr(axioms, "OMEGA_SQUARE_CAP", square_cap)
        rows = build_universe(P, pair_cap=cap)
        literal = build_universe_literal(P, pair_cap=cap)
        subobjects, pair_rows, map_pairs = flattened(literal)
        # the objects are the indexes of 1, Ω and Ω², which the bridge test
        # in test_presheaf equates with the literal ones
        one, om, square = (o.index for o in rows.objects)
        assert (one, om) == (terminal(P), omega(P))
        assert (square.point, square.down) == (omega_square(P).point, omega_square(P).down)
        assert [o.name for o in rows.objects] == ["1", "Ω", "Ω²"]
        assert tuple((c, mask) for c, o in enumerate(rows.objects) for mask in o.masks) == subobjects
        assert tuple(row[:3] for row in rows.rows) == pair_rows
        assert tuple(pair[:4] for pair in rows.map_pairs) == map_pairs
        # each row's selectors: all-ones fields at its nested and at its
        # crossing g's, and bit 0 at the crossing g's of each meet with f
        for c, f, gs, nest, cross, selectors in rows.rows:
            o = rows.objects[c]
            position = {mask: j for j, mask in enumerate(o.masks)}

            def select(masks):
                return _select([position[g] for g in masks], len(o.masks), o.width)

            crossing = [g for g in gs if f & ~g]
            assert nest == select(g for g in gs if not f & ~g) * o.index.full
            assert cross == select(crossing) * o.index.full
            meets = dict.fromkeys(f & g for g in crossing)
            assert selectors == tuple((m, select(g for g in crossing if f & g == m)) for m in meets)
        # every subobject of the codomain pulls back alike along the image
        # bits and along the literal map, in the package's element order
        moves = [direct_positions(b) for b in literal.codomains]
        for (a, b, *_, pulls), (m, _) in zip(rows.map_pairs, literal.map_pairs):
            masks = [f.mask for f in literal.inclusions if f.cod is literal.codomains[b]]
            got = [_pull_mask(pulls.images, permute_mask(moves[b], mask)) for mask in masks]
            assert got == [permute_mask(moves[a], m.pull_mask(mask)) for mask in masks]

    def test_map_pair_witness_is_its_domain_and_sliced_subobject(self, P, universe):
        # image bits that swap the points 2_ and 1_ of the terminal name no
        # natural map: they pull the subterminal on {1_} back to {2_}, no
        # sub-presheaf, so even the identity closure fails to commute
        swap = (1 << 1, 1 << 0, 1 << 2, 1 << 3)
        d = P.mask_of(["1_"])
        bad = Universe(P, [("1", terminal(P), ())], [(0, 0, swap, (d,))], 0)
        report = check_closure_axioms(ClosureOperator(lt_identity(P)), bad)
        witness = ("1", ("1", d))
        assert report.failures == (AxiomFailure("C5-pullback-stable", witness),)

    def test_objects_reordered_and_renamed_keep_their_laws_and_name_the_witnesses(self, P, universe):
        # the star's objects listed as Ω², 1, Ω under other names, their
        # maps moved along: on every natural endomap the same laws fail as
        # on the universe in 1, Ω, Ω² order, and the report, witnesses
        # included, is the literal checker's on the object universe in the
        # new order under the new names
        order, names = (2, 0, 1), ("T", "W", "WW")
        at = {c: k for k, c in enumerate(order)}
        objects = [(names[c], universe.objects[c].index, universe.objects[c].masks) for c in order]
        maps: dict = {}
        for a, b, d, _, pulls in universe.map_pairs:
            maps.setdefault(id(pulls), (at[a], at[b], pulls.images, []))[3].append(d)
        renamed = Universe(P, objects, list(maps.values()), 600)
        base = build_universe_literal(P, pair_cap=0)
        groups = [[f for f in base.inclusions if f.cod is base.codomains[c]] for c in order]
        pairs = ((f, g) for group in groups for i, f in enumerate(group) for g in group[i:])
        literal = base._replace(
            codomains=tuple(base.codomains[c] for c in order),
            inclusions=tuple(f for group in groups for f in group),
            pairs=tuple(islice(pairs, 600)),
            names=tuple(names[c] for c in order),
        )
        named = set()
        for lt in natural_endomaps(P):
            clop = ClosureOperator(lt)
            got = closure_law_outcome(check_closure_axioms, clop, renamed)
            assert got == closure_law_outcome(check_closure_axioms_literal, clop, literal)
            laws = {f.axiom for f in check_closure_axioms(clop, universe).failures}
            assert {f.axiom for f in got.failures} == laws
            named.update(name for f in got.failures for name, _ in f.witness)
        # each law stops at its first failure, met on Ω² or 1, listed first
        assert named == {"WW", "T"}

    def test_closure_operator_on_another_poset_is_refused(self, universe, literal_universe):
        clop = ClosureOperator(lt_identity(Poset(("a",), set())))
        with pytest.raises(ShapeMismatch):
            check_closure_axioms(clop, universe)
        with pytest.raises(ShapeMismatch):
            check_closure_axioms_literal(clop, literal_universe)


class TestPackedClosures:
    """The closures of a codomain's subobjects are read as the fields of one
    sum of packed truth groups, and the laws are screened whole; the ordered
    loop runs only when a screen fails or raises."""

    def test_every_natural_endomap_gives_the_literal_outcome(self, P, universe, literal_universe):
        # the same report, witnesses included, or the same exception type
        # and message, on all 442 natural endomaps of Ω; a natural endomap
        # closes every subobject to a sub-presheaf, so none raises
        passed = 0
        for lt in natural_endomaps(P):
            clop = ClosureOperator(lt)
            got = closure_law_outcome(check_closure_axioms, clop, universe)
            assert got == closure_law_outcome(check_closure_axioms_literal, clop, literal_universe)
            passed += got.ok
        assert passed == 16

    def test_every_natural_endomap_up_to_three_points_gives_the_literal_outcome(self):
        # the same report, witnesses included, on every natural endomap of
        # Ω of every poset up to 3 points; every law but C5 fails somewhere
        endomaps = passed = 0
        failed = set()
        for poset in naturally_labelled_posets(3):
            universe, literal = build_universe(poset), build_universe_literal(poset)
            for lt in natural_endomaps(poset):
                clop = ClosureOperator(lt)
                got = closure_law_outcome(check_closure_axioms, clop, universe)
                assert got == closure_law_outcome(check_closure_axioms_literal, clop, literal)
                endomaps += 1
                passed += got.ok
                failed.update(f.axiom for f in got.failures)
        assert (endomaps, passed) == (501, 66)
        assert failed == {"C1-inflationary", "C2-idempotent", "C3-monotone", "C4-meets"}

    def test_every_cone4_topology_gives_the_literal_outcome(self, cone4):
        universe = build_universe(cone4, pair_cap=600)
        literal = build_universe_literal(cone4, pair_cap=600)
        assert [o.width for o in universe.objects] == [1, 2, 12]
        lts = enumerate_lts(cone4, "formula")
        assert len(lts) == 16
        for lt in lts:
            clop = ClosureOperator(lt)
            got = closure_law_outcome(check_closure_axioms, clop, universe)
            assert got == closure_law_outcome(check_closure_axioms_literal, clop, literal)

    def test_packed_ints_equal_the_groups_mask_by_mask(self, P, cone4, sweep_classes):
        # the ints packed from membership columns are the ones each listed
        # mask's truth groups give field by field, on 1, Ω and Ω² of the
        # star, of cone4 and of every class of the 2x2 sweep
        widths = set()
        for poset in [P, cone4, *sweep_classes]:
            universe = build_universe(poset)
            for o in universe.objects:
                tables = [truth_groups_literal(o.index, mask) for mask in o.masks]
                fields = {
                    key: b"".join(t.get(key, 0).to_bytes(o.width, sys.byteorder) for t in tables)
                    for key in set().union(*tables)
                }
                assert o.groups == {key: int.from_bytes(v, sys.byteorder) for key, v in fields.items()}
                widths.add(o.width)
        assert widths == {1, 2, 4, 8, 9, 12}

    def test_packed_closures_equal_the_row_loop(self, P, all_lts):
        from fourtops.axioms import _screen
        from fourtops.topology import _Closures

        universe = build_universe(P)
        for lt in all_lts:
            clop = ClosureOperator(lt)
            closed = [_Closures(o.index, clop) for o in universe.objects]
            assert _screen(clop, universe, closed)
            for table, o in zip(closed, universe.objects):
                row_loop = _Closures(table.index, clop)
                assert [table[m] for m in o.masks] == [row_loop.__missing__(m) for m in o.masks]

    def test_a_failure_of_c4_alone_is_caught_on_the_slices(self, P):
        # on the universe's rows with each row's g's cut to f and its
        # crossing g's, and its NEST to f's field, C3 holds; for the first
        # natural endomap that keeps C1 and C2 on the listed subobjects and
        # breaks a crossing meet, only the sliced meet screen can send the
        # laws to the ordered loop, which names that first crossing pair
        cut = build_universe(P, pair_cap=600)
        rows = []
        for c, f, gs, _, cross, selectors in cut.rows:
            o = cut.objects[c]
            own = _select([o.masks.index(f)], len(o.masks), o.width) * o.index.full
            rows.append((c, f, (f, *(g for g in gs if f & g != f)), own, cross, selectors))
        cut.rows = tuple(rows)
        for lt in natural_endomaps(P):
            close = [ClosureOperator(lt).closures(o.index) for o in cut.objects]
            if any(
                f & ~close[c][f] or close[c][close[c][f]] != close[c][f]
                for c, o in enumerate(cut.objects)
                for f in o.masks
            ):
                continue
            broken = [
                (c, f, g)
                for c, f, gs, *_ in rows
                for g in gs[1:]
                if close[c][f & g] != close[c][f] & close[c][g]
            ]
            if broken:
                break
        c, f, g = broken[0]
        name = cut.objects[c].name
        witness = AxiomFailure("C4-meets", ((name, f), (name, g)))
        assert check_closure_axioms(ClosureOperator(lt), cut).failures == (witness,)

    def test_c5_pulls_each_closed_mask_back_once_per_map(self, P, all_lts, monkeypatch):
        # C5 pulls the closure of each map pair's mask back along its map,
        # for every operator; the universe keeps each pull it makes, one
        # table per map, so the star's 16 topologies pull no (map, closed
        # mask) twice, and so no (map pair, closed mask) either
        from fourtops import axioms

        universe = build_universe(P)
        calls = []

        def counted(images, mask):
            calls.append(mask)
            return _pull_mask(images, mask)

        monkeypatch.setattr(axioms, "_pull_mask", counted)
        per_map, per_pair = set(), set()
        for lt in all_lts:
            clop = ClosureOperator(lt)
            assert check_closure_axioms(clop, universe).ok
            closed = [clop.closures(o.index) for o in universe.objects]
            for k, (_, b, d, _, pulls) in enumerate(universe.map_pairs):
                per_map.add((pulls.images, closed[b][d]))
                per_pair.add((k, closed[b][d]))
        assert 0 < len(calls) <= len(per_map) < len(per_pair) < len(all_lts) * len(universe.map_pairs)

    def test_operators_and_their_tables_are_freed_without_the_cyclic_collector(self, P, all_lts):
        # a table keeps its operator, so an operator that kept its tables
        # would leave them all to the cyclic collector: on the 7-point
        # antichain that doubled the peak RSS of check axioms
        import gc

        from fourtops.convert import closure_to_nucleus

        universe = build_universe(P)
        gc.collect()
        gc.disable()
        try:
            for lt in all_lts:
                clop = ClosureOperator(lt)
                assert check_closure_axioms(clop, universe).ok
                assert j_from_closure(clop) == lt and closure_to_nucleus(clop)
            del clop
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_topologies_never_enter_the_ordered_loop(self, P, all_lts, full_universe):
        # a screen that always fell back would pass every other test
        import sys

        from fourtops import axioms

        def calls(universe, lts):
            counts = {axioms._screen.__code__: 0, axioms._ordered_laws.__code__: 0}

            def hook(frame, event, arg):
                if event == "call" and frame.f_code in counts:
                    counts[frame.f_code] += 1

            sys.setprofile(hook)
            try:
                reports = [check_closure_axioms(ClosureOperator(lt), universe) for lt in lts]
            finally:
                sys.setprofile(None)
            return [r.ok for r in reports], list(counts.values())

        for universe in (build_universe(P), full_universe):
            assert calls(universe, all_lts) == ([True] * 16, [16, 0])
        # the hook does see the ordered loop when a law fails
        tables = [list(t) for t in constant_true_lt(P).tables]
        tables[P.index("2_")][0] = 0
        broken = LTTopology(P, tuple(map(tuple, tables)))
        assert calls(build_universe(P), [broken]) == ([False], [1, 1])


class TestDenseClosed:
    def test_identity_inclusion_dense_and_closed(self, P, subterminals):
        clop = ClosureOperator(lt_identity(P))
        f = Inclusion(subterminals[-1].dom, subterminals[-1].dom)
        assert is_dense(clop, f) and is_closed(clop, f)

    def test_constant_true_only_identities_closed(self, P, subterminals):
        clop = ClosureOperator(constant_true_lt(P))
        for f in subterminals:
            if f.dom.sets != f.cod.sets:
                assert not is_closed(clop, f)

    def test_dense_and_closed_implies_identity(self, P, all_lts, subterminals):
        for lt in all_lts:
            clop = ClosureOperator(lt)
            for f in subterminals:
                if is_dense(clop, f) and is_closed(clop, f):
                    assert f.dom == f.cod

    def test_factorization(self, P, all_lts, subterminals):
        for lt in all_lts:
            clop = ClosureOperator(lt)
            for f in subterminals:
                m, closed = dense_closed_factor(clop, f)
                assert is_dense(clop, m)
                assert is_closed(clop, closed)
                assert m.then(closed) == Inclusion(f.dom, f.cod)


class TestRestriction:
    def _triples(self, P, elements):
        for s in elements:
            for t in elements:
                if not downset_le(s, t):
                    continue
                for e in elements:
                    if not downset_le(t, e):
                        continue
                    c_obj = subterminal_of(P, s)
                    d_obj = subterminal_of(P, t)
                    e_obj = subterminal_of(P, e)
                    yield (
                        Inclusion(c_obj, d_obj),
                        Inclusion(d_obj, e_obj),
                        Inclusion(c_obj, e_obj),
                    )

    def test_degenerate_triples(self, P, elements):
        clop = ClosureOperator(lt_identity(P))
        for triple in self._triples(P, elements):
            assert restriction_check(clop, triple).ok

    def test_all_topologies_all_subterminal_triples(self, P, elements, all_lts):
        for lt in all_lts:
            clop = ClosureOperator(lt)
            for triple in self._triples(P, elements):
                assert restriction_check(clop, triple).ok


class TestGrothendieck:
    def test_smallest_passes(self, P):
        assert is_grothendieck(smallest_grotop(P)).ok

    def test_largest_passes(self, P):
        assert is_grothendieck(largest_grotop(P)).ok

    def test_derived_example_from_point_set(self, star, P):
        j = point_set_to_grotop(P, P.mask_of(["_1"]))
        codes = {u: {"%d%d" % star.code_of_mask(m) for m in covers_at(j, u)} for u in P.points}
        assert codes["2_"] == {"01", "11", "21"} and codes["1_"] == {"00", "10"}
        assert codes["_2"] == {"01", "02"} and codes["_1"] == {"01"}
        assert is_grothendieck(j).ok

    def test_missing_max_detected(self, P):
        j = make_grotop(P, {u: [] for u in P.points})
        report = is_grothendieck(j)
        assert any(f.axiom == "hasmax" for f in report.failures)

    def test_stab_violation_detected(self, P):
        # {_1} covers 2_ but its restriction to 1_ is empty and non-covering
        families = {u: [DownSet(P, P.down_mask(u))] for u in P.points}
        families["2_"] = [
            DownSet(P, P.down_mask("2_")),
            DownSet(P, P.mask_of(["_1"])),
        ]
        report = is_grothendieck(make_grotop(P, families))
        assert any(f.axiom == "stab" for f in report.failures)

    def test_trans_violation_detected(self, P):
        # close under stab but leave out a sieve the covers force
        j = point_set_to_grotop(P, P.mask_of(["_1"]))
        families = {u: list(covers_at(j, u)) for u in P.points}
        families["2_"] = [s for s in families["2_"] if s != P.mask_of(["_1"])]
        report = is_grothendieck(make_grotop(P, families))
        assert any(f.axiom == "trans" for f in report.failures)

    def test_covers_are_bits_over_the_sieve_index(self):
        # a family given as DownSets or masks, in any order and with repeats,
        # is one int per point whose bit k marks sieves_on(poset, u)[k]; a
        # mask that is not a sieve on its point has no bit
        rng = random.Random(7)
        refused = 0
        for _ in range(200):
            names = [f"p{i}" for i in range(rng.randrange(6))]
            pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
            rng.shuffle(names)
            poset = Poset(names, {p for p in pairs if rng.random() < 0.5})
            families = {}
            for u in poset.points:
                fam = [s for s in sieves_on(poset, u) if rng.random() < 0.5] * 2
                rng.shuffle(fam)
                families[u] = [DownSet(poset, s) if rng.random() < 0.5 else s for s in fam]
            j = make_grotop(poset, families)
            for i, u in enumerate(poset.points):
                masks = {s.mask if isinstance(s, DownSet) else s for s in families[u]}
                sieves = sieves_on(poset, u)
                assert j.covers[i] == sum(1 << k for k, s in enumerate(sieves) if s in masks)
                assert cover_masks(j, i) == tuple(s for s in sieves if s in masks)
            if names:
                u = rng.choice(poset.points)
                bad = rng.randrange(1 << len(names))
                if bad not in sieves_on(poset, u):
                    refused += 1
                    with pytest.raises(KeyError):
                        make_grotop(poset, {u: [bad]})
        assert refused > 80

    def test_stab_equivalent_to_subpresheaf_condition(self, P):
        # for every candidate family bounded by the sieves, the two readings
        # of stability coincide
        import itertools

        small = Poset(["a", "b"], {("a", "b")})
        sa = sieves_on(small, "a")
        sb = sieves_on(small, "b")
        down_b = small.down_mask("b")
        for fam_a in itertools.chain.from_iterable(
            itertools.combinations(sa, k) for k in range(len(sa) + 1)
        ):
            for fam_b in itertools.chain.from_iterable(
                itertools.combinations(sb, k) for k in range(len(sb) + 1)
            ):
                stab = all(m & down_b in fam_b for m in fam_a)
                report = is_grothendieck(
                    make_grotop(
                        small,
                        {
                            "a": [DownSet(small, m) for m in fam_a],
                            "b": [DownSet(small, m) for m in fam_b],
                        },
                    )
                )
                has_stab_failure = any(f.axiom == "stab" for f in report.failures)
                assert stab == (not has_stab_failure)


class TestFilters:
    def test_smallest_generators_are_maximal_sieves(self, P):
        report, generators = filter_check(smallest_grotop(P))
        assert report.ok
        assert generators == tuple(P.down_mask(u) for u in P.points)

    def test_largest_generators_are_empty(self, P):
        report, generators = filter_check(largest_grotop(P))
        assert report.ok
        assert generators == (0,) * len(P.points)

    def test_every_enumerated_family_is_a_principal_filter(self, P, all_lts):
        for lt in all_lts:
            j = lt_to_grotop(lt)
            report, generators = filter_check(j)
            assert report.ok
            for i, gen in enumerate(generators):
                expected = {
                    m
                    for m in sieves_on(P, P.points[i])
                    if gen | m == m
                }
                assert expected == set(cover_masks(j, i))


def all_posets_up_to(n):
    """Every poset on at most n labeled points, deduplicated by closure."""
    import itertools

    out = []
    for k in range(n + 1):
        points = [f"p{i}" for i in range(k)]
        pairs = [(a, b) for a in points for b in points if a != b]
        seen = set()
        for arrows in itertools.chain.from_iterable(
            itertools.combinations(pairs, m) for m in range(len(pairs) + 1)
        ):
            try:
                poset = Poset(points, arrows)
            except Exception:
                continue
            key = tuple(poset._down)
            if key in seen:
                continue
            seen.add(key)
            out.append(poset)
    return out


class TestCanonical:
    def test_one_point_base(self):
        base = Poset(["u"])
        j = canonical_grothendieck(base)
        assert is_grothendieck(j).ok
        # the whole-space open is covered only by its maximal sieve;
        # the empty open is covered by both of its sieves
        full = j.poset.index("{u}")
        empty = j.poset.index("{}")
        assert j.covers[full].bit_count() == 1
        assert j.covers[empty].bit_count() == 2

    def test_two_chain_base(self):
        base = Poset(["a", "b"], {("a", "b")})
        j = canonical_grothendieck(base)
        assert is_grothendieck(j).ok
        assert len(j.poset.points) == 3

    def test_maximal_sieve_always_covers(self):
        base = Poset(["a", "b"], {("a", "b")})
        j = canonical_grothendieck(base)
        for i, u in enumerate(j.poset.points):
            assert j.poset.down_mask(u) in cover_masks(j, i)

    def test_all_bases_up_to_three_points(self):
        for base in all_posets_up_to(3):
            assert is_grothendieck(canonical_grothendieck(base)).ok
