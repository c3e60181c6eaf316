"""The oracle table search: fixed cases, agreement with the literal search,
on small lattices and on the inputs the census feeds it, and the ``allowed``
masks.  The kernel always fixes the top; the nucleus search passes the up
masks as ``allowed``, and the literal search takes the constraints as flags,
so each comparison names the flags that match."""

import pytest
from hypothesis import given, settings, strategies as st

from fourtops import census
from fourtops.poset import Poset, enumerate_downsets, lattice_tables, sieves_on

from .oracles import operator_tables_literal


def lattice_inputs(poset):
    elements = enumerate_downsets(poset)
    return len(elements), *lattice_tables(elements)


def sieve_lattice_inputs(poset, u):
    """The sieve lattice on u, as the LT-topology search feeds it."""
    sieves = sieves_on(poset, u)
    n = len(sieves)
    pos = {s: k for k, s in enumerate(sieves)}
    up = tuple(
        sum(1 << b for b in range(n) if sieves[a] & ~sieves[b] == 0)
        for a in range(n)
    )
    meet = tuple(pos[sieves[a] & sieves[b]] for a in range(n) for b in range(n))
    return n, up, meet


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    points = [f"p{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1 :]]
    arrows = {p for p in pairs if draw(st.booleans())}
    return Poset(points, arrows)


CONE = sieve_lattice_inputs(Poset(list("abcd"), {("d", x) for x in "abc"}), "d")

# the posets of the benchmark's oracle census
CENSUS_POSETS = {
    "antichain6": Poset(list("abcdef")),
    "cone5": Poset(list("abcde"), [("e", x) for x in "abcd"]),
    "fan6": Poset(list("abcdef"), [("f", x) for x in "abcde"] + [("e", "a")]),
}


def kernel(inputs, allowed=None):
    n, up, meet = inputs
    return census.enumerate_operator_tables(census.operator_lattice(up, meet), allowed)


def nucleus_kernel(inputs):
    """The inflationary search: the up masks as the allowed values."""
    return kernel(inputs, inputs[1])


class TestPureKernel:
    def test_single_element_lattice(self):
        assert nucleus_kernel((1, (1,), (0,))) == [(0,)]

    def test_empty_lattice(self):
        assert kernel((0, (), ())) == [()]

    def test_two_chain_nucleus_tables(self):
        # lattice 0 < 1: inflationary idempotent meet-preserving maps
        assert nucleus_kernel((2, (0b11, 0b10), (0, 0, 0, 1))) == [(0, 1), (1, 1)]

    def test_top_fixed_drops_collapse(self):
        got = kernel((2, (0b11, 0b10), (0, 0, 0, 1)))
        assert (0, 1) in got and (1, 1) in got
        assert all(t[1] == 1 for t in got)

    def test_each_index_checks_the_maximal_earlier_indices(self, star_poset):
        # the cone's sieve lattice (the empty sieve, three atoms, three
        # pairs, the base and the maximal sieve) and the star's H
        for n, up, meet in (CONE, lattice_inputs(star_poset)):
            _, _, checks, down = census.operator_lattice(up, meet)
            for i in range(n):
                tops = [k for k in range(i) if not any(up[k] >> j & 1 for j in range(k + 1, i))]
                assert checks[i] == [(k, meet[i * n + k]) for k in tops]
                assert down[i] == sum(1 << k for k in range(n) if up[k] >> i & 1)
        # an atom is checked against the atoms before it, a pair against the
        # pairs before it and the atoms they miss, and the maximal sieve
        # against the base alone, below it
        checks = [[k for k, _ in c] for c in census.operator_lattice(*CONE[1:])[2]]
        assert checks == [[], [0], [1], [1, 2], [1, 2, 3], [3, 4], [4, 5], [4, 5, 6], [7]]


class TestLiteralAgreement:
    @given(small_posets(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_same_tables_same_order_on_downset_lattices(self, poset, inflationary):
        n, up, meet = inputs = lattice_inputs(poset)
        got = nucleus_kernel(inputs) if inflationary else kernel(inputs)
        assert got == operator_tables_literal(n, up, meet, inflationary, not inflationary)

    def test_both_searches_on_the_star_and_a_cone(self, star_poset):
        for n, up, meet in (lattice_inputs(star_poset), CONE):
            got = kernel((n, up, meet))
            assert got == operator_tables_literal(n, up, meet, False, True)
            assert got  # the identity always qualifies
            # an inflationary table fixes the top: only the top is above it
            got = nucleus_kernel((n, up, meet))
            assert got == operator_tables_literal(n, up, meet, True, False)
            assert got == operator_tables_literal(n, up, meet, True, True)
            assert got


def census_kernel_calls(monkeypatch, poset):
    """The distinct (up, meet, allowed) inputs that the oracle LT census on
    ``poset`` passes to the kernel."""
    raw = {}
    calls = set()
    prepare, search = census.operator_lattice, census.enumerate_operator_tables

    def recorded_lattice(up, meet):
        lattice = prepare(up, meet)
        raw[id(lattice)] = (up, meet)
        return lattice

    def recorded_search(lattice, allowed=None):
        calls.add((*raw[id(lattice)], allowed))
        return search(lattice, allowed)

    monkeypatch.setattr(census, "operator_lattice", recorded_lattice)
    monkeypatch.setattr(census, "enumerate_operator_tables", recorded_search)
    assert len(census.enumerate_lts(poset, "oracle")) == 2 ** len(poset.points)
    monkeypatch.undo()
    return calls


class TestTheCensusInputs:
    """The kernel gives the literal search's tables, in its order, on the
    inputs the census really feeds it."""

    @pytest.mark.parametrize("name, distinct", [("cone5", 17), ("fan6", 35)])
    def test_every_lt_census_input(self, monkeypatch, name, distinct):
        calls = census_kernel_calls(monkeypatch, CENSUS_POSETS[name])
        # the top's lattice and a two-sieve one on cone5, and a three-sieve
        # one as well on fan6, under the masks that naturality allows
        assert len(calls) == distinct
        for up, meet, allowed in calls:
            got = kernel((len(up), up, meet), allowed)
            assert got == operator_tables_literal(len(up), up, meet, False, True, allowed)

    @pytest.mark.parametrize("name", CENSUS_POSETS)
    def test_the_downset_algebra(self, name):
        inputs = lattice_inputs(CENSUS_POSETS[name])
        got = census.enumerate_nucleus_tables(CENSUS_POSETS[name])
        assert len(got) == 2 ** len(CENSUS_POSETS[name].points)
        assert got == nucleus_kernel(inputs) == operator_tables_literal(*inputs, True, False)


class TestAllowed:
    def test_all_ones_equals_unrestricted(self, star_poset):
        for inputs in (CONE, lattice_inputs(star_poset)):
            n = inputs[0]
            assert kernel(inputs, ((1 << n) - 1,) * n) == kernel(inputs)

    @given(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_unrestricted_result_filtered(self, dropped):
        n = CONE[0]
        allowed = [(1 << n) - 1] * n
        for i, v in dropped:
            allowed[i] &= ~(1 << v)
        allowed = tuple(allowed)
        expected = [
            t for t in kernel(CONE) if all(allowed[i] >> v & 1 for i, v in enumerate(t))
        ]
        assert kernel(CONE, allowed) == expected
        assert operator_tables_literal(*CONE, False, True, allowed) == expected

    def test_a_zero_mask_gives_nothing(self):
        n = CONE[0]
        for i in range(n):
            allowed = tuple(0 if k == i else (1 << n) - 1 for k in range(n))
            assert kernel(CONE, allowed) == []
            assert kernel(CONE, tuple(a & u for a, u in zip(allowed, CONE[1]))) == []
