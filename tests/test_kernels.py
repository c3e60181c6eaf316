"""The oracle table search: fixed cases, agreement with the literal search,
and the ``allowed`` masks."""

from hypothesis import given, settings, strategies as st

from fourtops import _kernels
from fourtops.heyting import HeytingAlgebra
from fourtops.poset import Poset, lattice_tables, sieves_on

from .oracles import operator_tables_literal


def lattice_inputs(poset):
    algebra = HeytingAlgebra(poset)
    return len(algebra), *lattice_tables(algebra.elements)


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


class TestPureKernel:
    def test_single_element_lattice(self):
        assert _kernels.enumerate_operator_tables(
            1, (1,), (0,), inflationary=True, top_fixed=False
        ) == [(0,)]

    def test_two_chain_nucleus_tables(self):
        # lattice 0 < 1: inflationary idempotent meet-preserving maps
        got = _kernels.enumerate_operator_tables(
            2, (0b11, 0b10), (0, 0, 0, 1), inflationary=True, top_fixed=False
        )
        assert got == [(0, 1), (1, 1)]

    def test_top_fixed_drops_collapse(self):
        got = _kernels.enumerate_operator_tables(
            2, (0b11, 0b10), (0, 0, 0, 1), inflationary=False, top_fixed=True
        )
        assert (0, 1) in got and (1, 1) in got
        assert all(t[1] == 1 for t in got)


class TestLiteralAgreement:
    @given(small_posets(), st.booleans(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_same_tables_same_order_on_downset_lattices(self, poset, inflationary, top_fixed):
        n, up, meet = lattice_inputs(poset)
        assert _kernels.enumerate_operator_tables(
            n, up, meet, inflationary=inflationary, top_fixed=top_fixed
        ) == operator_tables_literal(n, up, meet, inflationary, top_fixed)

    def test_every_flag_combination_on_the_star_and_a_cone(self, star_poset):
        for n, up, meet in (lattice_inputs(star_poset), CONE):
            for inflationary in (False, True):
                for top_fixed in (False, True):
                    got = _kernels.enumerate_operator_tables(
                        n, up, meet, inflationary=inflationary, top_fixed=top_fixed
                    )
                    assert got == operator_tables_literal(
                        n, up, meet, inflationary, top_fixed
                    )
                    assert got  # the identity always qualifies


def kernel(inputs, allowed=None, inflationary=False, top_fixed=True):
    n, up, meet = inputs
    return _kernels.enumerate_operator_tables(
        n, up, meet, inflationary=inflationary, top_fixed=top_fixed, allowed=allowed
    )


class TestAllowed:
    def test_all_ones_equals_unrestricted(self, star_poset):
        for inputs in (CONE, lattice_inputs(star_poset)):
            n = inputs[0]
            for flags in ((False, True), (True, False)):
                assert kernel(inputs, ((1 << n) - 1,) * n, *flags) == kernel(
                    inputs, None, *flags
                )

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

    def test_a_zero_mask_gives_nothing(self):
        n = CONE[0]
        for i in range(n):
            allowed = tuple(0 if k == i else (1 << n) - 1 for k in range(n))
            assert kernel(CONE, allowed) == []
            assert kernel(CONE, allowed, inflationary=True, top_fixed=False) == []
