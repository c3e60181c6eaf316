"""Text rendering: shape, determinism, and golden files."""

import pathlib

import pytest

from fourtops.convert import complete_quad
from fourtops.poset import TwoColumnGraph, star_graph
from fourtops.render import (
    render_grotop,
    render_lt,
    render_nucleus,
    render_omega,
    render_point_set,
    render_quad,
    render_zha,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def star():
    return star_graph()


@pytest.fixture(scope="module")
def quad(star):
    P = star.poset()
    return complete_quad(P, y={"_1"})


class TestZha:
    def test_star_matches_golden(self, star):
        assert render_zha(star) + "\n" == (GOLDEN / "render_zha_star.txt").read_text()

    def test_trivial_graph(self):
        assert render_zha(TwoColumnGraph(0, 0)) == "00"

    def test_single_left_column(self):
        lines = render_zha(TwoColumnGraph(1, 0)).split("\n")
        assert [l.strip() for l in lines] == ["10", "00"]

    def test_label_count_equals_lattice_size(self, star):
        text = render_zha(star)
        labels = [w for w in text.split() if w.isdigit()]
        assert len(labels) == 8

    def test_every_label_round_trips(self, star):
        for w in render_zha(star).split():
            a, b = int(w[0]), int(w[1])
            assert star.pile_code(star.pile(a, b)) == (a, b)


class TestPanels:
    def test_omega_matches_golden(self, star):
        assert (
            render_omega(star) + "\n" == (GOLDEN / "render_omega_star.txt").read_text()
        )

    def test_omega_dots_out_foreign_elements(self, star):
        text = render_omega(star)
        assert "·" in text
        # the small component shows only 00 and 10
        block = text.split("1_:")[1].split("_1:")[0]
        assert "21" not in block

    def test_identity_lt_has_no_cut_glyphs(self, star):
        P = star.poset()
        quad = complete_quad(P, y=P.points)
        text = render_lt(star, quad.lt)
        # singleton regions: every drawn edge is a cut, so no plain edges repeat
        assert text.count("*") == 0

    def test_smallest_grotop_marks_only_the_top(self, star, quad):
        P = star.poset()
        full = complete_quad(P, y=P.points)
        text = render_grotop(star, full.grotop)
        assert text.count("*") == len(P.points)

    def test_region_partition_recoverable(self, star, quad):
        # two elements share a region iff the nucleus maps them together;
        # the panel draws a plain edge inside a region and a cut across
        text = render_nucleus(star, quad.nucleus)
        assert text.count("/") + text.count("\\") > 0


class TestQuadPanel:
    def test_matches_golden(self, star, quad):
        got = render_quad(star, quad) + "\n"
        assert got == (GOLDEN / "render_fouruple_star.txt").read_text()

    def test_byte_stable_across_runs(self, star, quad):
        assert render_quad(star, quad) == render_quad(star, quad)

    def test_contains_all_four_headers(self, star, quad):
        text = render_quad(star, quad)
        for header in ("Y:", "nucleus:", "J:", "j:"):
            assert header in text

    def test_point_set_marking(self, star):
        text = render_point_set(star, {"_1"})
        assert "[_1]" in text and "[1_]" not in text
