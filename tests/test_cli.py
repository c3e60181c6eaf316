"""The command-line surface: grammar, JSON schema, subcommands, exit codes."""

import io
import json
import os
import pathlib
import random
import re
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from fourtops import sweep
from fourtops.cli import main
from fourtops.commands import InputSpec, census_json, parse_input, poset_json
from fourtops.handlers import structure_json
from fourtops.emit import emit_json
from fourtops.census import enumerate_grotops, enumerate_lts, enumerate_nuclei
from fourtops.errors import ParseError
from fourtops.poset import DownSet, Poset, TwoColumnGraph
from fourtops.sweep import cross_configurations, sweep_instance

from .conftest import naturally_labelled_posets, pile_code_str
from .oracles import (
    brute_relabellings,
    census_json_literal,
    cross_configurations_literal,
    emit_json_literal,
    structure_json_literal,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

STAR = "2cg p=2 q=2 cross { 2_ > _1 }"


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestGrammar:
    def test_star_input(self):
        spec = parse_input(STAR)
        assert spec.poset.points == ("2_", "1_", "_2", "_1")
        assert spec.graph.p == 2

    def test_one_point_poset(self):
        spec = parse_input("poset { points: a; arrows: }")
        assert spec.poset.points == ("a",)

    def test_poset_with_arrows(self):
        spec = parse_input("poset { points: a b c; arrows: a > b b > c }")
        assert spec.poset.above("a", "c")

    def test_same_column_cross_is_an_error(self):
        with pytest.raises(ParseError):
            parse_input("2cg p=2 q=2 cross { _1 > _1 }")

    def test_y_payload(self):
        spec = parse_input(STAR + "\ny { _1 }")
        assert spec.kind == "y" and spec.payload == spec.poset.mask_of(["_1"])

    def test_unknown_y_member(self):
        with pytest.raises(Exception):
            parse_input(STAR + "\ny { zz }")

    @pytest.mark.parametrize("form", ["text", "json"])
    def test_unknown_y_member_exits_2_naming_it(self, form, capsys):
        # the first unknown name in input order is the one named
        members = ["_1", "zz", "qq"]
        if form == "text":
            text = STAR + "\ny { " + " ".join(members) + " }"
        else:
            star = {"kind": "2cg", "p": 2, "q": 2, "cross": [["2_", "_1"]]}
            text = json.dumps({"poset": star, "structure": {"kind": "y", "members": members}})
        for argv in (["fouruple", "--from", "y"], ["chi"], ["convert", "--from", "y", "--to", "lt"], ["render", "fouruple"]):
            assert main([*argv, "-t", text], out=io.StringIO()) == 2
            assert capsys.readouterr().err == "error: unknown point 'zz'\n"

    def test_grotop_payload(self):
        spec = parse_input(STAR + "\ngrotop { 2_: 01 11 21; 1_: 00 10; _2: 01 02; _1: 01 }")
        assert spec.kind == "grotop"

    def test_nucleus_payload_must_be_total(self):
        with pytest.raises(ParseError):
            parse_input(STAR + "\nnucleus { 00 -> 10 }")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_input("poset { points a; arrows: }")
        assert "line" in str(err.value)

    def test_text_round_trip_through_parser(self):
        spec = parse_input(STAR + "\ny { _1 }")
        from fourtops.handlers import structure_text

        text = structure_text(spec, "y", spec.payload)
        again = parse_input(STAR + "\n" + text)
        assert again.payload == spec.payload

    def test_every_structure_kind_round_trips_as_text(self):
        from fourtops.handlers import _quad, structure_text

        base = parse_input(STAR + "\ny { _1 }")
        for kind in ("y", "nucleus", "grotop", "lt"):
            value = getattr(_quad(base), kind)
            text = structure_text(base, kind, value)
            again = parse_input(STAR + "\n" + text)
            assert again.kind == kind
            assert again.payload == value


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run("show")[0] == 2

    def test_parse_error_is_2(self):
        code, _ = run("show", "h", "-t", "2cg p=2")
        assert code == 2

    def test_checks_pass_is_0(self):
        code, _ = run("check", "roundtrips", "-t", STAR)
        assert code == 0


class TestShow:
    def test_h_lists_the_eight_piles(self):
        code, out = run("show", "h", "-t", STAR)
        assert code == 0
        assert out.split() == ["00", "10", "01", "11", "02", "21", "12", "22"]

    def test_omega_components(self):
        code, out = run("show", "omega", "-t", STAR)
        assert code == 0
        lines = dict(l.split(":") for l in out.strip().split("\n"))
        assert set(lines["2_"].split()) == {"00", "01", "10", "11", "21"}
        assert set(lines["_2"].split()) == {"00", "01", "02"}
        assert set(lines["1_"].split()) == {"00", "10"}
        assert set(lines["_1"].split()) == {"00", "01"}

    def test_true_map(self):
        code, out = run("show", "true", "-t", STAR)
        assert code == 0
        lines = dict(l.split(": ") for l in out.strip().split("\n"))
        assert lines == {"2_": "21", "1_": "10", "_2": "02", "_1": "01"}

    def test_omega_json_matches_golden(self):
        code, out = run("show", "omega", "--json", "-t", STAR)
        assert code == 0
        assert out == (GOLDEN / "show_omega_star.json").read_text()


class TestChi:
    def test_subterminal_classifier(self):
        code, out = run("chi", "-t", STAR + "\ny { 1_ }")
        assert code == 0
        lines = dict(l.split(": ") for l in out.strip().split("\n"))
        # classifying the pile 10: true exactly where the pile reaches
        assert lines == {"2_": "10", "1_": "10", "_2": "00", "_1": "00"}

    @pytest.mark.parametrize("form", ["text", "json"])
    def test_requires_down_closed_payload(self, form, capsys):
        # the refusal names the down-set as the input readers do
        if form == "text":
            text = "2cg p=2 q=0\ny { 2_ }"
        else:
            poset = {"kind": "2cg", "p": 2, "q": 0, "cross": []}
            text = json.dumps({"poset": poset, "structure": {"kind": "y", "members": ["2_"]}})
        assert run("chi", "-t", text) == (2, "")
        assert capsys.readouterr().err == "error: {2_} is not down-closed\n"

    def test_every_subterminal_classifies_as_the_oracle_chi(self, sweep_classes):
        """On every down-set of every class of the 2x2 sweep, the text and
        the JSON output name at each point the sieve that the oracle's
        ``chi`` of the subterminal inclusion gives."""
        from fourtops.poset import enumerate_downsets

        from .oracles import chi, subterminal_inclusion, terminal_presheaf

        checked = 0
        for poset in sweep_classes:
            arrows = " ".join(f"{u} > {v}" for u, v in sorted(poset.arrows))
            header = f"poset {{ points: {' '.join(poset.points)} ; arrows: {arrows} }}"
            for d in enumerate_downsets(poset):
                g = chi(subterminal_inclusion(terminal_presheaf(poset), d))
                want = {u: set(poset.names_of(g.comp[u]["*"].mask)) for u in poset.points}
                text = f"{header}\ny {{ {' '.join(poset.names_of(d))} }}"
                code, out = run("chi", "-t", text)
                assert code == 0
                rows = (line.split(": ") for line in out.splitlines())
                assert {u: set(filter(None, s.strip("{}").split(","))) for u, s in rows} == want
                code, out = run("chi", "--json", "-t", text)
                assert code == 0
                assert {u: set(s) for u, s in json.loads(out)["result"]["chi"]} == want
                checked += 1
        assert checked == 91


class TestConvertAndFouruple:
    def test_convert_text_mode(self):
        code, out = run("convert", "--from", "y", "--to", "nucleus", "-t", STAR + "\ny { _1 }")
        assert code == 0
        assert out.startswith("nucleus {")
        assert "00 -> 10" in out

    def test_convert_json_golden(self):
        code, out = run(
            "convert", "--from", "y", "--to", "grotop", "--json", "-t", STAR + "\ny { _1 }"
        )
        assert code == 0
        assert out == (GOLDEN / "convert_y_grotop_star.json").read_text()

    def test_json_round_trip_bytes(self, tmp_path):
        code, j1 = run(
            "convert", "--from", "y", "--to", "grotop", "--json", "-t", STAR + "\ny { _1 }"
        )
        assert code == 0
        f1 = tmp_path / "step1.json"
        f1.write_text(j1)
        code, j2 = run("convert", "--from", "grotop", "--to", "y", "--json", "-i", str(f1))
        assert code == 0
        f2 = tmp_path / "step2.json"
        f2.write_text(j2)
        code, j3 = run("convert", "--from", "y", "--to", "grotop", "--json", "-i", str(f2))
        assert code == 0
        assert j3 == j1

    def test_all_pairs_round_trip(self, tmp_path):
        kinds = ["y", "nucleus", "grotop", "lt"]
        base = STAR + "\ny { _1 }"
        for a in kinds:
            for b in kinds:
                if a == b:
                    continue
                code, ja = run("convert", "--from", "y", "--to", a, "--json", "-t", base)
                assert code == 0
                fa = tmp_path / "a.json"
                fa.write_text(ja)
                code, jb = run("convert", "--from", a, "--to", b, "--json", "-i", str(fa))
                assert code == 0
                fb = tmp_path / "b.json"
                fb.write_text(jb)
                code, back = run("convert", "--from", b, "--to", a, "--json", "-i", str(fb))
                assert code == 0
                assert back == ja

    def test_fouruple_from_each_representation(self, tmp_path):
        code, base = run("fouruple", "--from", "y", "--json", "-t", STAR + "\ny { _1 }")
        assert code == 0
        data = json.loads(base)
        for kind in ("nucleus", "grotop", "lt"):
            doc = json.dumps(
                {"poset": data["poset"], "structure": data["result"][kind]},
                sort_keys=True,
            )
            f = tmp_path / "in.json"
            f.write_text(doc)
            code, out = run("fouruple", "--from", kind, "--json", "-i", str(f))
            assert code == 0
            assert json.loads(out) == data

    def test_mismatched_from_flag(self):
        code, _ = run("convert", "--from", "nucleus", "--to", "y", "-t", STAR + "\ny { _1 }")
        assert code == 2

    @pytest.mark.parametrize("members", ["", "_1", "1_ 10_", "3_ 7_ _1"])
    def test_pile_codes_beside_a_tall_column_read_back(self, members, capsys):
        """Beside a column of 10 points a pile code gives each height as many
        digits as its column's height has: each face's text reads back as the
        point set's quad, and a two-digit code is refused."""
        graph = "2cg p=10 q=1"
        code, quad = run("fouruple", "--from", "y", "-t", f"{graph}\ny {{ {members} }}")
        assert code == 0 and "nucleus { 000 -> " in quad
        for kind in ("nucleus", "grotop", "lt"):
            code, text = run("convert", "--from", "y", "--to", kind, "-t", f"{graph}\ny {{ {members} }}")
            assert code == 0
            assert run("fouruple", "--from", kind, "-t", f"{graph}\n{text}") == (0, quad), kind
        capsys.readouterr()
        assert run("fouruple", "--from", "nucleus", "-t", f"{graph}\nnucleus {{ 00 -> 10 }}") == (2, "")
        assert "expected a three-digit pile code, found '00'" in capsys.readouterr().err

    def test_render_labels_beside_a_tall_column_are_the_pile_codes(self):
        """Each label ``render zha`` prints, read back to its pile from where
        it stands, is the code ``show h`` prints for that pile, and the
        panels draw three-character labels."""
        graph = TwoColumnGraph(10, 1)
        code, zha = run("render", "zha", "-t", "2cg p=10 q=1")
        assert code == 0
        labels = []
        for y, line in enumerate(zha.split("\n")):
            for found in re.finditer(r"\d+", line):
                # pile (a, b) stands at row p + q - (a + b), column (b - a + p) * 2
                height, shift = 11 - y, found.start() // 2 - 10
                a, b = (height - shift) // 2, (height + shift) // 2
                assert found.group() == pile_code_str(graph, DownSet(graph.poset(), graph.pile_mask(a, b)))
                labels.append(found.group())
        code, h = run("show", "h", "-t", "2cg p=10 q=1")
        assert code == 0 and sorted(labels) == sorted(h.split()) and "091" in labels
        for what in ("omega", "j", "grotop", "fouruple"):
            assert run("render", what, "-t", "2cg p=10 q=1\ny { 1_ }")[0] == 0, what


class TestEnumerate:
    def test_oracle_nuclei_count(self):
        code, out = run("enumerate", "nuclei", "--mode", "oracle", "-t", STAR)
        assert code == 0
        assert out.split("\n")[0] == "16"

    def test_oracle_json_golden(self):
        code, out = run(
            "enumerate", "nuclei", "--mode", "oracle", "--json", "-t", STAR
        )
        assert code == 0
        assert out == (GOLDEN / "enumerate_nuclei_oracle_star.json").read_text()

    @pytest.mark.parametrize("family", ["grotops", "lttops"])
    @pytest.mark.parametrize(
        "name, text",
        [("star", STAR), ("cone5", "poset { points: a b c d e ; arrows: e > a e > b e > c e > d }")],
    )
    def test_oracle_text_golden(self, family, name, text):
        # the text census lists the structures in the search's sorted order
        code, out = run("enumerate", family, "--mode", "oracle", "-t", text)
        assert code == 0
        assert out == (GOLDEN / f"enumerate_{family}_oracle_{name}.txt").read_text()

    def test_modes_agree(self):
        _, a = run("enumerate", "lttops", "--mode", "oracle", "--json", "-t", STAR)
        _, b = run("enumerate", "lttops", "--mode", "formula", "--json", "-t", STAR)
        assert a == b


def _wrong_off_the_empty_set(monkeypatch):
    """Patch ``grotop_to_lt_direct`` to give the bottom endomap for every
    point set but the empty one, so the round trips fail on 15 of 16."""
    from fourtops import convert
    from fourtops.poset import LTTopology, sieves_on

    right = convert.grotop_to_lt_direct

    def wrong(j):
        if not convert.grotop_to_point_set(j):
            return right(j)
        P = j.poset
        return LTTopology(P, tuple((0,) * len(sieves_on(P, u)) for u in P.points))

    monkeypatch.setattr(convert, "grotop_to_lt_direct", wrong)


class TestCheck:
    def test_conjectures_all_agree(self):
        code, out = run("check", "conjectures", "-t", STAR)
        assert code == 0
        assert "16/16" in out

    def test_conjectures_json_golden(self):
        code, out = run("check", "conjectures", "--json", "-t", STAR)
        assert code == 0
        assert out == (GOLDEN / "check_conjectures_star.json").read_text()

    def test_topmost(self):
        code, out = run("check", "topmost", "-t", STAR)
        assert code == 0

    def test_axioms_with_reduced_universe(self):
        code, out = run("check", "axioms", "--cap", "150", "-t", STAR)
        assert code == 0
        assert "16/16" in out

    def test_roundtrips(self):
        code, out = run("check", "roundtrips", "-t", STAR)
        assert code == 0

    def test_a_report_that_fails_on_some_point_sets_is_written_whole(self, monkeypatch):
        _wrong_off_the_empty_set(monkeypatch)
        for extra, ext in (((), "txt"), (("--json",), "json")):
            code, out = run("check", "roundtrips", *extra, "-t", STAR)
            assert code == 1
            assert out == (GOLDEN / f"check_roundtrips_failing_star.{ext}").read_text()

    def test_only_a_failing_point_set_is_labelled(self, monkeypatch):
        from fourtops.routes import check_routes

        P = parse_input(STAR).poset
        calls = []
        braced = Poset.braced
        monkeypatch.setattr(Poset, "braced", lambda self, mask: calls.append(mask) or braced(self, mask))
        assert all(r.ok for r in check_routes(P)) and calls == []
        _wrong_off_the_empty_set(monkeypatch)
        reports = check_routes(P)
        failing = [label for r in reports for label, _ in r.counterexamples]
        assert len(failing) == len(calls) == 15
        assert failing == ["y=" + braced(P, m) for m in calls]


class TestRenderCommand:
    def test_zha_golden(self):
        code, out = run("render", "zha", "-t", STAR)
        assert code == 0
        assert out == (GOLDEN / "render_zha_star.txt").read_text()

    def test_omega_golden(self):
        code, out = run("render", "omega", "-t", STAR)
        assert code == 0
        assert out == (GOLDEN / "render_omega_star.txt").read_text()

    def test_fouruple_golden_and_stable(self):
        argv = ("render", "fouruple", "-t", STAR + "\ny { _1 }")
        code1, out1 = run(*argv)
        code2, out2 = run(*argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1 == (GOLDEN / "render_fouruple_star.txt").read_text()

    def test_render_needs_2cg(self):
        code, _ = run("render", "zha", "-t", "poset { points: a; arrows: }")
        assert code == 2


class TestSweep:
    def test_cross_configurations_star_family(self):
        configs = cross_configurations(2, 2)
        assert frozenset() in configs
        assert frozenset({("2_", "_1")}) in configs
        for cross in configs:
            # all configurations are acyclic by construction
            from fourtops.poset import TwoColumnGraph

            TwoColumnGraph(2, 2, cross).poset()

    @pytest.mark.parametrize(
        "p, q", [(p, q) for p in range(3) for q in range(3)] + [(2, 3), (3, 2)]
    )
    def test_cross_configurations_equal_the_literal_list(self, p, q):
        assert cross_configurations(p, q) == cross_configurations_literal(p, q)

    def test_small_sweep_golden(self):
        code, out = run("sweep", "--pmax", "1", "--qmax", "1", "--json")
        assert code == 0
        assert out == (GOLDEN / "sweep_1_1.json").read_text()

    def test_small_sweep_text(self):
        code, out = run("sweep", "--pmax", "1", "--qmax", "0")
        assert code == 0
        assert out.strip().endswith("instances ok")


class TestSweepInstance:
    def test_makes_no_formula_enumerator_call(self, monkeypatch):
        from fourtops import census

        modes = []
        for name in ("enumerate_nuclei", "enumerate_grotops", "enumerate_lts"):
            def recorded(target, mode="formula", _fn=getattr(census, name), **kwargs):
                modes.append(mode)
                return _fn(target, mode, **kwargs)

            monkeypatch.setattr(census, name, recorded)
            monkeypatch.setattr(sweep, name, recorded)
        result = sweep_instance(TwoColumnGraph(2, 2, {("2_", "_1")}), 6)
        assert result["ok"]
        assert modes == ["oracle"] * 3

    def test_a_wrong_point_set_to_grotop_fails_the_grotop_census(self, monkeypatch):
        from fourtops import convert

        right = convert.point_set_to_grotop
        monkeypatch.setattr(convert, "point_set_to_grotop", lambda poset, kept: right(poset, 0))
        result = sweep_instance(TwoColumnGraph(2, 2, {("2_", "_1")}), 6)
        assert result["census"] == {"nuclei": True, "grotops": False, "lts": True}
        assert not result["ok"]

    def test_a_conversion_that_raises_is_a_counterexample_not_an_error(self, monkeypatch):
        from fourtops import convert
        from fourtops.errors import FunctorialityError

        def raises(clop):
            raise FunctorialityError("not a sub-presheaf")

        monkeypatch.setattr(convert, "j_from_closure", raises)
        code, out = run("check", "roundtrips", "-t", STAR)
        assert code == 1
        assert "round trips: 0/16 agree" in out
        assert "counterexample at y={}: stopped by FunctorialityError: not a sub-presheaf" in out
        code, out = run("check", "conjectures", "-t", STAR)
        assert code == 1
        assert "truncation route: 16/16 agree" in out
        assert "closure route: 0/16 agree" in out


def sweep_graphs(qmax):
    """Every configuration of ``sweep --pmax 2 --qmax <qmax>``, in sweep order."""
    return [
        TwoColumnGraph(p, q, cross)
        for p in range(3)
        for q in range(qmax + 1)
        for cross in cross_configurations(p, q)
    ]


@pytest.fixture(scope="module")
def literal_2x3():
    """``sweep_instance`` on each distinct labelled poset of the 2x3 sweep."""
    out = {}
    for graph in sweep_graphs(3):
        poset = graph.poset()
        key = (poset.points, poset._down)
        if key not in out:
            out[key] = sweep_instance(graph, 6)
    return out


class TestSweepByIsomorphism:
    """The sweep computes one instance per isomorphism class and reports it
    for every configuration of the class."""

    def entries(self, qmax):
        code, out = run("sweep", "--pmax", "2", "--qmax", str(qmax), "--json")
        assert code == 0
        return json.loads(out)["result"]["instances"]

    @staticmethod
    def entry(graph, result):
        cross = sorted([u, v] for (u, v) in graph.cross)
        return {"p": graph.p, "q": graph.q, "cross": cross, **result}

    def test_2x2_entries_equal_each_configurations_own_graph(self):
        graphs = sweep_graphs(2)
        entries = self.entries(2)
        assert len(entries) == len(graphs) == 76
        for graph, entry in zip(graphs, entries):
            assert entry == self.entry(graph, sweep_instance(graph, 6))

    def test_2x3_entries_equal_each_labelled_poset(self, literal_2x3):
        # configurations with one labelled poset share its down-set table,
        # which is all an instance reads
        graphs = sweep_graphs(3)
        entries = self.entries(3)
        assert len(entries) == len(graphs) == 401
        assert len(literal_2x3) == 101
        for graph, entry in zip(graphs, entries):
            poset = graph.poset()
            assert entry == self.entry(graph, literal_2x3[(poset.points, poset._down)])

    @pytest.mark.parametrize("qmax, classes", [(2, 17), (3, 43)])
    def test_one_instance_per_isomorphism_class(self, qmax, classes, monkeypatch):
        # each fake result names the graph it was computed on, so the classes
        # are read back from the entries wherever they were computed: no two
        # of those graphs may be isomorphic, and each entry's poset must be
        # isomorphic to the one its result came from.  With one CPU every
        # call is made here; with two, this process makes share 0's.
        calls = []

        def record(graph, cap):
            calls.append(graph)
            return {"ok": True, "rep": [graph.p, graph.q, sorted(graph.cross)]}

        monkeypatch.setattr(sweep, "sweep_instance", record)
        for cpus, here in ((1, classes), (2, (classes + 1) // 2)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            calls.clear()
            entries = self.entries(qmax)
            assert len(calls) == here
            reps = list(dict.fromkeys(json.dumps(e["rep"]) for e in entries))
            assert len(reps) == classes
            computed = [
                TwoColumnGraph(p, q, frozenset(map(tuple, cross)))
                for p, q, cross in map(json.loads, reps)
            ]
            orbits = [brute_relabellings(g.poset()._down) for g in computed]
            for a, graph in enumerate(computed):
                assert [b for b, orbit in enumerate(orbits) if graph.poset()._down in orbit] == [a]
            for graph, entry in zip(sweep_graphs(qmax), entries):
                assert graph.poset()._down in orbits[reps.index(json.dumps(entry["rep"]))]


def _allow_cpus(monkeypatch, cpus: int) -> list:
    """Let the sweep see ``cpus`` allowed CPUs; the list records each fork."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(cpus) or fork())
    return forks


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepOnWorkers:
    """The classes are computed on one forked worker per allowed CPU (faked
    here, at most 3), with the same output as in one process."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_the_output_does_not_depend_on_the_cpus(self, cpus, monkeypatch):
        import hashlib

        config = json.loads((GOLDEN.parents[1] / "perfbench" / "config.json").read_text())
        commands = config["workloads"]["sweep-2x2"]["commands"]
        (pinned,) = [c["sha256"] for c in commands if c["name"] == "sweep"]
        forks = _allow_cpus(monkeypatch, cpus)
        assert run("sweep", "--pmax", "1", "--qmax", "1", "--json") == (
            0, (GOLDEN / "sweep_1_1.json").read_text()
        )
        code, out = run("sweep", "--pmax", "2", "--qmax", "2", "--json")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == pinned
        assert len(forks) == 2 * (cpus - 1)
        _no_child_is_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_an_error_in_a_worker_is_the_sweeps_error(self, cpus, monkeypatch, capsys):
        from fourtops.errors import SizeCapExceeded

        def refuse(graph, cap):
            # the one-point poset is class 1, in worker 1's share
            if graph.p + graph.q == 1:
                raise SizeCapExceeded(f"refused p={graph.p} q={graph.q}")
            return {"ok": True}

        forks = _allow_cpus(monkeypatch, cpus)
        monkeypatch.setattr(sweep, "sweep_instance", refuse)
        assert run("sweep", "--pmax", "2", "--qmax", "2", "--json") == (2, "")
        assert capsys.readouterr().err == "error: refused p=0 q=1\n"
        assert len(forks) == cpus - 1
        _no_child_is_left()

    def test_an_error_in_the_parent_kills_the_workers(self, monkeypatch, capsys):
        from fourtops.errors import SizeCapExceeded

        tester, slept = os.getpid(), []

        def refuse(graph, cap):
            # the empty poset is class 0, in the parent's share; each worker
            # would take 30 s over its first class unless it is killed
            if os.getpid() != tester and not slept:
                slept.append(graph)
                time.sleep(30)
            if graph.p + graph.q == 0:
                raise SizeCapExceeded("refused the empty poset")
            return {"ok": True}

        _allow_cpus(monkeypatch, 3)
        monkeypatch.setattr(sweep, "sweep_instance", refuse)
        start = time.perf_counter()
        assert run("sweep", "--pmax", "2", "--qmax", "2") == (2, "")
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().err == "error: refused the empty poset\n"
        _no_child_is_left()

    def test_a_worker_that_dies_without_a_result_is_named(self, monkeypatch, capsys):
        tester = os.getpid()

        def die(graph, cap):
            if graph.p + graph.q == 1:
                assert os.getpid() != tester
                os._exit(3)
            return {"ok": True}

        _allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(sweep, "sweep_instance", die)
        assert run("sweep", "--pmax", "2", "--qmax", "2", "--json") == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: sweep worker 1 (pid ") and err.endswith(" gave no result, exit 3\n")
        _no_child_is_left()

    def test_a_process_with_another_thread_forks_nothing(self, monkeypatch):
        def refuse_to_fork():
            raise AssertionError("forked while another thread ran")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", refuse_to_fork)
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            code, out = run("sweep", "--pmax", "1", "--qmax", "1", "--json")
        finally:
            done.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert (code, out) == (0, (GOLDEN / "sweep_1_1.json").read_text())


MALFORMED = {
    "text-height-not-a-number": "2cg p=x q=1",
    "json-poset-lacks-q": '{"poset": {"kind": "2cg", "p": 1}}',
    "json-negative-height": '{"poset": {"kind": "2cg", "p": -1, "q": 1}}',
    "json-y-lacks-members": (
        '{"poset": {"kind": "2cg", "p": 1, "q": 1}, "structure": {"kind": "y"}}'
    ),
    "json-covers-entry-not-a-pair": (
        '{"poset": {"kind": "poset", "points": ["a"], "arrows": []},'
        ' "structure": {"kind": "grotop", "covers": [["a", [["a"]]], 5]}}'
    ),
    "json-lt-value-outside-down-u": (
        '{"poset": {"kind": "2cg", "p": 1, "q": 1}, "structure": {"kind": "lt", "table":'
        ' [["1_", [[[], []], [["1_"], ["_1"]]]], ["_1", [[[], []], [["_1"], ["_1"]]]]]}}'
    ),
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_usage_error(text, capsys):
    code = main(["convert", "--from", "y", "--to", "lt", "-t", text], out=io.StringIO())
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def _json_doc(poset: dict, structure: dict | None = None) -> str:
    return json.dumps({"poset": poset, **({"structure": structure} if structure else {})})


AB = {"kind": "poset", "points": ["a", "b", "ab"], "arrows": []}
ILL_TYPED = {
    # each was read without complaint: "ab" as the points a and b, true and
    # 1.9 as heights 1, and 1 next to "1" as two points whose JSON output
    # could not be read back
    "members-string-names-a-point": (_json_doc(AB, {"kind": "y", "members": "ab"}), "members"),
    "heights-bool-and-float": (_json_doc({"kind": "2cg", "p": True, "q": 1.9}), "p"),
    "points-int-and-str": (
        _json_doc({"kind": "poset", "points": [1, "1"], "arrows": []}),
        "points",
    ),
    # one case per rule
    "points-not-a-list": (_json_doc({"kind": "poset", "points": "ab", "arrows": []}), "points"),
    "arrows-not-a-list": (_json_doc({**AB, "arrows": {"a": "b"}}), "arrows"),
    "cross-not-a-list": (_json_doc({"kind": "2cg", "p": 1, "q": 1, "cross": "x"}), "cross"),
    "members-not-a-list": (_json_doc(AB, {"kind": "y", "members": 5}), "members"),
    "table-not-a-list": (_json_doc(AB, {"kind": "nucleus", "table": {}}), "table"),
    "covers-not-a-list": (_json_doc(AB, {"kind": "grotop", "covers": "a"}), "covers"),
    "point-name-not-a-string": (_json_doc(AB, {"kind": "y", "members": [1]}), "members"),
    "arrow-not-a-pair": (_json_doc({**AB, "arrows": [["ab", "a", "b"]]}), "arrows"),
    "height-not-an-int": (_json_doc({"kind": "2cg", "p": 1, "q": "2"}), "q"),
}


@pytest.mark.parametrize("text, field", ILL_TYPED.values(), ids=ILL_TYPED.keys())
def test_ill_typed_json_is_refused_at_the_boundary(text, field, capsys):
    assert run("show", "h", "-t", text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: JSON {field!r} must ") and err.count("\n") == 1
    assert "Traceback" not in err


SELF_ARROW = {
    "text": "poset { points: a b ; arrows: a > a a > b }",
    "json": _json_doc({"kind": "poset", "points": ["a", "b"], "arrows": [["a", "a"], ["a", "b"]]}),
}


@pytest.mark.parametrize("text", SELF_ARROW.values(), ids=SELF_ARROW.keys())
def test_a_self_arrow_is_refused_by_both_readers(text, capsys):
    """A self-arrow is a cycle: exit 2 with one error line, not an IndexError
    out of the oracle search and exit 1, the counterexample code."""
    assert run("enumerate", "lttops", "--mode", "oracle", "-t", text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: self-arrow on 'a'") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("render", "zha", "--json"),
        ("render", "zha", "--cap", "3"),
        ("show", "h", "--render"),
        ("show", "omega", "--render"),
        ("fouruple", "--from", "y", "--render"),
        ("show", "h", "--cap", "3"),
        ("chi", "--cap", "3"),
        ("convert", "--from", "y", "--to", "lt", "--cap", "3"),
        ("fouruple", "--from", "y", "--cap", "3"),
        ("enumerate", "nuclei", "--cap", "0"),
    ],
    ids=" ".join,
)
def test_removed_flags_are_refused(argv):
    assert run(*argv, "-t", STAR + "\ny { _1 }")[0] == 2


@pytest.mark.parametrize("what", ["conjectures", "topmost", "roundtrips"])
def test_check_cap_is_refused_where_it_is_not_read(what, capsys):
    assert run("check", what, "--cap", "5000", "-t", STAR)[0] == 2
    assert capsys.readouterr().err.startswith("error: --cap")


@pytest.mark.parametrize("cap, code", [("3", 2), ("4", 0)])
def test_enumerate_oracle_still_reads_cap(cap, code, capsys):
    assert run("enumerate", "nuclei", "--mode", "oracle", "--cap", cap, "-t", STAR)[0] == code
    err = capsys.readouterr().err
    assert err == ("error: oracle nucleus enumeration capped at 3 points\n" if code else "")


def test_oracle_nuclei_over_the_cap_build_no_downset(capsys):
    """The point cap is read before the down-set algebra is built: on a
    16-point antichain (65,536 down-sets) the refusal enumerates none."""
    from fourtops.poset import enumerate_downsets

    antichain = "poset { points: " + " ".join(f"p{i}" for i in range(16)) + " ; arrows: }"
    before = enumerate_downsets.cache_info().misses
    assert run("enumerate", "nuclei", "--mode", "oracle", "-t", antichain) == (2, "")
    assert capsys.readouterr().err == "error: oracle nucleus enumeration capped at 6 points\n"
    assert enumerate_downsets.cache_info().misses == before


def test_check_axioms_enumerates_the_downsets_once():
    """``H`` and the closure-law universe share one cache entry for the
    poset's down-sets, and the classifier's subobjects add none; H's index
    is built once on them."""
    from fourtops.poset import downset_positions, enumerate_downsets

    enumerate_downsets.cache_clear()
    downset_positions.cache_clear()
    assert run("check", "axioms", "-t", STAR)[0] == 0
    info = enumerate_downsets.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    info = downset_positions.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def _cli_env(block_buffered: bool = False) -> dict:
    """The environment of a fresh ``python -m fourtops.cli`` child, with the
    package's sources on the path.  ``block_buffered`` drops
    ``PYTHONUNBUFFERED``, so the child's piped stdout keeps its last block
    until the CLI flushes it; otherwise it is set, whatever this process has."""
    import fourtops

    env = dict(os.environ)
    if block_buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(pathlib.Path(fourtops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli_child(*argv, block_buffered: bool = False):
    """``python -m fourtops.cli argv`` in a fresh child; its completed process,
    with stdout as bytes and stderr as text."""
    import subprocess
    import sys

    got = subprocess.run(
        [sys.executable, "-m", "fourtops.cli", *argv],
        env=_cli_env(block_buffered), capture_output=True, timeout=60,
    )
    got.stderr = got.stderr.decode()
    return got


# the oracle nucleus census of the 6-point antichain: about 915 KB in one write
CENSUS6 = ("enumerate", "nuclei", "--mode", "oracle", "--json", "-t", "poset { points: a b c d e f ; arrows: }")


@pytest.mark.parametrize(
    "argv, block_buffered, read",
    [
        (("enumerate", "nuclei", "-t", STAR), False, 0),
        (("enumerate", "nuclei", "-t", STAR), True, 0),
        # argparse writes the help text, so only the exit path's flush meets the closed pipe
        (("--help",), True, 0),
        # the reader takes one byte of a write larger than the pipe holds
        (CENSUS6, False, 1),
        (CENSUS6, True, 1),
    ],
    ids=[
        "unbuffered",
        "block-buffered",
        "help-block-buffered",
        "partial-read-unbuffered",
        "partial-read-block-buffered",
    ],
)
def test_closed_pipe_is_a_usage_error_without_a_traceback(argv, block_buffered, read):
    """A reader that closes the pipe early, before it reads or after its
    first bytes, gets exit 2 and one error line."""
    import subprocess
    import sys

    child = subprocess.Popen(
        [sys.executable, "-m", "fourtops.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(block_buffered),
    )
    assert len(child.stdout.read(read)) == read
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_a_block_buffered_census_is_written_in_full():
    """With stdout block-buffered, the 6-point antichain's oracle nucleus
    census (about 915 KB) still reaches its reader whole: the bytes match
    the sha256 that perfbench/config.json pins."""
    import hashlib

    config = json.loads((GOLDEN.parents[1] / "perfbench" / "config.json").read_text())
    census = config["workloads"]["census-oracle"]
    (command,) = [c for c in census["commands"] if c["name"] == "nuclei/antichain6"]
    poset = census["posets"][command["poset"]]
    arrows = " ".join(f"{u} > {v}" for u, v in poset["arrows"])
    text = f"poset {{ points: {' '.join(poset['points'])} ; arrows: {arrows} }}"
    got = _cli_child(*command["argv"], "-t", text, block_buffered=True)
    assert (got.returncode, got.stderr) == (0, "")
    assert hashlib.sha256(got.stdout).hexdigest() == command["sha256"]


def test_block_buffered_help_and_usage_errors_match_main(capsys):
    """``--help`` exits 0 with the stdout that ``main`` prints in process; an
    unknown subcommand exits 2 with argparse's usage on stderr."""
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    got = _cli_child("--help", block_buffered=True)
    assert (got.returncode, got.stdout.decode(), got.stderr) == (0, help_text, "")

    assert main(["frobnicate"]) == 2
    usage = capsys.readouterr().err
    assert usage.startswith("usage: fourtops") and "invalid choice: 'frobnicate'" in usage
    got = _cli_child("frobnicate", block_buffered=True)
    assert (got.returncode, got.stdout, got.stderr) == (2, b"", usage)


# the command lines the tests give, one list per subcommand, input text as
# STAR: each parses without error, and the table reads it as argparse does
VALID_ARGS = {
    "show": [["h", "-t", STAR], ["omega", "--json", "-t", STAR], ["true", "-t", STAR]],
    "chi": [["--json"], ["-t", STAR], ["--json", "-t", STAR]],
    "convert": [
        ["--from", "y", "--to", "lt", "-i", "-"],
        ["--from", "y", "--to", "grotop", "--json", "-t", STAR],
        ["--from", "grotop", "--to", "grotop", "--json", "-i", "-"],
        ["--from", "y", "--to", "lt", "-i", STAR, "-t", STAR],
    ],
    "fouruple": [["--from", "grotop"], ["--from", "y", "-t", STAR], ["--from", "nucleus", "--json", "-t", STAR]],
    "enumerate": [
        ["lttops", "--mode", "oracle", "--cap", "3"],
        ["nuclei", "-t", ""],
        ["nuclei", "--json", "-t", STAR],
        ["grotops", "--mode", "oracle", "--json", "-t", STAR],
        ["nuclei", "--mode", "oracle", "--cap", "-1", "-t", STAR],
        ["lttops", "--mode", "oracle", "--json", "--cap", "-3", "-t", STAR],
        ["nuclei", "--cap", "0", "-t", STAR],
    ],
    "check": [
        ["axioms", "--cap", "7", "--json"],
        ["axioms", "--json", "-t", STAR],
        ["axioms", "--cap", "100000", "-t", STAR],
        ["conjectures", "--json", "-t", STAR],
        ["topmost", "--cap", "5000", "-t", STAR],
        ["roundtrips", "-t", STAR],
    ],
    "render": [["zha", "-t", STAR], ["fouruple", "-t", STAR], ["j", "-i", "-"]],
    "sweep": [
        ["--pmax", "1", "--qmax", "0", "--json"],
        ["--pmax", "2", "--qmax", "2", "--json"],
        ["--pmax", "4", "--qmax", "3"],
        ["--pmax", "-1", "--qmax", "2"],
        ["--pmax", "3", "--qmax", "3", "--json", "--cap", "-3"],
        [],
    ],
}


def _parse_outcome(parser, argv):
    """The namespace ``parser`` reads from ``argv``, or its exit code, with
    what it printed on stdout and on stderr."""
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


def _subcommands_built(parser):
    return list(next(a for a in parser._actions if a.dest == "command").choices)


@pytest.mark.parametrize("command", sorted(VALID_ARGS))
def test_the_named_subparser_alone_parses_as_the_full_parser(command):
    """The parser builds every subcommand, and the table reads each valid
    line of ``command`` as the namespace argparse gives it."""
    from fourtops.cli import build_parser, read_command_line

    parser = build_parser()
    assert _subcommands_built(parser) == list(VALID_ARGS)
    for rest in VALID_ARGS[command]:
        argv = [command, *rest]
        result, out, err = _parse_outcome(parser, argv)
        assert result["command"] == command and (out, err) == ("", "")
        assert vars(read_command_line(argv)) == result, argv


def _documented_command_lines():
    """The CLI's command lines in the CI workflow but its help runs, README's
    examples and the benchmark's commands, with each input text as STAR."""
    import re
    import shlex

    root = GOLDEN.parents[1]
    lines = []
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    for rest in re.findall(r"python (?:-X importtime )?-m fourtops\.cli (.*)", workflow):
        # the one loop variable, a census family; every other variable is input
        rest = re.sub(r"\$\{?\w+\}?", "STAR", rest.replace("$family", "grotops"))
        rest = re.split(r" \|\|? ", rest)[0]
        words = shlex.split(rest.rstrip(" \\"))
        stop = next((i for i, w in enumerate(words) if w in ("2>", ">")), len(words))
        # help is argparse's to print
        if not any(w.startswith(("-h", "--h")) for w in words):
            lines.append(words[:stop])
    readme = (root / "README.md").read_text()
    examples = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines += [shlex.split(line) for line in re.split(r"\n(?=fourtops )", examples.strip())]
    config = json.loads((root / "perfbench" / "config.json").read_text())
    for workload in config["workloads"].values():
        lines += [[*c["argv"], *(["-t", STAR] if "poset" in c else [])] for c in workload["commands"]]
    lines = [line[1:] if line[0] == "fourtops" else line for line in lines]
    return [[STAR if w.startswith(("2cg", "poset")) else w for w in line] for line in lines]


def test_every_documented_command_line_is_read_by_the_table():
    """The table reads every command line of the CI workflow, README and the
    benchmark as argparse does, so none of them imports argparse."""
    from fourtops.cli import build_parser, read_command_line

    lines = _documented_command_lines()
    assert len(lines) > 30
    for argv in lines:
        result, out, err = _parse_outcome(build_parser(), argv)
        assert isinstance(result, dict) and (out, err) == ("", ""), argv
        assert vars(read_command_line(argv)) == result, argv


def _table_words(command):
    """Words of a command line, half of them from ``command``'s own grammar:
    option spellings (also as ``--opt=v`` and ``-tV``), long prefixes
    (ambiguous ones too), choices, ints, bogus words, help and ``--``."""
    from fourtops.cli import GRAMMAR

    def words(grammars):
        rows = [row for _, rows in grammars for row in rows]
        choices = {c for row in rows if isinstance(row[2], tuple) for c in row[2]}
        return sorted({s for row in rows for s in row[0]}), sorted(choices)

    spellings, choices = words(GRAMMAR.values())
    own_spellings, own_choices = words([GRAMMAR[command]] if command in GRAMMAR else [])
    prefixes = ["--mo", "--pm", "--q", "--t", "--te", "--f", "--j", "--in", "--c", "--ca", "--h", "--he", "---x"]
    ints = ["3", "0", "-3", "+3", "\u0663", "-\u0663", " 3", "3.5", "-1.5", "-3\n", "x3", "-1x", "3_0"]
    bogus = ["bogus", "", "-", "-x", "-h", "--help", "--", "- x", "--text x", STAR]
    values = st.sampled_from([*choices, *ints, *bogus])
    everything = st.one_of(
        st.sampled_from([*GRAMMAR, *spellings, *prefixes, *choices, *ints, *bogus]),
        st.builds("{}={}".format, st.sampled_from(spellings + prefixes), values),
        st.builds(str.__add__, st.sampled_from(["-t", "-i", "-h"]), values),
    )
    if not own_spellings:
        return everything
    own = st.sampled_from([*own_spellings, *own_choices, "3", "-3", "0", "-", STAR])
    return st.one_of(own, everything)


def _left_to_argparse(argv):
    """The command lines argparse may accept that the table leaves to it:
    ones with ``--``, as a word or as an option's attached value (the CLI's
    argparse refuses that where it reads an empty list or ``--``, as Python
    3.11 does, but another version may read it otherwise), and ones where a
    word that starts with '-' and is neither '-' nor a negative integer is a
    value: one with a space, or one that starts like a negative number
    (``-1.5``, ``-3\\n``, and from Python 3.13 ``-1x``).  Which such words
    argparse reads as values differs between Python versions, and no command
    line of the tests, CI, README or benchmark holds one."""
    import re

    return any(re.fullmatch(r"(-[it]=?|--[a-z]+=)?--", w) or re.match(r"-(.* |\.?\d)", w, re.S) for w in argv)


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_the_table_reads_a_command_line_as_argparse_does(data):
    """Where the table reads a command line, it gives argparse's namespace;
    where it does not, argparse refuses it or prints help, and ``main`` gives
    argparse's exit code, stdout and stderr, or the command line is one that
    ``_left_to_argparse`` names."""
    import contextlib

    from fourtops.cli import build_parser, read_command_line

    first = data.draw(st.sampled_from([*VALID_ARGS, "bogus", "-h", "--", "-t"]))
    # words put anywhere into nothing or one of the valid lines
    rest = list(data.draw(st.sampled_from([[], *VALID_ARGS.get(first, [])])))
    for word in data.draw(st.lists(_table_words(first), max_size=5)):
        rest.insert(data.draw(st.integers(0, len(rest))), word)
    argv = [first, *rest]
    result, out, err = _parse_outcome(build_parser(), argv)
    args = read_command_line(argv)
    if args is not None:
        assert vars(args) == result and (out, err) == ("", ""), argv
    elif isinstance(result, dict):
        assert _left_to_argparse(argv), argv
    else:
        got_out, got_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(got_out), contextlib.redirect_stderr(got_err):
            code = main(argv, out=io.StringIO())
        assert (code, got_out.getvalue(), got_err.getvalue()) == (2 if result else 0, out, err), argv


def _attached_double_dash_lines():
    """Each option row of every subcommand given an attached ``--``, as
    ``--opt=--`` for a long spelling and ``-x--`` for a short one, after one
    of the subcommand's valid lines."""
    from fourtops.cli import GRAMMAR

    for command, (_, rows) in GRAMMAR.items():
        for spellings, *_ in rows:
            for spelling in spellings:
                word = spelling + ("=--" if spelling.startswith("--") else "--")
                yield [command, *VALID_ARGS[command][0], word]


@pytest.mark.parametrize("argv", list(_attached_double_dash_lines()), ids=" ".join)
def test_an_attached_double_dash_is_a_usage_error(argv, capsys):
    """argparse on Python 3.11 reads ``--cap=--`` and ``-t--`` as an empty
    list; the CLI refuses them with its usage and one error line, exit 2,
    where a handler once met the list and ended in a traceback."""
    assert main(argv, out=io.StringIO()) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"usage: fourtops {argv[0]} ") and err.count("error:") == 1
    assert err.splitlines()[-1].startswith(f"fourtops {argv[0]}: error: argument ")


def test_every_argument_has_a_help_line(capsys):
    """Each subcommand's ``-h`` describes every row of its grammar: options
    and positionals alike."""
    from fourtops.cli import GRAMMAR

    for command, (_, rows) in GRAMMAR.items():
        assert main([command, "-h"]) == 0
        shown = " ".join(capsys.readouterr().out.split())
        for row in rows:
            assert row[5] and " ".join(row[5].split()) in shown, (command, row[1])


def test_the_fourtops_script_ends_through_run():
    """The installed ``fourtops`` script enters the CLI where ``python -m
    fourtops.cli`` does: ``run``, not ``main``."""
    import importlib
    import re

    from fourtops import cli

    pyproject = (GOLDEN.parents[1] / "pyproject.toml").read_text()
    module, name = re.search(r'^fourtops = "(.+):(.+)"$', pyproject, re.M).groups()
    assert getattr(importlib.import_module(module), name) is cli.run


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_an_unreadable_input_file_is_a_usage_error(kind, tmp_path):
    """``-i`` naming a missing file, a directory or a file that is not UTF-8
    gives exit 2 and one error line, not a traceback and the counterexample
    code."""
    path = tmp_path / "input.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b"poset { points: a\xff ; arrows: }")
    got = _cli_child("show", "omega", "-i", str(path))
    assert (got.returncode, got.stdout) == (2, b"")
    assert "Traceback" not in got.stderr
    assert got.stderr.startswith("error:") and got.stderr.count("\n") == 1


POINT = "poset { points: a ; arrows: }"


@pytest.mark.parametrize("text", ["", " "], ids=["empty", "blank"])
def test_an_empty_text_input_is_refused_and_stdin_is_not_read(text, monkeypatch, capsys):
    """``-t ''`` gives the input, so it is refused as empty; the valid poset
    on stdin, which ``-t`` was given in place of, is not read."""
    import sys

    monkeypatch.setattr("sys.stdin", io.StringIO(POINT))
    assert run("enumerate", "nuclei", "-t", text) == (2, "")
    assert capsys.readouterr().err == "error: empty input\n"
    assert sys.stdin.read() == POINT


@pytest.mark.parametrize("file", ["missing", "-"])
@pytest.mark.parametrize("text_first", [True, False], ids=["t-then-i", "i-then-t"])
def test_text_and_input_file_together_are_refused_before_either_is_read(
    file, text_first, tmp_path, monkeypatch, capsys
):
    """The input comes from ``-t`` or ``-i``, or from stdin when neither is
    given: both at once exit 2 with one error line, whichever comes first,
    and neither is read (the missing file would be a read error)."""
    import sys

    monkeypatch.setattr("sys.stdin", io.StringIO(POINT))
    path = str(tmp_path / "missing.txt") if file == "missing" else file
    flags = [["-t", POINT], ["-i", path]]
    argv = ["enumerate", "nuclei", *flags[not text_first], *flags[text_first]]
    assert run(*argv) == (2, "")
    assert capsys.readouterr().err == "error: give the input with -t or with -i, not both\n"
    assert sys.stdin.read() == POINT


@pytest.mark.parametrize("argv", [("show", "omega"), ("chi",)])
def test_sieve_enumeration_is_refused_over_the_point_cap(argv):
    """On a 23-point cone (one top over 22 points) the top has 2^22 sieves:
    the classifier commands exit 2 at once with one error line, as the
    enumerators do."""
    import os
    import subprocess
    import sys

    import fourtops

    below = [f"p{i}" for i in range(22)]
    arrows = " ".join(f"t > {p}" for p in below)
    text = f"poset {{ points: t {' '.join(below)} ; arrows: {arrows} }}\ny {{ p0 }}"
    env = dict(os.environ)
    src = str(pathlib.Path(fourtops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    got = subprocess.run(
        [sys.executable, "-m", "fourtops.cli", *argv, "-t", text],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (got.returncode, got.stdout, got.stderr) == (2, "", "error: 23 points exceeds cap 16\n")


SEVENTEEN = [f"p{i}" for i in range(17)]
OVER_THE_POINT_CAP = {
    "2cg-2000": ("2cg p=2000 q=0", 2000),
    "2cg-20000": ("2cg p=20000 q=0", 20000),
    "2cg-200000": ("2cg p=200000 q=0", 200000),
    "json-2cg-100000": ('{"poset": {"kind": "2cg", "p": 100000, "q": 0}}', 100000),
    "poset-17": (f"poset {{ points: {' '.join(SEVENTEEN)} ; arrows: }}", 17),
    "json-poset-17": (json.dumps({"poset": {"kind": "poset", "points": SEVENTEEN}}), 17),
}


@pytest.mark.parametrize("what", ["omega", "true"])
@pytest.mark.parametrize("text, points", OVER_THE_POINT_CAP.values(), ids=OVER_THE_POINT_CAP)
def test_a_poset_over_the_point_cap_is_refused_before_it_is_built(
    text, points, what, monkeypatch, capsys
):
    """Both readers count the points of a header before they build its
    poset, so a few bytes cannot ask for a poset of any size; ``show true``,
    which enumerates nothing, is refused as well."""
    from fourtops import commands, json_input

    built = []
    for reader in (commands, json_input):
        monkeypatch.setattr(reader, "Poset", lambda *args: built.append(args))
        monkeypatch.setattr(reader, "TwoColumnGraph", lambda *args: built.append(args))
    assert run("show", what, "-t", text) == (2, "")
    assert capsys.readouterr().err == f"error: {points} points exceeds cap 16\n"
    assert built == []


@pytest.mark.parametrize(
    "text", ["2cg p=10 q=6", f"poset {{ points: {' '.join(SEVENTEEN[:16])} ; arrows: }}"]
)
def test_sixteen_points_are_within_the_point_cap(text):
    code, out = run("show", "true", "-t", text)
    assert code == 0 and out.count("\n") == 16


def test_check_axioms_still_reads_cap():
    with_cap = run("check", "axioms", "--cap", "5000", "-t", STAR)
    assert with_cap == (0, run("check", "axioms", "-t", STAR)[1])


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_check_axioms_refuses_a_cap_below_one(cap, capsys):
    assert run("check", "axioms", "--cap", cap, "-t", STAR) == (2, "")
    assert capsys.readouterr().err == f"error: --cap must be at least 1, not {cap}\n"


@pytest.mark.parametrize(
    "argv",
    [
        # the cap is refused before the input, which does not parse, is read
        ("enumerate", "nuclei", "--mode", "oracle", "--cap", "-1", "-t", "poset {"),
        ("enumerate", "lttops", "--mode", "oracle", "--json", "--cap", "-3", "-t", STAR),
        ("sweep", "--cap", "-1"),
        ("sweep", "--pmax", "3", "--qmax", "3", "--json", "--cap", "-3"),
    ],
    ids=" ".join,
)
def test_a_negative_oracle_cap_is_refused(argv, capsys):
    cap = argv[argv.index("--cap") + 1]
    assert run(*argv) == (2, "")
    assert capsys.readouterr().err == f"error: --cap must be at least 0, not {cap}\n"


@pytest.mark.parametrize("flag", ["--pmax", "--qmax"])
def test_sweep_refuses_a_negative_size(flag, capsys):
    sizes = {"--pmax": "2", "--qmax": "2", flag: "-1"}
    assert run("sweep", *(x for item in sizes.items() for x in item)) == (2, "")
    assert capsys.readouterr().err == f"error: {flag} must be at least 0, not -1\n"


def test_an_over_cap_sweep_is_refused_up_front(capsys):
    start = time.perf_counter()
    assert run("sweep", "--pmax", "4", "--qmax", "3") == (2, "")
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == "error: --pmax + --qmax is 7, over --cap 6\n"


@pytest.mark.parametrize(
    "argv, refused",
    [
        (("--pmax", "3", "--qmax", "3"), False),
        (("--pmax", "2", "--qmax", "2", "--cap", "4"), False),
        (("--pmax", "2", "--qmax", "2", "--cap", "3"), True),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else str(x),
)
def test_the_sweep_refuses_exactly_the_sizes_over_the_cap(argv, refused, monkeypatch):
    # the checks are faked: only the refusal is under test
    monkeypatch.setattr(sweep, "sweep_instance", lambda graph, cap: {"ok": True})
    code, out = run("sweep", *argv)
    assert (code, out == "") == ((2, True) if refused else (0, False))


def _identity_payloads():
    """The identity nucleus, the identity endomap and the smallest covers on
    the star, as text and as JSON."""
    from fourtops.handlers import _quad, structure_text

    spec = parse_input(STAR + "\ny { 2_ 1_ _2 _1 }")
    quad = _quad(spec)
    out = {}
    for kind in ("nucleus", "lt", "grotop"):
        value = getattr(quad, kind)
        out[kind, "text"] = structure_text(spec, kind, value)
        structure = structure_json(spec.poset, kind, value)
        out[kind, "json"] = {"poset": poset_json(spec), "structure": structure}
    return out


def _json_edit(doc, point, src, dst):
    """A copy of the JSON payload with the row for ``src`` (at ``point`` for
    an endomap) sent to ``dst``, or dropped when ``dst`` is None; for covers,
    with ``dst`` added to the family at ``point``."""
    doc = json.loads(json.dumps(doc))
    if doc["structure"]["kind"] == "grotop":
        next(fams for name, fams in doc["structure"]["covers"] if name == point).append(dst)
        return json.dumps(doc)
    rows = doc["structure"]["table"]
    if point is not None:
        rows = next(pairs for name, pairs in rows if name == point)
    k = next(k for k, (s, _) in enumerate(rows) if s == src)
    if dst is None:
        del rows[k]
    else:
        rows[k][1] = dst
    return json.dumps(doc)


ALL = ["1_", "2_", "_1", "_2"]
# (kind, defect) -> (text edit, JSON edit); the defects are a table that is
# not total, a value outside the poset or not a sieve on its point, and a
# value that is not down-closed; a cover is a value
BAD_PAYLOADS = {
    ("nucleus", "not-total"): (("; 22 -> 22", ""), (None, ALL, None)),
    ("nucleus", "outside-the-poset"): (("22 -> 22", "22 -> 33"), (None, ALL, ["zz"])),
    ("nucleus", "not-down-closed"): (("22 -> 22", "22 -> 20"), (None, ALL, ["1_", "2_"])),
    ("lt", "not-total"): (("1_: 10 -> 10; ", ""), ("1_", ["1_"], None)),
    ("lt", "not-a-sieve"): (("1_: 10 -> 10", "1_: 10 -> 01"), ("1_", ["1_"], ["_1"])),
    ("lt", "not-down-closed"): (
        ("2_: 21 -> 21", "2_: 21 -> 20"),
        ("2_", ["1_", "2_", "_1"], ["1_", "2_"]),
    ),
    ("grotop", "not-a-sieve"): (("1_: 10", "1_: 10 01"), ("1_", None, ["_1"])),
    ("grotop", "not-down-closed"): (("2_: 21", "2_: 21 20"), ("2_", None, ["1_", "2_"])),
}
MESSAGES = {
    "not-total": "must be total",
    "not-a-sieve": "is not one of the sieves",
    "not-down-closed": "is not down-closed",
}


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("kind, defect", BAD_PAYLOADS, ids=["-".join(k) for k in BAD_PAYLOADS])
def test_both_readers_refuse_the_same_bad_payloads(kind, defect, form, capsys):
    good = _identity_payloads()[kind, form]
    text_edit, json_edit = BAD_PAYLOADS[kind, defect]
    if form == "text":
        assert text_edit[0] in good
        good, bad = STAR + "\n" + good, STAR + "\n" + good.replace(*text_edit)
    else:
        good, bad = json.dumps(good), _json_edit(good, *json_edit)
    assert run("show", "h", "-t", good)[0] == 0
    assert run("show", "h", "-t", bad)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert MESSAGES.get(defect, "") in err


@pytest.mark.parametrize(
    "header",
    ["2cg p=1 q=1 cross { 1_ > _2 }", '{"poset": {"kind": "2cg", "p": 1, "q": 1, "cross": [["1_", "_2"]]}}'],
    ids=["text", "json"],
)
def test_a_cross_arrow_to_a_missing_point_names_that_point(header, capsys):
    """``_2`` is no point when q = 1, so the arrow is refused for naming it,
    not for joining one column to itself."""
    assert run("show", "h", "-t", header) == (2, "")
    assert capsys.readouterr().err == "error: cross arrow ('1_', '_2'): unknown point '_2'\n"
    # an arrow between two points of one column keeps its message
    assert run("show", "h", "-t", "2cg p=2 q=1 cross { 2_ > 1_ }")[0] == 2
    assert capsys.readouterr().err == "error: cross arrow ('2_', '1_') must connect distinct columns\n"


# two bad arrows per input, each refused for the first of them in input order
BAD_ARROWS = {
    "unknown point": (
        "poset { points: a ; arrows: a > b a > c }",
        {"kind": "poset", "points": ["a"], "arrows": [["a", "b"], ["a", "c"]]},
        "error: arrow ('a', 'b'): unknown point 'b'\n",
    ),
    "self-arrows": (
        "poset { points: a b ; arrows: a > a b > b }",
        {"kind": "poset", "points": ["a", "b"], "arrows": [["a", "a"], ["b", "b"]]},
        "error: self-arrow on 'a'\n",
    ),
    "unknown cross points": (
        "2cg p=1 q=1 cross { 1_ > _2 1_ > _3 }",
        {"kind": "2cg", "p": 1, "q": 1, "cross": [["1_", "_2"], ["1_", "_3"]]},
        "error: cross arrow ('1_', '_2'): unknown point '_2'\n",
    ),
}


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("case", BAD_ARROWS)
def test_an_arrow_refusal_names_the_first_bad_arrow_under_any_hash_seed(case, form, monkeypatch):
    """The arrows are checked in input order, not in the order of a set of
    them, so two hash seeds (which named different arrows when they were)
    give one identical error line and exit 2."""
    text, poset, message = BAD_ARROWS[case]
    header = text if form == "text" else _json_doc(poset)
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        got = _cli_child("show", "h", "-t", header)
        assert (got.returncode, got.stdout, got.stderr) == (2, b"", message)


@pytest.mark.parametrize("where", ["last", "first"])
@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("kind", ["nucleus", "lt"])
def test_a_source_listed_twice_is_refused(kind, form, where, capsys):
    """A second row for the empty down-set (at 1_, for an endomap) is refused
    wherever it stands, so no answer depends on the order of the rows."""
    good = _identity_payloads()[kind, form]
    if form == "text":
        row = "00 -> 10" if kind == "nucleus" else "1_: 00 -> 10"
        if where == "first":
            bad = good.replace("{ ", "{ " + row + "; ", 1)
        else:
            bad = good.replace(" }", "; " + row + " }")
        bad = STAR + "\n" + bad
    else:
        doc = json.loads(json.dumps(good))
        rows = doc["structure"]["table"]
        if kind == "lt":
            rows = next(pairs for name, pairs in rows if name == "1_")
        rows.insert(0 if where == "first" else len(rows), [[], ["1_"]])
        bad = json.dumps(doc)
    family = "the down-set algebra" if kind == "nucleus" else "the sieves on '1_'"
    assert run("convert", "--from", kind, "--to", "y", "-t", bad) == (2, "")
    assert capsys.readouterr().err == f"error: table lists source {{}} twice on {family}\n"


REPEATED_FORMS = {
    "structure-text": (
        ("fouruple", "--from", "y", "-t", "2cg p=1 q=1\ny { 1_ }\ny { _1 }"),
        "a second structure form: an input holds at most one (line 3, column 1)",
    ),
    "poset-text": (
        ("show", "h", "-t", "2cg p=1 q=1 poset { points: a ; arrows: }"),
        "a second poset or 2cg form: an input holds one (line 1, column 13)",
    ),
    "structure-json": (
        (
            "fouruple",
            "--from",
            "y",
            "-t",
            '{"poset": {"kind": "2cg", "p": 1, "q": 1}, "structure": {"kind": "y", "members": ["1_"]},'
            ' "structure": {"kind": "y", "members": ["_1"]}}',
        ),
        "JSON object repeats the key 'structure'",
    ),
}


@pytest.mark.parametrize("argv, message", REPEATED_FORMS.values(), ids=REPEATED_FORMS.keys())
def test_a_repeated_form_is_refused(argv, message, capsys):
    """A second poset or structure form, or a repeated JSON key, would
    replace the one before it, so the answer would hang on their order:
    exit 2 with one error line at the repeat."""
    assert run(*argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


# -- the JSON writer ----------------------------------------------------------------

CENSUS_POSETS = {
    "antichain6": ("abcdef", []),
    "cone5": ("abcde", [("e", x) for x in "abcd"]),
    "fan6": ("abcdef", [("f", x) for x in "abcde"] + [("e", "a")]),
}


FAMILIES = {"nuclei": "nucleus", "grotops": "grotop", "lttops": "lt"}
ENUMERATORS = {"nuclei": enumerate_nuclei, "grotops": enumerate_grotops, "lttops": enumerate_lts}


def _same_document(got, want):
    """Fail at the first line where two census documents differ: pytest's
    own diff of two whole documents takes minutes."""
    if got != want:
        rows = zip(got.splitlines(), want.splitlines())
        line = next((k + 1 for k, (a, b) in enumerate(rows) if a != b), "the end")
        pytest.fail(f"the documents differ at line {line}")


def _census_equals_the_literal_route(spec, family, mode):
    """``census_json`` writes what the literal route writes for the census."""
    kind = FAMILIES[family]
    items = ENUMERATORS[family](spec.poset, mode)
    literal = census_json_literal(poset_json(spec), spec.poset, kind, items)
    _same_document(census_json(spec, kind, items), literal)
    return literal


def test_the_census_writer_equals_the_literal_route_up_to_four_points():
    posets = [Poset([])] + list(naturally_labelled_posets(4))
    assert len(posets) == 51
    empty = []
    for poset in posets:
        for family in FAMILIES:
            for mode in ("formula", "oracle"):
                literal = _census_equals_the_literal_route(InputSpec(poset), family, mode)
                if not poset.points:
                    empty.append(json.loads(literal)["result"]["items"])
    # the empty poset's one nucleus maps its one down-set to itself, and its
    # covering family and LT topology have no points
    nucleus = {"kind": "nucleus", "table": [[[], []]]}
    grotop, lt = {"covers": [], "kind": "grotop"}, {"kind": "lt", "table": []}
    assert empty == [[nucleus]] * 2 + [[grotop]] * 2 + [[lt]] * 2


@pytest.mark.parametrize("shuffled", [False, True], ids=["listed", "shuffled"])
@pytest.mark.parametrize("name", CENSUS_POSETS)
def test_structure_json_equals_the_literal_rows_on_the_census(name, shuffled):
    """Each structure's JSON form, and the census writer's document, equal
    the literal route's on the benchmark's census posets."""
    points, arrows = CENSUS_POSETS[name]
    points = list(points)
    if shuffled:
        random.Random(name).shuffle(points)
    spec = InputSpec(Poset(points, arrows))
    for family, kind in FAMILIES.items():
        literal = _census_equals_the_literal_route(spec, family, "oracle")
        items = json.loads(literal)["result"]["items"]
        assert len(items) == 2 ** len(points)
        for value in ENUMERATORS[family](spec.poset, "oracle"):
            got = structure_json(spec.poset, kind, value)
            assert got == structure_json_literal(spec.poset, kind, value) and got in items


@pytest.mark.parametrize("family", FAMILIES)
def test_the_census_writer_orders_names_as_the_literal_route(family):
    """Point names that JSON escapes, or that sort differently once escaped
    as ``json.dumps`` escapes them for the item order (``"é"`` is ``"\\u00e9"``
    there, before ``"z"``), give the literal route's document through the
    CLI's JSON reader."""
    names = ["é", "z", 'a"b', "a\\b", "\t"]
    arrows = [["z", "é"], ['a"b', "\t"], ["a\\b", "\t"], ["a\\b", "é"]]
    text = json.dumps({"poset": {"kind": "poset", "points": names, "arrows": arrows}})
    spec = parse_input(text)
    for mode in ("formula", "oracle"):
        literal = _census_equals_the_literal_route(spec, family, mode)
        code, out = run("enumerate", family, "--mode", mode, "--json", "-t", text)
        assert code == 0
        _same_document(out, literal)


def _golden_structures():
    """(file name, poset, structure) for each structure a golden JSON holds."""
    for path in sorted(GOLDEN.glob("*.json")):
        doc = json.loads(path.read_text())
        if "structure" in doc:
            yield path.name, doc["poset"], doc["structure"]
        for item in doc.get("result", {}).get("items", []):
            yield path.name, doc["poset"], item


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_json_re_emits_byte_for_byte(path):
    text = path.read_text()
    assert emit_json(json.loads(text)) == text == emit_json_literal(json.loads(text))


def test_structure_json_equals_the_literal_rows_on_the_goldens():
    seen = set()
    for file_name, poset_doc, structure in _golden_structures():
        spec = parse_input(json.dumps({"poset": poset_doc, "structure": structure}))
        got = structure_json(spec.poset, spec.kind, spec.payload)
        assert got == structure == structure_json_literal(spec.poset, spec.kind, spec.payload)
        seen.add(file_name)
    assert seen == {"convert_y_grotop_star.json", "enumerate_nuclei_oracle_star.json"}


# strings with the characters JSON escapes (quotes, backslashes, control
# characters) and some that it writes as they are once ensure_ascii is off
JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é漢🙂'), st.characters()),
    max_size=8,
)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), JSON_TEXT, st.lists(JSON_TEXT)
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(JSON_TEXT, inner),
    ),
    max_leaves=15,
)


@st.composite
def json_docs_sharing_lists(draw):
    """A document that holds some lists several times, at one indent or at
    several, as structure tables hold their shared rows; a later shared list
    may hold an earlier one."""
    shared: list = []
    for _ in range(draw(st.integers(1, 3))):
        items = st.one_of(JSON_LEAVES, st.sampled_from(shared)) if shared else JSON_LEAVES
        shared.append(draw(st.lists(items, min_size=1, max_size=3)))
    leaves = st.one_of(JSON_LEAVES, st.sampled_from(shared))
    return draw(
        st.recursive(
            leaves,
            lambda inner: st.one_of(st.lists(inner), st.dictionaries(JSON_TEXT, inner)),
            max_leaves=15,
        )
    )


@given(st.one_of(JSON_DOCS, json_docs_sharing_lists()))
@settings(max_examples=120, deadline=None)
def test_emit_json_equals_json_dumps(doc):
    assert emit_json(doc) == emit_json_literal(doc)


NAMES = ["a", "b"]
ROW = [NAMES, ["c"]]
TABLE = [ROW, [ROW, ROW]]


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}]},
        [[[]]],
        {"": ""},
        # one list held at several indents, as structure rows share names
        {"rows": [[NAMES, NAMES], [NAMES]], "top": NAMES, "deep": [[[NAMES]]]},
        # one row held several times at one indent, as tables share rows
        {"table": [ROW, ROW, [NAMES, NAMES], ROW]},
        # ... at two indents
        {"table": [ROW, ROW], "at": [["a", [ROW, ROW]], ["b", [ROW]]]},
        # ... and inside a list that the document holds several times
        {"tables": [TABLE, TABLE, [TABLE]], "table": TABLE, "row": ROW},
    ],
)
def test_emit_json_equals_json_dumps_on_edge_cases(doc):
    assert emit_json(doc) == emit_json_literal(doc)


def _fresh_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter with the package's sources on the
    path; its stdout."""
    import os
    import subprocess
    import sys

    import fourtops

    env = dict(os.environ)
    src = str(pathlib.Path(fourtops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    got = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert got.returncode == 0, got.stderr
    return got.stdout


def test_a_one_cpu_sweep_keeps_at_most_one_poset_per_class():
    """No cache keeps the poset of every configuration it has seen: after
    the 2x2 sweep in one process, at most one poset per isomorphism class is
    alive (17, of 76 configurations)."""
    code = (
        "import gc, os\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from fourtops.poset import Poset\n"
        "from fourtops.sweep import sweep_entries\n"
        "entries = list(sweep_entries(2, 2, 6))\n"
        "gc.collect()\n"
        "print(len(entries), sum(type(o) is Poset for o in gc.get_objects()))\n"
    )
    entries, alive = map(int, _fresh_child(code).split())
    assert entries == 76 and alive <= 17


@pytest.mark.parametrize(
    "argv, classifies",
    [
        (("check", "axioms", "-t", STAR), False),
        (("sweep", "--pmax", "1", "--qmax", "1"), False),
        (("chi", "--json", "-t", STAR + "\ny { _1 }"), True),
    ],
    ids=["check-axioms-star", "sweep-1x1", "chi-star"],
)
def test_only_chi_validates_a_presheaf_morphism(argv, classifies, monkeypatch):
    """The laws and the routes run on tables and masks: in one process, with
    a cold classifier, no command enters the oracle's ``Morphism._validate``.
    Of these commands only ``chi`` prints a presheaf morphism, 1 -> Omega:
    its sieves, read back as the oracle's ``Morphism``, pass the naturality
    check and equal the oracle's classifying map of the subterminal."""
    import sys

    from fourtops.presheaf import omega

    from .oracles import Morphism, chi, omega_presheaf, subterminal_inclusion, terminal_presheaf

    _allow_cpus(monkeypatch, 1)
    omega.cache_clear()
    validate = Morphism._validate.__code__
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is validate:
            calls.append(frame.f_back.f_code.co_name)

    buf = io.StringIO()
    sys.setprofile(hook)
    try:
        code = main(list(argv), out=buf)
    finally:
        sys.setprofile(None)
    assert code == 0
    assert calls == []
    if not classifies:
        return
    spec = parse_input(argv[-1])
    poset = spec.poset
    one, om = terminal_presheaf(poset), omega_presheaf(poset)
    named = dict(json.loads(buf.getvalue())["result"]["chi"])
    comp = {}
    for u in poset.points:
        mask = poset.mask_of(named[u])
        comp[u] = {"*": next(s for s in om.sets[u] if s.mask == mask)}
    printed = Morphism(one, om, comp)
    assert printed == chi(subterminal_inclusion(one, spec.payload))


def test_no_module_defines_a_presheaf_morphism():
    """Element masks are the package's one form of a presheaf map:
    ``fourtops.presheaf``, like every other module of the package, defines
    neither ``Morphism`` nor ``Inclusion``; the validated calculus lives in
    the test oracle."""
    import importlib
    import pkgutil

    import fourtops

    names = [m.name for m in pkgutil.iter_modules(fourtops.__path__)]
    assert "presheaf" in names
    for name in names:
        module = importlib.import_module(f"fourtops.{name}")
        assert not hasattr(module, "Morphism") and not hasattr(module, "Inclusion"), name


def test_check_axioms_builds_only_the_downsets_it_prints():
    """The presheaf layer is three element indexes read off the sieve index:
    no module of the package defines ``Presheaf`` or ``product``, and in a
    fresh process ``check axioms --json`` on the star builds no presheaf and
    no ``DownSet`` (a profile hook on every ``__init__``), and prints the 64
    filter generators of its 16 LTs at 4 points from their masks.  It built
    3 presheaves and 76 down-sets, 12 of them Ω's labels, when Ω had labels,
    and then one down-set per generator printed."""
    import importlib
    import itertools
    import pkgutil

    import fourtops

    for name in (m.name for m in pkgutil.iter_modules(fourtops.__path__)):
        module = importlib.import_module(f"fourtops.{name}")
        assert not hasattr(module, "Presheaf"), name
        assert getattr(module, "product", itertools.product) is itertools.product, name
    argv = ["check", "axioms", "--json", "-t", STAR]
    code = (
        "import io, json, sys\n"
        "from fourtops import cli\n"
        "built = {'DownSet': 0, 'Presheaf': 0}\n"
        "def hook(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == '__init__':\n"
        "        name = type(frame.f_locals.get('self')).__name__\n"
        "        if name in built:\n"
        "            built[name] += 1\n"
        "out = io.StringIO()\n"
        "sys.setprofile(hook)\n"
        f"rc = cli.main({argv!r}, out=out)\n"
        "sys.setprofile(None)\n"
        "instances = json.loads(out.getvalue())['result']['instances']\n"
        "print(rc, built['Presheaf'], built['DownSet'], sum(len(e['filter_generators']) for e in instances))"
    )
    assert _fresh_child(code) == "0 0 0 64\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    """Start-up cost guard: the CLI's import pulls in neither module (with
    ``dataclasses`` came ``inspect``, ``ast``, ``dis`` and ``tokenize``),
    nor ``argparse`` with its ``gettext`` and ``locale``, which no census,
    sweep or ``check axioms`` loads either, nor the panel renderers, which
    only the drawing commands import.  Nor
    does it load the conversions, the axiom and closure-law checkers, the
    sweep, the classifier or the presheaf layer, and an oracle census runs
    without them; a sweep loads no closure-law checker and ``check axioms`` no
    sweep; importing the package alone loads no submodule.  Importing the CLI
    loads no ``fourtops`` module but ``fourtops.errors``, a sweep loads no
    handler, and ``show`` and ``fouruple`` never load the renderers.  A JSON
    oracle census loads neither the JSON reader (``json_input``) nor the
    other handlers (``handlers``), within a budget of lines of source; JSON
    input loads the reader.  ``check axioms`` loads neither the other
    handlers, the census (with its table search) nor the route module,
    within a budget of lines of source."""
    submodules = "sorted(m for m in sys.modules if m.startswith('fourtops.'))"
    assert _fresh_child(f"import sys, fourtops; print({submodules})") == "[]\n"
    unwanted = {
        "argparse",
        "dataclasses",
        "gettext",
        "inspect",
        "locale",
        "fourtops.axioms",
        "fourtops.convert",
        "fourtops.presheaf",
        "fourtops.render",
        "fourtops.sweep",
        "fourtops.topology",
    }
    loaded = f"sorted({unwanted!r} & set(sys.modules))"
    assert _fresh_child(f"import sys, fourtops.cli; print({loaded})") == "[]\n"
    package = "sorted(m for m in sys.modules if m.startswith('fourtops.'))"
    assert _fresh_child(f"import sys, fourtops.cli; print({package})") == "['fourtops.cli', 'fourtops.errors']\n"

    lazy = "sorted({'fourtops.json_input', 'fourtops.handlers'} & set(sys.modules))"
    lines = (
        "sum(open(m.__file__, encoding='utf-8').read().count('\\n')"
        " for n, m in sys.modules.items() if n.split('.')[0] == 'fourtops')"
    )

    def run_child(argv):
        """The exit code, the unwanted modules and the lazily loaded command
        modules the run loaded, and the lines of ``fourtops`` source it loaded."""
        code = (
            "import io, sys\n"
            "from fourtops import cli\n"
            f"rc = cli.main({argv!r}, out=io.StringIO())\n"
            f"print(rc, {loaded}, {lazy}, {lines}, sep='|')"
        )
        rc, unwanted_loaded, lazy_loaded, lines_loaded = _fresh_child(code).split("|")
        return int(rc), unwanted_loaded, lazy_loaded, int(lines_loaded)

    for family in ("nuclei", "grotops", "lttops"):
        argv = ["enumerate", family, "--mode", "oracle", "--json", "-t", STAR]
        # a JSON census compiles neither the JSON reader nor the other
        # commands' handlers (2,135 lines of source when it compiled both)
        rc, unwanted_loaded, lazy_loaded, lines_loaded = run_child(argv)
        assert (rc, unwanted_loaded, lazy_loaded) == (0, "[]", "[]"), family
        assert lines_loaded <= 1850, (family, lines_loaded)
    # JSON input loads the reader, which gives the spec of the text form
    text_form = STAR + "\ny { _1 }"
    json_form = json.dumps(
        {
            "poset": {"kind": "2cg", "p": 2, "q": 2, "cross": [["2_", "_1"]]},
            "structure": {"kind": "y", "members": ["_1"]},
        }
    )
    code = (
        "import sys\n"
        "from fourtops.commands import parse_input\n"
        f"text = parse_input({text_form!r})\n"
        "print('fourtops.json_input' in sys.modules)\n"
        f"spec = parse_input({json_form!r})\n"
        "print('fourtops.json_input' in sys.modules)\n"
        "poset, graph = (text.poset.points, text.poset.arrows), text.graph\n"
        "print((spec.poset.points, spec.poset.arrows) == poset,\n"
        "      (spec.graph.p, spec.graph.q, spec.graph.cross) == (graph.p, graph.q, graph.cross),\n"
        "      (spec.kind, spec.payload) == (text.kind, text.payload))"
    )
    assert _fresh_child(code) == "False\nTrue\nTrue True True\n"
    rc, sweep_loads, _, _ = run_child(["sweep", "--pmax", "1", "--qmax", "1", "--json"])
    assert rc == 0 and "fourtops.sweep" in sweep_loads
    assert "fourtops.axioms" not in sweep_loads
    # the 2x2 sweep compiled 2,566 lines when the presheaf layer built
    # labelled presheaves
    rc, sweep_loads, _, lines_loaded = run_child(["sweep", "--pmax", "2", "--qmax", "2", "--json"])
    assert rc == 0 and lines_loaded <= 2427, lines_loaded
    # the command line is read off the CLI's table, not by argparse
    startup = ("'argparse'", "'gettext'", "'locale'")
    assert not any(m in sweep_loads for m in startup), sweep_loads

    def loads(argv, module):
        code = (
            "import io, sys\n"
            "from fourtops import cli\n"
            f"rc = cli.main({argv!r}, out=io.StringIO())\n"
            f"print(rc, {module!r} in sys.modules)"
        )
        return _fresh_child(code)

    assert loads(["sweep", "--pmax", "1", "--qmax", "1", "--json"], "fourtops.commands") == "0 False\n"
    # the panel renderers load only for ``render``
    for argv in (["show", "omega"], ["show", "h"], ["fouruple", "--from", "y"]):
        text = "2cg p=1 q=1" + ("\ny { 1_ }" if argv[0] == "fouruple" else "")
        assert loads([*argv, "-t", text], "fourtops.render") == "0 False\n", argv
    argv = ["check", "axioms", "--json", "-t", STAR]
    rc, axioms_loads, lazy_loaded, lines_loaded = run_child(argv)
    assert rc == 0 and "fourtops.axioms" in axioms_loads
    assert "fourtops.sweep" not in axioms_loads
    assert not any(m in axioms_loads for m in startup), axioms_loads
    # ``check axioms`` compiled 3,297 lines when it loaded every handler, the
    # census, the kernel and the route checks, and 2,643 when the presheaf
    # layer built labelled presheaves
    assert lazy_loaded == "[]" and lines_loaded <= 2521, lines_loaded
    skipped = {"fourtops.handlers", "fourtops.census", "fourtops.routes"}
    code = (
        "import io, sys\n"
        "from fourtops import cli\n"
        f"cli.main({argv!r}, out=io.StringIO())\n"
        f"print(sorted({skipped!r} & set(sys.modules)))"
    )
    assert _fresh_child(code) == "[]\n"


def test_sweep_does_not_import_the_cli_module_again():
    """Under ``python -m fourtops.cli`` the CLI module is ``__main__``, so a
    module that imported ``fourtops.cli`` would load and compile it a second
    time; the import-time report of a sweep, of an oracle census and of
    ``check axioms`` names no ``fourtops.cli``."""
    import os
    import subprocess
    import sys

    import fourtops

    env = dict(os.environ)
    src = str(pathlib.Path(fourtops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    commands = {
        "fourtops.sweep": ["sweep", "--pmax", "1", "--qmax", "1"],
        "fourtops.census": ["enumerate", "nuclei", "--mode", "oracle", "-t", STAR],
        "fourtops.axioms": ["check", "axioms", "-t", STAR],
    }
    for module, command in commands.items():
        argv = ["-X", "importtime", "-m", "fourtops.cli", *command]
        got = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert got.returncode == 0, got.stderr
        imported = [line for line in got.stderr.splitlines() if line.startswith("import time:")]
        assert any(module in line for line in imported)
        assert not [line for line in imported if "fourtops.cli" in line]


def test_readme_library_quick_tour_gives_its_commented_values():
    """README's "Library quick tour" runs as written, and each expression
    line gives the value its comment names: a down-set, the pile codes of
    some sieves, or a count."""
    import ast

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    tour = tour.split("```python\n", 1)[1].split("```", 1)[0]
    lines = tour.splitlines()
    namespace: dict = {}
    said = {}
    for node in ast.parse(tour).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.lineno - 1].split("#", 1)[1].strip()
            said[comment] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    graph = namespace["graph"]
    (downset, sieves, count) = said.items()
    assert downset[0] == "the down-set {1_}" and repr(downset[1]) == "{1_}"
    assert sieves[0] == "sieves 01, 11, 21"
    assert ["%d%d" % graph.code_of_mask(s.mask) for s in sieves[1]] == ["01", "11", "21"]
    assert count[0].startswith("16,") and count[1] == 16


# The eager export list of the package before its names were loaded lazily,
# less the four presheaf helpers that only the tests read (tests/oracles.py),
# the library-only slashing, modality and down-set wrappers and the
# wrappers of H and Ω (REMOVED), the validated presheaf-map calculus and the
# label-built presheaves (MOVED).
EXPORTS = set(
    """
    ClosureOperator DownSet GrothendieckTopology
    LTTopology Nucleus Poset Quad TestUniverse
    TwoColumnGraph build_universe check_closure_axioms check_routes
    closure_to_nucleus complete_quad enumerate_downsets enumerate_grotops
    enumerate_lts enumerate_nuclei filter_check grotop_to_lt
    grotop_to_lt_direct grotop_to_nucleus grotop_to_point_set
    is_grothendieck is_lt_topology is_nucleus j_from_closure lt_to_grotop
    nucleus_from_point_set nucleus_to_grotop nucleus_to_lt omega
    point_set_of_nucleus point_set_to_grotop sieves_on star_graph
    terminal
    """.split()
)

# The validated presheaf-map calculus and the label-built presheaves, by the
# module they left (``classifier``'s under ``presheaf``, which it joined): no
# command builds a presheaf morphism or a labelled presheaf (1, Ω and Ω² are
# element indexes read off the sieve index), and the tests keep them in
# tests/oracles.py as the reference for the element masks.  Methods moved as
# functions of the same name (Presheaf.restrict, ElementIndex.mask_of).
MOVED = {
    "presheaf": (
        "Presheaf",
        "product",
        "_label_key",
        "Morphism",
        "Inclusion",
        "is_inclusion",
        "as_inclusion",
        "_same_codomain",
        "can",
        "preimage",
        "intersection",
        "subobjects",
        "subterminal_of",
        "chi",
        "sigma",
        "true_map",
        "meet_map",
        "imp_map",
    ),
    "topology": (
        "closure_of",
        "is_dense",
        "is_closed",
        "dense_closed_factor",
        "restriction_check",
        "canonical_grothendieck",
    ),
    "errors": ("UnknownElement", "NaturalityError", "NotMonic", "NotInclusion", "NotSubterminal"),
}

# Names deleted from the module that defined them (``heyting``'s under
# ``topology`` and ``classifier``'s under ``presheaf``, which each joined),
# since no command, route check or test oracle needs them: the nucleus table
# is the one slashing, the package works on down-set masks (down_mask,
# mask_of, interior_mask), and H and Ω are indexes read off the poset
# (enumerate_downsets with downset_positions, and omega's element index).
REMOVED = {
    "topology": (
        "Slashing",
        "_build_slashing",
        "slashing_from_erased",
        "slashing_from_nucleus",
        "slashings_agree",
        "modality_on_downset",
        "HeytingAlgebra",
        "algebra_of",
    ),
    "poset": ("down_closure", "down_of_point", "strict_down", "interior"),
    "presheaf": ("OmegaObject",),
}


def test_package_exports_each_name_from_the_module_it_lives_in():
    """Each exported name is the object its home module defines; an unknown
    name, a helper moved to the tests or a deleted name raises
    AttributeError, and a moved name is gone from its old home and defined
    in the test oracle; the modules folded into the module they always
    loaded with cannot be imported; and reading ``kernel_backend`` loads no
    submodule."""
    import importlib

    import fourtops
    from fourtops.presheaf import ElementIndex

    from . import oracles

    assert set(fourtops.__all__) == EXPORTS
    assert EXPORTS <= set(dir(fourtops))
    for name in sorted(EXPORTS):
        home = importlib.import_module(f"fourtops.{fourtops._EXPORTS[name]}")
        value = getattr(fourtops, name)
        assert value is getattr(home, name), name
        assert value.__module__ == home.__name__, name
    for name in ("no_such_name", "cst", "element_downset", "equalizer", "natural_maps"):
        with pytest.raises(AttributeError):
            getattr(fourtops, name)
    for module, names in REMOVED.items():
        home = importlib.import_module(f"fourtops.{module}")
        for name in names:
            with pytest.raises(AttributeError):
                getattr(fourtops, name)
            assert not hasattr(home, name), name
    for module, names in MOVED.items():
        home = importlib.import_module(f"fourtops.{module}")
        for name in names:
            with pytest.raises(AttributeError):
                getattr(fourtops, name)
            assert not hasattr(home, name), name
            assert getattr(oracles, name).__module__ == oracles.__name__, name
    # heyting joined topology, classifier presheaf, records poset and
    # _kernels census
    for module in ("heyting", "classifier", "records", "_kernels"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"fourtops.{module}")
    assert not hasattr(oracles.Presheaf, "restrict") and not hasattr(ElementIndex, "mask_of")
    assert callable(oracles.restrict) and callable(oracles.mask_of)
    code = (
        "import sys, fourtops\n"
        "print(fourtops.kernel_backend, sorted(m for m in sys.modules if m.startswith('fourtops.')))"
    )
    assert _fresh_child(code) == "pure []\n"


# One structure of each face on the star, and one that fails its axioms,
# which the CLI refuses with exit 2.
FACE_PAYLOADS = {
    "y": "y { _1 }",
    "nucleus": "nucleus { 00 -> 10; 10 -> 10; 01 -> 22; 11 -> 22; 02 -> 22; 21 -> 22; 12 -> 22; 22 -> 22 }",
    "grotop": "grotop { 2_: 01 11 21; 1_: 00 10; _2: 01 02; _1: 01 }",
    "lt": "j { 2_: 00 -> 10; 2_: 10 -> 10; 2_: 01 -> 21; 2_: 11 -> 21; 2_: 21 -> 21; 1_: 00 -> 10;"
    " 1_: 10 -> 10; _2: 00 -> 00; _2: 01 -> 02; _2: 02 -> 02; _1: 00 -> 00; _1: 01 -> 01 }",
}
REFUSED_PAYLOADS = {
    "nucleus": "nucleus { 00 -> 00; 10 -> 10; 01 -> 01; 11 -> 11; 02 -> 02; 21 -> 22; 12 -> 12; 22 -> 22 }",
    "grotop": "grotop { 2_: 01; 1_: 10; _2: 02; _1: 01 }",
    "lt": "j { 2_: 00 -> 00; 2_: 10 -> 21; 2_: 01 -> 01; 2_: 11 -> 11; 2_: 21 -> 21; 1_: 00 -> 00;"
    " 1_: 10 -> 10; _2: 00 -> 00; _2: 01 -> 01; _2: 02 -> 02; _1: 00 -> 00; _1: 01 -> 01 }",
}


def test_readme_lists_what_no_command_enters_and_what_only_a_refusal_enters(monkeypatch):
    """Every subcommand runs on the star, and one structure of each face is
    refused, under a profile hook, with the sweep in one process and the
    exported caches cold.  README's library-only list is the exported
    functions and public methods of exported classes that no run enters, and
    its failure-only list those that only the refusals enter."""
    import inspect
    import re
    import sys

    import fourtops

    readme = (GOLDEN.parents[1] / "README.md").read_text()

    def listed(marker):
        paragraph = readme.split(marker, 1)[1].split("\n\n", 1)[0]
        return set(re.findall(r"`([\w.]+)`", paragraph))

    y = STAR + "\n" + FACE_PAYLOADS["y"]
    runs = [["show", what, "-t", STAR] for what in ("h", "omega", "true")]
    runs += [["chi", "-t", y], ["convert", "--from", "y", "--to", "lt", "-t", y]]
    runs += [["fouruple", "--from", kind, "-t", STAR + "\n" + p] for kind, p in FACE_PAYLOADS.items()]
    runs += [["enumerate", family, "--mode", "oracle", "-t", STAR] for family in ("nuclei", "grotops", "lttops")]
    runs += [["check", what, "-t", STAR] for what in ("axioms", "conjectures", "topmost", "roundtrips")]
    runs += [["render", what, "-t", y] for what in ("zha", "omega", "j", "grotop", "fouruple")]
    runs += [["sweep", "--pmax", "2", "--qmax", "2"]]
    refusals = [["fouruple", "--from", kind, "-t", STAR + "\n" + p] for kind, p in REFUSED_PAYLOADS.items()]
    # exported functions, and the public methods and properties of exported classes
    functions = {}
    for name in fourtops.__all__:
        value = getattr(fourtops, name)
        if hasattr(value, "cache_clear"):
            value.cache_clear()
        value = getattr(value, "__wrapped__", value)
        if inspect.isfunction(value):
            functions[value.__code__] = name
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                member = getattr(member, "fget", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    functions[member.__code__] = f"{name}.{attr}"
    _allow_cpus(monkeypatch, 1)
    entered = {0: set(), 2: set()}
    for argv in runs + refusals:
        want = 0 if argv in runs else 2

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in functions:
                entered[want].add(functions[frame.f_code])

        sys.setprofile(hook)
        try:
            code = main(argv, out=io.StringIO())
        finally:
            sys.setprofile(None)
        assert code == want, argv[:3]
    never = set(functions.values()) - entered[0] - entered[2]
    assert never == listed("is library-only:")
    assert entered[2] - entered[0] == listed("are failure-only:")
