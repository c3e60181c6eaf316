"""The command-line surface: grammar, JSON schema, subcommands, exit codes."""

import io
import json
import os
import pathlib
import random
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from fourtops import sweep
from fourtops.cli import main
from fourtops.commands import NameTable, parse_input, structure_json
from fourtops.emit import emit_json
from fourtops.census import enumerate_grotops, enumerate_lts, enumerate_nuclei
from fourtops.errors import ParseError
from fourtops.poset import Poset, TwoColumnGraph
from fourtops.sweep import cross_configurations, sweep_instance

from .oracles import (
    brute_relabellings,
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
        assert spec.kind == "y" and spec.payload == frozenset({"_1"})

    def test_unknown_y_member(self):
        with pytest.raises(Exception):
            parse_input(STAR + "\ny { zz }")

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
        from fourtops.commands import structure_text

        text = structure_text(spec, "y", spec.payload)
        again = parse_input(STAR + "\n" + text)
        assert again.payload == spec.payload

    def test_every_structure_kind_round_trips_as_text(self):
        from fourtops.commands import _quad, structure_text

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

    def test_requires_down_closed_payload(self):
        code, _ = run("chi", "-t", STAR + "\ny { 2_ }")
        assert code == 2


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

    def test_modes_agree(self):
        _, a = run("enumerate", "lttops", "--mode", "oracle", "--json", "-t", STAR)
        _, b = run("enumerate", "lttops", "--mode", "formula", "--json", "-t", STAR)
        assert a == b


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
        monkeypatch.setattr(convert, "point_set_to_grotop", lambda poset, kept: right(poset, ()))
        result = sweep_instance(TwoColumnGraph(2, 2, {("2_", "_1")}), 6)
        assert result["census"] == {"nuclei": True, "grotops": False, "lts": True}
        assert not result["ok"]


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
    poset's down-sets, and the classifier's subobjects add none."""
    from fourtops.heyting import algebra_of
    from fourtops.poset import enumerate_downsets

    enumerate_downsets.cache_clear()
    algebra_of.cache_clear()
    assert run("check", "axioms", "-t", STAR)[0] == 0
    info = enumerate_downsets.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_closed_pipe_is_a_usage_error_without_a_traceback():
    """A reader that closes the pipe early gets exit 2 and one error line."""
    import os
    import subprocess
    import sys

    import fourtops

    env = dict(os.environ)
    src = str(pathlib.Path(fourtops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "fourtops.cli", "enumerate", "nuclei", "-t", STAR],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


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
    from fourtops.commands import _quad, poset_json, structure_json, structure_text

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


# -- the JSON writer ----------------------------------------------------------------

CENSUS_POSETS = {
    "antichain6": ("abcdef", []),
    "cone5": ("abcde", [("e", x) for x in "abcd"]),
    "fan6": ("abcdef", [("f", x) for x in "abcde"] + [("e", "a")]),
}


def _oracle_items(poset):
    """Every structure the oracle enumerators find on ``poset``, with its kind."""
    items = [("nucleus", n) for n in enumerate_nuclei(poset, "oracle")]
    items += [("grotop", j) for j in enumerate_grotops(poset, "oracle")]
    items += [("lt", lt) for lt in enumerate_lts(poset, "oracle")]
    return items


@pytest.mark.parametrize("shuffled", [False, True], ids=["listed", "shuffled"])
@pytest.mark.parametrize("name", CENSUS_POSETS)
def test_structure_json_equals_the_literal_rows_on_the_census(name, shuffled):
    points, arrows = CENSUS_POSETS[name]
    points = list(points)
    if shuffled:
        random.Random(name).shuffle(points)
    poset = Poset(points, arrows)
    items = _oracle_items(poset)
    assert len(items) == 3 * 2 ** len(points)
    names = NameTable(poset)
    for kind, value in items:
        literal = structure_json_literal(poset, kind, value)
        assert structure_json(poset, kind, value, names) == literal
        assert structure_json(poset, kind, value) == literal


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


@given(JSON_DOCS)
@settings(max_examples=80, deadline=None)
def test_emit_json_equals_json_dumps(doc):
    assert emit_json(doc) == emit_json_literal(doc)


NAMES = ["a", "b"]


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


def test_import_loads_neither_dataclasses_nor_inspect():
    """Start-up cost guard: the CLI's import pulls in neither module (with
    ``dataclasses`` came ``inspect``, ``ast``, ``dis`` and ``tokenize``),
    nor the panel renderers, which only the drawing commands import.  Nor
    does it load the conversions, the closure-law checkers, the sweep, the
    classifier or the presheaf layer, and an oracle census runs without
    them; a sweep loads no closure-law checker and ``check axioms`` no
    sweep; importing the package alone loads no submodule.  Importing the CLI
    loads neither the other commands' handlers (``commands``) nor the
    enumerators (``census``), a sweep loads no handler, and ``show`` and
    ``fouruple`` never load the renderers."""
    submodules = "sorted(m for m in sys.modules if m.startswith('fourtops.'))"
    assert _fresh_child(f"import sys, fourtops; print({submodules})") == "[]\n"
    unwanted = {
        "dataclasses",
        "inspect",
        "fourtops.axioms",
        "fourtops.classifier",
        "fourtops.convert",
        "fourtops.presheaf",
        "fourtops.render",
        "fourtops.sweep",
        "fourtops.topology",
    }
    loaded = f"sorted({unwanted!r} & set(sys.modules))"
    assert _fresh_child(f"import sys, fourtops.cli; print({loaded})") == "[]\n"
    handlers = "sorted({'fourtops.census', 'fourtops.commands'} & set(sys.modules))"
    assert _fresh_child(f"import sys, fourtops.cli; print({handlers})") == "[]\n"

    def run_child(argv):
        code = (
            "import io, sys\n"
            "from fourtops import cli\n"
            f"rc = cli.main({argv!r}, out=io.StringIO())\n"
            f"print(rc, {loaded})"
        )
        return _fresh_child(code)

    for family in ("nuclei", "grotops", "lttops"):
        argv = ["enumerate", family, "--mode", "oracle", "--json", "-t", STAR]
        assert run_child(argv) == "0 []\n", family
    sweep_loads = run_child(["sweep", "--pmax", "1", "--qmax", "1", "--json"])
    assert sweep_loads.startswith("0 ") and "fourtops.sweep" in sweep_loads
    assert "fourtops.axioms" not in sweep_loads

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
    axioms_loads = run_child(["check", "axioms", "--json", "-t", STAR])
    assert axioms_loads.startswith("0 ") and "fourtops.axioms" in axioms_loads
    assert "fourtops.sweep" not in axioms_loads


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


# The eager export list of the package before its names were loaded lazily,
# less the four presheaf helpers that only the tests read (tests/oracles.py).
EXPORTS = set(
    """
    ClosureOperator DownSet GrothendieckTopology HeytingAlgebra Inclusion
    LTTopology Morphism Nucleus OmegaObject Poset Presheaf Quad Slashing
    TestUniverse TwoColumnGraph build_universe can canonical_grothendieck
    check_closure_axioms check_routes chi closure_of closure_to_nucleus
    complete_quad dense_closed_factor down_closure down_of_point
    enumerate_downsets enumerate_grotops enumerate_lts enumerate_nuclei
    filter_check grotop_to_lt grotop_to_lt_direct grotop_to_nucleus
    grotop_to_point_set imp_map interior intersection is_closed is_dense
    is_grothendieck is_inclusion is_lt_topology is_nucleus j_from_closure
    lt_to_grotop meet_map modality_on_downset nucleus_from_point_set
    nucleus_to_grotop nucleus_to_lt omega point_set_of_nucleus
    point_set_to_grotop preimage product restriction_check sieves_on sigma
    slashing_from_erased slashing_from_nucleus slashings_agree star_graph
    strict_down subobjects subterminal_of terminal true_map
    """.split()
)


def test_package_exports_each_name_from_the_module_it_lives_in():
    """Each exported name is the object its home module defines; an unknown
    name, or a helper moved to the tests, raises AttributeError; and reading
    ``kernel_backend`` loads no submodule."""
    import importlib

    import fourtops

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
    code = (
        "import sys, fourtops\n"
        "print(fourtops.kernel_backend, sorted(m for m in sys.modules if m.startswith('fourtops.')))"
    )
    assert _fresh_child(code) == "pure []\n"
