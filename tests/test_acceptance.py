"""Acceptance criteria, one test per criterion, all exact-match.

Each test prints a PASS line on success; the family criteria share one sweep
over every two-column graph with p, q <= 2 and every acyclic cross-arrow
configuration.
"""

import io
import pathlib

import pytest

from fourtops.census import enumerate_lts
from fourtops.axioms import build_universe, check_closure_axioms, filter_check
from fourtops.cli import main
from fourtops.convert import lt_to_grotop
from fourtops.errors import NotDownClosed
from fourtops.poset import (
    DownSet,
    Poset,
    TwoColumnGraph,
    enumerate_downsets,
    lattice_tables,
    sieves_on,
    star_graph,
)
from fourtops.presheaf import _truth_values
from fourtops.routes import check_routes
from fourtops.topology import ClosureOperator, is_grothendieck, is_lt_topology
from fourtops.sweep import cross_configurations, sweep_instance

from .oracles import (
    Inclusion,
    Presheaf,
    canonical_grothendieck,
    chi,
    cover_masks,
    dense_closed_factor,
    downset_le,
    imp_map,
    is_closed,
    is_dense,
    meet_map,
    pile,
    restriction_check,
    sigma,
    subterminal_of,
    terminal_presheaf,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
STAR_TEXT = "2cg p=2 q=2 cross { 2_ > _1 }"


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def report(criterion, ok, detail=""):
    tail = f" {detail}" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}:{tail}")
    assert ok


@pytest.fixture(scope="module")
def star():
    return star_graph()


@pytest.fixture(scope="module")
def family_results():
    """Every 2CG with p, q <= 2 and every acyclic cross configuration,
    deduplicated by order closure for speed but reported per configuration."""
    out = []
    cache = {}
    for p in range(3):
        for q in range(3):
            for cross in cross_configurations(p, q):
                graph = TwoColumnGraph(p, q, cross)
                poset = graph.poset()
                key = (poset.points, tuple(poset._down))
                if key not in cache:
                    roundtrips, truncation, closure, topmost = check_routes(poset)
                    cache[key] = {
                        "sweep": sweep_instance(graph, cap=6),
                        "reports": {
                            "truncation": truncation,
                            "closure": closure,
                            "topmost": topmost,
                            "roundtrips": roundtrips,
                        },
                    }
                out.append(((p, q, cross), cache[key]))
    return out


def test_criterion_01_omega_reconstruction():
    code, out = run_cli("show", "omega", "-t", STAR_TEXT)
    lines = dict(l.split(":") for l in out.strip().split("\n"))
    got = {u: frozenset(v.split()) for u, v in lines.items()}
    expected = {
        "2_": frozenset({"00", "01", "10", "11", "21"}),
        "_2": frozenset({"00", "01", "02"}),
        "1_": frozenset({"00", "10"}),
        "_1": frozenset({"00", "01"}),
    }
    report("01 omega reconstruction", code == 0 and got == expected)


def test_criterion_02_truth_value_algebra(star):
    downs = enumerate_downsets(star.poset())
    codes = {"%d%d" % star.code_of_mask(d) for d in downs}
    ok = codes == {"00", "01", "10", "11", "02", "12", "21", "22"}
    try:
        pile(star, 2, 0)
        rejected = False
    except NotDownClosed:
        rejected = True
    report("02 truth-value algebra", ok and rejected)


def test_criterion_03_worked_classifying_map(star):
    P = star.poset()
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
    f = Inclusion(a, b)
    g = chi(f)
    value = "%d%d" % star.code_of_mask(g("2_", "2").mask)
    # the package's classifier row loop on the same element mask
    index = b.elements()
    values = _truth_values(index, f.mask)
    package = "%d%d" % star.code_of_mask(DownSet(P, values[index.bit[("2_", "2")]]).mask)
    report(
        "03 worked classifying map",
        value == package == "11" and sigma(g) == f,
        f"chi(2 in B(2_)) = {value}, package row loop {package}",
    )


def test_criterion_04_one_point_internal_maps():
    P1 = Poset(["u"])
    lab = lambda d: 1 if d.mask else 0
    conj = meet_map(P1)
    s_and = {(lab(x), lab(y)) for (x, y) in sigma(conj).dom.sets["u"]}
    s_imp = {(lab(x), lab(y)) for (x, y) in sigma(imp_map(P1)).dom.sets["u"]}
    # the conjunction is the meet table the package builds for Ω(u)
    sieves = sieves_on(P1, "u")
    n = len(sieves)
    _, meet = lattice_tables(sieves)
    package = {(x, y): sieves[meet[a * n + b]] for a, x in enumerate(sieves) for b, y in enumerate(sieves)}
    oracle = {(x.mask, y.mask): v.mask for (x, y), v in conj.comp["u"].items()}
    report(
        "04 one-point internal maps",
        s_and == {(1, 1)} and s_imp == {(0, 0), (0, 1), (1, 1)} and oracle == package,
    )


def test_criterion_05_census_law(family_results):
    bad = [
        label
        for label, entry in family_results
        if not all(entry["sweep"]["census"].values())
    ]
    report(
        "05 census law",
        not bad,
        f"{len(family_results)} configurations, all three families count 2^|points|",
    )


def test_criterion_06_round_trip_coherence(family_results):
    bad = [
        label
        for label, entry in family_results
        if not entry["reports"]["roundtrips"].ok
    ]
    report("06 round-trip coherence", not bad, f"{len(family_results)} configurations")


def test_criterion_07_route_agreement_reports(family_results):
    complete = True
    agree = True
    for (p, q, _cross), entry in family_results:
        for name in ("truncation", "closure"):
            rep = entry["reports"][name]
            complete = complete and rep.total == 2 ** (p + q)
            agree = agree and rep.ok
    # a definitive verdict per instance is required; agreement is the
    # expected outcome and is reported either way
    report(
        "07 route-agreement reports",
        complete,
        f"all verdicts definitive; routes agree on every instance: {agree}",
    )
    assert agree, "route disagreement found; counterexample rendered in report"


def test_criterion_08_axiom_suites(star):
    P = star.poset()
    universe = build_universe(P, pair_cap=5000)
    lts = enumerate_lts(P, "formula")
    ok = len(lts) == 16
    for lt in lts:
        ok = ok and is_lt_topology(lt).ok
        ok = ok and check_closure_axioms(ClosureOperator(lt), universe).ok
        grotop = lt_to_grotop(lt)
        ok = ok and is_grothendieck(grotop).ok
        f_report, generators = filter_check(grotop)
        ok = ok and f_report.ok
        for i, gen in enumerate(generators):
            members = {
                m
                for m in sieves_on(P, P.points[i])
                if gen | m == m
            }
            ok = ok and members == set(cover_masks(grotop, i))
    report("08 axiom suites", ok, "16 endomaps, closures, covering families")


def test_criterion_09_structure_theorems(star):
    P = star.poset()
    elements = enumerate_downsets(P)
    one = terminal_presheaf(P)
    subterminals = [Inclusion(subterminal_of(P, s), one) for s in elements]
    ok = True
    for lt in enumerate_lts(P, "formula"):
        clop = ClosureOperator(lt)
        for s in elements:
            for t in elements:
                if not downset_le(s, t):
                    continue
                for e in elements:
                    if not downset_le(t, e):
                        continue
                    triple = (
                        Inclusion(subterminal_of(P, s), subterminal_of(P, t)),
                        Inclusion(subterminal_of(P, t), subterminal_of(P, e)),
                        Inclusion(subterminal_of(P, s), subterminal_of(P, e)),
                    )
                    ok = ok and restriction_check(clop, triple).ok
        for f in subterminals:
            m, closed = dense_closed_factor(clop, f)
            ok = ok and is_dense(clop, m) and is_closed(clop, closed)
            ok = ok and m.then(closed) == Inclusion(f.dom, f.cod)
            if is_dense(clop, f) and is_closed(clop, f):
                ok = ok and f.dom == f.cod
    report("09 structure theorems", ok, "restriction and dense-closed factorization")


def test_criterion_10_topmost_class_claim(family_results):
    complete = all(
        entry["reports"]["topmost"].total > 0 for _, entry in family_results
    )
    agree = all(entry["reports"]["topmost"].ok for _, entry in family_results)
    report(
        "10 topmost-class claim",
        complete,
        f"definitive on every configuration; claim holds everywhere: {agree}",
    )
    assert agree, "counterexample to the topmost-class claim; see report"


def test_criterion_11_canonical_topology():
    import itertools

    checked = 0
    ok = True
    for k in range(4):
        points = [f"p{i}" for i in range(k)]
        pairs = [(a, b) for a in points for b in points if a != b]
        seen = set()
        for arrows in itertools.chain.from_iterable(
            itertools.combinations(pairs, m) for m in range(len(pairs) + 1)
        ):
            try:
                base = Poset(points, arrows)
            except Exception:
                continue
            key = tuple(base._down)
            if key in seen:
                continue
            seen.add(key)
            ok = ok and is_grothendieck(canonical_grothendieck(base)).ok
            checked += 1
    report("11 canonical topology", ok, f"{checked} bases with at most 3 points")


def test_criterion_12_determinism():
    goldens = {
        ("render", "fouruple", "-t", STAR_TEXT + "\ny { _1 }"): "render_fouruple_star.txt",
        ("chi", "-t", STAR_TEXT + "\ny { _1 }"): "chi_star.txt",
        ("chi", "--json", "-t", STAR_TEXT + "\ny { _1 }"): "chi_star.json",
        ("show", "omega", "--json", "-t", STAR_TEXT): "show_omega_star.json",
        (
            "enumerate",
            "nuclei",
            "--mode",
            "oracle",
            "--json",
            "-t",
            STAR_TEXT,
        ): "enumerate_nuclei_oracle_star.json",
        (
            "convert",
            "--from",
            "y",
            "--to",
            "grotop",
            "--json",
            "-t",
            STAR_TEXT + "\ny { _1 }",
        ): "convert_y_grotop_star.json",
        ("check", "conjectures", "--json", "-t", STAR_TEXT): "check_conjectures_star.json",
        ("sweep", "--pmax", "1", "--qmax", "1", "--json"): "sweep_1_1.json",
    }
    ok = True
    for argv, name in goldens.items():
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        expected = (GOLDEN / name).read_text()
        ok = ok and code1 == code2 == 0 and out1 == out2 == expected
    report("12 determinism", ok, f"{len(goldens)} outputs byte-stable and golden")
