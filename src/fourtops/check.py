"""The ``check`` command: the axiom suites of every LT topology on the
input's poset (``check axioms``), or one of the route reports
(``conjectures``, ``topmost``, ``roundtrips``), each written as its count
of agreeing point sets and the label and detail of each one that fails.

``cli.main`` imports this module only for ``check``.  Every target loads
the checkers (``topology``) and the conversions (``convert``), read off
the module when they run, so a patched one reaches ``check axioms`` too.
``check axioms`` takes its LT topologies from ``convert.formula_lts``, and
so loads neither the census, the table-search kernel, the route module nor
the other commands' handlers; ``axioms`` and ``routes`` are imported by
the targets that run them.
Nothing here imports ``fourtops.cli``: under ``python -m`` it is
``__main__``, and would compile twice.
"""

from __future__ import annotations

from . import convert
from .commands import _downset_json, _read_input, _write_result
from .errors import DEFAULT_PAIR_CAP, ParseError, _require_at_least
from .poset import Poset
from .topology import ClosureOperator, is_grothendieck, is_lt_topology, is_nucleus


def _axiom_results(poset: Poset, cap: int) -> tuple[list, bool]:
    from .axioms import build_universe, check_closure_axioms, filter_check

    universe = build_universe(poset, pair_cap=cap)
    results = []
    all_ok = True
    for i, lt in enumerate(convert.formula_lts(poset)):
        entry = {"index": i}
        lt_report = is_lt_topology(lt)
        entry["lt_axioms"] = lt_report.ok
        clop = ClosureOperator(lt)
        closure_report = check_closure_axioms(clop, universe)
        entry["closure_axioms"] = closure_report.ok
        grotop = convert.lt_to_grotop(lt)
        g_report = is_grothendieck(grotop)
        entry["covering_axioms"] = g_report.ok
        f_report, generators = filter_check(grotop)
        entry["filter_laws"] = f_report.ok
        entry["filter_generators"] = [_downset_json(poset, g) for g in generators]
        entry["nucleus_axioms"] = is_nucleus(convert.grotop_to_nucleus(grotop)).ok
        results.append(entry)
        all_ok = all_ok and all(
            v for k, v in entry.items() if isinstance(v, bool)
        )
    return results, all_ok


def cmd_check(args, out) -> int:
    if args.cap is not None and args.what != "axioms":
        raise ParseError(f"--cap applies to check axioms only, not check {args.what}")
    if args.cap is not None:
        _require_at_least("--cap", args.cap, 1)
    spec = _read_input(args)
    poset = spec.poset
    if args.what == "axioms":
        results, ok = _axiom_results(poset, DEFAULT_PAIR_CAP if args.cap is None else args.cap)
        if args.json:
            _write_result(out, spec, {"instances": results, "ok": ok})
        else:
            out.write(
                f"{sum(all(v for k, v in e.items() if isinstance(v, bool)) for e in results)}"
                f"/{len(results)} structures pass all axiom suites\n"
            )
        return 0 if ok else 1
    from .routes import check_routes

    names = {
        "conjectures": ("truncation route", "closure route"),
        "topmost": ("topmost region covers",),
        "roundtrips": ("round trips",),
    }[args.what]
    outputs = [r for r in check_routes(poset) if r.name in names]
    ok = all(r.ok for r in outputs)
    if args.json:
        reports_json = [
            {
                "name": r.name,
                "ok": r.ok,
                "agree": r.total - len(r.counterexamples),
                "total": r.total,
                "counterexamples": [
                    {"label": label, "detail": detail} for label, detail in r.counterexamples
                ],
            }
            for r in outputs
        ]
        _write_result(out, spec, {"reports": reports_json, "ok": ok})
    else:
        for r in outputs:
            out.write(r.summary() + "\n")
    return 0 if ok else 1
