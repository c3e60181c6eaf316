"""The handlers of every command but ``enumerate`` and ``sweep``, with the
text writers of structures and the completion of an input's quadruple.

``cli.main`` imports this module only for ``show``, ``chi``, ``convert``,
``fouruple``, ``check`` and ``render``, and ``commands.cmd_enumerate`` only
for its text output, so a JSON census never compiles it.  Nothing here
imports ``fourtops.cli``: under ``python -m`` it is ``__main__``, and would
compile twice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .census import enumerate_lts
from .commands import (
    InputSpec,
    NameTable,
    _downset_json,
    _names,
    _read_input,
    _write_result,
    poset_json,
    structure_json,
)
from .emit import emit_json
from .errors import ParseError, _require_at_least
from .heyting import algebra_of, is_nucleus
from .poset import DownSet, Poset, TwoColumnGraph, sieves_on
from .records import DEFAULT_PAIR_CAP, STRUCTURE_KINDS

# The conversions, the presheaf layer, the classifier, the closure-law
# checkers (``axioms``) and the panel renderers are imported where they run,
# so each command compiles only the ones it uses.
if TYPE_CHECKING:
    from .convert import Quad


def _quad(spec: InputSpec, source: str | None = None) -> Quad:
    """All four representations of the input's structure, which ``--from``
    (when given) must name."""
    if spec.kind is None:
        raise ParseError("this command needs a structure payload in the input")
    if source is not None and spec.kind != source:
        raise ParseError(f"input structure is {spec.kind!r} but --from says {source!r}")
    from .convert import complete_quad

    return complete_quad(spec.poset, **{spec.kind: spec.payload})


# -- text writers -----------------------------------------------------------------


def _pile_str(graph: TwoColumnGraph, mask: int) -> str:
    a, b = graph.code_of_mask(mask)
    return f"{a}{b}"


def _downset_str(spec: InputSpec, mask: int) -> str:
    if spec.graph is not None:
        return _pile_str(spec.graph, mask)
    return _names(spec.poset, mask)


def structure_text(spec: InputSpec, kind: str, value) -> str:
    poset = spec.poset
    if kind == "y":
        return "y { " + " ".join(str(u) for u in poset.points if u in value) + " }"
    if kind == "nucleus":
        els = value.algebra.elements
        rows = "; ".join(
            f"{_downset_str(spec, s)} -> {_downset_str(spec, els[t])}"
            for s, t in zip(els, value.table)
        )
        return "nucleus { " + rows + " }"
    if kind == "grotop":
        rows = []
        for i, u in enumerate(poset.points):
            fams = " ".join(_downset_str(spec, m) for m in value.covers[i])
            rows.append(f"{u}: {fams}")
        return "grotop { " + "; ".join(rows) + " }"
    if kind == "lt":
        rows = []
        for i, u in enumerate(poset.points):
            sieves = sieves_on(poset, u)
            for s, k in zip(sieves, value.tables[i]):
                t = sieves[k]
                rows.append(f"{u}: {_downset_str(spec, s)} -> {_downset_str(spec, t)}")
        return "j { " + "; ".join(rows) + " }"
    raise ValueError(kind)


# -- subcommands -----------------------------------------------------------------


def cmd_show(args, out) -> int:
    spec = _read_input(args)
    poset = spec.poset
    if args.what == "h":
        algebra = algebra_of(poset)
        if args.json:
            _write_result(out, spec, {"h": [_downset_json(poset, s) for s in algebra.elements]})
        else:
            out.write(" ".join(_downset_str(spec, s) for s in algebra.elements) + "\n")
        return 0
    if args.what == "omega":
        rows = [
            (str(u), [_downset_json(poset, s) for s in sieves_on(poset, u)])
            for u in poset.points
        ]
        if args.json:
            _write_result(out, spec, {"omega": [[u, v] for u, v in sorted(rows)]})
        else:
            for u in poset.points:
                line = " ".join(_downset_str(spec, s) for s in sieves_on(poset, u))
                out.write(f"{u}: {line}\n")
        return 0
    if args.what == "true":
        rows = [(str(u), _downset_json(poset, poset.down_mask(u))) for u in poset.points]
        if args.json:
            _write_result(out, spec, {"true": [[u, v] for u, v in sorted(rows)]})
        else:
            for u in poset.points:
                out.write(f"{u}: {_downset_str(spec, poset.down_mask(u))}\n")
        return 0
    raise ParseError(f"unknown show target {args.what!r}")


def cmd_chi(args, out) -> int:
    from .presheaf import _truth_values, terminal

    spec = _read_input(args)
    if spec.kind != "y":
        raise ParseError("chi needs a y payload naming a down-closed subterminal")
    poset = spec.poset
    sub = DownSet(poset, poset.mask_of(spec.payload))
    # the terminal has one element per point, in point order, so the
    # down-set's point mask is its subterminal's element mask and the
    # classifier row loop gives one sieve per point
    values = _truth_values(terminal(poset).elements(), sub.mask)
    if args.json:
        rows = sorted((str(u), _downset_json(poset, m)) for u, m in zip(poset.points, values))
        _write_result(out, spec, {"chi": [[u, v] for u, v in rows]})
    else:
        for u, m in zip(poset.points, values):
            out.write(f"{u}: {_downset_str(spec, m)}\n")
    return 0


def cmd_convert(args, out) -> int:
    spec = _read_input(args)
    value = getattr(_quad(spec, args.source), args.target)
    if args.json:
        out.write(
            emit_json(
                {
                    "poset": poset_json(spec),
                    "structure": structure_json(spec.poset, args.target, value),
                }
            )
        )
    else:
        out.write(structure_text(spec, args.target, value) + "\n")
    return 0


def cmd_fouruple(args, out) -> int:
    spec = _read_input(args)
    quad = _quad(spec, args.source)
    if args.json:
        names = NameTable(spec.poset)
        _write_result(
            out,
            spec,
            {k: structure_json(spec.poset, k, getattr(quad, k), names) for k in STRUCTURE_KINDS},
        )
    else:
        for kind in STRUCTURE_KINDS:
            out.write(structure_text(spec, kind, getattr(quad, kind)) + "\n")
    return 0


def _axiom_results(poset: Poset, cap: int) -> tuple[list, bool]:
    from .axioms import build_universe, check_closure_axioms, filter_check
    from .convert import grotop_to_nucleus, lt_to_grotop
    from .topology import ClosureOperator, is_grothendieck, is_lt_topology

    universe = build_universe(poset, pair_cap=cap)
    results = []
    all_ok = True
    for i, lt in enumerate(enumerate_lts(poset, "formula")):
        entry = {"index": i}
        lt_report = is_lt_topology(lt)
        entry["lt_axioms"] = lt_report.ok
        clop = ClosureOperator(lt)
        closure_report = check_closure_axioms(clop, universe)
        entry["closure_axioms"] = closure_report.ok
        grotop = lt_to_grotop(lt)
        g_report = is_grothendieck(grotop)
        entry["covering_axioms"] = g_report.ok
        f_report = filter_check(grotop)
        entry["filter_laws"] = f_report.report.ok
        entry["filter_generators"] = [_downset_json(poset, g.mask) for g in f_report.generators]
        nucleus = grotop_to_nucleus(grotop)
        entry["nucleus_axioms"] = is_nucleus(nucleus.algebra, nucleus.table).ok
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
    from .convert import check_routes

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
                "agree": sum(v.agrees for v in r.verdicts),
                "total": len(r.verdicts),
                "counterexamples": [
                    {"label": v.label, "detail": v.detail} for v in r.counterexamples()
                ],
            }
            for r in outputs
        ]
        _write_result(out, spec, {"reports": reports_json, "ok": ok})
    else:
        for r in outputs:
            out.write(r.summary() + "\n")
    return 0 if ok else 1


def cmd_render(args, out) -> int:
    from .render import render_grotop, render_lt, render_omega, render_quad, render_zha

    spec = _read_input(args)
    if spec.graph is None:
        raise ParseError("render needs a 2cg input")
    graph = spec.graph
    if args.what == "zha":
        out.write(render_zha(graph) + "\n")
        return 0
    if args.what == "omega":
        out.write(render_omega(graph) + "\n")
        return 0
    quad = _quad(spec)
    if args.what == "j":
        out.write(render_lt(graph, quad.lt) + "\n")
    elif args.what == "grotop":
        out.write(render_grotop(graph, quad.grotop) + "\n")
    elif args.what == "fouruple":
        out.write(render_quad(graph, quad) + "\n")
    else:
        raise ParseError(f"unknown render target {args.what!r}")
    return 0
