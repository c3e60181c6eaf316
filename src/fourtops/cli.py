"""Command-line front door: text/JSON input, subcommands, batch sweeps.

Input grammar (hand-editable, piles name sieves on two-column graphs):

    poset { points: <id>+ ; arrows: (<id> > <id>)* }
    2cg p=<n> q=<n> [cross { (<id> > <id>)* }]
    y { <id>* }
    nucleus { (<pile> -> <pile> ;)* }
    j { (<point> : <pile> -> <pile> ;)* }
    grotop { (<point> : <pile>+ ;)* }

Inputs starting with '{' are parsed as the JSON schema this tool emits, so
every JSON output can be fed back in unchanged.  Exit codes: 0 all checks
pass, 1 counterexample found, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from json.encoder import encode_basestring
from typing import TYPE_CHECKING

from .census import enumerate_grotops, enumerate_lts, enumerate_nuclei
from .errors import FourtopsError, ParseError, SizeCapExceeded
from .heyting import DEFAULT_ORACLE_POINT_CAP, HeytingAlgebra, Nucleus, is_nucleus
from .poset import (
    DownSet,
    Poset,
    TwoColumnGraph,
    canonical_form,
    sieve_positions,
    sieves_on,
)
from .records import DEFAULT_PAIR_CAP, LTTopology, make_grotop

# The conversions, the presheaf layer, the classifier, the closure-law
# checkers and the panel renderers are imported by the handlers that run
# them, once per command, so the other commands do not pay to compile and
# load them: an oracle census loads none of them.
if TYPE_CHECKING:
    from .convert import Quad

STRUCTURE_KINDS = ("y", "nucleus", "grotop", "lt")


class InputSpec:
    """Parsed poset (plus its two-column form when available) and an optional
    structure payload."""

    __slots__ = ("poset", "graph", "kind", "payload")

    def __init__(
        self,
        poset: Poset,
        graph: TwoColumnGraph | None = None,
        kind: str | None = None,
        payload: object = None,
    ):
        self.poset = poset
        self.graph = graph
        self.kind = kind
        self.payload = payload


# -- tokenizer / text grammar -------------------------------------------------

_TOKEN = re.compile(r"->|[{}:;>=]|[A-Za-z0-9_]+")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        stripped = line.split("#", 1)[0]
        for m in _TOKEN.finditer(stripped):
            if stripped[pos : m.start()].strip():
                raise ParseError(
                    f"unexpected character {stripped[pos:m.start()].strip()[0]!r}",
                    lineno,
                    pos + 1,
                )
            tokens.append((m.group(), lineno, m.start() + 1))
            pos = m.end()
        if stripped[pos:].strip():
            raise ParseError(
                f"unexpected character {stripped[pos:].strip()[0]!r}", lineno, pos + 1
            )
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.at = 0

    def peek(self) -> str | None:
        return self.tokens[self.at][0] if self.at < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        if self.at >= len(self.tokens):
            raise ParseError(f"unexpected end of input, wanted {expected or 'a token'}")
        tok, line, col = self.tokens[self.at]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", line, col)
        self.at += 1
        return tok

    def error(self, message: str) -> ParseError:
        if self.at < len(self.tokens):
            _, line, col = self.tokens[self.at]
            return ParseError(message, line, col)
        return ParseError(message)


def _parse_arrows(p: _Parser) -> set[tuple[str, str]]:
    arrows = set()
    while p.peek() not in (None, "}", ";"):
        src = p.take()
        p.take(">")
        dst = p.take()
        arrows.add((src, dst))
    return arrows


def _take_count(p: _Parser) -> int:
    tok = p.take()
    if not tok.isdigit():
        raise p.error(f"expected a column height, found {tok!r}")
    return int(tok)


def _parse_pile(p: _Parser, graph: TwoColumnGraph) -> int:
    tok = p.take()
    if not tok.isdigit() or len(tok) != 2:
        raise p.error(f"expected a two-digit pile code, found {tok!r}")
    return graph.pile_mask(int(tok[0]), int(tok[1]))


def parse_input(text: str) -> InputSpec:
    """Parse the text grammar, or the JSON schema when text starts with '{'.

    Both readers produce the same raw payload, which
    :func:`_realize_structure` then builds and checks.  Construction errors
    in the text grammar (cycles, bad piles, same-column cross arrows) surface
    as ParseError with the position of the form that caused them.
    """
    if text.lstrip().startswith("{"):
        spec = _parse_json_input(text)
    else:
        p = _Parser(text)
        try:
            spec = _parse_text(p)
        except ParseError:
            raise
        except FourtopsError as e:
            raise p.error(str(e)) from e
    _realize_structure(spec)
    return spec


def _parse_text(p: _Parser) -> InputSpec:
    spec: InputSpec | None = None
    while p.peek() is not None:
        head = p.take()
        if head == "2cg":
            p.take("p")
            p.take("=")
            pp = _take_count(p)
            p.take("q")
            p.take("=")
            qq = _take_count(p)
            cross: set = set()
            if p.peek() == "cross":
                p.take("cross")
                p.take("{")
                cross = _parse_arrows(p)
                p.take("}")
            graph = TwoColumnGraph(pp, qq, frozenset(cross))
            spec = InputSpec(graph.poset(), graph)
        elif head == "poset":
            p.take("{")
            p.take("points")
            p.take(":")
            points = []
            while p.peek() not in (";",):
                points.append(p.take())
            p.take(";")
            p.take("arrows")
            p.take(":")
            arrows = _parse_arrows(p)
            p.take("}")
            spec = InputSpec(Poset(points, arrows))
        elif head in STRUCTURE_KINDS or head == "j":
            if spec is None:
                raise p.error("a poset or 2cg must come before the structure payload")
            kind = "lt" if head == "j" else head
            spec.kind = kind
            spec.payload = _parse_structure(p, kind, spec)
        else:
            raise ParseError(f"unknown form {head!r}")
    if spec is None:
        raise ParseError("empty input")
    return spec


def _parse_structure(p: _Parser, kind: str, spec: InputSpec):
    """The raw payload of one structure form; see :func:`_realize_structure`."""
    p.take("{")
    if kind == "y":
        members = []
        while p.peek() != "}":
            members.append(p.take())
        p.take("}")
        return frozenset(members)
    if spec.graph is None:
        raise p.error(f"{kind} payloads use pile codes and need a 2cg input")
    graph = spec.graph
    if kind == "nucleus":
        entries = {}
        while p.peek() != "}":
            src = _parse_pile(p, graph)
            p.take("->")
            entries[src] = _parse_pile(p, graph)
            if p.peek() == ";":
                p.take(";")
        p.take("}")
        return entries
    if kind == "lt":
        entries: dict = {}
        while p.peek() != "}":
            point = p.take()
            p.take(":")
            src = _parse_pile(p, graph)
            p.take("->")
            entries.setdefault(point, {})[src] = _parse_pile(p, graph)
            if p.peek() == ";":
                p.take(";")
        p.take("}")
        return entries
    if kind == "grotop":
        families: dict = {}
        while p.peek() != "}":
            point = p.take()
            p.take(":")
            fam = []
            while p.peek() not in (";", "}"):
                fam.append(_parse_pile(p, graph))
            families.setdefault(point, []).extend(fam)
            if p.peek() == ";":
                p.take(";")
        p.take("}")
        return families
    raise p.error(f"unknown structure kind {kind!r}")


def _position(poset: Poset, positions: dict, mask: int, family: str) -> int:
    """The index of a payload down-set among ``positions``, or why it has none."""
    k = positions.get(mask)
    if k is None:
        names = "{" + ",".join(str(u) for u in poset.names_of(mask)) + "}"
        if not poset.is_down_closed(mask):
            raise ParseError(f"value {names} is not down-closed")
        raise ParseError(f"value {names} is not one of {family}")
    return k


def _table(poset: Poset, row: dict, positions: dict, family: str) -> tuple[int, ...]:
    """A total mask-to-mask table on the down-sets ``positions`` indexes."""
    if set(row) != set(positions):
        raise ParseError(f"table must be total on {family}")
    return tuple(_position(poset, positions, row[m], family) for m in positions)


def _realize_structure(spec: InputSpec) -> None:
    """Build and check the structure from the raw payload either reader gives.

    The raw payload is a set of point names for ``y``; a dict from mask to
    mask for ``nucleus``; and, per point name, a dict from mask to mask for
    ``lt`` or a list of masks for ``grotop``.  Masks are over the points.
    """
    poset, raw = spec.poset, spec.payload
    if spec.kind in ("y", "lt", "grotop"):
        for u in raw:
            poset.index(u)
    if spec.kind == "nucleus":
        algebra = HeytingAlgebra(poset)
        spec.payload = Nucleus(
            algebra, _table(poset, raw, algebra._pos, "the down-set algebra")
        )
    elif spec.kind == "lt":
        rows = []
        for u in poset.points:
            on_u = f"the sieves on {u!r}"
            rows.append(_table(poset, raw.get(u, {}), sieve_positions(poset, u), on_u))
        spec.payload = LTTopology(poset, tuple(rows))
    elif spec.kind == "grotop":
        for u, fam in raw.items():
            for m in fam:
                _position(poset, sieve_positions(poset, u), m, f"the sieves on {u!r}")
        spec.payload = make_grotop(poset, raw)


# -- JSON schema ---------------------------------------------------------------


def _downset_json(ds: DownSet) -> list[str]:
    return sorted(str(u) for u in ds.members)


def poset_json(spec: InputSpec) -> dict:
    if spec.graph is not None:
        return {
            "kind": "2cg",
            "p": spec.graph.p,
            "q": spec.graph.q,
            "cross": sorted([u, v] for (u, v) in spec.graph.cross),
        }
    return {
        "kind": "poset",
        "points": [str(u) for u in spec.poset.points],
        "arrows": sorted([str(u), str(v)] for (u, v) in spec.poset.arrows),
    }


class NameTable(dict):
    """Mask -> the sorted point names of that mask, each list built on first
    use.  One table serves every structure of one output document, whose
    rows then share the lists: read them, do not mutate them."""

    __slots__ = ("poset",)

    def __init__(self, poset: Poset):
        super().__init__()
        self.poset = poset

    def __missing__(self, mask: int) -> list[str]:
        names = self[mask] = sorted(str(u) for u in self.poset.names_of(mask))
        return names


def structure_json(poset: Poset, kind: str, value, names: NameTable | None = None) -> dict:
    """The JSON form of one structure; pass one ``names`` table to every
    structure of a document to build each name list once."""
    names = NameTable(poset) if names is None else names
    if kind == "y":
        return {"kind": "y", "members": sorted(str(u) for u in value)}
    if kind == "nucleus":
        masks = [s.mask for s in value.algebra.elements]
        table = [[names[masks[k]], names[masks[t]]] for k, t in enumerate(value.table)]
        return {"kind": "nucleus", "table": sorted(table)}
    if kind == "grotop":
        covers = []
        for i, u in enumerate(poset.points):
            covers.append([str(u), sorted(names[m] for m in value.covers[i])])
        return {"kind": "grotop", "covers": sorted(covers)}
    if kind == "lt":
        table = []
        for i, u in enumerate(poset.points):
            masks = [s.mask for s in sieves_on(poset, u)]
            pairs = sorted(
                [names[masks[k]], names[masks[t]]] for k, t in enumerate(value.tables[i])
            )
            table.append([str(u), pairs])
        return {"kind": "lt", "table": sorted(table)}
    raise ValueError(f"unknown structure kind {kind!r}")


def _parse_json_input(text: str) -> InputSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e}") from None
    if not isinstance(data, dict) or not isinstance(data.get("poset"), dict):
        raise ParseError("JSON input needs a 'poset' object")
    sj = data.get("structure")
    if sj is not None and not isinstance(sj, dict):
        raise ParseError("JSON 'structure' must be an object")
    try:
        return _json_spec(data["poset"], sj)
    except KeyError as e:
        raise ParseError(f"JSON input lacks the field {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise ParseError(f"malformed JSON input: {e}") from None


def _json_spec(pj: dict, sj: dict | None) -> InputSpec:
    """The poset and the raw structure payload of a decoded JSON document."""
    if pj.get("kind") == "2cg":
        graph = TwoColumnGraph(
            int(pj["p"]), int(pj["q"]), frozenset(tuple(a) for a in pj.get("cross", []))
        )
        spec = InputSpec(graph.poset(), graph)
    elif pj.get("kind") == "poset":
        spec = InputSpec(Poset(pj["points"], {tuple(a) for a in pj.get("arrows", [])}))
    else:
        raise ParseError("poset.kind must be '2cg' or 'poset'")
    if sj is None:
        return spec
    mask_of = spec.poset.mask_of
    kind = sj.get("kind")
    if kind == "y":
        raw = frozenset(sj["members"])
    elif kind == "nucleus":
        raw = {mask_of(src): mask_of(dst) for src, dst in sj["table"]}
    elif kind == "lt":
        raw = {}
        for name, pairs in sj["table"]:
            raw.setdefault(name, {}).update((mask_of(a), mask_of(b)) for a, b in pairs)
    elif kind == "grotop":
        raw = {}
        for name, fams in sj["covers"]:
            raw.setdefault(name, []).extend(mask_of(f) for f in fams)
    else:
        raise ParseError("structure.kind must be y, nucleus, grotop, or lt")
    spec.kind, spec.payload = kind, raw
    return spec


def emit_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``,
    byte for byte, for documents of dicts with str keys, lists, tuples, str,
    int, bool, None and float.  With an indent, ``json`` runs its pure-Python
    encoder; this writer escapes strings with the C ``encode_basestring``,
    writes a list of strings with one join, and writes a list of strings
    that the document holds again at the same indent (the name lists that
    structure rows share) from its first text."""
    parts: list[str] = []
    _emit(obj, "\n", parts, {})
    parts.append("\n")
    return "".join(parts)


def _emit(obj, newline: str, parts: list, written: dict) -> None:
    """Append the JSON text of ``obj`` at the indent that ``newline`` (a
    newline and the indent) gives.  ``written`` maps (id, newline) of each
    list of strings written so far to its text; the ids stay unique while
    the document, which holds every list, is alive."""
    if isinstance(obj, str):
        parts.append(encode_basestring(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            parts.append(sep + encode_basestring(key) + ": ")
            _emit(obj[key], inner, parts, written)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        key = (id(obj), newline)
        text = written.get(key)
        if text is not None:
            parts.append(text)
            return
        inner = newline + "  "
        if all(type(x) is str for x in obj):
            items = ("," + inner).join(map(encode_basestring, obj))
            text = written[key] = "[" + inner + items + newline + "]"
            parts.append(text)
            return
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _emit(item, inner, parts, written)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(obj))


def _write_result(out, spec: InputSpec, result: dict) -> None:
    out.write(emit_json({"poset": poset_json(spec), "result": result}))


# -- structure conversion helpers ----------------------------------------------


def _quad(spec: InputSpec, source: str | None = None) -> Quad:
    """All four representations of the input's structure, which ``--from``
    (when given) must name."""
    if spec.kind is None:
        raise ParseError("this command needs a structure payload in the input")
    if source is not None and spec.kind != source:
        raise ParseError(f"input structure is {spec.kind!r} but --from says {source!r}")
    from .convert import complete_quad

    return complete_quad(spec.poset, **{spec.kind: spec.payload})


def convert_structure(spec: InputSpec, target: str):
    return getattr(_quad(spec), target)


def _pile_str(graph: TwoColumnGraph, mask: int) -> str:
    a, b = graph.code_of_mask(mask)
    return f"{a}{b}"


def _downset_str(spec: InputSpec, ds: DownSet) -> str:
    if spec.graph is not None:
        return _pile_str(spec.graph, ds.mask)
    return "{" + ",".join(str(u) for u in ds.members) + "}"


def structure_text(spec: InputSpec, kind: str, value) -> str:
    poset = spec.poset
    if kind == "y":
        return "y { " + " ".join(str(u) for u in poset.points if u in value) + " }"
    if kind == "nucleus":
        rows = "; ".join(
            f"{_downset_str(spec, s)} -> {_downset_str(spec, value.apply(s))}"
            for s in value.algebra.elements
        )
        return "nucleus { " + rows + " }"
    if kind == "grotop":
        rows = []
        for i, u in enumerate(poset.points):
            fams = " ".join(
                _downset_str(spec, DownSet(poset, m)) for m in value.covers[i]
            )
            rows.append(f"{u}: {fams}")
        return "grotop { " + "; ".join(rows) + " }"
    if kind == "lt":
        rows = []
        for i, u in enumerate(poset.points):
            sieves = sieves_on(poset, u)
            for k, s in enumerate(sieves):
                t = sieves[value.tables[i][k]]
                rows.append(f"{u}: {_downset_str(spec, s)} -> {_downset_str(spec, t)}")
        return "j { " + "; ".join(rows) + " }"
    raise ValueError(kind)


# -- subcommands -----------------------------------------------------------------


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ParseError(f"{flag} must be at least {least}, not {value}")


def _read_input(args) -> InputSpec:
    if getattr(args, "text", None):
        return parse_input(args.text)
    if getattr(args, "input", None) and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_input(fh.read())
    return parse_input(sys.stdin.read())


def cmd_show(args, out) -> int:
    from .render import render_omega, render_zha

    spec = _read_input(args)
    poset = spec.poset
    if args.what == "h":
        algebra = HeytingAlgebra(poset)
        if args.render:
            if spec.graph is None:
                raise ParseError("--render needs a 2cg input")
            out.write(render_zha(spec.graph) + "\n")
        elif args.json:
            _write_result(out, spec, {"h": [_downset_json(s) for s in algebra.elements]})
        else:
            out.write(" ".join(_downset_str(spec, s) for s in algebra.elements) + "\n")
        return 0
    if args.what == "omega":
        if args.render:
            if spec.graph is None:
                raise ParseError("--render needs a 2cg input")
            out.write(render_omega(spec.graph) + "\n")
            return 0
        rows = [
            (str(u), [_downset_json(s) for s in sieves_on(poset, u)])
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
        rows = [
            (str(u), _downset_json(DownSet(poset, poset.down_mask(u))))
            for u in poset.points
        ]
        if args.json:
            _write_result(out, spec, {"true": [[u, v] for u, v in sorted(rows)]})
        else:
            for u in poset.points:
                ds = DownSet(poset, poset.down_mask(u))
                out.write(f"{u}: {_downset_str(spec, ds)}\n")
        return 0
    raise ParseError(f"unknown show target {args.what!r}")


def cmd_chi(args, out) -> int:
    from .classifier import chi as chi_map
    from .presheaf import Inclusion, subterminal_of, terminal

    spec = _read_input(args)
    if spec.kind != "y":
        raise ParseError("chi needs a y payload naming a down-closed subterminal")
    poset = spec.poset
    sub = DownSet(poset, poset.mask_of(spec.payload))
    one = terminal(poset)
    f = Inclusion(subterminal_of(poset, sub), one)
    g = chi_map(f)
    rows = []
    for u in poset.points:
        rows.append((str(u), _downset_json(g.comp[u]["*"])))
    if args.json:
        _write_result(out, spec, {"chi": [[u, v] for u, v in sorted(rows)]})
    else:
        for u in poset.points:
            out.write(f"{u}: {_downset_str(spec, g.comp[u]['*'])}\n")
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
    from .render import render_quad

    spec = _read_input(args)
    quad = _quad(spec, args.source)
    if args.render:
        if spec.graph is None:
            raise ParseError("--render needs a 2cg input")
        out.write(render_quad(spec.graph, quad) + "\n")
        return 0
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


def cmd_enumerate(args, out) -> int:
    mode = args.mode
    if args.cap is not None and mode != "oracle":
        raise ParseError(f"--cap applies to --mode oracle only, not --mode {mode}")
    cap = DEFAULT_ORACLE_POINT_CAP if args.cap is None else args.cap
    _require_at_least("--cap", cap, 0)
    spec = _read_input(args)
    poset = spec.poset
    if args.family == "nuclei":
        items = enumerate_nuclei(HeytingAlgebra(poset), mode, point_cap=cap)
        kind = "nucleus"
    elif args.family == "grotops":
        items = enumerate_grotops(poset, mode, point_cap=cap)
        kind = "grotop"
    else:
        items = enumerate_lts(poset, mode, point_cap=cap)
        kind = "lt"
    if args.json:
        names = NameTable(poset)
        items_json = (structure_json(poset, kind, v, names) for v in items)
        _write_result(
            out,
            spec,
            {
                "count": len(items),
                "items": sorted(items_json, key=lambda d: json.dumps(d, sort_keys=True)),
            },
        )
    else:
        out.write(f"{len(items)}\n")
        for v in items:
            out.write(structure_text(spec, kind, v) + "\n")
    return 0


def _axiom_results(poset: Poset, cap: int) -> tuple[list, bool]:
    from .classifier import omega
    from .convert import grotop_to_nucleus, lt_to_grotop
    from .topology import (
        ClosureOperator,
        build_universe,
        check_closure_axioms,
        filter_check,
        is_grothendieck,
        is_lt_topology,
    )

    algebra = HeytingAlgebra(poset)
    om = omega(poset)
    universe = build_universe(poset, om, pair_cap=cap)
    results = []
    all_ok = True
    for i, lt in enumerate(enumerate_lts(poset, "formula")):
        entry = {"index": i}
        lt_report = is_lt_topology(lt, om)
        entry["lt_axioms"] = lt_report.ok
        clop = ClosureOperator(lt)
        closure_report = check_closure_axioms(clop, universe)
        entry["closure_axioms"] = closure_report.ok
        grotop = lt_to_grotop(lt)
        g_report = is_grothendieck(grotop)
        entry["covering_axioms"] = g_report.ok
        f_report = filter_check(grotop)
        entry["filter_laws"] = f_report.report.ok
        entry["filter_generators"] = [
            _downset_json(g) for g in f_report.generators
        ]
        nucleus = grotop_to_nucleus(grotop, algebra)
        entry["nucleus_axioms"] = is_nucleus(algebra, nucleus.table).ok
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


def cross_configurations(p: int, q: int) -> list[frozenset]:
    """Every acyclic cross-arrow set for the given column heights, by size,
    then in ``combinations`` order over the sorted candidate arrows.  Each
    left/right pair gets no arrow or one either way, and a branch stops at
    its first cycle."""
    names = [f"{i}_" for i in range(1, p + 1)] + [f"_{j}" for j in range(1, q + 1)]
    pairs = [(a, b) for a in range(p) for b in range(p, p + q)]
    found = []

    def walk(pos: int, below: list[int], chosen: frozenset) -> None:
        # below[k]: the points under point k, as bits, in the graph so far
        if pos == len(pairs):
            found.append(chosen)
            return
        walk(pos + 1, below, chosen)
        for a, b in (pairs[pos], pairs[pos][::-1]):
            if not below[b] >> a & 1:
                under = below[b] | 1 << b
                grown = [m | under if k == a or m >> a & 1 else m for k, m in enumerate(below)]
                walk(pos + 1, grown, chosen | {(names[a], names[b])})

    walk(0, [(1 << k) - 1 for k in range(p)] + [(1 << k) - 1 << p for k in range(q)], frozenset())
    found.sort(key=lambda c: (len(c), sorted(c)))
    return found


def sweep_instance(graph: TwoColumnGraph, cap: int) -> dict:
    """All acceptance-style checks for one two-column graph; the formula
    side of the census is the faces the route pass builds."""
    from .convert import route_pass, route_reports

    poset = graph.poset()
    algebra = HeytingAlgebra(poset)
    expected = 2 ** len(poset.points)
    no = enumerate_nuclei(algebra, "oracle", point_cap=cap)
    go = enumerate_grotops(poset, "oracle", point_cap=cap)
    lo = enumerate_lts(poset, "oracle", point_cap=cap)
    rows = list(route_pass(poset, algebra))
    nf, gf, lf = zip(*(faces for _, faces, _ in rows))
    census = {
        "nuclei": len(no) == expected and set(nf) == set(no),
        "grotops": len(go) == expected and set(gf) == set(go),
        "lts": len(lo) == expected and set(lf) == set(lo),
    }
    names = ("roundtrips", "truncation_route", "closure_route", "topmost")
    reports = {name: r.ok for name, r in zip(names, route_reports(rows))}
    verdict = all(census.values()) and all(reports.values())
    return {
        "census": census,
        "checks": reports,
        "expected_count": expected,
        "ok": verdict,
    }


def cmd_sweep(args, out) -> int:
    """Every check on every configuration, computed once per isomorphism
    class: each verdict is invariant under relabelling the points.  The
    labelled poset is looked up first, so the canonical form is computed once
    per distinct labelled poset."""
    for flag, value in (("--pmax", args.pmax), ("--qmax", args.qmax), ("--cap", args.cap)):
        _require_at_least(flag, value, 0)
    if args.pmax + args.qmax > args.cap:
        raise SizeCapExceeded(f"--pmax + --qmax is {args.pmax + args.qmax}, over --cap {args.cap}")
    instances = []
    ok = True
    labelled: dict = {}
    classes: dict = {}
    for p in range(args.pmax + 1):
        for q in range(args.qmax + 1):
            for cross in cross_configurations(p, q):
                graph = TwoColumnGraph(p, q, cross)
                poset = graph.poset()
                key = (poset.points, poset._down)
                result = labelled.get(key)
                if result is None:
                    form = canonical_form(poset)
                    result = classes.get(form)
                    if result is None:
                        result = sweep_instance(graph, args.cap)
                        classes[form] = result
                    labelled[key] = result
                label = f"p={p} q={q} cross={{{' '.join(f'{u}>{v}' for u, v in sorted(cross))}}}"
                instances.append(
                    {
                        "p": p,
                        "q": q,
                        "cross": sorted([u, v] for (u, v) in cross),
                        **result,
                    }
                )
                ok = ok and result["ok"]
                if not args.json:
                    out.write(f"{label}: {'ok' if result['ok'] else 'FAIL'}\n")
    if args.json:
        out.write(emit_json({"result": {"instances": instances, "ok": ok}}))
    else:
        out.write(
            f"{sum(1 for e in instances if e['ok'])}/{len(instances)} instances ok\n"
        )
    return 0 if ok else 1


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fourtops",
        description="compute, convert, render, and check topologies on "
        "presheaves over finite posets",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, render=False, json=True):
        p.add_argument("-i", "--input", help="input file ('-' for stdin)")
        p.add_argument("-t", "--text", help="inline input text")
        if json:
            p.add_argument("--json", action="store_true", help="structured output")
        if render:
            p.add_argument("--render", action="store_true", help="panel output")

    p_show = sub.add_parser("show", help="display h, omega, or the true map")
    p_show.add_argument("what", choices=["h", "omega", "true"])
    add_common(p_show, render=True)

    p_chi = sub.add_parser("chi", help="classifying map of a subterminal (y payload)")
    add_common(p_chi)

    p_conv = sub.add_parser("convert", help="convert between representations")
    p_conv.add_argument("--from", dest="source", choices=STRUCTURE_KINDS, required=True)
    p_conv.add_argument("--to", dest="target", choices=STRUCTURE_KINDS, required=True)
    add_common(p_conv)

    p_four = sub.add_parser("fouruple", help="complete all four representations")
    p_four.add_argument("--from", dest="source", choices=STRUCTURE_KINDS, required=True)
    add_common(p_four, render=True)

    p_enum = sub.add_parser("enumerate", help="enumerate structures on the poset")
    p_enum.add_argument("family", choices=["nuclei", "grotops", "lttops"])
    p_enum.add_argument(
        "--mode", choices=["formula", "oracle"], default="formula"
    )
    add_common(p_enum)
    p_enum.add_argument(
        "--cap", type=int, help=f"point cap of --mode oracle (default {DEFAULT_ORACLE_POINT_CAP})"
    )

    p_check = sub.add_parser("check", help="run axiom or agreement checkers")
    p_check.add_argument(
        "what", choices=["axioms", "conjectures", "topmost", "roundtrips"]
    )
    add_common(p_check)
    p_check.add_argument(
        "--cap", type=int, help=f"pair cap for check axioms (default {DEFAULT_PAIR_CAP})"
    )

    p_render = sub.add_parser("render", help="text renderings")
    p_render.add_argument(
        "what", choices=["zha", "omega", "j", "grotop", "fouruple"]
    )
    add_common(p_render, json=False)

    p_sweep = sub.add_parser("sweep", help="batch checks over a 2cg family")
    p_sweep.add_argument("--pmax", type=int, default=2)
    p_sweep.add_argument("--qmax", type=int, default=2)
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.add_argument("--cap", type=int, default=DEFAULT_ORACLE_POINT_CAP)
    return top


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handlers = {
        "show": cmd_show,
        "chi": cmd_chi,
        "convert": cmd_convert,
        "fouruple": cmd_fouruple,
        "enumerate": cmd_enumerate,
        "check": cmd_check,
        "render": cmd_render,
        "sweep": cmd_sweep,
    }
    try:
        code = handlers[args.command](args, out)
        # flush here, so a reader that closed the pipe is caught below
        out.flush()
        return code
    except FourtopsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointing it at devnull keeps
        # that flush from failing a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        print("error: the output was closed before it was all written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
