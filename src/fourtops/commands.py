"""The commands that read an input: its text grammar, its JSON schema and
the handlers of every command but ``sweep``.

Input grammar (hand-editable, piles name sieves on two-column graphs):

    poset { points: <id>+ ; arrows: (<id> > <id>)* }
    2cg p=<n> q=<n> [cross { (<id> > <id>)* }]
    y { <id>* }
    nucleus { (<pile> -> <pile> ;)* }
    j { (<point> : <pile> -> <pile> ;)* }
    grotop { (<point> : <pile>+ ;)* }

Inputs starting with '{' are parsed as the JSON schema this tool emits, so
every JSON output can be fed back in unchanged.  Nothing here imports
``fourtops.cli``: under ``python -m`` it is ``__main__``, and would compile twice.
"""

from __future__ import annotations

import json
import re
import sys
from typing import TYPE_CHECKING

from .census import enumerate_grotops, enumerate_lts, enumerate_nuclei
from .emit import emit_json
from .errors import FourtopsError, ParseError, _require_at_least
from .heyting import DEFAULT_ORACLE_POINT_CAP, Nucleus, algebra_of, is_nucleus
from .poset import DownSet, Poset, TwoColumnGraph, sieve_positions, sieves_on
from .records import DEFAULT_PAIR_CAP, STRUCTURE_KINDS, LTTopology, make_grotop

# The conversions, the presheaf layer, the classifier, the closure-law
# checkers (``axioms``) and the panel renderers are imported where they run,
# so the other commands do not compile them: an oracle census loads none.
if TYPE_CHECKING:
    from .convert import Quad


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
        algebra = algebra_of(poset)
        spec.payload = Nucleus(
            algebra, _table(poset, raw, algebra.pos, "the down-set algebra")
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


def _downset_json(poset: Poset, mask: int) -> list[str]:
    return sorted(str(u) for u in poset.names_of(mask))


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
        names = self[mask] = _downset_json(self.poset, mask)
        return names


def structure_json(poset: Poset, kind: str, value, names: NameTable | None = None) -> dict:
    """The JSON form of one structure; pass one ``names`` table to every
    structure of a document to build each name list once."""
    names = NameTable(poset) if names is None else names
    if kind == "y":
        return {"kind": "y", "members": sorted(str(u) for u in value)}
    if kind == "nucleus":
        masks = value.algebra.elements
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
            masks = sieves_on(poset, u)
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


def _json_list(value, field: str, length: int | None = None) -> list:
    """``value`` if it is a JSON list, of ``length`` items when given."""
    if type(value) is not list or length is not None and len(value) != length:
        shape = "a list" if length is None else f"a list of {length}"
        raise ParseError(f"JSON {field!r} must be {shape}, not {type(value).__name__}")
    return value


def _json_typed(value, kind: type, field: str):
    """``value`` if its type is exactly ``kind``, so a bool is no int."""
    if type(value) is not kind:
        got = type(value).__name__
        raise ParseError(f"JSON {field!r} must hold {kind.__name__} values, not {got}")
    return value


def _json_names(value, field: str, length: int | None = None) -> list[str]:
    return [_json_typed(u, str, field) for u in _json_list(value, field, length)]


def _json_spec(pj: dict, sj: dict | None) -> InputSpec:
    """The poset and the raw structure payload of a decoded JSON document.

    Every list, point name, arrow and column height is type-checked here, so
    a string is never read as the set of its characters, nor a boolean or a
    fraction as a height."""
    if pj.get("kind") == "2cg":
        cross = _json_list(pj.get("cross", []), "cross")
        graph = TwoColumnGraph(
            _json_typed(pj["p"], int, "p"),
            _json_typed(pj["q"], int, "q"),
            frozenset(tuple(_json_names(a, "cross", 2)) for a in cross),
        )
        spec = InputSpec(graph.poset(), graph)
    elif pj.get("kind") == "poset":
        points = _json_names(pj["points"], "points")
        arrows = _json_list(pj.get("arrows", []), "arrows")
        spec = InputSpec(Poset(points, {tuple(_json_names(a, "arrows", 2)) for a in arrows}))
    else:
        raise ParseError("poset.kind must be '2cg' or 'poset'")
    if sj is None:
        return spec

    def mask(names, field: str) -> int:
        return spec.poset.mask_of(_json_names(names, field))

    kind = sj.get("kind")
    if kind == "y":
        raw = frozenset(_json_names(sj["members"], "members"))
    elif kind == "nucleus":
        raw = {}
        for row in _json_list(sj["table"], "table"):
            src, dst = _json_list(row, "table", 2)
            raw[mask(src, "table")] = mask(dst, "table")
    elif kind == "lt":
        raw = {}
        for row in _json_list(sj["table"], "table"):
            name, pairs = _json_list(row, "table", 2)
            on_u = raw.setdefault(_json_typed(name, str, "table"), {})
            for pair in _json_list(pairs, "table"):
                a, b = _json_list(pair, "table", 2)
                on_u[mask(a, "table")] = mask(b, "table")
    elif kind == "grotop":
        raw = {}
        for row in _json_list(sj["covers"], "covers"):
            name, fams = _json_list(row, "covers", 2)
            fams = [mask(f, "covers") for f in _json_list(fams, "covers")]
            raw.setdefault(_json_typed(name, str, "covers"), []).extend(fams)
    else:
        raise ParseError("structure.kind must be y, nucleus, grotop, or lt")
    spec.kind, spec.payload = kind, raw
    return spec


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


def _pile_str(graph: TwoColumnGraph, mask: int) -> str:
    a, b = graph.code_of_mask(mask)
    return f"{a}{b}"


def _downset_str(spec: InputSpec, mask: int) -> str:
    if spec.graph is not None:
        return _pile_str(spec.graph, mask)
    return "{" + ",".join(str(u) for u in spec.poset.names_of(mask)) + "}"


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


def _read_input(args) -> InputSpec:
    if getattr(args, "text", None):
        return parse_input(args.text)
    if getattr(args, "input", None) and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_input(fh.read())
    return parse_input(sys.stdin.read())


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
    values = [g.comp[u]["*"].mask for u in poset.points]
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


def cmd_enumerate(args, out) -> int:
    mode = args.mode
    if args.cap is not None and mode != "oracle":
        raise ParseError(f"--cap applies to --mode oracle only, not --mode {mode}")
    cap = DEFAULT_ORACLE_POINT_CAP if args.cap is None else args.cap
    _require_at_least("--cap", cap, 0)
    spec = _read_input(args)
    poset = spec.poset
    if args.family == "nuclei":
        items = enumerate_nuclei(poset, mode, point_cap=cap)
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
