"""The input reader, the census writer and the ``enumerate`` command:
what an oracle census runs, and all it compiles of the CLI's commands.

Input grammar (hand-editable, piles name sieves on two-column graphs):

    poset { points: <id>+ ; arrows: (<id> > <id>)* }
    2cg p=<n> q=<n> [cross { (<id> > <id>)* }]
    y { <id>* }
    nucleus { (<pile> -> <pile> ;)* }
    j { (<point> : <pile> -> <pile> ;)* }
    grotop { (<point> : <pile>+ ;)* }

Inputs starting with '{' are parsed as the JSON schema this tool emits, so
every JSON output can be fed back in unchanged; that reader lives in
``fourtops.json_input``, imported only for such input, and ``cmd_enumerate``
imports the census when it runs, so ``check`` reads its input through this
module without it.  The other commands' handlers live in
``fourtops.check`` and, with the text and JSON writers of one structure,
in ``fourtops.handlers``.
Nothing here imports ``fourtops.cli``: under ``python -m`` it is
``__main__``, and would compile twice.
"""

from __future__ import annotations

import re
import sys

from .emit import _emit, emit_json, encode_basestring, encode_basestring_ascii
from .errors import (
    DEFAULT_ORACLE_POINT_CAP,
    STRUCTURE_KINDS,
    FourtopsError,
    ParseError,
    SizeCapExceeded,
    _require_at_least,
)
from .heyting import Nucleus
from .poset import (
    Poset,
    TwoColumnGraph,
    _require_point_cap,
    downset_positions,
    enumerate_downsets,
    sieve_positions,
    sieves_on,
)
from .records import GrothendieckTopology, LTTopology


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


def _parse_arrows(p: _Parser) -> list[tuple[str, str]]:
    """The arrows in input order, so that a refusal names the first bad one."""
    arrows = []
    while p.peek() not in (None, "}", ";"):
        src = p.take()
        p.take(">")
        dst = p.take()
        arrows.append((src, dst))
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
    as ParseError with the position of the form that caused them.  Both
    readers refuse a poset over the point cap before they build it, and
    refuse a repeated form: a second poset or structure form in the text, a
    repeated key in the JSON.
    """
    if text.lstrip().startswith("{"):
        from .json_input import _parse_json_input

        spec = _parse_json_input(text)
    else:
        p = _Parser(text)
        try:
            spec = _parse_text(p)
        except (ParseError, SizeCapExceeded):
            raise
        except FourtopsError as e:
            raise p.error(str(e)) from e
    _realize_structure(spec)
    return spec


def _parse_text(p: _Parser) -> InputSpec:
    spec: InputSpec | None = None
    while p.peek() is not None:
        # a repeated form would silently replace the one before it
        if spec is not None and p.peek() in ("2cg", "poset"):
            raise p.error("a second poset or 2cg form: an input holds one")
        if spec is not None and spec.kind is not None and p.peek() in (*STRUCTURE_KINDS, "j"):
            raise p.error("a second structure form: an input holds at most one")
        head = p.take()
        if head == "2cg":
            p.take("p")
            p.take("=")
            pp = _take_count(p)
            p.take("q")
            p.take("=")
            qq = _take_count(p)
            _require_point_cap(pp + qq)
            cross: list = []
            if p.peek() == "cross":
                p.take("cross")
                p.take("{")
                cross = _parse_arrows(p)
                p.take("}")
            graph = TwoColumnGraph(pp, qq, cross)
            spec = InputSpec(graph.poset(), graph)
        elif head == "poset":
            p.take("{")
            p.take("points")
            p.take(":")
            points = []
            while p.peek() not in (";",):
                points.append(p.take())
            p.take(";")
            _require_point_cap(len(points))
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
        return members
    if spec.graph is None:
        raise p.error(f"{kind} payloads use pile codes and need a 2cg input")
    graph = spec.graph
    if kind == "nucleus":
        entries = []
        while p.peek() != "}":
            src = _parse_pile(p, graph)
            p.take("->")
            entries.append((src, _parse_pile(p, graph)))
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
            entries.setdefault(point, []).append((src, _parse_pile(p, graph)))
            if p.peek() == ";":
                p.take(";")
        p.take("}")
        return entries
    # grotop, the last of the kinds the grammar reads
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


def _position(poset: Poset, positions: dict, mask: int, family: str) -> int:
    """The index of a payload down-set among ``positions``, or why it has none."""
    k = positions.get(mask)
    if k is None:
        if not poset.is_down_closed(mask):
            raise ParseError(f"value {poset.braced(mask)} is not down-closed")
        raise ParseError(f"value {poset.braced(mask)} is not one of {family}")
    return k


def _table(poset: Poset, rows: list, positions: dict, family: str) -> tuple[int, ...]:
    """A total mask-to-mask table on the down-sets ``positions`` indexes,
    from (source, value) rows that name each source once."""
    row: dict = {}
    for src, dst in rows:
        if src in row:
            raise ParseError(f"table lists source {poset.braced(src)} twice on {family}")
        row[src] = dst
    if set(row) != set(positions):
        raise ParseError(f"table must be total on {family}")
    return tuple(_position(poset, positions, row[m], family) for m in positions)


def _realize_structure(spec: InputSpec) -> None:
    """Build and check the structure from the raw payload either reader gives.

    The raw payload is a list of point names for ``y``, which becomes their
    mask; a list of (mask, mask) rows for ``nucleus``; and, per point name, a
    list of (mask, mask) rows for ``lt`` or a list of masks for ``grotop``.
    Masks are over the points.
    """
    poset, raw = spec.poset, spec.payload
    # the point names the payload gives, checked in input order
    named = poset.mask_of(raw) if spec.kind in ("y", "lt", "grotop") else 0
    if spec.kind == "y":
        spec.payload = named
    elif spec.kind == "nucleus":
        spec.payload = Nucleus(poset, _table(poset, raw, downset_positions(poset), "the down-set algebra"))
    elif spec.kind == "lt":
        rows = []
        for u in poset.points:
            on_u = f"the sieves on {u!r}"
            rows.append(_table(poset, raw.get(u, []), sieve_positions(poset, u), on_u))
        spec.payload = LTTopology(poset, tuple(rows))
    elif spec.kind == "grotop":
        covers = [0] * len(poset.points)
        for u, fam in raw.items():
            i, positions = poset.index(u), sieve_positions(poset, u)
            for m in fam:
                covers[i] |= 1 << _position(poset, positions, m, f"the sieves on {u!r}")
        spec.payload = GrothendieckTopology(poset, tuple(covers))


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


def _json_list(cells: list, newline: str) -> tuple[str, str]:
    """The JSON text of a list whose items have the (text, compact text)
    pairs ``cells``: as ``emit_json`` writes it at the indent of ``newline``,
    and as ``json.dumps`` writes it."""
    if not cells:
        return "[]", "[]"
    inner = newline + "  "
    return (
        "[" + inner + ("," + inner).join([text for text, _ in cells]) + newline + "]",
        "[" + ", ".join([compact for _, compact in cells]) + "]",
    )


def census_json(spec: InputSpec, kind: str, items: list) -> str:
    """The document ``_write_result`` writes for a census of ``items``, each
    as ``handlers.structure_json`` gives it and sorted by ``json.dumps(item,
    sort_keys=True)``, byte for byte.  It is written from the distinct
    components of the items, each built once: the rows of the nucleus
    tables, and the per-point entries of LT tables and covering families.
    Each has its text at its indent in the document and its compact text.
    ``structure_json`` sorts an item's components into an order that is the
    same for every item, so the compact text of the joined components sorts
    the items as ``json.dumps`` does."""
    poset = spec.poset
    # a newline and the indent of each depth: the items list is at depth 2,
    # an item's keys and its table at 4, the table's rows or entries at 5;
    # a names list is one deeper than its row or covering family
    at = ["\n" + "  " * depth for depth in range(9)]
    depth = {"nucleus": 6, "grotop": 7, "lt": 8}[kind]  # of a names list
    named: dict = {}
    rows: dict = {}
    entries: dict = {}

    def names(mask: int) -> tuple[list, tuple[str, str]]:
        """The sorted point names of ``mask``, and the cell of their list."""
        got = named.get(mask)
        if got is None:
            listed = _downset_json(poset, mask)
            cells = [(encode_basestring(u), encode_basestring_ascii(u)) for u in listed]
            got = named[mask] = listed, _json_list(cells, at[depth])
        return got

    def by_names(masks: tuple[int, ...]) -> list[int]:
        return sorted(range(len(masks)), key=lambda k: names(masks[k])[0])

    def row(s: int, d: int) -> tuple[str, str]:
        got = rows.get((s, d))
        if got is None:
            got = rows[s, d] = _json_list([names(s)[1], names(d)[1]], at[depth - 1])
        return got

    def entry(i: int, value) -> tuple[str, str]:
        got = entries.get((i, value))
        if got is None:
            masks = sieves[i]
            if kind == "lt":
                cells = [row(masks[k], masks[value[k]]) for k in ranked[i]]
            else:
                covering = [m for k, m in enumerate(masks) if value >> k & 1]
                cells = [cell for _, cell in sorted(map(names, covering))]
            u = str(points[i])
            point = (encode_basestring(u), encode_basestring_ascii(u))
            got = entries[i, value] = _json_list([point, _json_list(cells, at[6])], at[5])
        return got

    points = poset.points
    if kind == "nucleus":
        masks = enumerate_downsets(poset)
        order = by_names(masks)
        tables = [[row(masks[k], masks[v.table[k]]) for k in order] for v in items]
    else:
        sieves = [sieves_on(poset, u) for u in points]
        if kind == "lt":
            ranked = [by_names(m) for m in sieves]
        order = sorted(range(len(points)), key=lambda i: str(points[i]))
        values = (v.tables if kind == "lt" else v.covers for v in items)
        tables = [[entry(i, vals[i]) for i in order] for vals in values]
    if kind == "grotop":
        head, tail = "{" + at[4] + '"covers": ', "," + at[4] + '"kind": "grotop"' + at[3] + "}"
    else:
        head, tail = "{" + at[4] + f'"kind": "{kind}",' + at[4] + '"table": ', at[3] + "}"
    # (compact text, text) of each item's table, in the items' order
    listed = sorted(_json_list(cells, at[4])[::-1] for cells in tables)
    parts = ['{\n  "poset": ']
    _emit(poset_json(spec), at[1], parts)
    parts.append(f',\n  "result": {{\n    "count": {len(items)},\n    "items": ')
    parts.append(_json_list([(head + text + tail, "") for _, text in listed], at[2])[0])
    parts.append("\n  }\n}\n")
    return "".join(parts)


def _write_result(out, spec: InputSpec, result: dict) -> None:
    out.write(emit_json({"poset": poset_json(spec), "result": result}))


# -- the command's input and the enumerate command ------------------------------


def _read_input(args) -> InputSpec:
    """The input of ``-t`` or of the ``-i`` file, or stdin when neither is
    given; both at once are refused before either is read."""
    if args.text is not None:
        if args.input is not None:
            raise ParseError("give the input with -t or with -i, not both")
        return parse_input(args.text)
    if args.input is not None and args.input != "-":
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read {args.input}: {e.strerror}") from None
        except UnicodeDecodeError as e:
            raise ParseError(f"{args.input} is not UTF-8 text: byte {e.start} is invalid") from None
        return parse_input(text)
    return parse_input(sys.stdin.read())


def cmd_enumerate(args, out) -> int:
    from .census import enumerate_grotops, enumerate_lts, enumerate_nuclei

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
        out.write(census_json(spec, kind, items))
    else:
        from .handlers import structure_text

        out.write(f"{len(items)}\n")
        for v in items:
            out.write(structure_text(spec, kind, v) + "\n")
    return 0
