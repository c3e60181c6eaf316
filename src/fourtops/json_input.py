"""The JSON-input reader: the schema this tool emits, read back.

``commands.parse_input`` imports this module only for input text that starts
with '{', so a command given the text grammar never compiles it.  The reader
gives the same raw payload as the text grammar, which
``commands._realize_structure`` then builds and checks.
"""

from __future__ import annotations

import json

from .commands import InputSpec
from .errors import ParseError
from .poset import Poset, TwoColumnGraph, _require_point_cap


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object, ParseError if it repeats a key: ``json`` keeps
    the last of the repeats, so the answer would hang on their order."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"JSON object repeats the key {key!r}")
        seen.add(key)
    return dict(pairs)


def _parse_json_input(text: str) -> InputSpec:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
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
        pp, qq = _json_typed(pj["p"], int, "p"), _json_typed(pj["q"], int, "q")
        _require_point_cap(pp + qq)
        cross = _json_list(pj.get("cross", []), "cross")
        graph = TwoColumnGraph(pp, qq, [tuple(_json_names(a, "cross", 2)) for a in cross])
        spec = InputSpec(graph.poset(), graph)
    elif pj.get("kind") == "poset":
        points = _json_names(pj["points"], "points")
        _require_point_cap(len(points))
        arrows = _json_list(pj.get("arrows", []), "arrows")
        spec = InputSpec(Poset(points, [tuple(_json_names(a, "arrows", 2)) for a in arrows]))
    else:
        raise ParseError("poset.kind must be '2cg' or 'poset'")
    if sj is None:
        return spec

    def mask(names, field: str) -> int:
        return spec.poset.mask_of(_json_names(names, field))

    kind = sj.get("kind")
    if kind == "y":
        raw = _json_names(sj["members"], "members")
    elif kind == "nucleus":
        raw = []
        for row in _json_list(sj["table"], "table"):
            src, dst = _json_list(row, "table", 2)
            raw.append((mask(src, "table"), mask(dst, "table")))
    elif kind == "lt":
        raw = {}
        for row in _json_list(sj["table"], "table"):
            name, pairs = _json_list(row, "table", 2)
            on_u = raw.setdefault(_json_typed(name, str, "table"), [])
            for pair in _json_list(pairs, "table"):
                a, b = _json_list(pair, "table", 2)
                on_u.append((mask(a, "table"), mask(b, "table")))
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
