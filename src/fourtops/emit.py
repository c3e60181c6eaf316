"""The JSON writer every ``--json`` output goes through."""

from __future__ import annotations

import json
from json.encoder import encode_basestring


def emit_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``,
    byte for byte, for documents of dicts with str keys, lists, tuples, str,
    int, bool, None and float.  With an indent, ``json`` runs its pure-Python
    encoder; this writer escapes strings with the C ``encode_basestring``,
    writes a list of strings with one join, and writes a list that the
    document holds again at the same indent (the name lists and the rows
    that structure tables share) from its first text."""
    parts: list[str] = []
    _emit(obj, "\n", parts, {})
    parts.append("\n")
    return "".join(parts)


def _emit(obj, newline: str, parts: list, written: dict) -> None:
    """Append the JSON text of ``obj`` at the indent that ``newline`` (a
    newline and the indent) gives.  ``written`` maps (id, newline) of each
    list written so far to its text, or for a list of other values to the
    (start, end) span of ``parts`` that holds it until the list is written
    again; the ids stay unique while the document, which holds every list,
    is alive."""
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
            if type(text) is tuple:
                text = written[key] = "".join(parts[text[0] : text[1]])
            parts.append(text)
            return
        inner = newline + "  "
        if all(type(x) is str for x in obj):
            items = ("," + inner).join(map(encode_basestring, obj))
            text = written[key] = "[" + inner + items + newline + "]"
            parts.append(text)
            return
        start = len(parts)
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _emit(item, inner, parts, written)
            sep = "," + inner
        parts.append(newline + "]")
        written[key] = (start, len(parts))
    else:
        parts.append(json.dumps(obj))
