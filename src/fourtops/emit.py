"""The JSON writer every ``--json`` output goes through."""

from __future__ import annotations

try:  # the C escapes that ``json.encoder`` uses, without loading ``json``
    from _json import encode_basestring, encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring, encode_basestring_ascii


def emit_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``,
    byte for byte, for documents of dicts with str keys, lists, tuples, str,
    int, bool, None and float.  With an indent, ``json`` runs its pure-Python
    encoder; this writer escapes strings with the C ``encode_basestring`` and
    writes a list of strings with one join."""
    parts: list[str] = []
    _emit(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _emit(obj, newline: str, parts: list) -> None:
    """Append the JSON text of ``obj`` at the indent that ``newline`` (a
    newline and the indent) gives."""
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
            _emit(obj[key], inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is str for x in obj):
            items = ("," + inner).join(map(encode_basestring, obj))
            parts.append("[" + inner + items + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _emit(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        import json

        parts.append(json.dumps(obj))
