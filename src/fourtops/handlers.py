"""The handlers of ``show``, ``chi``, ``convert``, ``fouruple`` and
``render``, with the text and JSON writers of one structure and the
completion of an input's quadruple.

``cli.main`` imports this module only for those five commands, and
``commands.cmd_enumerate`` only for its text output, so neither a JSON
census nor ``check`` compiles it.  Nothing here imports ``fourtops.cli``:
under ``python -m`` it is ``__main__``, and would compile twice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .commands import (
    InputSpec,
    _downset_json,
    _read_input,
    _write_result,
    poset_json,
)
from .emit import emit_json
from .errors import STRUCTURE_KINDS, ParseError
from .poset import DownSet, Poset, enumerate_downsets, sieves_on

# The route module, the presheaf layer and the panel renderers are imported
# where they run, so each command compiles only the ones it uses.
if TYPE_CHECKING:
    from .routes import Quad


def _quad(spec: InputSpec, source: str | None = None) -> Quad:
    """All four representations of the input's structure, which ``--from``
    (when given) must name."""
    if spec.kind is None:
        raise ParseError("this command needs a structure payload in the input")
    if source is not None and spec.kind != source:
        raise ParseError(f"input structure is {spec.kind!r} but --from says {source!r}")
    from .routes import complete_quad

    return complete_quad(spec.poset, **{spec.kind: spec.payload})


# -- structure writers ------------------------------------------------------------


def _downset_str(spec: InputSpec, mask: int) -> str:
    if spec.graph is not None:
        return spec.graph.pile_code(mask)
    return spec.poset.braced(mask)


def structure_text(spec: InputSpec, kind: str, value) -> str:
    poset = spec.poset
    if kind == "y":
        return "y { " + " ".join(str(u) for u in poset.names_of(value)) + " }"
    if kind == "nucleus":
        els = enumerate_downsets(poset)
        rows = "; ".join(
            f"{_downset_str(spec, s)} -> {_downset_str(spec, els[t])}"
            for s, t in zip(els, value.table)
        )
        return "nucleus { " + rows + " }"
    if kind == "grotop":
        rows = []
        for u, covers in zip(poset.points, value.covers):
            sieves = sieves_on(poset, u)
            fams = " ".join(_downset_str(spec, m) for k, m in enumerate(sieves) if covers >> k & 1)
            rows.append(f"{u}: {fams}")
        return "grotop { " + "; ".join(rows) + " }"
    # lt, the last of STRUCTURE_KINDS
    rows = []
    for i, u in enumerate(poset.points):
        sieves = sieves_on(poset, u)
        for s, k in zip(sieves, value.tables[i]):
            t = sieves[k]
            rows.append(f"{u}: {_downset_str(spec, s)} -> {_downset_str(spec, t)}")
    return "j { " + "; ".join(rows) + " }"


def structure_json(poset: Poset, kind: str, value) -> dict:
    """The JSON form of one structure."""

    def rows(masks: tuple[int, ...], table: tuple[int, ...]) -> list:
        pairs = zip(masks, table)
        return sorted([_downset_json(poset, s), _downset_json(poset, masks[t])] for s, t in pairs)

    if kind == "y":
        return {"kind": "y", "members": sorted(str(u) for u in poset.names_of(value))}
    if kind == "nucleus":
        return {"kind": "nucleus", "table": rows(enumerate_downsets(poset), value.table)}
    if kind == "grotop":
        covers = []
        for u, c in zip(poset.points, value.covers):
            sieves = sieves_on(poset, u)
            names = sorted(_downset_json(poset, m) for k, m in enumerate(sieves) if c >> k & 1)
            covers.append([str(u), names])
        return {"kind": "grotop", "covers": sorted(covers)}
    # lt, the last of STRUCTURE_KINDS
    table = [[str(u), rows(sieves_on(poset, u), value.tables[i])] for i, u in enumerate(poset.points)]
    return {"kind": "lt", "table": sorted(table)}


# -- subcommands -----------------------------------------------------------------


def cmd_show(args, out) -> int:
    spec = _read_input(args)
    poset = spec.poset
    if args.what == "h":
        h = enumerate_downsets(poset)
        if args.json:
            _write_result(out, spec, {"h": [_downset_json(poset, s) for s in h]})
        else:
            out.write(" ".join(_downset_str(spec, s) for s in h) + "\n")
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
    # true, the last target the grammar allows
    rows = [(str(u), _downset_json(poset, poset.down_mask(u))) for u in poset.points]
    if args.json:
        _write_result(out, spec, {"true": [[u, v] for u, v in sorted(rows)]})
    else:
        for u in poset.points:
            out.write(f"{u}: {_downset_str(spec, poset.down_mask(u))}\n")
    return 0


def cmd_chi(args, out) -> int:
    from .presheaf import _truth_values, terminal

    spec = _read_input(args)
    if spec.kind != "y":
        raise ParseError("chi needs a y payload naming a down-closed subterminal")
    poset = spec.poset
    sub = DownSet(poset, spec.payload)
    # the terminal has one element per point, in point order, so the
    # down-set's point mask is its subterminal's element mask and the
    # classifier row loop gives one sieve per point
    values = _truth_values(terminal(poset), sub.mask)
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
        _write_result(
            out, spec, {k: structure_json(spec.poset, k, getattr(quad, k)) for k in STRUCTURE_KINDS}
        )
    else:
        for kind in STRUCTURE_KINDS:
            out.write(structure_text(spec, kind, getattr(quad, kind)) + "\n")
    return 0


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
    else:  # fouruple, the last target the grammar allows
        out.write(render_quad(graph, quad) + "\n")
    return 0
