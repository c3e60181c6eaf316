"""Deterministic text renderings of pile lattices, classifier panels, and quads.

Geometry: pile ab sits at row (p+q)-(a+b) from the top and column (b-a+p)*2,
so the left column height grows toward the upper left, matching the drawn
lattice of the running example.  Re-rendering identical input is
byte-identical; golden files pin the exact layout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import IncoherentQuad
from .poset import GrothendieckTopology, LTTopology, Nucleus, TwoColumnGraph, enumerate_downsets, sieves_on

if TYPE_CHECKING:
    from .routes import Quad


class _Canvas:
    def __init__(self, rows: int, cols: int):
        self.grid = [[" "] * cols for _ in range(rows)]

    def put(self, y: int, x: int, text: str) -> None:
        for k, ch in enumerate(text):
            self.grid[y][x + k] = ch

    def lines(self) -> list[str]:
        return ["".join(row).rstrip() for row in self.grid]


def _valid_piles(g: TwoColumnGraph) -> dict[tuple[int, int], int]:
    poset = g.poset()
    out = {}
    for a in range(g.p + 1):
        for b in range(g.q + 1):
            mask = g.pile_mask(a, b)
            if poset.is_down_closed(mask):
                out[(a, b)] = mask
    return out


def _pos(g: TwoColumnGraph, a: int, b: int) -> tuple[int, int]:
    return (g.p + g.q) - (a + b), (b - a + g.p) * 2


def render_zha(g: TwoColumnGraph) -> str:
    """The pile lattice alone, one label per valid pile."""
    piles = _valid_piles(g)
    canvas = _Canvas(g.p + g.q + 1, (g.p + g.q) * 2 + sum(g.code_widths()))
    for (a, b), mask in piles.items():
        y, x = _pos(g, a, b)
        canvas.put(y, x, g.pile_code(mask))
    return "\n".join(canvas.lines())


def _panel(
    g: TwoColumnGraph,
    visible: set[int],
    classes: dict[int, int] | None = None,
    marked: set[int] | None = None,
) -> list[str]:
    """One mini lattice: labels for visible masks, dots elsewhere, optional
    region separators between label rows and optional member markers."""
    piles = _valid_piles(g)
    slashed = classes is not None
    height = (g.p + g.q) * 2 + 1 if slashed else g.p + g.q + 1
    canvas = _Canvas(height, (g.p + g.q) * 2 + sum(g.code_widths()) + 2)
    for (a, b), mask in piles.items():
        y, x = _pos(g, a, b)
        y = 2 * y if slashed else y
        if mask in visible:
            label = g.pile_code(mask)
            canvas.put(y, x, label)
            if marked is not None and mask in marked:
                canvas.put(y, x + len(label), "*")
        else:
            canvas.put(y, x, "·")
    if slashed:
        for (a, b), mask in piles.items():
            if mask not in visible:
                continue
            y, x = _pos(g, a, b)
            for da, db, dx, same, cut in (
                (0, -1, -1, "/", "\\"),
                (-1, 0, +1, "\\", "/"),
            ):
                nb = (a + da, b + db)
                nmask = piles.get(nb)
                if nmask is None or nmask not in visible:
                    continue
                glyph = same if classes[mask] == classes[nmask] else cut
                canvas.put(2 * y + 1, x + dx, glyph)
    return canvas.lines()


def _hstack(blocks: list[list[str]], gutter: int = 3) -> list[str]:
    height = max((len(b) for b in blocks), default=0)
    widths = [max((len(line) for line in b), default=0) for b in blocks]
    out = []
    for row in range(height):
        cells = []
        for b, w in zip(blocks, widths):
            line = b[row] if row < len(b) else ""
            cells.append(line.ljust(w))
        out.append((" " * gutter).join(cells).rstrip())
    return out


def _point_panels(g: TwoColumnGraph, per_point_blocks: dict) -> list[str]:
    """Lay per-point panels out in the two-column shape of the graph."""
    lefts: list[str] = []
    for k in range(g.p, 0, -1):
        name = f"{k}_"
        lefts.extend([f"{name}:"] + per_point_blocks[name] + [""])
    rights: list[str] = []
    for k in range(g.q, 0, -1):
        name = f"_{k}"
        rights.extend([f"{name}:"] + per_point_blocks[name] + [""])
    while lefts and not lefts[-1]:
        lefts.pop()
    while rights and not rights[-1]:
        rights.pop()
    return _hstack([lefts, rights])


def render_omega(g: TwoColumnGraph) -> str:
    """Per-point sieve panels; elements outside a component become dots."""
    poset = g.poset()
    blocks = {}
    for u in poset.points:
        blocks[u] = _panel(g, set(sieves_on(poset, u)))
    return "\n".join(_point_panels(g, blocks))


def render_lt(g: TwoColumnGraph, lt: LTTopology) -> str:
    """Per-point panels with region separators for the endomap's fibers."""
    poset = g.poset()
    blocks = {}
    for i, u in enumerate(poset.points):
        classes = dict(zip(sieves_on(poset, u), lt.tables[i]))
        blocks[u] = _panel(g, set(classes), classes=classes)
    return "\n".join(_point_panels(g, blocks))


def render_grotop(g: TwoColumnGraph, j: GrothendieckTopology) -> str:
    """Per-point panels with covering sieves starred."""
    poset = g.poset()
    blocks = {}
    for u, covers in zip(poset.points, j.covers):
        sieves = sieves_on(poset, u)
        marked = {m for k, m in enumerate(sieves) if covers >> k & 1}
        blocks[u] = _panel(g, set(sieves), marked=marked)
    return "\n".join(_point_panels(g, blocks))


def render_nucleus(g: TwoColumnGraph, nucleus: Nucleus) -> str:
    """The full lattice slashed by the nucleus's fibers."""
    classes = dict(zip(enumerate_downsets(nucleus.poset), nucleus.table))
    return "\n".join(_panel(g, set(classes), classes=classes))


def render_point_set(g: TwoColumnGraph, kept: int) -> str:
    """The graph's points, bracketing the members of the point mask."""
    members = g.poset().names_of(kept)
    lines = []
    for k in range(max(g.p, g.q), 0, -1):
        cells = []
        for name, height in ((f"{k}_", g.p), (f"_{k}", g.q)):
            if k > height:
                cells.append("    ")
            elif name in members:
                cells.append(f"[{name}]")
            else:
                cells.append(f" {name} ")
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) if lines else "(no points)"


def render_quad(g: TwoColumnGraph, quad: Quad) -> str:
    """Composite panel in the square shape: point set and nucleus on top,
    covering families and endomap below."""
    if quad.poset != g.poset():
        raise IncoherentQuad("quad belongs to a different graph")
    y_block = ["Y:"] + render_point_set(g, quad.y).split("\n")
    nuc_block = ["nucleus:"] + render_nucleus(g, quad.nucleus).split("\n")
    j_block = ["J:"] + render_grotop(g, quad.grotop).split("\n")
    lt_block = ["j:"] + render_lt(g, quad.lt).split("\n")
    top = _hstack([y_block, nuc_block], gutter=5)
    bottom = _hstack([j_block, lt_block], gutter=5)
    return "\n".join(top + [""] + bottom)
