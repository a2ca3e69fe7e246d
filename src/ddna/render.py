"""Deterministic arc-view rendering of structures and diagrams.

SVG output puts bases on horizontal rows and draws each base pair as an
elliptical arc whose height is its nesting depth times a fixed
increment, so deep stems stay readable.  Structures and diagrams share
one row layout: a position has the same x on every row, and the drawing
is as wide as its longest row.  A-T pairs and C-G pairs get the
two configured colors; nothing else is ever stroked in color.  Identical
inputs always produce byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SecondaryStructure, arc_depths, emit_dotbracket, pair_class
from .diagram import Diagram

_FONT = 14.0
_GAP = 5.0  # distance from a glyph anchor to the arc/wire endpoint
_MARKUP = "<>&\"'"  # characters a color would need escaped inside an SVG attribute


@dataclass(frozen=True)
class RenderStyle:
    """Colors and geometry knobs.

    ``show_direction_arrows`` adds 5'-to-3' arrowheads on through wires
    (A and C run downward, T and G upward); it is off by default since
    the orientation is a drawing convention, not data.
    """

    at_color: str = "#d03030"
    cg_color: str = "#3060c0"
    spacing: float = 26.0
    arc_height: float = 16.0
    show_direction_arrows: bool = False

    def __post_init__(self) -> None:
        # Comparisons with nan are false, so nan fails the range check too.
        if not (0 < self.spacing < math.inf and 0 < self.arc_height < math.inf):
            raise ValueError("spacing and arc_height must be finite and positive")
        for name in ("at_color", "cg_color"):
            color = getattr(self, name)
            if any(c in color for c in _MARKUP):
                raise ValueError(f"{name} {color!r} may not contain any of {_MARKUP}")

    def color_for_pair(self, a: str, b: str) -> str:
        return self.at_color if pair_class(a, b) == "AT" else self.cg_color

    def color_for_base(self, base: str) -> str:
        return self.at_color if base in "AT" else self.cg_color


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _depths(
    arcs: frozenset[tuple[int, int]],
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    """``arcs`` sorted, with the nesting depth of each."""
    ordered = sorted(arcs)
    depths = arc_depths(ordered)
    if depths is None:
        raise ValueError("cannot draw crossing arcs; validate the value first")
    return ordered, depths


def _x(pos: int, style: RenderStyle) -> float:
    """Where position ``pos`` (1-based) sits on any row."""
    return style.spacing + (pos - 1) * style.spacing


def _glyphs(word: str, y: float, style: RenderStyle) -> list[str]:
    """One letter glyph per position of ``word``, on the row at ``y``."""
    return [
        f'<text x="{_fmt(_x(pos, style))}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{_fmt(_FONT)}" text-anchor="middle">{base}</text>'
        for pos, base in enumerate(word, start=1)
    ]


def _arc_paths(
    word: str,
    arcs: list[tuple[int, int]],
    depths: dict[tuple[int, int], int],
    y: float,
    upward: bool,
    style: RenderStyle,
) -> list[str]:
    """One elliptical arc per pair of positions of ``word``, in the order of
    the sorted ``arcs``, standing on the row at ``y``; each is as tall as its
    nesting depth."""
    sweep = 1 if upward else 0
    paths = []
    for i, j in arcs:
        x1, x2 = _x(i, style), _x(j, style)
        rx, height = (x2 - x1) / 2, depths[i, j] * style.arc_height
        color = style.color_for_pair(word[i - 1], word[j - 1])
        paths.append(
            f'<path d="M {_fmt(x1)} {_fmt(y)} A {_fmt(rx)} {_fmt(height)} 0 0 {sweep} '
            f'{_fmt(x2)} {_fmt(y)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    return paths


def _document(n: int, height: float, body: list[str], style: RenderStyle) -> str:
    """The SVG document around ``body``, wide enough for rows of ``n`` letters."""
    width = 2 * style.spacing + max(n - 1, 0) * style.spacing
    # Finite options can still overflow: 1e308 spacing makes the width inf.
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(
            f"drawing size {width} x {height} is not finite; spacing or arc_height is too large"
        )
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def render_structure_svg(structure: SecondaryStructure, style: RenderStyle = RenderStyle()) -> str:
    """Bases on one line, pairs as colored arcs in the upper half-plane."""
    arcs, depths = _depths(structure.arcs)
    top = style.spacing + max(depths.values(), default=0) * style.arc_height
    baseline = top + _GAP + _FONT
    body = _arc_paths(structure.word, arcs, depths, baseline - _FONT - _GAP, True, style)
    body += _glyphs(structure.word, baseline, style)
    return _document(len(structure.word), baseline + style.spacing, body, style)


def _wire_arrow(x1: float, y1: float, x2: float, y2: float, base: str, color: str) -> str:
    mx, my = (x1 + x2) / 2, (y1 + y2) / 2
    head = 4.0 if base in "AC" else -4.0  # A, C point down; T, G point up
    points = (
        f"{_fmt(mx)},{_fmt(my + head)} "
        f"{_fmt(mx - 3)},{_fmt(my - head)} "
        f"{_fmt(mx + 3)},{_fmt(my - head)}"
    )
    return f'<polygon points="{points}" fill="{color}"/>'


def render_diagram_svg(d: Diagram, style: RenderStyle = RenderStyle()) -> str:
    """Source row on top, target row below, wires and arcs between them."""
    src_arcs, src_depths = _depths(d.source_arcs)
    tgt_arcs, tgt_depths = _depths(d.target_arcs)
    levels = max(src_depths.values(), default=0) + max(tgt_depths.values(), default=0)
    y_src = style.spacing + _FONT
    y_tgt = y_src + (levels + 2) * style.arc_height + 2 * style.spacing
    y1, y2 = y_src + _GAP, y_tgt - _FONT - _GAP
    body = [
        *_arc_paths(d.source, src_arcs, src_depths, y1, False, style),
        *_arc_paths(d.target, tgt_arcs, tgt_depths, y2, True, style),
    ]
    for i, j in sorted(d.through):
        x1, x2 = _x(i, style), _x(j, style)
        color = style.color_for_base(d.source[i - 1])
        mid = (y1 + y2) / 2
        body.append(
            f'<path d="M {_fmt(x1)} {_fmt(y1)} C {_fmt(x1)} {_fmt(mid)} '
            f'{_fmt(x2)} {_fmt(mid)} {_fmt(x2)} {_fmt(y2)}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if style.show_direction_arrows:
            body.append(_wire_arrow(x1, y1, x2, y2, d.source[i - 1], color))
    body += _glyphs(d.source, y_src, style) + _glyphs(d.target, y_tgt, style)
    return _document(max(len(d.source), len(d.target)), y_tgt + style.spacing, body, style)


def render_structure_text(structure: SecondaryStructure) -> str:
    """Sequence line, bracket line, and a nesting-depth sketch.

    The sketch marks each paired position with its arc's nesting depth
    (mod 10) and unpaired positions with dots; the bracket line parses
    back to the input structure.
    """
    _, depths = _depths(structure.arcs)
    sketch = ["."] * len(structure.word)
    for (i, j), depth in depths.items():
        sketch[i - 1] = sketch[j - 1] = str(depth % 10)
    return emit_dotbracket(structure) + "".join(sketch) + "\n"
