"""Deterministic arc-view rendering of structures and diagrams.

SVG output puts bases on horizontal rows and draws each base pair as an
elliptical arc whose height is its nesting depth times a fixed
increment, so deep stems stay readable.  A-T pairs and C-G pairs get the
two configured colors; nothing else is ever stroked in color.  Identical
inputs always produce byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import SecondaryStructure, arc_depths, brackets_of, pair_class
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


def _text(x: float, y: float, glyph: str) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{_fmt(_FONT)}" text-anchor="middle">{glyph}</text>'
    )


def _arc_paths(
    word: str,
    arcs: list[tuple[int, int]],
    depths: dict[tuple[int, int], int],
    x_of: Callable[[int], float],
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
        x1, x2 = x_of(i), x_of(j)
        rx, height = (x2 - x1) / 2, depths[i, j] * style.arc_height
        color = style.color_for_pair(word[i - 1], word[j - 1])
        paths.append(
            f'<path d="M {_fmt(x1)} {_fmt(y)} A {_fmt(rx)} {_fmt(height)} 0 0 {sweep} '
            f'{_fmt(x2)} {_fmt(y)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    return paths


def _document(width: float, height: float, body: list[str]) -> str:
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
    n = len(structure.word)
    arcs, depths = _depths(structure.arcs)
    max_depth = max(depths.values(), default=0)
    margin = style.spacing
    top = margin + max_depth * style.arc_height
    baseline = top + _GAP + _FONT
    width = 2 * margin + max(n - 1, 0) * style.spacing
    height = baseline + margin

    def x_of(pos: int) -> float:
        return margin + (pos - 1) * style.spacing

    y = baseline - _FONT - _GAP
    body = _arc_paths(structure.word, arcs, depths, x_of, y, True, style)
    for pos, base in enumerate(structure.word, start=1):
        body.append(_text(x_of(pos), baseline, base))
    return _document(width, height, body)


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
    margin = style.spacing
    n = max(len(d.source), len(d.target))
    width = 2 * margin + max(n - 1, 0) * style.spacing
    y_src = margin + _FONT
    y_tgt = y_src + (levels + 2) * style.arc_height + 2 * style.spacing
    height = y_tgt + margin

    def x_of(pos: int) -> float:
        return margin + (pos - 1) * style.spacing

    y1, y2 = y_src + _GAP, y_tgt - _FONT - _GAP
    body = [
        *_arc_paths(d.source, src_arcs, src_depths, x_of, y1, False, style),
        *_arc_paths(d.target, tgt_arcs, tgt_depths, x_of, y2, True, style),
    ]
    for i, j in sorted(d.through):
        x1, x2 = x_of(i), x_of(j)
        color = style.color_for_base(d.source[i - 1])
        mid = (y1 + y2) / 2
        body.append(
            f'<path d="M {_fmt(x1)} {_fmt(y1)} C {_fmt(x1)} {_fmt(mid)} '
            f'{_fmt(x2)} {_fmt(mid)} {_fmt(x2)} {_fmt(y2)}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if style.show_direction_arrows:
            body.append(_wire_arrow(x1, y1, x2, y2, d.source[i - 1], color))
    for pos, base in enumerate(d.source, start=1):
        body.append(_text(x_of(pos), y_src, base))
    for pos, base in enumerate(d.target, start=1):
        body.append(_text(x_of(pos), y_tgt, base))
    return _document(width, height, body)


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
    lines = [structure.word, brackets_of(structure), "".join(sketch)]
    return "\n".join(lines) + "\n"
