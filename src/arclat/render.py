"""Deterministic drawings of quotient arc diagrams.

Points sit on a vertical line with the origin mark at the bottom; each arc
segment is offset horizontally by its nesting depth at every height it
passes, so strokes never touch the point glyphs.  Output is a plain string
in one of three formats; identical inputs yield identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .arcs_b import DiagramB, LongArc, OrbifoldArc, OrdinaryArc, TypeBArc, arc_key


@dataclass(frozen=True)
class RenderSpec:
    format: str = "svg"
    width: int = 360
    height: int = 360
    spacing: int = 40  # pixels per unit height

    def __post_init__(self):
        if self.format not in ("svg", "ascii", "tikz"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.width <= 0 or self.height <= 0 or self.spacing <= 0:
            raise ValueError("dimensions must be positive")


def _side_at(arc: TypeBArc, h: int, piece: str) -> int:
    """-1 left of the line, +1 right of the line, for the stroke at height h."""
    if isinstance(arc, LongArc):
        if piece == "left":
            return 1 if h in arc.left else -1
        return -1 if h in arc.right else 1
    # the arc is right of its left points and left of its right points
    return 1 if h in arc.left else -1


def _strokes(diagram: DiagramB) -> List[Tuple[tuple, TypeBArc, List[int]]]:
    """(key, arc, heights) per monotone piece, keys fixing a drawing order."""
    out = []
    for arc in sorted(diagram.arcs, key=arc_key):
        if isinstance(arc, OrdinaryArc):
            out.append((("o", arc.key()), arc, list(range(arc.bottom + 1, arc.top))))
        elif isinstance(arc, OrbifoldArc):
            out.append((("x", arc.key()), arc, list(range(1, arc.top))))
        else:
            out.append((("l", arc.key(), "left"), arc, list(range(1, arc.left_end))))
            out.append((("r", arc.key(), "right"), arc, list(range(1, arc.right_end))))
    return out


def layout(diagram: DiagramB) -> dict:
    """Polyline nodes for every arc, in abstract (x, y) units.

    Lane depth at each height orders nested strokes outward; long arcs dip
    below the origin at distinct depths.
    """
    strokes = _strokes(diagram)
    # lane assignment: at each height and side, order strokes by span size
    occupants: Dict[Tuple[int, int], List[tuple]] = {}
    side_of: Dict[Tuple[tuple, int], int] = {}
    for key, arc, heights in strokes:
        piece = "left" if key[0] == "l" else "right"
        for h in heights:
            s = _side_at(arc, h, piece)
            side_of[(key, h)] = s
            occupants.setdefault((h, s), []).append(key)
    lane: Dict[Tuple[tuple, int], int] = {}
    for (h, s), keys in occupants.items():
        for depth, key in enumerate(sorted(keys, key=_span_key)):
            lane[(key, h)] = depth + 1
    paths = {}
    long_arcs = [a for a in sorted(diagram.arcs, key=arc_key) if isinstance(a, LongArc)]
    dip_of = {a: i + 1 for i, a in enumerate(sorted(long_arcs, key=_long_span, reverse=True))}
    for key, arc, heights in strokes:
        # from the top point down through the lanes to the bottom end
        if key[0] == "o":
            top, end = arc.top, (0.0, float(arc.bottom))
        elif key[0] == "x":
            top, end = arc.top, (0.0, 0.0)
        else:
            top = arc.left_end if key[2] == "left" else arc.right_end
            dip = dip_of[arc] * 0.4
            end = ((-1 if key[2] == "left" else 1) * dip, -dip)
        lanes = [(side_of[(key, h)] * lane[(key, h)] * 0.5, float(h)) for h in reversed(heights)]
        paths[key] = [(0.0, float(top))] + lanes + [end]
    # stitch long-arc halves through the bottom
    merged = {}
    for key, nodes in sorted(paths.items()):
        if key[0] == "l":
            other = ("r",) + key[1:2] + ("right",)
            merged[("long", key[1])] = nodes + [(0.0, nodes[-1][1])] + list(reversed(paths[other]))
        elif key[0] != "r":
            merged[key] = nodes
    return {
        "n": diagram.n,
        "paths": merged,
        "points": [(0.0, float(i)) for i in range(1, diagram.n + 1)],
        "origin": (0.0, 0.0),
    }


def _span_key(key: tuple) -> tuple:
    # larger arcs drawn farther out: sort by key as a stable proxy for span
    return (-_key_span(key), key)


def _key_span(key: tuple) -> int:
    data = key[1]
    if key[0] == "o":
        return data[2] - data[1]
    if key[0] == "x":
        return data[1]
    return data[1] + data[2]


def _long_span(arc: LongArc) -> tuple:
    return (arc.left_end + arc.right_end, arc.key())


def render(diagram: DiagramB, spec: RenderSpec = RenderSpec()) -> str:
    lay = layout(diagram)
    if spec.format == "svg":
        return _svg(lay, spec)
    if spec.format == "tikz":
        return _tikz(lay)
    return _ascii(lay)


def _to_px(pt: tuple, spec: RenderSpec, height: int) -> tuple:
    x = spec.width / 2 + pt[0] * spec.spacing
    y = height - (pt[1] + 2.0) * spec.spacing
    return round(x, 2), round(y, 2)


def _svg(lay: dict, spec: RenderSpec) -> str:
    # tall enough for the top point: point n sits n + 2 spacings above the bottom edge
    height = max(spec.height, (lay["n"] + 2) * spec.spacing)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{height}" viewBox="0 0 {spec.width} {height}">'
    ]
    for key in sorted(lay["paths"]):
        pts = " ".join(f"{x},{y}" for x, y in (_to_px(p, spec, height) for p in lay["paths"][key]))
        lines.append(f'  <polyline fill="none" stroke="black" points="{pts}"/>')
    ox, oy = _to_px(lay["origin"], spec, height)
    lines.append(
        f'  <path d="M {ox-4} {oy-4} L {ox+4} {oy+4} M {ox-4} {oy+4} L {ox+4} {oy-4}" stroke="black" fill="none"/>'
    )
    for i, p in enumerate(lay["points"], start=1):
        x, y = _to_px(p, spec, height)
        lines.append(f'  <circle cx="{x}" cy="{y}" r="3" fill="black"/>')
        lines.append(f'  <text x="{x+8}" y="{y+4}" font-size="12">{i}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _tikz(lay: dict) -> str:
    lines = ["\\begin{tikzpicture}[scale=0.8]"]
    for key in sorted(lay["paths"]):
        pts = " -- ".join(f"({x},{y})" for x, y in lay["paths"][key])
        lines.append(f"  \\draw {pts};")
    lines.append("  \\node at (0,0) {$\\times$};")
    for i, (x, y) in enumerate(lay["points"], start=1):
        lines.append(f"  \\fill ({x},{y}) circle (2pt) node[right=2pt] {{{i}}};")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _ascii(lay: dict) -> str:
    n = lay["n"]
    cols = 4 * max(6, n + 2) + 1
    mid = cols // 2
    rows = 2 * (n + 2) + 1
    grid = [[" "] * cols for _ in range(rows)]

    def put(x: float, y: float, ch: str):
        c = mid + int(round(x * 4))
        r = 2 * (n + 1) - int(round(y * 2))
        if 0 <= r < rows and 0 <= c < cols and grid[r][c] == " ":
            grid[r][c] = ch

    for key in sorted(lay["paths"]):
        nodes = lay["paths"][key]
        for (x1, y1), (x2, y2) in zip(nodes, nodes[1:]):
            steps = max(1, int(8 * (abs(x2 - x1) + abs(y2 - y1))))
            for t in range(steps + 1):
                x = x1 + (x2 - x1) * t / steps
                y = y1 + (y2 - y1) * t / steps
                put(x, y, "*")
    for i, (x, y) in enumerate(lay["points"], start=1):
        c = mid + int(round(x * 4))
        r = 2 * (n + 1) - int(round(y * 2))
        grid[r][c] = str(i % 10)
    grid[2 * (n + 1)][mid] = "x"
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"
