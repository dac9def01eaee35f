"""JSON schemas for arcs, diagrams, congruences and permutations.

These are the only formats the CLI reads, and it writes its arcs,
diagrams and permutations in them; its counts, element lists, covers,
arrows, shards and verify reports it builds itself.  A congruence is read
as {"n", "contracted"}, its rank and contracted arcs, through
ArcCongruence.from_arcs, which turns them into its stored bitmask; the
CLI never writes one.
"""

from __future__ import annotations

from typing import Iterable

from . import arcs_a, arcs_b
from .arcs_a import ArcA, DiagramA
from .arcs_b import DiagramB, LongArc, OrbifoldArc, OrdinaryArc, TypeBArc
from .forcing import ArcCongruence
from .permutations import Permutation, SignedPermutation
from .util import MAX_POINTS, ScopeExceeded


def _int(value) -> int:
    """A JSON integer; a float, a bool, a string or anything else is refused
    rather than converted."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r:.40}")
    return value


def _point(value) -> int:
    """A JSON integer that names a point or a number of points, refused with
    ScopeExceeded past util.MAX_POINTS either way, before anything is built
    from it."""
    value = _int(value)
    if abs(value) > MAX_POINTS:
        raise ScopeExceeded(f"points supported up to {MAX_POINTS}, got {value}")
    return value


def _points(values: Iterable) -> frozenset:
    return frozenset(map(_point, values))


def arc_a_to_json(arc: ArcA) -> dict:
    return {
        "kind": "ordinary",
        "bottom": arc.bottom,
        "top": arc.top,
        "right": sorted(arc.right),
    }


def arc_a_from_json(data: dict) -> ArcA:
    if (data["kind"] if "kind" in data else "ordinary") != "ordinary":
        raise ValueError("plain arcs must have kind 'ordinary'")
    return arcs_a.make_arc(_point(data["bottom"]), _point(data["top"]), _points(data["right"]))


def arc_b_to_json(arc: TypeBArc) -> dict:
    if isinstance(arc, OrdinaryArc):
        return {
            "kind": "ordinary",
            "bottom": arc.bottom,
            "top": arc.top,
            "right": sorted(arc.right),
        }
    if isinstance(arc, OrbifoldArc):
        return {"kind": "orbifold", "top": arc.top, "right": sorted(arc.right)}
    return {
        "kind": "long",
        "left": arc.left_end,
        "right_ep": arc.right_end,
        "L": sorted(arc.left),
        "R": sorted(arc.right),
    }


def arc_b_from_json(data: dict) -> TypeBArc:
    kind = data["kind"]
    if kind == "ordinary":
        return OrdinaryArc(_point(data["bottom"]), _point(data["top"]), _points(data["right"]))
    if kind == "orbifold":
        return OrbifoldArc(_point(data["top"]), _points(data["right"]))
    if kind == "long":
        return LongArc(_point(data["left"]), _point(data["right_ep"]), _points(data["L"]), _points(data["R"]))
    raise ValueError(f"unknown arc kind {kind!r}")


def diagram_a_to_json(diagram: DiagramA) -> dict:
    return {
        "n": max(diagram.points),
        "arcs": [arc_a_to_json(a) for a in sorted(diagram.arcs, key=ArcA.key)],
    }


def _diagram_rank(data: dict) -> int:
    n = _point(data["n"])
    if n < 1:
        raise ValueError(f"a diagram needs at least one point, got n = {n}")
    return n


def diagram_a_from_json(data: dict) -> DiagramA:
    n = _diagram_rank(data)
    return DiagramA(
        frozenset(range(1, n + 1)),
        frozenset(arc_a_from_json(a) for a in data["arcs"]),
    )


def diagram_b_to_json(diagram: DiagramB) -> dict:
    return {
        "n": diagram.n,
        "arcs": [arc_b_to_json(a) for a in sorted(diagram.arcs, key=arcs_b.arc_key)],
    }


def diagram_b_from_json(data: dict) -> DiagramB:
    return DiagramB(_diagram_rank(data), frozenset(arc_b_from_json(a) for a in data["arcs"]))


def congruence_from_json(data: dict) -> ArcCongruence:
    return ArcCongruence.from_arcs(_int(data["n"]), map(arc_b_from_json, data["contracted"]))


def permutation_to_json(pi) -> list:
    return list(pi.word)


def permutation_from_json(data: Iterable, signed: bool):
    word = tuple(map(_int, data))
    if not word:
        raise ValueError("a permutation needs at least one entry")
    return SignedPermutation(word) if signed else Permutation(word)
