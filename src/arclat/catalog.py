"""Named congruences: parabolic, the four octagon-collapse families, the
point-designation (Cambrian) family with its pattern test and noncrossing
partitions, and the two biCambrian families."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from . import arcs_b, forcing
from .arcs_b import DiagramB, LongArc, OrbifoldArc, OrdinaryArc, TypeBArc
from .forcing import ArcCongruence, congruence_meet
from .lattice import ScopeExceeded
from .permutations import SignedPermutation, evaluate_word_b
from .util import between, components


class MalformedPartition(ValueError):
    pass


@dataclass(frozen=True)
class Designation:
    """Left/right designation of the points 1..n-1."""

    sides: Tuple[str, ...]

    def __post_init__(self):
        if any(s not in ("L", "R") for s in self.sides):
            raise ValueError("sides must be 'L' or 'R'")

    @classmethod
    def parse(cls, text: str) -> "Designation":
        return cls(tuple(text.upper()))

    @property
    def n(self) -> int:
        return len(self.sides) + 1

    def side(self, point: int) -> str:
        return self.sides[point - 1]

    def right_points(self) -> frozenset:
        return frozenset(i for i in range(1, self.n) if self.side(i) == "R")

    def left_points(self) -> frozenset:
        return frozenset(i for i in range(1, self.n) if self.side(i) == "L")

    def __repr__(self) -> str:
        return f"Designation({''.join(self.sides)})"


def simple_arc(i: int, n: int) -> TypeBArc:
    """Arc of the i-th simple generator."""
    if i == 0:
        return OrbifoldArc(1, frozenset())
    return OrdinaryArc(i, i + 1, frozenset())


def _arcs_where(n: int, pred) -> frozenset:
    return frozenset(arc for arc in forcing._all_arcs(n) if pred(arc))


def parabolic_congruence(n: int, gens: Iterable[int]) -> ArcCongruence:
    """Congruence generated by contracting a set of simple generators."""
    gens = sorted(set(gens))
    if any(not 0 <= i < n for i in gens):
        raise ValueError(f"generators must lie in 0..{n - 1}, got {gens}")
    return ArcCongruence.from_generators(n, [simple_arc(i, n) for i in gens])


def _parabolic_contracts(arc: TypeBArc, i: int) -> bool:
    if i == 0:
        return not isinstance(arc, OrdinaryArc)
    if isinstance(arc, OrdinaryArc):
        return arc.bottom <= i < arc.top
    if isinstance(arc, OrbifoldArc):
        return arc.top > i
    return arc.left_end > i or arc.right_end > i


def parabolic_closed_form(n: int, gens: Iterable[int]) -> frozenset:
    """Contracted arcs of parabolic_congruence(n, gens), by closed form."""
    gens = set(gens)
    return _arcs_where(n, lambda arc: any(_parabolic_contracts(arc, i) for i in gens))


def passes_left_of(arc: TypeBArc, point: int) -> bool:
    """Some stretch of the arc runs left of the point.

    A long arc's right piece passes every point below its right endpoint and
    its left piece every point below its left endpoint, so the left endpoint
    itself can be passed by the right piece and vice versa.
    """
    if isinstance(arc, LongArc):
        return point in arc.right or (point < arc.left_end and point not in arc.left)
    return point in arc.right


def passes_right_of(arc: TypeBArc, point: int) -> bool:
    if isinstance(arc, LongArc):
        return point in arc.left or (point < arc.right_end and point not in arc.right)
    return point in arc.left


HOM_GENERATOR_WORDS = {
    "simion": ((0, 1), (1, 0, 1)),
    "nonhom": ((0, 1, 0), (1, 0), (1, 0, 1, 2), (2, 1, 0, 1, 2)),
    "delta": ((0, 1, 0), (1, 0, 1)),
    "delta_mirror": ((0, 1), (1, 0)),
}


def _hom_contracts(variant: str, arc: TypeBArc) -> bool:
    if variant == "simion":
        return isinstance(arc, LongArc)
    if variant == "nonhom":
        if isinstance(arc, OrdinaryArc):
            return False
        if isinstance(arc, OrbifoldArc):
            return arc.top >= 2
        return arc.left_end >= 2 and arc.right_end >= 2
    if variant == "delta":
        if isinstance(arc, OrbifoldArc):
            return passes_right_of(arc, 1)
        return isinstance(arc, LongArc) and arc.left_end != 1
    if variant == "delta_mirror":
        if isinstance(arc, OrbifoldArc):
            return passes_left_of(arc, 1)
        return isinstance(arc, LongArc) and arc.right_end != 1
    raise ValueError(f"unknown variant {variant!r}")


def hom_congruence(n: int, variant: str) -> ArcCongruence:
    """The four congruences collapsing the octagon interval to a hexagon."""
    if variant not in HOM_GENERATOR_WORDS:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 2 or (variant == "nonhom" and n < 3):
        raise ScopeExceeded(f"{variant} needs larger rank")
    gens = [
        arcs_b.arc_of_join_irreducible(evaluate_word_b(word, n))
        for word in HOM_GENERATOR_WORDS[variant]
    ]
    return ArcCongruence.from_generators(n, gens)


def hom_closed_form(n: int, variant: str) -> frozenset:
    """Contracted arcs of hom_congruence(n, variant), by closed form."""
    return _arcs_where(n, lambda arc: _hom_contracts(variant, arc))


def _cambrian_contracts(arc: TypeBArc, rights: frozenset, lefts: frozenset) -> bool:
    return any(passes_right_of(arc, i) for i in rights) or any(passes_left_of(arc, i) for i in lefts)


def cambrian_congruence(n: int, d: Designation) -> ArcCongruence:
    """Contracts every arc passing right of a right point or left of a left one."""
    if d.n != n:
        raise ValueError("designation size mismatch")
    rights, lefts = d.right_points(), d.left_points()
    return ArcCongruence(n, _arcs_where(n, lambda arc: _cambrian_contracts(arc, rights, lefts)))


def _avoids(pi: SignedPermutation, order: Tuple[int, int, int], mids: frozenset) -> bool:
    """No three entries of the long word that, taken in position order and
    rearranged by `order`, read a < b < c with b in mids."""
    for triple in itertools.combinations(pi.long_word(), 3):
        a, b, c = (triple[k] for k in order)
        if a < b < c and b in mids:
            return False
    return True


def cambrian_pattern_test(pi: SignedPermutation, d: Designation) -> bool:
    """No b..c..a in the long word with a < b < c and b a right point or the
    negative of a left point."""
    return _avoids(pi, (2, 0, 1), d.right_points() | frozenset(-v for v in d.left_points()))


def cambrian_pattern_test_312(pi: SignedPermutation, d: Designation) -> bool:
    """Equivalent criterion: no c..a..b with a < b < c and b a left point or
    the negative of a right point."""
    return _avoids(pi, (1, 2, 0), d.left_points() | frozenset(-v for v in d.right_points()))


def cambrian_meet_rep(n: int, d: Designation) -> Tuple[TypeBArc, ...]:
    """The maximal uncontracted arcs: one orbifold arc and up to two long arcs."""
    if d.n != n:
        raise ValueError("designation size mismatch")
    rights, lefts = d.right_points(), d.left_points()
    out: List[TypeBArc] = [OrbifoldArc(n, rights)]
    if rights:
        r = max(rights)
        out.append(LongArc(n, r, lefts, frozenset(v for v in rights if v < r)))
    if lefts:
        l = max(lefts)
        out.append(LongArc(l, n, frozenset(v for v in lefts if v < l), rights))
    return tuple(out)


@dataclass(frozen=True)
class NCBlock:
    points: frozenset
    kind: str  # "plain" | "orbifold" | "wraps"
    pieces: Optional[Tuple[frozenset, frozenset]] = None  # (left piece, right piece)

    def __post_init__(self):
        if self.kind not in ("plain", "orbifold", "wraps"):
            raise MalformedPartition(f"unknown block kind {self.kind!r}")
        if (self.kind == "wraps") != (self.pieces is not None):
            raise MalformedPartition("exactly the wrapping blocks carry pieces")
        if self.pieces is not None:
            a, b = self.pieces
            if (a | b) != self.points or (a & b) or not a or not b:
                raise MalformedPartition("pieces must split the block")


@dataclass(frozen=True)
class NCPartitionB:
    n: int
    blocks: Tuple[NCBlock, ...]

    def __post_init__(self):
        seen: set = set()
        for blk in self.blocks:
            if blk.points & seen:
                raise MalformedPartition("blocks overlap")
            seen |= blk.points
        if seen != set(range(1, self.n + 1)):
            raise MalformedPartition("blocks must partition 1..n")
        if sum(1 for b in self.blocks if b.kind == "orbifold") > 1:
            raise MalformedPartition("at most one block may contain the origin")


def ncp_of_diagram(diagram: DiagramB, d: Designation) -> NCPartitionB:
    """Blocks of the connected components of a designation-respecting diagram."""
    if d.n != diagram.n:
        raise ValueError("designation size mismatch")
    rights, lefts = d.right_points(), d.left_points()
    if any(_cambrian_contracts(a, rights, lefts) for a in diagram.arcs):
        raise ValueError("diagram uses contracted arcs")
    points = range(1, diagram.n + 1)
    ordinary = [(a.bottom, a.top) for a in diagram.arcs if isinstance(a, OrdinaryArc)]
    longs = [(a.left_end, a.right_end) for a in diagram.arcs if isinstance(a, LongArc)]
    comp = components(points, ordinary + longs)
    pieces = components(points, ordinary)
    special = {
        comp[arc.top if isinstance(arc, OrbifoldArc) else arc.left_end]: arc
        for arc in diagram.arcs
        if not isinstance(arc, OrdinaryArc)
    }
    blocks = []
    for pts in set(comp.values()):
        arc = special.get(pts)
        if arc is None:
            blocks.append(NCBlock(pts, "plain"))
        elif isinstance(arc, OrbifoldArc):
            blocks.append(NCBlock(pts, "orbifold"))
        else:
            left_piece = pieces[arc.left_end]
            blocks.append(NCBlock(pts, "wraps", (left_piece, pts - left_piece)))
    return NCPartitionB(diagram.n, tuple(sorted(blocks, key=lambda b: min(b.points))))


def _connect(lo: int, hi: int, d: Designation) -> OrdinaryArc:
    right = frozenset(v for v in between(lo, hi) if d.side(v) == "R")
    return OrdinaryArc(lo, hi, right)


def diagram_of_ncp(part: NCPartitionB, d: Designation) -> DiagramB:
    """The unique designation-respecting diagram with the given blocks."""
    if part.n != d.n:
        raise MalformedPartition("size mismatch")
    arcs: List[TypeBArc] = []
    for blk in part.blocks:
        if blk.kind == "plain":
            pts = sorted(blk.points)
            arcs += [_connect(a, b, d) for a, b in zip(pts, pts[1:])]
        elif blk.kind == "orbifold":
            pts = sorted(blk.points)
            arcs.append(
                OrbifoldArc(pts[0], frozenset(v for v in range(1, pts[0]) if d.side(v) == "R"))
            )
            arcs += [_connect(a, b, d) for a, b in zip(pts, pts[1:])]
        else:
            lp, rp = blk.pieces
            for piece in (lp, rp):
                pts = sorted(piece)
                arcs += [_connect(a, b, d) for a, b in zip(pts, pts[1:])]
            le, re = min(lp), min(rp)
            try:
                arcs.append(
                    LongArc(
                        le,
                        re,
                        frozenset(v for v in range(1, le) if d.side(v) == "L"),
                        frozenset(v for v in range(1, re) if d.side(v) == "R"),
                    )
                )
            except arcs_b.InvalidArc as exc:
                raise MalformedPartition(str(exc)) from exc
    try:
        return DiagramB(part.n, frozenset(arcs))
    except (arcs_b.NotADiagram, arcs_b.InvalidArc) as exc:
        raise MalformedPartition(str(exc)) from exc


def is_alternating_arc(arc: TypeBArc) -> bool:
    """No two consecutive points passed on the same side; long arcs also
    keep nothing between their pieces."""

    def alternates(side_of: Dict[int, str]) -> bool:
        return all(side_of.get(i + 1) != s for i, s in side_of.items())

    if isinstance(arc, LongArc):
        if arc.between_pieces:
            return False
        left_piece = {v: ("L" if v in arc.left else "R") for v in range(1, arc.left_end)}
        right_piece = {v: ("R" if v in arc.right else "L") for v in range(1, arc.right_end)}
        return alternates(left_piece) and alternates(right_piece)
    sides = {v: ("L" if v in arc.left else "R") for v in arc.left | arc.right}
    return alternates(sides)


def bicambrian_generator_words(variant: str, n: int) -> List[tuple]:
    """The quoted generator words for the two biCambrian families.

    The linear list is known not to generate the full congruence (see
    bicambrian_linear_generated); it is kept verbatim for the verification
    suite.
    """
    if variant == "bipartite":
        words = [(0, 1, 0, 2, 1, 0), (2, 1, 0), (0, 1, 2), (2, 1, 0, 1)]
        words += [w for i in range(1, n - 2) for w in ((i, i + 1, i + 2), (i + 2, i + 1, i))]
    elif variant == "linear":
        words = [(0, 2, 1, 0), (1, 2, 0, 1, 0), (0, 2, 1), (1, 0, 1, 2, 1, 0, 1)]
        words += [w for i in range(1, n - 2) for w in ((i, i + 2, i + 1), (i + 1, i, i + 2, i + 1))]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return words


def _bicambrian_generated(n: int, variant: str) -> ArcCongruence:
    if n < 3:
        raise ScopeExceeded(f"{variant} family needs n >= 3")
    gens = [
        arcs_b.arc_of_join_irreducible(evaluate_word_b(w, n))
        for w in bicambrian_generator_words(variant, n)
    ]
    return ArcCongruence.from_generators(n, gens)


def _opposite_pair(n: int, variant: str) -> Tuple[Designation, Designation]:
    if variant == "bipartite":
        d1 = Designation(tuple("R" if i % 2 else "L" for i in range(1, n)))
    else:
        d1 = Designation(tuple("R" for _ in range(1, n)))
    d2 = Designation(tuple("L" if s == "R" else "R" for s in d1.sides))
    return d1, d2


def bicambrian_bipartite(n: int) -> ArcCongruence:
    """Meet of the two alternating-designation congruences; the uncontracted
    arcs are exactly the alternating arcs."""
    if n < 3:
        raise ScopeExceeded("bipartite family needs n >= 3")
    d1, d2 = _opposite_pair(n, "bipartite")
    return congruence_meet(cambrian_congruence(n, d1), cambrian_congruence(n, d2))


def bicambrian_linear(n: int) -> ArcCongruence:
    """Meet of the two constant-designation congruences; contracts exactly
    the arcs passing left of some point and right of another."""
    if n < 3:
        raise ScopeExceeded("linear family needs n >= 3")
    d1, d2 = _opposite_pair(n, "linear")
    return congruence_meet(cambrian_congruence(n, d1), cambrian_congruence(n, d2))


def bicambrian_closed_form(n: int, variant: str) -> frozenset:
    """Contracted arcs of the biCambrian family, by closed form: the
    non-alternating arcs (bipartite), or the arcs passing left of some point
    and right of another (linear)."""
    if variant == "bipartite":
        return _arcs_where(n, lambda a: not is_alternating_arc(a))
    if variant == "linear":
        return _arcs_where(n, lambda a: _passes_left_somewhere(a) and _passes_right_somewhere(a))
    raise ValueError(f"unknown variant {variant!r}")


def bicambrian_bipartite_generated(n: int) -> ArcCongruence:
    """Congruence generated by the quoted bipartite generators (equals
    bicambrian_bipartite)."""
    return _bicambrian_generated(n, "bipartite")


def bicambrian_linear_generated(n: int) -> ArcCongruence:
    """Congruence generated by the quoted linear generators.

    Strictly finer than bicambrian_linear for n >= 3: the quoted list misses
    the minimal two-sided long arcs whose endpoints are both above 1, e.g.
    the bare long arc with endpoints 2 and 3, so the generated congruence
    leaves those arcs uncontracted.
    """
    return _bicambrian_generated(n, "linear")


def _passes_left_somewhere(arc: TypeBArc) -> bool:
    return any(passes_left_of(arc, v) for v in range(1, arcs_b.top_point(arc)))


def _passes_right_somewhere(arc: TypeBArc) -> bool:
    return any(passes_right_of(arc, v) for v in range(1, arcs_b.top_point(arc)))
