"""Arcs and noncrossing arc diagrams on a column of labeled points.

Points are nonzero integers on a vertical line, ordered by value; the ground
set is either 1..n or -n..-1,1..n.  An arc connects a bottom point to a top
point and passes the points strictly between on one side or the other:
``left`` holds the points lying to the left of the arc, ``right`` those to
its right.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .util import MAX_POINTS, ScopeExceeded, between, components, passed

Word = Tuple[int, ...]


@dataclass(frozen=True)
class ArcA:
    bottom: int
    top: int
    left: frozenset
    right: frozenset

    def __post_init__(self):
        if self.bottom >= self.top or 0 in (self.bottom, self.top):
            raise ValueError(f"bad endpoints ({self.bottom}, {self.top})")
        if self.left & self.right or (self.left | self.right) != passed(self.bottom, self.top):
            raise ValueError("side sets must partition the points strictly between")

    @cached_property
    def masks(self) -> Tuple[int, int, int]:
        """The point masks (see _point_mask) of the left points, the right
        points and the two endpoints, computed the first time they are read."""
        return _point_mask(self.left), _point_mask(self.right), _point_mask((self.bottom, self.top))

    def key(self) -> tuple:
        return (self.bottom, self.top, tuple(sorted(self.right)))

    def __repr__(self) -> str:
        r = ",".join(str(v) for v in sorted(self.right))
        return f"ArcA({self.bottom},{self.top};R={{{r}}})"


def make_arc(bottom: int, top: int, right: Iterable[int] = ()) -> ArcA:
    """A new arc, built and validated on every call (see shared_arc)."""
    right = frozenset(right)
    return ArcA(bottom, top, passed(bottom, top) - right, right)


SHARED_ARCS = 4096


@lru_cache(maxsize=SHARED_ARCS)
def shared_arc(bottom: int, top: int, right: frozenset) -> ArcA:
    """make_arc(bottom, top, right), for a frozenset right, as one shared
    object: it is built and validated the first time it is asked for, so
    its masks are computed once, and an invalid arc raises on every call.

    The SHARED_ARCS most recently used entries are kept, here and in each
    arcs_b cache keyed by arc (arc_of_key, unfold_arcs, _drawable): 4,096
    holds every arc on +/-1..+/-6 (4,083), every quotient arc of the
    largest arc table, on 7 points (2,179), and the at most 2,000 unfolded
    pieces of a diagram on MAX_POINTS points, while a process that maps
    many large diagrams keeps no more than that in each cache."""
    return ArcA(bottom, top, passed(bottom, top) - right, right)


def _point_mask(points: Iterable[int]) -> int:
    """Points as a bitmask, v > 0 at bit 2v and v < 0 at bit -2v - 1, so
    that the masks of any two arcs compare bit by bit."""
    return sum(1 << (2 * v if v > 0 else -1 - 2 * v) for v in points)


def antipode(arc: ArcA) -> ArcA:
    """Image under the half turn x -> -x; left and right swap."""
    return shared_arc(-arc.top, -arc.bottom, frozenset(-v for v in arc.left))


@dataclass(frozen=True)
class DiagramA:
    points: frozenset
    arcs: frozenset

    def __post_init__(self):
        for arc in self.arcs:
            if arc.bottom not in self.points or arc.top not in self.points:
                raise ValueError(f"{arc} has endpoints outside the ground set")
            if not (arc.left <= self.points and arc.right <= self.points):
                raise ValueError(f"{arc} passes points outside the ground set")
        if not all(itertools.starmap(compatible, itertools.combinations(self.arcs, 2))):
            pairs = itertools.combinations(sorted(self.arcs, key=ArcA.key), 2)
            a, b = next(pair for pair in pairs if not compatible(*pair))
            raise ValueError(f"incompatible arcs {a} and {b}")

    def __repr__(self) -> str:
        return f"DiagramA({sorted(self.arcs, key=ArcA.key)})"


def _votes(a: ArcA, b: ArcA) -> Tuple[int, int]:
    """The points at which a lies left of b, and those at which it lies right
    of b: an endpoint of one that the other passes, or a point they pass on
    opposite sides."""
    left_a, right_a, ends_a = a.masks
    left_b, right_b, ends_b = b.masks
    return (
        ends_a & left_b | ends_b & right_a | right_a & left_b,
        ends_a & right_b | ends_b & left_a | left_a & right_b,
    )


def relation(a: ArcA, b: ArcA) -> Optional[str]:
    """Where a sits relative to b at shared heights: "left", "right", or None.

    Returns None when no height forces a relation; raises ValueError when the
    forced relations disagree (the arcs cross).
    """
    left, right = _votes(a, b)
    if left and right:
        raise ValueError(f"arcs {a} and {b} cross")
    return "left" if left else "right" if right else None


def compatible(a: ArcA, b: ArcA) -> bool:
    """Arcs can coexist in a diagram: no shared top or bottom, no crossing."""
    if a.top == b.top or a.bottom == b.bottom:
        return False
    left, right = _votes(a, b)
    return not (left and right)


def descent_arcs(word: Word) -> List[Tuple[int, ArcA]]:
    """One arc per descent of the word, tagged with the descent position.

    The arc for a descent word[i] > word[i+1] has those values as endpoints
    and passes right of all intermediate values placed before the descent,
    left of those placed after it.
    """
    return [(i, _descent_arc(word, i)) for i in range(len(word) - 1) if word[i] > word[i + 1]]


def _descent_arc(word: Word, i: int) -> ArcA:
    """The arc of the descent word[i] > word[i + 1] (see descent_arcs)."""
    p, q = word[i + 1], word[i]
    return shared_arc(p, q, passed(p, q).intersection(word[i + 2:]))


def diagram_of(word: Word) -> DiagramA:
    """The noncrossing arc diagram of a permutation word."""
    if max(map(abs, word), default=0) > MAX_POINTS:
        raise ScopeExceeded(f"diagrams supported up to n = {MAX_POINTS}")
    return DiagramA(frozenset(word), frozenset(arc for _i, arc in descent_arcs(word)))


def _blocks(points: set, arcs: set) -> List[Tuple[frozenset, int, int, int]]:
    """The connected components of a diagram: each one's points, and the
    point masks of its points and of the points left and right of its arcs."""
    comp = components(points, ((arc.bottom, arc.top) for arc in arcs))
    sides = {c: [0, 0] for c in set(comp.values())}
    for arc in arcs:
        left, right, _ends = arc.masks
        side = sides[comp[arc.bottom]]
        side[0] |= left
        side[1] |= right
    return [(c, _point_mask(c), left, right) for c, (left, right) in sides.items()]


def word_of(diagram: DiagramA) -> Word:
    """Inverse of diagram_of: repeatedly read off the lowest left block.

    A left block has nothing to its left at any height it occupies; its
    points are emitted in decreasing order and the block is removed.
    Removing a block changes neither the other blocks nor how they lie
    relative to each other, so both are computed once.  Points beyond
    +/-MAX_POINTS are refused, so the symmetric model of B_n counts as n.
    """
    if max(map(abs, diagram.points), default=0) > MAX_POINTS:
        raise ScopeExceeded(f"diagrams supported up to n = {MAX_POINTS}")
    blocks = _blocks(set(diagram.points), set(diagram.arcs))
    blockers = [0] * len(blocks)
    right_of: list = [[] for _ in blocks]
    # Block c lies left of block b when a point of c is left of an arc of
    # b, a point of b right of an arc of c, or an arc of c passes right of
    # a point that an arc of b passes on its left: then the arcs' relation
    # is "left", as they do not cross.
    for i, (_, points_b, left_b, _) in enumerate(blocks):
        for k, (_, points_c, _, right_c) in enumerate(blocks):
            if k != i and (points_c & left_b or points_b & right_c or right_c & left_b):
                blockers[i] += 1
                right_of[k].append(i)
    ready = [(min(b[0]), i) for i, b in enumerate(blocks) if not blockers[i]]
    heapq.heapify(ready)
    out: list = []
    while ready:
        _low, i = heapq.heappop(ready)
        out.extend(sorted(blocks[i][0], reverse=True))
        for k in right_of[i]:
            blockers[k] -= 1
            if not blockers[k]:
                heapq.heappush(ready, (min(blocks[k][0]), k))
    if len(out) != len(diagram.points):
        raise ValueError("blocks of the diagram lie left of each other in a cycle")
    return tuple(out)


def join_irreducible_word(arc: ArcA, n: int) -> Word:
    """One-line word of the join-irreducible permutation of the arc on 1..n."""
    p, q = arc.bottom, arc.top
    if p < 1 or q > n:
        raise ValueError("arc outside 1..n")
    word = (
        list(range(1, p))
        + sorted(arc.left)
        + [q, p]
        + sorted(arc.right)
        + list(range(q + 1, n + 1))
    )
    return tuple(word)


def arc_of_join_irreducible(word: Word) -> ArcA:
    """The single arc of a one-descent word."""
    steps = [i for i in range(len(word) - 1) if word[i] > word[i + 1]]
    if len(steps) != 1:
        raise ValueError(f"{word} does not have exactly one descent")
    return _descent_arc(word, steps[0])


def is_subarc(sub: ArcA, sup: ArcA) -> bool:
    """Subarc test: nested endpoints and matching right points in between."""
    return (
        sup.bottom <= sub.bottom
        and sub.top <= sup.top
        and sub.right == sup.right & passed(sub.bottom, sub.top)
    )


@dataclass(frozen=True)
class ShardDescriptor:
    """Inequality description of the cone attached to an arc, in either model.

    equality is ("zero", p): x_p = 0, ("diff", p, q): x_p = x_q, or
    ("sum", p, q): x_q = -x_p; a type-A arc, like an ordinary quotient arc,
    has ("diff", bottom, top).  Bounds are stored as signed indices i with
    x_key <= x_i (leq) or x_key >= x_i (geq), where x_{-i} means -x_i.
    """

    equality: tuple
    leq: frozenset
    geq: frozenset

    def linear_forms(self, n: int) -> tuple:
        """(equality normal, inequality normals meaning v.x >= 0) in R^n."""
        def e(i: int) -> list:
            v = [0] * n
            v[abs(i) - 1] = 1 if i > 0 else -1
            return v

        kind = self.equality[0]
        if kind == "zero":
            eq = e(self.equality[1])
            key = [0] * n
        elif kind == "diff":
            eq = [a - b for a, b in zip(e(self.equality[1]), e(self.equality[2]))]
            key = e(self.equality[1])
        else:
            eq = [a + b for a, b in zip(e(self.equality[1]), e(self.equality[2]))]
            key = e(self.equality[2])
        ineqs = [tuple(a - b for a, b in zip(e(i), key)) for i in sorted(self.leq)]
        ineqs += [tuple(b - a for a, b in zip(e(i), key)) for i in sorted(self.geq)]
        return tuple(eq), tuple(ineqs)


def shard_descriptor(arc: ArcA) -> ShardDescriptor:
    return ShardDescriptor(("diff", arc.bottom, arc.top), arc.right, arc.left)


def half_turn(diagram: DiagramA) -> DiagramA:
    """Image of a diagram on a +/-labeled ground set under x -> -x."""
    return DiagramA(
        frozenset(-v for v in diagram.points),
        frozenset(antipode(arc) for arc in diagram.arcs),
    )


def arc_sides(points: Sequence[int]) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
    """The bottom, top and right points of every arc on the given ground
    set, in the order of all_arcs."""
    pts = sorted(points)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            mids = between(p, q)
            for k in range(len(mids) + 1):
                for rset in itertools.combinations(mids, k):
                    yield p, q, rset


def all_arcs(points: Sequence[int]) -> List[ArcA]:
    """Every arc on the given ground set."""
    return [make_arc(p, q, rset) for p, q, rset in arc_sides(points)]


def all_arcs_n(n: int) -> List[ArcA]:
    """Every arc on the points 1..n; n = 16 has 65,519."""
    if n > 16:
        raise ScopeExceeded("arc enumeration supported up to n = 16")
    return all_arcs(range(1, n + 1))
