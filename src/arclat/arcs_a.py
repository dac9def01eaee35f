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
from typing import Iterable, List, Optional, Sequence, Tuple

from .lattice import ScopeExceeded
from .util import between, components

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
        mid = frozenset(between(self.bottom, self.top))
        if self.left & self.right or (self.left | self.right) != mid:
            raise ValueError("side sets must partition the points strictly between")

    def key(self) -> tuple:
        return (self.bottom, self.top, tuple(sorted(self.right)))

    def __repr__(self) -> str:
        r = ",".join(str(v) for v in sorted(self.right))
        return f"ArcA({self.bottom},{self.top};R={{{r}}})"


def make_arc(bottom: int, top: int, right: Iterable[int] = ()) -> ArcA:
    right = frozenset(right)
    return ArcA(bottom, top, frozenset(between(bottom, top)) - right, right)


def antipode(arc: ArcA) -> ArcA:
    """Image under the half turn x -> -x; left and right swap."""
    return ArcA(
        -arc.top,
        -arc.bottom,
        frozenset(-v for v in arc.right),
        frozenset(-v for v in arc.left),
    )


@dataclass(frozen=True)
class DiagramA:
    points: frozenset
    arcs: frozenset

    def __post_init__(self):
        for arc in self.arcs:
            if arc.bottom not in self.points or arc.top not in self.points:
                raise ValueError(f"{arc} has endpoints outside the ground set")
            if not (arc.left | arc.right) <= self.points:
                raise ValueError(f"{arc} passes points outside the ground set")
        arcs = sorted(self.arcs, key=ArcA.key)
        for a, b in itertools.combinations(arcs, 2):
            if not compatible(a, b):
                raise ValueError(f"incompatible arcs {a} and {b}")

    def __repr__(self) -> str:
        return f"DiagramA({sorted(self.arcs, key=ArcA.key)})"


def relation(a: ArcA, b: ArcA) -> Optional[str]:
    """Where a sits relative to b at shared heights: "left", "right", or None.

    Returns None when no height forces a relation; raises ValueError when the
    forced relations disagree (the arcs cross).
    """
    votes = set()
    for v in (a.bottom, a.top):
        if v in b.left:
            votes.add("left")
        elif v in b.right:
            votes.add("right")
    for v in (b.bottom, b.top):
        if v in a.left:
            votes.add("right")
        elif v in a.right:
            votes.add("left")
    for v in a.left & b.right:
        votes.add("right")
    for v in a.right & b.left:
        votes.add("left")
    if len(votes) > 1:
        raise ValueError(f"arcs {a} and {b} cross")
    return votes.pop() if votes else None


def compatible(a: ArcA, b: ArcA) -> bool:
    """Arcs can coexist in a diagram: no shared top or bottom, no crossing."""
    if a.top == b.top or a.bottom == b.bottom:
        return False
    try:
        relation(a, b)
    except ValueError:
        return False
    return True


def is_diagram(arcs: Iterable[ArcA]) -> bool:
    arcs = list(arcs)
    return all(compatible(a, b) for a, b in itertools.combinations(arcs, 2))


def descent_arcs(word: Word) -> List[Tuple[int, ArcA]]:
    """One arc per descent of the word, tagged with the descent position.

    The arc for a descent word[i] > word[i+1] has those values as endpoints
    and passes right of all intermediate values placed before the descent,
    left of those placed after it.
    """
    pos = {v: i for i, v in enumerate(word)}
    out = []
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            q, p = word[i], word[i + 1]
            left, right = [], []
            for v in between(p, q):
                (left if pos[v] < i else right).append(v)
            out.append((i, ArcA(p, q, frozenset(left), frozenset(right))))
    return out


def diagram_of(word: Word) -> DiagramA:
    """The noncrossing arc diagram of a permutation word."""
    return DiagramA(frozenset(word), frozenset(arc for _i, arc in descent_arcs(word)))


def _blocks(points: set, arcs: set) -> List[dict]:
    comp = components(points, ((arc.bottom, arc.top) for arc in arcs))
    groups = {c: {"points": c, "arcs": []} for c in set(comp.values())}
    for arc in arcs:
        groups[comp[arc.bottom]]["arcs"].append(arc)
    return list(groups.values())


def _block_left_of(c: dict, b: dict) -> bool:
    """True if block c lies to the left of block b at some shared height."""
    for arc_b in b["arcs"]:
        for v in c["points"]:
            if v in arc_b.left:
                return True
        for arc_c in c["arcs"]:
            if relation(arc_c, arc_b) == "left":
                return True
    for arc_c in c["arcs"]:
        for v in b["points"]:
            if v in arc_c.right:
                return True
    return False


def word_of(diagram: DiagramA) -> Word:
    """Inverse of diagram_of: repeatedly read off the lowest left block.

    A left block has nothing to its left at any height it occupies; its
    points are emitted in decreasing order and the block is removed.
    Removing a block changes neither the other blocks nor how they lie
    relative to each other, so both are computed once.
    """
    blocks = _blocks(set(diagram.points), set(diagram.arcs))
    blockers = [0] * len(blocks)
    right_of: list = [[] for _ in blocks]
    for i, b in enumerate(blocks):
        for k, c in enumerate(blocks):
            if k != i and (b["arcs"] or c["arcs"]) and _block_left_of(c, b):
                blockers[i] += 1
                right_of[k].append(i)
    ready = [(min(b["points"]), i) for i, b in enumerate(blocks) if not blockers[i]]
    heapq.heapify(ready)
    out: list = []
    while ready:
        _low, i = heapq.heappop(ready)
        out.extend(sorted(blocks[i]["points"], reverse=True))
        for k in right_of[i]:
            blockers[k] -= 1
            if not blockers[k]:
                heapq.heappush(ready, (min(blocks[k]["points"]), k))
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
    arcs = descent_arcs(word)
    if len(arcs) != 1:
        raise ValueError(f"{word} does not have exactly one descent")
    return arcs[0][1]


def is_subarc(sub: ArcA, sup: ArcA) -> bool:
    """Subarc test: nested endpoints and matching right points in between."""
    return (
        sup.bottom <= sub.bottom
        and sub.top <= sup.top
        and sub.right == sup.right & frozenset(between(sub.bottom, sub.top))
    )


@dataclass(frozen=True)
class ShardDescriptorA:
    """Inequality description x_p = x_q, x_p <= x_i (i in leq), x_p >= x_i (i in geq)."""

    p: int
    q: int
    leq: frozenset
    geq: frozenset

    def linear_forms(self, n: int) -> tuple:
        """(equality normal, inequality normals meaning v.x >= 0) in R^n."""
        eq = [0] * n
        eq[self.p - 1] += 1
        eq[self.q - 1] -= 1
        ineqs = []
        for i in sorted(self.leq):
            v = [0] * n
            v[i - 1] += 1
            v[self.p - 1] -= 1
            ineqs.append(tuple(v))
        for i in sorted(self.geq):
            v = [0] * n
            v[self.p - 1] += 1
            v[i - 1] -= 1
            ineqs.append(tuple(v))
        return tuple(eq), tuple(ineqs)


def shard_descriptor(arc: ArcA) -> ShardDescriptorA:
    return ShardDescriptorA(arc.bottom, arc.top, arc.right, arc.left)


def half_turn(diagram: DiagramA) -> DiagramA:
    """Image of a diagram on a +/-labeled ground set under x -> -x."""
    return DiagramA(
        frozenset(-v for v in diagram.points),
        frozenset(antipode(arc) for arc in diagram.arcs),
    )


def all_arcs(points: Sequence[int]) -> List[ArcA]:
    """Every arc on the given ground set."""
    pts = sorted(points)
    out = []
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            mids = between(p, q)
            for k in range(len(mids) + 1):
                for rset in itertools.combinations(mids, k):
                    out.append(make_arc(p, q, rset))
    return out


def all_arcs_n(n: int) -> List[ArcA]:
    """Every arc on the points 1..n; n = 16 has 65,519."""
    if n > 16:
        raise ScopeExceeded("arc enumeration supported up to n = 16")
    return all_arcs(range(1, n + 1))
