"""Small shared helpers for point ranges, vectors and small graphs."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple


class ScopeExceeded(Exception):
    """Raised when an input is outside the supported desk scale."""


# The most points of a diagram that map and render accept.  On a 2-core VM
# an empty diagram on 5,000 points took 5 s and 1.6 GB to draw (the ascii
# grid has (2n + 5) x (4n + 9) cells), and a random signed word on 1,000
# points took about 0.8 s to map to its diagram (map --type b) and 0.7 s
# back, most of both in the one pairwise noncrossing check of its unfolded
# arcs and, back, in word_of comparing every pair of blocks.
MAX_POINTS = 1000


class InvariantError(Exception):
    """Raised when an internal invariant fails: a bug in arclat, not bad input."""


def between(a: int, b: int) -> tuple[int, ...]:
    """Integers strictly between a and b, excluding 0.

    Point labels are nonzero integers; 0 is reserved for the origin/orbifold
    point, which is never a passed point.
    """
    lo, hi = (a, b) if a < b else (b, a)
    return tuple(v for v in range(lo + 1, hi) if v != 0)


@lru_cache(maxsize=256)
def passed(a: int, b: int) -> frozenset:
    """frozenset(between(a, b)), one shared set per interval: arcs compare
    their side sets against it instead of building their own.  The 256 sets
    kept cover every interval of the arc tables' ground sets (up to +/-9
    points) and bound the memory that a diagram on 1,000 points ties up."""
    return frozenset(between(a, b))


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def unit(n: int, i: int, sign: int = 1) -> tuple:
    """Signed standard basis vector e_i (1-based) in R^n."""
    return tuple(sign if k == i - 1 else 0 for k in range(n))


def canonical_normal(v: Sequence[int]) -> tuple:
    """Scale an integer vector so its first nonzero coordinate is positive."""
    for a in v:
        if a != 0:
            return tuple(x for x in v) if a > 0 else tuple(-x for x in v)
    raise ValueError("zero vector has no canonical form")


def components(points: Iterable[Hashable], edges: Iterable[Tuple]) -> Dict[Hashable, frozenset]:
    """Connected components of a graph: each point mapped to its component."""
    parent = {v: v for v in points}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: Dict[Hashable, set] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return {v: comp for comp in map(frozenset, groups.values()) for v in comp}


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transitive_closure(succ: Sequence[int]) -> List[int]:
    """Reflexive-transitive closure of a digraph on 0..m-1.

    succ[i] is the bitmask of the successors of i; the result holds, for each
    i, the bitmask of everything reachable from i, i itself included.
    """
    reach = [mask | 1 << i for i, mask in enumerate(succ)]
    changed = True
    while changed:
        changed = False
        for i, mask in enumerate(reach):
            m = mask
            for j in bits(mask):
                m |= reach[j]
            if m != mask:
                reach[i] = m
                changed = True
    return reach


def closed_sets(rows: Sequence[int]) -> List[int]:
    """Every set S of 0..m-1 with rows[i] inside S for each i in S, as bitmasks.

    rows[i] must be a reflexive-transitive closure (see transitive_closure),
    so the rows form a preorder and the closed sets are its up-sets.  The
    sets are emitted by include/exclude recursion, the smallest rows
    decided first: every row is then decided except for i's own cycle,
    which enters with i.  Exclusion comes before inclusion.
    """
    m = len(rows)
    if m > 26:
        raise ScopeExceeded(f"closed-set enumeration needs at most 26 generators, got {m}")
    order = sorted(range(m), key=lambda i: bin(rows[i]).count("1"))
    out: List[int] = []

    def rec(k: int, mask: int, decided: int) -> None:
        if k == m:
            out.append(mask)
            return
        i = order[k]
        seen = decided | 1 << i
        if mask >> i & 1:  # entered with an earlier member of its cycle
            rec(k + 1, mask, seen)
            return
        rec(k + 1, mask, seen)
        if rows[i] & decided & ~mask == 0:
            rec(k + 1, mask | rows[i], seen)

    rec(0, 0, 0)
    return out
