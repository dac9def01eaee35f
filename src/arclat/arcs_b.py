"""Arcs for signed permutations: the symmetric model and its quotient.

The quotient model lives on points 1..n above an origin mark.  Ordinary
arcs connect two numbered points; an orbifold arc drops from a numbered
point to the origin; a long arc wraps below the origin, with a left piece
and a right piece descending from its left and right endpoints.  Each
quotient arc unfolds to a centrally symmetric arc or antipodal pair of arcs
on the points -n..-1,1..n, and all structural questions (compatibility,
validity of long arcs) are settled by unfolding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from . import arcs_a
from .arcs_a import ArcA, DiagramA
from .lattice import InvariantError, ScopeExceeded
from .permutations import SignedPermutation, fold, unfold
from .util import between

Word = Tuple[int, ...]


class InvalidArc(ValueError):
    pass


class InvalidPair(ValueError):
    pass


class NotADiagram(ValueError):
    pass


class NotJoinIrreducible(ValueError):
    pass


@dataclass(frozen=True)
class OrdinaryArc:
    bottom: int
    top: int
    right: frozenset

    def __post_init__(self):
        if not 0 < self.bottom < self.top:
            raise InvalidArc(f"bad ordinary endpoints ({self.bottom}, {self.top})")
        if not self.right <= frozenset(between(self.bottom, self.top)):
            raise InvalidArc("right points must lie strictly between the endpoints")

    @property
    def left(self) -> frozenset:
        return frozenset(between(self.bottom, self.top)) - self.right

    def key(self) -> tuple:
        return (0, self.bottom, self.top, tuple(sorted(self.right)))

    def __repr__(self) -> str:
        return f"Ord({self.bottom},{self.top};R={sorted(self.right)})"


@dataclass(frozen=True)
class OrbifoldArc:
    top: int
    right: frozenset

    def __post_init__(self):
        if self.top < 1:
            raise InvalidArc(f"bad orbifold endpoint {self.top}")
        if not self.right <= frozenset(range(1, self.top)):
            raise InvalidArc("right points must lie below the endpoint")

    @property
    def left(self) -> frozenset:
        return frozenset(range(1, self.top)) - self.right

    def key(self) -> tuple:
        return (1, self.top, tuple(sorted(self.right)))

    def __repr__(self) -> str:
        return f"Orb({self.top};R={sorted(self.right)})"


@dataclass(frozen=True)
class LongArc:
    """Long arc with oriented endpoints; left and right do not determine
    each other, and the points in neither set sit between the two pieces."""

    left_end: int
    right_end: int
    left: frozenset
    right: frozenset

    def __post_init__(self):
        if self.left_end == self.right_end or self.left_end < 1 or self.right_end < 1:
            raise InvalidArc(f"bad long endpoints ({self.left_end}, {self.right_end})")
        if not self.left <= frozenset(range(1, self.left_end)):
            raise InvalidArc("left points must lie below the left endpoint")
        if not self.right <= frozenset(range(1, self.right_end)):
            raise InvalidArc("right points must lie below the right endpoint")
        if self.left & self.right:
            raise InvalidArc("left and right points must be disjoint")
        if not validate_long_arc(self.left_end, self.right_end, self.left, self.right):
            raise InvalidArc(f"pieces of {self!r} cross when drawn")

    @property
    def between_pieces(self) -> frozenset:
        lo = min(self.left_end, self.right_end)
        return frozenset(range(1, lo)) - self.left - self.right

    def endpoints(self) -> frozenset:
        return frozenset((self.left_end, self.right_end))

    def key(self) -> tuple:
        return (2, self.left_end, self.right_end, tuple(sorted(self.left)), tuple(sorted(self.right)))

    def __repr__(self) -> str:
        return (
            f"Long(L{self.left_end},R{self.right_end};"
            f"L={sorted(self.left)},R={sorted(self.right)})"
        )


TypeBArc = Union[OrdinaryArc, OrbifoldArc, LongArc]


def arc_key(arc: TypeBArc) -> tuple:
    return arc.key()


def top_point(arc: TypeBArc) -> int:
    """The highest point the arc reaches."""
    return max(arc.left_end, arc.right_end) if isinstance(arc, LongArc) else arc.top


def _unfold_long_raw(left_end: int, right_end: int, left: frozenset, right: frozenset) -> Tuple[ArcA, ArcA]:
    """The antipodal pair of the long arc; first component is the right copy."""
    p, q = -left_end, right_end
    right_a = set()
    for v in between(p, q):
        if v > 0:
            if v in right:
                right_a.add(v)
        else:
            if -v in left:
                right_a.add(v)
    a = ArcA(p, q, frozenset(between(p, q)) - frozenset(right_a), frozenset(right_a))
    return a, arcs_a.antipode(a)


def validate_long_arc(left_end: int, right_end: int, left: Iterable[int], right: Iterable[int]) -> bool:
    """A long arc is drawable iff its unfolded antipodal arcs do not cross
    and the arc read as the right copy really lies right of its antipode."""
    return _drawable(left_end, right_end, frozenset(left), frozenset(right))


@lru_cache(maxsize=100000)
def _drawable(left_end: int, right_end: int, left: frozenset, right: frozenset) -> bool:
    if left_end == right_end or left & right:
        return False
    if not left <= frozenset(range(1, left_end)):
        return False
    if not right <= frozenset(range(1, right_end)):
        return False
    a, b = _unfold_long_raw(left_end, right_end, left, right)
    if a.top == b.top or a.bottom == b.bottom:
        return False
    try:
        return arcs_a.relation(a, b) == "right"
    except ValueError:
        return False


@dataclass(frozen=True)
class SymmetricArc:
    """An arc fixed by the half turn, with endpoints -radius and radius."""

    radius: int
    right: frozenset

    def __post_init__(self):
        if self.radius < 1:
            raise InvalidArc(f"bad radius {self.radius}")
        mid = frozenset(between(-self.radius, self.radius))
        if not self.right <= mid or any(-v in self.right for v in self.right):
            raise InvalidArc("right set must pick one of each antipodal pair")
        if len(self.right) * 2 != len(mid):
            raise InvalidArc("right set must pick one of each antipodal pair")

    def as_arc(self) -> ArcA:
        mid = frozenset(between(-self.radius, self.radius))
        return ArcA(-self.radius, self.radius, mid - self.right, self.right)


@dataclass(frozen=True)
class SymmetricPair:
    """Two antipodal, mutually compatible arcs."""

    arcs: frozenset

    def __post_init__(self):
        pair = sorted(self.arcs, key=ArcA.key)
        if len(pair) != 2 or arcs_a.antipode(pair[0]) != pair[1]:
            raise InvalidPair("not an antipodal pair of arcs")
        if not arcs_a.compatible(pair[0], pair[1]):
            raise InvalidPair("pair members cross")

    @property
    def overlapping(self) -> bool:
        arc = next(iter(self.arcs))
        return arc.bottom < 0 < arc.top

    def positive_arc(self) -> ArcA:
        return next(a for a in self.arcs if a.bottom > 0)

    def right_arc(self) -> ArcA:
        a, b = self.arcs
        return a if arcs_a.relation(a, b) == "right" else b


SymArcOrPair = Union[SymmetricArc, SymmetricPair]


def fold_phi(sym: SymArcOrPair) -> TypeBArc:
    """Quotient of a symmetric arc or pair by the half turn."""
    if isinstance(sym, SymmetricArc):
        return OrbifoldArc(sym.radius, frozenset(v for v in sym.right if v > 0))
    if not sym.overlapping:
        a = sym.positive_arc()
        return OrdinaryArc(a.bottom, a.top, a.right)
    return _fold_pair_from_right_arc(sym.right_arc())


def unfold_phi_inv(arc: TypeBArc) -> SymArcOrPair:
    """Inverse of fold_phi."""
    if isinstance(arc, OrbifoldArc):
        right = arc.right | frozenset(-v for v in arc.left)
        return SymmetricArc(arc.top, right)
    if isinstance(arc, OrdinaryArc):
        a = ArcA(arc.bottom, arc.top, arc.left, arc.right)
        return SymmetricPair(frozenset((a, arcs_a.antipode(a))))
    a, b = _unfold_long_raw(arc.left_end, arc.right_end, arc.left, arc.right)
    return SymmetricPair(frozenset((a, b)))


@lru_cache(maxsize=100000)
def unfold_arcs(arc: TypeBArc) -> Tuple[ArcA, ...]:
    """The type-A arcs covering arc in the symmetric model (one or two)."""
    sym = unfold_phi_inv(arc)
    if isinstance(sym, SymmetricArc):
        return (sym.as_arc(),)
    return tuple(sorted(sym.arcs, key=ArcA.key))


def compatible(a: TypeBArc, b: TypeBArc) -> bool:
    """Arcs can coexist in a diagram: every unfolded arc of one is compatible
    with every unfolded arc of the other."""
    return all(
        arcs_a.compatible(x, y) for x in unfold_arcs(a) for y in unfold_arcs(b)
    )


@dataclass(frozen=True)
class DiagramB:
    n: int
    arcs: frozenset

    def __post_init__(self):
        for arc in self.arcs:
            if top_point(arc) > self.n:
                raise InvalidArc(f"{arc} does not fit on {self.n} points")
        for a, b in itertools.combinations(sorted(self.arcs, key=arc_key), 2):
            if not compatible(a, b):
                raise NotADiagram(f"incompatible arcs {a} and {b}")

    def __repr__(self) -> str:
        return f"DiagramB(n={self.n}, arcs={sorted(self.arcs, key=arc_key)})"


def _fold_pair_from_right_arc(a: ArcA) -> TypeBArc:
    if a.bottom > 0:
        return OrdinaryArc(a.bottom, a.top, a.right)
    left_end, right_end = -a.bottom, a.top
    return LongArc(
        left_end,
        right_end,
        frozenset(v for v in range(1, left_end) if -v in a.right),
        frozenset(v for v in a.right if v > 0),
    )


def signed_descent_arcs(pi: SignedPermutation) -> List[Tuple[object, TypeBArc]]:
    """One quotient arc per cover of pi, keyed by "center" or the short
    descent position (0-based)."""
    word = unfold(pi)
    n = pi.n
    pos_arcs = dict(arcs_a.descent_arcs(word))
    out: List[Tuple[object, TypeBArc]] = []
    if pi.word[0] < 0:
        center = pos_arcs[n - 1]  # descent across the middle
        out.append(("center", fold_phi(SymmetricArc(center.top, center.right))))
    for k in range(n - 1):
        if pi.word[k] > pi.word[k + 1]:
            a = pos_arcs[n + k]
            if a.bottom > 0 or a.top < 0:
                pos = a if a.bottom > 0 else arcs_a.antipode(a)
                out.append((k, OrdinaryArc(pos.bottom, pos.top, pos.right)))
            else:
                out.append((k, _fold_pair_from_right_arc(a)))
    return out


def diagram_of_signed(pi: SignedPermutation) -> DiagramB:
    """The quotient noncrossing arc diagram of a signed permutation."""
    return DiagramB(pi.n, frozenset(arc for _k, arc in signed_descent_arcs(pi)))


def diagram_of_signed_direct(pi: SignedPermutation) -> DiagramB:
    """Same diagram computed by position rules on the short word.

    Independent of the unfold/fold path: sides are read off the positions of
    the passed values in the short word directly.
    """
    w = pi.word
    n = pi.n
    pos = {v: i for i, v in enumerate(w)}  # position of each signed entry

    def long_position(v: int) -> int:
        # index of value v in the long word, center at positions n-1|n
        return n + pos[v] if v in pos else n - 1 - pos[-v]

    arcs: List[TypeBArc] = []
    if w[0] < 0:
        top = -w[0]
        right = frozenset(u for u in range(1, top) if u in pos)
        arcs.append(OrbifoldArc(top, right))
    for k in range(n - 1):
        if w[k] <= w[k + 1]:
            continue
        a, b = w[k], w[k + 1]
        if a > 0 and b > 0:
            right = frozenset(u for u in between(b, a) if long_position(u) > n + k + 1)
            arcs.append(OrdinaryArc(b, a, right))
        elif a < 0 and b < 0:
            lo, hi = -a, -b
            right = frozenset(
                u
                for u in between(lo, hi)
                if u in pos or (-u in pos and pos[-u] < k)
            )
            arcs.append(OrdinaryArc(lo, hi, right))
        else:
            right_end, left_end = a, -b
            right = frozenset(u for u in range(1, right_end) if u in pos and pos[u] > k + 1)
            left = frozenset(u for u in range(1, left_end) if -u in pos and pos[-u] > k + 1)
            arcs.append(LongArc(left_end, right_end, left, right))
    return DiagramB(n, frozenset(arcs))


def signed_of_diagram(diagram: DiagramB) -> SignedPermutation:
    """Inverse of diagram_of_signed, via the symmetric model."""
    arcs: set = set()
    for arc in diagram.arcs:
        arcs.update(unfold_arcs(arc))
    points = frozenset(v for v in range(-diagram.n, diagram.n + 1) if v != 0)
    try:
        dia = DiagramA(points, frozenset(arcs))
    except ValueError as exc:
        raise NotADiagram(str(exc)) from exc
    return fold(arcs_a.word_of(dia))


def join_irreducible_word(arc: TypeBArc, n: int) -> Word:
    """Short one-line word of the join-irreducible element of an arc."""
    if isinstance(arc, OrbifoldArc):
        p = arc.top
        if p > n:
            raise ValueError("arc outside 1..n")
        return tuple(
            [-p]
            + sorted(-v for v in arc.left)
            + sorted(arc.right)
            + list(range(p + 1, n + 1))
        )
    if isinstance(arc, OrdinaryArc):
        return arcs_a.join_irreducible_word(arc, n)
    p, q = arc.left_end, arc.right_end
    if max(p, q) > n:
        raise ValueError("arc outside 1..n")
    core = [q, -p] + sorted(-v for v in arc.left) + sorted(arc.right)
    if p < q:
        head = sorted(arc.between_pieces) + sorted(set(between(p, q)) - arc.right)
        tail = list(range(q + 1, n + 1))
        return tuple(head + core + tail)
    head = sorted(arc.between_pieces)
    tail = sorted(set(between(q, p)) - arc.left) + list(range(p + 1, n + 1))
    return tuple(head + core + tail)


def join_irreducible_signed(arc: TypeBArc, n: int) -> SignedPermutation:
    return SignedPermutation(join_irreducible_word(arc, n))


def arc_of_join_irreducible(pi: SignedPermutation) -> TypeBArc:
    """The unique arc in the diagram of a join-irreducible signed permutation."""
    from .permutations import is_join_irreducible_signed

    if not is_join_irreducible_signed(pi):
        raise NotJoinIrreducible(f"{pi} is not join-irreducible")
    arcs = diagram_of_signed(pi).arcs
    if len(arcs) != 1:
        raise InvariantError(f"diagram of join-irreducible {pi} has {len(arcs)} arcs")
    return next(iter(arcs))


def all_arcs(n: int) -> List[TypeBArc]:
    """Every quotient arc on n points; n = 9 has 19,673."""
    if n > 9:
        raise ScopeExceeded("arc enumeration supported up to n = 9")
    out: List[TypeBArc] = []
    for a in arcs_a.all_arcs_n(n):
        out.append(OrdinaryArc(a.bottom, a.top, a.right))
    for top in range(1, n + 1):
        mids = list(range(1, top))
        for k in range(len(mids) + 1):
            for rset in itertools.combinations(mids, k):
                out.append(OrbifoldArc(top, frozenset(rset)))
    for left_end in range(1, n + 1):
        for right_end in range(1, n + 1):
            if left_end == right_end:
                continue
            lcands = list(range(1, left_end))
            rcands = list(range(1, right_end))
            for lsub in _subsets(lcands):
                for rsub in _subsets(rcands):
                    if lsub & rsub:
                        continue
                    if validate_long_arc(left_end, right_end, lsub, rsub):
                        out.append(LongArc(left_end, right_end, lsub, rsub))
    return sorted(out, key=arc_key)


def _subsets(items: Sequence[int]) -> Iterator[frozenset]:
    for k in range(len(items) + 1):
        for sub in itertools.combinations(items, k):
            yield frozenset(sub)


def all_diagrams(n: int) -> List[DiagramB]:
    """Every diagram on n points, as cliques of the compatibility graph."""
    if n > 5:
        raise ScopeExceeded("diagram enumeration supported up to n = 5")
    arcs = all_arcs(n)
    m = len(arcs)
    compat = [[False] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            compat[i][j] = compat[j][i] = compatible(arcs[i], arcs[j])
    out: List[DiagramB] = []

    def extend(chosen: list, start: int):
        out.append(DiagramB(n, frozenset(arcs[i] for i in chosen)))
        for j in range(start, m):
            if all(compat[i][j] for i in chosen):
                extend(chosen + [j], j + 1)

    extend([], 0)
    return out


@dataclass(frozen=True)
class ShardDescriptorB:
    """Inequality description of the cone attached to a quotient arc.

    equality is ("zero", p): x_p = 0, ("diff", p, q): x_p = x_q, or
    ("sum", p, q): x_q = -x_p.  Bounds are stored as signed indices i with
    x_key <= x_i (leq) or x_key >= x_i (geq), where x_{-i} means -x_i.
    """

    equality: tuple
    leq: frozenset
    geq: frozenset

    def linear_forms(self, n: int) -> tuple:
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


def shard_descriptor(arc: TypeBArc) -> ShardDescriptorB:
    if isinstance(arc, OrbifoldArc):
        return ShardDescriptorB(
            ("zero", arc.top), frozenset(arc.right), frozenset(arc.left)
        )
    if isinstance(arc, OrdinaryArc):
        return ShardDescriptorB(
            ("diff", arc.bottom, arc.top), frozenset(arc.right), frozenset(arc.left)
        )
    p, q = arc.left_end, arc.right_end
    leq = frozenset(arc.right) | frozenset(-v for v in arc.left)
    universe = frozenset(range(1, q)) | frozenset(-v for v in range(1, p))
    return ShardDescriptorB(("sum", p, q), leq, universe - leq)
