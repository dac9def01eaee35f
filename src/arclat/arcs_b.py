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
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple, Union

from . import arcs_a
from .arcs_a import SHARED_ARCS, ArcA, DiagramA, ShardDescriptor, shared_arc
from .permutations import SignedPermutation, fold, is_join_irreducible_signed
from .util import MAX_POINTS, InvariantError, ScopeExceeded, between, bits, passed

Word = Tuple[int, ...]
Key = Tuple[int, int, int]


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
        if not self.right <= passed(self.bottom, self.top):
            raise InvalidArc("right points must lie strictly between the endpoints")

    @property
    def left(self) -> frozenset:
        return passed(self.bottom, self.top) - self.right

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
        if not self.right <= passed(0, self.top):
            raise InvalidArc("right points must lie below the endpoint")

    @property
    def left(self) -> frozenset:
        return passed(0, self.top) - self.right

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
        if not self.left <= passed(0, self.left_end):
            raise InvalidArc("left points must lie below the left endpoint")
        if not self.right <= passed(0, self.right_end):
            raise InvalidArc("right points must lie below the right endpoint")
        if self.left & self.right:
            raise InvalidArc("left and right points must be disjoint")
        if not _drawable(self.left_end, self.right_end, self.left, self.right):
            raise InvalidArc(f"pieces of {self!r} cross when drawn")

    @property
    def between_pieces(self) -> frozenset:
        return passed(0, min(self.left_end, self.right_end)) - self.left - self.right

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
    """The antipodal pair of the long arc; first component is the right copy,
    which passes right of the points of right and of -v for v in left."""
    a = shared_arc(-left_end, right_end, right.union(-v for v in left))
    return a, arcs_a.antipode(a)


# A key (bottom, top, right) names an arc on the points -n..-1, 1..n: its
# endpoints and the bitmask of the points right of it, point v at bit v + n.


def piece_key(n: int, p: int, q: int, points: int) -> Key:
    """The key of the arc from p up to q whose right points are those of the
    bitmask points that lie strictly between p and q."""
    return p, q, points & (1 << (q + n)) - (1 << (p + n + 1))


def span(n: int, p: int, q: int) -> int:
    """The bitmask of the points strictly between p and q."""
    return (1 << (q + n)) - (1 << (p + n + 1)) & ~(1 << n)


# Each byte with its bits in reverse order.
_REVERSED = bytes(sum(1 << 7 - i for i in range(8) if b >> i & 1) for b in range(256))


def _mirror(n: int, mask: int) -> int:
    """The points of mask under the half turn v -> -v: bit i goes to bit
    2n - i.  The bytes of mask are reversed, each byte's bits too, and the
    padding above bit 2n is shifted out."""
    width = 2 * n + 1
    size = width + 7 >> 3
    return int.from_bytes(mask.to_bytes(size, "little").translate(_REVERSED), "big") >> (size << 3) - width


def antipode_key(n: int, key: Key) -> Key:
    """The key of the arc's image under the half turn; left and right swap."""
    p, q, right = key
    return -q, -p, _mirror(n, span(n, p, q) & ~right)


def _lies_right_of(n: int, a: Key, b: Key) -> bool:
    """arcs_a.relation(a, b) == "right" for arcs sharing no top or bottom:
    an endpoint or passed point of one is a vote when the other passes it,
    and every vote must say right."""
    (p, q, ra), (s, t, rb) = a, b
    if p == s or q == t:
        return False
    la, lb = span(n, p, q) & ~ra, span(n, s, t) & ~rb
    ends_a, ends_b = 1 << (p + n) | 1 << (q + n), 1 << (s + n) | 1 << (t + n)
    if ends_a & lb or ends_b & ra or ra & lb:
        return False
    return bool(ends_a & rb or ends_b & la or la & rb)


def validate_long_arc(left_end: int, right_end: int, left: Iterable[int], right: Iterable[int]) -> bool:
    """A long arc is drawable iff its unfolded antipodal arcs do not cross
    and the arc read as the right copy really lies right of its antipode."""
    try:
        LongArc(left_end, right_end, frozenset(left), frozenset(right))
    except InvalidArc:
        return False
    return True


@lru_cache(maxsize=100000)
def _drawable(left_end: int, right_end: int, left: frozenset, right: frozenset) -> bool:
    """validate_long_arc for endpoints and side sets already checked.  The
    right piece runs from -left_end up to right_end, passing right of the
    points of right and of -v for v in left."""
    n = max(left_end, right_end)
    a = (-left_end, right_end, sum(1 << (n + v) for v in right) | sum(1 << (n - v) for v in left))
    return _lies_right_of(n, a, antipode_key(n, a))


@dataclass(frozen=True)
class SymmetricArc:
    """An arc fixed by the half turn, with endpoints -radius and radius."""

    radius: int
    right: frozenset

    def __post_init__(self):
        if self.radius < 1:
            raise InvalidArc(f"bad radius {self.radius}")
        mid = passed(-self.radius, self.radius)
        if not self.right <= mid or any(-v in self.right for v in self.right):
            raise InvalidArc("right set must pick one of each antipodal pair")
        if len(self.right) * 2 != len(mid):
            raise InvalidArc("right set must pick one of each antipodal pair")

    def as_arc(self) -> ArcA:
        return shared_arc(-self.radius, self.radius, self.right)


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
        a = shared_arc(arc.bottom, arc.top, arc.right)
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


def main_piece(arc: TypeBArc) -> ArcA:
    """The unfolded piece that stands for the arc: the positive piece of an
    ordinary arc, the one piece of an orbifold arc, the right piece of a long
    arc."""
    pieces = unfold_arcs(arc)
    if isinstance(arc, OrbifoldArc):
        return pieces[0]
    bottom = -arc.left_end if isinstance(arc, LongArc) else arc.bottom
    return next(a for a in pieces if a.bottom == bottom)


def compatible(a: TypeBArc, b: TypeBArc) -> bool:
    """Arcs can coexist in a diagram: every unfolded arc of one is compatible
    with every unfolded arc of the other."""
    pieces = unfold_arcs(b)
    return all(arcs_a.compatible(x, y) for x in unfold_arcs(a) for y in pieces)


@dataclass(frozen=True)
class DiagramB:
    n: int
    arcs: frozenset

    def __post_init__(self):
        for arc in self.arcs:
            if top_point(arc) > self.n:
                raise InvalidArc(f"{arc} does not fit on {self.n} points")
        if not all(itertools.starmap(compatible, itertools.combinations(self.arcs, 2))):
            pairs = itertools.combinations(sorted(self.arcs, key=arc_key), 2)
            a, b = next(pair for pair in pairs if not compatible(*pair))
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
    """One quotient arc per lower cover of pi, keyed by "center" or the
    short descent position k (0-based), the centre first.  The descent
    w[k] > w[k + 1] unfolds to the piece from w[k + 1] up to w[k], and the
    centre, w[0] < 0, to the piece from w[0] up to -w[0]; each passes right
    of the points between its ends that come after it in w (see
    forcing.contracted_descent), read right to left in one pass."""
    w, n = pi.word, pi.n
    out: List[Tuple[object, TypeBArc]] = []
    after, p = 0, w[-1]
    for k in range(n - 2, -1, -1):
        q = w[k]
        if q > p:
            out.append((k, _piece_arc(n, piece_key(n, p, q, after))))
        after |= 1 << (p + n)
        p = q
    if p < 0:
        out.append(("center", _piece_arc(n, piece_key(n, p, -p, after))))
    return out[::-1]


def _piece_arc(n: int, key: Key) -> TypeBArc:
    """The arc with an unfolded piece of key: the piece is the main piece
    (see main_piece) unless both its ends are negative, when its antipode is."""
    return arc_of_key(n, key if key[1] > 0 else antipode_key(n, key))


def diagram_of_signed(pi: SignedPermutation) -> DiagramB:
    """The quotient noncrossing arc diagram of a signed permutation."""
    if pi.n > MAX_POINTS:
        raise ScopeExceeded(f"diagrams supported up to n = {MAX_POINTS}")
    return DiagramB(pi.n, frozenset(arc for _k, arc in signed_descent_arcs(pi)))


def signed_of_diagram(diagram: DiagramB) -> SignedPermutation:
    """Inverse of diagram_of_signed, via the symmetric model."""
    if diagram.n > MAX_POINTS:
        raise ScopeExceeded(f"diagrams supported up to n = {MAX_POINTS}")
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


def arc_of_join_irreducible(pi: SignedPermutation) -> TypeBArc:
    """The unique arc in the diagram of a join-irreducible signed permutation,
    read off its one descent (see signed_descent_arcs)."""
    if not is_join_irreducible_signed(pi):
        raise NotJoinIrreducible(f"{pi} is not join-irreducible")
    w, n = pi.word, pi.n
    steps = [k for k in range(n - 1) if w[k] > w[k + 1]]
    if w[0] < 0:
        steps.append(-1)
    if len(steps) != 1:
        raise InvariantError(f"diagram of join-irreducible {pi} has {len(steps)} arcs")
    k = steps[0]
    p, q = (w[0], -w[0]) if k < 0 else (w[k + 1], w[k])
    return _piece_arc(n, piece_key(n, p, q, sum(1 << (v + n) for v in w[k + 2:])))


class KeyedArcs(NamedTuple):
    """The key of each arc's main piece (see main_piece) for the arcs on n
    points in arc_key order, and every unfolded piece's key mapped to its
    arc's index.  arc_of_key builds the arc of a main key."""

    main: Tuple[Key, ...]
    index: Dict[Key, int]


def _lex_submasks(mask: int) -> Iterator[int]:
    """Every submask of mask in the lexicographic order of their points
    listed lowest bit first: 0, then each submask holding the lowest bit b
    of mask, then those whose lowest bit is above b.  Each step appends the
    next bit of mask above the submask's highest, or else drops the highest
    (the top bit of mask) and moves the one below it up to its next bit."""
    sub = 0
    yield sub
    while mask:
        above = mask >> sub.bit_length() << sub.bit_length()
        if not above:
            sub ^= 1 << sub.bit_length() - 1
            if not sub:
                return
            top = sub.bit_length()
            sub ^= 1 << top - 1
            above = mask >> top << top
        sub |= above & -above
        yield sub


def main_key(n: int, arc: TypeBArc) -> Key:
    """The key of main_piece(arc) on n >= top_point(arc) points."""
    right = sum(1 << n + v for v in arc.right)
    if isinstance(arc, OrdinaryArc):
        return arc.bottom, arc.top, right
    left = sum(1 << n - v for v in arc.left)
    if isinstance(arc, OrbifoldArc):
        return -arc.top, arc.top, right | left
    return -arc.left_end, arc.right_end, right | left


@lru_cache(maxsize=SHARED_ARCS)
def arc_of_key(n: int, key: Key) -> TypeBArc:
    """The arc whose main piece has key: the inverse of main_key.  One
    object per (n, key), built and validated the first time it is asked
    for; the last SHARED_ARCS are kept (see arcs_a.shared_arc)."""
    p, q, right = key
    rights = frozenset(bits(right >> n))
    if p > 0:
        return OrdinaryArc(p, q, rights)
    if p == -q:
        return OrbifoldArc(q, rights)
    return LongArc(-p, q, frozenset(n - i for i in bits(right & (1 << n) - 1)), rights)


@lru_cache(maxsize=None)
def keyed_arcs(n: int) -> KeyedArcs:
    """Every arc on n points, enumerated as the key of its main piece, in
    arc_key order: each arc kind in turn, by endpoints, and then by side
    sets, each read as its points in increasing order (see _lex_submasks).

    A long arc's right piece passes each point below both endpoints on at
    most one side, since its two side sets are disjoint, and passes the
    lower endpoint, the top of its antipode, on its left: passed on its
    right, that point would put the right piece left of its antipode.
    Every long key so built is still checked to lie right of its antipode.
    """
    if n > 9:
        raise ScopeExceeded("arc enumeration supported up to n = 9")
    main: List[Key] = []
    index: Dict[Key, int] = {}
    # flip[m]: the half turn of the positive points m << n.  An arc's
    # antipode is (-q, -p, the half turn of its left points): see
    # antipode_key, here with every mask split at the origin.
    flip = [_mirror(n, m << n) for m in range(1 << n)]

    def add(key: Key, anti: Key) -> None:
        index[key] = index[anti] = len(main)
        main.append(key)

    for bottom in range(1, n + 1):
        for top in range(bottom + 1, n + 1):
            mid = span(n, bottom, top)
            for right in _lex_submasks(mid):
                add((bottom, top, right), (-top, -bottom, flip[(mid & ~right) >> n]))
    for top in range(1, n + 1):
        below = span(n, 0, top)
        for right in _lex_submasks(below):
            key = (-top, top, right | flip[(below & ~right) >> n])
            add(key, key)
    for left_end, right_end in itertools.permutations(range(1, n + 1), 2):
        mid = span(n, -right_end, left_end)
        for lefts in _lex_submasks(span(n, 0, left_end) & ~(1 << (n + right_end))):
            left = flip[lefts >> n]
            for right in _lex_submasks(span(n, 0, right_end) & ~lefts & ~(1 << (n + left_end))):
                key = (-left_end, right_end, left | right)
                anti = (-right_end, left_end, mid & ~(lefts | flip[right >> n]))
                if not _lies_right_of(n, key, anti):
                    raise InvariantError(f"long arc key {key} on {n} points is not drawable")
                add(key, anti)
    return KeyedArcs(tuple(main), index)


def all_arcs(n: int) -> List[TypeBArc]:
    """Every quotient arc on n points in arc_key order, each built from its
    main key; n = 9 has 19,673."""
    return [arc_of_key(n, key) for key in keyed_arcs(n).main]


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


def shard_descriptor(arc: TypeBArc) -> ShardDescriptor:
    if isinstance(arc, OrbifoldArc):
        return ShardDescriptor(
            ("zero", arc.top), frozenset(arc.right), frozenset(arc.left)
        )
    if isinstance(arc, OrdinaryArc):
        return ShardDescriptor(
            ("diff", arc.bottom, arc.top), frozenset(arc.right), frozenset(arc.left)
        )
    p, q = arc.left_end, arc.right_end
    leq = frozenset(arc.right) | frozenset(-v for v in arc.left)
    universe = frozenset(range(1, q)) | frozenset(-v for v in range(1, p))
    return ShardDescriptor(("sum", p, q), leq, universe - leq)
