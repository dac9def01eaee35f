"""Subarc order, arrows, and congruences encoded by contracted arcs.

Contracting the join-irreducible of an arc forces contracting every
superarc, so a congruence is an up-closed set of contracted arcs, stored as
its bitmask over one arc table per rank; meets and joins of congruences are
then AND and OR.  Element-level consequences run on integers: class bottoms
are the words with no contracted descent, found by a search over integer
states that drops a suffix at its first one; classes follow one descent
table per rank, where one AND of bit masks finds the words that join the
class of the word below a descent.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import factorial
from operator import or_
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import arcs_a, arcs_b
from .arcs_a import ArcA
from .arcs_b import (
    Key,
    LongArc,
    OrbifoldArc,
    OrdinaryArc,
    SymArcOrPair,
    SymmetricArc,
    TypeBArc,
    piece_key,
)
from .lattice import FiniteLattice, build_lattice
from .permutations import SignedPermutation, check_signed_rank, signed_words, word_length
from .util import InvariantError, ScopeExceeded, bits, closed_sets, passed


class NotInConA(ValueError):
    """Raised when lifting a congruence with no symmetric preimage."""


def is_subarc(sub: TypeBArc, sup: TypeBArc) -> bool:
    """The subarc relation on quotient arcs; equals join-irreducible forcing."""
    if isinstance(sup, OrdinaryArc) or isinstance(sup, OrbifoldArc):
        if isinstance(sub, LongArc):
            return False
        p = 0 if isinstance(sup, OrbifoldArc) else sup.bottom
        q = sup.top
        if isinstance(sub, OrbifoldArc):
            p2, q2 = 0, sub.top
        else:
            p2, q2 = sub.bottom, sub.top
        return (
            p <= p2 < q2 <= q
            and sub.right == sup.right & passed(p2, q2)
        )
    # sup is long
    p, q = sup.left_end, sup.right_end
    if isinstance(sub, OrdinaryArc):
        if sub.top <= p and sub.left == sup.left & passed(sub.bottom, sub.top):
            return True
        return sub.top <= q and sub.right == sup.right & passed(sub.bottom, sub.top)
    if isinstance(sub, OrbifoldArc):
        return (
            sub.top <= min(p, q)
            and sub.left == sup.left & passed(0, sub.top)
            and sub.right == sup.right & passed(0, sub.top)
        )
    # The attachment at an endpoint of the piece being cut can only cross the
    # other piece when that other piece reaches above the attachment height,
    # so the endpoint exclusions apply only on the lower of the two ends.
    return (
        sub.left_end <= p
        and sub.right_end <= q
        and sub.left == sup.left & passed(0, sub.left_end)
        and sub.right == sup.right & passed(0, sub.right_end)
        and (sub.left_end > sub.right_end or sub.left_end not in sup.right)
        and (sub.right_end > sub.left_end or sub.right_end not in sup.left)
    )


def is_subarc_symmetric(sub: SymArcOrPair, sup: SymArcOrPair) -> bool:
    """The subarc relation stated on symmetric arcs and pairs."""
    if isinstance(sup, SymmetricArc):
        full = sup.as_arc()
        if isinstance(sub, SymmetricArc):
            return sub.radius <= sup.radius and sub.right == full.right & passed(-sub.radius, sub.radius)
        if sub.overlapping:
            return False
        a = sub.positive_arc()
        return a.top <= sup.radius and a.right == full.right & passed(a.bottom, a.top)
    if not sup.overlapping:
        if isinstance(sub, SymmetricArc) or sub.overlapping:
            return False
        a, s = sub.positive_arc(), sup.positive_arc()
        return (
            s.bottom <= a.bottom < a.top <= s.top
            and a.right == s.right & passed(a.bottom, a.top)
        )
    s = sup.right_arc()
    p, q = s.bottom, s.top
    if isinstance(sub, SymmetricArc):
        a = sub.as_arc()
        other = arcs_a.antipode(s)
        return (
            p <= a.bottom < a.top <= q
            and a.right == s.right & passed(a.bottom, a.top)
            and a.right == other.right & passed(a.bottom, a.top)
        )
    candidates = list(sub.arcs) if not sub.overlapping else [sub.right_arc()]
    for a in candidates:
        if (
            p <= a.bottom < a.top <= q
            and a.right == s.right & passed(a.bottom, a.top)
        ):
            return True
    return False


def is_loose_subarc(sub: TypeBArc, sup: TypeBArc) -> bool:
    """Subarc relation relaxed to detect restrictions of symmetric congruences."""
    if is_subarc(sub, sup):
        return True
    if not isinstance(sub, LongArc):
        return False
    if isinstance(sup, OrbifoldArc):
        q = sup.top
        return (
            sub.left_end <= q
            and sub.right_end <= q
            and sub.left == sup.left & passed(0, sub.left_end)
            and sub.right == sup.right & passed(0, sub.right_end)
        )
    if isinstance(sup, LongArc):
        p, q = sup.left_end, sup.right_end
        return (
            sub.left_end <= q
            and sub.right_end <= p
            and sub.left == passed(0, sub.left_end) - sup.right
            and sub.right == passed(0, sub.right_end) - sup.left
            and not sub.between_pieces
        )
    return False


def _chain_arrow(a1: TypeBArc, a2: TypeBArc) -> bool:
    """Source and target cones lie in a three-hyperplane degree-two slice.

    The target's main piece splits at an interior point into one copy of
    the source and a forced partner; there is an arrow exactly when the
    partner is itself a noncrossing pair compatible with the source.
    """
    rho = arcs_b.main_piece(a2)
    members = arcs_b.unfold_arcs(a1)
    for m in members:
        tau = None
        if m.bottom == rho.bottom and m.top != -rho.top and m.top < rho.top:
            tau = (m.top, rho.top)
        elif m.top == rho.top and m.bottom != -rho.bottom and m.bottom > rho.bottom:
            tau = (rho.bottom, m.bottom)
        if tau is None:
            continue
        if m.right != rho.right & passed(m.bottom, m.top):
            continue
        lo, hi = tau
        partner = arcs_a.shared_arc(lo, hi, rho.right & passed(lo, hi))
        anti = arcs_a.antipode(partner)
        if partner != anti and not arcs_a.compatible(partner, anti):
            continue
        partner_pair = (partner,) if partner == anti else (partner, anti)
        if all(arcs_a.compatible(x, y) for x in members for y in partner_pair):
            return True
    return False


def has_arrow(a1: TypeBArc, a2: TypeBArc) -> bool:
    """Single forcing step between the attached cones.

    Requires the subarc relation plus a local shape condition: either the
    chain configuration of _chain_arrow, or one of the degree-four slice
    shapes involving the origin (orbifold targets, or long targets with
    nothing between their pieces, reached from their lower endpoint).
    """
    if a1 == a2 or not is_subarc(a1, a2):
        return False
    orb1, orb2 = isinstance(a1, OrbifoldArc), isinstance(a2, OrbifoldArc)
    if not orb2 and not orb1 and _chain_arrow(a1, a2):
        return True
    if orb1 and orb2 and a1.top != a2.top:
        return True
    if orb2 and isinstance(a1, OrdinaryArc) and a1.top == a2.top:
        return True
    if isinstance(a2, LongArc) and not a2.between_pieces:
        p, q = sorted((a2.left_end, a2.right_end))
        if orb1 and a1.top == p:
            return True
        if isinstance(a1, OrdinaryArc) and (a1.bottom, a1.top) == (p, q):
            return True
    return False


def forces(a1: TypeBArc, a2: TypeBArc) -> bool:
    """Contracting a1 forces contracting a2: exactly the subarc relation."""
    return is_subarc(a1, a2)


def arrow_rows(n: int) -> List[int]:
    """Row i is the bitmask of the arcs j with an arrow from arc i to arc j,
    over the arcs on n points in _all_arcs order.  An arrow runs only to a
    superarc, so only the pairs of subarc_table(n).row(i) are tested."""
    arcs, table = _all_arcs(n), subarc_table(n)
    return [sum(1 << j for j in bits(table.row(i)) if has_arrow(a, arcs[j])) for i, a in enumerate(arcs)]


def _keyed_arcs(n: int) -> arcs_b.KeyedArcs:
    """arcs_b.keyed_arcs(n), refused past n = 7: n = 8 has 6,552 arcs, too
    many for up-closure checks."""
    if n > 7:
        raise ScopeExceeded("congruences and arrows supported up to n = 7")
    return arcs_b.keyed_arcs(n)


@lru_cache(maxsize=None)
def _all_arcs(n: int) -> tuple:
    """arcs_b.all_arcs(n), refused as _keyed_arcs(n) is."""
    _keyed_arcs(n)
    return tuple(arcs_b.all_arcs(n))


class ArcTable:
    """One arc model on n points: the key of each arc in a fixed order, an
    index from keys to arc positions, and one bitmask column and bitmask
    row per arc.  key_of(arc) is the key that finds an arc in index, and
    arc_of(keys[i]) the shared arc object of a key.  Column j has bit i set
    when arc i is related to arc j, and row i is the transpose: bit j set
    for the same pairs.  Each column and row is computed, by column(j) or
    row(i), the first time it is asked for and then kept, so a row costs no
    column, and a mask of arcs builds only its own arcs.  In the subarc
    tables a column is one key lookup per type-A subarc of the arc's main
    piece, and a row an AND of per-point bitmasks (see _superkeys)."""

    def __init__(self, n: int, keys: Sequence, index: Dict, key_of: Callable, arc_of: Callable,
                 column: Callable[[int], int], row: Callable[[int], int]):
        self.n = n
        self.keys, self.index = tuple(keys), index
        self.key_of, self.arc_of = key_of, arc_of
        self.full = (1 << len(self.keys)) - 1
        self.column, self.row_of = column, row
        self._cols: List[Optional[int]] = [None] * len(self.keys)
        self._rows: List[Optional[int]] = [None] * len(self.keys)

    @property
    def arcs(self) -> tuple:
        """Every arc, in the table's order."""
        return tuple(map(self.arc, range(len(self.keys))))

    def arc(self, i: int):
        return self.arc_of(self.keys[i])

    def index_of(self, arc) -> int:
        key = self.key_of(arc)
        i = None if key is None else self.index.get(key)
        if i is None:
            raise ValueError(f"{arc} does not fit on {self.n} points")
        return i

    def col(self, j: int) -> int:
        if self._cols[j] is None:
            self._cols[j] = self.column(j)
        return self._cols[j]

    def row(self, i: int) -> int:
        if self._rows[i] is None:
            self._rows[i] = self.row_of(i)
        return self._rows[i]

    def up(self, mask: int) -> int:
        """The OR of the rows of the arcs in mask."""
        return reduce(or_, map(self.row, bits(mask)), 0)

    def mask(self, arcs: Iterable) -> int:
        return reduce(or_, (1 << self.index_of(arc) for arc in arcs), 0)

    def arcs_of(self, mask: int) -> frozenset:
        return frozenset(map(self.arc, bits(mask)))


def _type_b_table(n: int, column: Callable[[int], int], row: Callable[[int], int]) -> ArcTable:
    """An ArcTable over the main keys of _keyed_arcs(n)."""
    keyed = _keyed_arcs(n)

    def key_of(arc) -> Optional[Key]:
        if isinstance(arc, (OrdinaryArc, OrbifoldArc, LongArc)) and arcs_b.top_point(arc) <= n:
            return arcs_b.main_key(n, arc)
        return None

    return ArcTable(n, keyed.main, keyed.index, key_of, lambda key: arcs_b.arc_of_key(n, key), column, row)


def _subkeys(n: int, key: Key, index: Dict[Key, int]) -> Iterator[Tuple[Key, int]]:
    """Each type-A subarc (p', q', right & span(p', q')), p <= p' < q' <= q,
    of the arc key = (p, q, right) that index holds, with its index."""
    p, q, right = key
    points = [v for v in range(p, q + 1) if v]
    for k, s in enumerate(points):
        for t in points[k + 1:]:
            sub = piece_key(n, s, t, right)
            i = index.get(sub)
            if i is not None:
                yield sub, i


def _superkeys(n: int, keys: Sequence[Key]) -> Callable[[Key], int]:
    """A map from a piece key (s, t, r) to the bitmask of the i whose key
    keys[i] = (p, q, right) has it as a type-A subarc: p <= s < t <= q and
    right & span(s, t) == r.  Over keys, low[s] holds the keys whose bottom
    is at most s, high[t] those whose top is at least t, right[b] those
    whose right set holds the point b and left[b] = ~right[b] the rest, each
    indexed by point + n; the row is low[s] & high[t], ANDed for every point
    b strictly between s and t with right[b] if r holds b and else with
    left[b].  The planes are built on the first call."""
    @lru_cache(maxsize=None)
    def planes() -> Tuple[List[int], List[int], List[int], List[int]]:
        bottoms, tops, right = ([0] * (2 * n + 1) for _ in range(3))
        for i, (p, q, r) in enumerate(keys):
            bottoms[p + n] |= 1 << i
            tops[q + n] |= 1 << i
            for b in bits(r):
                right[b] |= 1 << i
        return (list(accumulate(bottoms, or_)), list(accumulate(tops[::-1], or_))[::-1],
                right, [~m for m in right])

    def row(key: Key) -> int:
        low, high, right, left = planes()
        s, t, r = key
        out = low[s + n] & high[t + n]
        for b in range(s + n + 1, t + n):  # left[n], the origin's, is every key
            out &= right[b] if r >> b & 1 else left[b]
        return out

    return row


@lru_cache(maxsize=None)
def subarc_table(n: int) -> ArcTable:
    """The subarc order on the arcs on n points.  Column j holds the arcs
    with an unfolded piece that is a type-A subarc of the main piece of
    arc j (see arcs_b.KeyedArcs), except that a long arc counts only through
    its own main piece and only under a long arc: both pieces of
    Long(L1,R2;[],[]) are type-A subarcs of Orb(2;[]), yet it is no subarc.
    Row i is the OR of the rows of arc i's pieces over every main key
    (see _superkeys) under the same rule: a long arc's row is its main
    piece's, cut to the long arcs."""
    keyed = _keyed_arcs(n)
    long = [p < 0 and p != -q for p, q, _right in keyed.main]
    pieces: List[List[Key]] = [[] for _ in keyed.main]
    for key, i in keyed.index.items():
        pieces[i].append(key)
    long_mask = reduce(or_, (1 << j for j, is_long in enumerate(long) if is_long), 0)
    superkeys = _superkeys(n, keyed.main)

    def column(j: int) -> int:
        hits = _subkeys(n, keyed.main[j], keyed.index)
        return reduce(or_, (1 << i for sub, i in hits if not long[i] or long[j] and sub == keyed.main[i]), 0)

    def row(i: int) -> int:
        return superkeys(keyed.main[i]) & long_mask if long[i] else reduce(or_, map(superkeys, pieces[i]), 0)

    return _type_b_table(n, column, row)


@lru_cache(maxsize=None)
def loose_subarc_table(n: int) -> ArcTable:
    arcs = _all_arcs(n)
    return _type_b_table(
        n,
        lambda j: sum(1 << i for i, a in enumerate(arcs) if is_loose_subarc(a, arcs[j])),
        lambda i: sum(1 << j for j, b in enumerate(arcs) if is_loose_subarc(arcs[i], b)),
    )


def _key_a(n: int, bottom: int, top: int, right: Iterable[int]) -> Key:
    return bottom, top, sum(1 << (v + n) for v in right)


@lru_cache(maxsize=None)
def symmetric_subarc_table(n: int) -> ArcTable:
    """Plain arcs on the points -n..-1, 1..n under the type-A subarc order,
    kept as their keys in the order of arcs_a.all_arcs."""
    points = [v for v in range(-n, n + 1) if v]
    keys = [_key_a(n, *sides) for sides in arcs_a.arc_sides(points)]
    index = {key: i for i, key in enumerate(keys)}
    superkeys = _superkeys(n, keys)
    return ArcTable(
        n,
        keys,
        index,
        lambda arc: (_key_a(n, arc.bottom, arc.top, arc.right)
                     if isinstance(arc, ArcA) and -n <= arc.bottom and arc.top <= n else None),
        lambda key: arcs_a.shared_arc(key[0], key[1], frozenset(i - n for i in bits(key[2]))),
        lambda j: reduce(or_, (1 << i for _sub, i in _subkeys(n, keys[j], index)), 0),
        lambda i: superkeys(keys[i]),
    )


@dataclass(frozen=True)
class ArcCongruence:
    """A congruence of the type-B weak order as the bitmask of its contracted
    arcs: bit i stands for table(n).arc(i)."""

    n: int
    mask: int

    table = staticmethod(subarc_table)

    def __post_init__(self):
        # Up-closure on the side with fewer arcs: the contracted rows or the
        # uncontracted columns.
        table, mask = self.table(self.n), self.mask
        if mask < 0 or mask & ~table.full:
            raise ValueError(f"mask {mask:#x} has bits outside the {len(table.keys)} arcs on {self.n} points")
        bad = _first_unclosed(table, mask, mask.bit_count() <= (table.full & ~mask).bit_count())
        if bad is not None:
            raise ValueError(f"contracted set not closed above {table.arc(bad)}")

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable) -> "ArcCongruence":
        """The congruence contracting exactly the given arcs."""
        return cls(n, cls.table(n).mask(arcs))

    @cached_property
    def contracted(self) -> frozenset:
        return self.table(self.n).arcs_of(self.mask)

    @cached_property
    def contracted_keys(self) -> frozenset:
        """The keys (see arcs_b.piece_key) of the unfolded type-A arcs of the
        contracted arcs."""
        mask = _signed_mask(self)
        return frozenset(key for key, i in arcs_b.keyed_arcs(self.n).index.items() if mask >> i & 1)

    @classmethod
    def identity(cls, n: int) -> "ArcCongruence":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "ArcCongruence":
        return cls(n, cls.table(n).full)

    @classmethod
    def from_generators(cls, n: int, gens: Iterable) -> "ArcCongruence":
        table = cls.table(n)
        return cls(n, table.up(table.mask(gens)))

    def uncontracted(self) -> frozenset:
        table = self.table(self.n)
        return table.arcs_of(table.full & ~self.mask)

    def __contains__(self, arc) -> bool:
        """arc in self.contracted, read off one bit of the mask."""
        table = self.table(self.n)
        key = table.key_of(arc)
        i = None if key is None else table.index.get(key)
        return i is not None and bool(self.mask >> i & 1)


def _first_unclosed(table: ArcTable, mask: int, rows: bool) -> Optional[int]:
    """The lowest arc in mask related to an arc outside it, read off the rows
    of mask or else the columns of the rest; None if mask is up-closed."""
    if rows:
        return next((i for i in bits(mask) if table.row(i) & ~mask), None)
    below = reduce(or_, map(table.col, bits(table.full & ~mask)), 0) & mask
    return (below & -below).bit_length() - 1 if below else None


def congruence_meet(t1: ArcCongruence, t2: ArcCongruence) -> ArcCongruence:
    if t1.n != t2.n or type(t1) is not type(t2):
        raise ValueError("congruences on different ranks or arc models")
    return type(t1)(t1.n, t1.mask & t2.mask)


def congruence_join(t1: ArcCongruence, t2: ArcCongruence) -> ArcCongruence:
    if t1.n != t2.n or type(t1) is not type(t2):
        raise ValueError("congruences on different ranks or arc models")
    return type(t1)(t1.n, t1.mask | t2.mask)


def meet_irreducible_congruence(n: int, arc: TypeBArc) -> ArcCongruence:
    """The coarsest congruence not contracting the given arc: its
    uncontracted arcs are exactly the subarcs of the arc."""
    table = subarc_table(n)
    return ArcCongruence(n, table.full & ~table.col(table.index_of(arc)))


# project no longer reads this cache; it stays for benchmark cache reports.
@lru_cache(maxsize=200000)
def _signed_descent_arcs_cached(word: Tuple[int, ...]) -> tuple:
    return tuple(arcs_b.signed_descent_arcs(SignedPermutation(word)))


# Nothing in arclat reads this cache; it stays for benchmark cache reports.
@lru_cache(maxsize=200000)
def _descent_arcs_cached(word: Tuple[int, ...]) -> tuple:
    return tuple(arcs_a.descent_arcs(word))


def _signed_mask(theta: ArcCongruence) -> int:
    """theta.mask, refused unless its bits index subarc_table(n): the
    descents of signed words are read against that table only."""
    if theta.table is not subarc_table:
        raise TypeError(f"{type(theta).__name__} is not a congruence of the signed weak order")
    return theta.mask


def _walk_down(word: Sequence[int], n: int, keys: frozenset, centre: bool) -> Tuple[int, ...]:
    """The bottom of the class of a word over +/-1..n: while some descent
    (see arcs_b.descent_keys, centre included when centre is set) has its
    key in keys, step down across the first such one, at the centre by
    negating the first entry and elsewhere by swapping two entries."""
    w = list(word)
    while True:
        for k, key in arcs_b.descent_keys(w, n, centre):
            if key in keys:
                break
        else:
            return tuple(w)
        if k < 0:
            w[0] = -w[0]
        else:
            w[k], w[k + 1] = w[k + 1], w[k]


def project(pi: SignedPermutation, theta: ArcCongruence) -> SignedPermutation:
    """Bottom element of the congruence class of pi.

    Descends one cover at a time, removing a descent whose arc is
    contracted, until every arc of the diagram is uncontracted.  pi must
    have theta's rank.
    """
    if pi.n != theta.n:
        raise ValueError(f"a signed permutation of rank {pi.n} under a congruence of rank {theta.n}")
    w = _walk_down(pi.word, theta.n, theta.contracted_keys, True)
    return pi if w == pi.word else SignedPermutation(w)


def quotient_elements(theta: ArcCongruence) -> List[SignedPermutation]:
    """Class bottoms: elements none of whose descent arcs is contracted, in
    the order of signed_words.  The list is new on every call; its elements
    are the shared ones of _signed_store(n), each built the first time any
    caller asks for it, so memory follows the output.

    Words are built right to left, and a suffix is dropped at its first
    contracted descent, since every word ending in it has that descent; the
    centre descent is tested once the word is complete.  A suffix is an
    integer state on an explicit stack: its head entry, its entries and the
    unused absolute values as bitmasks, and its index in signed_words so far
    (see _picks).  _word_at decodes a word only for an empty store slot.
    """
    n = theta.n
    store, picks = _signed_store(n), _picks(n)
    # ends[p][q]: the span of (p, q) and the right-point masks of the
    # contracted arcs from p up to q; p = n + 1 heads the empty suffix.
    ends: Dict[int, Dict[int, Tuple[int, set]]] = {p: {} for p in range(-n, n + 2)}
    for p, q, right in theta.contracted_keys:
        ends[p].setdefault(q, (arcs_b.span(n, p, q), set()))[1].add(right)
    found: List[int] = []
    stack = [(n + 1, 0, (1 << n) - 1, 0)]
    while stack:
        head, points, free, at = stack.pop()
        row = ends[head]  # only b > head can meet a contracted end
        for b, bit, rest, step in picks[free]:
            end = row.get(b)
            if end is not None and points & end[0] in end[1]:
                continue
            if rest:
                stack.append((b, points | bit, rest, at + step))
            elif b > 0 or (end := ends[b].get(-b)) is None or points & end[0] not in end[1]:
                found.append(at + step)
    found.sort()
    for at in found:
        if store[at] is None:
            store[at] = SignedPermutation(_word_at(n, at))
    return [store[at] for at in found]


@lru_cache(maxsize=None)
def _picks(n: int) -> List[List[Tuple[int, int, int, int]]]:
    """For each bitmask free of the absolute values not yet placed (bit
    a - 1 for a), one entry (b, bit of b, free without a, step) per a in
    free and b = a, -a; the bit of b is 1 << (b + n), as in a point mask.
    A word's index in signed_words sums, over its entries with m entries to
    their right, the Lehmer digit (the values right of it and below it)
    times m! 2^n, plus 2^m if negative: step for b."""
    picks = []
    for free in range(1 << n):
        m, entries = n - free.bit_count(), []
        for a in bits(free << 1):
            rest, step = free ^ 1 << a - 1, (~free & (1 << a - 1) - 1).bit_count() * factorial(m) << n
            entries += [(a, 1 << a + n, rest, step), (-a, 1 << n - a, rest, step + (1 << m))]
        picks.append(entries)
    return picks


def _word_at(n: int, at: int) -> Tuple[int, ...]:
    """The word of index at in signed_words(n); see _picks."""
    rank, values, word = at >> n, list(range(1, n + 1)), []
    for m in range(n - 1, -1, -1):
        digit, rank = divmod(rank, factorial(m))
        a = values.pop(digit)
        word.append(-a if at >> m & 1 else a)
    return tuple(word)


@lru_cache(maxsize=None)
def _signed_store(n: int) -> List[Optional[SignedPermutation]]:
    """One slot per signed permutation of rank n, in the order of
    signed_words, each None until its element is first built; created on
    first use and refused past check_signed_rank before it is allocated.
    descent_table(n) holds the same list.  The elements are frozen, so
    every caller may share them."""
    check_signed_rank(n)
    return [None] * (factorial(n) << n)


class DescentTable:
    """The descents of every signed word of rank n, the words indexed in the
    order of signed_words.  Word i's descents, the centre first and then by
    position, are entries start[i] to start[i + 1] - 1 of arc (the index of
    the descent's arc in subarc_table(n).arcs) and lower (the index of the
    word one step down), and descents[i] is the bitmask of their arcs.
    order lists the words by length, a linear extension of the weak order.
    elements is _signed_store(n), every slot filled: the table shares it
    with quotient_elements, and its size is that of the whole group, as the
    arrays' are."""

    def __init__(self, n: int):
        words = list(signed_words(n))
        self.elements = store = _signed_store(n)
        index = {w: i for i, w in enumerate(words)}
        arc_of = arcs_b.keyed_arcs(n).index
        self.start, self.arc, self.lower = array("i", [0]), array("i"), array("i")
        self.descents: List[int] = []
        for i, w in enumerate(words):
            if store[i] is None:
                store[i] = SignedPermutation(w)
            mask = 0
            for k, key in arcs_b.descent_keys(w, n):
                a = arc_of[key]
                self.arc.append(a)
                self.lower.append(index[(-w[0],) + w[1:] if k < 0 else w[:k] + (w[k + 1], w[k]) + w[k + 2:]])
                mask |= 1 << a
            self.descents.append(mask)
            self.start.append(len(self.arc))
        lengths = list(map(word_length, words))
        self.order = array("i", sorted(range(len(words)), key=lengths.__getitem__))


@lru_cache(maxsize=None)
def descent_table(n: int) -> DescentTable:
    """The descent table of rank n, built on first use."""
    return DescentTable(n)


def _class_bottoms(theta: ArcCongruence) -> Tuple[DescentTable, List[int]]:
    """The descent table of theta's rank, and bottom[i], the index of the
    class bottom of word i.  A word is its class bottom when none of its
    descent arcs is contracted, one AND of its descent bitmask with
    theta.mask; otherwise it shares the bottom of the word below its first
    contracted descent, which comes earlier in the descent table's order."""
    table, mask = descent_table(theta.n), _signed_mask(theta)
    start, arc, lower, descents = table.start, table.arc, table.lower, table.descents
    bottom = list(range(len(table.order)))
    for i in table.order:
        if descents[i] & mask:
            j = start[i]
            while not mask >> arc[j] & 1:
                j += 1
            bottom[i] = bottom[lower[j]]
    return table, bottom


def element_partition(theta: ArcCongruence) -> List[List[SignedPermutation]]:
    """Congruence classes as fibers of the projection map, each in the order
    of signed_words, ordered by their first members.  The lists are new on
    every call; their elements are the descent table's shared ones, the
    whole group, built once per rank."""
    table, bottom = _class_bottoms(theta)
    fibers: Dict[int, List[SignedPermutation]] = {b: [] for b in bottom}
    for b, pi in zip(bottom, table.elements):
        fibers[b].append(pi)
    return list(fibers.values())


def check_lattice_rank(n: int) -> None:
    """Refuse a quotient lattice of rank n before any work."""
    if n > 4:
        raise ScopeExceeded("quotient lattices supported up to n = 4")


def quotient_lattice(theta: ArcCongruence) -> FiniteLattice:
    """The quotient as the subposet of the weak order on class bottoms, in
    the order of signed_words.  A bottom x covers exactly the bottoms
    pi(y) of its lower covers y in the weak order, pi the projection to the
    class bottom: the cover rule that lattice.quotient proves for any
    lattice congruence.  build_lattice still runs its join check, which
    verifies the arc side.
    """
    check_lattice_rank(theta.n)
    table, bottom = _class_bottoms(theta)
    start, lower, elems = table.start, table.lower, table.elements
    bottoms = [i for i, b in enumerate(bottom) if b == i]
    covers = [(elems[bottom[lower[j]]], elems[i]) for i in bottoms for j in range(start[i], start[i + 1])]
    return build_lattice(covers, [elems[i] for i in bottoms])


def all_congruences(n: int) -> List[ArcCongruence]:
    """Every congruence: up-closed subsets of the subarc order."""
    table = subarc_table(n)
    rows = [table.row(i) | 1 << i for i in range(len(table.keys))]
    return [ArcCongruence(n, mask) for mask in closed_sets(rows)]


class ArcCongruenceA(ArcCongruence):
    """A congruence of the weak order on words over +/-1..n, by contracted
    arcs on the points -n..-1, 1..n."""

    table = staticmethod(symmetric_subarc_table)

    @cached_property
    def contracted_arc_keys(self) -> frozenset:
        """The keys (see arcs_b.piece_key) of the contracted arcs
        themselves, which project_word reads."""
        keys = self.table(self.n).keys
        return frozenset(keys[i] for i in bits(self.mask))

    def is_symmetric(self) -> bool:
        """The contracted set is closed under the antipode."""
        image, mask = _antipodes(self.n), self.mask
        return all(mask >> image[i] & 1 for i in bits(mask))


@lru_cache(maxsize=None)
def _antipodes(n: int) -> tuple:
    """arcs_a.antipode as a permutation of symmetric_subarc_table(n)'s indices."""
    table = symmetric_subarc_table(n)
    return tuple(table.index[arcs_b.antipode_key(n, key)] for key in table.keys)


def project_word(word: Tuple[int, ...], theta: ArcCongruenceA) -> Tuple[int, ...]:
    """Bottom element of the class of a word over +/-1..n, by contracted-
    descent removal, read on the keys of theta's contracted arcs.  The word
    must be a permutation of +/-1..n, n theta's rank."""
    n = theta.n
    if sorted(word) != [*range(-n, 0), *range(1, n + 1)]:
        raise ValueError(f"{word} is not a permutation of +/-1..{n}")
    return _walk_down(word, n, theta.contracted_arc_keys, False)


def is_in_con_a(theta: ArcCongruence) -> bool:
    """True iff the uncontracted set is closed under passing to loose subarcs,
    that is, the contracted set is up-closed in the loose subarc order."""
    mask = _signed_mask(theta)  # the loose table indexes the same arcs
    return loose_subarc_table(theta.n).up(mask) & ~mask == 0


def unfolded_lift(theta: ArcCongruence) -> Optional[ArcCongruenceA]:
    """lift_to_symmetric without its guard: None when not symmetric."""
    gens = [a for arc in theta.contracted for a in arcs_b.unfold_arcs(arc)]
    lifted = ArcCongruenceA.from_generators(theta.n, gens)
    return lifted if lifted.is_symmetric() else None


def lift_to_symmetric(theta: ArcCongruence) -> ArcCongruenceA:
    """The symmetric congruence on words over +/-1..n generated by the
    unfolded contracted arcs; defined exactly when theta restricts from one."""
    if not is_in_con_a(theta):
        raise NotInConA("uncontracted arcs are not closed under loose subarcs")
    lifted = unfolded_lift(theta)
    if lifted is None:
        raise InvariantError(f"lift of {theta} is not symmetric")
    return lifted

