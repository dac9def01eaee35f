"""Subarc order, arrows, and congruences encoded by contracted arcs.

Contracting the join-irreducible of an arc forces contracting every
superarc, so a congruence is stored as an up-closed set of contracted arcs;
meets and joins of congruences are then set operations.  Element-level
consequences (class projections, quotient lattices) are derived by removing
contracted descents one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import arcs_a, arcs_b
from .arcs_a import ArcA
from .arcs_b import (
    LongArc,
    OrbifoldArc,
    OrdinaryArc,
    SymArcOrPair,
    SymmetricArc,
    TypeBArc,
)
from .lattice import FiniteLattice, InvariantError, ScopeExceeded, build_lattice
from .permutations import SignedPermutation, all_signed_permutations, signed_words
from .util import between, bits, closed_sets, transitive_closure


class NotInConA(ValueError):
    """Raised when lifting a congruence with no symmetric preimage."""


@lru_cache(maxsize=None)
def _rng(lo: int, hi: int) -> frozenset:
    return frozenset(range(lo + 1, hi))


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
            and sub.right == sup.right & _rng(p2, q2)
        )
    # sup is long
    p, q = sup.left_end, sup.right_end
    if isinstance(sub, OrdinaryArc):
        if sub.top <= p and sub.left == sup.left & _rng(sub.bottom, sub.top):
            return True
        return sub.top <= q and sub.right == sup.right & _rng(sub.bottom, sub.top)
    if isinstance(sub, OrbifoldArc):
        return (
            sub.top <= min(p, q)
            and sub.left == sup.left & _rng(0, sub.top)
            and sub.right == sup.right & _rng(0, sub.top)
        )
    # The attachment at an endpoint of the piece being cut can only cross the
    # other piece when that other piece reaches above the attachment height,
    # so the endpoint exclusions apply only on the lower of the two ends.
    return (
        sub.left_end <= p
        and sub.right_end <= q
        and sub.left == sup.left & _rng(0, sub.left_end)
        and sub.right == sup.right & _rng(0, sub.right_end)
        and (sub.left_end > sub.right_end or sub.left_end not in sup.right)
        and (sub.right_end > sub.left_end or sub.right_end not in sup.left)
    )


def is_subarc_symmetric(sub: SymArcOrPair, sup: SymArcOrPair) -> bool:
    """The subarc relation stated on symmetric arcs and pairs."""
    if isinstance(sup, SymmetricArc):
        full = sup.as_arc()
        if isinstance(sub, SymmetricArc):
            return sub.radius <= sup.radius and sub.right == full.right & frozenset(
                between(-sub.radius, sub.radius)
            )
        if sub.overlapping:
            return False
        a = sub.positive_arc()
        return a.top <= sup.radius and a.right == full.right & frozenset(
            between(a.bottom, a.top)
        )
    if not sup.overlapping:
        if isinstance(sub, SymmetricArc) or sub.overlapping:
            return False
        a, s = sub.positive_arc(), sup.positive_arc()
        return (
            s.bottom <= a.bottom < a.top <= s.top
            and a.right == s.right & frozenset(between(a.bottom, a.top))
        )
    s = sup.right_arc()
    p, q = s.bottom, s.top
    if isinstance(sub, SymmetricArc):
        a = sub.as_arc()
        other = arcs_a.antipode(s)
        return (
            p <= a.bottom < a.top <= q
            and a.right == s.right & frozenset(between(a.bottom, a.top))
            and a.right == other.right & frozenset(between(a.bottom, a.top))
        )
    candidates = list(sub.arcs) if not sub.overlapping else [sub.right_arc()]
    for a in candidates:
        if (
            p <= a.bottom < a.top <= q
            and a.right == s.right & frozenset(between(a.bottom, a.top))
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
            and sub.left == sup.left & _rng(0, sub.left_end)
            and sub.right == sup.right & _rng(0, sub.right_end)
        )
    if isinstance(sup, LongArc):
        p, q = sup.left_end, sup.right_end
        return (
            sub.left_end <= q
            and sub.right_end <= p
            and sub.left == _rng(0, sub.left_end) - sup.right
            and sub.right == _rng(0, sub.right_end) - sup.left
            and not sub.between_pieces
        )
    return False


def _canonical_rep(arc: TypeBArc) -> ArcA:
    """Upper copy of an ordinary arc, right copy of a long arc."""
    reps = arcs_b.unfold_arcs(arc)
    if isinstance(arc, OrdinaryArc):
        return next(a for a in reps if a.bottom > 0)
    return next(a for a in reps if a.bottom < 0 < a.top)


def _chain_arrow(a1: TypeBArc, a2: TypeBArc) -> bool:
    """Source and target cones lie in a three-hyperplane degree-two slice.

    The target's canonical copy splits at an interior point into one copy of
    the source and a forced partner; there is an arrow exactly when the
    partner is itself a noncrossing pair compatible with the source.
    """
    rho = _canonical_rep(a2)
    members = arcs_b.unfold_arcs(a1)
    for m in members:
        tau = None
        if m.bottom == rho.bottom and m.top != -rho.top and m.top < rho.top:
            tau = (m.top, rho.top)
        elif m.top == rho.top and m.bottom != -rho.bottom and m.bottom > rho.bottom:
            tau = (rho.bottom, m.bottom)
        if tau is None:
            continue
        if m.right != rho.right & frozenset(between(m.bottom, m.top)):
            continue
        lo, hi = tau
        right = rho.right & frozenset(between(lo, hi))
        partner = ArcA(lo, hi, frozenset(between(lo, hi)) - right, right)
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


@dataclass(frozen=True)
class ArrowEdge:
    """A single forcing step; the source is always a subarc of the target."""

    source: TypeBArc
    target: TypeBArc

    def __post_init__(self):
        if not is_subarc(self.source, self.target):
            raise ValueError("arrow source must be a subarc of its target")


def arrow_edges(n: int) -> List[ArrowEdge]:
    arcs = _all_arcs(n)
    return [
        ArrowEdge(a, b) for a in arcs for b in arcs if has_arrow(a, b)
    ]


def arrow_closure(arcs: Sequence[TypeBArc]) -> Dict[TypeBArc, frozenset]:
    """Reflexive-transitive closure of the arrow relation on the given arcs."""
    reach = transitive_closure([
        sum(1 << j for j, b in enumerate(arcs) if i != j and has_arrow(a, b))
        for i, a in enumerate(arcs)
    ])
    return {
        a: frozenset(arcs[j] for j in range(len(arcs)) if reach[i] >> j & 1)
        for i, a in enumerate(arcs)
    }


@lru_cache(maxsize=None)
def _all_arcs(n: int) -> tuple:
    """Every arc on n points; n = 8 has 6,552, too many for up-closure checks."""
    if n > 7:
        raise ScopeExceeded("congruences and arrows supported up to n = 7")
    return tuple(arcs_b.all_arcs(n))


class ArcTable:
    """One arc model on n points: its arcs in a fixed order, their index, and
    one bitmask row and column per arc.  Bit j of row i, and bit i of column
    j, is set when relation(arcs[i], arcs[j]) holds; a row or column is
    computed the first time it is asked for, then kept."""

    def __init__(self, n: int, arcs: Sequence, relation: Callable[[object, object], bool]):
        self.n = n
        self.arcs = tuple(arcs)
        self.index = {a: i for i, a in enumerate(self.arcs)}
        self.full = (1 << len(self.arcs)) - 1
        self.relation = relation
        self._rows: List[Optional[int]] = [None] * len(self.arcs)
        self._cols: List[Optional[int]] = [None] * len(self.arcs)

    def row(self, i: int) -> int:
        if self._rows[i] is None:
            a, rel = self.arcs[i], self.relation
            self._rows[i] = sum(1 << j for j, b in enumerate(self.arcs) if rel(a, b))
        return self._rows[i]

    def col(self, j: int) -> int:
        if self._cols[j] is None:
            b, rel = self.arcs[j], self.relation
            self._cols[j] = sum(1 << i for i, a in enumerate(self.arcs) if rel(a, b))
        return self._cols[j]

    def up(self, mask: int) -> int:
        """The OR of the rows of the arcs in mask."""
        return reduce(or_, map(self.row, bits(mask)), 0)

    def mask(self, arcs: Iterable) -> int:
        out = 0
        for arc in arcs:
            if arc not in self.index:
                raise ValueError(f"{arc} does not fit on {self.n} points")
            out |= 1 << self.index[arc]
        return out

    def arcs_of(self, mask: int) -> frozenset:
        return frozenset(self.arcs[i] for i in bits(mask))


@lru_cache(maxsize=None)
def subarc_table(n: int) -> ArcTable:
    return ArcTable(n, _all_arcs(n), is_subarc)


@lru_cache(maxsize=None)
def loose_subarc_table(n: int) -> ArcTable:
    return ArcTable(n, _all_arcs(n), is_loose_subarc)


@lru_cache(maxsize=None)
def symmetric_subarc_table(n: int) -> ArcTable:
    """Plain arcs on the points -n..-1, 1..n under the type-A subarc order."""
    return ArcTable(n, arcs_a.all_arcs([v for v in range(-n, n + 1) if v != 0]), arcs_a.is_subarc)


@dataclass(frozen=True)
class ArcCongruence:
    """A congruence of the type-B weak order as its contracted arc set."""

    n: int
    contracted: frozenset

    table = staticmethod(subarc_table)

    def __post_init__(self):
        # Up-closure on the smaller side: contracted rows or uncontracted
        # columns; both find exactly the subarc pairs that leave the mask.
        table = self.table(self.n)
        mask = table.mask(self.contracted)
        if 2 * len(self.contracted) <= len(table.arcs):
            bad = next((i for i in bits(mask) if table.row(i) & ~mask), None)
        else:
            below = (table.col(j) & mask for j in bits(table.full & ~mask))
            bad = next((c.bit_length() - 1 for c in below if c), None)
        if bad is not None:
            raise ValueError(f"contracted set not closed above {table.arcs[bad]}")

    @cached_property
    def contracted_keys(self) -> frozenset:
        """(bottom, top, right) of the unfolded type-A arcs of the contracted
        arcs, with right the bitmask of the points v at bit v + n."""
        n = self.n
        return frozenset(
            (a.bottom, a.top, sum(1 << (v + n) for v in a.right))
            for arc in self.contracted for a in arcs_b.unfold_arcs(arc)
        )

    @classmethod
    def identity(cls, n: int) -> "ArcCongruence":
        return cls(n, frozenset())

    @classmethod
    def full(cls, n: int) -> "ArcCongruence":
        return cls(n, frozenset(cls.table(n).arcs))

    @classmethod
    def from_generators(cls, n: int, gens: Iterable) -> "ArcCongruence":
        table = cls.table(n)
        return cls(n, table.arcs_of(table.up(table.mask(gens))))

    def uncontracted(self) -> frozenset:
        return frozenset(self.table(self.n).arcs) - self.contracted

    def __contains__(self, arc) -> bool:
        return arc in self.contracted


def congruence_meet(t1: ArcCongruence, t2: ArcCongruence) -> ArcCongruence:
    if t1.n != t2.n:
        raise ValueError("congruences on different ranks")
    return ArcCongruence(t1.n, t1.contracted & t2.contracted)


def congruence_join(t1: ArcCongruence, t2: ArcCongruence) -> ArcCongruence:
    if t1.n != t2.n:
        raise ValueError("congruences on different ranks")
    return ArcCongruence(t1.n, t1.contracted | t2.contracted)


def meet_irreducible_congruence(n: int, arc: TypeBArc) -> ArcCongruence:
    """The coarsest congruence not contracting the given arc: its
    uncontracted arcs are exactly the subarcs of the arc."""
    table = subarc_table(n)
    return ArcCongruence(n, table.arcs_of(table.full & ~table.col(table.index[arc])))


# project no longer reads this cache; it stays for benchmark cache reports.
@lru_cache(maxsize=200000)
def _signed_descent_arcs_cached(word: Tuple[int, ...]) -> tuple:
    return tuple(arcs_b.signed_descent_arcs(SignedPermutation(word)))


@lru_cache(maxsize=200000)
def _descent_arcs_cached(word: Tuple[int, ...]) -> tuple:
    return tuple(arcs_a.descent_arcs(word))


def contracted_descent(word: Sequence[int], keys: frozenset) -> Optional[int]:
    """The first descent of a signed word whose arc is in keys (see
    ArcCongruence.contracted_keys): -1 for the centre, -w[0] > w[0], else the
    short position; None if there is none.  The points right of a descent's
    arc are the values between its ends that come after it in the word."""
    n, q = len(word), -word[0]
    for k, p in enumerate(word, -1):
        if q > p:
            right = sum(1 << (v + n) for v in word[k + 2:] if p < v < q)
            if (p, q, right) in keys:
                return k
        q = p
    return None


def project(pi: SignedPermutation, theta: ArcCongruence) -> SignedPermutation:
    """Bottom element of the congruence class of pi.

    Descends one cover at a time, removing a descent whose arc is
    contracted, until every arc of the diagram is uncontracted.
    """
    keys, w = theta.contracted_keys, list(pi.word)
    while (step := contracted_descent(w, keys)) is not None:
        if step < 0:
            w[0] = -w[0]
        else:
            w[step], w[step + 1] = w[step + 1], w[step]
    return pi if tuple(w) == pi.word else SignedPermutation(tuple(w))


def quotient_elements(theta: ArcCongruence) -> List[SignedPermutation]:
    """Class bottoms: elements whose diagram avoids all contracted arcs."""
    keys = theta.contracted_keys
    return [SignedPermutation(w) for w in signed_words(theta.n) if contracted_descent(w, keys) is None]


def element_partition(theta: ArcCongruence) -> List[List[SignedPermutation]]:
    """Congruence classes as fibers of the projection map."""
    fibers: Dict[SignedPermutation, List[SignedPermutation]] = {}
    for pi in all_signed_permutations(theta.n):
        fibers.setdefault(project(pi, theta), []).append(pi)
    return list(fibers.values())


def check_lattice_rank(n: int) -> None:
    """Refuse a quotient lattice of rank n before any work."""
    if n > 4:
        raise ScopeExceeded("quotient lattices supported up to n = 4")


def quotient_lattice(theta: ArcCongruence) -> FiniteLattice:
    """The quotient as the subposet of the weak order on class bottoms."""
    check_lattice_rank(theta.n)
    elems = quotient_elements(theta)
    inv = {pi: pi.inversions() for pi in elems}
    lower = {pi: [q for q in elems if inv[q] < inv[pi]] for pi in elems}
    covers = [
        (q, pi) for pi in elems for q in lower[pi]
        if not any(inv[q] < inv[r] for r in lower[pi])
    ]
    return build_lattice(covers, elems)


def all_congruences(n: int) -> List[ArcCongruence]:
    """Every congruence: up-closed subsets of the subarc order."""
    table = subarc_table(n)
    rows = [table.row(i) | 1 << i for i in range(len(table.arcs))]
    return [ArcCongruence(n, table.arcs_of(mask)) for mask in closed_sets(rows)]


class ArcCongruenceA(ArcCongruence):
    """A congruence of the weak order on words over +/-1..n, by contracted
    arcs on the points -n..-1, 1..n."""

    table = staticmethod(symmetric_subarc_table)

    def is_symmetric(self) -> bool:
        return all(arcs_a.antipode(a) in self.contracted for a in self.contracted)


def project_word(word: Tuple[int, ...], theta: ArcCongruenceA) -> Tuple[int, ...]:
    """Bottom element of the class of a word, by contracted-descent removal."""
    word = tuple(word)
    while True:
        step = None
        for i, arc in _descent_arcs_cached(word):
            if arc in theta.contracted:
                step = i
                break
        if step is None:
            return word
        word = word[:step] + (word[step + 1], word[step]) + word[step + 2:]


def is_in_con_a(theta: ArcCongruence) -> bool:
    """True iff the uncontracted set is closed under passing to loose subarcs,
    that is, the contracted set is up-closed in the loose subarc order."""
    table = loose_subarc_table(theta.n)
    mask = table.mask(theta.contracted)
    return table.up(mask) & ~mask == 0


def lift_to_symmetric(theta: ArcCongruence) -> ArcCongruenceA:
    """The symmetric congruence on words over +/-1..n generated by the
    unfolded contracted arcs; defined exactly when theta restricts from one."""
    if not is_in_con_a(theta):
        raise NotInConA("uncontracted arcs are not closed under loose subarcs")
    gens = [a for arc in theta.contracted for a in arcs_b.unfold_arcs(arc)]
    lifted = ArcCongruenceA.from_generators(theta.n, gens)
    if not lifted.is_symmetric():
        raise InvariantError(f"lift of {theta} is not symmetric")
    return lifted

