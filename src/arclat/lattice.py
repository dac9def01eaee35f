"""Explicit finite lattices: meets, joins, join-irreducibles, canonical join
representations, congruences and quotients.

Everything here is definition-level machinery, used as the oracle against
which the arc-based shortcuts elsewhere in the package are verified: it
reads only the order, never the arcs.  Elements are dense integer ids
assigned in a linear extension, and each keeps its up-set and down-set as
bitmasks.  As ids extend the order, a join is the lowest set bit of the
common up-set and a meet the highest set bit of the common down-set.
Lattices are immutable after construction.  Each keeps three derived
tables, every fact computed once:

- the join-irreducibles, as the tuple `jis` in id order and the bitmask
  `ji_mask`, found while the lattice is checked.  Every function here names
  a join-irreducible j by its id; its lower cover is `covers_down[j][0]`;
- the canonical join representations (see `cjr_oracle`), memoised per
  element on first use;
- the forcing table of the congruences (see `_forcing_table`), built on
  first use.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .util import ScopeExceeded, bits, closed_sets, transitive_closure


class NotALattice(Exception):
    """Raised when a cover digraph fails to define a lattice."""


class FiniteLattice:
    """A finite lattice built from its Hasse diagram."""

    def __init__(self, covers: Iterable[tuple], elements: Optional[Iterable[Hashable]] = None):
        cover_list = [(a, b) for a, b in covers]
        labels: list = []
        seen = set()
        for lab in itertools.chain((elements or ()), (x for c in cover_list for x in c)):
            if lab not in seen:
                seen.add(lab)
                labels.append(lab)
        if not labels:
            raise NotALattice("empty lattice")
        idx = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        above = [set() for _ in range(n)]
        below = [set() for _ in range(n)]
        for a, b in cover_list:
            if a == b:
                raise NotALattice(f"loop at {a!r}")
            above[idx[a]].add(idx[b])
            below[idx[b]].add(idx[a])

        level = self._levels(n, above, below)
        order = sorted(range(n), key=lambda i: (level[i], i))
        rank_of = {old: new for new, old in enumerate(order)}
        self._build([labels[i] for i in order], [sorted(rank_of[j] for j in below[order[i]]) for i in range(n)])
        self._check_joins()

    @classmethod
    def _on_ids(cls, labels: list, covers_down: list) -> "FiniteLattice":
        """The poset whose element i is labels[i] with lower covers
        covers_down[i], ascending ids that all precede i.  Every check of
        the constructor runs but the join check, _check_joins: quotient
        proves the joins by its congruence check, as its result is
        isomorphic to the quotient lattice, and weak_order_lattice runs the
        check itself."""
        lat = cls.__new__(cls)
        lat._build(labels, covers_down)
        return lat

    def _check_joins(self) -> None:
        """Raise NotALattice unless every two upper covers of one element
        have a join.  That suffices: a finite poset with a bottom, which
        _build checks, is a lattice if every two upper covers of one element
        have a join (the meet of a and b is then the join of their common
        lower bounds; Davey-Priestley, Introduction to Lattices and Order,
        ch. 2).  Proof: suppose some pair has no join.  Among such pairs
        (a, b) and their common lower bounds x, take one with x maximal; then
        x < a and x < b.  Take a' and b' covering x with a' <= a, b' <= b.
        If a' = b', it is a common lower bound above x, against the choice
        of x; so a' != b', and y = a' v b' exists.  (a, y) has the common
        lower bound a' > x, so z1 = a v y exists; (z1, b) has b' > x, so
        z2 = z1 v b exists.  Every upper bound of a and b lies above a', b',
        y and z1, so above z2: z2 = a v b, a contradiction.  The upper
        bounds m = up[y] & up[z] are an up-set, never empty since _build
        checks the top, so they hold up[low] for their lowest id low, and
        low is their least element iff m == up[low]."""
        up, labels = self.up, self.labels
        for above in self.covers_up:
            for y, z in itertools.combinations(above, 2):
                m = up[y] & up[z]
                if m != up[(m & -m).bit_length() - 1]:
                    raise NotALattice((labels[y], labels[z]))

    def _build(self, labels: list, covers_down: list) -> None:
        n = len(labels)
        self.labels = labels
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.n = n
        self.covers_down = covers_down
        self.covers_up = [[] for _ in range(n)]
        for i, lower in enumerate(covers_down):
            for j in lower:
                if j >= i:
                    raise NotALattice("ids do not extend the order")
                self.covers_up[j].append(i)

        up = [0] * n
        down = [0] * n
        for i in range(n - 1, -1, -1):
            m = 1 << i
            for j in self.covers_up[i]:
                m |= up[j]
            up[i] = m
        for i in range(n):
            m = 1 << i
            for j in self.covers_down[i]:
                m |= down[j]
            down[i] = m
        self.up = up
        self.down = down

        bottoms = [i for i in range(n) if not self.covers_down[i]]
        tops = [i for i in range(n) if not self.covers_up[i]]
        if len(bottoms) != 1 or up[bottoms[0]] != (1 << n) - 1:
            raise NotALattice("no unique bottom element")
        if len(tops) != 1 or down[tops[0]] != (1 << n) - 1:
            raise NotALattice("no unique top element")
        self.bottom = bottoms[0]
        self.top = tops[0]

        for i in range(n):
            for j in self.covers_up[i]:
                if (up[i] & down[j]) != (1 << i | 1 << j):
                    raise NotALattice(f"edge {self.labels[i]!r} -> {self.labels[j]!r} is not a cover")

        self.jis = tuple(i for i in range(n) if len(self.covers_down[i]) == 1)
        self.ji_mask = sum(1 << j for j in self.jis)
        self._cjr: dict = {}
        self._forcing: Optional[tuple] = None

    @staticmethod
    def _levels(n: int, above: list, below: list) -> list:
        indeg = [len(below[i]) for i in range(n)]
        level = [0] * n
        queue = [i for i in range(n) if indeg[i] == 0]
        done = 0
        while queue:
            nxt = []
            for i in queue:
                done += 1
                for j in above[i]:
                    level[j] = max(level[j], level[i] + 1)
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        nxt.append(j)
            queue = nxt
        if done != n:
            raise NotALattice("cover digraph has a cycle")
        return level

    def __len__(self) -> int:
        return self.n

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def join(self, a: int, b: int) -> int:
        m = self.up[a] & self.up[b]
        return (m & -m).bit_length() - 1

    def meet(self, a: int, b: int) -> int:
        return (self.down[a] & self.down[b]).bit_length() - 1

    def elements(self) -> range:
        return range(self.n)

    def covers(self) -> list:
        return [(a, b) for a in range(self.n) for b in self.covers_up[a]]

    def __repr__(self) -> str:
        return f"FiniteLattice(n={self.n})"


def build_lattice(covers: Iterable[tuple], elements: Optional[Iterable[Hashable]] = None) -> FiniteLattice:
    """Build a FiniteLattice from cover pairs (lower, upper) of hashable labels."""
    return FiniteLattice(covers, elements)


def cjr_oracle(lat: FiniteLattice, x: int) -> Optional[frozenset]:
    """Canonical join representation of x: the join representation whose
    order ideal lies in the ideal of every other one, or None if none does.

    Computed as the intersection I of the ideals of all join representations
    of x (join-refinement; Freese-Jezek-Nation, Free Lattices, ch. 2).  With
    C the join-irreducibles <= x, a z in C lies in I iff the join of
    {c in C : z !<= c} is not x, since any representation avoiding z above
    refines to those c.  The answer is max(C & I) when it joins to x, else
    None.  Proof: an ideal-minimal irredundant representation R has
    ideal(R) = I, so R = max(C & I); conversely, if max(C & I) joins to x it
    is an irredundant antichain (dropping m leaves a representation whose
    ideal misses m in I) and its ideal is I.

    On bitmasks: C is ji_mask & down[x].  A join of elements of C is below
    x iff it lies below some lower cover y of x, so z lies in I iff, for
    some y, z lies below every c in C that is not below y: C & I is the
    union over y of C ANDed with the down-sets of C & ~down[y].  Each
    answer is memoised on the lattice.
    """
    if lat.n > 400:
        raise ScopeExceeded(f"cjr oracle supports at most 400 elements, got {lat.n}")
    memo = lat._cjr
    if x not in memo:
        down = lat.down
        cands = lat.ji_mask & down[x]
        core = 0
        for y in lat.covers_down[x]:
            m = cands
            for c in bits(cands & ~down[y]):
                m &= down[c]
            core |= m
        # max(C & I), highest id first: the highest id left is maximal.
        rep = []
        above = lat.up[lat.bottom]
        while core:
            z = core.bit_length() - 1
            rep.append(z)
            above &= lat.up[z]
            core &= ~down[z]
        memo[x] = frozenset(rep) if (above & -above).bit_length() - 1 == x else None
    return memo[x]


class Congruence:
    """An equivalence relation on a lattice, stored as element -> class id.

    A class's id is its least element id; as ids extend the order, that is
    the bottom of the class whenever the class has one.
    """

    def __init__(self, lat: FiniteLattice, class_of: Sequence[int]):
        if len(class_of) != lat.n:
            raise ValueError("partition does not cover all elements")
        self.lattice = lat
        rep: dict[int, int] = {}
        self.class_of = tuple(map(rep.setdefault, class_of, range(lat.n)))
        self._classes: Optional[tuple] = None

    @classmethod
    def from_classes(cls, lat: FiniteLattice, classes: Iterable[Iterable[int]]) -> "Congruence":
        parsed = _partition(lat, classes)
        if parsed is None:
            raise ValueError("classes do not partition the elements")
        return cls(lat, parsed[1])

    def classes(self) -> tuple:
        if self._classes is None:
            buckets: dict[int, list] = {}
            for i, c in enumerate(self.class_of):
                buckets.setdefault(c, []).append(i)
            self._classes = tuple(tuple(v) for _, v in sorted(buckets.items()))
        return self._classes

    def same(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def __eq__(self, other) -> bool:
        return isinstance(other, Congruence) and self.class_of == other.class_of

    def __hash__(self) -> int:
        return hash(self.class_of)


def _partition(lat: FiniteLattice, classes: Iterable[Iterable[int]]) -> Optional[tuple]:
    """(classes as tuples, class id of each element), or None unless the
    classes partition the elements."""
    class_list = [tuple(c) for c in classes]
    class_of = [-1] * lat.n
    for cid, members in enumerate(class_list):
        for m in members:
            if not 0 <= m < lat.n or class_of[m] != -1:
                return None
            class_of[m] = cid
    if any(c < 0 for c in class_of):
        return None
    return class_list, class_of


def _forcing_table(lat: FiniteLattice) -> tuple:
    """The forcing table of lat: (the join-irreducibles J in id order, the
    position of each in J, one bitmask row per position), built on first
    use and kept on the lattice.

    Row j holds, by position, every k contracted by con(j_*, j), the least
    congruence identifying j with its lower cover j_*.  It is read off
    Day's arrow relations (Freese-Jezek-Nation, Free Lattices, 1995, ch. 2;
    Freese, "Computing congruences efficiently", Algebra Universalis 59,
    2008), which use only the order.  With M the meet-irreducibles and m^*
    the upper cover of m in M, write j dn m when j !<= m and j_* <= m, and
    k up m when k !<= m and k <= m^*.  Take a step j -> k when some m has
    j dn m and k up m; row j is the reflexive-transitive closure of the
    steps from j.  Each step is forced (write ~ for the congruence): from
    j ~ j_* comes m = m v j_* ~ m v j >= m^*, so m ~ m^* by convexity, and
    then k = k ^ m^* ~ k ^ m <= k_*, so k ~ k_*.  That the reachable set
    needs nothing more is the theorem cited.
    """
    if lat._forcing is None:
        js = lat.jis
        pos = {j: p for p, j in enumerate(js)}
        succ = [0] * len(js)
        for m in range(lat.n):
            if len(lat.covers_up[m]) != 1:
                continue
            below, below_cover = lat.down[m], lat.down[lat.covers_up[m][0]]
            ups = 0
            for p, k in enumerate(js):
                if not below >> k & 1 and below_cover >> k & 1:
                    ups |= 1 << p
            for p, j in enumerate(js):
                if not below >> j & 1 and below >> lat.covers_down[j][0] & 1:
                    succ[p] |= ups
        lat._forcing = (js, pos, transitive_closure(succ))
    return lat._forcing


def _position(lat: FiniteLattice, j: int) -> int:
    pos = _forcing_table(lat)[1]
    if j not in pos:
        raise ValueError("generators must be join-irreducibles")
    return pos[j]


def _congruence_contracting(lat: FiniteLattice, contracted: int) -> Congruence:
    """The congruence whose contracted join-irreducibles are the positions
    in `contracted`, a set closed under the forcing rows.

    With H the join-irreducibles left uncontracted, x ~ y iff x and y have
    the same elements of H below them, so the classes are a grouping by
    bitmask.  (=>) From x ~ y and h <= x in H comes h = h ^ x ~ h ^ y;
    h ^ y < h would give h ^ y <= h_* < h and so h ~ h_* by convexity of
    the classes, hence h <= y.  (<=) If not x ~ y, say not x ^ y ~ y, some
    cover c < c' on a chain from x ^ y up to y is uncontracted.  A minimal
    j <= c' with j !<= c is join-irreducible, has j_* <= c and c v j = c',
    so j ~ j_* would give c' ~ c: j lies in H, below y and not below x.
    """
    js = _forcing_table(lat)[0]
    keep = 0
    for p, j in enumerate(js):
        if not contracted >> p & 1:
            keep |= 1 << j
    return Congruence(lat, [d & keep for d in lat.down])


def principal_congruence(lat: FiniteLattice, j: int) -> Congruence:
    """Smallest congruence identifying the join-irreducible j with its lower
    cover: the row of j in the forcing table, grouped into classes."""
    return congruence_generated_by(lat, [j])


def congruence_generated_by(lat: FiniteLattice, jis: Iterable[int]) -> Congruence:
    """Smallest congruence contracting all the given join-irreducible ids:
    the union of their rows."""
    rows = _forcing_table(lat)[2]
    contracted = 0
    for j in jis:
        contracted |= rows[_position(lat, j)]
    return _congruence_contracting(lat, contracted)


def contracted_jis(lat: FiniteLattice, theta: Congruence) -> frozenset:
    """The ids of the join-irreducibles identified with their lower cover by
    theta."""
    return frozenset(j for j in lat.jis if theta.same(j, lat.covers_down[j][0]))


def quotient(lat: FiniteLattice, theta: Congruence) -> FiniteLattice:
    """Quotient lattice, realized on the bottom elements of the classes: the
    order of L restricted to them, their ids in the order of L's ids.

    Raises NotALattice unless theta is a lattice congruence.  An equivalence
    on a finite lattice is one iff every class is an interval and both
    projections, x to the bottom and x to the top of its class, are
    order-preserving, which needs checking only on covers (Chajda-Snasel,
    Congruences in ordered sets, Math. Bohemica 123, 1998; Reading, Lattice
    congruences of the weak order, Order 21, 2004).  As ids extend the
    order, a class's bottom is its lowest id, its top its highest, and the
    class is the interval between them iff its members are
    up[bottom] & down[top].

    Q is isomorphic to L/theta, so it is a lattice and runs no join check
    of its own: with pi the projection to the class bottom, [a] <= [b] iff
    pi(a) <= pi(b).  Its covers follow one rule, for any congruence: a
    bottom x covers, among the bottoms, exactly the pi(y) for y covered by
    x in L.  Each such y lies below x's class, so pi(y) < x.  Take a bottom
    w with pi(y) <= w < x.  Then w' = (w v y) ^ x lies in [y, x], so w' is
    y or x, and its class is ([w] v [y]) ^ [x] = [w], since [y] = [pi(y)]
    <= [w] <= [x].  So w is pi(y) (if w' = y) or x (if w' = x, excluded):
    no bottom lies strictly between.  Conversely, each lower cover z of x
    among the bottoms lies below some y covered by x, so
    z = pi(z) <= pi(y) < x, and z = pi(y) as z is covered.
    """
    class_of, up, down = theta.class_of, lat.up, lat.down
    members = [0] * lat.n
    for x, c in enumerate(class_of):
        members[c] |= 1 << x
    top = [m.bit_length() - 1 for m in members]
    for b, m in enumerate(members):
        if m and up[b] & down[top[b]] != m:
            raise NotALattice(f"the class of {lat.labels[b]!r} is not an interval")
    for x, lower in enumerate(lat.covers_down):
        bx, tx = class_of[x], top[class_of[x]]
        for y in lower:
            if not (down[bx] >> class_of[y] & 1 and down[tx] >> top[class_of[y]] & 1):
                raise NotALattice(f"a projection reverses the cover {lat.labels[y]!r} < {lat.labels[x]!r}")
    bottoms = [b for b, m in enumerate(members) if m]
    in_q = {b: i for i, b in enumerate(bottoms)}
    covers_down = [sorted({in_q[class_of[y]] for y in lat.covers_down[b]}) for b in bottoms]
    return FiniteLattice._on_ids([lat.labels[b] for b in bottoms], covers_down)


def forcing_oracle(lat: FiniteLattice, j1: int, j2: int) -> bool:
    """True iff every congruence contracting the join-irreducible j1 also
    contracts j2."""
    return bool(_forcing_table(lat)[2][_position(lat, j1)] >> _position(lat, j2) & 1)


def cjr_quotient_check(lat: FiniteLattice, theta: Congruence) -> bool:
    """Contraction is detected on canonical joinands, and CJRs survive quotients."""
    q = quotient(lat, theta)
    in_lat = [lat.index[label] for label in q.labels]
    contracted = contracted_jis(lat, theta)
    for x in range(lat.n):
        rep = cjr_oracle(lat, x)
        if rep is None:
            return False
        x_contracted = theta.class_of[x] != x
        if x_contracted != any(j in contracted for j in rep):
            return False
        if not x_contracted:
            qrep = cjr_oracle(q, q.index[lat.labels[x]])
            if qrep is None or frozenset(in_lat[j] for j in qrep) != rep:
                return False
    return True


def all_congruences(lat: FiniteLattice) -> Iterator[Congruence]:
    """Every congruence: one for each set of join-irreducibles closed under
    the forcing rows; at most 26 join-irreducibles."""
    for contracted in closed_sets(_forcing_table(lat)[2]):
        yield _congruence_contracting(lat, contracted)


def is_isomorphic(a: FiniteLattice, b: FiniteLattice) -> bool:
    """Lattice isomorphism by backtracking on the Hasse diagrams."""
    if a.n != b.n or len(a.covers()) != len(b.covers()):
        return False

    def profile(lat: FiniteLattice, i: int) -> tuple:
        return (
            len(lat.covers_down[i]),
            len(lat.covers_up[i]),
            bin(lat.down[i]).count("1"),
            bin(lat.up[i]).count("1"),
        )

    pa = [profile(a, i) for i in range(a.n)]
    pb = [profile(b, i) for i in range(b.n)]
    if sorted(pa) != sorted(pb):
        return False
    order = sorted(range(a.n), key=lambda i: (bin(a.down[i]).count("1"), i))
    mapping = [-1] * a.n
    used = [False] * b.n

    def extend(k: int) -> bool:
        if k == a.n:
            return True
        i = order[k]
        for j in range(b.n):
            if used[j] or pa[i] != pb[j]:
                continue
            down_mapped = {mapping[c] for c in a.covers_down[i] if mapping[c] != -1}
            if not down_mapped <= set(b.covers_down[j]):
                continue
            mapping[i] = j
            used[j] = True
            if extend(k + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    if not extend(0):
        return False
    # verify the found map is a full cover isomorphism
    edge_b = {(mapping[x], mapping[y]) for x, y in a.covers()}
    return edge_b == set(b.covers())

