"""Explicit finite lattices: meets, joins, join-irreducibles, canonical join
representations, congruences and quotients.

Everything here is definition-level machinery, used as the oracle against
which the arc-based shortcuts elsewhere in the package are verified.
Elements are dense integer ids assigned in a linear extension, so the
minimum of an up-set is its lowest set bit and the maximum of a down-set is
its highest set bit.  Lattices are immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .util import bits


class NotALattice(Exception):
    """Raised when a cover digraph fails to define a lattice."""


class ScopeExceeded(Exception):
    """Raised when an input is outside the supported desk scale."""


class InvariantError(Exception):
    """Raised when an internal invariant fails: a bug in arclat, not bad input."""


@dataclass(frozen=True)
class JoinIrreducible:
    element: int
    lower: int  # the unique element covered by `element`


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
        self.labels = [labels[i] for i in order]
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.n = n
        self.covers_up = [sorted(rank_of[j] for j in above[order[i]]) for i in range(n)]
        self.covers_down = [sorted(rank_of[j] for j in below[order[i]]) for i in range(n)]

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

        self._join = [[0] * n for _ in range(n)]
        self._meet = [[0] * n for _ in range(n)]
        for a in range(n):
            ua, da = up[a], down[a]
            jrow, mrow = self._join[a], self._meet[a]
            for b in range(a, n):
                m = ua & up[b]
                j = (m & -m).bit_length() - 1
                if m & ~up[j]:
                    raise NotALattice((self.labels[a], self.labels[b]))
                jrow[b] = j
                self._join[b][a] = j
                m = da & down[b]
                j = m.bit_length() - 1
                if m & ~down[j]:
                    raise NotALattice((self.labels[a], self.labels[b]))
                mrow[b] = j
                self._meet[b][a] = j

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
        return self._join[a][b]

    def meet(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def join_all(self, items: Iterable[int]) -> int:
        out = self.bottom
        for x in items:
            out = self._join[out][x]
        return out

    def elements(self) -> range:
        return range(self.n)

    def interval_mask(self, lo: int, hi: int) -> int:
        return self.up[lo] & self.down[hi]

    def covers(self) -> list:
        return [(a, b) for a in range(self.n) for b in self.covers_up[a]]

    def __repr__(self) -> str:
        return f"FiniteLattice(n={self.n})"


def build_lattice(covers: Iterable[tuple], elements: Optional[Iterable[Hashable]] = None) -> FiniteLattice:
    """Build a FiniteLattice from cover pairs (lower, upper) of hashable labels."""
    return FiniteLattice(covers, elements)


def join_irreducibles(lat: FiniteLattice) -> tuple:
    """All elements with exactly one lower cover, paired with that cover."""
    return tuple(
        JoinIrreducible(i, lat.covers_down[i][0])
        for i in range(lat.n)
        if len(lat.covers_down[i]) == 1
    )


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
    """
    if lat.n > 400:
        raise ScopeExceeded(f"cjr oracle supports at most 400 elements, got {lat.n}")
    cands = [j.element for j in join_irreducibles(lat) if lat.leq(j.element, x)]
    core = [z for z in cands if lat.join_all(c for c in cands if not lat.leq(z, c)) != x]
    rep = [z for z in core if not any(w != z and lat.leq(z, w) for w in core)]
    return frozenset(rep) if lat.join_all(rep) == x else None


class Congruence:
    """An equivalence relation on a lattice, stored as element -> class id.

    A class's id is its least element id; as ids extend the order, that is
    the bottom of the class whenever the class has one.
    """

    def __init__(self, lat: FiniteLattice, class_of: Sequence[int]):
        if len(class_of) != lat.n:
            raise ValueError("partition does not cover all elements")
        self.lattice = lat
        out = [0] * lat.n
        rep: dict[int, int] = {}
        for i, c in enumerate(class_of):
            if c not in rep:
                rep[c] = i
            out[i] = rep[c]
        self.class_of = tuple(out)
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
            if class_of[m] != -1:
                return None
            class_of[m] = cid
    if any(c < 0 for c in class_of):
        return None
    return class_list, class_of


def is_congruence(lat: FiniteLattice, classes: Iterable[Iterable[int]]) -> bool:
    """Order-theoretic congruence test: interval classes, monotone projections."""
    parsed = _partition(lat, classes)
    if parsed is None:
        return False
    class_list, class_of = parsed
    bots, tops = {}, {}
    for cid, members in enumerate(class_list):
        mask = 0
        for m in members:
            mask |= 1 << m
        bot = (mask & -mask).bit_length() - 1
        top = mask.bit_length() - 1
        if lat.interval_mask(bot, top) != mask:
            return False
        bots[cid], tops[cid] = bot, top
    for a in range(lat.n):
        for b in lat.covers_up[a]:
            if not lat.leq(bots[class_of[a]], bots[class_of[b]]):
                return False
            if not lat.leq(tops[class_of[a]], tops[class_of[b]]):
                return False
    return True


def is_congruence_algebraic(lat: FiniteLattice, classes: Iterable[Iterable[int]]) -> bool:
    """Direct algebraic test; quadratic in class sizes, small lattices only."""
    parsed = _partition(lat, classes)
    if parsed is None:
        return False
    class_list, class_of = parsed
    for members in class_list:
        for x, y in itertools.combinations(members, 2):
            for z in range(lat.n):
                if class_of[lat.join(x, z)] != class_of[lat.join(y, z)]:
                    return False
                if class_of[lat.meet(x, z)] != class_of[lat.meet(y, z)]:
                    return False
    return True


def principal_congruence(lat: FiniteLattice, j) -> Congruence:
    """Smallest congruence identifying the join-irreducible j with its lower cover.

    Fixpoint closure: whenever x = y is forced, so are x v z = y v z and
    x ^ z = y ^ z for every z.
    """
    return congruence_generated_by(lat, [j])


def congruence_generated_by(lat: FiniteLattice, jis: Iterable) -> Congruence:
    """Smallest congruence contracting all the given join-irreducibles."""
    seeds = []
    for j in jis:
        if isinstance(j, JoinIrreducible):
            seeds.append((j.element, j.lower))
        else:
            covers = lat.covers_down[j]
            if len(covers) != 1:
                raise ValueError("generators must be join-irreducibles")
            seeds.append((j, covers[0]))
    parent = list(range(lat.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    work = list(seeds)
    joins, meets = lat._join, lat._meet
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[rx] = ry
        jx, jy = joins[x], joins[y]
        mx, my = meets[x], meets[y]
        for z in range(lat.n):
            a, b = jx[z], jy[z]
            if find(a) != find(b):
                work.append((a, b))
            a, b = mx[z], my[z]
            if find(a) != find(b):
                work.append((a, b))
    return Congruence(lat, [find(i) for i in range(lat.n)])


def contracted_jis(lat: FiniteLattice, theta: Congruence) -> frozenset:
    """Join-irreducibles identified with their lower cover by theta."""
    return frozenset(j for j in join_irreducibles(lat) if theta.same(j.element, j.lower))


def quotient(lat: FiniteLattice, theta: Congruence) -> FiniteLattice:
    """Quotient lattice, realized on the bottom elements of the classes."""
    bottoms = sorted(set(theta.class_of))
    mask_all = sum(1 << b for b in bottoms)
    covers = []
    for b in bottoms:
        lower = lat.down[b] & mask_all & ~(1 << b)
        maximal = [c for c in bits(lower) if not (lat.up[c] & lower & ~(1 << c))]
        covers.extend((lat.labels[c], lat.labels[b]) for c in maximal)
    q = FiniteLattice(covers, [lat.labels[b] for b in bottoms])
    # sanity: class joins agree with joins of bottoms ([x] v [y] = [x v y])
    if lat.n <= 400:
        for a in bottoms:
            for b in bottoms:
                lhs = q.join(q.index[lat.labels[a]], q.index[lat.labels[b]])
                rhs = theta.class_of[lat.join(a, b)]
                if q.labels[lhs] != lat.labels[rhs]:
                    raise NotALattice("quotient join disagrees with class join")
    return q


def forcing_oracle(lat: FiniteLattice, j1, j2) -> bool:
    """True iff every congruence contracting j1 also contracts j2."""
    theta = principal_congruence(lat, j1)
    e2 = j2.element if isinstance(j2, JoinIrreducible) else j2
    low2 = lat.covers_down[e2][0]
    return theta.same(e2, low2)


def cjr_quotient_check(lat: FiniteLattice, theta: Congruence) -> bool:
    """Contraction is detected on canonical joinands, and CJRs survive quotients."""
    q = quotient(lat, theta)
    contracted_el = {i for i in range(lat.n) if theta.class_of[i] != i}
    ji_contracted = {j.element for j in contracted_jis(lat, theta)}
    for x in range(lat.n):
        rep = cjr_oracle(lat, x)
        if rep is None:
            return False
        hit = any(j in ji_contracted for j in rep)
        if (x in contracted_el) != hit:
            return False
        if x not in contracted_el:
            qx = q.index[lat.labels[x]]
            qrep = cjr_oracle(q, qx)
            if qrep is None or frozenset(q.labels[j] for j in qrep) != frozenset(
                lat.labels[j] for j in rep
            ):
                return False
    return True


def all_congruences(lat: FiniteLattice) -> Iterator[Congruence]:
    """Every congruence, by filtering all set partitions; tiny lattices only."""
    if lat.n > 10:
        raise ScopeExceeded("full congruence enumeration is limited to 10 elements")
    for class_of in _set_partitions(lat.n):
        buckets: dict[int, list] = {}
        for i, c in enumerate(class_of):
            buckets.setdefault(c, []).append(i)
        classes = list(buckets.values())
        if is_congruence(lat, classes):
            yield Congruence(lat, class_of)


def _set_partitions(n: int) -> Iterator[list]:
    """Restricted growth strings of length n."""
    rgs = [0] * n

    def rec(i: int, m: int):
        if i == n:
            yield list(rgs)
            return
        for c in range(m + 1):
            rgs[i] = c
            yield from rec(i + 1, max(m, c + 1))

    yield from rec(0, 0)


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


def lattice_to_json(lat: FiniteLattice) -> dict:
    return {
        "elements": [repr(lab) if not isinstance(lab, (int, str)) else lab for lab in lat.labels],
        "covers": [[a, b] for a, b in lat.covers()],
    }


def lattice_from_json(data: dict) -> FiniteLattice:
    elements = data["elements"]
    covers = [(elements[a], elements[b]) for a, b in data["covers"]]
    return FiniteLattice(covers, elements)
