"""Exact reflection-arrangement geometry at desk scale.

Regions are strict sign vectors over the hyperplanes, found by a search that
assigns signs hyperplane by hyperplane and drops a prefix as soon as its
cone is empty; cones of hyperplane pieces are stored as a carrier plus
strict side assignments for the hyperplanes slicing it.  All arithmetic is
exact: normals are integer vectors, spans are decided by integer minors,
feasibility (`feasible`) is Fourier-Motzkin on integer rows, and points are
integer vectors (every system is homogeneous, so a witness is a ray):
dimension and containment questions are decided bit-exactly.

Each `Arrangement` computes a fact once and keeps it: its regions (also
indexed by sign vector), every rank-two subarrangement asked for, and, per
shard list, which regions have each shard as a lower shard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .feasible import LinearSystem
from .lattice import FiniteLattice, build_lattice
from .permutations import CoxeterType, Reflection
from .util import InvariantError, ScopeExceeded, canonical_normal, dot, unit


@dataclass(frozen=True)
class Hyperplane:
    normal: tuple  # integer vector, first nonzero coordinate positive

    def __post_init__(self):
        if tuple(canonical_normal(self.normal)) != tuple(self.normal):
            raise ValueError("normal is not canonical")

    def __repr__(self) -> str:
        return f"H{self.normal}"


def hyperplane(normal: Sequence[int]) -> Hyperplane:
    return Hyperplane(tuple(canonical_normal(normal)))


def reflection_hyperplane(t: Reflection, n: int) -> Hyperplane:
    """Fixed hyperplane of a reflection."""
    if t.family == "A":
        v = [0] * n
        v[t.a - 1], v[t.b - 1] = 1, -1
        return hyperplane(v)
    if t.a == -t.b:
        return hyperplane(unit(n, t.b))
    v = [0] * n
    v[t.b - 1] = 1
    v[abs(t.a) - 1] = -1 if t.a > 0 else 1
    return hyperplane(v)


@dataclass(frozen=True)
class Region:
    """A region as its strict sign vector, with an integer witness inside it."""

    signs: tuple  # +1/-1 per hyperplane, relative to the base side
    witness: tuple  # primitive integer vector

    def separating(self) -> frozenset:
        return frozenset(i for i, s in enumerate(self.signs) if s < 0)


def _sided(arr: Arrangement, sides) -> list:
    """The row s n_k of each (k, s) in sides: positive on side s of H_k."""
    return [arr.oriented[k] if s > 0 else arr.opposite[k] for k, s in sides]


def _system(dim: int, eqs=(), ges=(), gts=()) -> LinearSystem:
    """The cone eqs = 0, ges >= 0, gts > 0, its rows added in that order."""
    sys = LinearSystem(dim)
    for row in eqs:
        sys.eq(row)
    for row in ges:
        sys.ge(row)
    for row in gts:
        sys.gt(row)
    return sys


def _closed_cone_inside(dim: int, eqs, ges, bounds) -> bool:
    """The closed cone eqs = 0, ges >= 0 lies in the halfspace b >= 0 of
    every row b of bounds: no point of it has b < 0, tried in bounds order."""
    return not any(_system(dim, eqs, ges, [[-c for c in b]]).feasible() for b in bounds)


class Arrangement:
    """A central arrangement with a chosen base region."""

    def __init__(self, hyperplanes: Sequence[Hyperplane], base_point: Sequence[int]):
        self.hyperplanes = tuple(hyperplanes)
        self.base_point = tuple(base_point)
        self.dim = len(self.base_point)
        # orient each normal toward the base region
        oriented = []
        for h in self.hyperplanes:
            d = dot(h.normal, self.base_point)
            if d == 0:
                raise ValueError("base point lies on a hyperplane")
            oriented.append(tuple(h.normal) if d > 0 else tuple(-c for c in h.normal))
        self.oriented = tuple(oriented)
        self.opposite = tuple(tuple(-c for c in v) for v in oriented)  # away from it
        self._regions: Optional[tuple] = None
        self._by_signs: Optional[dict] = None
        self._rank_two: dict = {}  # (i, j) with i < j -> (members, basics)
        self._uppers: dict = {}  # shard list -> {shard: regions having it as a lower shard}

    def m(self) -> int:
        return len(self.hyperplanes)

    def regions(self) -> tuple:
        """All regions, as strict sign vectors with integer witnesses.

        In the order of the sign vectors in itertools.product((1, -1), ...),
        each witness the one `feasible` gives for its full system of strict
        inequalities.
        """
        if self._regions is None:
            found: List[Region] = []
            self._extend((), self.base_point, False, found)
            self._regions = tuple(found)
        return self._regions

    def _extend(self, signs: tuple, point: tuple, solved: bool, found: list) -> None:
        """Regions whose sign vectors start with signs: +1 before -1 on the
        next hyperplane, pruned where a prefix cone is empty.  point lies in
        the cone of signs, and is its system's witness if solved."""
        if len(signs) == self.m():
            w = point if solved else self._cone(signs).witness()
            if w is None:
                raise InvariantError(f"the cone of {signs} holds {point} but has no witness")
            found.append(Region(signs, w))
            return
        normal = self.oriented[len(signs)]
        for s in (1, -1):
            child = signs + (s,)
            if s * dot(normal, point) > 0:
                self._extend(child, point, False, found)
            else:
                w = self._cone(child).witness()
                if w is not None:
                    self._extend(child, w, True, found)

    def _cone(self, signs: tuple) -> LinearSystem:
        """s_i (n_i . x) > 0 for the leading hyperplanes, one per sign."""
        return _system(self.dim, gts=_sided(self, enumerate(signs)))

    def region_of(self, signs: tuple) -> Optional[Region]:
        """The region with these signs, or None if that cone is empty."""
        if self._by_signs is None:
            self._by_signs = {r.signs: r for r in self.regions()}
        return self._by_signs.get(signs)


def coxeter_arrangement(cox: CoxeterType) -> Arrangement:
    """Reflection arrangement with the base region containing (1, 2, ..., n):
    the fixed hyperplanes of the reflections, the sign changes first in
    type B, then each pair i < j."""
    n = cox.n
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if cox.family == "A":
        if n > 4:
            raise ScopeExceeded("type A arrangements supported up to n = 4")
        reflections = [Reflection("A", i, j) for i, j in pairs]
    else:
        if n > 3:
            raise ScopeExceeded("type B arrangements supported up to n = 3")
        reflections = [Reflection("B", -i, i) for i in range(1, n + 1)]
        reflections += [Reflection("B", a, j) for i, j in pairs for a in (i, -i)]
    return Arrangement([reflection_hyperplane(t, n) for t in reflections], range(1, n + 1))


def poset_of_regions(arr: Arrangement) -> FiniteLattice:
    """Regions ordered by inclusion of separating sets."""
    regions = arr.regions()
    seps = [r.separating() for r in regions]
    covers = []
    for i, r in enumerate(regions):
        for j, q in enumerate(regions):
            if len(seps[j]) == len(seps[i]) + 1 and seps[i] < seps[j]:
                covers.append((r, q))
    return build_lattice(covers, regions)


def weak_order_isomorphism(arr: Arrangement, lattice: FiniteLattice) -> Dict[int, Region]:
    """Isomorphism from a weak-order lattice onto the poset of regions.

    Each element goes to the region separated from the base region by the
    hyperplanes of its inversions; the map is checked to be a bijection that
    sends covers to covers.
    """
    regions = arr.regions()
    by_sep = {r.separating(): r for r in regions}
    seps = [
        frozenset(arr.hyperplanes.index(reflection_hyperplane(t, arr.dim)) for t in w.inversions())
        for w in lattice.labels
    ]
    if any(sep not in by_sep for sep in seps):
        raise ValueError("poset of regions does not match the weak order")
    if len(set(seps)) != lattice.n or len(regions) != lattice.n:
        raise ValueError("not a bijection")
    for a in range(lattice.n):
        for b in lattice.covers_up[a]:
            if not (seps[a] < seps[b] and len(seps[b]) == len(seps[a]) + 1):
                raise ValueError("covers do not match")
    return {i: by_sep[sep] for i, sep in enumerate(seps)}


def rank_two(arr: Arrangement, i: int, j: int) -> Tuple[tuple, tuple]:
    """Members and basic pair of the rank-two subarrangement through H_i, H_j,
    computed once per unordered pair and kept on the arrangement."""
    if i == j:
        raise ValueError("need two distinct hyperplanes")
    key = (i, j) if i < j else (j, i)
    known = arr._rank_two.get(key)
    if known is None:
        known = arr._rank_two[key] = _rank_two(arr, *key)
    return known


def _rank_two(arr: Arrangement, i: int, j: int) -> Tuple[tuple, tuple]:
    ni, nj = arr.oriented[i], arr.oriented[j]
    members = []
    for k, nk in enumerate(arr.oriented):
        if _in_span(nk, ni, nj):
            members.append(k)
    basics = [
        k
        for k in members
        if _system(arr.dim, [arr.oriented[k]], gts=[arr.oriented[l] for l in members if l != k]).feasible()
    ]
    if len(basics) != 2:
        raise ValueError("rank-two subarrangement must have two walls")
    return tuple(members), tuple(basics)


def _in_span(v: Sequence, a: Sequence, b: Sequence) -> bool:
    """v in span(a, b), all integer vectors: every 3 x 3 minor of the rows
    a, b, v vanishes (in dimension 2 there are none, and rank <= 2 holds)."""
    for i, j, k in itertools.combinations(range(len(v)), 3):
        if (
            a[i] * (b[j] * v[k] - b[k] * v[j])
            - a[j] * (b[i] * v[k] - b[k] * v[i])
            + a[k] * (b[i] * v[j] - b[j] * v[i])
        ):
            return False
    return True


def cuts(arr: Arrangement, i: int, j: int) -> bool:
    """H_i slices H_j: H_i is basic and H_j is not in their subarrangement."""
    if i == j:
        return False
    _members, basics = rank_two(arr, i, j)
    return i in basics and j not in basics


@dataclass(frozen=True)
class ShardCone:
    """A piece of a hyperplane: the carrier plus strict sides for its cutters."""

    carrier: int
    sides: tuple  # sorted tuple of (hyperplane index, +1/-1)


def _cutters(arr: Arrangement, h: int) -> list:
    return [k for k in range(arr.m()) if cuts(arr, k, h)]


def shards(arr: Arrangement) -> tuple:
    """All pieces of all hyperplanes, sliced along the hyperplanes cutting them."""
    out: List[ShardCone] = []
    for h in range(arr.m()):
        cutters = _cutters(arr, h)
        if not cutters:
            out.append(ShardCone(h, ()))
            continue
        for signs in itertools.product((1, -1), repeat=len(cutters)):
            sides = tuple(zip(cutters, signs))
            if _system(arr.dim, [arr.oriented[h]], gts=_sided(arr, sides)).feasible():
                out.append(ShardCone(h, tuple(sorted(sides))))
    return tuple(out)


def _flip(signs: tuple, i: int) -> tuple:
    return signs[:i] + (-signs[i],) + signs[i + 1:]


def region_walls(arr: Arrangement, region: Region) -> list:
    """Hyperplanes supporting facets of the region."""
    return [i for i in range(arr.m()) if arr.region_of(_flip(region.signs, i)) is not None]


def facet_witness(arr: Arrangement, region: Region, wall: int) -> tuple:
    """Interior point of the facet of the region on the wall."""
    neighbor = arr.region_of(_flip(region.signs, wall))
    a = dot(arr.oriented[wall], region.witness)
    b = dot(arr.oriented[wall], neighbor.witness)
    # combination landing on the wall, strictly inside every other halfspace
    u = [abs(b) * x + abs(a) * y for x, y in zip(region.witness, neighbor.witness)]
    if dot(arr.oriented[wall], u) != 0:
        raise InvariantError(f"facet witness {u} is off wall {wall}")
    return tuple(u)


def lower_shards(arr: Arrangement, region: Region, all_shards: Sequence[ShardCone]) -> list:
    """Shards meeting the region in a facet whose hyperplane separates it."""
    out = []
    sep = region.separating()
    for wall in region_walls(arr, region):
        if wall not in sep:
            continue
        u = facet_witness(arr, region, wall)
        matches = [
            sh
            for sh in all_shards
            if sh.carrier == wall
            and all(s * dot(arr.oriented[k], u) > 0 for k, s in sh.sides)
        ]
        if len(matches) != 1:
            raise InvariantError(f"{len(matches)} shards contain the facet on wall {wall}")
        out.append(matches[0])
    return out


def _upper_regions(arr: Arrangement, all_shards: Sequence[ShardCone]) -> dict:
    """Shard -> the regions having it as a lower shard, in region order;
    built once per arrangement and shard list."""
    key = tuple(all_shards)
    table = arr._uppers.get(key)
    if table is None:
        table = {}
        for r in arr.regions():
            for sh in lower_shards(arr, r, all_shards):
                table.setdefault(sh, []).append(r)
        arr._uppers[key] = table
    return table


def min_upper_region(arr: Arrangement, shard: ShardCone, all_shards: Sequence[ShardCone]) -> Region:
    """The unique minimal region having the shard as a lower shard."""
    uppers = _upper_regions(arr, all_shards).get(shard, [])
    minimal = [
        r
        for r in uppers
        if not any(q is not r and q.separating() < r.separating() for q in uppers)
    ]
    if len(minimal) != 1:
        raise InvariantError(f"shard {shard} has {len(minimal)} minimal upper regions")
    best = minimal[0]
    if not all(best.separating() <= r.separating() for r in uppers):
        raise InvariantError(f"minimal upper region of {shard} is not the minimum")
    return best


def shards_compatible(arr: Arrangement, s1: ShardCone, s2: ShardCone) -> bool:
    """Relative interiors intersect (allowing the origin for unsliced shards)."""
    if s1 == s2:
        return True
    if s1.carrier == s2.carrier:
        return False
    eqs = [arr.oriented[s1.carrier], arr.oriented[s2.carrier]]
    return _system(arr.dim, eqs, gts=_sided(arr, s1.sides + s2.sides)).feasible()


def shard_arrow_geometric(arr: Arrangement, s1: ShardCone, s2: ShardCone) -> bool:
    """Arrow between pieces: the first carrier slices the second and the
    closed pieces meet in codimension 2."""
    if not cuts(arr, s1.carrier, s2.carrier):
        return False
    n1, n2 = arr.oriented[s1.carrier], arr.oriented[s2.carrier]
    # a side whose normal is in the span vanishes on the intersection subspace
    sides = [(k, s) for k, s in s1.sides + s2.sides if not _in_span(arr.oriented[k], n1, n2)]
    return _system(arr.dim, [n1, n2], gts=_sided(arr, sides)).feasible()


def arrow_witness_check(arr: Arrangement, s1: ShardCone, s2: ShardCone, all_shards: Sequence[ShardCone]) -> bool:
    """Arrow criterion via a witness shard compatible with the source.

    True iff some shard s1' is compatible with s1, the carrier of s2 lies in
    the rank-two subarrangement of the carriers of s1 and s1' without being
    basic there, and the intersection of s1 and s1' is contained in s2.
    """
    if s1.carrier == s2.carrier:
        return False
    for s1p in all_shards:
        if s1p.carrier == s1.carrier:
            continue
        members, basics = rank_two(arr, s1.carrier, s1p.carrier)
        if s2.carrier not in members or s2.carrier in basics:
            continue
        if not (s1.carrier in basics and s1p.carrier in basics):
            continue
        if not shards_compatible(arr, s1, s1p):
            continue
        if _cone_contained(arr, s1, s1p, s2):
            return True
    return False


def _cone_contained(arr: Arrangement, s1: ShardCone, s1p: ShardCone, s2: ShardCone) -> bool:
    """(closure of s1) cap (closure of s1') inside the closure of s2; the
    carrier of s2 vanishes on the intersection, by the rank-two test."""
    eqs = [arr.oriented[s1.carrier], arr.oriented[s1p.carrier]]
    return _closed_cone_inside(arr.dim, eqs, _sided(arr, s1.sides + s1p.sides), _sided(arr, s2.sides))


def descriptor_matches(arr: Arrangement, shard: ShardCone, descriptor, n: int) -> bool:
    """The inequality description and the computed piece cut out the same cone."""
    eq, ineqs = descriptor.linear_forms(n)
    if hyperplane(eq) != arr.hyperplanes[shard.carrier]:
        return False
    sides = _sided(arr, shard.sides)
    return _closed_cone_inside(arr.dim, [eq], ineqs, sides) and _closed_cone_inside(
        arr.dim, [arr.oriented[shard.carrier]], sides, ineqs
    )

