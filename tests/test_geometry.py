import hashlib
import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from arclat import arcs_a, arcs_b, geometry as geo, lattice as lat, verify
from arclat.permutations import CoxeterType, weak_order_lattice
from arclat.util import InvariantError, dot
from test_feasible import FractionSystem, assert_primitive, primitive
from test_serialize_cli import run_cli

ARRANGEMENTS = [("B", 2), ("B", 3), ("A", 3), ("A", 4)]
ADMITTED = [("B", 1), ("B", 2), ("B", 3), ("A", 1), ("A", 2), ("A", 3), ("A", 4)]


def base_region(arr):
    """The region on the positive side of every hyperplane."""
    return next(r for r in arr.regions() if all(s > 0 for s in r.signs))


@pytest.mark.parametrize(
    "family,n,hyperplanes,regions",
    [("B", 2, 4, 8), ("B", 3, 9, 48), ("A", 3, 3, 6), ("A", 4, 6, 24)],
)
def test_arrangement_counts(family, n, hyperplanes, regions):
    arr = geo.coxeter_arrangement(CoxeterType(family, n))
    assert arr.m() == hyperplanes
    assert len(arr.regions()) == regions


def test_scope_guard():
    with pytest.raises(lat.ScopeExceeded):
        geo.coxeter_arrangement(CoxeterType("B", 4))


@pytest.mark.parametrize("family,n", ADMITTED)
def test_hyperplanes_are_the_inversions_of_the_longest_element(family, n):
    """The arrangement's hyperplanes are the fixed hyperplanes of the
    reflections, read off the inversions of the top of the weak order."""
    arr = geo.coxeter_arrangement(CoxeterType(family, n))
    W = weak_order_lattice(CoxeterType(family, n))
    fixed = {geo.reflection_hyperplane(t, n) for t in W.labels[W.top].inversions()}
    assert set(arr.hyperplanes) == fixed and len(arr.hyperplanes) == len(fixed)


def test_geometry_results_are_pinned():
    """One digest over every geometry result at each rank the arrangements
    admit: the hyperplanes, their orientation and the regions with their
    witnesses, the shards, the lower shards of every region and the minimal
    upper region of every shard, compatibility and both arrow criteria on
    every ordered pair of shards, the geometry and shard-digraph suites, and
    the exit code and stdout of the shards command, so that a change of the
    systems the geometry solves, or of their rows' order, shows as a
    changed byte."""
    digest = hashlib.sha256()
    for family, n in ADMITTED:
        arr = geo.coxeter_arrangement(CoxeterType(family, n))
        shards = geo.shards(arr)
        facts = [
            arr.hyperplanes,
            arr.oriented,
            arr.regions(),
            shards,
            [geo.lower_shards(arr, r, shards) for r in arr.regions()],
            [geo.min_upper_region(arr, s, shards) for s in shards],
            [
                (
                    geo.shards_compatible(arr, s1, s2),
                    geo.shard_arrow_geometric(arr, s1, s2),
                    geo.arrow_witness_check(arr, s1, s2, shards),
                )
                for s1, s2 in itertools.product(shards, repeat=2)
            ],
            verify.suite_geometry(n, family),
            verify.suite_shard_digraph(n, family),
        ]
        code, out = run_cli("shards", "--type", family.lower(), "--n", str(n))
        digest.update(f"{family}{n} {facts!r}\n{code}\n{out}".encode())
    assert digest.hexdigest() == "20eb356d4532fbdecad9f973fea0f54df638e9f034301ac404d1599775484f05"


def test_importing_geometry_loads_no_rational_arithmetic():
    """Geometry runs on integer rays: `import arclat.geometry` loads neither
    `fractions` nor `decimal`."""
    src = str(pathlib.Path(geo.__file__).parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, arclat.geometry; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert loaded == "[]\n"


@pytest.mark.parametrize("family,n", [("B", 2), ("B", 3), ("A", 3), ("A", 4)])
def test_poset_of_regions_is_weak_order(family, n):
    arr = geo.coxeter_arrangement(CoxeterType(family, n))
    P = geo.poset_of_regions(arr)
    W = weak_order_lattice(CoxeterType(family, n))
    geo.weak_order_isomorphism(arr, W)  # raises on mismatch
    assert lat.is_isomorphic(P, W)


def test_rank_two_basics_b2():
    arr = geo.coxeter_arrangement(CoxeterType("B", 2))
    ix = {h.normal: i for i, h in enumerate(arr.hyperplanes)}
    members, basics = geo.rank_two(arr, ix[(1, 0)], ix[(0, 1)])
    assert len(members) == 4
    assert set(basics) == {ix[(1, 0)], ix[(1, -1)]}
    assert geo.cuts(arr, ix[(1, 0)], ix[(0, 1)])
    assert geo.cuts(arr, ix[(1, -1)], ix[(1, 1)])
    assert not geo.cuts(arr, ix[(0, 1)], ix[(1, 0)])
    assert not geo.cuts(arr, ix[(1, 0)], ix[(1, -1)])
    assert not geo.cuts(arr, ix[(1, 0)], ix[(1, 0)])


def test_rank_two_orthogonal_pair():
    arr = geo.coxeter_arrangement(CoxeterType("B", 3))
    ix = {h.normal: i for i, h in enumerate(arr.hyperplanes)}
    members, basics = geo.rank_two(arr, ix[(0, 0, 1)], ix[(1, -1, 0)])
    assert len(members) == 2
    assert set(basics) == {ix[(0, 0, 1)], ix[(1, -1, 0)]}


def test_rank_two_triple_in_a2():
    arr = geo.coxeter_arrangement(CoxeterType("A", 3))
    ix = {h.normal: i for i, h in enumerate(arr.hyperplanes)}
    members, basics = geo.rank_two(arr, ix[(1, -1, 0)], ix[(1, 0, -1)])
    assert len(members) == 3
    assert set(basics) == {ix[(1, -1, 0)], ix[(0, 1, -1)]}


@pytest.mark.parametrize("family,n", [("B", 2), ("B", 3), ("A", 3), ("A", 4)])
def test_shard_count_is_ji_count(family, n):
    arr = geo.coxeter_arrangement(CoxeterType(family, n))
    W = weak_order_lattice(CoxeterType(family, n))
    assert len(geo.shards(arr)) == len(W.jis)


def test_unsliced_basic_walls_have_one_shard():
    arr = geo.coxeter_arrangement(CoxeterType("B", 2))
    ix = {h.normal: i for i, h in enumerate(arr.hyperplanes)}
    shards = geo.shards(arr)
    for normal in ((1, 0), (1, -1)):
        pieces = [s for s in shards if s.carrier == ix[normal]]
        assert len(pieces) == 1 and pieces[0].sides == ()


def _tables(family, n):
    arr = geo.coxeter_arrangement(CoxeterType(family, n))
    W = weak_order_lattice(CoxeterType(family, n))
    iso = geo.weak_order_isomorphism(arr, W)
    shards = geo.shards(arr)
    by_signs = {iso[i].signs: i for i in iso}
    shard_of = {}
    for s in shards:
        r = geo.min_upper_region(arr, s, shards)
        shard_of[by_signs[r.signs]] = s
    return arr, W, shards, shard_of


def test_min_upper_region_bijection_b2():
    arr, W, shards, shard_of = _tables("B", 2)
    assert set(shard_of) == set(W.jis)
    # atoms of the weak order sit above the unsliced walls
    for i, s in shard_of.items():
        if s.sides == ():
            assert len(W.covers_down[i]) == 1 and W.covers_down[i][0] == W.bottom


def test_lower_shards_base_and_top():
    arr, W, shards, shard_of = _tables("B", 2)
    base = base_region(arr)
    assert geo.lower_shards(arr, base, shards) == []
    top = next(r for r in arr.regions() if len(r.separating()) == arr.m())
    assert len(geo.lower_shards(arr, top, shards)) == 2


@pytest.mark.parametrize("family,n", [("B", 2), ("B", 3)])
def test_lower_shards_give_canonical_joinands(family, n):
    from arclat.permutations import cjr_weak

    arr, W, shards, shard_of = _tables(family, n)
    ji_of_shard = {s: i for i, s in shard_of.items()}
    iso = geo.weak_order_isomorphism(arr, W)
    for i in range(W.n):
        region = iso[i]
        lows = geo.lower_shards(arr, region, shards)
        mapped = {W.labels[ji_of_shard[s]] for s in lows}
        assert mapped == cjr_weak(W.labels[i])


def test_shards_compatible_examples():
    arr, W, shards, shard_of = _tables("B", 2)
    top = next(r for r in arr.regions() if len(r.separating()) == arr.m())
    s1, s2 = geo.lower_shards(arr, top, shards)
    assert geo.shards_compatible(arr, s1, s2)
    same_carrier = [s for s in shards if s.carrier == shards[0].carrier]
    for a, b in itertools.combinations(same_carrier, 2):
        assert not geo.shards_compatible(arr, a, b)


@pytest.mark.parametrize("family,n", [("B", 2), ("B", 3)])
def test_shard_compatibility_matches_arcs(family, n):
    arr, W, shards, shard_of = _tables(family, n)
    for i, j in itertools.combinations(sorted(shard_of), 2):
        a1 = arcs_b.arc_of_join_irreducible(W.labels[i])
        a2 = arcs_b.arc_of_join_irreducible(W.labels[j])
        assert geo.shards_compatible(arr, shard_of[i], shard_of[j]) == arcs_b.compatible(a1, a2)


@pytest.mark.parametrize("family,n", [("B", 2), ("B", 3)])
def test_descriptors_match_shards_b(family, n):
    arr, W, shards, shard_of = _tables(family, n)
    for i, s in shard_of.items():
        arc = arcs_b.arc_of_join_irreducible(W.labels[i])
        assert geo.descriptor_matches(arr, s, arcs_b.shard_descriptor(arc), n)


@pytest.mark.parametrize("n", [3, 4])
def test_descriptors_match_shards_a(n):
    arr, W, shards, shard_of = _tables("A", n)
    for i, s in shard_of.items():
        arc = arcs_a.arc_of_join_irreducible(W.labels[i].word)
        assert geo.descriptor_matches(arr, s, arcs_a.shard_descriptor(arc), n)


@pytest.mark.parametrize("family,n", [("B", 2), ("A", 3)])
def test_arrow_equals_witness_criterion_small(family, n):
    arr, W, shards, shard_of = _tables(family, n)
    for s1, s2 in itertools.product(shards, repeat=2):
        assert geo.shard_arrow_geometric(arr, s1, s2) == geo.arrow_witness_check(arr, s1, s2, shards)


def test_no_arrows_between_orthogonal_carriers():
    arr, W, shards, shard_of = _tables("B", 3)
    ix = {h.normal: i for i, h in enumerate(arr.hyperplanes)}
    a = ix[(0, 0, 1)]
    b = ix[(1, -1, 0)]
    for s1 in shards:
        for s2 in shards:
            if {s1.carrier, s2.carrier} == {a, b}:
                assert not geo.shard_arrow_geometric(arr, s1, s2)


def test_facet_witness_lies_on_wall():
    arr = geo.coxeter_arrangement(CoxeterType("B", 2))
    region = base_region(arr)
    for wall in geo.region_walls(arr, region):
        u = geo.facet_witness(arr, region, wall)
        assert dot(arr.oriented[wall], u) == 0
        for k in range(arr.m()):
            if k != wall:
                assert dot(arr.oriented[k], u) > 0


def _product_scan_regions(arr):
    """Reference: solve the system of each of the 2^m strict sign vectors,
    by elimination over Fraction rows, each witness scaled to its primitive
    integer vector."""
    found = []
    for signs in itertools.product((1, -1), repeat=arr.m()):
        sys = FractionSystem(arr.dim)
        for s, normal in zip(signs, arr.oriented):
            sys.gt([s * c for c in normal])
        w = sys.witness()
        if w is not None:
            found.append(geo.Region(signs, primitive(w)))
    return tuple(found)


@pytest.mark.parametrize("family,n", ARRANGEMENTS + [("A", 1), ("A", 2), ("B", 1)])
def test_regions_match_product_scan(family, n):
    arr = geo.coxeter_arrangement(CoxeterType(family, n))
    assert arr.regions() == _product_scan_regions(arr)
    for r in arr.regions():
        assert_primitive(r.witness)
        assert arr.region_of(r.signs) is r
    assert arr.region_of((1,) * (arr.m() - 1) + (2,)) is None


@pytest.mark.parametrize("family,n", ARRANGEMENTS)
def test_rank_two_is_kept_per_unordered_pair(family, n):
    arr = geo.coxeter_arrangement(CoxeterType(family, n))
    for i, j in itertools.permutations(range(arr.m()), 2):
        got = geo.rank_two(arr, i, j)
        assert got is geo.rank_two(arr, j, i)
        assert got == geo._rank_two(arr, i, j) == geo._rank_two(arr, j, i)
    with pytest.raises(ValueError):
        geo.rank_two(arr, 0, 0)


@pytest.mark.parametrize("family,n", ARRANGEMENTS)
def test_region_walls_match_linear_scan(family, n):
    arr = geo.coxeter_arrangement(CoxeterType(family, n))
    regions = arr.regions()
    for r in regions:
        flips = [tuple(-s if k == i else s for k, s in enumerate(r.signs)) for i in range(arr.m())]
        scan = [i for i, f in enumerate(flips) if any(q.signs == f for q in regions)]
        assert geo.region_walls(arr, r) == scan
        for wall in scan:
            neighbor = next(q for q in regions if q.signs == flips[wall])
            a = abs(dot(arr.oriented[wall], r.witness))
            b = abs(dot(arr.oriented[wall], neighbor.witness))
            want = tuple(b * x + a * y for x, y in zip(r.witness, neighbor.witness))
            assert geo.facet_witness(arr, r, wall) == want


@pytest.mark.parametrize("family,n", ARRANGEMENTS)
def test_min_upper_region_matches_region_scan(family, n):
    arr = geo.coxeter_arrangement(CoxeterType(family, n))
    shards = geo.shards(arr)
    lows = [(r, geo.lower_shards(arr, r, shards)) for r in arr.regions()]
    for sh in shards:
        uppers = [r for r, low in lows if sh in low]
        minimal = [r for r in uppers if all(r.separating() <= q.separating() for q in uppers)]
        assert len(minimal) == 1
        assert geo.min_upper_region(arr, sh, shards) is minimal[0]
        assert geo.min_upper_region(arr, sh, list(shards)) is minimal[0]
    stray = geo.ShardCone(shards[0].carrier, ((shards[0].carrier, 1),))
    with pytest.raises(InvariantError):
        geo.min_upper_region(arr, stray, shards)
